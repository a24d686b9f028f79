import numpy as np
import pytest

from birkhoff_poisson import linalg, momentum, poisson, strata, verify
from birkhoff_poisson.verify import run_suite

# The (suite, name) order of a `verify all` report.  The benchmark counts
# the checks of one report and wraps the suites by their keys, so both stay.
ALL_CHECKS = [
    ("factorization", "birkhoff-roundtrip"),
    ("factorization", "iwasawa-roundtrip"),
    ("factorization", "iwasawa-idempotent"),
    ("factorization", "iwasawa-unitary-fixed"),
    ("embedding", "cartan-symmetry"),
    ("embedding", "cartan-unitarity"),
    ("embedding", "cartan-coset-invariance"),
    ("embedding", "canonical-rep-unitarity"),
    ("bivector", "antisymmetry"),
    ("bivector", "operator-skewness"),
    ("bivector", "stabilizer-equivariance"),
    ("bivector", "su2-homogeneous-coefficients"),
    ("bivector", "su2-poisson-lie-coefficients"),
    ("bivector", "group-pushforward-agreement"),
    ("local-vs-equivariant", "calibration-constant-minus-one"),
    ("local-vs-equivariant", "agreement-cp1"),
    ("local-vs-equivariant", "agreement-cp2"),
    ("local-vs-equivariant", "agreement-gr:2,2"),
    ("local-vs-equivariant", "projective-specialization"),
    ("jacobi", "jacobi-cp3"),
    ("jacobi", "jacobi-cp2"),
    ("jacobi", "jacobi-gr22"),
    ("lambda-identity", "family-identity"),
    ("lambda-identity", "equator-degeneracy"),
    ("degeneracy", "cp2-minor-product-identity"),
    ("degeneracy", "top-layer-full-rank"),
    ("degeneracy", "locus-rank-drop"),
    ("degeneracy", "su2-vanishing-at-a0"),
    ("degeneracy", "leaf-tangency"),
    ("momentum", "cp1-closed-form"),
    ("momentum", "fixed-point-zero"),
    ("momentum", "hamiltonian-residual-cp1"),
    ("momentum", "hamiltonian-residual-cp2-gr22"),
]


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


def test_lambda_identity_holds_for_every_seed():
    # the family-identity bound is relative to |kks|, so it must hold for any
    # seed, not only the pinned ones
    failed = [
        seed for seed in range(200) if not run_suite("lambda-identity", seed)["pass"]
    ]
    assert failed == []


@pytest.mark.parametrize("seed", [0, 1, 42, 424242])
def test_all_report_keeps_its_checks_in_order(seed):
    report = run_suite("all", seed)
    assert list(verify.SUITES) == list(dict.fromkeys(s for s, _ in ALL_CHECKS))
    assert [(c["suite"], c["name"]) for c in report["checks"]] == ALL_CHECKS
    assert report["pass"]


@pytest.mark.parametrize(
    "suite",
    [
        "factorization",
        "embedding",
        "bivector",
        "local-vs-equivariant",
        "jacobi",
        "degeneracy",
        "momentum",
    ],
)
def test_suite_holds_over_a_seed_sweep(suite):
    # 68 and 141 failed the old near-zero-relative and absolute bounds; 42
    # and 75 failed agreement-gr:2,2 alone under the finite-difference chart
    # differential
    failed = [
        (seed, c["name"])
        for seed in [*range(16), 42, 68, 75, 141]
        for c in run_suite(suite, seed)["checks"]
        if not c["pass"]
    ]
    assert failed == []


@pytest.mark.parametrize(
    "suite,module,name,points",
    [("momentum", momentum, "hamiltonian_residual", 0), ("jacobi", poisson, "jacobi_residual", 1)],
)
def test_stencil_suites_make_one_call_per_preset(suite, module, name, points, monkeypatch):
    # cp1, cp2 and gr:2,2: each preset's stack of points (and, for the
    # Hamiltonian residual, the whole torus basis of their layer) in one call
    stacks = []
    original = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args: stacks.append(np.shape(args[points])) or original(*args)
    )
    for seed in (0, 42):
        stacks.clear()
        assert run_suite(suite, seed)["pass"]
        assert [shape[0] for shape in stacks] == ([10, 5, 5] if suite == "momentum" else [10, 10, 5])
        assert all(len(shape) == 3 - points for shape in stacks)


@pytest.mark.parametrize("seed", [0, 141])
def test_iwasawa_idempotent_fails_an_error_of_the_old_bound(seed, monkeypatch):
    factor = linalg.iwasawa_factor
    products = []

    def refactor_with_error(g, *args):
        f = factor(g, *args)
        if any(p.shape == np.shape(g) and np.array_equal(p, g) for p in products):
            # the re-factorization of an earlier product: 1e-10 into each l
            error = np.zeros_like(f.l)
            error[..., 1, 0] = 1e-10
            f = linalg.IwasawaFactors(l=f.l + error, a=f.a, u=f.u)
        products.append(f.reconstruct())
        return f

    assert _check(run_suite("factorization", seed), "iwasawa-idempotent")["pass"]
    monkeypatch.setattr(linalg, "iwasawa_factor", refactor_with_error)
    assert not _check(run_suite("factorization", seed), "iwasawa-idempotent")["pass"]


@pytest.mark.parametrize("seed", [0, 42])
def test_jacobi_cp3_fails_a_bivector_that_is_not_poisson(seed, monkeypatch):
    # f pi with f = 1 + x_0 is a bivector, but [f pi, f pi] is, up to sign,
    # 2 f pi^#(df) ^ pi, not 0: a residual of order one.  On cp1, of real
    # dimension 2, the bracket has no component, so no check there sees it
    assert _check(run_suite("jacobi", seed), "jacobi-cp3")["pass"]
    tensor = poisson.chart_tensor

    def rescaled(x, preset):
        return (1.0 + x[..., 0, None, None]) * tensor(x, preset)

    monkeypatch.setattr(poisson, "chart_tensor", rescaled)
    report = run_suite("jacobi", seed)
    assert not _check(report, "jacobi-cp3")["pass"]
    assert _check(report, "jacobi-cp3")["value"] > 1e-2


@pytest.mark.parametrize("seed", [0, 42])
def test_operator_skewness_fails_a_symmetric_part_in_omega(seed, monkeypatch):
    # the check reads the pairing matrix through omega_apply, so it sees a
    # symmetric part put into omega, which the closed form of
    # matrix_of_omega does not go through
    assert _check(run_suite("bivector", seed), "operator-skewness")["pass"]
    omega = poisson._omega
    monkeypatch.setattr(poisson, "_omega", lambda u, x, preset: omega(u, x, preset) + 1e-9 * x)
    assert not _check(run_suite("bivector", seed), "operator-skewness")["pass"]


@pytest.mark.parametrize("seed", [0, 42])
def test_antisymmetry_fails_a_symmetric_part_in_pi_eval(seed, monkeypatch):
    # H + 1e-9 I in the frame pairing adds the symmetric 1e-9 tr(x y) to
    # every value of pi_eval
    assert _check(run_suite("bivector", seed), "antisymmetry")["pass"]
    hilbert = poisson.hilbert_transform
    monkeypatch.setattr(poisson, "hilbert_transform", lambda z: hilbert(z) + 1e-9 * z)
    assert not _check(run_suite("bivector", seed), "antisymmetry")["pass"]


@pytest.mark.parametrize("seed", [0, 68])
def test_minor_product_identity_fails_an_error_relative_to_the_factors(seed, monkeypatch):
    assert _check(run_suite("degeneracy", seed), "cp2-minor-product-identity")["pass"]
    minors = linalg.principal_minors
    # the minors of the unitary Cartan image are at most 1 in modulus, so an
    # absolute 1e-10 in one of them is an error of 1e-10 relative to its size
    monkeypatch.setattr(linalg, "principal_minors", lambda g: minors(g) + [0.0, 1e-10, 0.0])
    assert not _check(run_suite("degeneracy", seed), "cp2-minor-product-identity")["pass"]


def test_momentum_uniform_block_is_the_per_point_stream():
    # the cp1 draw of the momentum suite takes (radius, angle) uniforms for
    # all points in one call; the stream and the generator state after it
    # are those of one pair per point
    block_rng, loop_rng = np.random.default_rng(5), np.random.default_rng(5)
    block = block_rng.uniform(size=(10, 2))
    loop = [[loop_rng.uniform(), loop_rng.uniform()] for _ in range(10)]
    assert block.tolist() == loop
    assert block_rng.bit_generator.state == loop_rng.bit_generator.state


def test_momentum_suite_factors_at_the_default_tol(monkeypatch):
    # every leaf factorization of the suite (two moment_eval calls and the
    # stencils of three hamiltonian_residual calls) runs its elimination at
    # the one threshold the report names: birkhoff_factor's default, as
    # leaf_factorize passes no threshold
    tols = []
    original = strata.birkhoff_factor

    def recorded(g, *tol):
        tols.append(tol)
        return original(g, *tol)

    monkeypatch.setattr(strata, "birkhoff_factor", recorded)
    report = run_suite("momentum", 0)
    assert report["pass"]
    assert (report["tolerance"], report["fd_step"]) == (linalg.DEFAULT_TOL, poisson.FD_STEP)
    assert len(tols) == 5 and set(tols) == {()}
    assert original.__defaults__ == (linalg.DEFAULT_TOL,)


# the worst leaf-tangency value of `verify all` and of the degeneracy suite
# alone over seeds 0-199: 2 eps
LEAF_TANGENCY_WORST = 4.440892098500626e-16


@pytest.mark.parametrize("seed", [0, 424242])
def test_leaf_tangency_fails_an_orbit_route_turned_within_its_span(seed, monkeypatch):
    # -S Q spans the columns of S for any orthogonal Q, so a comparison of
    # column spans passes it; the entrywise identity does not
    assert _check(run_suite("degeneracy", seed), "leaf-tangency")["pass"]
    span = strata.orbit_direction_span

    def turned(u, preset):
        s = span(u, preset)
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal(s.shape[-2:]))
        return -s @ q

    monkeypatch.setattr(strata, "orbit_direction_span", turned)
    assert not _check(run_suite("degeneracy", seed), "leaf-tangency")["pass"]


@pytest.mark.parametrize("seed", [0, 31])
def test_leaf_tangency_fails_an_error_of_100_times_its_worst_value(seed, monkeypatch):
    span = strata.orbit_direction_span
    monkeypatch.setattr(
        strata, "orbit_direction_span", lambda u, p: span(u, p) + 100 * LEAF_TANGENCY_WORST
    )
    assert not _check(run_suite("degeneracy", seed), "leaf-tangency")["pass"]
