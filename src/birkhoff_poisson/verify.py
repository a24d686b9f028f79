"""Seeded spot-check suites behind the command-line ``verify`` subcommand.

Each suite returns a list of checks ``{name, value, tol, pass}`` where value
is the worst residual observed.  Everything is driven by one seeded
generator, the one argument of a suite, so a fixed seed reproduces the
report byte for byte.  There is no threshold or step to set: every bound
was derived at the defaults ``linalg.DEFAULT_TOL`` and ``poisson.FD_STEP``,
and the suites run there.  A suite
draws all of a preset's samples first, in a fixed generator order, then
evaluates each check once on the (N, d, d) stack of them.  Samples that
need only standard normals take them in one generator call per draw
(``sampling.draw``), in the order a loop over the samples would; the
momentum suite's cp1 uniforms come in one ``rng.uniform`` call likewise, and
other samples that mix in uniforms or rejection are drawn one at a time.
Closed forms (``cp1_family``, ``cp2_degeneracy_p``) are evaluated once on
the whole stack.
"""

from __future__ import annotations

import functools

import numpy as np

from . import linalg, momentum, poisson, sampling, strata, symspace

_CHART_PRESETS = [
    symspace.grassmannian(1, 1),
    symspace.grassmannian(1, 2),
    symspace.grassmannian(2, 2),
]


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol), "pass": bool(value <= tol)}


def _norms(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(x, axis=(-2, -1))


def _refactor_defect(first: linalg.IwasawaFactors, again: linalg.IwasawaFactors, g) -> np.ndarray:
    """Per matrix, the largest gap between the factors of two Iwasawa
    factorizations of g, each divided by ||factor|| cond(g)^2.  The
    factorization goes through the Gram matrix g g*, whose condition number
    is cond(g)^2, so rounding moves a factor by a small multiple of
    eps ||factor|| cond(g)^2."""
    gaps = [
        _norms(b - a) / _norms(a)
        for a, b in ((first.l, again.l), (first.a, again.a), (first.u, again.u))
    ]
    return np.max(gaps, axis=0) / np.linalg.cond(g) ** 2


def _suite_factorization(rng: np.random.Generator) -> list[dict]:
    worst_b = worst_i = worst_fix = worst_unitary = 0.0
    for n in (2, 3, 4, 6):
        gs = sampling.special_linear_stack(n, 50, rng)
        scale = _norms(gs)
        rb = linalg.birkhoff_factor(gs).reconstruct()
        worst_b = max(worst_b, np.max(_norms(rb - gs) / scale))
        fi = linalg.iwasawa_factor(gs)
        ri = fi.reconstruct()
        worst_i = max(worst_i, np.max(_norms(ri - gs) / scale))
        worst_fix = max(worst_fix, np.max(_refactor_defect(fi, linalg.iwasawa_factor(ri), gs)))
        fu = linalg.iwasawa_factor(sampling.special_unitary_sampler(n).one(rng))
        worst_unitary = max(
            worst_unitary,
            np.linalg.norm(fu.l - np.eye(n)),
            np.linalg.norm(fu.a - np.eye(n)),
        )
    return [
        _check("birkhoff-roundtrip", worst_b, 1e-10),
        _check("iwasawa-roundtrip", worst_i, 1e-10),
        _check("iwasawa-idempotent", worst_fix, 1e-14),
        _check("iwasawa-unitary-fixed", worst_unitary, 1e-10),
    ]


def _suite_embedding(rng: np.random.Generator) -> list[dict]:
    worst_sym = worst_unit = worst_coset = worst_rep = 0.0
    for preset in _CHART_PRESETS + [symspace.group_case(2)]:
        u, k = sampling.draw(
            rng, 50, sampling.point_sampler(preset), sampling.stabilizer_sampler(preset)
        )
        phi = symspace.cartan_embed(u, preset)
        phi_h = phi.mT.conj()
        worst_sym = max(worst_sym, np.max(_norms(phi_h - symspace.theta_g(phi, preset))))
        worst_unit = max(worst_unit, np.max(_norms(phi @ phi_h - np.eye(preset.matrix_dim))))
        moved = symspace.cartan_embed(u @ k, preset)
        worst_coset = max(worst_coset, np.max(_norms(moved - phi)))
    for preset in _CHART_PRESETS:
        (z,) = sampling.draw(rng, 25, sampling.chart_sampler(preset))
        rep = symspace.canonical_rep(z, preset)
        worst_rep = max(
            worst_rep, np.max(_norms(rep @ rep.mT.conj() - np.eye(preset.matrix_dim)))
        )
    return [
        _check("cartan-symmetry", worst_sym, 1e-10),
        _check("cartan-unitarity", worst_unit, 1e-10),
        _check("cartan-coset-invariance", worst_coset, 1e-10),
        _check("canonical-rep-unitarity", worst_rep, 1e-11),
    ]


def _suite_bivector(rng: np.random.Generator) -> list[dict]:
    worst_antisym = worst_equiv = worst_skew = 0.0
    for preset in _CHART_PRESETS + [symspace.group_case(2)]:
        ip = sampling.ip_sampler(preset)
        u, x, y, k = sampling.draw(
            rng, 25, sampling.point_sampler(preset), ip, ip, sampling.stabilizer_sampler(preset)
        )
        value = poisson.pi_eval(u, x, y, preset)
        worst_antisym = max(
            worst_antisym, np.max(np.abs(value + poisson.pi_eval(u, y, x, preset)))
        )
        # the pairing matrix Re <e_s, omega(e_r)> through omega_apply: the
        # GEMM form of matrix_of_omega is skew by its algebra, whatever omega
        # does, so there the check would measure rounding only
        basis = symspace.ip_basis(preset)
        images = poisson.omega_apply(u[:, np.newaxis], basis, preset)
        pairing = np.einsum("sij,nrij->nsr", basis.conj(), images).real
        worst_skew = max(worst_skew, np.max(np.abs(pairing + pairing.mT)))
        k_inv = k.mT.conj()
        moved = poisson.pi_eval(
            u @ k, symspace.adjoint_act(k_inv, x), symspace.adjoint_act(k_inv, y), preset
        )
        worst_equiv = max(worst_equiv, np.max(np.abs(moved - value)))
    su2, algebra = sampling.special_unitary_sampler(2), sampling.su_algebra_sampler(2)
    ab, k1, k2, p, q = sampling.draw(
        rng, 50, sampling.su2_sphere_sampler(), su2, su2, algebra, algebra
    )
    a, b = ab[:, 0], ab[:, 1]
    k = poisson.su2_from_sphere(a, b)
    abs4 = np.abs(a) ** 4 - np.abs(b) ** 4
    el_expect = [1 + abs4, 2 * np.imag(a * b), -2 * np.real(a * b)]
    worst_el = np.max(np.abs(np.array(poisson.su2_el_coefficients(k)) - el_expect))
    lw_expect = [1 - abs4, 2 * np.imag(np.conj(a) * b), -2 * np.real(a * np.conj(b))]
    worst_lw = np.max(np.abs(np.array(poisson.su2_lw_coefficients(k)) - lw_expect))
    k1_inv = k1.mT.conj()
    pd = k1_inv @ p @ k1
    qd = k1_inv @ q @ k1
    push = poisson.pi_eval(
        symspace.block_diag(k1, k2),
        symspace.block_diag(pd, -pd),
        symspace.block_diag(qd, -qd),
        symspace.group_case(2),
    )
    worst_push = np.max(np.abs(poisson.pi_el_group(k1 @ k2.mT.conj(), p, q) - push))
    return [
        _check("antisymmetry", worst_antisym, 1e-10),
        _check("operator-skewness", worst_skew, 1e-10),
        _check("stabilizer-equivariance", worst_equiv, 1e-10),
        _check("su2-homogeneous-coefficients", worst_el, 1e-12),
        _check("su2-poisson-lie-coefficients", worst_lw, 1e-12),
        _check("group-pushforward-agreement", worst_push, 1e-9),
    ]


def _suite_local_vs_equivariant(rng: np.random.Generator) -> list[dict]:
    cal = poisson.calibration_constant()
    checks = [_check("calibration-constant-minus-one", abs(cal - 1.0), 1e-8)]
    for preset in _CHART_PRESETS:
        covector = sampling.complex_normal_sampler((preset.m, preset.n))
        z, v, w = sampling.draw(rng, 20, sampling.chart_sampler(preset), covector, covector)
        local = poisson.grassmann_local_pi(z, v, w)
        equiv = poisson.chart_pi_eval(preset, z, v, w)
        worst = np.max(np.abs(local - cal * equiv) / np.maximum(1.0, np.abs(local)))
        checks.append(_check(f"agreement-{preset.label}", worst, 1e-8))
    worst = 0.0
    for n in (1, 2):
        covector = sampling.complex_normal_sampler((1, n))
        z, v, w = sampling.draw(rng, 20, sampling.complex_normal_sampler(n), covector, covector)
        local = poisson.grassmann_local_pi(z[..., np.newaxis], v, w)
        coord = poisson.coord_pi_value(poisson.cpn_coeffs(z), v[:, 0], w[:, 0])
        worst = max(worst, np.max(np.abs(local - coord)))
    checks.append(_check("projective-specialization", worst, 1e-12))
    return checks


def _suite_jacobi(rng: np.random.Generator) -> list[dict]:
    # cp1 has no Schouten component (real dimension 2): cp3 is a check that can fail
    checks = []
    for name, (m, n), scale, count in (
        ("jacobi-cp3", (1, 3), 0.6, 10),
        ("jacobi-cp2", (1, 2), 0.6, 10),
        ("jacobi-gr22", (2, 2), 0.5, 5),
    ):
        preset = symspace.grassmannian(m, n)
        x = scale * rng.standard_normal((count, preset.dim_ip))
        tensor = functools.partial(poisson.chart_tensor, preset=preset)
        checks.append(_check(name, np.max(poisson.jacobi_residual(tensor, x)), 1e-5))
    return checks


def _suite_lambda_identity(rng: np.random.Generator) -> list[dict]:
    (zs,) = sampling.draw(rng, 100, sampling.complex_normal_sampler(()))
    fam = poisson.cp1_family(zs)
    # rounding grows like |kks| = (1 + |z|^2)^2, so the bound is relative to it
    worst = np.max(np.abs(fam.evens_lu - (fam.projected_pl - fam.kks)) / np.abs(fam.kks))
    equator = max(
        abs(poisson.cp1_family(np.exp(1j * t)).evens_lu) for t in np.linspace(0, 6.2, 21)
    )
    return [
        _check("family-identity", worst, 1e-14),
        _check("equator-degeneracy", equator, 1e-14),
    ]


def _suite_degeneracy(rng: np.random.Generator) -> list[dict]:
    cp2 = symspace.grassmannian(1, 2)
    (z,) = sampling.draw(rng, 100, sampling.complex_normal_sampler(2))
    phi = symspace.cartan_embed(symspace.canonical_rep(z[..., np.newaxis], cp2), cp2)
    minors = linalg.principal_minors(phi)
    rho2 = np.sum(np.abs(z) ** 2, axis=-1)
    pred = poisson.cp2_degeneracy_p(z[:, 0], z[:, 1]) / (1 + rho2) ** 3
    # the minors of the unitary phi are at most 1 in modulus and each carries
    # an absolute rounding error of a few eps, so the product's error scales
    # with sum_k prod_{j != k} |m_j|, not with the product itself
    size = sum(np.prod(np.abs(np.delete(minors, k, axis=-1)), axis=-1) for k in range(3))
    prod = np.prod(minors, axis=-1)
    checks = [_check("cp2-minor-product-identity", np.max(np.abs(prod - pred) / size), 1e-13)]

    rank_defect = 0
    for preset in _CHART_PRESETS:
        (u,) = sampling.draw(rng, 20, sampling.point_sampler(preset))
        rank_defect += int(np.sum(poisson.pi_rank(u, preset) != preset.dim_ip))
    checks.append(_check("top-layer-full-rank", float(rank_defect), 0.0))

    cp1 = symspace.grassmannian(1, 1)
    # each draw mixes a uniform into the normals, so one at a time, copied
    # into preallocated stacks: holding the per-sample arrays until the end
    # fragmented the heap and raised the peak memory of repeated runs
    normals = sampling.complex_normal_sampler(2)
    t, z = np.empty(10), np.empty((10, 2), dtype=complex)
    for i in range(10):
        t[i] = rng.uniform()
        z[i] = normals.one(rng)
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    u1 = symspace.canonical_rep(np.exp(2j * np.pi * t).reshape(-1, 1, 1), cp1)
    u2 = symspace.canonical_rep(z[..., np.newaxis], cp2)
    drop_defect = np.sum(poisson.pi_rank(u1, cp1) != 0) + np.sum(
        poisson.pi_rank(u2, cp2) >= cp2.dim_ip
    )
    checks.append(_check("locus-rank-drop", float(drop_defect), 0.0))

    k = poisson.su2_from_sphere(0.0, np.exp(2j * np.pi * rng.uniform(size=10)))
    frame = np.array(poisson.su2_frame())
    pairings = poisson.pi_el_group(k[:, None, None], frame[:, None], frame[None, :])
    checks.append(_check("su2-vanishing-at-a0", np.max(np.abs(pairings)), 1e-12))

    # pi^# of each odd basis element is its projected orbit direction, so the
    # two routes agree entry by entry, not only in their column spans; at a
    # unitary point the entries are at most 1 in modulus and agree to a few eps
    worst_gap = 0.0
    for preset in _CHART_PRESETS:
        (u,) = sampling.draw(rng, 10, sampling.point_sampler(preset))
        gap = poisson.matrix_of_omega(u, preset) - strata.orbit_direction_span(u, preset)
        worst_gap = max(worst_gap, np.max(np.abs(gap)))
    checks.append(_check("leaf-tangency", worst_gap, 1e-14))
    return checks


def _suite_momentum(rng: np.random.Generator) -> list[dict]:
    cp1 = symspace.grassmannian(1, 1)
    x_dir = np.diag([1j, -1j])
    r, t = rng.uniform(size=(10, 2)).T
    zs = 0.85 * np.sqrt(r) * np.exp(2j * np.pi * t)
    us = symspace.canonical_rep(zs.reshape(-1, 1, 1), cp1)
    mod2 = np.abs(zs) ** 2
    closed = np.log((1 + mod2) / (1 - mod2))
    worst_closed = np.max(np.abs(momentum.moment_eval(us, x_dir, cp1) - closed))
    worst_res_cp1 = np.max(momentum.hamiltonian_residual(us, x_dir, cp1))
    fixed = abs(momentum.moment_eval(np.eye(2, dtype=complex), x_dir, cp1))
    worst_res_big = 0.0
    for preset in (symspace.grassmannian(1, 2), symspace.grassmannian(2, 2)):
        us = np.stack([sampling.random_interior_point(preset, rng) for _ in range(5)])
        # interior points lie on the top layer; the residual raises if any
        # stencil point leaves it
        top = tuple(range(preset.matrix_dim))
        basis = np.stack(strata.torus_tw(top, preset))
        res = momentum.hamiltonian_residual(us, basis, preset)
        worst_res_big = max(worst_res_big, np.max(res))
    return [
        _check("cp1-closed-form", worst_closed, 1e-10),
        _check("fixed-point-zero", fixed, 1e-12),
        _check("hamiltonian-residual-cp1", worst_res_cp1, 1e-5),
        _check("hamiltonian-residual-cp2-gr22", worst_res_big, 1e-4),
    ]


SUITES = {
    "factorization": _suite_factorization,
    "embedding": _suite_embedding,
    "bivector": _suite_bivector,
    "local-vs-equivariant": _suite_local_vs_equivariant,
    "jacobi": _suite_jacobi,
    "lambda-identity": _suite_lambda_identity,
    "degeneracy": _suite_degeneracy,
    "momentum": _suite_momentum,
}


def run_suite(name: str, seed: int) -> dict:
    """Run one named suite (or ``all``) and return the JSON-ready report.
    Every suite runs at the one operating point its bounds were set for:
    thresholds ``linalg.DEFAULT_TOL`` and the step ``poisson.FD_STEP``,
    which the report echoes."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    rng = np.random.default_rng(seed)
    checks = []
    for suite_name in names:
        for check in SUITES[suite_name](rng):
            check["suite"] = suite_name
            checks.append(check)
    return {
        "suite": name,
        "seed": seed,
        "tolerance": linalg.DEFAULT_TOL,
        "fd_step": poisson.FD_STEP,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
