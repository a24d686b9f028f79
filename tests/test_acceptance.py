"""Acceptance gate: one test per criterion, each printing a PASS line with
the worst observed residual so the whole gate can be audited from the log.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import functools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from birkhoff_poisson import (
    birkhoff_factor,
    birkhoff_layer,
    calibration_constant,
    canonical_rep,
    cartan_embed,
    chart_pi_eval,
    chart_tensor,
    cp1_family,
    grassmann_local_pi,
    hamiltonian_residual,
    iwasawa_factor,
    jacobi_residual,
    moment_eval,
    pi_el_group,
    pi_eval,
    pi_rank,
    principal_minors,
    theta_g,
    torus_tw,
)
from birkhoff_poisson.cli import main
from birkhoff_poisson.poisson import (
    cp2_degeneracy_p,
    pi_lw_group,
    su2_el_coefficients,
    su2_frame,
    su2_from_sphere,
    su2_lw_coefficients,
)
from birkhoff_poisson.sampling import (
    chart_sampler,
    complex_normal_sampler,
    random_interior_point,
    random_point,
    special_linear_stack,
    special_unitary_sampler,
    su2_sphere_sampler,
)
from birkhoff_poisson.poisson import matrix_of_omega
from birkhoff_poisson.strata import orbit_direction_span
from birkhoff_poisson.symspace import block_diag, grassmannian, group_case

CHART_PRESETS = [grassmannian(1, 1), grassmannian(1, 2), grassmannian(2, 2)]
RANK_PRESETS = [grassmannian(1, 1), grassmannian(1, 2), grassmannian(2, 2)]


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_factorization_roundtrips():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_b = worst_i = worst_fix = 0.0
    for n in (2, 3, 4, 6):
        for _ in range(1000):
            g = special_linear_stack(n, 1, rng)[0]
            scale = np.linalg.norm(g)
            fb = birkhoff_factor(g)
            worst_b = max(worst_b, np.linalg.norm(fb.reconstruct() - g) / scale)
            fi = iwasawa_factor(g)
            worst_i = max(worst_i, np.linalg.norm(fi.reconstruct() - g) / scale)
            again = iwasawa_factor(fi.reconstruct())
            worst_fix = max(
                worst_fix,
                np.linalg.norm(again.l - fi.l),
                np.linalg.norm(again.a - fi.a),
                np.linalg.norm(again.u - fi.u),
            )
    elapsed = time.perf_counter() - start
    assert worst_b <= 1e-10
    assert worst_i <= 1e-10
    assert worst_fix <= 1e-10
    assert elapsed < 5.0
    report(
        "criterion-01 factorization-roundtrips",
        f"birkhoff {worst_b:.2e}, iwasawa {worst_i:.2e}, idempotence {worst_fix:.2e}, "
        f"{elapsed:.2f}s for 4000 samples",
    )


def test_criterion_02_cartan_embedding_symmetry():
    rng = np.random.default_rng(102)
    worst = 0.0
    for preset in CHART_PRESETS + [group_case(2)]:
        for _ in range(1000):
            u = random_point(preset, rng)
            phi = cartan_embed(u, preset)
            worst = max(
                worst,
                np.linalg.norm(phi.conj().T - theta_g(phi, preset)),
                np.linalg.norm(phi @ phi.conj().T - np.eye(preset.matrix_dim)),
            )
    assert worst <= 1e-10
    report("criterion-02 cartan-symmetry", f"worst residual {worst:.2e} over 4 presets x 1000")


def test_criterion_03_equivariant_local_agreement():
    rng = np.random.default_rng(103)
    cal = calibration_constant()
    worst = 0.0
    for preset in CHART_PRESETS:
        for _ in range(100):
            z = chart_sampler(preset).one(rng)
            v = complex_normal_sampler((preset.m, preset.n)).one(rng)
            w = complex_normal_sampler((preset.m, preset.n)).one(rng)
            local = grassmann_local_pi(z, v, w)
            equiv = chart_pi_eval(preset, z, v, w)
            worst = max(worst, abs(local - cal * equiv) / max(1.0, abs(local)))
    assert worst <= 1e-8
    report(
        "criterion-03 local-vs-equivariant",
        f"calibration constant {cal:.12f}, worst relative gap {worst:.2e}",
    )


def test_criterion_04_lambda_identity():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        z = complex(complex_normal_sampler(()).one(rng))
        fam = cp1_family(z)
        worst = max(worst, abs(fam.evens_lu - (fam.projected_pl - fam.kks)))
    assert worst <= 1e-14
    for t in [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 4), Fraction(9, 2)]:
        assert 1 - t * t == -2 * t * (1 + t) - (-((1 + t) ** 2))
    report("criterion-04 lambda-identity", f"numeric worst {worst:.2e}, exact at rationals")


def test_criterion_05_cp2_degeneracy_identity():
    rng = np.random.default_rng(105)
    preset = grassmannian(1, 2)
    worst = 0.0
    for _ in range(200):
        z = complex_normal_sampler(2).one(rng)
        u = canonical_rep(z.reshape(2, 1), preset)
        prod = np.prod(principal_minors(cartan_embed(u, preset)))
        rho2 = float(np.sum(np.abs(z) ** 2))
        pred = cp2_degeneracy_p(z[0], z[1]) / (1 + rho2) ** 3
        worst = max(worst, abs(prod - pred) / max(abs(pred), 1e-12))
    assert worst <= 1e-10
    report("criterion-05 cp2-minor-product", f"worst relative error {worst:.2e} over 200 points")


def test_criterion_06_jacobi_residual():
    rng = np.random.default_rng(106)
    cp2 = functools.partial(chart_tensor, preset=grassmannian(1, 2))
    g22 = functools.partial(chart_tensor, preset=grassmannian(2, 2))
    worst = 0.0
    for _ in range(50):
        worst = max(worst, jacobi_residual(cp2, 0.6 * rng.standard_normal(4)))
        worst = max(worst, jacobi_residual(g22, 0.5 * rng.standard_normal(8)))
    assert worst <= 1e-5
    report("criterion-06 jacobi", f"worst Schouten residual {worst:.2e} over 50+50 points")


def _inversions(w):
    return sum(w[i] > w[j] for i in range(len(w)) for j in range(i + 1, len(w)))


def _two_cycles(w):
    return sum(w[w[i]] == i < w[i] for i in range(len(w)))


def test_criterion_07_leaf_rank_correspondence():
    # The rank of pi is dim_ip - l(w) - c2(w) on the Grassmannian layer of
    # permutation w (l its inversions, c2 its 2-cycles), and 2 (l(w0) - l(w))
    # at a group point whose g = k1 k2* lies on layer w of SU(n)
    rng = np.random.default_rng(107)

    def grassmannian_rank(u, preset):
        perm, _ = birkhoff_layer(u, preset)
        return perm, preset.dim_ip - _inversions(perm) - _two_cycles(perm)

    for preset in RANK_PRESETS:
        for _ in range(100):
            u = random_point(preset, rng)
            perm, rank = grassmannian_rank(u, preset)
            assert perm == tuple(range(preset.matrix_dim))
            assert pi_rank(u, preset) == rank == preset.dim_ip
    cp1 = grassmannian(1, 1)
    cp2 = grassmannian(1, 2)

    def unit(z):
        return (z / np.linalg.norm(z)).reshape(-1, 1)

    def phase():
        return np.exp(2j * np.pi * rng.uniform())

    walls = [
        (cp1, (1, 0), 0, lambda: unit(np.array([phase()]))),  # |z| = 1
        (cp2, (1, 0, 2), 2, lambda: unit(complex_normal_sampler(2).one(rng))),  # |z| = 1
        (cp2, (2, 1, 0), 0, lambda: np.array([[0.0], [phase()]])),  # z = (0, e^(i beta))
    ]
    for preset, layer, expected, chart in walls:
        for _ in range(20):
            u = canonical_rep(chart(), preset)
            perm, rank = grassmannian_rank(u, preset)
            assert perm == layer
            assert pi_rank(u, preset) == rank == expected
    for n, expected, g_of in [
        (2, 2, lambda: special_unitary_sampler(2).one(rng)),
        (3, 6, lambda: special_unitary_sampler(3).one(rng)),
        (2, 0, lambda: su2_from_sphere(0.0, phase())),  # a = 0: g on the layer of w0
    ]:
        preset = group_case(n)
        longest = n * (n - 1) // 2
        for _ in range(20):
            g, k2 = g_of(), special_unitary_sampler(n).one(rng)
            perm = birkhoff_factor(g).perm
            rank = 2 * (longest - _inversions(perm))
            assert pi_rank(block_diag(g @ k2, k2), preset) == rank == expected
    h, x, y = su2_frame()
    for _ in range(20):
        k = su2_from_sphere(0.0, phase())
        worst = max(abs(pi_el_group(k, p, q)) for p in (h, x, y) for q in (h, x, y))
        assert worst <= 1e-12
    report(
        "criterion-07 leaf-rank",
        "rank dim_ip - l(w) - c2(w) on Grassmannian layers w and 2 (l(w0) - l(w)) on "
        "group layers, at top-layer points and on the named walls",
    )


def test_criterion_08_leaf_tangency():
    rng = np.random.default_rng(108)
    worst = 0.0
    for preset in RANK_PRESETS:
        for _ in range(100):
            u = random_point(preset, rng)
            gap = orbit_direction_span(u, preset) - matrix_of_omega(u, preset)
            worst = max(worst, np.max(np.abs(gap)))
    assert worst <= 1e-14
    report("criterion-08 leaf-tangency", f"worst entrywise gap {worst:.2e}")


def test_criterion_09_momentum_map():
    rng = np.random.default_rng(109)
    cp1 = grassmannian(1, 1)
    x_dir = np.diag([1j, -1j])
    worst_closed = worst_cp1 = 0.0
    for _ in range(50):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        u = canonical_rep(np.array([[z]]), cp1)
        mu = moment_eval(u, x_dir, cp1)
        closed = np.log((1 + abs(z) ** 2) / (1 - abs(z) ** 2))
        worst_closed = max(worst_closed, abs(mu - closed))
        worst_cp1 = max(worst_cp1, hamiltonian_residual(u, x_dir, cp1))
    assert worst_closed <= 1e-10
    assert worst_cp1 <= 1e-5
    assert moment_eval(np.eye(2, dtype=complex), x_dir, cp1) == pytest.approx(0.0, abs=1e-14)
    worst_big = 0.0
    for preset in (grassmannian(1, 2), grassmannian(2, 2)):
        for _ in range(50):
            u = random_interior_point(preset, rng)
            for x_t in torus_tw(birkhoff_layer(u, preset)[0], preset):
                worst_big = max(worst_big, hamiltonian_residual(u, x_t, preset))
    assert worst_big <= 1e-4
    report(
        "criterion-09 momentum",
        f"closed form {worst_closed:.2e}, residual cp1 {worst_cp1:.2e}, "
        f"cp2/gr22 {worst_big:.2e}",
    )


def test_criterion_10_group_case():
    rng = np.random.default_rng(110)
    worst_el = worst_lw = 0.0
    for _ in range(200):
        a, b = su2_sphere_sampler().one(rng)
        k = su2_from_sphere(a, b)
        el = np.array(su2_el_coefficients(k))
        el_exp = np.array(
            [1 + abs(a) ** 4 - abs(b) ** 4, 2 * np.imag(a * b), -2 * np.real(a * b)]
        )
        worst_el = max(worst_el, np.max(np.abs(el - el_exp)))
        lw = np.array(su2_lw_coefficients(k))
        lw_exp = np.array(
            [
                1 - abs(a) ** 4 + abs(b) ** 4,
                2 * np.imag(np.conj(a) * b),
                -2 * np.real(a * np.conj(b)),
            ]
        )
        worst_lw = max(worst_lw, np.max(np.abs(lw - lw_exp)))
    assert worst_el <= 1e-12
    assert worst_lw <= 1e-12
    h, x, y = su2_frame()
    worst_torus = 0.0
    for _ in range(20):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        kt = np.diag([phase, np.conj(phase)])
        worst_torus = max(
            worst_torus,
            max(abs(pi_lw_group(kt, p, q)) for p in (h, x, y) for q in (h, x, y)),
        )
    assert worst_torus <= 1e-12
    report(
        "criterion-10 group-case",
        f"homogeneous coeffs {worst_el:.2e}, Poisson-Lie coeffs {worst_lw:.2e}, "
        f"torus vanishing {worst_torus:.2e}",
    )


def test_criterion_11_determinism(tmp_path):
    a = tmp_path / "report_a.json"
    b = tmp_path / "report_b.json"
    assert main(["verify", "all", "--seed", "424242", "--out", str(a)]) == 0
    assert main(["verify", "all", "--seed", "424242", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    checks = json.loads(a.read_text())["checks"]
    assert all(c["pass"] for c in checks)
    report("criterion-11 determinism", f"verify all byte-identical, {len(checks)} checks green")
