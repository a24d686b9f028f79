"""Seeded spot-check suites behind the command-line ``verify`` subcommand.

Each suite returns a list of checks ``{name, value, tol, pass}`` where value
is the worst residual observed.  Everything is driven by one seeded
generator, so a fixed seed reproduces the report byte for byte.
"""

from __future__ import annotations

import numpy as np

from . import linalg, momentum, poisson, sampling, strata, symspace

_CHART_PRESETS = [
    symspace.grassmannian(1, 1),
    symspace.projective_space(2),
    symspace.grassmannian(2, 2),
]


def _check(name: str, value: float, tol: float) -> dict:
    return {"name": name, "value": float(value), "tol": float(tol), "pass": bool(value <= tol)}


def _suite_factorization(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    worst_b = worst_i = worst_fix = worst_unitary = 0.0
    for n in (2, 3, 4, 6):
        gs = np.array([sampling.random_special_linear(n, rng) for _ in range(50)])
        for g, rb in zip(gs, linalg.birkhoff_factor(gs).reconstruct()):
            scale = np.linalg.norm(g)
            worst_b = max(worst_b, np.linalg.norm(rb - g) / scale)
            fi = linalg.iwasawa_factor(g)
            worst_i = max(worst_i, np.linalg.norm(fi.reconstruct() - g) / scale)
            again = linalg.iwasawa_factor(fi.reconstruct())
            worst_fix = max(
                worst_fix,
                np.linalg.norm(again.l - fi.l),
                np.linalg.norm(again.a - fi.a),
                np.linalg.norm(again.u - fi.u),
            )
        u = sampling.random_special_unitary(n, rng)
        fu = linalg.iwasawa_factor(u)
        worst_unitary = max(
            worst_unitary,
            np.linalg.norm(fu.l - np.eye(n)),
            np.linalg.norm(fu.a - np.eye(n)),
        )
    return [
        _check("birkhoff-roundtrip", worst_b, 1e-10),
        _check("iwasawa-roundtrip", worst_i, 1e-10),
        _check("iwasawa-idempotent", worst_fix, 1e-10),
        _check("iwasawa-unitary-fixed", worst_unitary, 1e-10),
    ]


def _suite_embedding(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    worst_sym = worst_unit = worst_coset = worst_rep = 0.0
    presets = _CHART_PRESETS + [symspace.group_case(2)]
    for preset in presets:
        for _ in range(50):
            u = sampling.random_point(preset, rng)
            phi = symspace.cartan_embed(u, preset)
            worst_sym = max(
                worst_sym,
                np.linalg.norm(phi.conj().T - symspace.theta_g(phi, preset)),
            )
            worst_unit = max(
                worst_unit,
                np.linalg.norm(phi @ phi.conj().T - np.eye(preset.matrix_dim)),
            )
            k = sampling.random_stabilizer(preset, rng)
            moved = symspace.cartan_embed(u @ k, preset)
            worst_coset = max(worst_coset, np.linalg.norm(moved - phi))
    for preset in _CHART_PRESETS:
        for _ in range(25):
            z = sampling.random_chart(preset, rng)
            rep = symspace.canonical_rep(z, preset)
            worst_rep = max(
                worst_rep,
                np.linalg.norm(rep @ rep.conj().T - np.eye(preset.matrix_dim)),
            )
    return [
        _check("cartan-symmetry", worst_sym, 1e-10),
        _check("cartan-unitarity", worst_unit, 1e-10),
        _check("cartan-coset-invariance", worst_coset, 1e-10),
        _check("canonical-rep-unitarity", worst_rep, 1e-11),
    ]


def _suite_bivector(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    worst_antisym = worst_equiv = worst_skew = 0.0
    presets = _CHART_PRESETS + [symspace.group_case(2)]
    for preset in presets:
        for _ in range(25):
            u = sampling.random_point(preset, rng)
            x = sampling.random_ip(preset, rng)
            y = sampling.random_ip(preset, rng)
            worst_antisym = max(
                worst_antisym,
                abs(poisson.pi_eval(u, x, y, preset) + poisson.pi_eval(u, y, x, preset)),
            )
            mat = poisson.matrix_of_omega(u, preset)
            worst_skew = max(worst_skew, np.max(np.abs(mat + mat.T)))
            k = sampling.random_stabilizer(preset, rng)
            xk = symspace.adjoint_act(k.conj().T, x)
            yk = symspace.adjoint_act(k.conj().T, y)
            uk = u @ k
            worst_equiv = max(
                worst_equiv,
                abs(poisson.pi_eval(uk, xk, yk, preset) - poisson.pi_eval(u, x, y, preset)),
            )
    worst_el = worst_lw = worst_push = 0.0
    group = symspace.group_case(2)
    for _ in range(50):
        a, b = sampling.random_su2_sphere(rng)
        k = poisson.su2_from_sphere(a, b)
        el = np.array(poisson.su2_el_coefficients(k))
        el_expect = np.array(
            [1 + abs(a) ** 4 - abs(b) ** 4, 2 * np.imag(a * b), -2 * np.real(a * b)]
        )
        worst_el = max(worst_el, np.max(np.abs(el - el_expect)))
        lw = np.array(poisson.su2_lw_coefficients(k))
        lw_expect = np.array(
            [
                1 - abs(a) ** 4 + abs(b) ** 4,
                2 * np.imag(np.conj(a) * b),
                -2 * np.real(a * np.conj(b)),
            ]
        )
        worst_lw = max(worst_lw, np.max(np.abs(lw - lw_expect)))
        k1 = sampling.random_special_unitary(2, rng)
        k2 = sampling.random_special_unitary(2, rng)
        p = sampling.random_su_algebra(2, rng)
        q = sampling.random_su_algebra(2, rng)
        pd = k1.conj().T @ p @ k1
        qd = k1.conj().T @ q @ k1
        push = poisson.pi_eval(
            symspace.block_diag(k1, k2),
            symspace.block_diag(pd, -pd),
            symspace.block_diag(qd, -qd),
            group,
        )
        worst_push = max(worst_push, abs(poisson.pi_el_group(k1 @ k2.conj().T, p, q) - push))
    return [
        _check("antisymmetry", worst_antisym, 1e-10),
        _check("operator-skewness", worst_skew, 1e-10),
        _check("stabilizer-equivariance", worst_equiv, 1e-10),
        _check("su2-homogeneous-coefficients", worst_el, 1e-12),
        _check("su2-poisson-lie-coefficients", worst_lw, 1e-12),
        _check("group-pushforward-agreement", worst_push, 1e-9),
    ]


def _suite_local_vs_equivariant(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    cal = poisson.calibration_constant()
    checks = [_check("calibration-constant-minus-one", abs(cal - 1.0), 1e-8)]
    for preset in _CHART_PRESETS:
        worst = 0.0
        for _ in range(20):
            z = sampling.random_chart(preset, rng)
            v = sampling.complex_normal(rng, (preset.m, preset.n))
            w = sampling.complex_normal(rng, (preset.m, preset.n))
            local = poisson.grassmann_local_pi(z, v, w)
            equiv = poisson.chart_pi_eval(preset, z, v, w)
            worst = max(worst, abs(local - cal * equiv) / max(1.0, abs(local)))
        checks.append(_check(f"agreement-{preset.label}", worst, 1e-8))
    worst = 0.0
    for n in (1, 2):
        for _ in range(20):
            zvec = sampling.complex_normal(rng, n)
            v = sampling.complex_normal(rng, (1, n))
            w = sampling.complex_normal(rng, (1, n))
            local = poisson.grassmann_local_pi(zvec.reshape(n, 1), v, w)
            coord = poisson.coord_pi_value(poisson.cpn_coeffs(zvec), v.reshape(-1), w.reshape(-1))
            worst = max(worst, abs(local - coord))
    checks.append(_check("projective-specialization", worst, 1e-12))
    return checks


def _suite_jacobi(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    cp1 = poisson.coordinate_bivector("cp1")
    worst_cp1 = max(
        poisson.jacobi_residual(cp1, 0.7 * rng.standard_normal(2), fd_step) for _ in range(10)
    )
    cp2 = poisson.coordinate_bivector("cpn", n=2)
    worst_cp2 = max(
        poisson.jacobi_residual(cp2, 0.6 * rng.standard_normal(4), fd_step) for _ in range(10)
    )
    g22 = poisson.coordinate_bivector("grassmann", m=2, n=2)
    worst_g22 = max(
        poisson.jacobi_residual(g22, 0.5 * rng.standard_normal(8), fd_step) for _ in range(5)
    )
    return [
        _check("jacobi-cp1-baseline", worst_cp1, 1e-6),
        _check("jacobi-cp2", worst_cp2, 1e-5),
        _check("jacobi-gr22", worst_g22, 1e-5),
    ]


def _suite_lambda_identity(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    worst = 0.0
    for _ in range(100):
        z = complex(sampling.complex_normal(rng, ()))
        fam = poisson.cp1_family(z)
        # rounding grows like |kks| = (1 + |z|^2)^2, so the bound is relative to it
        worst = max(worst, abs(fam.evens_lu - (fam.projected_pl - fam.kks)) / abs(fam.kks))
    equator = max(
        abs(poisson.cp1_family(np.exp(1j * t)).evens_lu) for t in np.linspace(0, 6.2, 21)
    )
    return [
        _check("family-identity", worst, 1e-14),
        _check("equator-degeneracy", equator, 1e-14),
    ]


def _suite_degeneracy(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    cp2 = symspace.projective_space(2)
    worst_product = 0.0
    for _ in range(100):
        zvec = sampling.complex_normal(rng, 2)
        u = symspace.canonical_rep(zvec.reshape(2, 1), cp2)
        phi = symspace.cartan_embed(u, cp2)
        prod = np.prod(linalg.principal_minors(phi))
        rho2 = float(np.sum(np.abs(zvec) ** 2))
        pred = poisson.cp2_degeneracy_p(zvec[0], zvec[1]) / (1 + rho2) ** 3
        worst_product = max(worst_product, abs(prod - pred) / max(abs(pred), 1e-12))
    checks = [_check("cp2-minor-product-identity", worst_product, 1e-10)]

    rank_defect = 0
    for preset in _CHART_PRESETS:
        for _ in range(20):
            u = sampling.random_point(preset, rng)
            if poisson.pi_rank(u, preset, tol) != preset.dim_ip:
                rank_defect += 1
    checks.append(_check("top-layer-full-rank", float(rank_defect), 0.0))

    cp1 = symspace.projective_space(1)
    drop_defect = 0
    for _ in range(10):
        u = symspace.canonical_rep(
            np.array([[np.exp(2j * np.pi * rng.uniform())]]), cp1
        )
        if poisson.pi_rank(u, cp1, tol) != 0:
            drop_defect += 1
        zvec = sampling.complex_normal(rng, 2)
        zvec /= np.linalg.norm(zvec)
        u2 = symspace.canonical_rep(zvec.reshape(2, 1), cp2)
        if poisson.pi_rank(u2, cp2, tol) >= cp2.dim_ip:
            drop_defect += 1
    checks.append(_check("locus-rank-drop", float(drop_defect), 0.0))

    worst_su2 = 0.0
    h, x, y = poisson.su2_frame()
    for _ in range(10):
        b = np.exp(2j * np.pi * rng.uniform())
        k = poisson.su2_from_sphere(0.0, b)
        worst_su2 = max(
            worst_su2,
            max(abs(poisson.pi_el_group(k, p, q)) for p in (h, x, y) for q in (h, x, y)),
        )
    checks.append(_check("su2-vanishing-at-a0", worst_su2, 1e-12))

    worst_angle = 0.0
    for preset in _CHART_PRESETS:
        for _ in range(10):
            u = sampling.random_point(preset, rng)
            worst_angle = max(
                worst_angle,
                linalg.max_principal_angle(
                    poisson.matrix_of_omega(u, preset),
                    strata.orbit_direction_span(u, preset),
                    tol=1e-8,
                ),
            )
    checks.append(_check("leaf-tangency-angle", worst_angle, 1e-8))
    return checks


def _suite_momentum(rng: np.random.Generator, tol: float, fd_step: float) -> list[dict]:
    cp1 = symspace.projective_space(1)
    x_dir = np.diag([1j, -1j])
    zs = np.array(
        [0.85 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()) for _ in range(10)]
    )
    us = symspace.canonical_rep(zs.reshape(-1, 1, 1), cp1)
    # per point: numpy's array abs of a complex can differ from the scalar one in the last bit
    closed = [np.log((1 + abs(z) ** 2) / (1 - abs(z) ** 2)) for z in zs]
    worst_closed = np.max(np.abs(momentum.moment_eval(us, x_dir, cp1) - closed))
    worst_res_cp1 = max(momentum.hamiltonian_residual(u, x_dir, cp1, fd_step) for u in us)
    fixed = abs(momentum.moment_eval(np.eye(2, dtype=complex), x_dir, cp1))
    worst_res_big = 0.0
    for preset in (symspace.projective_space(2), symspace.grassmannian(2, 2)):
        us = np.stack([sampling.random_interior_point(preset, rng) for _ in range(5)])
        lf = strata.leaf_factorize(us, preset, tol)
        layers = list(zip(map(tuple, lf.perm.tolist()), map(tuple, lf.signs.tolist())))
        bases = {w: strata.torus_tw(w, preset) for w in set(layers)}
        for u, w in zip(us, layers):
            for x_t in bases[w]:
                worst_res_big = max(
                    worst_res_big, momentum.hamiltonian_residual(u, x_t, preset, fd_step)
                )
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


def run_suite(name: str, seed: int, tol: float = 1e-9, fd_step: float = 1e-5) -> dict:
    """Run one named suite (or ``all``) and return the JSON-ready report."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    rng = np.random.default_rng(seed)
    checks = []
    for suite_name in names:
        for check in SUITES[suite_name](rng, tol, fd_step):
            check["suite"] = suite_name
            checks.append(check)
    return {
        "suite": name,
        "seed": seed,
        "tolerance": tol,
        "fd_step": fd_step,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
