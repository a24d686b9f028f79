import ast
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import birkhoff_poisson
from birkhoff_poisson import symspace
from birkhoff_poisson import (
    NotPositiveDefinite,
    NumericalDomainError,
    canonical_rep,
    cartan_embed,
    parse_preset,
    project_ip,
    theta_g,
)
from birkhoff_poisson.linalg import inv_sqrt_hpd
from birkhoff_poisson.sampling import (
    chart_sampler,
    complex_normal_sampler,
    ip_sampler,
    random_point,
    special_unitary_sampler,
    stabilizer_sampler,
)
from birkhoff_poisson.symspace import (
    block_diag,
    grassmannian,
    group_case,
    ip_basis,
    su_basis,
    torus_basis,
)


def test_preset_dimensions():
    g = grassmannian(2, 3)
    assert g.matrix_dim == 5
    assert g.dim_ip == 12
    assert group_case(2).dim_ip == 3
    assert grassmannian(1, 2).dim_ip == 4
    # the closed form counts the odd basis
    for preset in (g, group_case(2), group_case(3), grassmannian(1, 1), grassmannian(3, 2)):
        assert preset.dim_ip == len(ip_basis(preset))


def test_parse_preset_roundtrip():
    assert parse_preset("cp1") == grassmannian(1, 1)
    assert parse_preset("cp2") == grassmannian(1, 2)
    assert parse_preset("cpn:3") == grassmannian(1, 3)
    assert parse_preset("gr:2,2") == grassmannian(2, 2)
    assert parse_preset("group:su2") == group_case(2)
    # suN is short for group:suN, as cpN is for gr:1,N
    assert parse_preset(" SU3") == parse_preset("group:su3") == group_case(3)
    assert parse_preset("su2").label == "group:su2"
    with pytest.raises(ValueError):
        parse_preset("nope")


def test_theta_involution(rng, gr22, group2):
    g = random_point(gr22, rng)
    np.testing.assert_allclose(theta_g(theta_g(g, gr22), gr22), g, atol=1e-14)
    # off-diagonal blocks are negated
    x = ip_sampler(gr22).one(rng)
    np.testing.assert_allclose(theta_g(x, gr22), -x, atol=1e-14)
    pair = random_point(group2, rng)
    swapped = theta_g(pair, group2)
    np.testing.assert_array_equal(swapped[:2, :2], pair[2:, 2:])
    np.testing.assert_array_equal(swapped[2:, 2:], pair[:2, :2])


def dense_j(preset):
    """J built from its definition: block signs, or the block swap."""
    if preset.is_inner:
        return np.diag([1.0] * preset.m + [-1.0] * preset.n)
    zero, eye = np.zeros((preset.n, preset.n)), np.eye(preset.n)
    return np.block([[zero, eye], [eye, zero]])


@pytest.mark.parametrize("preset_name", ["gr:2,3", "cp2", "group:su2", "group:su3"])
def test_theta_matches_dense_conjugation(preset_name, rng):
    preset = parse_preset(preset_name)
    j = dense_j(preset)
    for _ in range(5):
        g = complex_normal_sampler((preset.matrix_dim, preset.matrix_dim)).one(rng)
        np.testing.assert_array_equal(theta_g(g, preset), j @ g @ j)
    with pytest.raises(ValueError):
        theta_g(np.eye(preset.matrix_dim + 1), preset)


@pytest.mark.parametrize("preset_name", ["gr:2,3", "group:su2"])
def test_theta_and_cartan_embed_on_a_stack(preset_name, rng):
    preset = parse_preset(preset_name)
    d = preset.matrix_dim
    g = complex_normal_sampler((2, 3, d, d)).one(rng)
    u = np.array([random_point(preset, rng) for _ in range(6)]).reshape(2, 3, d, d)
    thetas, phis = theta_g(g, preset), cartan_embed(u, preset)
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(thetas[index], theta_g(g[index], preset))
        np.testing.assert_allclose(phis[index], cartan_embed(u[index], preset), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        theta_g(np.ones((2, d, d + 1)), preset)


def test_theta_stabilizes_triangles(gr22):
    # conjugation by the block sign matrix preserves both strict triangles
    n = gr22.matrix_dim
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            image = theta_g(e, gr22)
            assert abs(image[i, j]) == 1.0 and np.count_nonzero(image) == 1


def test_cartan_embed_identity(cp1):
    np.testing.assert_allclose(
        cartan_embed(np.eye(2, dtype=complex), cp1), np.eye(2), atol=1e-15
    )


def test_cartan_embed_cp1_closed_form(cp1):
    z = 0.3 + 0.6j
    phi = cartan_embed(canonical_rep(np.array([[z]]), cp1), cp1)
    a = abs(z) ** 2
    expected = np.array([[1 - a, -2 * np.conj(z)], [2 * z, 1 - a]]) / (1 + a)
    np.testing.assert_allclose(phi, expected, atol=1e-14)


def test_cartan_embed_cp2_closed_form(cp2):
    z1, z2 = 0.4 - 0.2j, 0.55 + 0.35j
    u = canonical_rep(np.array([[z1], [z2]]), cp2)
    phi = cartan_embed(u, cp2)
    a1, a2 = abs(z1) ** 2, abs(z2) ** 2
    rho2 = a1 + a2
    expected = np.array(
        [
            [1 - rho2, -2 * np.conj(z1), -2 * np.conj(z2)],
            [2 * z1, 1 - a1 + a2, -2 * z1 * np.conj(z2)],
            [2 * z2, -2 * np.conj(z1) * z2, 1 + a1 - a2],
        ]
    ) / (1 + rho2)
    np.testing.assert_allclose(phi, expected, atol=1e-13)


@pytest.mark.parametrize("preset_name", ["cp1", "cp2", "gr:2,2", "group:su2"])
def test_cartan_embed_symmetry_and_coset_invariance(preset_name, rng):
    preset = parse_preset(preset_name)
    for _ in range(25):
        u = random_point(preset, rng)
        phi = cartan_embed(u, preset)
        sym = np.linalg.norm(phi.conj().T - theta_g(phi, preset))
        unit = np.linalg.norm(phi @ phi.conj().T - np.eye(preset.matrix_dim))
        moved = cartan_embed(u @ stabilizer_sampler(preset).one(rng), preset)
        coset = np.linalg.norm(moved - phi)
        assert sym <= 1e-10
        assert unit <= 1e-10
        assert coset <= 1e-10


def test_canonical_rep_origin(cp2):
    np.testing.assert_allclose(
        canonical_rep(np.zeros((2, 1)), cp2), np.eye(3), atol=1e-15
    )


def test_canonical_rep_properties(rng, gr22):
    for _ in range(25):
        z = chart_sampler(gr22).one(rng)
        u = canonical_rep(z, gr22)
        dim = gr22.matrix_dim
        assert np.linalg.norm(u @ u.conj().T - np.eye(dim)) <= 1e-11
        assert abs(np.linalg.det(u) - 1) <= 1e-11
        # positive definite diagonal blocks
        m = gr22.m
        for block in (u[:m, :m], u[m:, m:]):
            assert np.all(np.linalg.eigvalsh(0.5 * (block + block.conj().T)) > 0)
        # the first m columns span the graph of z
        span = u[:, :m]
        graph = np.vstack([np.eye(m), z])
        stacked = np.hstack([span, graph])
        assert np.linalg.matrix_rank(stacked, tol=1e-10) == m
        np.testing.assert_allclose(u[m:, :m] @ np.linalg.inv(u[:m, :m]), z, atol=1e-10)


def test_canonical_rep_on_a_stack(rng, cp2, gr22):
    for preset in (cp2, gr22):
        z = 0.8 * complex_normal_sampler((2, 3, preset.n, preset.m)).one(rng)
        reps = canonical_rep(z, preset)
        assert reps.shape == (2, 3, preset.matrix_dim, preset.matrix_dim)
        for index in np.ndindex(2, 3):
            np.testing.assert_allclose(
                reps[index], canonical_rep(z[index], preset), rtol=0, atol=1e-15
            )


def test_canonical_rep_rejects_a_stack_with_one_bad_chart_point(cp2):
    z = np.zeros((3, 2, 1), dtype=complex)
    z[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        canonical_rep(z, cp2)
    # I + z z* has eigenvalues 1 and 1 + |z|^2: past 1e14 it reads as singular
    z[1, 0, 0] = 1e8
    with pytest.raises(NotPositiveDefinite):
        canonical_rep(z, cp2)
    with pytest.raises(ValueError, match="chart matrix"):
        canonical_rep(np.zeros((3, 1, 2)), cp2)


CHART_PRESETS = ["cp1", "cp2", "gr:2,2", "gr:2,3", "gr:3,2"]


def _eigh_representative(z, preset):
    """The representative of ``canonical_rep`` built by an independent route:
    a = (I + z* z)^(-1/2) and d = (I + z z*)^(-1/2) from ``inv_sqrt_hpd``,
    whose unitarity defect grows like eps |z|^2."""
    z = np.asarray(z, dtype=complex)
    zh = z.mT.conj()
    a = inv_sqrt_hpd(np.eye(preset.m) + zh @ z)
    d = inv_sqrt_hpd(np.eye(preset.n) + z @ zh)
    return np.block([[a, -a @ zh], [z @ a, d]])


def _chart_image(z, preset):
    """The Cartan image of a chart point, as every caller builds it."""
    return cartan_embed(canonical_rep(z, preset), preset)


@pytest.mark.parametrize("preset_name", CHART_PRESETS)
def test_chart_point_cartan_image_matches_the_eigh_route(preset_name, rng):
    preset = parse_preset(preset_name)
    z = complex_normal_sampler((4, 10, preset.n, preset.m)).one(rng)
    # Frobenius radii uniform in [0, 3)
    z *= (3.0 * rng.uniform(0.0, 1.0, (4, 10)) / np.linalg.norm(z, axis=(-2, -1)))[..., None, None]
    phi = _chart_image(z, preset)
    assert phi.shape == (4, 10, preset.matrix_dim, preset.matrix_dim)
    reference = cartan_embed(_eigh_representative(z, preset), preset)
    np.testing.assert_allclose(phi, reference, rtol=0, atol=1e-13)
    np.testing.assert_allclose(_chart_image(z[1, 2], preset), phi[1, 2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("preset_name", CHART_PRESETS)
def test_chart_point_cartan_image_defects_are_no_larger_than_the_eigh_routes(
    preset_name, rng
):
    # On the same draws, up to |z| ~ 1e3.  The image read off the SVD
    # representative is unitary to rounding at each scale, and no less
    # unitary than the eigh route, whose defect grows with |z|, down to
    # 8 eps, where neither route orders the other.
    preset = parse_preset(preset_name)
    eye = np.eye(preset.matrix_dim)
    eps = np.finfo(float).eps
    for scale in (0.3, 3.0, 30.0, 1e3):
        z = scale * complex_normal_sampler((200, preset.n, preset.m)).one(rng)
        old = cartan_embed(_eigh_representative(z, preset), preset)
        new = _chart_image(z, preset)
        unit_old, unit_new = (
            np.max(np.linalg.norm(phi @ phi.mT.conj() - eye, axis=(-2, -1))) for phi in (old, new)
        )
        assert unit_new <= 8 * preset.matrix_dim * eps
        assert unit_new <= max(unit_old, 8 * eps)


def _chart_points_with_condition(preset, conds, rng):
    """Chart matrices z = U S V* whose I + z* z, I + z z* have the largest
    condition number conds[i]; the smaller singular values are below 3."""
    k = min(preset.m, preset.n)
    u, v = (
        sampler.finish(rng.standard_normal((len(conds), sampler.count)))
        for sampler in (special_unitary_sampler(preset.n), special_unitary_sampler(preset.m))
    )
    s = rng.uniform(0.0, 3.0, (len(conds), k))
    low = 1.0 + s[:, -1] ** 2 if preset.m == preset.n else np.ones(len(conds))
    s[:, 0] = np.sqrt(np.asarray(conds) * low - 1.0)
    sigma = np.zeros((len(conds), preset.n, preset.m))
    sigma[:, range(k), range(k)] = s
    return u @ sigma @ v.mT.conj()


@pytest.mark.parametrize("preset_name", CHART_PRESETS)
def test_chart_point_cartan_image_is_unitary_up_to_the_conditioning_bound(preset_name, rng):
    # the normal equations lose unitarity like eps cond(I + z* z); the
    # singular value decomposition does not, up to the refusal bound 1e14
    preset = parse_preset(preset_name)
    eye = np.eye(preset.matrix_dim)
    eps = np.finfo(float).eps
    z = _chart_points_with_condition(preset, np.geomspace(1e2, 5e13, 100), rng)
    phi = _chart_image(z, preset)
    unit = np.max(np.linalg.norm(phi @ phi.mT.conj() - eye, axis=(-2, -1)))
    assert unit <= 8 * preset.matrix_dim * eps


@pytest.mark.parametrize("preset_name", CHART_PRESETS)
def test_canonical_rep_is_unitary_up_to_the_conditioning_bound(preset_name, rng):
    # the eigh route's defect grows like eps |z|^2, to about 1e-5 at |z| ~
    # 1e5 and 1e-3 at 1e6 on cp2; the singular value decomposition stays at
    # rounding there and up to the refusal bound
    preset = parse_preset(preset_name)
    eye = np.eye(preset.matrix_dim)
    eps = np.finfo(float).eps
    for z in (
        1e5 * complex_normal_sampler((200, preset.n, preset.m)).one(rng),
        1e6 * complex_normal_sampler((200, preset.n, preset.m)).one(rng),
        _chart_points_with_condition(preset, np.geomspace(1e2, 5e13, 100), rng),
    ):
        u = canonical_rep(z, preset)
        assert np.max(np.linalg.norm(u @ u.mT.conj() - eye, axis=(-2, -1))) <= 8 * preset.matrix_dim * eps


@pytest.mark.parametrize("preset_name", CHART_PRESETS)
def test_canonical_rep_refuses_the_chart_points_of_its_rule(preset_name, rng):
    # one rule: I + z* z finite and neither it nor I + z z* too
    # ill-conditioned for check_hpd_spectrum; a factor of 3 off the bound 1e14.
    # On cp1 both are 1 x 1, so no finite point is ill-conditioned.
    preset = parse_preset(preset_name)
    conditioned = (None, None) if preset_name == "cp1" else (NotPositiveDefinite, "ill-conditioned")
    for z, error, message in (
        (_chart_points_with_condition(preset, [1e14 / 3] * 20, rng), None, None),
        (_chart_points_with_condition(preset, [3e14] * 20, rng), *conditioned),
        (1e160 * _chart_points_with_condition(preset, [10.0] * 20, rng), NumericalDomainError, "overflows"),
    ):
        if error is None:
            canonical_rep(z, preset)
        else:
            with pytest.raises(error, match=message):
                canonical_rep(z, preset)
            with pytest.raises(error, match=message):
                canonical_rep(z[7], preset)


RANK_ONE_PRESETS = ["cp1", "cp2", "cp3", "gr:3,1"]
_EPS = np.finfo(float).eps
# subnormal values carry an absolute, not a relative, rounding
_SUBNORMAL = 8 * np.finfo(float).smallest_subnormal


def _lapack_canonical_rep(z, preset):
    """``canonical_rep`` with its thin SVD taken by LAPACK, as it is for
    every chart with min(m, n) > 1: the reference of the closed form."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symspace, "_thin_svd", lambda z: np.linalg.svd(z, full_matrices=False))
        return canonical_rep(z, preset)


def _rank_one_points(draw, preset, count):
    """count chart matrices (one matrix for None) of preset, some of them
    zero, each entry a complex number of modulus up to 3 times a power of
    ten shared by the matrix: from 1e-200 up to 1e150 on cp1, where no
    finite |z|^2 is ill-conditioned, and up to 1e6 elsewhere, below the
    refusal bound |z|^2 ~ 1e14 of check_hpd_spectrum."""
    shape = (preset.n, preset.m) if count is None else (count, preset.n, preset.m)
    points, entries = int(np.prod(shape[:-2])), preset.n * preset.m
    parts = st.lists(st.floats(-3.0, 3.0), min_size=points * entries, max_size=points * entries)
    z = (np.array(draw(parts)) + 1j * np.array(draw(parts))).reshape(shape)
    top = 150 if preset.m == preset.n else 6
    scales = draw(st.lists(st.integers(-200, top), min_size=points, max_size=points))
    z *= (10.0 ** np.array(scales, dtype=float)).reshape(shape[:-2] + (1, 1))
    zero = draw(st.lists(st.booleans(), min_size=points, max_size=points))
    z[np.array(zero).reshape(shape[:-2])] = 0.0
    return z


@settings(max_examples=150, deadline=None)
@given(data=st.data(), spec=st.sampled_from(RANK_ONE_PRESETS), count=st.sampled_from([None, 1, 7]))
def test_rank_one_canonical_rep_matches_the_lapack_route(data, spec, count):
    preset = parse_preset(spec)
    z = _rank_one_points(data.draw, preset, count)
    u = canonical_rep(z, preset)
    d = preset.matrix_dim
    assert u.shape == z.shape[:-2] + (d, d)
    np.testing.assert_allclose(u, _lapack_canonical_rep(z, preset), rtol=0, atol=4 * d * _EPS)
    unit = np.linalg.norm(u @ u.mT.conj() - np.eye(d), axis=(-2, -1))
    assert np.all(unit <= 4 * d * _EPS)
    # the closed-form factors are a thin SVD of z, |z| scaled: at |z| ~ 1e-200
    # no square underflows, and z = 0 takes the direction e_1
    left, s, right = symspace._thin_svd(z)
    reference = np.linalg.svd(z, compute_uv=False)
    np.testing.assert_allclose(s, reference, rtol=4 * _EPS, atol=_SUBNORMAL)
    np.testing.assert_allclose(left * s[..., np.newaxis, :] @ right, z, rtol=4 * _EPS, atol=_SUBNORMAL)
    zero = ~np.any(z, axis=(-2, -1))
    np.testing.assert_array_equal(u[zero], np.broadcast_to(np.eye(d), u[zero].shape))


@pytest.mark.parametrize("spec", RANK_ONE_PRESETS)
def test_rank_one_canonical_rep_at_zero_and_at_tiny_points(spec):
    preset = parse_preset(spec)
    m, d = preset.m, preset.matrix_dim
    ramp = (1.0 + 2.0j) * np.arange(1, preset.n * preset.m + 1).reshape(preset.n, preset.m)
    z = np.zeros((5, preset.n, preset.m), dtype=complex)
    z[1, -1, -1] = 0.6 - 0.8j
    z[2], z[3], z[4, 0, 0] = 1e-200 * ramp, 1e-310 * ramp, 5e-324j
    u = canonical_rep(z, preset)
    np.testing.assert_array_equal(u[0], np.eye(d))
    np.testing.assert_array_equal(canonical_rep(z[0], preset), np.eye(d))
    np.testing.assert_allclose(u[1], _lapack_canonical_rep(z[1], preset), rtol=0, atol=4 * d * _EPS)
    # |z| ~ 1e-200, and subnormal: the lower-left block z a keeps z instead
    # of underflowing, and the diagonal blocks are exactly I
    np.testing.assert_allclose(u[2:, m:, :m], z[2:], rtol=4 * _EPS, atol=_SUBNORMAL)
    np.testing.assert_array_equal(u[2:, :m, :m], np.broadcast_to(np.eye(m), (3, m, m)))


@pytest.mark.parametrize("spec", RANK_ONE_PRESETS)
@pytest.mark.parametrize("modulus", [2e154, 1e200, 1e308])
def test_rank_one_canonical_rep_refuses_points_near_overflow(spec, modulus):
    # |z|^2 overflows past about 1.34e154; refused as gr:2,2 refuses it
    preset = parse_preset(spec)
    with pytest.raises(NumericalDomainError) as reference:
        canonical_rep(np.full((2, 2), modulus * (0.6 + 0.8j)), parse_preset("gr:2,2"))
    z = np.zeros((4, preset.n, preset.m), dtype=complex)
    z[2, 0, 0] = modulus * (0.6 + 0.8j)
    z[3] = modulus
    for point in (z, z[2], z[3]):
        with pytest.raises(NumericalDomainError) as refused:
            canonical_rep(point, preset)
        assert str(refused.value) == str(reference.value)
        assert "overflows" in str(refused.value)


def _exact_projective_image(z):
    """phi = (2 Pi - I) J over the Gaussian rationals for a projective chart
    vector z of (re, im) Fraction pairs: Pi = g g* / |g|^2, g = (1, z)."""
    g = [(Fraction(1), Fraction(0)), *z]
    norm2 = sum(re * re + im * im for re, im in g)
    signs = [1] + [-1] * len(z)
    return [
        [
            (
                signs[j] * (2 * (gi[0] * gj[0] + gi[1] * gj[1]) / norm2 - int(i == j)),
                signs[j] * 2 * (gi[1] * gj[0] - gi[0] * gj[1]) / norm2,
            )
            for j, gj in enumerate(g)
        ]
        for i, gi in enumerate(g)
    ]


def test_chart_point_cartan_image_at_an_exact_wall_point(cp2):
    # z = (3/5, 4i/5) has |z| = 1, so the first leading minor is exactly 0
    f = Fraction
    exact = _exact_projective_image([(f(3, 5), f(0)), (f(0), f(4, 5))])
    assert exact == [
        [(0, 0), (f(-3, 5), 0), (0, f(4, 5))],
        [(f(3, 5), 0), (f(16, 25), 0), (0, f(12, 25))],
        [(0, f(4, 5)), (0, f(-12, 25)), (f(9, 25), 0)],
    ]
    expected = np.array([[float(re) + 1j * float(im) for re, im in row] for row in exact])
    phi = _chart_image(np.array([[0.6], [0.8j]]), cp2)
    np.testing.assert_allclose(phi, expected, rtol=0, atol=1e-15)


def test_chart_point_cartan_image_rejects_bad_chart_points(cp2, group2):
    z = np.zeros((3, 2, 1), dtype=complex)
    z[1, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        _chart_image(z, cp2)
    # I + z* z overflows: a numerical-domain error
    z[1, 0, 0] = 1e200
    with pytest.raises(NumericalDomainError, match="overflows"):
        _chart_image(z, cp2)
    with pytest.raises(ValueError, match="chart matrix"):
        _chart_image(np.zeros((3, 1, 2)), cp2)
    with pytest.raises(ValueError, match="Grassmannian family"):
        _chart_image(np.zeros((2, 2)), group2)


def test_project_ip_cases(rng, gr22, group2):
    x = ip_sampler(gr22).one(rng)
    np.testing.assert_allclose(project_ip(x, gr22), x, atol=1e-13)
    # even anti-Hermitian part dies
    k_blk = np.zeros((4, 4), dtype=complex)
    k_blk[:2, :2] = [[1j, 0.3 + 0.1j], [-0.3 + 0.1j, -2j]]
    k_blk[2:, 2:] = [[0.5j, 0], [0, 0.5j]]
    np.testing.assert_allclose(project_ip(k_blk, gr22), 0 * k_blk, atol=1e-14)
    herm = complex_normal_sampler((4, 4)).one(rng)
    herm = herm + herm.conj().T
    np.testing.assert_allclose(project_ip(herm, gr22), 0 * herm, atol=1e-13)
    # group case: the odd elements diag(x, -x) are fixed
    xp = ip_sampler(group2).one(rng)
    got = project_ip(xp, group2)
    assert np.linalg.norm(got - xp) <= 1e-13


def anti_hermitian(rng, n):
    q = complex_normal_sampler((n, n)).one(rng)
    return q - q.conj().T


@pytest.mark.parametrize("preset_name", ["gr:2,2", "group:su2"])
def test_projection_partition(preset_name, rng):
    # z = odd + even anti-Hermitian + Hermitian, block diagonal in the group
    # case; project_ip keeps exactly the odd part
    preset = parse_preset(preset_name)
    m, n = preset.m, preset.n
    odd = ip_sampler(preset).one(rng)
    a = anti_hermitian(rng, m)
    even = block_diag(a, anti_hermitian(rng, n) if preset.is_inner else a)
    herm = 1j * anti_hermitian(rng, m + n)
    z = odd + even + herm
    if not preset.is_inner:
        z = block_diag(z[:m, :m], z[m:, m:])
    np.testing.assert_allclose(project_ip(z, preset), odd, atol=1e-13)


def test_bases_are_orthonormal(gr22, group2):
    assert len(ip_basis(group2)) == group2.dim_ip
    for basis in (su_basis(3), torus_basis(4), ip_basis(gr22), ip_basis(group2)):
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                expected = 1.0 if i == j else 0.0
                assert abs(np.real(np.vdot(a, b)) - expected) < 1e-12


def test_ip_basis_is_one_cached_read_only_stack(gr22, group2):
    for preset in (gr22, group2):
        basis = ip_basis(preset)
        assert basis.shape == (preset.dim_ip, preset.matrix_dim, preset.matrix_dim)
        assert ip_basis(preset) is basis
        with pytest.raises(ValueError):
            basis[0, 0, 0] = 1.0


@pytest.mark.parametrize("preset_name", ["gr:2,2", "group:su2"])
def test_ip_basis_lives_in_ip(preset_name):
    preset = parse_preset(preset_name)
    for x in ip_basis(preset):
        assert np.linalg.norm(theta_g(x, preset) + x) < 1e-14
        assert np.linalg.norm(x + x.conj().T) < 1e-14


def test_only_the_encoding_modules_read_the_family():
    # layers, leaves, the torus and the momentum run one path for both
    # families; only J, the odd basis and the charts (symspace), how a sample
    # is stored (sampling) and the chart commands (cli) branch on the family
    readers = set()
    for path in Path(birkhoff_poisson.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "is_inner":
                readers.add(path.name)
    assert readers == {"symspace.py", "sampling.py", "cli.py"}


def test_the_package_imports_only_numpy_and_the_standard_library():
    # relative imports are the package's own modules
    imported = set()
    for path in Path(birkhoff_poisson.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert imported - set(sys.stdlib_module_names) - {"numpy", "birkhoff_poisson"} == set()
