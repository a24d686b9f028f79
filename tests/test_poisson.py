import functools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_poisson import (
    InvalidTangent,
    NumericalDomainError,
    calibration_constant,
    canonical_rep,
    chart_pi_eval,
    chart_tensor,
    cp1_family,
    cpn_coeffs,
    fothlu_w_chart,
    grassmann_local_pi,
    jacobi_residual,
    omega_apply,
    pi_el_group,
    pi_eval,
    pi_rank,
)
from birkhoff_poisson import cli
from birkhoff_poisson import poisson as poisson_module
from birkhoff_poisson.lie import hilbert_transform, trace_form
from birkhoff_poisson.linalg import DEFAULT_TOL
from birkhoff_poisson.poisson import (
    FD_STEP,
    CoordCoefficients,
    chart_directions,
    coeffs_real_matrix,
    coord_pi_value,
    cp2_degeneracy_p,
    fothlu_w_tensor,
    grassmann_l_operator,
    matrix_of_omega,
    pi_lw_group,
    reals_to_complex,
    su2_el_coefficients,
    su2_frame,
    su2_from_sphere,
    su2_lw_coefficients,
)
from birkhoff_poisson.sampling import (
    chart_sampler,
    complex_normal_sampler,
    ip_sampler,
    random_point,
    special_unitary_sampler,
    stabilizer_sampler,
    su2_sphere_sampler,
    su_algebra_sampler,
)
from birkhoff_poisson.symspace import (
    adjoint_act,
    block_diag,
    elem_real_inner,
    grassmannian,
    group_case,
    ip_basis,
    parse_preset,
    project_ip,
)
from birkhoff_poisson.verify import run_suite


# ---------------------------------------------------------------------------
# equivariant operator


def test_omega_at_identity_is_hilbert(rng, gr22):
    # at the identity the operator reduces to the Hilbert transform on the
    # off-diagonal-block subspace
    u = np.eye(4, dtype=complex)
    for _ in range(10):
        x = ip_sampler(gr22).one(rng)
        np.testing.assert_allclose(
            omega_apply(u, x, gr22), hilbert_transform(x), atol=1e-13
        )


def test_omega_trivial_kernel_at_identity(cp2):
    mat = matrix_of_omega(np.eye(3, dtype=complex), cp2)
    assert np.linalg.matrix_rank(mat, tol=1e-9) == cp2.dim_ip


def test_omega_rejects_bad_tangent(cp1):
    with pytest.raises(InvalidTangent):
        omega_apply(np.eye(2, dtype=complex), np.eye(2, dtype=complex), cp1)


@pytest.mark.parametrize("preset_name", ["cp1", "cp2", "gr22", "group2"])
def test_pi_antisymmetry_and_skewness(preset_name, rng, request):
    preset = request.getfixturevalue(preset_name)
    for _ in range(25):
        u = random_point(preset, rng)
        x = ip_sampler(preset).one(rng)
        y = ip_sampler(preset).one(rng)
        assert pi_eval(u, x, x, preset) == pytest.approx(0.0, abs=1e-10)
        assert abs(pi_eval(u, x, y, preset) + pi_eval(u, y, x, preset)) <= 1e-10
        mat = matrix_of_omega(u, preset)
        assert np.max(np.abs(mat + mat.T)) <= 1e-10


@pytest.mark.parametrize("spec", ["cp1", "cp2", "gr:2,3", "group:su2", "group:su3"])
def test_pi_eval_matches_the_projected_operator(spec, rng):
    # the frame pairing against tr(omega(x) y), omega conjugated back down
    # and projected to the odd subspace
    preset = parse_preset(spec)
    u = np.array([random_point(preset, rng) for _ in range(20)])
    x = np.array([ip_sampler(preset).one(rng) for _ in range(20)])
    y = np.array([ip_sampler(preset).one(rng) for _ in range(20)])
    expected = trace_form(omega_apply(u, x, preset), y)
    assert np.max(np.abs(expected.imag)) <= 1e-13
    np.testing.assert_allclose(pi_eval(u, x, y, preset), expected.real, rtol=0, atol=1e-13)


@pytest.mark.parametrize("preset_name", ["cp2", "gr22", "group2"])
def test_stabilizer_equivariance(preset_name, rng, request):
    preset = request.getfixturevalue(preset_name)
    for _ in range(10):
        u = random_point(preset, rng)
        k = stabilizer_sampler(preset).one(rng)
        x = ip_sampler(preset).one(rng)
        y = ip_sampler(preset).one(rng)
        kinv = k.conj().T
        lhs = pi_eval(u @ k, adjoint_act(kinv, x), adjoint_act(kinv, y), preset)
        assert abs(lhs - pi_eval(u, x, y, preset)) <= 1e-10


def _loop_matrix_of_omega(u, preset):
    """Reference: one omega_apply per basis element, one real inner product
    per matrix entry."""
    basis = ip_basis(preset)
    mat = np.zeros((len(basis), len(basis)))
    for r, e_r in enumerate(basis):
        image = omega_apply(u, e_r, preset)
        for s, e_s in enumerate(basis):
            mat[s, r] = elem_real_inner(e_s, image)
    return mat


@pytest.mark.parametrize(
    "spec", ["gr:1,1", "cp2", "gr:2,3", "gr:4,8", "gr:6,10", "group:su2", "group:su3"]
)
def test_matrix_of_omega_matches_loop_reference(spec, rng):
    preset = parse_preset(spec)
    for _ in range(5):
        u = random_point(preset, rng)
        np.testing.assert_allclose(
            matrix_of_omega(u, preset), _loop_matrix_of_omega(u, preset), rtol=0, atol=1e-14
        )


def _per_basis_matrix_of_omega(u, preset):
    """Reference: the frames u e_r u* built by one pair of matmuls per
    (point, basis element), then the same Hilbert transform and skew-part
    GEMM as ``matrix_of_omega``."""
    basis = ip_basis(preset)
    u = np.asarray(u, dtype=complex)
    frames = u[..., np.newaxis, :, :] @ basis @ u.mT.conj()[..., np.newaxis, :, :]
    images = hilbert_transform(frames)
    rows = (*frames.shape[:-2], frames.shape[-1] ** 2)
    mat = frames.reshape(rows).view(float) @ images.reshape(rows).view(float).mT
    mat -= mat.mT.copy()
    mat /= 2
    return mat


@pytest.mark.parametrize(
    "spec,count",
    [
        pytest.param("cp1", 64, id="cp1-stack"),
        pytest.param("cp2", 64, id="cp2-stack"),
        # one frame chunk of matrix_of_omega and one whole sweep grid, its stack
        pytest.param("gr:2,2", 128, id="gr:2,2-128"),
        pytest.param("gr:2,2", 1024, id="gr:2,2-1024"),
        pytest.param("gr:6,10", None, id="gr:6,10"),
        pytest.param("group:su2", None, id="group:su2"),
        pytest.param("group:su3", None, id="group:su3"),
    ],
)
def test_matrix_of_omega_matches_the_per_basis_frames(spec, count, rng):
    preset = parse_preset(spec)
    points = np.array([random_point(preset, rng) for _ in range(count or 1)])
    u = points if count else points[0]
    np.testing.assert_allclose(
        matrix_of_omega(u, preset), _per_basis_matrix_of_omega(u, preset), rtol=0, atol=1e-15
    )


@pytest.mark.parametrize(
    "spec,shape",
    [
        pytest.param("cp2", (2, 3), id="cp2"),
        pytest.param("gr:2,3", (2, 3), id="gr:2,3"),
        pytest.param("group:su2", (2, 3), id="group:su2"),
        # the size of one sweep grid
        pytest.param("gr:2,2", (1024,), id="gr:2,2-1024"),
    ],
)
def test_matrix_of_omega_on_a_stack_of_points(spec, shape, rng):
    preset = parse_preset(spec)
    points = np.array([random_point(preset, rng) for _ in range(np.prod(shape))]).reshape(
        (*shape, preset.matrix_dim, preset.matrix_dim)
    )
    stacked = matrix_of_omega(points, preset)
    assert stacked.shape == (*shape, preset.dim_ip, preset.dim_ip)
    ranks = pi_rank(points, preset)
    assert ranks.shape == shape
    for index in np.ndindex(*shape):
        np.testing.assert_allclose(
            stacked[index], matrix_of_omega(points[index], preset), rtol=0, atol=1e-14
        )
        assert ranks[index] == pi_rank(points[index], preset)


@pytest.mark.parametrize(
    "spec,shape",
    [
        pytest.param("gr:2,3", (), id="gr:2,3"),
        pytest.param("gr:6,10", (), id="gr:6,10"),
        pytest.param("cp2", (4, 5), id="cp2-stack"),
        pytest.param("group:su3", (), id="group:su3"),
    ],
)
def test_matrix_of_omega_is_bitwise_skew(spec, shape, rng):
    preset = parse_preset(spec)
    points = np.array([random_point(preset, rng) for _ in range(int(np.prod(shape)))])
    mat = matrix_of_omega(points.reshape(*shape, *points.shape[1:]), preset)
    assert mat.shape == (*shape, preset.dim_ip, preset.dim_ip)
    # (r, s) is -(s, r) in value and, where nonzero, in the sign bit; the
    # diagonal is +0.0
    assert np.array_equal(mat, -mat.mT)
    assert np.all((np.signbit(mat) != np.signbit(mat.mT)) | (mat == 0))
    diagonal = np.diagonal(mat, axis1=-2, axis2=-1)
    assert np.all(diagonal == 0) and not np.any(np.signbit(diagonal))


# Frame budgets in points per chunk: 1, 3 (so the 2 x 5 stack ends in a
# chunk of 1) and the default (one chunk on these presets).
@pytest.mark.parametrize("chunk", [1, 3, None])
@pytest.mark.parametrize("spec", ["cp1", "cp2", "gr:2,2", "gr:2,3", "group:su2"])
def test_matrix_of_omega_chunks_match_per_point_calls_bitwise(spec, chunk, rng, monkeypatch):
    preset = parse_preset(spec)
    d = preset.matrix_dim
    points = np.array([random_point(preset, rng) for _ in range(10)]).reshape(2, 5, d, d)
    singles = np.array([matrix_of_omega(u, preset) for u in points.reshape(-1, d, d)])
    if chunk is not None:
        monkeypatch.setattr(poisson_module, "_STACK_BYTES", chunk * 16 * preset.dim_ip * d * d)
    stacked = matrix_of_omega(points, preset)
    assert stacked.shape == (2, 5, preset.dim_ip, preset.dim_ip)
    assert np.array_equal(stacked.reshape(singles.shape), singles)


@pytest.mark.parametrize("spec,side", [("cp1", 32), ("cp2", 32), ("gr:2,2", 32), ("gr:6,10", 4)])
def test_the_folded_block_row_product_is_the_stacked_one_bitwise(spec, side, monkeypatch):
    # matrix_of_omega multiplies a chunk of points by the block row
    # [e_1 | ... | e_k] of the odd basis as one 2-D GEMM, the points folded
    # into its rows.  On the stacks a side x side rank-grid hands it, chunked
    # as it chunks them, each point gets the bits of the stacked product
    preset = parse_preset(spec)
    d, k = preset.matrix_dim, preset.dim_ip
    stacks = []
    matrix_of_omega = poisson_module.matrix_of_omega
    monkeypatch.setattr(
        poisson_module, "matrix_of_omega", lambda u, p: stacks.append(u) or matrix_of_omega(u, p)
    )
    axes = [cli._axis_points(lo, hi, side) for lo, hi, _ in cli._grid_layout(preset)[0]]
    cli._grid_cells(preset, *axes)
    assert sum(map(len, stacks)) == side * side
    row = ip_basis(preset).transpose(1, 0, 2).reshape(d, k * d)
    step = max(1, poisson_module._STACK_BYTES // (16 * k * d * d))
    for u in stacks:
        for start in range(0, len(u), step):
            chunk = u[start:start + step]
            folded = (chunk.reshape(-1, d) @ row).reshape(len(chunk), d, k * d)
            assert np.array_equal(folded, chunk @ row)


def _assert_matches_single_calls(stacked, singles):
    """A stacked result equals the loop of single calls to 1e-13 relative,
    and each single call gives a float."""
    assert all(isinstance(v, float) for v in singles)
    singles = np.array(singles)
    assert stacked.shape == singles.shape
    assert np.all(np.abs(stacked - singles) <= 1e-13 * np.maximum(1.0, np.abs(singles)))


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from(["cp1", "cp2", "gr:2,2", "gr:2,3", "group:su2"]),
    count=st.integers(1, 6),
    seed=SEEDS,
)
def test_pi_eval_stack_matches_single_calls(spec, count, seed):
    preset = parse_preset(spec)
    rng = np.random.default_rng(seed)
    u = np.array([random_point(preset, rng) for _ in range(count)])
    x = np.array([ip_sampler(preset).one(rng) for _ in range(count)])
    y = np.array([ip_sampler(preset).one(rng) for _ in range(count)])
    _assert_matches_single_calls(
        pi_eval(u, x, y, preset), [pi_eval(*args, preset) for args in zip(u, x, y)]
    )
    # one point broadcasts against a stack of covectors
    _assert_matches_single_calls(
        pi_eval(u[0], x, y, preset), [pi_eval(u[0], *args, preset) for args in zip(x, y)]
    )


def test_pi_eval_rejects_a_stack_with_one_bad_covector(rng, cp2):
    u = np.array([random_point(cp2, rng) for _ in range(4)])
    x = np.array([ip_sampler(cp2).one(rng) for _ in range(4)])
    bad = x.copy()
    bad[2] = bad[2] + np.diag([1j, -1j, 0])  # anti-Hermitian but even
    with pytest.raises(InvalidTangent, match="odd subspace"):
        pi_eval(u, bad, x, cp2)
    with pytest.raises(InvalidTangent, match="odd subspace"):
        pi_eval(u, x, bad, cp2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 3), count=st.integers(1, 6), seed=SEEDS)
def test_group_pairings_stack_matches_single_calls(n, count, seed):
    rng = np.random.default_rng(seed)
    k = np.array([special_unitary_sampler(n).one(rng) for _ in range(count)])
    p = np.array([su_algebra_sampler(n).one(rng) for _ in range(count)])
    q = np.array([su_algebra_sampler(n).one(rng) for _ in range(count)])
    for pairing in (pi_el_group, pi_lw_group):
        _assert_matches_single_calls(
            pairing(k, p, q), [pairing(*args) for args in zip(k, p, q)]
        )
    if n == 2:
        for stacked, singles in zip(
            su2_el_coefficients(k), zip(*(su2_el_coefficients(ki) for ki in k))
        ):
            _assert_matches_single_calls(stacked, list(singles))


def test_group_pairing_rejects_a_stack_with_one_bad_argument(rng):
    k = np.array([special_unitary_sampler(2).one(rng) for _ in range(3)])
    p = np.array([su_algebra_sampler(2).one(rng) for _ in range(3)])
    bad = p.copy()
    bad[1] = bad[1] + 1j * np.eye(2)  # anti-Hermitian, not traceless
    with pytest.raises(InvalidTangent):
        pi_el_group(k, bad, p)
    with pytest.raises(InvalidTangent):
        pi_lw_group(k, p, bad)


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(["cp1", "cp2", "gr:2,2"]), count=st.integers(1, 5), seed=SEEDS)
def test_chart_pi_eval_stack_matches_single_calls(spec, count, seed):
    preset = parse_preset(spec)
    rng = np.random.default_rng(seed)
    z = np.array([chart_sampler(preset).one(rng) for _ in range(count)])
    v = complex_normal_sampler((count, preset.m, preset.n)).one(rng)
    w = complex_normal_sampler((count, preset.m, preset.n)).one(rng)
    _assert_matches_single_calls(
        chart_pi_eval(preset, z, v, w), [chart_pi_eval(preset, *args) for args in zip(z, v, w)]
    )


def _gram_solve_covectors(preset, z, covectors, step=1e-5):
    """Reference transfer at one chart point: the tangent images of the real
    chart directions by central differences of canonical_rep, then the odd
    class whose trace form against them is the chart pairing 2 Re tr(v dZ),
    by a Gram solve on the odd basis."""
    dirs = poisson_module.chart_directions(preset)
    du = canonical_rep(z + step * dirs, preset) - canonical_rep(z - step * dirs, preset)
    tangents = project_ip(canonical_rep(z, preset).conj().T @ du / (2 * step), preset)
    basis = ip_basis(preset)
    # gram[s, r] = tr(e_s t_r), pairings[r, v] = 2 Re tr(v dZ_r)
    gram = np.einsum("sij,rji->sr", basis, tangents).real
    pairings = 2.0 * np.einsum("vij,rji->rv", covectors, dirs).real
    coeffs = np.linalg.solve(gram.T, pairings)
    return np.einsum("kv,kij->vij", coeffs, basis)


@pytest.mark.parametrize(
    "spec,shape",
    [
        pytest.param("cp1", (), id="cp1"),
        pytest.param("cp2", (), id="cp2"),
        pytest.param("gr:2,2", (), id="gr:2,2"),
        pytest.param("gr:2,3", (), id="gr:2,3"),
        pytest.param("gr:2,3", (2, 3), id="gr:2,3-stack"),
    ],
)
def test_gram_solve_transfer_matches_chart_covectors(spec, shape, rng, monkeypatch):
    preset = parse_preset(spec)
    count = int(np.prod(shape))
    z = np.array([chart_sampler(preset).one(rng) for _ in range(count)])
    covectors = complex_normal_sampler((2, count, preset.m, preset.n)).one(rng)
    calls = []
    monkeypatch.setattr(
        poisson_module, "canonical_rep", lambda *args: calls.append(1) or canonical_rep(*args)
    )
    zs = z.reshape(*shape, preset.n, preset.m)
    u, classes = poisson_module.chart_covectors(
        preset, zs, list(covectors.reshape(2, *shape, preset.m, preset.n))
    )
    assert len(calls) == 1  # one representative per stack of chart points
    np.testing.assert_array_equal(u, canonical_rep(zs, preset))
    classes = np.array(classes).reshape(2, count, preset.matrix_dim, preset.matrix_dim)
    for i in range(count):
        expected = _gram_solve_covectors(preset, z[i], covectors[:, i])
        np.testing.assert_allclose(classes[:, i], expected, rtol=0, atol=1e-8)


def test_operator_skewness_check_is_measured():
    # the stacked kernel keeps the down-conjugation and the projection, so the
    # skewness of the matrix is a rounding residue, not zero by construction
    check = next(c for c in run_suite("bivector", 0)["checks"] if c["name"] == "operator-skewness")
    assert 0.0 < check["value"] <= check["tol"]


def test_pi_rank_cp1(cp1):
    assert pi_rank(np.eye(2, dtype=complex), cp1) == 2
    u = canonical_rep(np.array([[np.exp(0.4j)]]), cp1)
    assert pi_rank(u, cp1) == 0


def test_pi_rank_cp2_generic_and_locus(rng, cp2):
    u = random_point(cp2, rng)
    assert pi_rank(u, cp2) == 4
    z = complex_normal_sampler(2).one(rng)
    z /= np.linalg.norm(z)  # on the unit sphere the degeneracy polynomial vanishes
    assert pi_rank(canonical_rep(z.reshape(2, 1), cp2), cp2) < 4


# The closed-form singular values are within 4 eps * s1 of exact: each
# component of a and b is one rounding of a sum of two entries, so at most
# eps * s1 off (|component| <= |a| <= 2 s1), and the two hypot calls and
# the final sum add one rounding each on values at most 2 s1.  LAPACK bounds
# its singular values by p(k) eps * s1 with no closed form for p(k); against
# a 40-digit mpmath SVD, over 6,000 rotated pairs with s2 / s1 log-uniform
# and within 1e-16 .. 1e-1 of 1, numpy 2.4's (OpenBLAS 0.3.31) read up to
# 46 eps * s1 off, at near-equal pairs of k = 4, and the closed form at
# most 1 eps * s1.  So a singular value more than 64 eps * s1 from tol
# falls on the same side of it for both routes.
_RANK_MARGIN = 64 * np.finfo(float).eps
# Singular values log-uniform over [1e-14, 1e2], and exact zeros; tol down
# to 1e-170, whose square underflows, though the closed form squares no tol
# and squares entries only inside hypot.
_SINGULAR = st.one_of(st.just(0.0), st.floats(-14.0, 2.0).map(lambda e: 10.0**e))
_TOL_EXPONENTS = st.floats(-170.0, 2.0)
_RANK_PRESETS = {2: "cp1", 3: "group:su2", 4: "cp2"}


@st.composite
def _skew_case(draw, k):
    """A real skew k x k matrix Q diag(s1 J, s2 J) Q^T (s2 = 0 for k < 4),
    Q orthogonal or the identity, s2 free or within a relative 1e-15 .. 1e-1
    of s1; and a tol: free, the geometric mean of the pair, or a relative
    1e-15 .. 1e-1 beside s1 or s2."""
    s1, s2 = sorted([draw(_SINGULAR), draw(_SINGULAR) if k == 4 else 0.0], reverse=True)
    if k == 4 and draw(st.booleans()):
        s2 = s1 * (1.0 - 10.0 ** draw(st.floats(-15.0, -1.0)))
    where = draw(st.sampled_from(["free", "between", "beside"]))
    if where == "between" and s2 > 0:
        tol = np.sqrt(s1 * s2)
    elif where == "beside" and s1 > 0:
        side = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-15.0, -1.0))
        tol = draw(st.sampled_from([s1, s2] if s2 > 0 else [s1])) * (1.0 + side)
    else:
        tol = 10.0 ** draw(_TOL_EXPONENTS)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    normal = np.zeros((4, 4))
    normal[:2, :2], normal[2:, 2:] = s1 * j, s2 * j
    normal = normal[:k, :k]
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q = np.linalg.qr(rng.normal(size=(k, k)))[0]
        normal = q @ normal @ q.T
        normal = (normal - normal.T) / 2
    return normal, tol


@settings(max_examples=400, deadline=None)
@given(data=st.data(), k=st.sampled_from([2, 3, 4]), count=st.integers(1, 5))
def test_closed_form_rank_agrees_with_the_svd(data, k, count):
    cases = [data.draw(_skew_case(k)) for _ in range(count)]
    m = np.stack([case[0] for case in cases])
    preset = parse_preset(_RANK_PRESETS[k])
    sv = np.linalg.svd(m, compute_uv=False)
    s1 = sv[:, :1]
    # the two closed-form values against the SVD's pairs, whatever tol
    closed = poisson_module._skew_singular_values(m).T
    pairs = np.pad(sv[:, ::2], ((0, 0), (0, 2 - sv[:, ::2].shape[1])))
    assert np.all(np.abs(closed - pairs) <= _RANK_MARGIN * s1)
    # pi_rank at the stack and at each matrix, the bivector matrices given
    # scaled by DEFAULT_TOL / tol, so its one threshold reads m at tol; the
    # scaling moves each singular value by at most 2 eps * s1, inside the margin
    for tol in {case[1] for case in cases}:
        scaled = m * (DEFAULT_TOL / tol)
        with mock.patch.object(poisson_module, "matrix_of_omega", lambda u, p: scaled):
            ranks = pi_rank(np.zeros((count, 1, 1)), preset)
        lapack = np.linalg.matrix_rank(m, tol=tol)
        decided = np.all(np.abs(sv - tol) > _RANK_MARGIN * s1, axis=1)
        np.testing.assert_array_equal(ranks[decided], lapack[decided])
        for one, rank in zip(scaled, ranks):
            with mock.patch.object(poisson_module, "matrix_of_omega", lambda u, p: one):
                assert pi_rank(np.zeros((1, 1)), preset) == rank


def test_closed_form_rank_where_the_pair_meets_tol():
    # s = tol * (1 +- 1e-9): the SVD reads rank 2, 1e-9 tol clear of its
    # margin; the sign of t^2 - S t + Pf^2 at t = tol^2 is lost to rounding
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    q = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
    tol = DEFAULT_TOL
    m = np.zeros((4, 4))
    m[:2, :2], m[2:, 2:] = tol * (1 + 1e-9) * j, tol * (1 - 1e-9) * j
    for mat in (m, q @ m @ q.T):
        assert np.linalg.matrix_rank(mat, tol=tol) == 2
        with mock.patch.object(poisson_module, "matrix_of_omega", lambda u, p: mat):
            assert pi_rank(np.eye(3), parse_preset("cp2")) == 2


# ---------------------------------------------------------------------------
# group case


def test_group_values_at_identity_and_torus(rng):
    h, x, y = su2_frame()
    eye = np.eye(2, dtype=complex)
    for p in (h, x, y):
        for q in (h, x, y):
            assert pi_lw_group(eye, p, q) == pytest.approx(0.0, abs=1e-14)
    kt = np.diag([np.exp(0.9j), np.exp(-0.9j)])
    for p in (h, x, y):
        for q in (h, x, y):
            assert pi_lw_group(kt, p, q) == pytest.approx(0.0, abs=1e-13)


def test_su2_coefficients_match_closed_forms(rng):
    for _ in range(200):
        a, b = su2_sphere_sampler().one(rng)
        k = su2_from_sphere(a, b)
        el = su2_el_coefficients(k)
        el_expected = (
            1 + abs(a) ** 4 - abs(b) ** 4,
            2 * np.imag(a * b),
            -2 * np.real(a * b),
        )
        np.testing.assert_allclose(el, el_expected, atol=1e-12)
        lw = su2_lw_coefficients(k)
        lw_expected = (
            1 - abs(a) ** 4 + abs(b) ** 4,
            2 * np.imag(np.conj(a) * b),
            -2 * np.real(a * np.conj(b)),
        )
        np.testing.assert_allclose(lw, lw_expected, atol=1e-12)


def _single_factor_pairing(k, p, q, sign):
    """Reference: <(Ad(k) o H o Ad(k^-1) + sign H)(p), q> on the single
    factor, for stacks that broadcast."""
    kh = k.mT.conj()
    moved = k @ hilbert_transform(kh @ p @ k) @ kh
    return trace_form(moved + sign * hilbert_transform(p), q).real


@pytest.mark.parametrize("n", [2, 3])
def test_group_pairings_match_the_single_factor_formula(n, rng):
    # k (2, 3) against p (3,) and q (2, 1): the values broadcast to (2, 3)
    k = np.array([special_unitary_sampler(n).one(rng) for _ in range(6)]).reshape(2, 3, n, n)
    p = np.array([su_algebra_sampler(n).one(rng) for _ in range(3)])
    q = np.array([su_algebra_sampler(n).one(rng) for _ in range(2)]).reshape(2, 1, n, n)
    for pairing, sign in ((pi_el_group, 1.0), (pi_lw_group, -1.0)):
        values = pairing(k, p, q)
        expected = _single_factor_pairing(k, p, q, sign)
        assert values.shape == (2, 3)
        assert np.all(np.abs(values - expected) <= 1e-13 * np.maximum(1.0, np.abs(expected)))


def test_el_vanishes_when_minor_vanishes(rng):
    h, x, y = su2_frame()
    for _ in range(10):
        b = np.exp(2j * np.pi * rng.uniform())
        k = su2_from_sphere(0.0, b)
        worst = max(abs(pi_el_group(k, p, q)) for p in (h, x, y) for q in (h, x, y))
        assert worst <= 1e-12


def test_el_pushforward_matches_group_bivector(rng, group2):
    # transporting covectors through the factor identification must land on
    # the quoted single-factor pairing, with no extra constant
    for _ in range(25):
        k1 = special_unitary_sampler(2).one(rng)
        k2 = special_unitary_sampler(2).one(rng)
        p = su_algebra_sampler(2).one(rng)
        q = su_algebra_sampler(2).one(rng)
        pd = k1.conj().T @ p @ k1
        qd = k1.conj().T @ q @ k1
        push = pi_eval(block_diag(k1, k2), block_diag(pd, -pd), block_diag(qd, -qd), group2)
        assert abs(pi_el_group(k1 @ k2.conj().T, p, q) - push) <= 1e-9


# ---------------------------------------------------------------------------
# chart formulas


def test_grassmann_local_pi_antisymmetric(rng):
    for _ in range(20):
        z = complex_normal_sampler((2, 2)).one(rng)
        v = complex_normal_sampler((2, 2)).one(rng)
        w = complex_normal_sampler((2, 2)).one(rng)
        assert grassmann_local_pi(z, v, v) == pytest.approx(0.0, abs=1e-12)
        assert grassmann_local_pi(z, v, w) == pytest.approx(
            -grassmann_local_pi(z, w, v), abs=1e-12
        )


def test_cpn_coeffs_origin_and_factored_forms(rng):
    c = cpn_coeffs(np.zeros(3))
    np.testing.assert_allclose(np.diag(c.mixed), [-1j, -1j, -1j])
    assert np.allclose(c.mixed - np.diag(np.diag(c.mixed)), 0)
    assert np.allclose(c.holo, 0)
    for _ in range(20):
        z = complex_normal_sampler(2).one(rng)
        a1, a2 = abs(z[0]) ** 2, abs(z[1]) ** 2
        rho2 = a1 + a2
        c = cpn_coeffs(z)
        s1 = (1 + a1) * (1 - rho2)
        s2 = (1 - a2) * (1 + rho2)
        assert abs(c.mixed[0, 0] - (-1j * s1)) <= 1e-12
        assert abs(c.mixed[1, 1] - (-1j * s2)) <= 1e-12


def test_cpn_reduces_to_cp1(rng):
    for _ in range(20):
        z = complex(complex_normal_sampler(()).one(rng))
        c = cpn_coeffs([z])
        assert abs(c.mixed[0, 0] - cp1_family(z).evens_lu) <= 1e-14


@pytest.mark.parametrize("n", [1, 2])
def test_cpn_agrees_with_grassmann_specialization(n, rng):
    for _ in range(50):
        z = complex_normal_sampler(n).one(rng)
        v = complex_normal_sampler((1, n)).one(rng)
        w = complex_normal_sampler((1, n)).one(rng)
        local = grassmann_local_pi(z.reshape(n, 1), v, w)
        coord = coord_pi_value(cpn_coeffs(z), v.reshape(-1), w.reshape(-1))
        assert abs(local - coord) <= 1e-12


def test_cp2_degeneracy_p_on_arrays_matches_scalar_calls(rng):
    z = complex_normal_sampler((40, 2)).one(rng)
    stacked = cp2_degeneracy_p(z[:, 0], z[:, 1])
    assert stacked.shape == (40,)
    for (z1, z2), p in zip(z, stacked):
        assert p == pytest.approx(cp2_degeneracy_p(complex(z1), complex(z2)), rel=1e-14, abs=1e-15)
    # real coordinates, as rank-grid cp2 passes them, give the same bits
    r = np.abs(z)
    reals = cp2_degeneracy_p(r[:, 0], r[:, 1])
    assert reals.tolist() == [cp2_degeneracy_p(complex(a), complex(b)) for a, b in r]
    # p vanishes on the unit sphere
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    np.testing.assert_allclose(cp2_degeneracy_p(z[:, 0], z[:, 1]), 0.0, atol=1e-12)


def test_cp2_bivector_determinant_is_p_squared(rng):
    # the chart bivector is invertible exactly off the locus p = 0
    for _ in range(30):
        z = 0.9 * complex_normal_sampler(2).one(rng)
        det = np.linalg.det(cpn_coeffs(z).complex_matrix())
        p = cp2_degeneracy_p(z[0], z[1])
        assert abs(det - p**2) <= 1e-10 * max(1.0, p**2)
    z = complex_normal_sampler(2).one(rng)
    z /= np.linalg.norm(z)
    svals = np.linalg.svd(cpn_coeffs(z).complex_matrix(), compute_uv=False)
    assert svals[1] > 0.1 and np.all(svals[2:] <= 1e-12)


def test_cp1_family_values(rng):
    fam = cp1_family(0.0)
    assert fam.evens_lu == pytest.approx(-1j)
    assert fam.projected_pl == pytest.approx(0.0)
    assert fam.kks == pytest.approx(1j)
    for t in np.linspace(0, 2 * np.pi, 13):
        assert abs(cp1_family(np.exp(1j * t)).evens_lu) <= 1e-14


def test_lambda_identity_numeric(rng):
    for _ in range(100):
        z = complex(complex_normal_sampler(()).one(rng))
        fam = cp1_family(z)
        assert abs(fam.evens_lu - (fam.projected_pl - fam.kks)) <= 1e-14


def test_lambda_identity_exact_rational():
    # same identity as polynomials in t = |z|^2, checked in exact arithmetic
    for t in [Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(3), Fraction(7, 5)]:
        ev = 1 - t * t            # -i coefficient of the homogeneous structure
        pl = -2 * t * (1 + t)     # -i coefficient of the projected structure
        kks = -((1 + t) ** 2)     # -i coefficient of the invariant structure
        assert ev == pl - kks


def test_fothlu_w_chart():
    assert fothlu_w_chart(0.7) == 0.0
    assert fothlu_w_chart(1j) == pytest.approx(-4j)
    w = 0.3 + 0.8j
    assert fothlu_w_chart(np.conj(w)) == pytest.approx(-fothlu_w_chart(w))


def test_fothlu_w_chart_array_matches_scalar_calls_bit_for_bit(rng):
    w = rng.uniform(-2, 2, 2000) + 1j * rng.uniform(-2, 2, 2000)
    stacked = fothlu_w_chart(w)
    assert all(stacked[i] == fothlu_w_chart(complex(v)) for i, v in enumerate(w))
    # the Python scalar arithmetic |w|^2 = abs(w) ** 2
    assert all(
        stacked[i].imag == -2.0 * v.imag * (1.0 + abs(complex(v)) ** 2) for i, v in enumerate(w)
    )


def test_cp1_family_array_matches_scalar_calls_bit_for_bit(rng):
    z = rng.uniform(-2, 2, 2000) + 1j * rng.uniform(-2, 2, 2000)
    fam = cp1_family(z)
    for i, v in enumerate(z):
        one = cp1_family(complex(v))
        assert (one.evens_lu, one.projected_pl, one.kks) == (
            fam.evens_lu[i],
            fam.projected_pl[i],
            fam.kks[i],
        )


# ---------------------------------------------------------------------------
# jacobi


def _grassmann_tensor(m, n):
    return functools.partial(chart_tensor, preset=grassmannian(m, n))


def test_jacobi_constant_bivector_is_zero():
    def const(x):
        return np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]], dtype=float)

    assert jacobi_residual(const, np.zeros(4)) == pytest.approx(0.0, abs=1e-12)


def test_jacobi_cp1_baseline(rng):
    tensor = _grassmann_tensor(1, 1)
    for _ in range(5):
        assert jacobi_residual(tensor, 0.8 * rng.standard_normal(2)) <= 1e-6


def test_jacobi_cp2_and_grassmann(rng):
    cp2 = _grassmann_tensor(1, 2)
    for _ in range(10):
        assert jacobi_residual(cp2, 0.6 * rng.standard_normal(4)) <= 1e-5
    g22 = _grassmann_tensor(2, 2)
    for _ in range(5):
        assert jacobi_residual(g22, 0.5 * rng.standard_normal(8)) <= 1e-5


def test_jacobi_detects_broken_bivector(rng):
    # dropping the mixed terms must break the identity by a visible margin;
    # like every chart tensor, this one takes a stack of points
    def broken(x):
        c = cpn_coeffs(reals_to_complex(x))
        return coeffs_real_matrix(
            CoordCoefficients(mixed=c.mixed * np.eye(2), holo=np.zeros_like(c.holo))
        )

    assert jacobi_residual(broken, np.array([0.4, 0.1, -0.3, 0.2])) > 1e-2


def test_chart_tensor_matches_cpn(rng):
    # the Grassmann kernel agrees on projective space with the real matrix
    # of the displayed coefficients, built here as the reference
    for _ in range(5):
        x = 0.7 * rng.standard_normal(4)
        cpn = coeffs_real_matrix(cpn_coeffs(reals_to_complex(x)))
        np.testing.assert_allclose(cpn, chart_tensor(x, grassmannian(1, 2)), atol=1e-12)


def test_chart_tensor_matches_trace_pairing(rng):
    # entry (a, b) is the chart pairing of the a-th and b-th covector reps
    m, n = 2, 3
    reps = []
    for r in range(n):
        for c in range(m):
            for val in (0.5, -0.5j):
                e = np.zeros((m, n), dtype=complex)
                e[c, r] = val
                reps.append(e)
    preset = grassmannian(m, n)
    for _ in range(3):
        x = 0.7 * rng.standard_normal(2 * m * n)
        z = reals_to_complex(x).reshape(n, m)
        expected = [[grassmann_local_pi(z, v, w) for w in reps] for v in reps]
        np.testing.assert_allclose(chart_tensor(x, preset), expected, rtol=0, atol=1e-14)


def _l_operator_reference(z, v):
    """The chart operator as first written, one matmul per (point,
    covector) pair: the reference for the folded kernel."""
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    zs = z.mT.conj()
    t1 = v - zs @ z @ v @ z @ zs
    b2 = np.triu(z @ v - v.mT.conj() @ zs, 1)
    t2 = zs @ (b2 + b2.mT.conj())
    b3 = np.triu(zs @ v.mT.conj() - v @ z, 1)
    t3 = (b3 + b3.mT.conj()) @ zs
    return t1 + t2 - t3


def test_reals_to_complex_pairs_the_coordinates_and_refuses_an_odd_count():
    np.testing.assert_array_equal(reals_to_complex(np.array([1.0, 2.0, 3.0, -4.0])), [1 + 2j, 3 - 4j])
    with pytest.raises(ValueError, match="even length"):
        reals_to_complex(np.ones(3))


def _chart_tensor_reference(x, m, n):
    """The Grassmann chart tensor as first written: the reference operator
    broadcast over the basis axis, then the einsum trace pairing."""
    reps = 0.5 * chart_directions(grassmannian(m, n)).conj().mT
    z = reals_to_complex(x)
    z = z.reshape(z.shape[:-1] + (1, n, m))
    images = _l_operator_reference(z, reps)
    return -2.0 * np.einsum("...aij,bij->...ab", images.conj(), reps).imag


L_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2)]


def _assert_relative(got, ref, rel=1e-14):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("m,n", L_SHAPES)
def test_folded_l_kernel_matches_the_per_element_reference(m, n, rng):
    z = 0.7 * complex_normal_sampler((5, n, m)).one(rng)
    v = complex_normal_sampler((5, m, n)).one(rng)
    # a z-stack against one v, one z against a v-stack, paired stacks, and
    # stacks that broadcast to (5, 5)
    for zz, vv in ((z, v[0]), (z[0], v), (z, v), (z[:, np.newaxis], v)):
        _assert_relative(grassmann_l_operator(zz, vv), _l_operator_reference(zz, vv))
    # the K axis: all 2 m n chart covectors at each point of the stack
    reps = 0.5 * chart_directions(grassmannian(m, n)).conj().mT
    _assert_relative(
        poisson_module._l_images(z, reps), _l_operator_reference(z[:, np.newaxis], reps)
    )


@pytest.mark.parametrize("m,n", L_SHAPES)
def test_chart_tensor_matches_the_einsum_reference(m, n, rng):
    preset = grassmannian(m, n)
    # one finite-difference stencil's worth of points
    x = rng.uniform(-1.0, 1.0, (2 * preset.dim_ip + 1, preset.dim_ip))
    mats = chart_tensor(x, preset)
    _assert_relative(mats, _chart_tensor_reference(x, m, n))
    _assert_relative(mats.mT, -mats)
    _assert_relative(chart_tensor(x[0], preset), _chart_tensor_reference(x[0], m, n))


@pytest.mark.parametrize("x", [[1e300, 0.0], [0.0, 0.0, 1e300, 0.0]])
def test_coeffs_real_matrix_rejects_a_non_finite_tensor(x):
    with np.errstate(all="ignore"), pytest.raises(NumericalDomainError, match="finite"):
        coeffs_real_matrix(cpn_coeffs(reals_to_complex(np.array(x))))


@pytest.mark.parametrize(
    "m,n,x",
    [
        (1, 1, [1e300, 0.0]),
        (1, 2, [0.0, 0.0, 1e300, 0.0]),
        (2, 2, [1e300] + [0.0] * 7),
        (1, 2, [[0.1, 0.2, 0.3, 0.1], [0.0, 0.0, 1e300, 0.0]]),
    ],
)
def test_chart_tensor_rejects_a_non_finite_tensor(m, n, x):
    # on cp1 the Schouten bracket has no component, so a tensor that is not
    # finite would otherwise pass the Jacobi residual as 0.0; a stack is
    # refused when any of its points is
    with np.errstate(all="ignore"), pytest.raises(NumericalDomainError, match="finite"):
        chart_tensor(np.array(x), grassmannian(m, n))


@pytest.mark.parametrize(
    "x,preset,match",
    [
        ([0.0] * 8, group_case(2), "charts exist for the Grassmannian family only"),
        ([np.nan, 0.0], grassmannian(1, 1), "chart matrix entries must be finite"),
        # a point of the wrong length: the chart rule's refusals, not numpy's
        # reshape error
        ([0.0] * 6, grassmannian(1, 2), r"chart matrix must be 2 x 1, got \(3,\)"),
        ([0.0] * 6, group_case(2), "charts exist for the Grassmannian family only"),
        ([[0.0] * 6] * 2, grassmannian(2, 2), r"chart matrix must be 2 x 2, got \(2, 3\)"),
    ],
)
def test_chart_tensor_refuses_what_canonical_rep_refuses(x, preset, match):
    # the one chart rule of symspace, as canonical_rep and chart_pi_eval refuse it
    with pytest.raises(ValueError, match=match):
        chart_tensor(np.array(x), preset)


def _fothlu_w_reference(x):
    """The real matrix of the mixed coefficient ``fothlu_w_chart(w)`` taken
    through the holomorphic frame: the reference of the closed form."""
    c = np.asarray(fothlu_w_chart(reals_to_complex(x)[..., 0]))[..., np.newaxis, np.newaxis]
    return coeffs_real_matrix(CoordCoefficients(mixed=c, holo=np.zeros_like(c)))


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(), (1,), (7,), (2, 3)]), seed=SEEDS)
def test_fothlu_w_tensor_is_the_real_matrix_of_its_coefficient(shape, seed):
    # each point at its own scale from e^-20 to e^20, some on the real axis,
    # where the coefficient vanishes
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape + (2,)) * np.exp(rng.uniform(-20.0, 20.0, shape + (1,)))
    x[..., 1] *= rng.integers(0, 2, shape)
    got = fothlu_w_tensor(x)
    assert got.shape == shape + (2, 2)
    np.testing.assert_array_equal(got, _fothlu_w_reference(x))
    for idx in np.ndindex(shape):
        np.testing.assert_array_equal(fothlu_w_tensor(x[idx]), got[idx])


@pytest.mark.parametrize("x", [[1e200, 1e200], [[0.3, -0.7], [0.0, 1e300]], [0.1, np.nan]])
def test_fothlu_w_tensor_rejects_a_non_finite_tensor(x):
    with np.errstate(all="ignore"), pytest.raises(NumericalDomainError, match="finite"):
        fothlu_w_tensor(np.array(x))


def test_jacobi_residual_matches_cyclic_loop(rng):
    # a non-Poisson bivector, so the residual is far from zero
    def broken(x):
        c = cpn_coeffs(reals_to_complex(x))
        return coeffs_real_matrix(CoordCoefficients(mixed=c.mixed, holo=2.0 * c.holo))

    x = 0.5 * rng.standard_normal(6)
    step = FD_STEP
    grad = [
        (broken(x + step * e) - broken(x - step * e)) / (2 * step) for e in np.eye(6)
    ]
    pi_mat = broken(x)
    worst = 0.0
    for a in range(6):
        for b in range(a + 1, 6):
            for c in range(b + 1, 6):
                total = sum(
                    pi_mat[d, a] * grad[d][b, c]
                    + pi_mat[d, b] * grad[d][c, a]
                    + pi_mat[d, c] * grad[d][a, b]
                    for d in range(6)
                )
                worst = max(worst, abs(total))
    assert worst > 1e-2
    assert jacobi_residual(broken, x) == pytest.approx(worst, rel=1e-12)


# name: (chart tensor, real dimension of its chart)
TENSORS = {
    **{
        f"gr:{m},{n}": (_grassmann_tensor(m, n), 2 * m * n)
        for m, n in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3))
    },
    "fothlu_w": (fothlu_w_tensor, 2),
}


def _points(dim, rng, shape):
    """Chart points (shape..., dim)."""
    return 0.6 * rng.standard_normal(shape + (dim,))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(TENSORS)),
    shape=st.sampled_from([(1,), (4,), (2, 3)]),
    seed=SEEDS,
)
def test_chart_tensor_on_a_stack_matches_per_point_calls(name, shape, seed):
    tensor, size = TENSORS[name]
    x = _points(size, np.random.default_rng(seed), shape)
    stacked = tensor(x)
    assert stacked.shape == shape + (size, size)
    for idx in np.ndindex(shape):
        single = tensor(x[idx])
        assert single.shape == (size, size)
        np.testing.assert_allclose(stacked[idx], single, rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_coord_pi_value_on_a_stack_matches_per_point_calls(n, shape, rng):
    z, v, w = (complex_normal_sampler(shape + (n,)).one(rng) for _ in range(3))
    stacked = coord_pi_value(cpn_coeffs(z), v, w)
    assert stacked.shape == shape
    for idx in np.ndindex(shape):
        single = coord_pi_value(cpn_coeffs(z[idx]), v[idx], w[idx])
        assert isinstance(single, float)
        assert single == stacked[idx]


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(TENSORS)),
    shape=st.sampled_from([(1,), (3,), (2, 2)]),
    seed=SEEDS,
)
def test_jacobi_residual_on_a_stack_matches_a_loop(name, shape, seed):
    tensor, size = TENSORS[name]
    x = _points(size, np.random.default_rng(seed), shape)
    stacked = jacobi_residual(tensor, x)
    assert stacked.shape == shape
    for idx in np.ndindex(shape):
        single = jacobi_residual(tensor, x[idx])
        assert isinstance(single, float)
        assert abs(stacked[idx] - single) <= 1e-12


def test_jacobi_residual_on_a_stack_keeps_each_points_residual(rng):
    # a non-Poisson bivector, so each point's residual is far from zero and
    # differs from the others'
    def broken(x):
        c = cpn_coeffs(reals_to_complex(x))
        return coeffs_real_matrix(CoordCoefficients(mixed=c.mixed, holo=2.0 * c.holo))

    x = 0.5 * rng.standard_normal((4, 6))
    singles = [jacobi_residual(broken, xi) for xi in x]
    assert min(singles) > 1e-2
    np.testing.assert_allclose(jacobi_residual(broken, x), singles, rtol=1e-12)


# ---------------------------------------------------------------------------
# calibration: local chart formula against the equivariant bivector


def test_calibration_constant_is_one():
    assert calibration_constant() == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2)])
def test_local_vs_equivariant(m, n, rng):
    from birkhoff_poisson.symspace import grassmannian

    preset = grassmannian(m, n)
    cal = calibration_constant()
    for _ in range(20):
        z = chart_sampler(preset).one(rng)
        v = complex_normal_sampler((m, n)).one(rng)
        w = complex_normal_sampler((m, n)).one(rng)
        local = grassmann_local_pi(z, v, w)
        equiv = chart_pi_eval(preset, z, v, w)
        assert abs(local - cal * equiv) <= 1e-8 * max(1.0, abs(local))
