from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from birkhoff_poisson import (
    NotPositiveDefinite,
    NumericalDomainError,
    SingularInput,
    StratumAmbiguous,
    birkhoff_factor,
    inv_sqrt_hpd,
    iwasawa_factor,
    principal_minors,
)
from birkhoff_poisson import cli, linalg
from birkhoff_poisson.linalg import AMBIGUITY_BAND, _pivot_minors, signed_permutation_matrix
from birkhoff_poisson.symspace import _j_diagonal, canonical_rep, cartan_embed, parse_preset
from birkhoff_poisson.sampling import (
    complex_normal_sampler,
    special_linear_stack,
    special_unitary_sampler,
)


def det_cofactor(m):
    """Independent determinant oracle by cofactor expansion along row 0."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * det_cofactor(minor)
    return total


# ---------------------------------------------------------------------------
# birkhoff_factor


def test_birkhoff_identity():
    f = birkhoff_factor(np.eye(3, dtype=complex))
    assert f.perm == (0, 1, 2)
    np.testing.assert_allclose(f.l, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(f.h, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(f.u_plus, np.eye(3), atol=1e-15)


def test_birkhoff_signed_rotation():
    # g is itself the chosen signed-permutation representative
    g = np.array([[0, 1], [-1, 0]], dtype=complex)
    f = birkhoff_factor(g)
    assert f.perm == (1, 0)
    assert f.signs == (1, -1)
    np.testing.assert_allclose(f.l, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.h, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.u_plus, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(f.w_matrix, g, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_birkhoff_roundtrip_random(n, rng):
    for _ in range(50):
        g = special_linear_stack(n, 1, rng)[0]
        f = birkhoff_factor(g)
        assert f.perm == tuple(range(n))
        err = np.linalg.norm(f.reconstruct() - g)
        assert err <= 1e-10 * np.linalg.norm(g)
        assert abs(np.prod(np.diag(f.h)) - 1) < 1e-10


def test_birkhoff_factor_shapes(rng):
    f = birkhoff_factor(special_linear_stack(4, 1, rng)[0])
    assert np.allclose(np.diag(f.l), 1) and np.allclose(np.triu(f.l, 1), 0)
    assert np.allclose(np.diag(f.u_plus), 1) and np.allclose(np.tril(f.u_plus, -1), 0)
    assert np.allclose(f.h, np.diag(np.diag(f.h)))


def test_birkhoff_recovers_engineered_permutation(rng):
    # build g = l W h u with a known nontrivial Weyl element; the structural
    # elimination must recover exactly that permutation
    n = 4
    perm = (2, 0, 3, 1)
    p_mat = np.zeros((n, n))
    for j, i in enumerate(perm):
        p_mat[i, j] = 1.0
    signs = [1, 1, 1, int(round(np.linalg.det(p_mat)))]
    w = signed_permutation_matrix(perm, tuple(signs))
    lo = np.eye(n, dtype=complex)
    lo[np.tril_indices(n, -1)] = complex_normal_sampler(6).one(rng)
    up = np.eye(n, dtype=complex)
    up[np.triu_indices(n, 1)] = complex_normal_sampler(6).one(rng)
    d = np.array([1.4, 0.6, 2.2, 1.0 / (1.4 * 0.6 * 2.2)], dtype=complex)
    g = lo @ w @ np.diag(d) @ up
    f = birkhoff_factor(g)
    assert f.perm == perm
    assert f.signs == tuple(signs)
    np.testing.assert_allclose(f.reconstruct(), g, atol=1e-12 * np.linalg.norm(g))


def test_birkhoff_singular_input():
    g = np.array([[1, 1], [1, 1]], dtype=complex)
    with pytest.raises(SingularInput):
        birkhoff_factor(g)


def test_birkhoff_non_unimodular_rejected():
    with pytest.raises(SingularInput):
        birkhoff_factor(2 * np.eye(2, dtype=complex))


def test_birkhoff_refuses_an_empty_matrix():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        birkhoff_factor(np.zeros((0, 0)))


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1.0, -1e-9])
def test_birkhoff_refuses_a_tol_that_is_not_positive_and_finite(tol):
    # before the det check, so a singular or a non-unimodular matrix gets
    # the threshold's refusal too, and no matrix is blamed for it: at
    # tol = -1 the zero pivot of the rotation was divided by, and at nan no
    # column had a usable pivot
    for g in ([[0, 1], [-1, 0]], [[2, 1], [1, 1]], [[1, 1], [1, 1]], [[2, 0], [0, 2]]):
        with pytest.raises(ValueError, match=f"tol must be positive and finite, got {tol}") as info:
            birkhoff_factor(np.array(g, dtype=complex), tol)
        assert type(info.value) is ValueError
    assert birkhoff_factor(np.array([[0, 1], [-1, 0]], dtype=complex)).perm == (1, 0)


def test_unimodular_check_calls_singular_on_a_scale_apart_from_tol():
    # |det g| against Hadamard's bound of g, not against the pivot tol: a
    # unitary matrix passes at any tol, a rank-deficient one is singular
    # however it is scaled, and a well-conditioned multiple of I is not
    u = special_unitary_sampler(3).one(np.random.default_rng(3))
    assert iwasawa_factor(u).u.shape == (3, 3)
    for tol in (1e-9, 1.0, 2.0, 1e3):
        try:
            birkhoff_factor(u, tol)
        except (StratumAmbiguous, SingularInput) as exc:
            assert "ambiguity band" in str(exc) or "no usable pivot" in str(exc)
    for scale in (1e-8, 1.0, 1e8):
        with pytest.raises(SingularInput, match="matrix is singular"):
            birkhoff_factor(scale * np.array([[1, 1], [1, 1]], dtype=complex), 2.0)
        with pytest.raises(SingularInput, match="matrix is singular"):
            iwasawa_factor(scale * np.array([[1, 2], [2, 4]], dtype=complex))
    for g in (1e-5 * np.eye(2), 2 * np.eye(2), np.diag([1e-12, 1.0])):
        for factor in (birkhoff_factor, iwasawa_factor):
            with pytest.raises(SingularInput, match="determinant must equal 1"):
                factor(g.astype(complex))


def test_unitary_cartan_images_follow_the_pivot_rule_at_tol_above_one():
    # cp1 at z = (1 + i) / 4: phi[0, 0] = 7 / 9 lies inside the band
    # (tol / 10, tol * 10) around tol = 2, so the image is ambiguous, not
    # singular; at tol = 0.05 it is top-layer
    z = np.array([[0.25 + 0.25j]])
    cp1 = parse_preset("cp1")
    phi = cartan_embed(canonical_rep(z, cp1), cp1)
    with pytest.raises(StratumAmbiguous, match="ambiguity band around tol = 2.000e"):
        birkhoff_factor(phi, 2.0)
    with pytest.raises(StratumAmbiguous) as info:
        birkhoff_factor(np.array([phi, phi]), 2.0)
    np.testing.assert_array_equal(info.value.mask, [True, True])
    assert birkhoff_factor(phi, 0.05).perm == (0, 1)


def test_birkhoff_ambiguous_pivot():
    tol = 1e-9
    eps = 3e-9  # inside the ambiguity band (tol, 10 tol)
    g = np.array([[eps, 1], [-1, 0]], dtype=complex)
    g /= np.exp(np.log(np.linalg.det(g)) / 2)
    with pytest.raises(StratumAmbiguous):
        birkhoff_factor(g, tol)


def _unit_disc(rng, size):
    """Complex numbers of modulus at most 1: uniform modulus and phase."""
    return rng.uniform(0.0, 1.0, size) * np.exp(2j * np.pi * rng.uniform(size=size))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_birkhoff_layer_is_stable_well_inside_the_band(data, n, seed):
    # g = l W h u with unipotent l, u of entries |.| <= 1 and pivots |h_j| in
    # [1e-3, 10]: g and a perturbation of Frobenius norm 1e-14 classify as W.
    # Elimination amplifies the perturbation by up to the pivot ratio
    # max|h| / min|h|, so at 1e-13 about 2 in 10^4 perturbed draws already
    # put an entry inside the band and are refused as ambiguous.
    perm = tuple(data.draw(st.permutations(range(n))))
    parity = np.linalg.det(signed_permutation_matrix(perm, (1,) * n)).real
    signs = (1,) * (n - 1) + (int(round(parity)),)
    w = signed_permutation_matrix(perm, signs)
    rng = np.random.default_rng(seed)
    lo = np.eye(n, dtype=complex)
    lo[np.tril_indices(n, -1)] = _unit_disc(rng, n * (n - 1) // 2)
    up = np.eye(n, dtype=complex)
    up[np.triu_indices(n, 1)] = _unit_disc(rng, n * (n - 1) // 2)
    log_h = np.full(n, np.inf)
    while not np.log(1e-3) <= log_h[-1] <= np.log(10.0):
        log_h[:-1] = rng.uniform(np.log(1e-3), np.log(10.0), n - 1)
        log_h[-1] = -np.sum(log_h[:-1])
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    phase[-1] = -np.sum(phase[:-1])
    g = lo @ w @ np.diag(np.exp(log_h + 1j * phase)) @ up
    noise = complex_normal_sampler((n, n)).one(rng)
    moved = g + 1e-14 * noise / np.linalg.norm(noise)
    moved /= np.exp(np.log(np.linalg.det(moved)) / n)
    for x in (g, moved):
        f = birkhoff_factor(x)
        assert (f.perm, f.signs) == (perm, signs)


# ---------------------------------------------------------------------------
# birkhoff_factor on stacks, against the one-matrix elimination loop


class _RefAmbiguous(Exception):
    pass


class _RefSingular(Exception):
    pass


def reference_birkhoff(g, tol=1e-9):
    """The structural elimination one matrix at a time, as a plain loop:
    (l, perm, signs, h, u_plus), or _RefSingular / _RefAmbiguous."""
    det = np.linalg.det(g)
    if abs(det) <= max(tol, 1e-300) or abs(det - 1.0) > 1e-6:
        raise _RefSingular
    n = g.shape[0]
    m = g.astype(complex).copy()
    lower = np.eye(n, dtype=complex)
    upper = np.eye(n, dtype=complex)
    perm = [-1] * n
    used = [False] * n
    for j in range(n):
        pivot_row = -1
        for i in range(n):
            if used[i]:
                continue
            a = abs(m[i, j])
            if a > tol:
                if a < tol * AMBIGUITY_BAND:
                    raise _RefAmbiguous
                pivot_row = i
                break
            if a > tol / AMBIGUITY_BAND:
                raise _RefAmbiguous
        if pivot_row < 0:
            raise _RefSingular
        used[pivot_row] = True
        perm[j] = pivot_row
        p = m[pivot_row, j]
        for i in range(pivot_row + 1, n):
            if used[i] or m[i, j] == 0:
                continue
            mult = m[i, j] / p
            m[i, :] -= mult * m[pivot_row, :]
            lower[i, pivot_row] = mult
        for j2 in range(j + 1, n):
            if m[pivot_row, j2] == 0:
                continue
            c = m[pivot_row, j2] / p
            m[:, j2] -= c * m[:, j]
            upper[j, j2] = c
    inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
    signs = [1] * (n - 1) + [(-1) ** inversions]
    h = np.diag([signs[perm[j]] * m[perm[j], j] for j in range(n)])
    return lower, tuple(perm), tuple(signs), h, upper


def _unit_det(g):
    return g / np.exp(np.log(np.linalg.det(g)) / g.shape[0])


def _engineered(rng, n, h_diag):
    """l W h u with random unipotent l, u and a random signed permutation W."""
    perm = tuple(int(i) for i in rng.permutation(n))
    inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
    w = signed_permutation_matrix(perm, (1,) * (n - 1) + ((-1) ** inversions,))
    lo = np.eye(n, dtype=complex)
    lo[np.tril_indices(n, -1)] = complex_normal_sampler(n * (n - 1) // 2).one(rng)
    up = np.eye(n, dtype=complex)
    up[np.triu_indices(n, 1)] = complex_normal_sampler(n * (n - 1) // 2).one(rng)
    return lo @ w @ np.diag(h_diag) @ up


def _band_value(rng, tol):
    """A magnitude strictly inside (tol / band, tol * band)."""
    return tol * AMBIGUITY_BAND ** rng.uniform(-0.95, 0.95)


def _sample(kind, rng, n, tol):
    if kind == "generic":
        return special_linear_stack(n, 1, rng)[0]
    if kind == "engineered":
        d = np.exp(rng.uniform(-1.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(size=n))
        d[-1] = 1.0 / np.prod(d[:-1])
        return _engineered(rng, n, d)
    if kind == "band-pivot":
        # a later pivot of the elimination lands inside the band
        d = np.exp(rng.uniform(-0.5, 0.5, n)).astype(complex)
        k = int(rng.integers(n - 1))
        d[k] = _band_value(rng, tol)
        d[-1] = 1.0
        d[-1] = 1.0 / np.prod(d)
        return _engineered(rng, n, d)
    # "band-entry": column 0 reads exact zeros above one entry inside the
    # band; the rows below it keep the determinant away from zero
    g = special_linear_stack(n, 1, rng)[0]
    r = int(rng.integers(n - 1))
    g[: r + 1, 0] = 0.0
    g = _unit_det(g)
    g[r, 0] = _band_value(rng, tol) * np.exp(2j * np.pi * rng.uniform())
    return _unit_det(g)


KINDS = ("generic", "engineered", "band-pivot", "band-entry")


def _assert_close(a, b):
    """Equal to 1e-13 relative, with the reference's exact zeros kept."""
    assert np.linalg.norm(a - b) <= 1e-13 * max(1.0, np.linalg.norm(b))
    np.testing.assert_array_equal(a == 0, b == 0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 5),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_birkhoff_stack_matches_reference_loop(n, kinds, seed):
    tol = 1e-9
    rng = np.random.default_rng(seed)
    gs = np.array([_sample(kind, rng, n, tol) for kind in kinds])
    refs = []
    for g in gs:
        try:
            refs.append(reference_birkhoff(g, tol))
        except (_RefAmbiguous, _RefSingular) as exc:
            refs.append(exc)
    if any(isinstance(r, _RefSingular) for r in refs):
        with pytest.raises(SingularInput):
            birkhoff_factor(gs, tol)
        return
    ambiguous = np.array([isinstance(r, _RefAmbiguous) for r in refs])
    if ambiguous.any():
        with pytest.raises(StratumAmbiguous) as info:
            birkhoff_factor(gs, tol)
        np.testing.assert_array_equal(info.value.mask, ambiguous)
        if ambiguous.all():
            return
        gs = gs[~ambiguous]
        refs = [r for r, amb in zip(refs, ambiguous) if not amb]
    f = birkhoff_factor(gs, tol)
    assert f.perm.shape == f.signs.shape == (len(gs), n)
    for k, (lower, perm, signs, h, upper) in enumerate(refs):
        assert tuple(f.perm[k]) == perm and tuple(f.signs[k]) == signs
        _assert_close(f.l[k], lower)
        _assert_close(f.h[k], h)
        _assert_close(f.u_plus[k], upper)
    one = birkhoff_factor(gs[0], tol)
    assert one.perm == refs[0][1] and one.signs == refs[0][2]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 5),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=5),
    singular=st.sampled_from(["rank-deficient", "det-not-one"]),
    where=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_birkhoff_stack_with_one_singular_member_raises(n, kinds, singular, where, seed):
    rng = np.random.default_rng(seed)
    gs = [_sample(kind, rng, n, 1e-9) for kind in kinds]
    bad = special_linear_stack(n, 1, rng)[0]
    if singular == "rank-deficient":
        bad[:, -1] = bad[:, 0]
    else:
        bad = 2.0 * bad
    gs.insert(where % (len(gs) + 1), bad)
    with pytest.raises(SingularInput):
        birkhoff_factor(np.array(gs))


def test_birkhoff_no_usable_pivot_outranks_ambiguity():
    # det 1 in both; at tol = 0.5 the first is ambiguous in column 0 and the
    # second has no entry above the band in column 0
    tol = 0.5
    ambiguous = np.diag([0.3, 1 / 0.3]).astype(complex)
    no_pivot = np.diag([0.01, 100.0]).astype(complex)
    with pytest.raises(StratumAmbiguous):
        birkhoff_factor(ambiguous, tol)
    with pytest.raises(SingularInput, match="no usable pivot"):
        birkhoff_factor(no_pivot, tol)
    with pytest.raises(SingularInput, match="no usable pivot"):
        birkhoff_factor(np.array([ambiguous, no_pivot]), tol)


def _refusal(call):
    """The type and message of what ``call()`` raises, or None."""
    try:
        call()
    except (SingularInput, StratumAmbiguous) as exc:
        return type(exc), str(exc)
    return None


def _member(kind, scale, rng, n):
    """A matrix of a KINDS kind or rank-deficient, its determinant times scale."""
    if kind == "rank-deficient":
        g = special_linear_stack(n, 1, rng)[0]
        g[:, -1] = g[:, 0]
    else:
        g = _sample(kind, rng, n, 1e-9)
    return g * scale ** (1 / n)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 5),
    members=st.lists(
        st.tuples(
            st.sampled_from(KINDS + ("rank-deficient",)),
            st.sampled_from([1.0, 1.0, 1 + 2e-6, 1 - 2e-6, 1 + 5e-7, 1 - 5e-7, -1.0, 2.0]),
        ),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_birkhoff_refuses_as_the_unimodular_check_and_then_the_pivot_rule(n, members, seed):
    # LAPACK's det runs once, up front, on a stack of any size: the refusals
    # are those of the unimodular check first and of the pivot rule after
    # it, message for message
    rng = np.random.default_rng(seed)
    gs = np.array([_member(kind, scale, rng, n) for kind, scale in members])
    for g in (gs, gs[-1]):
        expected = _refusal(lambda: linalg._check_unimodular(g))
        if expected is None:
            with mock.patch.object(linalg, "_check_unimodular", lambda g: None):
                expected = _refusal(lambda: birkhoff_factor(g))
        assert _refusal(lambda: birkhoff_factor(g)) == expected


def _near_wall_image(preset, rng, pivot):
    """A top-layer Cartan image whose smallest |pivot| is about ``pivot``,
    from above: on a random chart ray from the origin, bisect to where the
    image leaves the set whose leading minors keep their signs at the
    origin (real for a Grassmannian) and whose smallest pivot, read off
    those minors as |minor_(k+1) / minor_k|, is above ``pivot``.  The
    pivot is bisected on itself: a ray may pass near two walls at once,
    where it is not linear in the distance to the wall."""
    z = rng.normal(size=(preset.n, preset.m)) + 1j * rng.normal(size=(preset.n, preset.m))

    def image(t):
        return cartan_embed(canonical_rep(t * z, preset), preset)

    def minors(t):
        return principal_minors(image(t)).real

    signs = np.sign(minors(0.0))

    def inside(t):
        d = minors(t)
        return np.array_equal(np.sign(d), signs) and np.min(np.abs(d / np.r_[1.0, d[:-1]])) > pivot

    lo, hi = 0.0, 1.0
    while inside(hi):
        lo, hi = hi, 2 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    return image(lo)


@pytest.mark.parametrize("spec", ["cp2", "gr:2,2", "gr:2,3"])
def test_near_wall_images_land_their_smallest_pivot_near_the_target(spec):
    # the draws of the Hermitian classification test below; at gr:2,2 seed
    # 1221 the second ray passes near two walls, where the smallest pivot is
    # not linear in the distance to the wall
    preset = parse_preset(spec)
    for seed in (1221, 0, 1, 2):
        rng = np.random.default_rng(seed)
        pivots = np.where(rng.uniform(size=6) < 0.2, 0.0, 10 ** rng.uniform(-16, -6, 6))
        for pivot in pivots:
            g = _near_wall_image(preset, rng, pivot)
            d = principal_minors(g)
            smallest = np.min(np.abs(d / np.r_[1.0, d[:-1]]))
            # the minors carry about eps in absolute terms, so 1e-14 is as
            # near the wall as a pivot is read
            assert pivot / 10 <= smallest <= max(10 * pivot, 1e-14)
            if pivot > 1e-8:
                assert pivot / 10 <= np.min(np.abs(np.diagonal(birkhoff_factor(g).h))) <= 10 * pivot


@pytest.mark.parametrize("spec", ["cp2", "gr:2,2"])
def test_the_pivot_product_is_det_near_the_band(spec):
    # l W h u_plus = g with det l = det u_plus = det W = 1, so det g is the
    # product of the pivots; a small pivot costs that product its precision,
    # about eps / min |h|, and it stays under the 1e-6 of the unimodular
    # check down to the band's upper edge 1e-8
    preset = parse_preset(spec)
    rng = np.random.default_rng(5)
    for pivot in 10 ** rng.uniform(np.log10(1.05e-8), -6, 25):
        g = _near_wall_image(preset, rng, pivot)
        f = birkhoff_factor(g)
        h = np.diagonal(f.h)
        assert f.perm == tuple(range(len(h)))
        assert 1e-8 < np.min(np.abs(h)) <= 1e-6
        gap = abs(np.prod(h) - np.linalg.det(g))
        assert gap <= 2e-14 / np.min(np.abs(h))
        assert gap <= 0.5 * linalg._DET_ONE_TOL


@pytest.mark.parametrize("spec,tol", [("cp2", 1e-9), ("gr:2,2", 1e-9), ("gr:2,2", 1e-12)])
def test_next_to_the_band_the_pivots_do_not_decide_det_one(spec, tol):
    # next to a pivot p the product of the pivots is off det g by up to
    # about eps / |p|, 1e-5 at the edge of the band around tol = 1e-12, so
    # it cannot tell det g = 1 from a det just outside 1 +- 1e-6 there:
    # LAPACK's det decides, and every matrix is accepted or refused as the
    # unimodular check alone takes it
    preset = parse_preset(spec)
    rng = np.random.default_rng(11)
    n = preset.matrix_dim
    for pivot in np.geomspace(1.05 * tol * AMBIGUITY_BAND, 100 * tol * AMBIGUITY_BAND, 12):
        g = _near_wall_image(preset, rng, pivot)
        for scale in (1.0, 1 + 1.005e-6, 1 - 1.005e-6, 1 + 1.5e-6):
            gs = g * scale ** (1 / n)
            expected = _refusal(lambda: linalg._check_unimodular(gs))
            assert (expected is None) == (scale == 1.0)
            assert _refusal(lambda: birkhoff_factor(gs, tol)) == expected


def test_birkhoff_ambiguous_mask_shapes(rng):
    tol = 1e-9
    eps = 3e-9
    amb = _unit_det(np.array([[eps, 1], [-1, 0]], dtype=complex))
    with pytest.raises(StratumAmbiguous) as info:
        birkhoff_factor(amb, tol)
    assert info.value.mask.shape == () and bool(info.value.mask)
    a, b, c, d = special_linear_stack(2, 4, rng)
    stack = np.array([[a, amb, b], [amb, c, d]])
    with pytest.raises(StratumAmbiguous) as info:
        birkhoff_factor(stack, tol)
    np.testing.assert_array_equal(info.value.mask, [[False, True, False], [True, False, False]])


def test_birkhoff_stack_shapes_and_single_tuples(rng):
    gs = special_linear_stack(3, 4, rng).reshape(2, 2, 3, 3)
    f = birkhoff_factor(gs)
    assert f.l.shape == f.h.shape == f.u_plus.shape == (2, 2, 3, 3)
    assert f.perm.shape == f.signs.shape == (2, 2, 3)
    np.testing.assert_allclose(f.reconstruct(), gs, atol=1e-12)
    one = birkhoff_factor(gs[1, 0])
    assert isinstance(one.perm, tuple) and isinstance(one.signs, tuple)
    assert one.perm == tuple(f.perm[1, 0]) and one.signs == tuple(f.signs[1, 0])
    np.testing.assert_array_equal(one.h, f.h[1, 0])
    np.testing.assert_array_equal(f.w_matrix[1, 0], one.w_matrix)


# ---------------------------------------------------------------------------
# iwasawa_factor


def test_iwasawa_unitary_input(rng):
    g = special_unitary_sampler(3).one(rng)
    f = iwasawa_factor(g)
    np.testing.assert_allclose(f.l, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(f.a, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(f.u, g, atol=1e-12)


def test_iwasawa_positive_diagonal_input():
    g = np.diag([2.0, 0.5]).astype(complex)
    f = iwasawa_factor(g)
    np.testing.assert_allclose(f.l, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(f.a, g, atol=1e-14)
    np.testing.assert_allclose(f.u, np.eye(2), atol=1e-14)


def test_iwasawa_roundtrip_and_invariants(rng):
    for _ in range(100):
        g = special_linear_stack(3, 1, rng)[0]
        f = iwasawa_factor(g)
        assert np.linalg.norm(f.reconstruct() - g) <= 1e-11 * np.linalg.norm(g)
        a = np.diag(f.a)
        assert np.all(np.real(a) > 0) and np.allclose(np.imag(a), 0)
        assert abs(np.prod(np.real(a)) - 1) < 1e-9
        n = g.shape[0]
        assert np.linalg.norm(f.u @ f.u.conj().T - np.eye(n)) < 1e-12


def test_iwasawa_uniqueness_fixed_point(rng):
    g = special_linear_stack(4, 1, rng)[0]
    f = iwasawa_factor(g)
    again = iwasawa_factor(f.reconstruct())
    np.testing.assert_allclose(again.l, f.l, atol=1e-10)
    np.testing.assert_allclose(again.a, f.a, atol=1e-10)
    np.testing.assert_allclose(again.u, f.u, atol=1e-10)


def test_iwasawa_unitary_factor_is_a_right_action(rng):
    # u -> iwasawa_factor(u @ g).u: the identity acts trivially, g acts on I
    # as its own unitary factor, and acting by g1 then g2 is acting by g1 g2
    u = special_unitary_sampler(3).one(rng)
    eye = np.eye(3, dtype=complex)
    np.testing.assert_allclose(iwasawa_factor(u @ eye).u, u, atol=1e-12)
    g = special_unitary_sampler(3).one(rng)
    np.testing.assert_allclose(iwasawa_factor(eye @ g).u, g, atol=1e-12)
    for _ in range(10):
        u = special_unitary_sampler(3).one(rng)
        g1, g2 = special_linear_stack(3, 2, rng)
        twice = iwasawa_factor(iwasawa_factor(u @ g1).u @ g2).u
        once = iwasawa_factor(u @ (g1 @ g2)).u
        assert np.linalg.norm(twice - once) <= 1e-9
        assert np.linalg.norm(twice @ twice.conj().T - eye) <= 1e-10


def test_iwasawa_singular():
    with pytest.raises(SingularInput):
        iwasawa_factor(np.array([[1, 0], [0, 0]], dtype=complex))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 6),
    shape=st.sampled_from([(1,), (5,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_iwasawa_stack_matches_single_calls(n, shape, seed):
    rng = np.random.default_rng(seed)
    gs = special_linear_stack(n, np.prod(shape), rng).reshape(shape + (n, n))
    f = iwasawa_factor(gs)
    assert f.l.shape == f.a.shape == f.u.shape == gs.shape
    for index in np.ndindex(shape):
        one = iwasawa_factor(gs[index])
        assert one.l.shape == (n, n)
        for stacked, single in ((f.l, one.l), (f.a, one.a), (f.u, one.u)):
            assert np.linalg.norm(stacked[index] - single) <= 1e-13 * np.linalg.norm(single)


@pytest.mark.parametrize("scale", [1e154, 1e160])
def test_iwasawa_refuses_a_matrix_whose_gram_matrix_overflows(scale, rng):
    # diag(s, 1/s) has det 1; from 1e155 on g g* overflows, and at 1e154 its
    # symmetrization does: refused, alone and in a stack, with no warning
    g = np.diag([scale, 1 / scale]).astype(complex)
    gs = special_linear_stack(2, 4, rng)
    gs[2] = g
    for bad in (g, gs):
        with pytest.raises(NumericalDomainError, match=r"g g\* is not finite"):
            iwasawa_factor(bad)


def test_iwasawa_factors_a_large_diagonal_exactly():
    f = iwasawa_factor(np.diag([1e150, 1e-150]).astype(complex))
    np.testing.assert_array_equal(f.l, np.eye(2))
    np.testing.assert_array_equal(f.u, np.eye(2))
    np.testing.assert_array_equal(f.a, np.diag([1e150, 1e-150]))


def test_iwasawa_stack_with_one_singular_member_raises(rng):
    gs = special_linear_stack(3, 4, rng)
    gs[2] *= 2.0
    with pytest.raises(SingularInput):
        iwasawa_factor(gs)


# ---------------------------------------------------------------------------
# inv_sqrt_hpd


def test_inv_sqrt_simple():
    np.testing.assert_allclose(inv_sqrt_hpd(np.eye(3, dtype=complex)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        inv_sqrt_hpd(np.diag([4.0, 1.0]).astype(complex)), np.diag([0.5, 1.0]), atol=1e-14
    )


def test_inv_sqrt_random_residual(rng):
    for _ in range(25):
        q = complex_normal_sampler((4, 4)).one(rng)
        p = q @ q.conj().T + 0.1 * np.eye(4)
        s = inv_sqrt_hpd(p)
        assert np.linalg.norm(s @ p @ s - np.eye(4)) <= 1e-11
        assert np.linalg.norm(s - s.conj().T) <= 1e-11


def test_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        inv_sqrt_hpd(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NotPositiveDefinite):
        inv_sqrt_hpd(np.array([[1, 1], [0, 1]], dtype=complex))


def test_inv_sqrt_on_a_stack(rng):
    q = complex_normal_sampler((2, 3, 4, 4)).one(rng)
    stack = q @ q.conj().mT + 0.1 * np.eye(4)
    out = inv_sqrt_hpd(stack)
    assert out.shape == stack.shape
    for index in np.ndindex(2, 3):
        np.testing.assert_allclose(out[index], inv_sqrt_hpd(stack[index]), rtol=0, atol=1e-13)


def test_inv_sqrt_rejects_a_stack_with_one_bad_matrix():
    good = np.eye(2, dtype=complex)
    for bad in (
        np.diag([1.0, -1.0]).astype(complex),
        np.array([[1, 1], [0, 1]], dtype=complex),
    ):
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_hpd(np.array([good, bad, good]))
    with pytest.raises(ValueError, match="finite"):
        inv_sqrt_hpd(np.array([good, np.full((2, 2), np.nan)]))
    with pytest.raises(ValueError, match="square"):
        inv_sqrt_hpd(np.ones((3, 2, 3)))


# ---------------------------------------------------------------------------
# principal_minors


def test_principal_minors_examples():
    np.testing.assert_allclose(principal_minors(np.eye(4, dtype=complex)), np.ones(4))
    np.testing.assert_allclose(
        principal_minors(np.array([[0, 1], [-1, 0]], dtype=complex)), [0.0, 1.0], atol=1e-15
    )


def test_principal_minors_first_is_the_entry_itself(rng):
    # np.linalg.det returns sign * exp(log|det|), which moves a 1 x 1
    # determinant off its entry in the last bits; the k = 1 minor is the entry
    g = complex_normal_sampler((4, 50, 3, 3)).one(rng)
    g *= 10.0 ** rng.uniform(-12, 12, (4, 50, 1, 1))
    minors = principal_minors(g)
    assert minors.shape == (4, 50, 3)
    np.testing.assert_array_equal(minors[..., 0], g[..., 0, 0])
    np.testing.assert_array_equal(principal_minors(g[..., :1, :1])[..., 0], g[..., 0, 0])
    assert principal_minors(g[1, 2])[0] == g[1, 2, 0, 0]


def test_principal_minors_against_cofactor_oracle(rng):
    for _ in range(10):
        g = complex_normal_sampler((5, 5)).one(rng)
        minors = principal_minors(g)
        for k in range(5):
            expected = det_cofactor(g[: k + 1, : k + 1])
            assert abs(minors[k] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_principal_minors_on_a_stack(rng):
    g = complex_normal_sampler((2, 3, 4, 4)).one(rng)
    minors = principal_minors(g)
    assert minors.shape == (2, 3, 4)
    for index in np.ndindex(2, 3):
        np.testing.assert_allclose(minors[index], principal_minors(g[index]), rtol=1e-14)
    with pytest.raises(ValueError):
        principal_minors(np.ones((2, 3, 4)))


def test_principal_minors_unipotent(rng):
    n = 5
    lo = np.eye(n, dtype=complex)
    lo[np.tril_indices(n, -1)] = complex_normal_sampler(10).one(rng)
    np.testing.assert_allclose(principal_minors(lo), np.ones(n), atol=1e-12)
    np.testing.assert_allclose(principal_minors(lo.conj().T), np.ones(n), atol=1e-12)


# ---------------------------------------------------------------------------
# minors from the Birkhoff pivots

# |z|^2 = (1 - 1e-9) / (1 + 1e-9) puts phi[0, 0] = (1 - |z|^2) / (1 + |z|^2)
# at 1e-9, inside the ambiguity band (1e-10, 1e-8) of the default tol
_BAND_Z = np.sqrt((1 - 1e-9) / (1 + 1e-9))


def test_pivot_minors_on_a_mixed_stack(rng):
    # top-layer cells, the exact wall cell z = 0.6 + 0.8i (phi[0, 0] = 0, a
    # lower layer) and a band cell, in one cp1 stack
    cp1 = parse_preset("cp1")
    z = np.concatenate([complex_normal_sampler(6).one(rng), [0.6 + 0.8j, _BAND_Z]])
    phi = cartan_embed(canonical_rep(z.reshape(-1, 1, 1), cp1), cp1)
    minors, ambiguous, perm, _, pivots = _pivot_minors(phi)
    np.testing.assert_array_equal(ambiguous, [False] * 7 + [True])
    assert perm[6].tolist() == [1, 0]
    # the wall and band cells keep the determinants, bit for bit
    np.testing.assert_array_equal(minors[6:], principal_minors(phi[6:]))
    # the others read their pivot products, one band cell beside them or not
    np.testing.assert_array_equal(minors[:6], np.cumprod(pivots[:6], axis=-1))
    np.testing.assert_array_equal(minors[:6], _pivot_minors(phi[:6])[0])
    assert np.any(minors[:6] != principal_minors(phi[:6]))
    np.testing.assert_allclose(minors, principal_minors(phi), rtol=0, atol=1e-15)


def test_pivot_minors_of_one_matrix(rng):
    g = special_linear_stack(4, 1, rng)[0]
    minors, ambiguous, perm, signs, pivots = _pivot_minors(g)
    assert minors.shape == (4,) and ambiguous.shape == () and not ambiguous
    assert perm == (0, 1, 2, 3) and signs == (1, 1, 1, 1)
    assert pivots.tobytes() == np.diag(birkhoff_factor(g).h).tobytes()
    np.testing.assert_array_equal(minors, np.cumprod(pivots))
    np.testing.assert_allclose(minors, principal_minors(g), rtol=1e-10)
    # a lower layer: the determinants
    w = np.array([[0, 1], [-1, 0]], dtype=complex)
    np.testing.assert_array_equal(_pivot_minors(w)[0], principal_minors(w))
    # one matrix in the band raises, as birkhoff_factor does
    cp1 = parse_preset("cp1")
    with pytest.raises(StratumAmbiguous, match="ambiguity band"):
        _pivot_minors(cartan_embed(canonical_rep(np.array([[_BAND_Z]]), cp1), cp1))


def test_pivot_minors_of_a_stack_all_in_the_band():
    cp1 = parse_preset("cp1")
    phi = cartan_embed(canonical_rep(np.full((2, 1, 1, 1), _BAND_Z + 0j), cp1), cp1)
    minors, ambiguous, perm, signs, pivots = _pivot_minors(phi)
    assert ambiguous.shape == (2, 1) and ambiguous.all()
    assert perm.shape == signs.shape == pivots.shape == phi.shape[:-1]
    np.testing.assert_array_equal(minors, principal_minors(phi))


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(["cp1", "cp2", "gr:2,2", "gr:2,3"]),
    exponent=st.floats(-150, 150),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_cartan_images_the_package_builds_are_unimodular(spec, exponent, seed):
    # the premise on which _pivot_minors takes an image unchecked: phi =
    # u theta(u)^-1 has det |det u|^2 = 1 for unitary u, to within far less
    # than the 1e-6 of the unimodular check, on chart points of any size
    preset = parse_preset(spec)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, 16, preset.n, preset.m))
    try:
        u = canonical_rep(10.0**exponent * (z[0] + 1j * z[1]), preset)
    except NotPositiveDefinite:
        # where I + z* z or I + z z* reads as singular, from |z| of about 1e7
        # on cp2 and gr:2,3, canonical_rep refuses the point: no image is built
        assert exponent > 5
        return
    phi = cartan_embed(u, preset)
    assert np.max(np.abs(np.linalg.det(phi) - 1.0)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_group_cells_of_rank_grid_are_unimodular(seed):
    # rank-grid's group:su2 cells diag(I, k*) over the unit disc, its edge
    # and centre included, as _grid_columns hands them to _pivot_minors
    rng = np.random.default_rng(seed)
    r = np.concatenate([np.sqrt(rng.uniform(size=500)), [0.0, 1.0, 1.0]])
    t = rng.uniform(0.0, 2 * np.pi, r.size)
    x, y = r * np.cos(t), r * np.sin(t)
    images = []

    def record(phi, j):
        images.append(phi)
        return _pivot_minors(phi, j)

    with mock.patch.object(cli, "_pivot_minors", record):
        cli._grid_columns(parse_preset("group:su2"), x, y)
    (phi,) = images
    # an edge cell whose |a|^2 rounds above 1 is outside, as rank-grid has it
    assert len(phi) == np.count_nonzero(x * x + y * y <= 1.0) >= r.size - 2
    assert np.max(np.abs(np.linalg.det(phi) - 1.0)) <= 1e-12


def test_pivot_minors_factor_a_stack_in_one_elimination(rng, monkeypatch):
    # a Cartan image is unimodular by construction, so _pivot_minors takes
    # it unchecked.  With J diagonal one Hermitian elimination runs over
    # the stack, and _eliminate once, on the images it leaves, the wall and
    # the band cell alone; the layer and pivots are shaped as the stack.
    # The top images' minors are LAPACK's det of the leading blocks to
    # within 2e-14 / min|h|, their layer is the identity and their pivots
    # those of birkhoff_factor to within 1e-14; the images left keep the
    # layer and pivots of birkhoff_factor on them, bit for bit
    cp1 = parse_preset("cp1")
    z = np.concatenate([complex_normal_sampler(6).one(rng), [0.6 + 0.8j, _BAND_Z]])
    phi = cartan_embed(canonical_rep(z.reshape(-1, 1, 1), cp1), cp1)
    eliminations = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a: eliminations.append(a) or eliminate(*a))
    minors, ambiguous, perm, signs, pivots = _pivot_minors(phi, _j_diagonal(cp1))
    assert len(eliminations) == 1 and eliminations[0][0].tobytes() == phi[6:].tobytes()
    assert ambiguous.tolist() == [False] * 7 + [True]
    assert perm.shape == signs.shape == pivots.shape == phi.shape[:-1]
    assert np.all(perm[:6] == [0, 1]) and np.all(signs[:6] == 1)
    h = np.abs(pivots[:6])
    gap = np.abs(minors[:6] - principal_minors(phi[:6]))
    assert np.all(gap <= 2e-14 / np.min(h, axis=-1, keepdims=True))
    top = birkhoff_factor(phi[:6])
    np.testing.assert_allclose(pivots[:6], np.diagonal(top.h, 0, -2, -1), rtol=0, atol=1e-14)
    wall = birkhoff_factor(phi[6:7])
    for a, b in ((perm, wall.perm), (signs, wall.signs), (pivots, np.diagonal(wall.h, 0, -2, -1))):
        assert a[6:7].tobytes() == b.tobytes()


@lru_cache(maxsize=None)
def _band_images(spec):
    """Three Cartan images of the preset whose smallest pivot is about 1e-9,
    inside the ambiguity band (1e-10, 1e-8) of the default tol."""
    preset = parse_preset(spec)
    rng = np.random.default_rng(3)
    return np.array([_near_wall_image(preset, rng, 1e-9) for _ in range(3)])


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(["cp1", "cp2", "gr:2,2"]),
    count=st.integers(1, 6),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_images_keep_their_slot_in_the_elimination(spec, count, picks, data, seed):
    # band images inserted anywhere in a stack leave every other image's
    # perm, h and minors as the stack without them has them, bit for bit;
    # the mask marks exactly the band images, and the message names the
    # first of them in column order, as that image alone names its entry
    preset = parse_preset(spec)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(2, count, preset.n, preset.m))
    clean = cartan_embed(canonical_rep(z[0] + 1j * z[1], preset), preset)
    band = _band_images(spec)[picks]
    size = count + len(band)
    slots = sorted(data.draw(st.sets(st.integers(0, size - 1), min_size=len(band), max_size=len(band))))
    marked = np.zeros(size, dtype=bool)
    marked[slots] = True
    phi = np.empty((size,) + clean.shape[1:], dtype=complex)
    phi[marked], phi[~marked] = band, clean

    minors, ambiguous, perm, _, pivots = _pivot_minors(phi)
    clean_minors, clean_ambiguous, clean_perm, _, clean_pivots = _pivot_minors(clean)
    assert not clean_ambiguous.any()
    np.testing.assert_array_equal(ambiguous, marked)
    assert pivots.shape == perm.shape == phi.shape[:-1]
    assert perm[~marked].tobytes() == clean_perm.tobytes()
    assert pivots[~marked].tobytes() == clean_pivots.tobytes()
    assert minors[~marked].tobytes() == clean_minors.tobytes()

    with pytest.raises(StratumAmbiguous) as info:
        birkhoff_factor(phi)
    alone = []
    for image in band:
        with pytest.raises(StratumAmbiguous) as lone:
            linalg._eliminate(image, linalg.DEFAULT_TOL)
        alone.append(str(lone.value))
    column = [int(text.split(" at (")[1].split(")")[0].split(", ")[1]) for text in alone]
    first = min(range(len(band)), key=lambda i: (column[i], slots[i]))
    head, tail = alone[first].split(" is inside")
    assert str(info.value) == f"{head} of matrix ({slots[first]},) is inside{tail}"


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["cp1", "cp2", "gr:2,2", "gr:2,3"]), seed=st.integers(0, 2**32 - 1))
def test_the_hermitian_elimination_classifies_as_eliminate_does(spec, seed):
    # near-wall images whose smallest pivot, phi[0, 0] or a later one, is
    # drawn log-uniform from 1e-6 down to 1e-16, band (1e-10, 1e-8)
    # included, or put on the wall itself: with J diagonal, _pivot_minors
    # marks the images _eliminate marks, puts the others on the layers
    # _eliminate finds, and reads minors that are LAPACK's det of the
    # leading blocks to within 2e-14 / min|h|, min|h| taken down to the
    # smallest |minor| itself.  A ray may pass near two walls at once,
    # where two pivots of 1e-4 make a minor of 1e-8 and the next pivot is
    # 1e8: every later minor then carries eps / min|minor|, on either route.
    # The two routes round a pivot apart, so one within 1e-12 of a band
    # edge may be read on either side of it; the mask is compared wherever
    # none is.  Each image alone gets the minors it gets in the stack, or
    # the refusal of the band
    preset = parse_preset(spec)
    rng = np.random.default_rng(seed)
    pivots = np.where(rng.uniform(size=6) < 0.2, 0.0, 10 ** rng.uniform(-16, -6, 6))
    phi = np.array([_near_wall_image(preset, rng, pivot) for pivot in pivots])
    j = _j_diagonal(preset)
    minors, ambiguous, perm, _, pivots = _pivot_minors(phi, j)
    ref_minors, ref_ambiguous, ref_perm, *_ = _pivot_minors(phi)
    dets = principal_minors(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.abs(np.concatenate([dets[:, :1], dets[:, 1:] / dets[:, :-1]], axis=-1))
    edges = linalg.DEFAULT_TOL * np.array([1 / AMBIGUITY_BAND, AMBIGUITY_BAND])
    near = np.any(np.abs(ratios[..., np.newaxis] / edges - 1) <= 1e-12, axis=(-2, -1))
    np.testing.assert_array_equal(ambiguous[~near], ref_ambiguous[~near])
    read = ~ambiguous & ~ref_ambiguous
    np.testing.assert_array_equal(perm[read], ref_perm[read])
    h = np.abs(np.concatenate([pivots[read], dets[read]], axis=-1))
    assert np.all(np.abs(minors[read] - dets[read]) <= 2e-14 / np.min(h, axis=-1, keepdims=True))
    for image, image_minors, marked in zip(phi, minors, ambiguous):
        if marked:
            with pytest.raises(StratumAmbiguous, match="ambiguity band"):
                _pivot_minors(image, j)
        else:
            assert _pivot_minors(image, j)[0].tobytes() == image_minors.tobytes()


def test_only_birkhoff_factor_takes_a_det(rng, monkeypatch):
    # on a top-layer Cartan stack _pivot_minors runs no det at all, and
    # birkhoff_factor runs one, LAPACK's, on one matrix, on a stack of
    # 1,024 entries and on that Cartan stack alike
    cp2 = parse_preset("cp2")
    phi = cartan_embed(canonical_rep(0.5 * rng.normal(size=(128, 2, 1)) + 0j, cp2), cp2)
    det = np.linalg.det
    dets = []

    def no_det(a):
        raise AssertionError("np.linalg.det ran")

    monkeypatch.setattr(linalg.np.linalg, "det", no_det)
    _, ambiguous, perm, *_ = _pivot_minors(phi)
    assert not ambiguous.any() and np.all(perm == np.arange(3))
    monkeypatch.setattr(linalg.np.linalg, "det", lambda a: dets.append(a) or det(a))
    for g in (special_linear_stack(4, 1, rng)[0], special_linear_stack(4, 64, rng), phi):
        dets.clear()
        birkhoff_factor(g)
        assert len(dets) == 1 and dets[0].shape == g.shape


# ---------------------------------------------------------------------------
# _cmatmul


def _complex_normals(rng, shape, scale):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


@settings(max_examples=200, deadline=None)
@given(
    shapes=hnp.mutually_broadcastable_shapes(
        signature="(m,p),(p,q)->(m,q)", min_side=0, max_side=4, max_dims=3
    ),
    views=st.booleans(),
    exponents=st.tuples(st.integers(-100, 100), st.integers(-100, 100)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cmatmul_matches_matmul(shapes, views, exponents, seed):
    # single matrices, stacks that broadcast and empty stacks; with views,
    # each operand is the non-contiguous x.mT.conj() of a stored x.  Each
    # entry of either product is within 2 p eps |a row| |b column| of exact
    rng = np.random.default_rng(seed)

    def operand(shape, exponent):
        if views:
            stored = _complex_normals(rng, shape[:-2] + shape[:-3:-1], 10.0**exponent)
            return stored.mT.conj()
        return _complex_normals(rng, shape, 10.0**exponent)

    a, b = (operand(s, e) for s, e in zip(shapes.input_shapes, exponents))
    expected = a @ b
    got = linalg._cmatmul(a, b)
    assert got.dtype == complex and got.shape == expected.shape
    rows = np.linalg.norm(a, axis=-1)[..., np.newaxis]
    columns = np.linalg.norm(b, axis=-2)[..., np.newaxis, :]
    bound = 4 * a.shape[-1] * np.finfo(float).eps * rows * columns
    assert np.all(np.abs(got - expected) <= bound)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(1, 6),
    sides=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_cmatmul_of_one_matrix_is_its_product_inside_a_stack(count, sides, seed):
    # every input takes the one real GEMM, so a matrix alone, or a stack
    # broadcast as (k, 1, m, p) against (k, p, q), gives the same bits
    rng = np.random.default_rng(seed)
    m, p, q = sides
    a = _complex_normals(rng, (count, m, p), 1.0)
    b = _complex_normals(rng, (count, p, q), 1.0)
    stacked = linalg._cmatmul(a, b)
    crossed = linalg._cmatmul(a[:, np.newaxis], b)
    for i in range(count):
        assert np.array_equal(linalg._cmatmul(a[i], b[i]), stacked[i])
        assert np.array_equal(crossed[i, i], stacked[i])
        assert np.array_equal(linalg._cmatmul(a[i], b), crossed[i])
