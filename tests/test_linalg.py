import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_poisson import (
    NotPositiveDefinite,
    SingularInput,
    StratumAmbiguous,
    birkhoff_factor,
    inv_sqrt_hpd,
    iwasawa_factor,
    principal_minors,
)
from birkhoff_poisson.linalg import AMBIGUITY_BAND, max_principal_angle, signed_permutation_matrix
from birkhoff_poisson.symspace import canonical_rep, cartan_embed, parse_preset
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


def test_max_principal_angle_basics():
    a = np.array([[1.0], [0.0], [0.0]])
    b = np.array([[0.0], [1.0], [0.0]])
    assert max_principal_angle(a, b) == pytest.approx(np.pi / 2)
    c = np.array([[1.0, 0.0], [0.0, np.cos(0.3)], [0.0, np.sin(0.3)]])
    d = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert max_principal_angle(c, d) == pytest.approx(0.3, abs=1e-12)
    with pytest.raises(ValueError):
        max_principal_angle(a, np.hstack([b, a]))


def test_max_principal_angle_on_a_stack_matches_per_pair_calls(rng):
    # pairs of ranks 0, 1 and 2 in one stack, angles on both sides of pi/4
    # (the cosine and the sine branch)
    a = rng.standard_normal((6, 4, 3)) + 1j * rng.standard_normal((6, 4, 3))
    b = a + 0.05 * rng.standard_normal((6, 4, 3))
    b[1] = rng.standard_normal((4, 3))
    for index, rank in ((2, 1), (3, 1), (4, 0)):
        a[index, :, rank:] = 0.0
        b[index, :, rank:] = 0.0
    angles = max_principal_angle(a, b)
    assert angles.shape == (6,)
    assert angles[4] == 0.0 and angles[1] > np.pi / 4 > angles[0] > 0.0
    for index in range(6):
        assert angles[index] == max_principal_angle(a[index], b[index])
    b[5, :, 2] = 0.0
    with pytest.raises(ValueError):
        max_principal_angle(a, b)
