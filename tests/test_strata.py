import dataclasses
import itertools

import numpy as np
import pytest

from birkhoff_poisson import (
    BirkhoffFactors,
    SymmetryViolation,
    birkhoff_factor,
    birkhoff_layer,
    canonical_rep,
    cartan_embed,
    leaf_factorize,
    theta_g,
    torus_tw,
)
from birkhoff_poisson.linalg import signed_permutation_matrix
from birkhoff_poisson.poisson import matrix_of_omega
from birkhoff_poisson.sampling import random_point, special_unitary_sampler
from birkhoff_poisson.strata import _check_leaf_symmetry, orbit_direction_span
from birkhoff_poisson.symspace import block_diag, grassmannian, parse_preset, torus_basis


def doolittle_ldu(a):
    """Independent textbook LDU elimination oracle (no pivoting)."""
    n = a.shape[0]
    m = a.astype(complex).copy()
    lo = np.eye(n, dtype=complex)
    for j in range(n):
        for i in range(j + 1, n):
            lo[i, j] = m[i, j] / m[j, j]
            m[i, :] = m[i, :] - lo[i, j] * m[j, :]
    d = np.diag(m).copy()
    up = m / d[:, np.newaxis]
    return lo, np.diag(d), up


def test_layer_identity_point(cp1):
    perm, signs = birkhoff_layer(np.eye(2, dtype=complex), cp1)
    assert perm == (0, 1)


@pytest.mark.parametrize("z,expect_identity", [(0.5 + 0.2j, True), (1.7 - 0.4j, True)])
def test_layer_off_equator(z, expect_identity, cp1):
    u = canonical_rep(np.array([[z]]), cp1)
    perm, _ = birkhoff_layer(u, cp1)
    assert (perm == (0, 1)) == expect_identity


def test_layer_on_equator(cp1):
    for t in (0.0, 0.77, 2.4):
        u = canonical_rep(np.array([[np.exp(1j * t)]]), cp1)
        perm, _ = birkhoff_layer(u, cp1)
        assert perm == (1, 0)


def test_layer_group_case(rng, group2):
    k = special_unitary_sampler(2).one(rng)
    perm, _ = birkhoff_layer(block_diag(k, k), group2)
    assert perm == (0, 1, 2, 3)  # identity coset sits in the open stratum


@pytest.mark.parametrize("spec", ["group:su2", "group:su3"])
def test_group_layer_extends_the_single_factor_layer(spec, rng):
    # the Cartan image of diag(k1, k2) is diag(g, g*) with g = k1 k2*, and
    # the leading minors of its first block are those of g
    preset = parse_preset(spec)
    n = preset.n
    for _ in range(50):
        u = random_point(preset, rng)
        perm, _ = birkhoff_layer(u, preset)
        single = birkhoff_factor(u[:n, :n] @ u[n:, n:].conj().T)
        assert perm[:n] == single.perm


def test_leaf_factorize_identity(cp1):
    lf = leaf_factorize(cartan_embed(np.eye(2, dtype=complex), cp1), cp1)
    np.testing.assert_allclose(lf.l, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(lf.h, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(np.log(np.abs(np.diagonal(lf.h))), np.zeros(2), atol=1e-14)


def test_leaf_factorize_cp1_against_elimination_oracle(cp1):
    z = 0.4 + 0.3j
    u = canonical_rep(np.array([[z]]), cp1)
    phi = cartan_embed(u, cp1)
    lf = leaf_factorize(phi, cp1)
    d = (1 - abs(z) ** 2) / (1 + abs(z) ** 2)
    np.testing.assert_allclose(np.diag(lf.h), [d, 1 / d], atol=1e-12)
    lo, dd, up = doolittle_ldu(phi)
    np.testing.assert_allclose(lf.l, lo, atol=1e-12)
    np.testing.assert_allclose(lf.h, dd, atol=1e-12)


@pytest.mark.parametrize("preset_name", ["cp1", "cp2", "gr22", "group2"])
def test_leaf_factorize_roundtrip_and_symmetry(preset_name, rng, request):
    preset = request.getfixturevalue(preset_name)
    for _ in range(50):
        u = random_point(preset, rng)
        phi = cartan_embed(u, preset)
        lf = leaf_factorize(phi, preset)
        upper = theta_g(lf.l.conj().T, preset)
        recon = lf.l @ lf.w_matrix @ lf.h @ upper
        assert np.linalg.norm(recon - phi) <= 1e-9 * np.linalg.norm(phi)
        # the leaf factorization is the Birkhoff factorization of phi
        assert isinstance(lf, BirkhoffFactors)
        assert np.linalg.norm(lf.reconstruct() - phi) <= 1e-9 * np.linalg.norm(phi)
        # h is diagonal, and log|diag h| is trace-free
        np.testing.assert_array_equal(lf.h, np.diag(np.diagonal(lf.h)))
        assert abs(np.sum(np.log(np.abs(np.diagonal(lf.h))))) <= 1e-10


def test_leaf_factorize_nontrivial_layer(cp1):
    # the equator sits in the transposition layer yet still factors symmetrically
    u = canonical_rep(np.array([[np.exp(0.3j)]]), cp1)
    lf = leaf_factorize(cartan_embed(u, cp1), cp1)
    assert lf.perm == (1, 0)
    np.testing.assert_allclose(np.abs(np.diag(lf.h)), [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(np.log(np.abs(np.diagonal(lf.h))), np.zeros(2), atol=1e-12)


def test_leaf_symmetry_check_names_the_identity_that_fails(cp1, cp2):
    # the exact cp2 wall z = (0.6, 0.8i) factors on a lower layer whose upper
    # factor is not theta(l*); interior factors with h turned imaginary keep
    # that identity and fail the layer membership of h alone
    phi = cartan_embed(canonical_rep(np.array([[0.6], [0.8j]]), cp2), cp2)
    with pytest.raises(SymmetryViolation, match="upper factor differs from theta"):
        leaf_factorize(phi, cp2)
    phi = cartan_embed(canonical_rep(np.array([[0.4 + 0.3j]]), cp1), cp1)
    factors = birkhoff_factor(phi)
    _check_leaf_symmetry(phi, factors, cp1)
    with pytest.raises(SymmetryViolation, match="fails the layer membership identity"):
        _check_leaf_symmetry(phi, dataclasses.replace(factors, h=1j * factors.h), cp1)


def test_torus_tw_dimensions(cp1, cp2):
    # identity layer: the whole torus acts
    assert len(torus_tw((0, 1), cp1)) == 1
    assert len(torus_tw((0, 1, 2), cp2)) == 2
    # transposition layer of the projective line: trivial torus
    assert len(torus_tw((1, 0), cp1)) == 0


def test_torus_tw_is_cached_and_read_only(cp2):
    basis = torus_tw((0, 1, 2), cp2)
    assert isinstance(basis, tuple)
    # a permutation given as a list or an array hits the same cache entry
    assert torus_tw([0, 1, 2], cp2) is basis
    assert torus_tw(np.arange(3), cp2) is basis
    with pytest.raises(ValueError):
        basis[0][0, 0] = 0.0


@pytest.mark.parametrize(
    "perm",
    [(0, 0, 1), (0, 1), (0, 1, 2, 3), (1.0, 0.0, 2.0), (0.0, 1.0, 2.0), (True, False, 2)],
)
def test_torus_tw_refuses_what_is_not_a_permutation(perm, cp2):
    # (0, 0, 1) has a "cycle" that never closes, (0, 1) is too short and
    # (0, 1, 2, 3) too long for the 3 x 3 matrices of cp2; a float
    # permutation, the identity too, and bools, which would read as 1 and
    # 0, are not of an integer dtype
    with pytest.raises(ValueError, match="permutation of 0..2"):
        torus_tw(perm, cp2)


def test_torus_tw_cp1_span(cp1):
    basis = torus_tw((0, 1), cp1)
    np.testing.assert_allclose(basis[0], np.diag([1j, -1j]), atol=1e-12)


def svd_torus_reference(perm, signs, preset):
    """Reference for the layer torus: the SVD nullspace of Ad(W) o theta
    minus the identity on the orthonormal torus basis, as the imaginary
    diagonals (k, n) of an orthonormal basis of the fixed subspace."""
    basis = np.array(torus_basis(preset.matrix_dim))
    w = signed_permutation_matrix(perm, signs)
    moved = w @ theta_g(basis, preset) @ w.conj().T
    op = np.einsum("sij,rij->sr", basis.conj(), moved).real
    _, svals, vt = np.linalg.svd(op - np.eye(len(basis)))
    null = vt[int(np.sum(svals > 1e-10)):]
    return np.einsum("kr,rii->ki", null, basis).imag


def cycle_count(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        count += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return count


def det_one_signs(perm):
    """All +1 but the last, which makes det(W) = +1."""
    parity = (len(perm) - cycle_count(perm)) % 2
    return (1,) * (len(perm) - 1) + ((-1) ** parity,)


def assert_same_span(a, b):
    # every row of a is a combination of the rows of b
    coeffs, *_ = np.linalg.lstsq(b.T, a.T, rcond=None)
    assert np.max(np.abs(b.T @ coeffs - a.T)) <= 1e-12


def test_torus_tw_matches_cycle_count_oracle():
    # fixed vectors of Ad(W) o theta are constant on the cycles of
    # perm[sigma], sigma the index permutation of theta (the identity for
    # Grassmannians, the block swap in the group case): dimension =
    # (#cycles) - 1, and the span is the reference's on every permutation
    for spec in ("cp1", "cp2", "gr:2,2", "gr:2,3", "group:su2", "group:su3"):
        preset = parse_preset(spec)
        d = preset.matrix_dim
        sigma = np.roll(np.arange(d), d // 2) if spec.startswith("group") else np.arange(d)
        for perm in itertools.permutations(range(d)):
            signs = det_one_signs(perm)
            basis = torus_tw(perm, preset)
            assert len(basis) == cycle_count(np.array(perm)[sigma]) - 1
            if not basis:
                continue
            diags = np.array([np.diag(xi).imag for xi in basis])
            reference = svd_torus_reference(perm, signs, preset)
            assert_same_span(diags, reference)
            assert_same_span(reference, diags)
            # Ad(W) cancels the signs of W on diagonals: each W of perm fixes the basis
            for w in (signed_permutation_matrix(perm, s) for s in (signs, (1,) * d)):
                for xi in basis:
                    fixed = w @ theta_g(xi, preset) @ w.conj().T
                    np.testing.assert_allclose(fixed, xi, rtol=0, atol=1e-15)


def test_torus_tw_exact_bases(cp2):
    gr23 = grassmannian(2, 3)
    top = torus_tw(tuple(range(5)), gr23)
    expected = [
        [1, -1, 0, 0, 0],
        [1 / 2, 1 / 2, -1, 0, 0],
        [1 / 3, 1 / 3, 1 / 3, -1, 0],
        [1 / 4, 1 / 4, 1 / 4, 1 / 4, -1],
    ]
    np.testing.assert_array_equal(top, [np.diag(1j * np.array(d)) for d in expected])
    # a 2-cycle after a fixed point: the raw element [2, -1, -1] at unit peak
    (xi,) = torus_tw((0, 2, 1), cp2)
    np.testing.assert_array_equal(xi, np.diag([1j, -0.5j, -0.5j]))


@pytest.mark.parametrize("preset_name", ["cp1", "cp2", "gr22"])
def test_leaf_tangency(preset_name, rng, request):
    # the anchor-map image of each odd basis element is its projected orbit
    # direction: the two matrices agree entry by entry, not only in span
    preset = request.getfixturevalue(preset_name)
    for _ in range(20):
        u = random_point(preset, rng)
        np.testing.assert_allclose(
            orbit_direction_span(u, preset), matrix_of_omega(u, preset), rtol=0, atol=1e-14
        )
