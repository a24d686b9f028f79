"""Birkhoff-layer classification of coset points, the symmetric leaf
factorization, the acting sub-torus of a layer, and the enumeration of
top-layer components in the inner case.

The Cartan image of a coset point is factored with the structural permuted
LDU; the signed permutation identifies the layer.  On a successful
factorization the upper unipotent factor must equal the involution applied to
the conjugate transpose of the lower one (the factor-level restatement of
phi* = theta(phi)); a violation signals a factorization or preset bug and is
raised, never repaired.  The leaf factorization is therefore the
``BirkhoffFactors`` of the Cartan image, returned once both checks pass;
log |h| is read off the diagonal of h.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import DimensionGuard, SymmetryViolation
from .lie import proj_u
from .linalg import BirkhoffFactors, birkhoff_factor, signed_permutation_matrix
from .symspace import (
    SymmetricSpacePreset,
    adjoint_act,
    cartan_embed,
    elem_real_inner,
    ip_basis,
    layer_image,
    project_ip,
    theta_g,
    torus_basis,
)

SignedPermutation = tuple[tuple[int, ...], tuple[int, ...]]

_NULLSPACE_TOL = 1e-10


def birkhoff_layer(u, preset: SymmetricSpacePreset, tol: float = 1e-9) -> SignedPermutation:
    """Signed permutation indexing the Birkhoff layer through the point."""
    factors = birkhoff_factor(layer_image(u, preset), tol)
    return factors.perm, factors.signs


def leaf_factorize(u, preset: SymmetricSpacePreset, tol: float = 1e-9) -> BirkhoffFactors:
    """Factor the Cartan image of a Grassmannian-family point, or of each
    point of a stack (..., d, d), as l @ W @ h @ theta(l*): the Birkhoff
    factors, checked to have the upper factor u_plus = theta(l*)."""
    return _factor_image(cartan_embed(u, preset), preset, tol)


def _factor_image(phi: np.ndarray, preset: SymmetricSpacePreset, tol: float) -> BirkhoffFactors:
    """The leaf factorization of an already built Cartan image phi."""
    if not preset.is_inner:
        raise ValueError(
            "leaf factorization applies to the Grassmannian family; classify "
            "group-case points through their single-factor image instead"
        )
    factors = birkhoff_factor(phi, tol)
    bound = max(tol, 1e-9) * np.maximum(1.0, np.linalg.norm(phi, axis=(-2, -1)))
    expected_upper = theta_g(factors.l.mT.conj(), preset)
    sym_defect = np.linalg.norm(factors.u_plus - expected_upper, axis=(-2, -1))
    if np.any(sym_defect > bound):
        raise SymmetryViolation(
            f"upper factor differs from theta(l*) by {np.max(sym_defect):.3e}"
        )
    w = factors.w_matrix
    membership_defect = np.linalg.norm(
        theta_g(w.mT.conj() @ factors.h @ w, preset) - factors.h.mT.conj(), axis=(-2, -1)
    )
    if np.any(membership_defect > bound):
        raise SymmetryViolation(
            "diagonal factor fails the layer membership identity by "
            f"{np.max(membership_defect):.3e}"
        )
    return factors


def torus_tw(w: SignedPermutation, preset: SymmetricSpacePreset) -> tuple[np.ndarray, ...]:
    """Basis of the fixed subspace of Ad(W) o theta on the purely imaginary
    traceless diagonals, via the nullspace of the operator minus the identity,
    scaled to unit peak entries; cached per layer and preset, read-only."""
    if not preset.is_inner:
        raise ValueError("the layer torus is computed for the Grassmannian family")
    perm, signs = w
    return _torus_tw(tuple(perm), tuple(signs), preset)


@lru_cache(maxsize=256)
def _torus_tw(perm: tuple[int, ...], signs: tuple[int, ...], preset: SymmetricSpacePreset):
    w_mat = signed_permutation_matrix(perm, signs)
    basis = torus_basis(preset.matrix_dim)
    dim = len(basis)
    op = np.zeros((dim, dim))
    for r, xi in enumerate(basis):
        moved = w_mat @ theta_g(xi, preset) @ w_mat.conj().T
        for s, eta in enumerate(basis):
            op[s, r] = elem_real_inner(eta, moved)
    _, svals, vt = np.linalg.svd(op - np.eye(dim))
    keep = int(np.sum(svals > _NULLSPACE_TOL))
    null_vectors = vt[keep:]
    out = []
    for vec in null_vectors:
        xi = sum(c * b for c, b in zip(vec, basis))
        diag = np.imag(np.diag(xi))
        # scale to unit peak entry, sign fixed by the first nonzero entry
        peak = np.max(np.abs(diag))
        lead = diag[np.nonzero(np.abs(diag) > 1e-12 * peak)[0][0]]
        xi = xi * (np.sign(lead) / peak)
        xi.setflags(write=False)
        out.append(xi)
    return tuple(out)


def order_two_torus_elements(preset: SymmetricSpacePreset, guard: int = 12) -> list[np.ndarray]:
    """Diagonal sign matrices indexing the top-layer components in the inner
    case: patterns with equally many -1 entries in the two involution blocks
    (exactly the order-two torus points lying on the embedded space)."""
    if not preset.is_inner:
        raise ValueError("component enumeration applies to inner presets only")
    dim = preset.matrix_dim
    if dim > guard:
        raise DimensionGuard(f"dimension {dim} exceeds the enumeration guard {guard}")
    out = []
    for pattern in itertools.product((1.0, -1.0), repeat=dim):
        eps = np.array(pattern)
        if np.sum(eps[: preset.m] < 0) == np.sum(eps[preset.m:] < 0):
            out.append(np.diag(eps.astype(complex)))
    return out


def orbit_direction_span(u, preset: SymmetricSpacePreset) -> np.ndarray:
    """Coordinates of the projected noncompact-orbit directions at u, or at
    each point of a stack (..., d, d), computed through the compact-form
    projection instead of the Hilbert transform."""
    basis = ip_basis(preset)
    u = np.asarray(u)[..., np.newaxis, :, :]
    moved = proj_u(1j * adjoint_act(u, basis))
    projected = project_ip(u.mT.conj() @ moved @ u, preset)
    return np.einsum("sij,...rij->...sr", basis.conj(), projected).real
