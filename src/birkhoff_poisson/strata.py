"""Birkhoff-layer classification of coset points, the symmetric leaf
factorization, the acting sub-torus of a layer, and the projected
noncompact-orbit directions that span a leaf.

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

from functools import lru_cache

import numpy as np

from .errors import SymmetryViolation
from .lie import proj_u
from .linalg import BirkhoffFactors, birkhoff_factor
from .symspace import (
    SymmetricSpacePreset,
    adjoint_act,
    cartan_embed,
    ip_basis,
    layer_image,
    project_ip,
    theta_g,
)

SignedPermutation = tuple[tuple[int, ...], tuple[int, ...]]


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
    traceless diagonals; cached per permutation, read-only.

    theta fixes every diagonal in the Grassmannian family and Ad(W) permutes
    the diagonal by the cycles of W, so the fixed diagonals are those constant
    on each cycle.  With the cycles c_0, c_1, ... ordered by their smallest
    index, element l - 1 is |c_l| on c_0 u ... u c_(l-1) and -|c_0 u ... u
    c_(l-1)| on c_l, scaled to unit peak entry."""
    if not preset.is_inner:
        raise ValueError("the layer torus is computed for the Grassmannian family")
    perm, _ = w
    return _torus_tw(tuple(perm))


@lru_cache(maxsize=256)
def _torus_tw(perm: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    earlier: list[int] = []
    out = []
    for start in range(len(perm)):
        if start in earlier:
            continue
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        if earlier:
            diag = np.zeros(len(perm), dtype=complex)
            peak = max(len(cycle), len(earlier))
            diag.imag[earlier] = len(cycle) / peak
            diag.imag[cycle] = -len(earlier) / peak
            xi = np.diag(diag)
            xi.setflags(write=False)
            out.append(xi)
        earlier.extend(cycle)
    return tuple(out)


def orbit_direction_span(u, preset: SymmetricSpacePreset) -> np.ndarray:
    """Coordinates of the projected noncompact-orbit directions at u, or at
    each point of a stack (..., d, d), computed through the compact-form
    projection instead of the Hilbert transform."""
    basis = ip_basis(preset)
    u = np.asarray(u)[..., np.newaxis, :, :]
    moved = proj_u(1j * adjoint_act(u, basis))
    projected = project_ip(u.mT.conj() @ moved @ u, preset)
    return np.einsum("sij,...rij->...sr", basis.conj(), projected).real
