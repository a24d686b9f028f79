"""Birkhoff-layer classification of coset points, the symmetric leaf
factorization, the acting sub-torus of a layer, and the projected
noncompact-orbit directions that span a leaf.

The Cartan image of a coset point, diag(g, g*) with g = k1 k2* in the group
case, is factored with the structural permuted LDU, one path for both
families; the signed permutation identifies the layer.  ``leaf_factorize``
is the one entry to the leaf factorization, and it takes the image itself,
so a caller that already holds phi does not build it again.  On a successful
factorization the upper unipotent factor must equal the involution applied to
the conjugate transpose of the lower one (the factor-level restatement of
phi* = theta(phi)); a violation signals a factorization or preset bug and is
raised, never repaired.  The leaf factorization is therefore the
``BirkhoffFactors`` of the Cartan image, returned once both checks pass;
log |h| is read off the diagonal of h.  The torus of layer W is the fixed
space of Ad(W) o theta on the purely imaginary traceless diagonals.
``orbit_direction_span`` reaches the leaf's tangent directions apart from
the Hilbert transform, through ``lie.proj_u``; it equals the bivector's
matrix ``poisson.matrix_of_omega`` entry by entry, which the
``leaf-tangency`` check of ``verify`` compares.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import SymmetryViolation
from .lie import proj_u
from .linalg import DEFAULT_TOL, BirkhoffFactors, birkhoff_factor
from .symspace import (
    SymmetricSpacePreset,
    adjoint_act,
    cartan_embed,
    ip_basis,
    project_ip,
    theta_g,
)

SignedPermutation = tuple[tuple[int, ...], tuple[int, ...]]


def birkhoff_layer(u, preset: SymmetricSpacePreset, tol: float = DEFAULT_TOL) -> SignedPermutation:
    """Signed permutation indexing the Birkhoff layer through the point."""
    factors = birkhoff_factor(cartan_embed(u, preset), tol)
    return factors.perm, factors.signs


def leaf_factorize(phi, preset: SymmetricSpacePreset, tol: float = DEFAULT_TOL) -> BirkhoffFactors:
    """Factor a Cartan image phi = ``cartan_embed(u)``, or each image of a
    stack (..., d, d), as l @ W @ h @ theta(l*): the Birkhoff factors, checked
    to have the upper factor u_plus = theta(l*)."""
    factors = birkhoff_factor(phi, tol)
    bound = max(tol, DEFAULT_TOL) * np.maximum(1.0, np.linalg.norm(phi, axis=(-2, -1)))
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

    The fixed diagonals are those constant on each cycle of perm[sigma]
    (``_torus_cycles``).  With the cycles c_0, c_1, ... ordered by their
    smallest index, element l - 1 is |c_l| on c_0 u ... u c_(l-1) and
    -|c_0 u ... u c_(l-1)| on c_l, scaled to unit peak entry."""
    perm, _ = w
    return _torus_tw(tuple(_torus_cycles(perm, preset).tolist()))


def _torus_cycles(perm, preset: SymmetricSpacePreset) -> np.ndarray:
    """perm[sigma] for a permutation or an array (..., d) of them, sigma the
    index permutation of theta (the identity for Grassmannians, the block
    swap in the group case): Ad(W) o theta moves entry i of a diagonal to
    perm[sigma[i]], so it fixes the diagonals constant on these cycles."""
    (rows, _), _ = preset.theta_index_mask
    return np.asarray(perm)[..., rows[:, 0]]


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
    projection instead of the Hilbert transform.

    Column r is the direction of the odd basis element e_r, and it is the
    image of e_r under the bivector's anchor map: the result equals
    ``poisson.matrix_of_omega(u, preset)`` entry by entry, so the leaf
    through u is tangent to the projected orbit there."""
    basis = ip_basis(preset)
    u = np.asarray(u)[..., np.newaxis, :, :]
    moved = proj_u(1j * adjoint_act(u, basis))
    projected = project_ip(u.mT.conj() @ moved @ u, preset)
    return np.einsum("sij,...rij->...sr", basis.conj(), projected).real
