"""Birkhoff-layer classification of coset points, the symmetric leaf
factorization, the acting sub-torus of a layer, and the projected
noncompact-orbit directions that span a leaf.

The Cartan image of a coset point, diag(g, g*) with g = k1 k2* in the group
case, is factored with the structural permuted LDU, one path for both
families; the signed permutation identifies the layer.  ``leaf_factorize``
takes the image itself, so a caller that already holds phi does not build it
again, and returns its ``BirkhoffFactors`` once ``_check_leaf_symmetry`` has
held them to phi* = theta(phi); a violation signals a factorization or preset
bug and is raised, never repaired.  ``moment`` runs the two steps with its
top-layer guard between them.  log |h| is read off the diagonal of h.  The
torus of layer W is the fixed space of Ad(W) o theta on the purely imaginary
traceless diagonals.  ``orbit_direction_span`` reaches the leaf's tangent
directions apart from the Hilbert transform, through ``lie.proj_u``; it
equals the bivector's matrix ``poisson.matrix_of_omega`` entry by entry,
which the ``leaf-tangency`` check of ``verify`` compares.
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


def leaf_factorize(phi, preset: SymmetricSpacePreset) -> BirkhoffFactors:
    """Factor a Cartan image phi = ``cartan_embed(u)``, or each image of a
    stack (..., d, d), as l @ W @ h @ theta(l*): the Birkhoff factors at
    ``DEFAULT_TOL``, checked by ``_check_leaf_symmetry``."""
    factors = birkhoff_factor(phi)
    _check_leaf_symmetry(phi, factors, preset)
    return factors


def _check_leaf_symmetry(phi, factors: BirkhoffFactors, preset: SymmetricSpacePreset) -> None:
    """Raise SymmetryViolation unless the factors of phi have u_plus =
    theta(l*) and theta(W* h W) = h*, to within DEFAULT_TOL * max(1, |phi|)."""
    bound = DEFAULT_TOL * np.maximum(1.0, np.linalg.norm(phi, axis=(-2, -1)))
    w, h, l_star = factors.w_matrix, factors.h, factors.l.mT.conj()
    for what, defect in (
        ("upper factor differs from theta(l*)", factors.u_plus - theta_g(l_star, preset)),
        ("diagonal factor fails the layer membership identity",
         theta_g(w.mT.conj() @ h @ w, preset) - h.mT.conj()),
    ):
        size = np.linalg.norm(defect, axis=(-2, -1))
        if np.any(size > bound):
            raise SymmetryViolation(f"{what} by {np.max(size):.3e}")


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
