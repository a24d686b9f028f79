"""Momentum map of the layer-torus action on symplectic leaves.

The momentum of a torus direction X at a coset point of either family is
read off the triangular factorization of the Cartan image: half the
invariant pairing of i theta(log |h|) against X, with h the diagonal factor
of the checked Birkhoff factorization ``strata.leaf_factorize`` returns for
the Cartan image.  ``leaf_moment`` reads the diagonal of h alone, so
``moment`` hands it the pivots of ``linalg._pivot_minors``.
The Hamiltonian property is checked honestly: the differential of the
momentum function is taken by central finite differences of step
``poisson.FD_STEP`` along group-exponential curves, pushed through the
bivector's anchor map (``omega_apply``, which validates it as an odd
element), and compared with the action vector field.  The 2 dim_ip
perturbed points of the stencil of every point of a stack are factored as
one stack, once, and every torus direction is read from the same log |h|.
Both functions factor at the package's one threshold ``linalg.DEFAULT_TOL``;
neither takes a threshold or a step.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidTangent
from .poisson import FD_STEP, omega_apply
from .strata import _torus_cycles, leaf_factorize
from .symspace import (
    SymmetricSpacePreset,
    cartan_embed,
    ip_basis,
    project_ip,
    theta_g,
    unitary_exp,
)

_TORUS_TOL = 1e-8


def _check_torus_direction(x: np.ndarray, perm, preset: SymmetricSpacePreset) -> None:
    """Raise unless x lies in the layer torus of perm, or of every
    permutation of an array (..., n) of them: a purely imaginary traceless
    diagonal fixed by Ad(W) o theta (``strata._torus_cycles``)."""
    x = np.asarray(x, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(x)))
    off = x - np.diag(np.diag(x))
    if (
        np.linalg.norm(off) > _TORUS_TOL * scale
        or np.linalg.norm(np.real(np.diag(x))) > _TORUS_TOL * scale
        or abs(np.trace(x)) > _TORUS_TOL * scale
    ):
        raise InvalidTangent("torus directions are purely imaginary traceless diagonals")
    d = np.imag(np.diag(x))
    moved = d[_torus_cycles(perm, preset)]
    if np.max(np.linalg.norm(moved - d, axis=-1)) > _TORUS_TOL * scale:
        raise InvalidTangent("direction is not constant on the cycles of perm[sigma] of the layer")


def leaf_moment(h, x: np.ndarray, preset: SymmetricSpacePreset):
    """<(1/2) i theta(log|h|), x> from the diagonal h (..., d) of the diagonal
    factor of a leaf factorization; a stack of diagonals or of directions x
    gives the stack of values."""
    h = np.asarray(h)
    log_h = np.zeros(h.shape + h.shape[-1:], dtype=complex)
    idx = np.arange(h.shape[-1])
    log_h[..., idx, idx] = np.log(np.abs(h))
    val = np.trace(0.5j * theta_g(log_h, preset) @ x, axis1=-2, axis2=-1)
    return val.real if np.ndim(val) else float(val.real)


def moment_eval(u, x: np.ndarray, preset: SymmetricSpacePreset):
    """Momentum of torus direction x at the coset point u, or at each point
    of a stack (..., d, d): <(1/2) i theta(log|h|), x> with h from the leaf
    factorization.  x is checked against the layer permutation of every point."""
    lf = leaf_factorize(cartan_embed(u, preset), preset)
    _check_torus_direction(x, lf.perm, preset)
    return leaf_moment(np.diagonal(lf.h, 0, -2, -1), np.asarray(x, dtype=complex), preset)


def torus_vector_field(u, x: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """Vector field of the torus action at u, as the odd anti-Hermitian
    representative at u: minus the projected down-conjugated direction.
    u and x may be stacks that broadcast."""
    u = np.asarray(u)
    down = u.mT.conj() @ np.asarray(x, dtype=complex) @ u
    return -project_ip(down, preset)


def hamiltonian_residual(u, x: np.ndarray, preset: SymmetricSpacePreset):
    """Norm of (anchor map applied to d mu_x) minus the action field at u.

    d mu_x is assembled from central finite differences of the momentum along
    exponential curves over an orthonormal basis of the odd subspace; the
    trace-form representative picks up a sign because the form is negative
    definite there.

    u is one point (d, d) or a stack (..., d, d), and x one torus direction
    (d, d) or a stack (T, d, d) of them; the result is a float, or has shape
    (...), (T) or (..., T).  The stencil of every point is factored once and
    each direction is checked against the layer permutation of every stencil
    point.
    """
    u = np.asarray(u, dtype=complex)
    x = np.asarray(x, dtype=complex)
    xs = x.reshape((-1,) + x.shape[-2:])
    basis = ip_basis(preset)
    steps = unitary_exp(np.stack([FD_STEP * basis, -FD_STEP * basis]))
    # stencil[..., side, r, 0]: the point moved by exp(+-FD_STEP e_r)
    stencil = u[..., np.newaxis, np.newaxis, np.newaxis, :, :] @ steps[:, :, np.newaxis]
    lf = leaf_factorize(cartan_embed(stencil, preset), preset)
    for x_t in xs:
        _check_torus_direction(x_t, lf.perm, preset)
    # values[..., side, r, t]: momentum of direction t at stencil[..., side, r, 0]
    values = leaf_moment(np.diagonal(lf.h, 0, -2, -1), xs, preset)
    coeffs = -(values[..., 0, :, :] - values[..., 1, :, :]) / (2.0 * FD_STEP)
    dmu = np.einsum("...rt,rij->...tij", coeffs, basis)
    u = u[..., np.newaxis, :, :]
    sharp = omega_apply(u, dmu, preset)
    residual = np.linalg.norm(sharp - torus_vector_field(u, xs, preset), axis=(-2, -1))
    if x.ndim == 2:
        residual = residual[..., 0]
    return residual if np.ndim(residual) else float(residual)
