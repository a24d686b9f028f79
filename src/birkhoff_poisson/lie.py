"""Triangular splitting of sl(n, C), the Hilbert transform and the invariant
trace form.

The triangular decomposition is the standard one: strictly lower triangular
matrices, traceless diagonals, strictly upper triangular matrices.  The
compact form consists of the anti-Hermitian traceless matrices; the Cartan
involution -(.)* swaps the strict triangles, which is what makes the
decomposition compatible with it.  Every function also acts on stacks
(..., n, n), matrix by matrix, with one traceless check over the whole stack;
``trace_form`` returns one value per pair of matrices.

The traceless check passes a matrix z when |tr z| <= TRACELESS_TOL *
max(1, ||z||_F), and refuses it otherwise; nothing re-centres z.  It reads
the traces of the stack in one ``einsum`` pass, and it computes the
Frobenius norms only when some |tr z| exceeds TRACELESS_TOL, the least the
bound can be.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

TRACELESS_TOL = 1e-10


def _check_traceless(z: np.ndarray) -> None:
    """Hard error if the trace of z, or of any matrix of a stack, exceeds
    TRACELESS_TOL * max(1, ||z||_F) in modulus.  The traces are read in one
    ``einsum`` pass; the bound is at least TRACELESS_TOL, so the Frobenius
    norms are computed only when some |tr| exceeds TRACELESS_TOL itself."""
    tr = np.abs(np.einsum("...ii->...", z))
    if not np.any(tr > TRACELESS_TOL):
        return
    # Frobenius norms from the real and imaginary views, without temporaries
    norms = np.sqrt(sum(np.einsum("...ij,...ij->...", part, part) for part in (z.real, z.imag)))
    over = tr - TRACELESS_TOL * np.maximum(1.0, norms)
    if np.any(over > 0):
        raise ValueError(f"matrix is not traceless, |tr| = {tr.flat[np.argmax(over)]:.3e}")


@lru_cache(maxsize=32)
def _hilbert_signs(n: int) -> np.ndarray:
    signs = 1j * np.sign(np.arange(n) - np.arange(n)[:, np.newaxis])
    signs.setflags(write=False)
    return signs


def hilbert_transform(z: np.ndarray) -> np.ndarray:
    """-i on the strictly lower part, 0 on the diagonal, +i on the strictly
    upper part, of a traceless matrix or of each matrix of a stack."""
    z = np.asarray(z, dtype=complex)
    _check_traceless(z)
    return z * _hilbert_signs(z.shape[-1])


def proj_u(z: np.ndarray) -> np.ndarray:
    """Projection onto the compact form along (strict lower) + (real diagonal).

    Computed as -(Z_+)* + Z_t + Z_+ where Z_t is the anti-Hermitian part of
    the diagonal of Z.  On anti-Hermitian inputs this is the identity, and
    proj_u(i Z) = hilbert_transform(Z) for anti-Hermitian Z.
    """
    z = np.asarray(z, dtype=complex)
    _check_traceless(z)
    z_plus = np.triu(z, 1)
    z_h = z - np.tril(z, -1) - z_plus
    z_t = 0.5 * (z_h - z_h.mT.conj())
    return -z_plus.mT.conj() + z_t + z_plus


def trace_form(x: np.ndarray, y: np.ndarray):
    """Invariant bilinear form tr(x y) on the defining representation: a
    complex number, or an array of them for stacks (..., n, n) that
    broadcast against each other.

    With this normalization the elementary matrices E_jk satisfy
    trace_form(E_jk, E_kj) = 1.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    val = np.trace(x @ y, axis1=-2, axis2=-1)
    return val if np.ndim(val) else complex(val)

