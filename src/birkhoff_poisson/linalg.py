"""Dense complex matrix kernels.

Implements the factorizations everything else is built on:

* ``birkhoff_factor``  -- permuted LDU,  g = l @ W @ h @ u_plus  with l lower
  unipotent, W a signed permutation of determinant +1, h diagonal of
  determinant 1 and u_plus upper unipotent.  The permutation is determined
  structurally by the rank pattern of the leading submatrices, not by
  magnitude pivoting, so it identifies the Birkhoff stratum of g.  g may be
  a stack (..., n, n), eliminated one column step for the whole stack; if
  any matrix is ambiguous, ``StratumAmbiguous.mask`` marks which.
* ``iwasawa_factor``   -- g = l @ a @ u with l lower unipotent, a positive
  diagonal of determinant 1 and u unitary, via the lower Cholesky factor of
  g g*.
* ``inv_sqrt_hpd``     -- Hermitian inverse square root by eigendecomposition.
  No chart computation uses it (``symspace.canonical_rep`` works from the
  singular value decomposition of the chart matrix); it stays public API,
  named by the benchmark's per-layer metrics, and its refusal rule
  ``check_hpd_spectrum`` is the one chart points obey.
* ``principal_minors`` -- determinants of the leading k x k submatrices,
  the first one read as the entry g[0, 0] itself.  Where a Birkhoff
  factorization is at hand, the private ``_pivot_minors`` reads them off
  its pivots instead, as h_0 ... h_(k-1), for every matrix on the top
  layer, and keeps ``principal_minors`` for the rest, matrix by matrix;
  ``rank-grid`` and ``embed`` print those, and ``moment`` guards on them.

Each of the four takes a stack (..., n, n) and returns one result per
matrix; one matrix in gives one result out.  Both factorizations first
refuse any matrix whose determinant is not 1; the message calls it singular
on a scale of its own (|det g| against Hadamard's bound of g), which does not
depend on the pivot threshold ``tol`` of ``birkhoff_factor``.
``DEFAULT_TOL`` is the package's one threshold: the chart commands and
``verify`` run at it, as their inputs fix the scale (unitary Cartan images),
and every ``tol`` default reads it; only ``factor --tol`` sets another.
All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, SingularInput, StratumAmbiguous

DEFAULT_TOL = 1e-9

# Pivot magnitudes inside (tol / band, tol * band) can be read as either zero
# or nonzero; factorizations refuse to classify them instead of guessing.
AMBIGUITY_BAND = 10.0

# Looseness allowed on the |det g - 1| precondition.
_DET_ONE_TOL = 1e-6

# A Hermitian matrix whose smallest eigenvalue is not above this share of
# its largest (or of 1, whichever is more) reads as singular.
HPD_RCOND_MIN = 1e-14


def _as_square_stack(g: np.ndarray) -> np.ndarray:
    """A finite square matrix or stack of them, of shape (..., n, n)."""
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-2] != g.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {g.shape}")
    if g.shape[-1] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(g)):
        raise ValueError("matrix entries must be finite")
    return g


def _check_unimodular(g: np.ndarray) -> None:
    """Refuse g, or a stack, unless every determinant is 1 to within
    _DET_ONE_TOL.  A refused matrix is called singular where |det g| is at
    most HPD_RCOND_MIN times Hadamard's bound prod_j ||g e_j||, the largest
    |det| its column lengths allow: a scale of the matrix's own, apart from
    the pivot threshold of the factorizations."""
    det = np.asarray(np.linalg.det(g))
    off = np.abs(det - 1.0) > _DET_ONE_TOL
    if not np.any(off):
        return
    hadamard = np.prod(np.linalg.norm(g, axis=-2), axis=-1)
    singular = off & (np.abs(det) <= HPD_RCOND_MIN * hadamard)
    if np.any(singular):
        raise SingularInput(f"matrix is singular, |det| = {abs(det[singular][0]):.3e}")
    raise SingularInput(f"determinant must equal 1, got {det[off][0]:.6g}")


def signed_permutation_matrix(perm, signs) -> np.ndarray:
    """Matrix W with W[perm[j], j] = signs[perm[j]]; det(W) = +1 by construction.
    perm and signs may be int arrays (..., n), giving a stack of matrices."""
    perm = np.asarray(perm)
    hit = np.arange(perm.shape[-1])[:, np.newaxis] == perm[..., np.newaxis, :]
    return np.where(hit, np.asarray(signs)[..., :, np.newaxis], 0).astype(complex)


@dataclass(frozen=True)
class BirkhoffFactors:
    """Factors of g = l @ W @ h @ u_plus.

    ``perm[j]`` is the row carrying the nonzero entry of column j of W;
    ``signs`` holds one +/-1 per row, all +1 except the last row which carries
    the sign making det(W) = +1.  Both are tuples for one matrix and int
    arrays (..., n) for a stack, whose factors are stacks (..., n, n).
    """

    l: np.ndarray
    perm: tuple[int, ...] | np.ndarray
    signs: tuple[int, ...] | np.ndarray
    h: np.ndarray
    u_plus: np.ndarray

    @property
    def w_matrix(self) -> np.ndarray:
        return signed_permutation_matrix(self.perm, self.signs)

    def reconstruct(self) -> np.ndarray:
        return self.l @ self.w_matrix @ self.h @ self.u_plus


@dataclass(frozen=True)
class IwasawaFactors:
    """Factors of g = l @ a @ u (l lower unipotent, a positive diagonal, u unitary)."""

    l: np.ndarray
    a: np.ndarray
    u: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.l @ self.a @ self.u


def birkhoff_factor(g: np.ndarray, tol: float = DEFAULT_TOL) -> BirkhoffFactors:
    """Structural permuted LDU factorization g = l @ W @ h @ u_plus.

    Columns are processed left to right; the pivot of column j is the topmost
    not-yet-used row whose current entry exceeds ``tol`` in magnitude.  Row
    operations only add a pivot row to rows below it and column operations
    only add a pivot column to columns right of it, so the accumulated factors
    are genuinely unipotent triangular and the recovered permutation equals
    the rank pattern of the leading submatrices of g.

    g may be a stack (..., n, n); every matrix runs the same elimination,
    one column step for the whole stack.  A matrix's first event in column
    order decides its outcome.  Raises SingularInput if any matrix fails the
    unimodular check or has no usable pivot in some column.  Otherwise raises
    StratumAmbiguous when any matrix has an examined entry inside the band
    (tol / AMBIGUITY_BAND, tol * AMBIGUITY_BAND): such an input sits too close
    to a stratum boundary to classify.  Its ``mask`` (shape g.shape[:-2])
    marks the ambiguous matrices.
    """
    g = _as_square_stack(g)
    _check_unimodular(g)
    stack, n = g.shape[:-2], g.shape[-1]
    m = g.reshape(-1, n, n).copy()
    rows = np.arange(n)
    # lower is built transposed: its column p is lower_t[p], a row
    lower_t = np.zeros_like(m)
    lower_t[:, rows, rows] = 1.0
    upper = lower_t.copy()
    perm = np.zeros((len(m), n), dtype=int)
    used = np.zeros((len(m), n), dtype=bool)
    # matrices found ambiguous leave the elimination; index maps the rest
    at = index = np.arange(len(m))
    ambiguous = np.zeros(len(m), dtype=bool)
    message = ""

    for j in range(n):
        col = m[:, :, j]
        mag = np.abs(col)
        # the first unused row above the band's lower edge decides column j
        candidate = (mag > tol / AMBIGUITY_BAND) & ~used
        if not candidate.any(axis=1).all():
            raise SingularInput(f"no usable pivot in column {j}")
        piv = candidate.argmax(axis=1)
        a = mag[at, piv]
        in_band = a < tol * AMBIGUITY_BAND
        if in_band.any():
            if not message:
                k = int(in_band.argmax())
                what = "pivot candidate" if a[k] > tol else "entry"
                where = np.unravel_index(index[k], stack)
                where = f" of matrix {tuple(int(i) for i in where)}" if stack else ""
                message = (
                    f"{what} {a[k]:.3e} at ({piv[k]}, {j}){where} is inside the "
                    f"ambiguity band around tol = {tol:.3e}"
                )
            ambiguous[index[in_band]] = True
            keep = ~in_band
            m, lower_t, upper, perm, used, index, piv = (
                x[keep] for x in (m, lower_t, upper, perm, used, index, piv)
            )
            at, col = np.arange(len(m)), m[:, :, j]
        used[at, piv] = True
        perm[:, j] = piv
        pivot_row = m[at, piv]
        p = pivot_row[:, j, np.newaxis]
        # unused rows below the pivot lose a multiple of the pivot row ...
        mult = np.where((rows > piv[:, np.newaxis]) & ~used, col / p, 0)
        lower_t[at, piv] += mult
        m -= mult[:, :, np.newaxis] * pivot_row[:, np.newaxis, :]
        # ... and columns right of j a multiple of the pivot column
        coef = np.where(rows > j, pivot_row / p, 0)
        upper[:, j] += coef
        m -= m[:, :, j, np.newaxis] * coef[:, np.newaxis, :]

    if ambiguous.any():
        raise StratumAmbiguous(message, mask=ambiguous.reshape(stack))
    # det(W) = sign(perm) * signs[n - 1]; the inversion count gives sign(perm)
    later = rows[:, np.newaxis] < rows
    inversions = np.sum((perm[:, :, np.newaxis] > perm[:, np.newaxis, :]) & later, axis=(1, 2))
    signs = np.ones_like(perm)
    signs[:, n - 1] = 1 - 2 * (inversions % 2)
    h = np.zeros_like(m)
    h[:, rows, rows] = signs[at[:, np.newaxis], perm] * m[at[:, np.newaxis], perm, rows]
    lower = np.ascontiguousarray(lower_t.mT)
    shape = stack + (n, n)
    if not stack:
        perm, signs = tuple(int(i) for i in perm[0]), tuple(int(s) for s in signs[0])
    else:
        perm, signs = perm.reshape(stack + (n,)), signs.reshape(stack + (n,))
    return BirkhoffFactors(
        l=lower.reshape(shape),
        perm=perm,
        signs=signs,
        h=h.reshape(shape),
        u_plus=upper.reshape(shape),
    )


def iwasawa_factor(g: np.ndarray) -> IwasawaFactors:
    """Unique factorization g = l @ a @ u, of one matrix or of each matrix of
    a stack (..., n, n).

    The lower Cholesky factor L of the Hermitian positive definite matrix
    g g* is split as L = l @ a with a = diag(L) (positive by the Cholesky
    convention); then u = L^(-1) g is unitary.
    """
    g = _as_square_stack(g)
    _check_unimodular(g)
    gram = g @ g.mT.conj()
    gram = 0.5 * (gram + gram.mT.conj())
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularInput("g g* failed the positive-definiteness check") from exc
    a_diag = np.real(np.diagonal(chol, axis1=-2, axis2=-1))
    lower = chol / a_diag[..., np.newaxis, :]
    u = np.linalg.solve(chol, g)
    a = np.zeros_like(chol)
    idx = np.arange(g.shape[-1])
    a[..., idx, idx] = a_diag
    return IwasawaFactors(l=lower, a=a, u=u)


def inv_sqrt_hpd(p: np.ndarray) -> np.ndarray:
    """Inverse square root s of a Hermitian positive definite p: s @ p @ s = I.
    p may be a stack (..., n, n), rejected if any one matrix fails."""
    p = _as_square_stack(p)
    scale = np.maximum(1.0, np.linalg.norm(p, axis=(-2, -1)))
    if np.any(np.linalg.norm(p - p.mT.conj(), axis=(-2, -1)) > 1e-10 * scale):
        raise NotPositiveDefinite("matrix is not Hermitian")
    w, q = np.linalg.eigh(0.5 * (p + p.mT.conj()))
    check_hpd_spectrum(w[..., 0], w[..., -1])
    return (q * (w ** -0.5)[..., np.newaxis, :]) @ q.mT.conj()


def check_hpd_spectrum(low, high) -> None:
    """Refuse the smallest and largest eigenvalues low and high of Hermitian
    matrices (arrays for a stack) unless low > HPD_RCOND_MIN * max(1, high)
    for every matrix.  Past that bound a matrix reads as singular: it is
    indefinite where low is negative beyond the bound, and otherwise too
    ill-conditioned to invert."""
    low, high = np.broadcast_arrays(np.asarray(low, dtype=float), np.maximum(1.0, high))
    rcond = low / high
    bad = ~(rcond > HPD_RCOND_MIN)
    if not np.any(bad):
        return
    if np.min(rcond[bad]) < -HPD_RCOND_MIN:
        raise NotPositiveDefinite(
            f"matrix is not positive definite, min eig = {np.min(low[bad]):.3e}"
        )
    raise NotPositiveDefinite(
        f"matrix is too ill-conditioned: reciprocal condition number "
        f"{np.min(rcond[bad]):.3e} is not above {HPD_RCOND_MIN:.0e}"
    )


def principal_minors(g: np.ndarray) -> np.ndarray:
    """Determinants of the leading k x k submatrices, k = 1..dim, on the
    last axis; g may be a stack (..., dim, dim).  The k = 1 minor is the
    entry g[..., 0, 0] itself: ``np.linalg.det`` returns sign * exp(log|det|),
    which moves even a 1 x 1 determinant off its entry by a few roundings."""
    g = _as_square_stack(g)
    n = g.shape[-1]
    minors = [g[..., 0, 0]] + [np.linalg.det(g[..., :k, :k]) for k in range(2, n + 1)]
    return np.stack(minors, axis=-1)


def _pivot_minors(g: np.ndarray):
    """The leading principal minors of g, beside its Birkhoff factorization
    at ``DEFAULT_TOL``: (minors, ambiguous, factors).

    g is one matrix or a stack (..., n, n); ``minors`` is (..., n).  A
    matrix on the top layer (perm the identity, so every sign +1) is
    l h u_plus with l and u_plus unipotent triangular, so its minors are
    the pivot products h_0 ... h_(k-1), read off h with no determinant; the
    first is the entry g[0, 0] itself.  Every other matrix, on a lower
    layer or inside the ambiguity band, keeps ``principal_minors``; one
    such matrix moves no other matrix of the stack off its pivots.
    ``ambiguous`` (shape g.shape[:-2]) marks the matrices inside the band,
    and ``factors`` factors the others, in stack order.  One matrix in the
    band raises StratumAmbiguous, as ``birkhoff_factor`` does."""
    g = _as_square_stack(g)
    ambiguous = np.zeros(g.shape[:-2], dtype=bool)
    try:
        factors = birkhoff_factor(g)
    except StratumAmbiguous as exc:
        if g.ndim == 2:
            raise
        ambiguous = exc.mask
        factors = birkhoff_factor(g[~ambiguous])
    n = g.shape[-1]
    flat = g.reshape(-1, n, n)
    pivots = np.diagonal(factors.h, axis1=-2, axis2=-1).reshape(-1, n)
    on_top = np.all(np.reshape(factors.perm, (-1, n)) == np.arange(n), axis=-1)
    top = np.flatnonzero(~ambiguous.reshape(-1))[on_top]
    rest = np.ones(len(flat), dtype=bool)
    rest[top] = False
    minors = np.empty(flat.shape[:-1], dtype=complex)
    minors[top] = np.cumprod(pivots[on_top], axis=-1)
    if rest.any():
        minors[rest] = principal_minors(flat[rest])
    return minors.reshape(g.shape[:-1]), ambiguous, factors
