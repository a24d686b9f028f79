"""Dense complex matrix kernels.

Implements the factorizations everything else is built on:

* ``birkhoff_factor``  -- permuted LDU,  g = l @ W @ h @ u_plus  with l lower
  unipotent, W a signed permutation of determinant +1, h diagonal of
  determinant 1 and u_plus upper unipotent.  The permutation is determined
  structurally by the rank pattern of the leading submatrices, not by
  magnitude pivoting, so it identifies the Birkhoff stratum of g.  g may be
  a stack (..., n, n), eliminated one column step for the whole stack; a
  matrix with a pivot in the ambiguity band keeps its slot there, and
  ``StratumAmbiguous.mask`` marks it; the elimination refuses a lone one.
* ``iwasawa_factor``   -- g = l @ a @ u with l lower unipotent, a positive
  diagonal of determinant 1 and u unitary, via the lower Cholesky factor of
  g g*, refused where g g* overflows.
* ``inv_sqrt_hpd``     -- Hermitian inverse square root by eigendecomposition.
  No chart computation uses it (``symspace.canonical_rep`` works from the
  singular value decomposition of the chart matrix); it stays public API,
  named by the benchmark's per-layer metrics, and its refusal rule
  ``check_hpd_spectrum`` is the one chart points obey.
* ``principal_minors`` -- determinants of the leading k x k submatrices,
  the first one read as the entry g[0, 0] itself.  For a Cartan image the
  private ``_pivot_minors`` reads them off its pivots instead, on the top
  layer, and keeps ``principal_minors`` for the rest, matrix by matrix;
  ``rank-grid`` and ``embed`` print those, and ``moment``'s guard reads
  them.  Beside the minors it returns what its readers read of the
  factorization: the layer (perm and signs) and the pivots, the diagonal
  of h.  It has two routes.  Where J is diagonal (a Grassmannian), psi =
  g J is Hermitian, and one in-place Hermitian elimination psi = l D l* of
  the stack, with no row exchange and no upper factor, gives the top
  layer's pivots h = D J and minors cumprod(D J), and stores no
  multiplier.  The images it leaves, a pivot not clearly above the band,
  and every image of the group case, whose J swaps the blocks, go through
  the structural elimination ``_eliminate``, the one builder of
  ``BirkhoffFactors``.

Each of the four takes a stack (..., n, n) and returns one result per
matrix; one matrix in gives one result out.  Both factorizations first
refuse, by LAPACK's det, any matrix whose determinant is not 1; the message
calls it singular on a scale of its own (|det g| against Hadamard's bound
of g), apart from the pivot threshold ``tol`` of ``birkhoff_factor``.  The
Cartan images the package builds have det |det u|^2 = 1 (u unitary), so
``_pivot_minors`` skips that check: ``birkhoff_factor`` and it are the
structural elimination's only callers.  ``DEFAULT_TOL`` is the package's
one threshold.  Every caller but ``factor --tol`` runs at it, as their
inputs fix the scale (unitary Cartan images): only ``birkhoff_factor``
takes a ``tol``, and only that command sets it.
The private ``_cmatmul`` takes a complex product of stacks as one real
GEMM, as numpy's complex matmul pays about 230 ns a matrix of a stack
whatever its size; ``matrix_of_omega`` and ``cartan_embed`` use it.
All functions are pure and operate on immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, NumericalDomainError, SingularInput, StratumAmbiguous

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


def _cmatmul(a, b) -> np.ndarray:
    """a @ b for complex stacks a (..., m, p) and b (..., p, q) that
    broadcast, as one real GEMM: the float view of a, whose rows interleave
    (Re, Im), times the real (..., 2p, 2q) form of b that puts the block
    [[Re b_ij, Im b_ij], [-Im b_ij, Re b_ij]] at each entry.  Row i of b
    beside row i of i b, (Re, Im) interleaved, is rows 2i and 2i + 1 of that
    form.  numpy's complex matmul pays about 230 ns a matrix on a stack of
    small matrices, whatever their size, and its real matmul about a tenth
    of that.  Every input takes the same path, so one matrix alone gives the
    bits it gets inside a stack; a copy makes a non-contiguous a viewable
    as floats."""
    a = np.ascontiguousarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p, q = b.shape[-2:]
    block = np.empty(b.shape[:-2] + (p, 2 * q), dtype=complex)
    block[..., :q] = b
    block[..., q:] = b * 1j
    return (a.view(float) @ block.view(float).reshape(b.shape[:-2] + (2 * p, 2 * q))).view(complex)


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
    one column step for the whole stack (``_eliminate``).  Raises
    ValueError, before anything else, unless ``tol`` is positive and
    finite.  Raises SingularInput if any matrix fails the unimodular check,
    which runs next, or has no usable pivot in some column.  Otherwise raises
    StratumAmbiguous when any matrix has an examined entry inside the band
    (tol / AMBIGUITY_BAND, tol * AMBIGUITY_BAND): such an input sits too
    close to a stratum boundary to classify.  Its ``mask`` (shape
    g.shape[:-2]) marks the ambiguous matrices.
    """
    if not (tol > 0 and np.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    g = _as_square_stack(g)
    _check_unimodular(g)
    factors, ambiguous, message = _eliminate(g, tol)
    if ambiguous.any():
        raise StratumAmbiguous(message, mask=ambiguous)
    return factors


def _eliminate(g: np.ndarray, tol: float):
    """``birkhoff_factor``'s elimination of a square stack g, with no det
    check: (factors, ambiguous, message), ``factors`` shaped as g.  A
    matrix's first event in column order decides it: SingularInput if it
    has no usable pivot, or an entry in the ambiguity band marks it in
    ``ambiguous`` (shape g.shape[:-2]), the first named by ``message`` (""
    if none).  A marked matrix keeps its slot, later columns neither check
    nor divide by its pivot, and no other matrix's factors move.  A lone
    matrix is refused at its band event, StratumAmbiguous(message, 0-d
    mask); a stack's mask must cover every band member, so it is returned."""
    stack, n = g.shape[:-2], g.shape[-1]
    m = g.reshape(-1, n, n).copy()
    rows = np.arange(n)
    # lower is built transposed: its column p is lower_t[p], a row
    lower_t = np.zeros_like(m)
    lower_t[:, rows, rows] = 1.0
    upper = lower_t.copy()
    perm = np.zeros((len(m), n), dtype=int)
    used = np.zeros((len(m), n), dtype=bool)
    at = np.arange(len(m))
    ambiguous = np.zeros(len(m), dtype=bool)
    message = ""

    for j in range(n):
        col = m[:, :, j]
        mag = np.abs(col)
        # the first unused row above the band's lower edge decides column j
        candidate = (mag > tol / AMBIGUITY_BAND) & ~used
        found = candidate.any(axis=1)
        if not found.all() and not (found | ambiguous).all():
            raise SingularInput(f"no usable pivot in column {j}")
        piv = candidate.argmax(axis=1)
        a = mag[at, piv]
        in_band = a < tol * AMBIGUITY_BAND
        if in_band.any():
            if not message:
                k = int(in_band.argmax())
                what = "pivot candidate" if a[k] > tol else "entry"
                where = np.unravel_index(k, stack)
                where = f" of matrix {tuple(int(i) for i in where)}" if stack else ""
                message = (
                    f"{what} {a[k]:.3e} at ({piv[k]}, {j}){where} is inside the "
                    f"ambiguity band around tol = {tol:.3e}"
                )
            if not stack:
                raise StratumAmbiguous(message, mask=in_band.reshape(stack))
            ambiguous |= in_band
        used[at, piv] = True
        perm[:, j] = piv
        # columns left of j are final (h reads m[perm[c], c]): update j.. only
        pivot_row = m[at, piv, j:]
        p = pivot_row[:, :1]
        if message:
            # an infinite pivot zeroes a marked matrix's row and column steps
            p = np.where(ambiguous[:, np.newaxis], np.inf, p)
        # unused rows below the pivot lose a multiple of the pivot row ...
        mult = np.where((rows > piv[:, np.newaxis]) & ~used, col / p, 0)
        lower_t[at, piv] += mult
        m[:, :, j:] -= mult[:, :, np.newaxis] * pivot_row[:, np.newaxis, :]
        # ... and columns right of j a multiple of the pivot column
        coef = pivot_row[:, 1:] / p
        upper[:, j, j + 1:] += coef
        m[:, :, j + 1:] -= m[:, :, j, np.newaxis] * coef[:, np.newaxis, :]

    # det(W) = sign(perm) * signs[n - 1]; the inversion count gives sign(perm)
    later = rows[:, np.newaxis] < rows
    inversions = np.sum((perm[:, :, np.newaxis] > perm[:, np.newaxis, :]) & later, axis=(1, 2))
    signs = np.ones_like(perm)
    signs[:, n - 1] = 1 - 2 * (inversions % 2)
    h = np.zeros_like(m)
    h[:, rows, rows] = signs[at[:, np.newaxis], perm] * m[at[:, np.newaxis], perm, rows]
    lower = np.ascontiguousarray(lower_t.mT)
    perm, signs = _layer_form(perm, signs, stack)
    factors = BirkhoffFactors(
        l=lower.reshape(g.shape),
        perm=perm,
        signs=signs,
        h=h.reshape(g.shape),
        u_plus=upper.reshape(g.shape),
    )
    return factors, ambiguous.reshape(stack), message


def _layer_form(perm: np.ndarray, signs: np.ndarray, stack: tuple):
    """perm and signs, int arrays (count, n), as ``BirkhoffFactors`` holds
    them: arrays shaped (*stack, n), or tuples for one matrix (stack ())."""
    if stack:
        return perm.reshape(stack + perm.shape[-1:]), signs.reshape(stack + signs.shape[-1:])
    return tuple(int(i) for i in perm[0]), tuple(int(s) for s in signs[0])


def iwasawa_factor(g: np.ndarray) -> IwasawaFactors:
    """Unique factorization g = l @ a @ u, of one matrix or of each matrix of
    a stack (..., n, n).

    The lower Cholesky factor L of the Hermitian positive definite matrix
    g g* is split as L = l @ a with a = diag(L) (positive by the Cholesky
    convention); then u = L^(-1) g is unitary.  NumericalDomainError
    refuses, with no warning, a g g* that overflows (diag(1e154, 1e-154)).
    """
    g = _as_square_stack(g)
    _check_unimodular(g)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = g @ g.mT.conj()
        gram = 0.5 * (gram + gram.mT.conj())
    if not np.all(np.isfinite(gram)):
        raise NumericalDomainError("matrix overflows: g g* is not finite")
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


def _pivot_minors(g: np.ndarray, j=None):
    """The leading principal minors of a Cartan image g, beside its Birkhoff
    layer and pivots at ``DEFAULT_TOL``: (minors, ambiguous, perm, signs,
    pivots).

    g, one matrix or a stack (..., n, n), is an image the package built, of
    det |det u|^2 = 1 (u unitary), so it skips the unimodular check; a user
    matrix goes through ``birkhoff_factor``.  ``minors`` and ``pivots``, the
    diagonal of h, are (..., n); perm and signs are as ``BirkhoffFactors``
    holds them; ``ambiguous`` (shape g.shape[:-2]) marks the matrices
    inside the band, whose layer and pivots are not read.  ``_eliminate``
    refuses one matrix in the band.

    j is the diagonal of J where J is diagonal (a Grassmannian,
    ``symspace._j_diagonal``), else None.  With j, psi = g J is Hermitian
    and ``_hermitian_eliminate`` factors the stack as psi = l D l*, so
    g = l h theta(l*) with h = D J: an image it takes to the end is on the
    top layer, with the real minors cumprod(D J).  An image whose pivot is
    not clearly above the band is left to the route of j None: one
    ``_eliminate`` pass, where an unmarked matrix on the top layer (perm the
    identity) reads its minors off h as h_0 ... h_(k-1), the first the entry
    g[0, 0] itself.  Every other matrix, on a lower layer or in the band,
    keeps ``principal_minors``.  No matrix moves another one of the stack
    off its pivots.  ``embed``, ``rank-grid`` and ``moment`` read their
    images through here."""
    g = _as_square_stack(g)
    stack, n = g.shape[:-2], g.shape[-1]
    if j is None:
        factors, ambiguous, _ = _eliminate(g, DEFAULT_TOL)
        pivots = np.diagonal(factors.h, axis1=-2, axis2=-1)
        top = np.all(np.asarray(factors.perm) == np.arange(n), axis=-1) & ~ambiguous
        minors = np.empty(g.shape[:-1], dtype=complex)
        minors[top] = np.cumprod(pivots[top], axis=-1)
        if not top.all():
            minors[~top] = principal_minors(g[~top])
        return minors, ambiguous, factors.perm, factors.signs, pivots
    flat = g.reshape(-1, n, n)
    d, top = _hermitian_eliminate(flat, j, DEFAULT_TOL)
    h = d * j
    minors = np.empty(flat.shape[:-1], dtype=complex)
    minors[top] = np.cumprod(h[top], axis=-1)
    pivots = h.astype(complex)
    ambiguous = np.zeros(len(flat), dtype=bool)
    perm = np.tile(np.arange(n), (len(flat), 1))
    signs = np.ones_like(perm)
    if not top.all():
        # one matrix goes alone, so that _eliminate refuses it in the band
        rest = _pivot_minors(flat[~top] if stack else g)
        minors[~top], ambiguous[~top], perm[~top], signs[~top], pivots[~top] = rest
    return (minors.reshape(g.shape[:-1]), ambiguous.reshape(stack),
            *_layer_form(perm, signs, stack), pivots.reshape(g.shape[:-1]))


def _hermitian_eliminate(g: np.ndarray, j: np.ndarray, tol: float):
    """LDL* of psi = g J, J = diag(j), for a stack g (count, n, n) of Cartan
    images whose psi is Hermitian: (d, top), in place on one working copy of
    psi, as LAPACK's zhetrf works.  Column c pivots on d_c = psi[c, c],
    whose imaginary part is rounding and is dropped, and the trailing block
    loses the outer product of the column with the column over d_c.  No
    row is ever exchanged, so the pivots are those of ``_eliminate`` on the
    top layer, times J.  ``top`` marks the images whose every pivot is at
    least tol * AMBIGUITY_BAND; at its first pivot that is not, inside the
    band or below it, an infinite pivot freezes an image, and its d is not
    read."""
    psi = g * j
    d = np.empty(psi.shape[:-1])
    top = np.ones(len(psi), dtype=bool)
    for c in range(psi.shape[-1]):
        d[:, c] = psi[:, c, c].real
        top &= np.abs(d[:, c]) >= tol * AMBIGUITY_BAND
        col = psi[:, c + 1:, c]
        mult = col / np.where(top, d[:, c], np.inf)[:, np.newaxis]
        psi[:, c + 1:, c + 1:] -= mult[:, :, np.newaxis] * col.conj()[:, np.newaxis, :]
    return d, top
