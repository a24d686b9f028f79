"""The homogeneous Poisson bivector in equivariant form, the group-case
structures, and the local coordinate tensors with their cross-checks.

Equivariant side.  At a unitary coset representative u the bivector pairs
cotangent classes, odd anti-Hermitian matrices X, Y, through their frames
u X u*: the value is tr(H(u X u*) u Y u*) with H the Hilbert transform, for
both families, and for the group pairings at diag(1, k^(-1)).  Its matrix
on the odd basis pairs the frames u e_r u* in one GEMM, and the frames of a
chunk of points take two more: one with the points folded into its rows and
the odd basis into its columns, and one real GEMM for the products with u*
(``linalg._cmatmul``), as no step pays numpy's per-matrix complex matmul.
``omega_apply`` is the skew operator itself: conjugate up, apply H,
conjugate back down and project to the odd subspace.

Coordinate side.  Explicit tensors in affine charts: the Grassmannian chart
formula (an R-linear operator L_Z followed by a trace pairing), its
projective-space specialization with explicit holomorphic/antiholomorphic
coefficients and the degeneracy polynomial of its dimension-two case, the
one-dimensional family (homogeneous, projected Poisson-Lie, and
Kostant-Kirillov-Souriau structures), and the real-form chart of the
alternative presentation of the two-sphere.

A chart-to-equivariant transfer ties the two sides together: the class of a
chart covector at the canonical representative is in closed form, and a
single measured calibration constant certifies agreement.

Stacks.  ``omega_apply``, ``pi_eval``, ``matrix_of_omega``, ``pi_rank``, the
group pairings ``pi_el_group`` / ``pi_lw_group`` with the SU(2) coefficient
displays, ``grassmann_l_operator``, ``grassmann_local_pi`` and the chart
transfer ``chart_covectors`` / ``chart_pi_eval`` take stacks of points and
arguments that broadcast, matrices on the last two axes; they validate the
whole stack once and return one value per point.  ``matrix_of_omega``, and
so ``pi_rank``, builds the frames of a stack in chunks of at most
``_STACK_BYTES`` (256 KiB), so its memory does not grow with the stack.
One matrix in gives a scalar out.  ``cpn_coeffs``, ``cp1_family`` and
``fothlu_w_chart`` take stacks of chart points,
``coord_pi_value`` takes stacked coefficients with stacked component
vectors.  A chart tensor is a plain function from chart points (...,
dim_real) to real antisymmetric matrices: ``chart_tensor`` for the
Grassmannian family, projective space as m = 1, and ``fothlu_w_tensor``,
in closed form, for the real-form chart.  The Jacobi residual evaluates
its whole finite-difference stencil, for one point or a stack of them, in
one call of the tensor.  ``chart_tensor`` applies L_z to all K = 2 m n
chart covectors at each point with the K axis folded into the columns, so
each product of L_z is one matmul per point, not one per (point, covector)
pair, and pairs the images with one GEMM per point.  Each tensor refuses
a point it cannot read with ValueError, ``chart_tensor`` by the one chart
rule ``symspace._chart_stack``, and a point where it is not finite with
NumericalDomainError, as ``coeffs_real_matrix`` does.  The
projective-space coefficients ``cpn_coeffs`` and the cp1 family
``cp1_family`` are the displayed formulas and the oracles of the
projective-specialization and lambda-identity checks; ``coeffs_real_matrix``
turns them into real tensors.  The SU(2) group pairing has no chart tensor:
its rank is ``pi_rank`` at the group point diag(1, k^(-1)).  Neither
``pi_rank`` nor ``jacobi_residual`` takes a threshold or a step: they run
at ``linalg.DEFAULT_TOL`` and at ``FD_STEP``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidTangent, NumericalDomainError
from .lie import _hilbert_signs, hilbert_transform, trace_form
from .linalg import DEFAULT_TOL, _cmatmul
from .symspace import (
    SymmetricSpacePreset,
    _chart_stack,
    adjoint_act,
    block_diag,
    canonical_rep,
    grassmannian,
    group_case,
    ip_basis,
    project_ip,
)

REALITY_TOL = 1e-10
# the one finite-difference step, of the Schouten and the Hamiltonian residuals
FD_STEP = 1e-5


def _norms(x) -> np.ndarray:
    """Frobenius norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(x, axis=(-2, -1))


def _validate_ip(x, preset: SymmetricSpacePreset) -> None:
    """Raise unless x, or every matrix of a stack, lies in the odd
    anti-Hermitian subspace, measured as the distance from x to its expansion
    on the orthonormal odd basis."""
    x = np.asarray(x, dtype=complex)
    scale = np.maximum(1.0, _norms(x))
    if np.any(_norms(x + x.mT.conj()) > REALITY_TOL * scale):
        raise InvalidTangent("tangent representative is not anti-Hermitian")
    basis = ip_basis(preset)
    coeffs = np.einsum("kij,...ij->...k", basis.conj(), x).real
    residual = x - np.einsum("...k,kij->...ij", coeffs, basis)
    if np.any(_norms(residual) > REALITY_TOL * scale):
        raise InvalidTangent("tangent representative lies outside the odd subspace")


def omega_apply(u, x, preset: SymmetricSpacePreset):
    """Skew operator of the bivector at u: project Ad(u^(-1)) H Ad(u) x to the
    odd anti-Hermitian subspace; raise unless every x lies in that subspace."""
    _validate_ip(x, preset)
    u = np.asarray(u, dtype=complex)
    return project_ip(u.mT.conj() @ hilbert_transform(adjoint_act(u, x)) @ u, preset)


def pi_eval(u, x, y, preset: SymmetricSpacePreset):
    """Bivector value tr(H(Ad(u) x) Ad(u) y) on the cotangent classes [u, x],
    [u, y]: a float, or an array of values when u, x and y are stacks that
    broadcast.  It is tr(omega(x) y), as the projection is orthogonal, and
    real, as both factors are anti-Hermitian."""
    _validate_ip(x, preset)
    _validate_ip(y, preset)
    val = np.einsum("...ij,...ji->...", hilbert_transform(adjoint_act(u, x)), adjoint_act(u, y))
    return val.real if np.ndim(val) else float(val.real)


# Bytes of the largest complex array ``matrix_of_omega`` builds: the
# (points, dim_ip, d, d) frames u e_r u* of one chunk of points, of which it
# holds at most two at once (the blocks u e_r and the frames, then the frames
# and their Hilbert transforms).  At 16 dim_ip d^2 bytes a point it bounds the
# points per chunk: 2,048 on cp1, 455 on cp2, 341 on group:su2, 128 on gr:2,2
# and 1 on gr:6,10 and larger.  ``rank-grid`` sizes its stacks by the same
# budget, at 16 d^2 bytes a cell (``cli._grid_cells``).
_STACK_BYTES = 1 << 18


def matrix_of_omega(u, preset: SymmetricSpacePreset) -> np.ndarray:
    """Real matrix of the skew operator on the orthonormal basis of the odd
    anti-Hermitian subspace: entry (s, r) is Re <e_s, omega(e_r)>.

    u is one representative (d, d) or a stack (..., d, d); the result is
    (k, k) or (..., k, k).

    The projection to the odd subspace is orthogonal and Ad(u) is an
    isometry, so the entry is Re <F_s, H(F_r)> on the frames F_r = u e_r u*,
    one for both families.  The frames of a chunk take two GEMMs.  The
    chunk's points, stacked as rows, times the block row [e_1 | ... | e_k]
    of the basis give the blocks u e_r in one 2-D GEMM, each point's bits
    those of its own product.  Stacked per point as one column
    [u e_1; ...; u e_k], the blocks are multiplied by u* in one real GEMM
    (``linalg._cmatmul``): numpy's stacked complex matmul pays about 230 ns
    a matrix whatever its size, its real one about a tenth of that.  A
    complex row viewed as reals interleaves (Re, Im), so Re(conj(F) H(F)^T)
    is one real GEMM of the views: k^2 d^2 work, no projection and no
    second conjugation.  The points run in chunks whose frames fit
    ``_STACK_BYTES``, each chunk's GEMM written into its rows of one
    (points, k, k) result, so memory stays bounded whatever the stack and
    every point's entries are those of a call on that point alone.  The
    GEMM is skew up to rounding; its skew part is returned, so entry (r, s)
    is bitwise -(s, r) and the diagonal is +0.0."""
    basis = ip_basis(preset)
    k, d = basis.shape[:2]
    u = np.asarray(u, dtype=complex)
    points = u.reshape(-1, d, d)
    mat = np.empty((len(points), k, k))
    step = max(1, _STACK_BYTES // (16 * k * d * d))
    for start in range(0, len(points), step):
        chunk = points[start:start + step]
        # the block row is a per-chunk copy of the basis, not a cached second
        # one; the dels keep at most two frame-sized arrays alive at once,
        # across chunks too
        left = chunk.reshape(-1, d) @ basis.transpose(1, 0, 2).reshape(d, k * d)
        blocks = left.reshape(-1, d, k, d).swapaxes(1, 2).reshape(-1, k * d, d)
        del left
        frames = _cmatmul(blocks, chunk.mT.conj()).reshape(-1, k, d, d)
        del blocks
        images = hilbert_transform(frames)
        rows = (len(chunk), k, d * d)
        out = mat[start:start + step]
        np.matmul(frames.reshape(rows).view(float), images.reshape(rows).view(float).mT, out=out)
        del frames, images
        out -= out.mT.copy()
        out /= 2
    return mat.reshape(*u.shape[:-2], k, k)


def _skew_singular_values(m: np.ndarray) -> np.ndarray:
    """The two singular values s1 >= s2 of a real skew k x k matrix, k <= 4,
    on a new first axis; m may be a stack (..., k, k).

    A 2 x 2 or 3 x 3 matrix is read as the 4 x 4 one padded with zeros.
    Its self-dual and anti-self-dual parts are the vectors
    a = (m01 + m23, m02 - m13, m03 + m12) and b = (m01 - m23, m02 + m13,
    m03 - m12); m -> Q m Q^T with Q orthogonal rotates a and b, or swaps
    them, so |a| and |b| are invariants, and at the normal form
    diag(s1 J, s2 J), J = [[0, 1], [-1, 0]], they read s1 + s2 and
    s1 - s2.  So s1 = (|a| + |b|) / 2 and s2 = ||a| - |b|| / 2, each within
    a few eps * s1 of exact, as an SVD's are.  The roots of
    t^2 - S t + Pf(m)^2, S = |m|_F^2 / 2, are not: their discriminant
    cancels as s1 and s2 meet, and at s = tol * (1 +- 1e-9) even the sign
    of the quadratic at t = tol^2 is lost to rounding."""
    k = m.shape[-1]
    zero = np.zeros(m.shape[:-2])

    def e(i, j):
        return m[..., i, j] if j < k else zero

    a = np.hypot(np.hypot(e(0, 1) + e(2, 3), e(0, 2) - e(1, 3)), e(0, 3) + e(1, 2))
    b = np.hypot(np.hypot(e(0, 1) - e(2, 3), e(0, 2) + e(1, 3)), e(0, 3) - e(1, 2))
    return np.stack([a + b, np.abs(a - b)]) / 2


def pi_rank(u, preset: SymmetricSpacePreset):
    """Numerical rank of the bivector at u at ``DEFAULT_TOL``, whose frame
    pairings are at most 1: ``_skew_rank`` of ``matrix_of_omega``."""
    return _skew_rank(matrix_of_omega(u, preset))


def _skew_rank(mat: np.ndarray):
    """The number of singular values above DEFAULT_TOL of a skew (..., k, k)
    stack, an int or an array: for k <= 4 (cp1, group:su2, cp2) at most two
    pairs, read in closed form by ``_skew_singular_values``, else an SVD."""
    if mat.shape[-1] <= 4:
        ranks = 2 * np.count_nonzero(_skew_singular_values(mat) > DEFAULT_TOL, axis=0)
    else:
        ranks = np.linalg.matrix_rank(mat, tol=DEFAULT_TOL)
    return ranks if np.ndim(ranks) else int(ranks)


# ---------------------------------------------------------------------------
# group case: Poisson-Lie and homogeneous structures on a single factor


def su2_frame() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (H, X, Y) basis of the 2 x 2 anti-Hermitian traceless matrices."""
    h = np.array([[1j, 0], [0, -1j]])
    x = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    y = np.array([[0, 1j], [1j, 0]])
    return h, x, y


def su2_from_sphere(a, b) -> np.ndarray:
    """[[a, b], [-conj(b), conj(a)]], or a stack of them for arrays a, b."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    return np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], -2)


def pi_el_group(k: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Homogeneous structure on the group itself (right trivialization):
    <(H + Ad(k) o H o Ad(k^-1))(p), q>, which is ``pi_eval`` at diag(1, k^-1)
    on diag(p, -p), diag(q, -q); stacks broadcast to an array of values."""
    k = np.asarray(k, dtype=complex)
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    n = k.shape[-1]
    u = block_diag(np.eye(n), k.mT.conj())
    return pi_eval(u, block_diag(p, -p), block_diag(q, -q), group_case(n))


def pi_lw_group(k: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Poisson-Lie group structure pairing (right trivialization):
    <(Ad(k) o H o Ad(k^-1) - H)(p), q>, the homogeneous pairing less
    2 <H(p), q>."""
    return pi_el_group(k, p, q) - 2.0 * trace_form(hilbert_transform(p), q).real


def _su2_wedges(pairing, k: np.ndarray, factor: float) -> tuple:
    """factor times the pairing at k on (X, Y), (Y, H), (H, X), in one
    broadcast call."""
    h, x, y = su2_frame()
    k = np.asarray(k, dtype=complex)[..., np.newaxis, :, :]
    vals = pairing(k, np.array([x, y, h]), np.array([y, h, x]))
    return tuple(np.moveaxis(factor * vals, -1, 0))


def su2_el_coefficients(k: np.ndarray) -> tuple:
    """Wedge coefficients (X^Y, Y^H, H^X) of the homogeneous structure on the
    2 x 2 unitary group in the right trivialization; floats for one k, arrays
    for a stack.

    The basis elements have tr(e^2) = -2, and the wedge-to-pairing factor is
    -2, so each coefficient is minus half the raw pairing value.
    """
    return _su2_wedges(pi_el_group, k, -0.5)


def su2_lw_coefficients(k: np.ndarray) -> tuple:
    """Wedge coefficients (X^Y, Y^H, H^X) of the Poisson-Lie structure in the
    left trivialization (the conventional display for this group); floats for
    one k, arrays for a stack.

    Left and right trivializations of a multiplicative bivector differ by
    inversion of the base point and a sign, so this evaluates the raw pairing
    at k^(-1) with the compensating half factor.
    """
    kinv = np.asarray(k, dtype=complex).mT.conj()
    return _su2_wedges(pi_lw_group, kinv, 0.5)


# ---------------------------------------------------------------------------
# local coordinate tensors


def _l_images(z: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """L_z on K cotangent representatives at once: z (..., n, m) and reps
    (..., K, m, n) broadcast to images (..., K, m, n).

    The K axis is folded into the columns: a left factor multiplies the
    block row [v_1 | ... | v_K], a right factor the block column
    [v_1; ...; v_K], so each product is one matmul per chart point.
    sign(j - i) is the imaginary part of ``lie._hilbert_signs``."""
    z = np.asarray(z, dtype=complex)
    reps = np.asarray(reps, dtype=complex)
    k, m, n = reps.shape[-3:]
    zs = z.mT.conj()

    def left(a, x):
        """a @ x_k for every k."""
        p, q = x.shape[-2:]
        y = a @ x.swapaxes(-3, -2).reshape(x.shape[:-3] + (p, k * q))
        return y.reshape(y.shape[:-1] + (k, q)).swapaxes(-3, -2)

    def right(x, b):
        """x_k @ b for every k."""
        p, q = x.shape[-2:]
        y = x.reshape(x.shape[:-3] + (k * p, q)) @ b
        return y.reshape(y.shape[:-2] + (k, p, y.shape[-1]))

    zv = left(z, reps)
    vz = right(reps, z)
    return (
        reps
        - right(left(zs @ z, reps), z @ zs)
        + left(zs, (zv - zv.mT.conj()) * _hilbert_signs(n).imag)
        - right((vz.mT.conj() - vz) * _hilbert_signs(m).imag, zs)
    )


def grassmann_l_operator(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The R-linear chart operator applied to a cotangent representative.

    z is the n x m chart matrix, v an m x n cotangent representative; either
    may be a stack, (..., n, m) or (..., m, n).  With S(x) the strict upper
    triangle of x completed to a Hermitian matrix by its own conjugate
    transpose,

        L_z v = v - z* z v z z* + z* S(z v - v* z*) - S(z* v* - v z) z*:

    the corrections carry one factor of z* on the outside, left for the
    n x n bracket and right for the m x m one.  Each bracket is
    anti-Hermitian, so S multiplies it by sign(j - i).  This is the K = 1
    case of the kernel behind ``chart_tensor``, which folds the
    K = 2 m n chart covectors into the columns of each product.
    """
    v = np.asarray(v, dtype=complex)
    return _l_images(z, v[..., np.newaxis, :, :])[..., 0, :, :]


def grassmann_local_pi(z: np.ndarray, v: np.ndarray, w: np.ndarray):
    """Chart value of the bivector on cotangent representatives v, w:
    i [ tr((L_z v)* w) - tr((L_z v) w*) ]; an array of values for stacks."""
    lzv = grassmann_l_operator(z, v)
    w = np.asarray(w, dtype=complex)
    val = 1j * (
        np.trace(lzv.mT.conj() @ w, axis1=-2, axis2=-1)
        - np.trace(lzv @ w.mT.conj(), axis1=-2, axis2=-1)
    )
    return val.real if np.ndim(val) else float(val.real)


@dataclass(frozen=True)
class CoordCoefficients:
    """Holomorphic-index coefficient matrices of a coordinate bivector.

    ``mixed[j, k]`` is the partial_j ^ conj(partial_k) coefficient and
    ``holo[j, k]`` the partial_j ^ partial_k coefficient; the antiholomorphic
    blocks follow by conjugation (the tensor is real).  Both may be stacks
    (..., n, n), one pair per chart point.
    """

    mixed: np.ndarray
    holo: np.ndarray

    def complex_matrix(self) -> np.ndarray:
        return np.block(
            [[self.holo, self.mixed], [np.conj(self.mixed), np.conj(self.holo)]]
        )


def cpn_coeffs(zvec: np.ndarray) -> CoordCoefficients:
    """Projective-space chart coefficients at the point z, or at each point
    of a stack (..., n).

    Diagonal mixed coefficients are -i S_j with
    S_j = 1 + sum_{k<j} |z_k|^2 - |z_j|^2 ||z||^2 - sum_{k>j} |z_k|^2;
    off-diagonal mixed entries are i z_j conj(z_k) ||z||^2 and the doubly
    holomorphic entries are -i z_j z_k (upper triangle, antisymmetrized).
    """
    z = np.asarray(zvec, dtype=complex)
    z = z.reshape(-1) if z.ndim < 2 else z
    n = z.shape[-1]
    mods = np.abs(z) ** 2
    rho2 = np.sum(mods, axis=-1)[..., np.newaxis, np.newaxis]
    zj, zk = z[..., :, np.newaxis], z[..., np.newaxis, :]
    off = ~np.eye(n, dtype=bool)
    mixed = np.where(off, 1j * zj * np.conj(zk) * rho2, 0.0)
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    holo = np.where(off, np.where(upper, -1j, 1j) * zj * zk, 0.0)
    for j in range(n):
        s_j = (
            1.0
            + np.sum(mods[..., :j], axis=-1)
            - mods[..., j] * rho2[..., 0, 0]
            - np.sum(mods[..., j + 1:], axis=-1)
        )
        mixed[..., j, j] = -1j * s_j
    return CoordCoefficients(mixed=mixed, holo=holo)


def coord_pi_value(coeffs: CoordCoefficients, v: np.ndarray, w: np.ndarray):
    """Evaluate a coordinate bivector on covectors given by their holomorphic
    component vectors: a float for one point, or one value per point for
    coefficient stacks (..., n, n) with component vectors (..., n)."""
    v = np.asarray(v, dtype=complex)[..., np.newaxis, :]
    w = np.asarray(w, dtype=complex)[..., :, np.newaxis]
    val = (
        v @ coeffs.holo @ w
        + v @ coeffs.mixed @ np.conj(w)
        + np.conj(v) @ np.conj(coeffs.mixed) @ w
        + np.conj(v) @ np.conj(coeffs.holo) @ np.conj(w)
    )[..., 0, 0]
    return np.real(val) if np.ndim(val) else float(np.real(val))


def cp2_degeneracy_p(z1, z2):
    """p = (1 + |z1|^2 - |z2|^2)(1 - ||z||^2)(1 + ||z||^2): a float, or an
    array of values for arrays z1, z2 that broadcast."""
    a1, a2 = np.abs(z1) ** 2, np.abs(z2) ** 2
    rho2 = a1 + a2
    p = (1.0 + a1 - a2) * (1.0 - rho2) * (1.0 + rho2)
    return p if np.ndim(p) else float(p)


@dataclass(frozen=True)
class Cp1Family:
    """The three chart coefficients on the projective line: the homogeneous
    structure, the projected Poisson-Lie structure, and the invariant
    Kostant-Kirillov-Souriau structure."""

    evens_lu: complex
    projected_pl: complex
    kks: complex


def cp1_family(z: complex) -> Cp1Family:
    """The three coefficients at z, or arrays of them for an array z.  |z|^2
    is taken by C hypot and pow, and 1 + |z|^2 squared as a product, so a
    point gives the same bits alone and inside an array."""
    a = np.float_power(np.hypot(z.real, z.imag), 2)
    b = 1.0 + a
    return Cp1Family(
        evens_lu=-1j * (1.0 - a * a),
        projected_pl=2j * a * b,
        kks=1j * (b * b),
    )


def fothlu_w_chart(w: complex) -> complex:
    """Chart coefficient -2i Im(w) (1 + |w|^2) of the real-form presentation
    of the two-sphere; an array of them for an array w.  |w|^2 is taken by
    C hypot and pow on both, so a point gives the same bits alone and inside
    an array."""
    return -2j * np.imag(w) * (1.0 + np.float_power(np.hypot(w.real, w.imag), 2))


# ---------------------------------------------------------------------------
# coordinate bivectors as real tensors, and the Jacobi residual


def reals_to_complex(x: np.ndarray) -> np.ndarray:
    """Complex vector of interleaved (re, im) coordinates on the last axis:
    a copy of the reals read as complex, so every bit is kept, the sign of
    a zero and a non-finite value included, for its reader to refuse."""
    x = np.array(x, dtype=float, ndmin=1)
    if x.shape[-1] % 2:
        raise ValueError("real coordinate vector must have even length")
    return x.view(complex)


def _chart_points(x: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """Chart points (..., 2 m n) of interleaved (re, im) coordinates as chart
    matrices (..., n, m), row-major.  ``symspace._chart_stack`` states every
    refusal: a point of another length reaches it as one point of that
    count, which it refuses naming the count, not the shape of a stack."""
    z = reals_to_complex(x)
    if z.shape[-1] != preset.m * preset.n:
        return np.zeros(z.shape[-1:], dtype=complex)
    return z.reshape(z.shape[:-1] + (preset.n, preset.m))


def _holo_to_real_frame(n: int) -> np.ndarray:
    """Substitution matrix from (partial_z, partial_zbar) to (partial_x, partial_y)."""
    t = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        t[2 * j, j] = 0.5
        t[2 * j + 1, j] = -0.5j
        t[2 * j, n + j] = 0.5
        t[2 * j + 1, n + j] = 0.5j
    return t


def coeffs_real_matrix(coeffs: CoordCoefficients) -> np.ndarray:
    """Real antisymmetric matrix of a coordinate bivector in interleaved
    (re, im) coordinates; a stack of them for stacked coefficients.  Raises
    NumericalDomainError unless every matrix is finite and real."""
    n = coeffs.mixed.shape[-1]
    t = _holo_to_real_frame(n)
    mat = t @ coeffs.complex_matrix() @ t.T
    imag, real = (np.max(np.abs(part), axis=(-2, -1)) for part in (mat.imag, mat.real))
    if not np.all(imag < 1e-9 * np.maximum(1.0, real)):
        raise NumericalDomainError("coordinate bivector is not finite and real at the point")
    return np.ascontiguousarray(mat.real)


def chart_tensor(x: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """Real antisymmetric matrix of the Grassmannian chart tensor at chart
    points (..., 2 m n) in interleaved (re, im) coordinates; projective space
    is m = 1.  Entry (a, b) pairs the covectors dual to the chart directions
    a and b under 2 Re tr(v d).  ``symspace._chart_stack`` refuses a group
    preset, a point of the wrong length and a point that is not finite
    (ValueError), as ``canonical_rep`` does; NumericalDomainError refuses a
    matrix that is not finite."""
    m, n = preset.m, preset.n
    z = _chart_stack(_chart_points(x, preset), preset)
    reps = np.ascontiguousarray(0.5 * chart_directions(preset).conj().mT)
    images = _l_images(z, reps)
    # i [tr(L_a* v_b) - tr(L_a v_b*)] = -2 Im tr(L_a* v_b): one GEMM of the
    # flattened (K, m n) views per point
    images = images.reshape(images.shape[:-2] + (m * n,))
    mat = -2.0 * (images.conj() @ reps.reshape(2 * m * n, m * n).T).imag
    if not np.all(np.isfinite(mat)):
        raise NumericalDomainError("coordinate bivector is not finite at the point")
    return mat


def fothlu_w_tensor(x: np.ndarray) -> np.ndarray:
    """Real matrix [[0, b], [-b, 0]] of the real-form chart tensor of the
    two-sphere at chart points (..., 2), with b = -Im(c) / 2 for the mixed
    coefficient c = ``fothlu_w_chart(w)``: the closed form of
    ``coeffs_real_matrix`` on a purely imaginary one-dimensional coefficient.
    Raises ValueError unless every point is one finite complex coordinate,
    and NumericalDomainError unless every b is finite."""
    w = reals_to_complex(x)
    if w.shape[-1] != 1:
        raise ValueError(f"fothlu chart points are 1 complex coordinate, got {w.shape[-1]}")
    if not np.all(np.isfinite(w)):
        raise ValueError("fothlu chart point entries must be finite")
    b = -0.5 * fothlu_w_chart(w[..., 0]).imag
    if not np.all(np.isfinite(b)):
        raise NumericalDomainError("coordinate bivector is not finite at the point")
    zero = np.zeros_like(b)
    return np.stack([np.stack([zero, b], -1), np.stack([-b, zero], -1)], -2)


def jacobi_residual(tensor: Callable[[np.ndarray], np.ndarray], point: np.ndarray):
    """Max component of the Schouten bracket of a chart tensor with itself,
    with coefficient derivatives by central differences of step ``FD_STEP``:
    a float, or one value per point for a stack of points (..., dim_real).

    ``tensor`` maps points (..., dim_real) to real antisymmetric matrices, or
    to anything that broadcasts to them; each point and its 2 dim_real
    shifted copies go through it in one call.  On a chart of real dimension
    2 the bracket has no component: the value is 0.0, and only the tensor's
    refusal of a point where it is not finite can fail."""
    x = np.asarray(point, dtype=float)
    x = x.reshape(-1) if x.ndim < 1 else x
    dim = x.shape[-1]
    steps = FD_STEP * np.eye(dim)
    x = x[..., np.newaxis, :]
    stencil = np.concatenate([x, x + steps, x - steps], axis=-2)
    mats = np.broadcast_to(tensor(stencil), stencil.shape + (dim,))
    grad = (mats[..., 1:dim + 1, :, :] - mats[..., dim + 1:, :, :]) / (2 * FD_STEP)
    # term[a, b, c] = sum_d pi[d, a] d_d pi[b, c]; the bracket is its cyclic sum
    term = np.einsum("...da,...dbc->...abc", mats[..., 0, :, :], grad)
    total = term + np.moveaxis(term, -1, -3) + np.moveaxis(term, -3, -1)
    a, b, c = np.indices((dim,) * 3)
    worst = np.max(np.abs(total[..., (a < b) & (b < c)]), axis=-1, initial=0.0)
    return worst if np.ndim(worst) else float(worst)


# ---------------------------------------------------------------------------
# chart-to-equivariant transfer and calibration


def chart_directions(preset: SymmetricSpacePreset) -> np.ndarray:
    """Real coordinate directions of the chart, interleaved (re, im), as a
    (2 m n, n, m) stack."""
    units = np.eye(preset.m * preset.n).reshape(-1, preset.n, preset.m)
    return np.stack([units, 1j * units], axis=1).reshape(-1, preset.n, preset.m)


def chart_covectors(
    preset: SymmetricSpacePreset,
    z: np.ndarray,
    covectors: list[np.ndarray],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Transfer chart cotangent representatives (m x n matrices) to
    equivariant cotangent classes at the canonical representative.

    With a and d the diagonal blocks of the representative, the chart
    direction dZ maps to the odd element with lower-left block d dZ a, which
    the class of v pairs to 2 Re tr(v dZ): its lower-left block is
    -d^-1 v* a^-1, with a^-1 = (1 + z* z) a and d^-1 = d (1 + z z*).  For a
    stack of chart points z, each covector is a matching stack (..., m, n)
    and so is each class.
    """
    z = np.asarray(z, dtype=complex)
    u = canonical_rep(z, preset)
    m = preset.m
    zh = z.mT.conj()
    a_inv = (np.eye(m) + zh @ z) @ u[..., :m, :m]
    d_inv = u[..., m:, m:] @ (np.eye(preset.n) + z @ zh)
    lower = -d_inv @ np.asarray(covectors, dtype=complex).mT.conj() @ a_inv
    classes = np.zeros(lower.shape[:-2] + u.shape[-2:], dtype=complex)
    classes[..., m:, :m] = lower
    classes[..., :m, m:] = -lower.mT.conj()
    return u, list(classes)


def chart_pi_eval(
    preset: SymmetricSpacePreset,
    z: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
):
    """Equivariant bivector value pulled through the chart differential: a
    float, or an array of values for a stack of chart points z with matching
    stacks v, w."""
    u, (xv, xw) = chart_covectors(preset, z, [v, w])
    return pi_eval(u, xv, xw, preset)


# Fixed reference data for the calibration constant.
_CALIBRATION_Z = np.array([[0.3 + 0.2j]])
_CALIBRATION_V = np.array([[0.7 - 0.4j]])
_CALIBRATION_W = np.array([[-0.25 + 0.55j]])


def calibration_constant() -> float:
    """Ratio of the chart formula to the chart-pulled equivariant value at a
    fixed reference point of the smallest Grassmannian.

    A single constant makes the two agree everywhere; its measured value
    (1.0 under this library's conventions) is reported rather than assumed.
    """
    preset = grassmannian(1, 1)
    local = grassmann_local_pi(_CALIBRATION_Z, _CALIBRATION_V, _CALIBRATION_W)
    equivariant = chart_pi_eval(preset, _CALIBRATION_Z, _CALIBRATION_V, _CALIBRATION_W)
    if abs(equivariant) < 1e-8:
        raise ZeroDivisionError("equivariant value at the reference point is degenerate")
    return local / equivariant
