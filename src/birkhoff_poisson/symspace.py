"""Symmetric-space presentations, the projection onto the odd eigenspace,
the Cartan embedding, and coordinate charts with canonical representatives.

Every space is U/K with K the fixed points of an involution theta that is
conjugation by a signed permutation matrix J, and every element of U or of
its Lie algebra is stored as one square complex matrix of size m + n:

* Grassmannian(m, n): the special unitary group of size m + n modulo the
  block-diagonal stabilizer of the plane spanned by the first m coordinates.
  J = diag(I_m, -I_n); projective space is the m = 1 case.
* GroupCase(n): the product of two copies of the special unitary group of
  size n modulo the diagonal.  The pair (k1, k2) is stored as the
  block-diagonal matrix diag(k1, k2), so m = n, and J is the swap of the two
  blocks.  Odd algebra elements are diag(x, -x).

``theta_g``, ``cartan_embed``, ``adjoint_act``, ``block_diag`` and
``project_ip`` act on stacks (..., d, d), d = m + n, matrix by matrix, and
``canonical_rep`` on stacks (..., n, m) of chart matrices.  ``ip_basis`` is
one cached read-only (dim_ip, d, d) array.

A chart point reaches its coset point by one kernel: ``canonical_rep``
builds the representative from one singular value decomposition of the chart
matrix and holds the one refusal rule for chart points.  Where the chart
matrix is one column or one row (cpN, gr:M,1), that decomposition is
z = (z / |z|) |z| 1 in closed form, with no LAPACK call.  Its Cartan image is
``cartan_embed`` of that representative, for every caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericalDomainError
from .linalg import _cmatmul, check_hpd_spectrum

KIND_GRASSMANNIAN = "grassmannian"
KIND_GROUP = "group"


@dataclass(frozen=True)
class SymmetricSpacePreset:
    """Immutable descriptor of a symmetric-space presentation."""

    kind: str
    m: int
    n: int

    @property
    def matrix_dim(self) -> int:
        return self.m + self.n

    @property
    def dim_ip(self) -> int:
        """Real dimension of the odd subspace."""
        return 2 * self.m * self.n if self.is_inner else self.n * self.n - 1

    @cached_property
    def theta_index_mask(self) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
        """J = S P as an ``np.ix_`` index of the permutation P and the mask
        s_i s_j of the signs S, so that J g J = g[index] * mask."""
        signs = _j_diagonal(self)
        if signs is not None:
            perm = np.arange(self.matrix_dim)
        else:
            perm = np.concatenate([np.arange(self.n, 2 * self.n), np.arange(self.n)])
            signs = np.ones(2 * self.n)
        return np.ix_(perm, perm), np.outer(signs, signs)

    @property
    def label(self) -> str:
        if self.kind == KIND_GRASSMANNIAN:
            if self.m == 1:
                return f"cp{self.n}" if self.n <= 9 else f"cpn:{self.n}"
            return f"gr:{self.m},{self.n}"
        return f"group:su{self.n}"

    @property
    def is_inner(self) -> bool:
        return self.kind == KIND_GRASSMANNIAN


def _j_diagonal(preset: SymmetricSpacePreset) -> np.ndarray | None:
    """The diagonal of J where J is diagonal, as ``linalg._pivot_minors``
    takes it: +1 m times, then -1 n times, for a Grassmannian; None in the
    group case, whose J swaps the two blocks."""
    return np.repeat([1.0, -1.0], [preset.m, preset.n]) if preset.is_inner else None


def grassmannian(m: int, n: int) -> SymmetricSpacePreset:
    if m < 1 or n < 1:
        raise ValueError("block sizes must be positive")
    return SymmetricSpacePreset(KIND_GRASSMANNIAN, m, n)


def group_case(n: int) -> SymmetricSpacePreset:
    if n < 2:
        raise ValueError("group case needs factor size at least 2")
    return SymmetricSpacePreset(KIND_GROUP, n, n)


def parse_preset(spec: str) -> SymmetricSpacePreset:
    """Parse preset strings: gr:m,n | cpN | cpn:N | group:suN | suN."""
    spec = spec.strip().lower()
    if spec.startswith("gr:"):
        parts = spec[3:].split(",")
        if len(parts) != 2:
            raise ValueError(f"malformed Grassmannian preset {spec!r}")
        return grassmannian(int(parts[0]), int(parts[1]))
    if spec.startswith("cpn:"):
        return grassmannian(1, int(spec[4:]))
    if spec.startswith("cp") and spec[2:].isdigit():
        return grassmannian(1, int(spec[2:]))
    group = spec.removeprefix("group:")
    if group.startswith("su") and group[2:].isdigit():
        return group_case(int(group[2:]))
    raise ValueError(f"unknown preset {spec!r}")


def block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """diag(a, b): the stored form of the group-case pair (a, b); a and b
    may be stacks that broadcast, giving a stack."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    p, d = a.shape[-1], a.shape[-1] + b.shape[-1]
    out = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (d, d), dtype=complex)
    out[..., :p, :p] = a
    out[..., p:, p:] = b
    return out


def theta_g(g: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """The involution J g J on group elements and Lie algebra elements."""
    g = np.asarray(g)
    (rows, cols), mask = preset.theta_index_mask
    if g.shape[-2:] != mask.shape:
        raise ValueError(f"elements of {preset.label} are {mask.shape} matrices, got {g.shape}")
    return g[..., rows, cols] * mask


def cartan_embed(u: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """Totally geodesic embedding of the coset space: u K -> u theta(u)^(-1).

    The image satisfies phi* = theta(phi) and is unitary.  u theta(u)* is
    one real GEMM (``linalg._cmatmul``) for a stack and one matrix alike;
    on a stack of small matrices it costs far less than numpy's complex
    matmul.
    """
    u = np.asarray(u, dtype=complex)
    return _cmatmul(u, theta_g(u, preset).mT.conj())


def _chart_stack(z: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """z, a chart matrix (n, m) or a stack (..., n, m) of them, as a complex
    array; a ValueError refuses any other shape and a non-finite entry."""
    if not preset.is_inner:
        raise ValueError("charts exist for the Grassmannian family only")
    z = np.asarray(z, dtype=complex)
    if z.shape[-2:] != (preset.n, preset.m):
        raise ValueError(f"chart matrix must be {preset.n} x {preset.m}, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("chart matrix entries must be finite")
    return z


def _thin_svd(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin singular value decomposition z = U S V* of a chart matrix or a
    stack, in the form ``np.linalg.svd(z, full_matrices=False)`` returns.

    Where min(m, n) = 1 the one singular value is |z|, and the factors come
    in closed form with no LAPACK call: U = z / |z| and V = 1 for a column
    z, the roles swapped for a row, and U = e_1 at z = 0.  |z| is reduced
    with ``hypot``, which scales every step, so no square under- or
    overflows before s^2 does.  z / |z| divides the real and imaginary
    parts apart: complex division takes 1 / |z|, which overflows where |z|
    is subnormal.
    """
    if min(z.shape[-2:]) > 1:
        return np.linalg.svd(z, full_matrices=False)
    s = np.hypot.reduce(np.abs(z.reshape(z.shape[:-2] + (-1,))), axis=-1, keepdims=True)
    unit = np.zeros_like(z)
    unit[..., 0, 0] = 1.0
    for part, out in ((z.real, unit.real), (z.imag, unit.imag)):
        np.divide(part, s[..., np.newaxis], out=out, where=s[..., np.newaxis] > 0)
    one = np.ones(z.shape[:-2] + (1, 1), dtype=complex)
    return (unit, s, one) if z.shape[-1] == 1 else (one, s, unit)


def canonical_rep(z: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """Unique coset representative with Hermitian positive definite diagonal
    blocks for the plane graphed by the n x m chart matrix z.  A stack of
    chart matrices (..., n, m) gives the stack of representatives.

    From the thin singular value decomposition z = U S V*, with
    k = min(m, n) singular values, let C hold cos_j = (1 + s_j^2)^(-1/2).
    On a rank-one chart, k = 1 (cpN and gr:M,1), the decomposition is taken
    in closed form and no LAPACK routine runs (``_thin_svd``).
    The blocks are a = I + V (C - I) V* = (I + z* z)^(-1/2), z a = U S C V*
    and d = I + U (C - I) U* = (I + z z*)^(-1/2), and
    u = [[a, -(z a)*], [z a, d]].  In the frame of the singular vectors, u
    is a rotation by t_j = arctan s_j in the plane of the j-th columns of V
    and U, so it is unitary to rounding at every condition number it
    accepts.  cos_j - 1 is taken as -2 sin^2(t_j / 2), free of cancellation
    near the origin, and each term is divided by the squared lengths of its
    singular vectors, which come out unit only to a few roundings.

    A chart point is refused where an s_j^2 overflows, as I + z* z does, and
    where I + z* z or I + z z* reads as singular to ``check_hpd_spectrum``:
    their eigenvalues are the 1 + s_j^2, and 1 as well unless m = n.
    """
    z = _chart_stack(z, preset)
    m, n = preset.m, preset.n
    with np.errstate(over="ignore"):
        u, s, vh = _thin_svd(z)
        s2 = s * s
    if not np.all(np.isfinite(s2)):
        raise NumericalDomainError("chart point overflows: I + z* z is not finite")
    check_hpd_spectrum(1.0 + (s2[..., -1] if m == n else 0.0), 1.0 + s2[..., 0])
    t = np.arctan(s)
    cos_minus_1 = -2.0 * np.sin(0.5 * t) ** 2
    lu, lv = np.linalg.norm(u, axis=-2), np.linalg.norm(vh, axis=-1)
    rep = np.empty(z.shape[:-2] + (m + n, m + n), dtype=complex)
    rep[..., :m, :m] = np.eye(m) + (vh.mT.conj() * (cos_minus_1 / lv**2)[..., np.newaxis, :]) @ vh
    za = rep[..., m:, :m]
    za[...] = (u * (np.sin(t) / (lu * lv))[..., np.newaxis, :]) @ vh
    rep[..., :m, m:] = -za.mT.conj()
    rep[..., m:, m:] = np.eye(n) + (u * (cos_minus_1 / lu**2)[..., np.newaxis, :]) @ u.mT.conj()
    return rep


def project_ip(z: np.ndarray, preset: SymmetricSpacePreset) -> np.ndarray:
    """Component along the odd anti-Hermitian subspace in the splitting of
    the complexified algebra: (z + theta(z*) - (z + theta(z*))*) / 4."""
    z = np.asarray(z, dtype=complex)
    w = theta_g(z.mT.conj(), preset)
    w += z
    w -= w.mT.conj()
    w *= 0.25
    return w


def elem_real_inner(x: np.ndarray, y: np.ndarray) -> float:
    """Real Frobenius inner product Re tr(x* y)."""
    return float(np.real(np.vdot(x, y)))


def adjoint_act(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ad(u) x = u x u^(-1) for unitary u."""
    return u @ x @ np.asarray(u).mT.conj()


def unitary_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) for anti-Hermitian x, or each matrix of a stack (..., d, d),
    via the eigendecomposition of i x."""
    x = np.asarray(x, dtype=complex)
    herm = 1j * x
    herm = 0.5 * (herm + herm.mT.conj())
    w, q = np.linalg.eigh(herm)
    return (q * np.exp(-1j * w)[..., np.newaxis, :]) @ q.mT.conj()


# ---------------------------------------------------------------------------
# bases


def su_basis(n: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of the anti-Hermitian traceless n x n
    matrices: rotation/phase pairs off the diagonal, then diagonal phases."""
    basis: list[np.ndarray] = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = inv_sqrt2
            a[k, j] = -inv_sqrt2
            basis.append(a)
            b = np.zeros((n, n), dtype=complex)
            b[j, k] = 1j * inv_sqrt2
            b[k, j] = 1j * inv_sqrt2
            basis.append(b)
    basis.extend(torus_basis(n))
    return basis


def torus_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the purely imaginary traceless diagonals."""
    basis = []
    for level in range(1, n):
        d = np.zeros(n)
        d[:level] = 1.0
        d[level] = -level
        d /= np.sqrt(level * (level + 1))
        basis.append(1j * np.diag(d).astype(complex))
    return basis


@lru_cache(maxsize=64)
def ip_basis(preset: SymmetricSpacePreset) -> np.ndarray:
    """Orthonormal (Frobenius) real basis of the odd anti-Hermitian subspace,
    as one cached read-only (dim_ip, d, d) array.

    Grassmannian: block off-diagonal matrices built from the elementary
    matrices of the lower-left block and their imaginary twins.  Group case:
    diag(b, -b) / sqrt(2) over the single-factor basis.
    """
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    m, n = preset.m, preset.n
    if preset.is_inner:
        basis = np.zeros((preset.dim_ip, m + n, m + n), dtype=complex)
        for k, (r, c, val) in enumerate(itertools.product(range(n), range(m), (1.0, 1.0j))):
            basis[k, m + r, c] = val * inv_sqrt2
            basis[k, c, m + r] = -np.conj(val) * inv_sqrt2
    else:
        basis = np.array([block_diag(inv_sqrt2 * b, -inv_sqrt2 * b) for b in su_basis(n)])
    basis.setflags(write=False)
    return basis
