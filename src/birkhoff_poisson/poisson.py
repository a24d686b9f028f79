"""The homogeneous Poisson bivector in equivariant form, the group-case
structures, and the local coordinate tensors with their cross-checks.

Equivariant side.  At a unitary coset representative u the bivector pairs
cotangent classes, odd anti-Hermitian matrices X, Y, through their frames
u X u*: the value is tr(H(u X u*) u Y u*) with H the Hilbert transform, for
both families, and for the group pairings at diag(1, k^(-1)).  Its matrix
on the odd basis pairs the frames u e_r u* in one GEMM.  ``omega_apply`` is
the skew operator itself: conjugate up, apply H, conjugate back down and
project to the odd subspace.

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
whole stack once and return one value per point.
One matrix in gives a scalar out.  ``cpn_coeffs``, ``cp1_family``,
``fothlu_w_chart`` and ``su2_el_matrix`` take stacks of chart points,
``coord_pi_value`` takes stacked coefficients with stacked component
vectors, and every ``CoordBivector.real_matrix`` takes points
(..., dim_real); the Jacobi residual evaluates its whole finite-difference
stencil, for one point or a stack of them, in one ``real_matrix`` call.
The chart kinds are cp1, cpn, grassmann and fothlu_w; the SU(2) group
pairing has no chart kind, it is ``su2_el_matrix`` on the (H, X, Y) frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidTangent
from .lie import hilbert_transform, trace_form
from .symspace import (
    SymmetricSpacePreset,
    adjoint_act,
    block_diag,
    canonical_rep,
    grassmannian,
    group_case,
    ip_basis,
    project_ip,
)

REALITY_TOL = 1e-10
JACOBI_FD_STEP = 1e-5


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


def _omega(u, x, preset: SymmetricSpacePreset) -> np.ndarray:
    """Ad(u^(-1)) H Ad(u) x projected to the odd subspace; u and x may be
    stacks that broadcast against each other."""
    u = np.asarray(u, dtype=complex)
    return project_ip(u.mT.conj() @ hilbert_transform(adjoint_act(u, x)) @ u, preset)


def omega_apply(u, x, preset: SymmetricSpacePreset):
    """Skew operator of the bivector at u: project Ad(u^(-1)) H Ad(u) x to the
    odd anti-Hermitian subspace; raise unless every x lies in that subspace."""
    _validate_ip(x, preset)
    return _omega(u, x, preset)


def pi_eval(u, x, y, preset: SymmetricSpacePreset):
    """Bivector value tr(H(Ad(u) x) Ad(u) y) on the cotangent classes [u, x],
    [u, y]: a float, or an array of values when u, x and y are stacks that
    broadcast.  It is tr(omega(x) y), as the projection is orthogonal, and
    real, as both factors are anti-Hermitian."""
    _validate_ip(x, preset)
    _validate_ip(y, preset)
    val = np.einsum("...ij,...ji->...", hilbert_transform(adjoint_act(u, x)), adjoint_act(u, y))
    return val.real if np.ndim(val) else float(val.real)


def matrix_of_omega(u, preset: SymmetricSpacePreset) -> np.ndarray:
    """Real matrix of the skew operator on the orthonormal basis of the odd
    anti-Hermitian subspace: entry (s, r) is Re <e_s, omega(e_r)>.

    u is one representative (d, d) or a stack (..., d, d); the result is
    (k, k) or (..., k, k).

    The projection to the odd subspace is orthogonal and Ad(u) is an
    isometry, so the entry is Re <F_s, H(F_r)> on the frames F_r = u e_r u*,
    one for both families.  A complex row viewed as reals interleaves
    (Re, Im), so Re(conj(F) H(F)^T) is one real GEMM of the views: k^2 d^2
    work, no projection and no second conjugation.  The GEMM is skew up to
    rounding; its skew part is returned, so entry (r, s) is bitwise -(s, r)
    and the diagonal is +0.0."""
    basis = ip_basis(preset)
    u = np.asarray(u, dtype=complex)
    frames = u[..., np.newaxis, :, :] @ basis @ u.mT.conj()[..., np.newaxis, :, :]
    images = hilbert_transform(frames)
    rows = (*frames.shape[:-2], frames.shape[-1] ** 2)
    mat = frames.reshape(rows).view(float) @ images.reshape(rows).view(float).mT
    mat -= mat.mT.copy()
    mat /= 2
    return mat


def pi_rank(u, preset: SymmetricSpacePreset, tol: float = 1e-9):
    """Numerical rank of the bivector at u at the given absolute threshold:
    an int, or an array of ranks for a stack of representatives."""
    ranks = np.linalg.matrix_rank(matrix_of_omega(u, preset), tol=tol)
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


def su2_el_matrix(k: np.ndarray) -> np.ndarray:
    """Raw pairing values of the homogeneous group structure on (H, X, Y):
    (3, 3), or (..., 3, 3) for a stack of k; the diagonal is 0."""
    frame = np.array(su2_frame())
    k = np.asarray(k, dtype=complex)[..., np.newaxis, np.newaxis, :, :]
    mat = pi_el_group(k, frame[:, np.newaxis], frame[np.newaxis, :])
    return np.where(np.eye(3, dtype=bool), 0.0, mat)


# ---------------------------------------------------------------------------
# local coordinate tensors


def grassmann_l_operator(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The R-linear chart operator applied to a cotangent representative.

    z is the n x m chart matrix, v an m x n cotangent representative; either
    may be a stack, (..., n, m) or (..., m, n).  The strict-upper-triangular
    corrections carry one factor of z* on the outside (left for the n x n
    bracket, right for the m x m bracket); each bracket is completed to a
    Hermitian matrix by adding its own conjugate transpose.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v, dtype=complex)
    zs = z.mT.conj()
    t1 = v - zs @ z @ v @ z @ zs
    b2 = np.triu(z @ v - v.mT.conj() @ zs, 1)
    t2 = zs @ (b2 + b2.mT.conj())
    b3 = np.triu(zs @ v.mT.conj() - v @ z, 1)
    t3 = (b3 + b3.mT.conj()) @ zs
    return t1 + t2 - t3


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


def _scalar_coeffs(val) -> CoordCoefficients:
    """Coefficients of a one-dimensional chart whose only term is the mixed
    one, val (a scalar or a stack of them)."""
    mixed = np.asarray(val, dtype=complex)[..., np.newaxis, np.newaxis]
    return CoordCoefficients(mixed=mixed, holo=np.zeros_like(mixed))


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
    """Complex vector of interleaved (re, im) coordinates on the last axis."""
    x = np.asarray(x, dtype=float)
    x = x.reshape(-1) if x.ndim < 1 else x
    if x.shape[-1] % 2:
        raise ValueError("real coordinate vector must have even length")
    return x[..., 0::2] + 1j * x[..., 1::2]


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
    (re, im) coordinates; a stack of them for stacked coefficients."""
    n = coeffs.mixed.shape[-1]
    t = _holo_to_real_frame(n)
    mat = t @ coeffs.complex_matrix() @ t.T
    imag, real = (np.max(np.abs(part), axis=(-2, -1)) for part in (mat.imag, mat.real))
    assert np.all(imag < 1e-9 * np.maximum(1.0, real))
    return np.ascontiguousarray(mat.real)


@dataclass(frozen=True)
class CoordBivector:
    """A coordinate bivector: real dimension, and the real antisymmetric
    matrix at a chart point given in interleaved (re, im) coordinates.
    ``real_matrix`` maps points (..., dim_real) to matrices (..., dim_real,
    dim_real), or to anything that broadcasts to them."""

    dim_real: int
    real_matrix: Callable[[np.ndarray], np.ndarray]


def coordinate_bivector(kind: str, m: int = 1, n: int = 1, member: str = "evens_lu") -> CoordBivector:
    """Factory for the supported chart bivectors.

    kind: cp1 | cpn | grassmann | fothlu_w (member selects the cp1 family
    element).
    """
    if kind == "cp1":
        def real_matrix(x: np.ndarray) -> np.ndarray:
            fam = cp1_family(reals_to_complex(x)[..., 0])
            return coeffs_real_matrix(_scalar_coeffs(getattr(fam, member)))

        return CoordBivector(dim_real=2, real_matrix=real_matrix)
    if kind == "cpn":
        return CoordBivector(
            dim_real=2 * n,
            real_matrix=lambda x: coeffs_real_matrix(cpn_coeffs(reals_to_complex(x))),
        )
    if kind == "grassmann":
        # dual to the chart directions under the pairing 2 Re tr(v d)
        reps = 0.5 * chart_directions(grassmannian(m, n)).conj().mT

        def real_matrix(x: np.ndarray) -> np.ndarray:
            z = reals_to_complex(x)
            z = z.reshape(z.shape[:-1] + (1, n, m))
            # i [tr(L_a* v_b) - tr(L_a v_b*)] = -2 Im tr(L_a* v_b)
            images = grassmann_l_operator(z, reps)
            return -2.0 * np.einsum("...aij,bij->...ab", images.conj(), reps).imag

        return CoordBivector(dim_real=2 * m * n, real_matrix=real_matrix)
    if kind == "fothlu_w":
        def real_matrix(x: np.ndarray) -> np.ndarray:
            w = reals_to_complex(x)[..., 0]
            return coeffs_real_matrix(_scalar_coeffs(fothlu_w_chart(w)))

        return CoordBivector(dim_real=2, real_matrix=real_matrix)
    raise ValueError(f"unknown coordinate bivector kind {kind!r}")


def jacobi_residual(bivector: CoordBivector, point: np.ndarray, fd_step: float = JACOBI_FD_STEP):
    """Max component of the Schouten bracket of the bivector with itself,
    with coefficient derivatives taken by central finite differences: a
    float, or one value per point for a stack of points (..., dim_real).

    Each point and its 2 dim_real shifted copies form a (..., 2 dim_real + 1,
    dim_real) stencil that goes through ``real_matrix`` in one call."""
    x = np.asarray(point, dtype=float)
    x = x.reshape(-1) if x.ndim < 1 else x
    dim = x.shape[-1]
    steps = fd_step * np.eye(dim)
    x = x[..., np.newaxis, :]
    stencil = np.concatenate([x, x + steps, x - steps], axis=-2)
    mats = np.broadcast_to(bivector.real_matrix(stencil), stencil.shape + (dim,))
    grad = (mats[..., 1:dim + 1, :, :] - mats[..., dim + 1:, :, :]) / (2 * fd_step)
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
    if z.ndim < 2:
        z = z.reshape(preset.n, preset.m)
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
