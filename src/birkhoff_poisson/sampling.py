"""Deterministic random samplers used by the spot-check suites and tests.

Every sampler that draws only standard normals is a ``Normals``: the number
of normals one sample takes, and a finisher that turns an (N, count) block
of them into a stack of N samples.  ``draw`` takes the normals of N samples
of several samplers in one generator call; since consecutive
``standard_normal`` calls give the same stream as one call of their total
size, it returns the samples, bit for bit, that a loop drawing one sample of
each sampler in turn would return, and leaves the generator where that loop
would.  One sample is a stack of one: ``sampler.one(rng)`` finishes one row.
``special_linear_stack`` skips near-singular blocks in generator order, as a
loop drawing one block at a time would.  ``random_point`` is
``point_sampler(preset).one(rng)``, and ``random_interior_point`` rejects
points near a layer boundary, so it draws one sample at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import principal_minors
from .symspace import (
    SymmetricSpacePreset,
    block_diag,
    cartan_embed,
    ip_basis,
    su_basis,
    unitary_exp,
)

# |det| at or below which a Ginibre block is redrawn
_SINGULAR_DET = 1e-6
_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Normals:
    """A sampler that draws only standard normals: ``count`` of them per
    sample, and ``finish``, which turns an (N, count) block of them into the
    stack of N samples."""

    count: int
    finish: Callable[[np.ndarray], np.ndarray]

    def one(self, rng: np.random.Generator):
        return self.finish(rng.standard_normal((1, self.count)))[0]


def _split(block: np.ndarray, samplers) -> list[np.ndarray]:
    """Finish each sampler on its consecutive columns of the block."""
    out, start = [], 0
    for sampler in samplers:
        out.append(sampler.finish(block[:, start:start + sampler.count]))
        start += sampler.count
    return out


def _joined(*samplers: Normals, combine) -> Normals:
    """Sampler whose sample is combine(*one sample of each sampler)."""
    return Normals(
        sum(s.count for s in samplers),
        lambda block: combine(*_split(block, samplers)),
    )


def draw(rng: np.random.Generator, count: int, *samplers: Normals) -> list[np.ndarray]:
    """count samples of each sampler, as stacks, from one standard_normal
    call: row i of the block holds the normals of the i-th round of a loop
    that draws one sample of each sampler in turn."""
    return _split(rng.standard_normal((count, sum(s.count for s in samplers))), samplers)


def complex_normal_sampler(shape) -> Normals:
    """Standard complex Gaussian of the given shape: the real parts, then the
    imaginary parts, each in C order."""
    shape = (shape,) if np.isscalar(shape) else tuple(shape)
    size = math.prod(shape)

    def finish(block: np.ndarray) -> np.ndarray:
        z = (block[:, :size] + 1j * block[:, size:]) / _SQRT2
        return z.reshape((len(block),) + shape)

    return Normals(2 * size, finish)


def _unit_determinant(g: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Each matrix of g divided by the principal n-th root of its det."""
    return g / np.exp(np.log(det) / g.shape[-1])[..., np.newaxis, np.newaxis]


def special_linear_stack(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Ginibre samples scaled to determinant one (principal n-th
    root), drawn as a loop of one block at a time draws them: a block with
    |det| <= 1e-6 is skipped in generator order and the next one taken."""
    normals = complex_normal_sampler((n, n))
    kept = []
    while count:
        g = normals.finish(rng.standard_normal((count, normals.count)))
        det = np.linalg.det(g)
        ok = np.abs(det) > _SINGULAR_DET
        kept.append(_unit_determinant(g[ok], det[ok]))
        count -= np.count_nonzero(ok)
    return np.concatenate(kept)


def special_unitary_sampler(n: int) -> Normals:
    """Haar sample: the phase-fixed QR factor of a Ginibre block, scaled to
    determinant one."""
    normals = complex_normal_sampler((n, n))

    def finish(block: np.ndarray) -> np.ndarray:
        q, r = np.linalg.qr(normals.finish(block))
        d = np.diagonal(r, axis1=-2, axis2=-1).copy()
        q = q * (d / np.abs(d))[..., np.newaxis, :]
        return _unit_determinant(q, np.linalg.det(q))

    return Normals(normals.count, finish)


def point_sampler(preset: SymmetricSpacePreset) -> Normals:
    """Random coset representative (diag(k1, k2) in the group case)."""
    if not preset.is_inner:
        k = special_unitary_sampler(preset.n)
        return _joined(k, k, combine=block_diag)
    return special_unitary_sampler(preset.matrix_dim)


def random_point(preset: SymmetricSpacePreset, rng: np.random.Generator):
    """Random coset representative (diag(k1, k2) in the group case)."""
    return point_sampler(preset).one(rng)


def random_interior_point(preset: SymmetricSpacePreset, rng: np.random.Generator):
    """Random point strictly inside the top Birkhoff layer: every leading
    principal minor of the Cartan image stays at least 0.1 away from zero;
    in the group case, diag(g, g*) with g = k1 k2*, those of g do.

    Finite-difference checks degenerate near layer boundaries (the momentum
    has logarithmic blow-up there), so boundary-margin sampling is the
    sampling analogue of restricting the projective line to |z| <= 0.9.
    """
    while True:
        u = random_point(preset, rng)
        if np.min(np.abs(principal_minors(cartan_embed(u, preset)))) >= 0.1:
            return u


def stabilizer_sampler(preset: SymmetricSpacePreset) -> Normals:
    """Random element of the stability subgroup."""
    if not preset.is_inner:
        return _joined(special_unitary_sampler(preset.n), combine=lambda k: block_diag(k, k))
    m, n = preset.m, preset.n
    dim = m + n

    def combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        blk = np.zeros((len(a), dim, dim), dtype=complex)
        blk[:, :m, :m] = 0.5 * (a - a.mT.conj())
        blk[:, m:, m:] = 0.5 * (b - b.mT.conj())
        blk -= (np.trace(blk, axis1=-2, axis2=-1) / dim)[:, np.newaxis, np.newaxis] * np.eye(dim)
        return unitary_exp(blk)

    return _joined(complex_normal_sampler((m, m)), complex_normal_sampler((n, n)), combine=combine)


def _basis_sampler(basis) -> Normals:
    """A standard normal combination of the basis matrices."""

    def finish(block: np.ndarray) -> np.ndarray:
        return sum(c[:, np.newaxis, np.newaxis] * b for c, b in zip(block.T, basis))

    return Normals(len(basis), finish)


def ip_sampler(preset: SymmetricSpacePreset) -> Normals:
    """Random element of the odd anti-Hermitian subspace."""
    return _basis_sampler(ip_basis(preset))


def su_algebra_sampler(n: int) -> Normals:
    return _basis_sampler(su_basis(n))


def chart_sampler(preset: SymmetricSpacePreset) -> Normals:
    """Random chart matrix for a Grassmannian-family preset."""
    normals = complex_normal_sampler((preset.n, preset.m))
    return Normals(normals.count, lambda block: 0.8 * normals.finish(block))


def su2_sphere_sampler() -> Normals:
    """Uniform (a, b) with |a|^2 + |b|^2 = 1, as the rows of an (N, 2) stack."""
    normals = complex_normal_sampler(2)

    def finish(block: np.ndarray) -> np.ndarray:
        v = normals.finish(block)
        # the two dot products np.linalg.norm takes of one complex vector
        re, im = v.real[:, np.newaxis, :], v.imag[:, np.newaxis, :]
        sq = re @ re.mT + im @ im.mT
        return v / np.sqrt(sq[:, 0])

    return Normals(normals.count, finish)
