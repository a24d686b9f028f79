"""Deterministic random samplers used by the spot-check suites and tests."""

from __future__ import annotations

import numpy as np

from .linalg import principal_minors
from .symspace import (
    SymmetricSpacePreset,
    block_diag,
    ip_basis,
    layer_image,
    su_basis,
    unitary_exp,
)


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_special_linear(n: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre sample scaled to determinant one (principal n-th root)."""
    while True:
        g = complex_normal(rng, (n, n))
        det = np.linalg.det(g)
        if abs(det) > 1e-6:
            return g / np.exp(np.log(det) / n)


def random_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(complex_normal(rng, (n, n)))
    d = np.diag(r)
    q = q * (d / np.abs(d))[np.newaxis, :]
    det = np.linalg.det(q)
    return q / np.exp(np.log(det) / n)


def random_point(preset: SymmetricSpacePreset, rng: np.random.Generator):
    """Random coset representative (diag(k1, k2) in the group case)."""
    if not preset.is_inner:
        return block_diag(
            random_special_unitary(preset.n, rng), random_special_unitary(preset.n, rng)
        )
    return random_special_unitary(preset.matrix_dim, rng)


def random_interior_point(
    preset: SymmetricSpacePreset, rng: np.random.Generator, margin: float = 0.1
):
    """Random point strictly inside the top Birkhoff layer: every principal
    minor of the layer image stays at least ``margin`` away from zero.

    Finite-difference checks degenerate near layer boundaries (the momentum
    has logarithmic blow-up there), so boundary-margin sampling is the
    sampling analogue of restricting the projective line to |z| <= 0.9.
    """
    while True:
        u = random_point(preset, rng)
        if np.min(np.abs(principal_minors(layer_image(u, preset)))) >= margin:
            return u


def random_stabilizer(preset: SymmetricSpacePreset, rng: np.random.Generator):
    """Random element of the stability subgroup."""
    if not preset.is_inner:
        k = random_special_unitary(preset.n, rng)
        return block_diag(k, k)
    m, n = preset.m, preset.n
    dim = m + n
    a = complex_normal(rng, (m, m))
    b = complex_normal(rng, (n, n))
    blk = np.zeros((dim, dim), dtype=complex)
    blk[:m, :m] = 0.5 * (a - a.conj().T)
    blk[m:, m:] = 0.5 * (b - b.conj().T)
    blk -= (np.trace(blk) / dim) * np.eye(dim)
    return unitary_exp(blk)


def random_ip(preset: SymmetricSpacePreset, rng: np.random.Generator, scale: float = 1.0):
    """Random element of the odd anti-Hermitian subspace."""
    basis = ip_basis(preset)
    coeffs = scale * rng.standard_normal(len(basis))
    return sum(c * b for c, b in zip(coeffs, basis))


def random_su_algebra(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    basis = su_basis(n)
    coeffs = scale * rng.standard_normal(len(basis))
    return sum(c * b for c, b in zip(coeffs, basis))


def random_chart(preset: SymmetricSpacePreset, rng: np.random.Generator, scale: float = 0.8):
    """Random chart matrix for a Grassmannian-family preset."""
    return scale * complex_normal(rng, (preset.n, preset.m))


def random_su2_sphere(rng: np.random.Generator) -> tuple[complex, complex]:
    """Uniform (a, b) with |a|^2 + |b|^2 = 1."""
    v = complex_normal(rng, 2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])
