"""Exact Jacobi oracle: the Schouten bracket [pi, pi] of the projective-space
chart bivectors, computed symbolically with sympy from the coefficient
formulas, vanishes identically; and the numeric stacked real matrices equal
the exact ones at rational points.  The numeric side of projective space is
the Grassmann chart kernel at gr:1,n, and that of the cp1 family the real
matrix of its ``cp1_family`` coefficient."""

from fractions import Fraction
from functools import lru_cache, partial

import numpy as np
import pytest
import sympy as sp

from birkhoff_poisson import chart_tensor, cp1_family, grassmannian
from birkhoff_poisson.poisson import CoordCoefficients, coeffs_real_matrix, reals_to_complex


def _real_frame(n):
    """Substitution matrix from (d_z, d_zbar) to interleaved (d_x, d_y)."""
    t = sp.zeros(2 * n, 2 * n)
    for j in range(n):
        t[2 * j, j] = sp.Rational(1, 2)
        t[2 * j + 1, j] = -sp.I / 2
        t[2 * j, n + j] = sp.Rational(1, 2)
        t[2 * j + 1, n + j] = sp.I / 2
    return t


def _real_matrix(mixed, holo, xs):
    """Real antisymmetric matrix of the bivector with the given holomorphic
    coefficient matrices, in the real coordinates xs."""
    n = mixed.shape[0]
    full = sp.BlockMatrix([[holo, mixed], [mixed.conjugate(), holo.conjugate()]]).as_explicit()
    t = _real_frame(n)
    mat = (t * full * t.T).applyfunc(lambda e: sp.expand(e))
    assert mat.applyfunc(lambda e: sp.expand(sp.im(e))) == sp.zeros(2 * n, 2 * n)
    return mat.applyfunc(lambda e: sp.expand(sp.re(e)))


@lru_cache(maxsize=None)
def _cpn(n):
    """cpn_coeffs written out symbolically: mixed diagonal -i S_j,
    off-diagonal i z_j conj(z_k) |z|^2, holo -+i z_j z_k."""
    xs = sp.symbols(f"x0:{2 * n}", real=True)
    z = [xs[2 * j] + sp.I * xs[2 * j + 1] for j in range(n)]
    mods = [sp.expand(zj * sp.conjugate(zj)) for zj in z]
    rho2 = sum(mods)
    mixed = sp.zeros(n, n)
    holo = sp.zeros(n, n)
    for j in range(n):
        s_j = 1 + sum(mods[:j]) - mods[j] * rho2 - sum(mods[j + 1:])
        mixed[j, j] = -sp.I * s_j
        for k in range(n):
            if k != j:
                mixed[j, k] = sp.I * z[j] * sp.conjugate(z[k]) * rho2
                holo[j, k] = (-sp.I if j < k else sp.I) * z[j] * z[k]
    return xs, _real_matrix(mixed, holo, xs)


@lru_cache(maxsize=None)
def _cp1(member):
    """cp1_family written out symbolically, with a = |z|^2."""
    xs = sp.symbols("x0:2", real=True)
    a = xs[0] ** 2 + xs[1] ** 2
    val = {
        "evens_lu": -sp.I * (1 - a * a),
        "projected_pl": 2 * sp.I * a * (1 + a),
        "kks": sp.I * (1 + a) ** 2,
    }[member]
    return xs, _real_matrix(sp.Matrix([[val]]), sp.zeros(1, 1), xs)


def _schouten(pi, xs):
    """Components a < b < c of [pi, pi], one at a time: the cyclic sum over
    (a, b, c) of sum_d pi[d, a] d_d pi[b, c]."""
    dim = len(xs)
    poly = [[sp.Poly(pi[i, j], *xs, domain="QQ") for j in range(dim)] for i in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            for c in range(b + 1, dim):
                yield sum(
                    (
                        poly[d][i] * poly[j][k].diff(xs[d])
                        for d in range(dim)
                        for i, j, k in ((a, b, c), (b, c, a), (c, a, b))
                    ),
                    sp.Poly(0, *xs, domain="QQ"),
                ).as_expr()


def _cp1_member(member):
    """Real matrices of one cp1 family member at points (..., 2)."""

    def real_matrix(x):
        val = getattr(cp1_family(reals_to_complex(x)[..., 0]), member)[..., np.newaxis, np.newaxis]
        return coeffs_real_matrix(CoordCoefficients(mixed=val, holo=np.zeros_like(val)))

    return real_matrix


def _grassmann(m, n):
    return partial(chart_tensor, preset=grassmannian(m, n))


# case: (exact matrix builder, numeric chart tensor)
CASES = {
    "cp1-evens_lu": (lambda: _cp1("evens_lu"), _cp1_member("evens_lu")),
    "cp1-projected_pl": (lambda: _cp1("projected_pl"), _cp1_member("projected_pl")),
    "cp1-kks": (lambda: _cp1("kks"), _cp1_member("kks")),
    "cpn:1": (lambda: _cpn(1), _grassmann(1, 1)),
    "cpn:2": (lambda: _cpn(2), _grassmann(1, 2)),
}

RATIONAL_POINTS = [
    [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), Fraction(1, 2)],
    [Fraction(-5, 4), Fraction(1, 9), Fraction(0), Fraction(-2, 3)],
    [Fraction(0), Fraction(0), Fraction(7, 8), Fraction(-1, 6)],
]


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_schouten_bracket_vanishes(case):
    build, _ = CASES[case]
    xs, pi = build()
    assert pi + pi.T == sp.zeros(*pi.shape)
    assert all(component == 0 for component in _schouten(pi, xs))


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_real_matrix_matches_the_exact_one(case):
    build, tensor = CASES[case]
    xs, pi = build()
    points = [p[: len(xs)] for p in RATIONAL_POINTS]
    numeric = tensor(np.array([[float(c) for c in p] for p in points]))
    for p, mat in zip(points, numeric):
        exact = pi.subs({x: sp.Rational(c.numerator, c.denominator) for x, c in zip(xs, p)})
        expected = np.array(exact.tolist(), dtype=float)
        np.testing.assert_allclose(mat, expected, rtol=0, atol=1e-14 * max(1.0, np.max(np.abs(expected))))


def test_schouten_oracle_sees_a_broken_bivector():
    # doubling the doubly holomorphic terms of cp2 breaks the identity
    xs, pi = _cpn(2)
    z = [xs[0] + sp.I * xs[1], xs[2] + sp.I * xs[3]]
    holo = sp.Matrix([[0, -sp.I * z[0] * z[1]], [sp.I * z[0] * z[1], 0]])
    extra = _real_matrix(sp.zeros(2, 2), holo, xs)
    assert any(component != 0 for component in _schouten(pi + extra, xs))
