import numpy as np
import pytest

from birkhoff_poisson import (
    hilbert_transform,
    proj_u,
    trace_form,
    tri_project,
)
from birkhoff_poisson.lie import TRACELESS_TOL, ensure_traceless
from birkhoff_poisson.sampling import (
    complex_normal_sampler,
    special_linear_stack,
    su_algebra_sampler,
)


def e_mat(n, i, j):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def random_traceless(rng, n):
    z = complex_normal_sampler((n, n)).one(rng)
    return z - (np.trace(z) / n) * np.eye(n)


def test_tri_project_examples(rng):
    d = np.diag([1j, -2j, 1j])
    zm, zh, zp = tri_project(d)
    assert np.allclose(zm, 0) and np.allclose(zp, 0)
    np.testing.assert_allclose(zh, d)
    e12 = e_mat(3, 0, 1)
    zm, zh, zp = tri_project(e12)
    assert np.allclose(zm, 0) and np.allclose(zh, 0)
    np.testing.assert_allclose(zp, e12)


def test_tri_project_partition(rng):
    z = random_traceless(rng, 4)
    zm, zh, zp = tri_project(z)
    # the parts partition the (re-centered) input entry for entry
    np.testing.assert_array_equal(zm + zh + zp, ensure_traceless(z))
    np.testing.assert_allclose(zm + zh + zp, z, atol=1e-14)


def test_ensure_traceless_recenters_and_rejects():
    z = np.eye(2) * 1e-12
    np.testing.assert_allclose(np.trace(ensure_traceless(z + e_mat(2, 0, 1))), 0, atol=1e-18)
    with pytest.raises(ValueError):
        tri_project(np.eye(3, dtype=complex))


def _with_trace(tr, off, n=4):
    """An n x n matrix of trace tr, exactly: tr in the corner, off on the
    first superdiagonal and subdiagonal, so ||z||_F = |(tr, off, ...)|."""
    z = np.zeros((n, n), dtype=complex)
    z[0, 0] = tr
    z[np.arange(n - 1), np.arange(1, n)] = off
    z[np.arange(1, n), np.arange(n - 1)] = off
    return z


_CHECKED = [hilbert_transform, ensure_traceless, tri_project, proj_u]


@pytest.mark.parametrize("check", _CHECKED)
def test_traceless_check_at_the_bare_tolerance_when_the_norm_is_below_one(check, rng):
    # ||z|| < 1, so the bound is TRACELESS_TOL itself: |tr| at it passes,
    # the next float above it fails, alone or as one member of a stack
    just_above = np.nextafter(TRACELESS_TOL, 1.0)
    check(_with_trace(TRACELESS_TOL, 0.25))
    with pytest.raises(ValueError, match=r"not traceless, \|tr\| = 1\.000e-10"):
        check(_with_trace(just_above, 0.25))
    stack = np.array([random_traceless(rng, 4) * 0.1 for _ in range(5)])
    check(stack)
    stack[3] = _with_trace(-1j * just_above, 0.25)
    with pytest.raises(ValueError, match="not traceless"):
        check(stack)


@pytest.mark.parametrize("check", _CHECKED)
def test_traceless_check_scales_the_bound_by_the_norm_above_one(check):
    # ||z|| = 100 sqrt(6 + tiny): TRACELESS_TOL < |tr| < TRACELESS_TOL ||z||
    # passes, and |tr| past TRACELESS_TOL ||z|| fails
    norm = np.linalg.norm(_with_trace(0.0, 100.0))
    check(_with_trace(0.9 * TRACELESS_TOL * norm, 100.0))
    check(np.array([_with_trace(5 * TRACELESS_TOL, 100.0), _with_trace(0.0, 0.1)]))
    with pytest.raises(ValueError, match="not traceless"):
        check(_with_trace(1.01 * TRACELESS_TOL * norm, 100.0))


def test_traceless_check_passes_nan_as_it_always_has():
    # a NaN trace compares false against the bound, so it is not refused
    for z in (_with_trace(np.nan, 0.5), _with_trace(0.0, np.nan)):
        assert np.isnan(hilbert_transform(z)).any()
        assert np.isnan(ensure_traceless(z)).any()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 9])
def test_ensure_traceless_subtracts_the_traces_of_np_trace(n, rng):
    z = complex_normal_sampler((50, n, n)).one(rng)
    z -= (np.trace(z, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
    expected = z - (np.trace(z, axis1=-2, axis2=-1) / n)[:, None, None] * np.eye(n)
    np.testing.assert_array_equal(ensure_traceless(z), expected)


def test_hilbert_transform_examples():
    assert np.allclose(hilbert_transform(np.diag([1j, -1j])), 0)
    e12 = e_mat(2, 0, 1)
    np.testing.assert_allclose(hilbert_transform(e12), 1j * e12)


def test_hilbert_transform_on_a_stack(rng):
    stack = np.array([random_traceless(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
    out = hilbert_transform(stack)
    assert out.shape == stack.shape
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(out[index], hilbert_transform(stack[index]))
    # one matrix off the traceless subspace rejects the whole stack
    stack[1, 2] += np.eye(4)
    with pytest.raises(ValueError, match="not traceless"):
        hilbert_transform(stack)


def test_hilbert_preserves_compact_form(rng):
    z = su_algebra_sampler(4).one(rng)
    h = hilbert_transform(z)
    # still anti-Hermitian and traceless
    assert np.linalg.norm(h + h.conj().T) < 1e-12
    assert abs(np.trace(h)) < 1e-12


def test_hilbert_squared(rng):
    z = random_traceless(rng, 4)
    zm, zh, zp = tri_project(z)
    np.testing.assert_allclose(
        hilbert_transform(hilbert_transform(z)), -z + zh, atol=1e-14
    )


def test_hilbert_skew_for_trace_form(rng):
    for _ in range(20):
        x = su_algebra_sampler(3).one(rng)
        y = su_algebra_sampler(3).one(rng)
        lhs = trace_form(hilbert_transform(x), y)
        rhs = -trace_form(x, hilbert_transform(y))
        assert abs(lhs - rhs) <= 1e-12


def test_proj_u_examples(rng):
    z = su_algebra_sampler(3).one(rng)
    np.testing.assert_allclose(proj_u(z), z, atol=1e-13)
    d = np.diag([0.5, 0.25, -0.75]).astype(complex)
    np.testing.assert_allclose(proj_u(d), 0 * d, atol=1e-15)


def test_proj_u_is_projection_with_expected_kernel(rng):
    n = 3
    z = random_traceless(rng, n)
    once = proj_u(z)
    np.testing.assert_allclose(proj_u(once), once, atol=1e-13)
    # kernel contains the strict lower triangle and the real diagonals
    assert np.allclose(proj_u(e_mat(n, 2, 0)), 0)
    assert np.allclose(proj_u(np.diag([1.0, -2.0, 1.0]).astype(complex)), 0)


def test_proj_u_of_i_times_compact_is_hilbert(rng):
    z = su_algebra_sampler(4).one(rng)
    np.testing.assert_allclose(proj_u(1j * z), hilbert_transform(z), atol=1e-13)


def test_trace_form_examples(rng):
    assert trace_form(e_mat(3, 0, 1), e_mat(3, 1, 0)) == pytest.approx(1.0)
    x, y = random_traceless(rng, 3), random_traceless(rng, 3)
    assert trace_form(x, y) == pytest.approx(trace_form(y, x))
    g = special_linear_stack(3, 1, rng)[0]
    gi = np.linalg.inv(g)
    lhs = trace_form(g @ x @ gi, g @ y @ gi)
    assert abs(lhs - trace_form(x, y)) <= 1e-11 * max(1.0, abs(trace_form(x, y)))
