"""Independent oracles for the benchmark's output checks.

Nothing here imports the program: every quantity is rebuilt from its
definition with plain numpy, so a check compares the program against a
second computation, never against a stored copy of an earlier output.

* ``canonical_rep``     -- the coset representative with positive definite
  diagonal blocks, from its own eigendecompositions of I + Z*Z and I + ZZ*.
* ``bivector_matrix``   -- the matrix of the skew operator on the odd basis,
  built in one pass from the stacked basis: u B u*, a traceless re-centre,
  the -i / +i strict-triangle mask, conjugation back, the theta projection
  (W - W*)/4 with W = Z + J Z* J, and one einsum.
* ``leading_minors`` / ``top_layer_moment`` -- |h_k| = |D_k / D_(k-1)| from the
  leading principal minors of the Cartan image and
  mu = -1/2 sum_k t_k log|h_k| for x = i diag(t).
* ``cp1_moment`` and ``cp2_p`` -- the closed forms on the projective line
  and plane: mu = log((1+|z|^2)/(1-|z|^2)) and
  p = (1+|z1|^2-|z2|^2)(1-rho^2)(1+rho^2), whose zero set is where the
  bivector drops rank.

Run ``python3 bench/oracles.py`` for the self-test, which also shows that
each oracle rejects a perturbed input.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9


def _inv_sqrt(p: np.ndarray) -> np.ndarray:
    w, q = np.linalg.eigh(0.5 * (p + p.conj().T))
    return (q * w ** -0.5) @ q.conj().T


def theta_matrix(m: int, n: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(m), -np.ones(n)])).astype(complex)


def canonical_rep(z: np.ndarray) -> np.ndarray:
    """Representative [[a, -a Z*], [Z a, d]] of the plane graphed by the n x m
    chart matrix Z, with a = (I+Z*Z)^(-1/2) and d = (I+ZZ*)^(-1/2)."""
    z = np.asarray(z, dtype=complex)
    n, m = z.shape
    a = _inv_sqrt(np.eye(m) + z.conj().T @ z)
    d = _inv_sqrt(np.eye(n) + z @ z.conj().T)
    return np.block([[a, -a @ z.conj().T], [z @ a, d]])


def cartan_image(u: np.ndarray, m: int, n: int) -> np.ndarray:
    """phi = u theta(u)^(-1) = u J u* J."""
    j = theta_matrix(m, n)
    return u @ j @ u.conj().T @ j


def odd_basis(m: int, n: int) -> np.ndarray:
    """Stacked orthonormal real basis of the odd anti-Hermitian subspace, in
    the order lower-left row, column, then (real, imaginary) twin."""
    dim = m + n
    out = np.zeros((2 * m * n, dim, dim), dtype=complex)
    k = 0
    for r in range(n):
        for c in range(m):
            for val in (1.0, 1.0j):
                out[k, m + r, c] = val / np.sqrt(2.0)
                out[k, c, m + r] = -np.conj(val) / np.sqrt(2.0)
                k += 1
    return out


def bivector_matrix(u: np.ndarray, m: int, n: int) -> np.ndarray:
    """Real matrix of X -> proj_odd(u* H(u X u*) u) on the odd basis."""
    dim = m + n
    basis = odd_basis(m, n)
    uh = u.conj().T
    lifted = u @ basis @ uh
    trace = np.einsum("kii->k", lifted)
    lifted = lifted - (trace / dim)[:, None, None] * np.eye(dim)
    mask = 1j * (np.triu(np.ones((dim, dim)), 1) - np.tril(np.ones((dim, dim)), -1))
    back = uh @ (mask * lifted) @ u
    j = theta_matrix(m, n)
    w = back + j @ np.conj(np.swapaxes(back, 1, 2)) @ j
    projected = 0.25 * (w - np.conj(np.swapaxes(w, 1, 2)))
    return np.einsum("sij,rij->sr", basis.conj(), projected).real


def numerical_rank(mat: np.ndarray, tol: float = RANK_TOL) -> int:
    return int(np.sum(np.linalg.svd(mat, compute_uv=False) > tol))


def leading_minors(phi: np.ndarray) -> np.ndarray:
    return np.array([np.linalg.det(phi[:k, :k]) for k in range(1, phi.shape[0] + 1)])


def top_layer_moment(phi: np.ndarray, t: np.ndarray) -> float:
    """Momentum of x = i diag(t) at a top-layer point with Cartan image phi."""
    minors = leading_minors(phi)
    abs_h = np.abs(minors / np.concatenate([[1.0], minors[:-1]]))
    return float(-0.5 * np.sum(np.asarray(t) * np.log(abs_h)))


def cp1_moment(z: complex) -> float:
    """Momentum of diag(i, -i) on the projective line."""
    a = abs(z) ** 2
    return float(np.log((1.0 + a) / (1.0 - a)))


def cp2_p(z1: complex, z2: complex) -> float:
    a1, a2 = abs(z1) ** 2, abs(z2) ** 2
    rho2 = a1 + a2
    return float((1.0 + a1 - a2) * (1.0 - rho2) * (1.0 + rho2))


def close(a, b, tol: float) -> bool:
    """Max-norm agreement within tol, relative to max(1, |b|)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol * scale)


# ---------------------------------------------------------------------------
# self-test


def _explicit_bivector_matrix(u: np.ndarray, m: int, n: int) -> np.ndarray:
    """Loop form of the same operator, one basis element at a time."""
    dim = m + n
    basis = odd_basis(m, n)
    j = theta_matrix(m, n)
    out = np.zeros((len(basis), len(basis)))
    for r, x in enumerate(basis):
        lifted = u @ x @ u.conj().T
        lifted = lifted - np.trace(lifted) / dim * np.eye(dim)
        hil = -1j * np.tril(lifted, -1) + 1j * np.triu(lifted, 1)
        back = u.conj().T @ hil @ u
        w = back + j @ back.conj().T @ j
        img = 0.25 * (w - w.conj().T)
        for s, e in enumerate(basis):
            out[s, r] = float(np.real(np.vdot(e, img)))
    return out


def self_test() -> list[str]:
    """Return the failed self-test statements (empty when all hold).

    Each oracle is checked against a property it must satisfy and is shown
    to reject a perturbed input, so a check cannot pass vacuously.
    """
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    rng = np.random.default_rng(20060608)
    for m, n in ((1, 1), (1, 2), (2, 2), (2, 3)):
        z = 0.4 * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        u = canonical_rep(z)
        dim = m + n
        expect(np.allclose(u @ u.conj().T, np.eye(dim), atol=1e-13), f"rep unitary gr:{m},{n}")
        a = u[:m, :m]
        expect(np.allclose(a, a.conj().T, atol=1e-14) and np.linalg.eigvalsh(a)[0] > 0,
               f"rep diagonal block positive gr:{m},{n}")
        expect(np.allclose(u[m:, :m] @ np.linalg.inv(a), z, atol=1e-13), f"rep graphs z gr:{m},{n}")
        phi = cartan_image(u, m, n)
        expect(np.allclose(phi.conj().T, theta_matrix(m, n) @ phi @ theta_matrix(m, n), atol=1e-13),
               f"phi* = theta(phi) gr:{m},{n}")
        mat = bivector_matrix(u, m, n)
        expect(np.max(np.abs(mat + mat.T)) < 1e-13, f"bivector skew gr:{m},{n}")
        expect(np.max(np.abs(mat - _explicit_bivector_matrix(u, m, n))) < 1e-13,
               f"bivector batched = loop gr:{m},{n}")
        bad = bivector_matrix(canonical_rep(z + 1e-3), m, n)
        expect(not close(bad, mat, 1e-12), f"bivector rejects perturbed point gr:{m},{n}")
        t = np.arange(dim, dtype=float) - (dim - 1) / 2.0
        mu = top_layer_moment(phi, t)
        # the layer torus acts by phi -> e^x phi e^x on the top layer, and the
        # momentum is linear in x: check that linearity and the sign flip
        expect(abs(top_layer_moment(phi, -t) + mu) < 1e-14, f"moment linear gr:{m},{n}")
        phi_bad = cartan_image(canonical_rep(z * 1.01), m, n)
        expect(abs(top_layer_moment(phi_bad, t) - mu) > 1e-6, f"moment rejects perturbed point gr:{m},{n}")

    for z in (0.3 + 0.2j, -0.6j, 0.85):
        u = canonical_rep(np.array([[z]]))
        mu = top_layer_moment(cartan_image(u, 1, 1), np.array([1.0, -1.0]))
        expect(abs(mu - cp1_moment(z)) < 1e-13, f"cp1 minors formula = closed form at {z}")
        expect(abs(mu - cp1_moment(z * 1.001)) > 1e-6, f"cp1 closed form rejects perturbed z {z}")
    # rank drops exactly on the loci
    expect(numerical_rank(bivector_matrix(canonical_rep(np.array([[0.5]])), 1, 1)) == 2, "cp1 full rank inside")
    expect(numerical_rank(bivector_matrix(canonical_rep(np.array([[1.0]])), 1, 1)) == 0, "cp1 rank 0 on |z| = 1")
    z_on = np.array([[0.6], [np.sqrt(1.0 - 0.36)]])
    expect(abs(cp2_p(z_on[0, 0], z_on[1, 0])) < 1e-15, "cp2 p vanishes on the unit sphere")
    expect(numerical_rank(bivector_matrix(canonical_rep(z_on), 1, 2)) < 4, "cp2 rank drops where p = 0")
    expect(numerical_rank(bivector_matrix(canonical_rep(np.array([[0.3], [0.4]])), 1, 2)) == 4,
           "cp2 full rank where p != 0")
    return failures


if __name__ == "__main__":
    import sys

    failed = self_test()
    for line in failed:
        print(f"FAIL {line}")
    print("oracle self-test:", "FAILED" if failed else "ok")
    sys.exit(1 if failed else 0)
