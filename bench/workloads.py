"""The benchmark's workloads: inputs made from a seed, the ``bpoisson`` calls
of one round, the checks of their outputs against the oracles, and the
figures each round yields.

A workload is a fixed list of calls (a round).  The benchmark runs the
round once untimed and then repeats it; each repeat must reproduce the
first round's output byte for byte.  After the last round it checks that
first output against ``oracles``.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles as O

MINOR_TOL = 1e-12      # |min_abs_minor - oracle|
MATRIX_TOL = 1e-12     # bivector matrix entries, relative to max(1, |entry|)
MOMENT_TOL = 1e-11     # momentum values, relative to max(1, |mu|)
LOCUS_MARGIN = 1e-6    # closed-form loci are checked this far from the zero set
JACOBI_BOUND = 1e-5    # Schouten residual bound implied by the bivector being Poisson
INTERIOR_MARGIN = 0.1  # min |leading minor| of the Cartan image at moment points


def _point_arg(z: np.ndarray) -> str:
    """--point value: the chart matrix row-major as re,im pairs."""
    flat = np.asarray(z, dtype=complex).reshape(-1)
    return "--point=" + ",".join(repr(float(v)) for c in flat for v in (c.real, c.imag))


def _complex_normal(rng: np.random.Generator, shape, scale: float) -> np.ndarray:
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


@dataclass
class Op:
    """One ``bpoisson`` call and the check of its output.

    ``check(rc, stdout)`` returns the number of operations attempted and
    a description of each operation that failed.
    """

    argv: list[str]
    check: Callable[[int, str], tuple[int, list[str]]]


@dataclass
class Workload:
    """A round of calls plus the figures each round yields.

    ``figures`` maps a figure's name to its unit and to the function that
    reads it off one round's call times; ``throughput`` turns the medians
    of the figures into the workload's work completed per second.
    """

    name: str
    warmup_argv: list[str]
    ops: list[Op]
    figures: dict[str, tuple[str, Callable[[list[float]], float]]] = field(default_factory=dict)
    throughput: Callable[[dict[str, float]], float] | None = None
    # sweep only: cells checked, and those with a rank other than -1
    cells: int = 0
    classified: int = 0

    def medians(self, round_times: list[list[float]]) -> dict[str, float]:
        return {
            name: statistics.median(per_round(t) for t in round_times)
            for name, (_, per_round) in self.figures.items()
        }


# ---------------------------------------------------------------------------
# sweep


SWEEP_STEPS = 32


def _axis(lo: float, hi: float, steps: int) -> np.ndarray:
    h = (hi - lo) / steps
    return lo + h * (np.arange(steps) + 0.5)


def _sweep_grid(rng: np.random.Generator, preset: str) -> tuple[float, ...]:
    if preset == "cp2":
        lo = rng.uniform(0.0, 0.1, 2)
        width = rng.uniform(1.6, 2.0)
        bounds = (lo[0], lo[0] + width, lo[1], lo[1] + width)
    else:
        centre = rng.uniform(-0.25, 0.25, 2)
        half = rng.uniform(1.4, 1.8)
        bounds = (centre[0] - half, centre[0] + half, centre[1] - half, centre[1] + half)
    return tuple(float(v) for v in bounds)


def _sweep_check(workload: Workload, preset: str, grid: tuple[float, ...], fmt: str):
    m, n = (2, 2) if preset == "gr:2,2" else (1, 1 if preset == "cp1" else 2)
    xs = _axis(grid[0], grid[1], SWEEP_STEPS)
    ys = _axis(grid[2], grid[3], SWEEP_STEPS)
    expected = [(float(x), float(y)) for x in xs for y in ys]

    def chart(x: float, y: float) -> np.ndarray:
        if preset == "cp2":
            return np.array([[x], [y]], dtype=complex)
        z = np.zeros((n, m), dtype=complex)
        z[0, 0] = complex(x, y)
        return z

    def check(rc: int, out: str) -> tuple[int, list[str]]:
        cells = len(expected)
        if rc != 0:
            return cells, [f"rank-grid {preset} exit {rc}"] * cells
        if fmt == "csv":
            table = list(csv.reader(io.StringIO(out)))[1:]
            rows = [[float(v) for v in row] for row in table]
        else:
            rows = json.loads(out)["rows"]
        if len(rows) != cells:
            return cells, [f"rank-grid {preset} emitted {len(rows)} rows"] * cells
        failed = []
        for (x, y), row in zip(expected, rows):
            rank = int(row[2])
            workload.cells += 1
            u = O.canonical_rep(chart(x, y))
            minor = float(np.min(np.abs(O.leading_minors(O.cartan_image(u, m, n)))))
            ok = abs(row[0] - x) <= 1e-12 and abs(row[1] - y) <= 1e-12
            ok = ok and abs(row[3] - minor) <= MINOR_TOL
            if preset == "cp2":
                p = O.cp2_p(x, y)
                ok = ok and abs(row[4] - abs(p)) <= MATRIX_TOL * max(1.0, abs(p))
            if rank != -1:
                workload.classified += 1
                ok = ok and rank == O.numerical_rank(O.bivector_matrix(u, m, n))
                if preset == "cp1" and abs(x * x + y * y - 1.0) > LOCUS_MARGIN:
                    ok = ok and rank == 2
                if preset == "cp2" and abs(O.cp2_p(x, y)) > LOCUS_MARGIN:
                    ok = ok and rank == 4
            if not ok:
                failed.append(f"rank-grid {preset} cell ({x!r}, {y!r}): {row}")
        return cells, failed

    return check


def sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    workload = Workload(
        name="sweep",
        warmup_argv=["rank-grid", "--preset", "cp1", "--grid=-2,2,4,-2,2,4", "--format", "csv"],
        ops=[],
    )
    for preset, fmt in (("cp1", "csv"), ("cp2", "json"), ("gr:2,2", "csv")):
        grid = _sweep_grid(rng, preset)
        spec = ",".join(
            f"{grid[2 * a]!r},{grid[2 * a + 1]!r},{SWEEP_STEPS}" for a in range(2)
        )
        argv = ["rank-grid", "--preset", preset, f"--grid={spec}", "--format", fmt]
        workload.ops.append(Op(argv, _sweep_check(workload, preset, grid, fmt)))
    cells = 3 * SWEEP_STEPS * SWEEP_STEPS
    per_grid = SWEEP_STEPS * SWEEP_STEPS
    workload.figures = {
        "cells_per_s": ("cells/s", lambda t: cells / sum(t)),
        "cp1_cells_per_s": ("cells/s", lambda t: per_grid / t[0]),
        "cp2_cells_per_s": ("cells/s", lambda t: per_grid / t[1]),
        "gr22_cells_per_s": ("cells/s", lambda t: per_grid / t[2]),
    }
    workload.throughput = lambda figures: figures["cells_per_s"]
    return workload


# ---------------------------------------------------------------------------
# pointwise


PI_PRESET = (6, 10)
MOMENT_PRESETS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3))
JACOBI_PRESETS = ((1, 2), (2, 2), (2, 3))


def _label(m: int, n: int) -> str:
    return f"cp{n}" if m == 1 else f"gr:{m},{n}"


def _interior_chart(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Chart point whose Cartan image has every leading minor at least
    INTERIOR_MARGIN away from zero (rejection sampling)."""
    for _ in range(100_000):
        z = _complex_normal(rng, (n, m), 0.3)
        phi = O.cartan_image(O.canonical_rep(z), m, n)
        if np.min(np.abs(O.leading_minors(phi))) >= INTERIOR_MARGIN:
            return z
    raise RuntimeError(f"no interior point found for gr:{m},{n}")


def _pi_check(z: np.ndarray, m: int, n: int):
    def check(rc: int, out: str) -> tuple[int, list[str]]:
        if rc != 0:
            return 1, [f"pi gr:{m},{n} exit {rc}"]
        data = json.loads(out)
        mat = np.asarray(data["omega_matrix"], dtype=float)
        expected = O.bivector_matrix(O.canonical_rep(z), m, n)
        ok = data["dim_ip"] == 2 * m * n and mat.shape == expected.shape
        ok = ok and O.close(mat, expected, MATRIX_TOL)
        ok = ok and O.close(mat, -mat.T, MATRIX_TOL)
        ok = ok and data["rank"] == O.numerical_rank(expected)
        return 1, [] if ok else [f"pi gr:{m},{n} disagrees with the oracle"]

    return check


def _moment_check(z: np.ndarray, m: int, n: int):
    def check(rc: int, out: str) -> tuple[int, list[str]]:
        if rc != 0:
            return 1, [f"moment gr:{m},{n} exit {rc}"]
        data = json.loads(out)
        dim = m + n
        phi = O.cartan_image(O.canonical_rep(z), m, n)
        ok = data["layer_perm"] == list(range(dim)) and data["torus_dim"] == dim - 1
        ok = ok and len(data["mu"]) == len(data["basis"]) == dim - 1
        for mu, basis in zip(data["mu"], data["basis"]):
            x = np.asarray(basis, dtype=float)
            x = x[:, :, 0] + 1j * x[:, :, 1]
            t = np.imag(np.diag(x))
            ok = ok and np.allclose(x, 1j * np.diag(t), rtol=0.0, atol=1e-14)
            ok = ok and abs(np.sum(t)) <= 1e-12
            expected = O.top_layer_moment(phi, t)
            ok = ok and abs(mu - expected) <= MOMENT_TOL * max(1.0, abs(expected))
            if dim == 2:
                closed = t[0] * O.cp1_moment(complex(z[0, 0]))
                ok = ok and abs(mu - closed) <= MOMENT_TOL * max(1.0, abs(closed))
        return 1, [] if ok else [f"moment gr:{m},{n} disagrees with the oracle"]

    return check


def _jacobi_check(rc: int, out: str) -> tuple[int, list[str]]:
    if rc != 0:
        return 1, [f"jacobi exit {rc}"]
    residual = json.loads(out)["residual"]
    if np.isfinite(residual) and residual < JACOBI_BOUND:
        return 1, []
    return 1, [f"jacobi residual {residual!r} exceeds {JACOBI_BOUND}"]


def pointwise(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    ops = []
    m, n = PI_PRESET
    z = _complex_normal(rng, (n, m), 0.3)
    ops.append(Op(["pi", "--preset", _label(m, n), _point_arg(z)], _pi_check(z, m, n)))
    for m, n in MOMENT_PRESETS:
        z = _interior_chart(rng, m, n)
        ops.append(
            Op(["moment", "--preset", _label(m, n), _point_arg(z)], _moment_check(z, m, n))
        )
    for m, n in JACOBI_PRESETS:
        z = rng.uniform(-1.0, 1.0, (n, m)) + 1j * rng.uniform(-1.0, 1.0, (n, m))
        ops.append(Op(["jacobi", "--preset", _label(m, n), _point_arg(z)], _jacobi_check))
    n_moment = len(MOMENT_PRESETS)
    n_jacobi = len(JACOBI_PRESETS)
    workload = Workload(
        name="pointwise",
        warmup_argv=["moment", "--preset", "cp1", "--point=0.6,0"],
        ops=ops,
    )
    workload.figures = {
        "pi_call_s": ("s", lambda t: t[0]),
        "moment_calls_per_s": ("calls/s", lambda t: n_moment / sum(t[1:1 + n_moment])),
        "jacobi_calls_per_s": ("calls/s", lambda t: n_jacobi / sum(t[1 + n_moment:])),
    }
    workload.throughput = _call_rate_geomean
    return workload


def _call_rate_geomean(figures: dict[str, float]) -> float:
    """Geometric mean of the three call rates, so that each call kind moves
    the figure by the same share whatever its absolute cost."""
    rates = (1.0 / figures["pi_call_s"], figures["moment_calls_per_s"], figures["jacobi_calls_per_s"])
    return float(np.exp(np.mean(np.log(rates))))


# ---------------------------------------------------------------------------
# verify


# 42 is the README's example and fails lambda-identity/family-identity (an
# absolute 1e-14 bound on an error that grows like (1+|z|^2)^2); it stays in
# the list, so that fault is counted until it is mended.  0 is the CLI
# default, 424242 the reference seed of the project's notes.
VERIFY_SEEDS = (0, 1, 42, 424242)


KNOWN_FAULTS = frozenset({"verify --seed 42: lambda-identity/family-identity"})


# checks in one `verify all` report; a call that prints no report fails them all
CHECKS_PER_REPORT = 33


def _verify_check(seed: int):
    def check(rc: int, out: str) -> tuple[int, list[str]]:
        try:
            report = json.loads(out)
            checks = report["checks"]
        except (ValueError, KeyError, TypeError):
            report = None
        if rc not in (0, 1) or report is None:
            return CHECKS_PER_REPORT, [f"verify --seed {seed}: exit {rc} without a report"] * CHECKS_PER_REPORT
        failed = [f"verify --seed {seed}: {c['suite']}/{c['name']}" for c in checks if not c["pass"]]
        if rc != (1 if failed else 0) or report["pass"] != (not failed):
            failed = [f"verify --seed {seed}: exit {rc} contradicts the report"] * len(checks)
        return len(checks), failed

    return check


def verify(seed: int) -> Workload:
    start = seed % len(VERIFY_SEEDS)
    seeds = VERIFY_SEEDS[start:] + VERIFY_SEEDS[:start]
    ops = [Op(["verify", "all", "--seed", str(s)], _verify_check(s)) for s in seeds]
    reports = len(seeds)
    workload = Workload(
        name="verify",
        warmup_argv=["verify", "lambda-identity", "--seed", "0"],
        ops=ops,
    )
    workload.figures = {"verify_report_s": ("s", lambda t: sum(t) / reports)}
    workload.throughput = lambda figures: 1.0 / figures["verify_report_s"]
    return workload


WORKLOADS = {"sweep": sweep, "pointwise": pointwise, "verify": verify}
