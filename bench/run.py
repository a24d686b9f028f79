"""Benchmark of the ``bpoisson`` command, driven in-process through
``birkhoff_poisson.cli.main``.

    python3 bench/run.py --workload sweep|pointwise|verify --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured with
tracing off; with ``--trace 1`` they are its per-layer metrics, from rounds
run with every public function of the package wrapped in a span (see
tracer.py), plus the tracing overhead against untraced rounds of the same
run.  Every timed call is followed by reference work (reference.py), and
call times are reported in reference seconds, so that the host's swings in
speed cancel.  Lines before it, starting with ``#``, give the figures behind
the metrics, in wall-clock and in reference seconds, with their sample
counts.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_REPEATS = 9
MIN_TIMED_ROUNDS = 2
# reference work after each call, as a share of the call's wall time
REFERENCE_SHARE = 0.3

# Ratios measured in the traced run: name -> (numerator, denominator).  A
# "child<ancestor" numerator counts the child's calls made inside the
# ancestor's span.
RATIOS = {
    "poisson.inner_per_matrix": ("symspace.elem_real_inner<poisson.matrix_of_omega",
                                 "poisson.matrix_of_omega"),
    "poisson.reps_per_chart_eval": ("symspace.canonical_rep<poisson.chart_pi_eval",
                                    "poisson.chart_pi_eval"),
    "strata.torus_per_moment": ("strata.torus_tw", "momentum.moment_eval"),
    "sampling.interior_accept_ratio": ("sampling.random_interior_point",
                                       "sampling.random_point<sampling.random_interior_point"),
}

# Times the import and warm-up call, then as long again of reference work.
SETUP_CHILD = """
import contextlib, io, json, sys, time
start = time.perf_counter()
import birkhoff_poisson
from birkhoff_poisson.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from reference import Reference
print(elapsed, Reference().ref_second(elapsed), rc)
"""


def _environment() -> dict[str, str]:
    """Single-threaded BLAS, no grid thread pool, the checkout's sources."""
    env = dict(os.environ)
    env.pop("BP_THREADS", None)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _describe(samples: list[float], higher_is_better: bool = False) -> str:
    """Median, sample count and, from forty samples on, the highest
    percentile of the slow side that has at least ten samples beyond it
    (for a rate the slow side is the low end, so its mirror is given)."""
    text = f"median {statistics.median(samples):.6g} (n={len(samples)}"
    ordered = sorted(samples, reverse=higher_is_better)
    for pct in (99.9, 99, 95, 90, 75):
        if len(samples) >= 40 and len(samples) * (1 - pct / 100) >= 10:
            rank = min(len(ordered) - 1, math.ceil(pct / 100 * len(ordered)) - 1)
            label = f"p{100 - pct:g}" if higher_is_better else f"p{pct:g}"
            text += f", {label} {ordered[rank]:.6g}"
            break
    return text + ")"


def measure_setup(argv: list[str]) -> tuple[list[float], list[float]]:
    """Time, in fresh processes, to import the package and finish one
    warm-up call: in wall-clock seconds and in reference seconds, from
    reference work run right after it in the same process."""
    wall, ref = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(argv), str(Path(__file__).parent)],
            cwd=ROOT, env=_environment(), capture_output=True, text=True, timeout=120,
        )
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[2] != "0":
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-400:]}")
        wall.append(float(fields[0]))
        ref.append(float(fields[0]) / float(fields[1]))
    return wall, ref


@dataclass
class Round:
    """One round's call times, in wall-clock seconds and in reference
    seconds, and its whole duration with the reference work."""

    wall: list[float] = field(default_factory=list)
    ref: list[float] = field(default_factory=list)
    duration: float = 0.0


def run_round(cli, ops, reference) -> tuple[Round, list[tuple[int, str]]]:
    """Run each call of a round, each followed by reference work for
    REFERENCE_SHARE of its time; return the times and (exit code, stdout)."""
    start = time.perf_counter()
    times, outputs = Round(), []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            begin = time.perf_counter()
            rc = cli.main(list(op.argv))
            elapsed = time.perf_counter() - begin
        times.wall.append(elapsed)
        times.ref.append(elapsed / reference.ref_second(REFERENCE_SHARE * elapsed))
        outputs.append((rc, out.getvalue()))
    times.duration = time.perf_counter() - start
    return times, outputs


class Measurement:
    """Rounds of one workload.  The first round's outputs are the expected
    ones; every later round must reproduce them byte for byte, and a call
    that does not fails every operation it covers.  ``check`` runs the
    oracles on the expected outputs once the rounds are done, so the
    oracles' memory stays out of the peak that the rounds make."""

    def __init__(self, cli, workload, known_faults: frozenset[str], reference) -> None:
        self.cli = cli
        self.reference = reference
        self.workload = workload
        self.known_faults = known_faults
        self.attempted = 0
        self.failed = 0
        self.faults: set[str] = set()
        _, self.expected = run_round(cli, workload.ops, reference)
        self.rounds = 1
        self.reruns_differ = [0] * len(workload.ops)

    def round(self) -> Round:
        """Run one round and compare its outputs with the first round's."""
        times, outputs = run_round(self.cli, self.workload.ops, self.reference)
        self.rounds += 1
        for i, (got, want) in enumerate(zip(outputs, self.expected)):
            self.reruns_differ[i] += got != want
        return times

    def check(self) -> None:
        """Check the expected outputs against the oracles and count the
        operations of every round run."""
        for op, (rc, out), differ in zip(self.workload.ops, self.expected, self.reruns_differ):
            attempted, failures = op.check(rc, out)
            self.attempted += attempted * self.rounds
            self.failed += len(failures) * (self.rounds - differ) + attempted * differ
            self.faults.update(failures)
            if differ:
                self.faults.add(f"rerun of {' '.join(op.argv)} differs from the checked output")

    @property
    def unexpected(self) -> list[str]:
        return sorted(self.faults - self.known_faults)

    def timed_rounds(self, seconds: float) -> list[Round]:
        """Whole rounds until the next one would end past ``seconds``."""
        rounds: list[Round] = []
        start = time.perf_counter()
        while len(rounds) < MIN_TIMED_ROUNDS or (
            time.perf_counter() - start + statistics.median(r.duration for r in rounds) <= seconds
        ):
            rounds.append(self.round())
        return rounds


def _per_layer(names: list[str], tracer, traced_rounds: int, extra: dict[str, float]) -> dict:
    calls = dict(zip(tracer.names, tracer.calls))
    self_s = dict(zip(tracer.names, tracer.self_s))
    for (child, ancestor), count in tracer.nested.items():
        calls[f"{child}<{ancestor}"] = count

    def ratio(num: str, den: str) -> float:
        return calls[num] / calls[den] if calls[den] else 0.0

    values = {}
    for name in names:
        if name in extra:
            values[name] = extra[name]
        elif name in RATIOS:
            values[name] = ratio(*RATIOS[name])
        elif name.endswith(".calls"):
            values[name] = calls[name[: -len(".calls")]] / traced_rounds
        elif name.endswith(".s"):
            values[name] = self_s[name[: -len(".s")]] / traced_rounds
        else:
            raise KeyError(f"no measurement for per-layer metric {name}")
    return values


def traced_metrics(measurement: Measurement, seconds: float, names: list[str]) -> dict:
    """Per-layer metrics from rounds that alternate untraced and traced, so
    that drift in the machine's speed falls on both alike.

    Call counts and self times are per traced round.  The counts of every
    traced round must repeat exactly; a round that differs is a fault.
    """
    from tracer import Tracer

    workload = measurement.workload
    tracer = Tracer(nested=tuple(
        tuple(side.split("<")) for pair in RATIOS.values() for side in pair if "<" in side
    ))
    def counts() -> list[int]:
        return list(tracer.calls) + list(tracer.nested.values())

    snapshots = [counts()]
    plain: list[Round] = []
    traced: list[Round] = []
    start = time.perf_counter()
    while len(traced) < MIN_TIMED_ROUNDS or (
        time.perf_counter() - start
        + statistics.median(a.duration + b.duration for a, b in zip(plain, traced)) <= seconds
    ):
        plain.append(measurement.round())
        tracer.install()
        try:
            traced.append(measurement.round())
        finally:
            tracer.restore()
        snapshots.append(counts())
    steps = [[b - a for a, b in zip(prev, cur)] for prev, cur in zip(snapshots, snapshots[1:])]
    if any(step != steps[0] for step in steps):
        measurement.faults.add("per-layer call counts differ between identical rounds")

    measurement.check()
    plain_rate = workload.throughput(workload.medians([r.ref for r in plain]))
    traced_rate = workload.throughput(workload.medians([r.ref for r in traced]))
    overhead = 100.0 * (plain_rate / traced_rate - 1.0)
    print(f"# tracing overhead {overhead:.1f}%: {plain_rate:.6g}/ref_s untraced, "
          f"{traced_rate:.6g}/ref_s traced, {len(traced)} rounds of each, alternating")
    for self_s, name in sorted(zip(tracer.self_s, tracer.names), reverse=True)[:12]:
        print(f"# self time per round {self_s / len(traced):.6g} s  {name}")
    classified = workload.classified / workload.cells if workload.cells else 0.0
    return _per_layer(
        names, tracer, len(traced),
        {"trace.overhead_pct": overhead, "cli.classified_ratio": classified},
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    os.environ.pop("BP_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        from birkhoff_poisson import cli
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported the program from {cli.__file__}, not this checkout", file=sys.stderr)
        return 2
    import numpy as np

    import oracles
    from reference import Reference
    from workloads import KNOWN_FAULTS, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    broken = oracles.self_test()
    if broken:
        print(f"error: oracle self-test failed: {broken}", file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload](abs(args.seed))
    setup_wall, setup = measure_setup(workload.warmup_argv)
    print(f"# workload {workload.name}, seed {args.seed}, {len(workload.ops)} calls per round; "
          f"BLAS threads {BLAS_THREADS} of {os.cpu_count()} cpus, BP_THREADS unset, "
          f"numpy {np.__version__}, python {sys.version.split()[0]}")
    print(f"# wall setup_s [s] {_describe(setup_wall)}")
    print(f"# ref setup_s [ref_s] {_describe(setup)}")
    measurement = Measurement(cli, workload, KNOWN_FAULTS, Reference())

    if args.trace == 0:
        rounds = measurement.timed_rounds(args.seconds)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measurement.check()
        for clock in ("wall", "ref"):
            for name, (unit, per_round) in workload.figures.items():
                samples = [per_round(getattr(r, clock)) for r in rounds]
                shown = unit if clock == "wall" else unit[:-1] + "ref_s"
                print(f"# {clock} {name} [{shown}] "
                      f"{_describe(samples, higher_is_better=unit != 's')}")
        print(f"# reference second {measurement.reference.mean_ref_second():.6g} s "
              f"of wall time on average, over {measurement.reference.iterations} "
              f"reference iterations")
        values = {
            "setup_s": statistics.median(setup),
            "ref_throughput": workload.throughput(workload.medians([r.ref for r in rounds])),
            "peak_rss_mib": peak_rss_mib,
        }
        wanted = spec["end_to_end"]
    else:
        values = traced_metrics(measurement, args.seconds, [m["name"] for m in spec["per_layer"]])
        wanted = spec["per_layer"]
    if workload.cells:
        print(f"# cli.classified_ratio {workload.classified / workload.cells:.6g} "
              f"({workload.classified} of {workload.cells} cells classified)")

    for fault in sorted(measurement.faults & measurement.known_faults):
        print(f"# known fault, counted as failed: {fault}")
    for fault in measurement.unexpected[:20]:
        print(f"error: {fault}", file=sys.stderr)
    result = {
        "correct": not measurement.unexpected,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
