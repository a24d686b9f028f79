"""Steadiness check: two sets of runs of the same code, compared against the
bounds in BENCHMARK.json.

    python3 bench/steady.py

Each set makes 10 untraced runs of every workload on seeds 1 to 10,
interleaving the workloads, each lasting run_seconds.  For every
end-to-end metric and workload it prints each set's median and quartile
spread (Q3 - Q1 over the median), and checks

* that every spread stays within the metric's bound, and flags a spread
  above a third of it;
* that the two sets' medians differ by no more than the bound, in either
  direction;
* that every run failed the same share of its attempted operations.

It then makes two traced runs per workload on seed 1 and requires
their per-layer call counts (``*.calls``) and ratios to be identical.
Exits 0 when every check holds.  Run from the repository root.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    problems: list[str] = []

    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for seed in SEEDS:
            for w in names:
                out = run(w, seed, seconds, 0)
                results[w][s].append(out)
                if not out["correct"]:
                    problems.append(f"{w} seed {seed}: correct is false")
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.6g}" for k, v in out["metrics"].items()
                ) + f"; failed {out['failed']}/{out['attempted']}", flush=True)

    print()
    for w in names:
        shares = {Fraction(r["failed"], r["attempted"]) for runs in results[w] for r in runs}
        if len(shares) != 1:
            problems.append(f"{w}: failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            line = [f"{w:9s} {name:13s} bound {bound:.2f}"]
            for s, values in enumerate(sets):
                sp = spread(values) if len(values) > 1 else 0.0
                line.append(f"set {s + 1}: median {statistics.median(values):.6g} spread {sp:.4f}")
                if sp > bound:
                    problems.append(f"{w} {name}: spread {sp:.4f} exceeds bound {bound}")
                elif sp > bound / 3:
                    line.append("(above a third of the bound)")
            first, second = (statistics.median(values) for values in sets)
            worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
            line.append(f"shift {worse:+.4f}")
            if abs(worse) > bound:
                problems.append(f"{w} {name}: the sets' medians differ by {worse:+.4f}")
            print("  ".join(line))
        print(f"{w:9s} failed share {sorted(shares)}")

    print()
    for w in names:
        a, b = (run(w, 1, seconds, 1) for _ in range(2))
        exact = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")]
        differ = [n for n in exact if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
        if differ or not (a["correct"] and b["correct"]):
            problems.append(f"{w}: traced counts differ between runs: {differ}")
        print(f"{w:9s} traced twice: {len(exact) - len(differ)}/{len(exact)} counts and ratios "
              f"identical; overhead {a['metrics']['trace.overhead_pct']['value']:.1f}% and "
              f"{b['metrics']['trace.overhead_pct']['value']:.1f}%")

    print()
    for p in problems:
        print(f"PROBLEM {p}")
    print("steady" if not problems else "NOT steady")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
