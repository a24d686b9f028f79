"""The benchmark's per-layer metrics and ratios name functions of the
package; each named function must still exist, or the traced benchmark run
cannot read it."""

import ast
import importlib
import inspect
import json
from pathlib import Path

from birkhoff_poisson.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
RUNNER = ROOT / "bench" / "run.py"


def _missing(spans) -> list[str]:
    """The spans ("module.function") that name no public function of the
    package; ``verify.<suite>`` names a suite."""
    missing = []
    for span in spans:
        module, fn = span.split(".", 1)
        if module == "verify" and fn in SUITES:
            continue
        mod = importlib.import_module(f"birkhoff_poisson.{module}")
        obj = getattr(mod, fn, None)
        if fn.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
            missing.append(span)
    return missing


def test_per_layer_metrics_name_public_functions():
    names = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
    timed = [n.rsplit(".", 1)[0] for n in names if n.endswith((".calls", ".s"))]
    assert timed
    assert _missing(timed) == []


def test_ratios_name_public_functions():
    # read from the runner's source, without importing the benchmark
    (ratios,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(RUNNER.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "RATIOS" for t in node.targets)
    ]
    assert ratios
    spans = [half for pair in ratios.values() for side in pair for half in side.split("<")]
    assert _missing(spans) == []
