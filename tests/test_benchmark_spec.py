"""The benchmark's per-layer metrics name functions of the package; each
named function must still exist, or the traced benchmark run cannot read it."""

import importlib
import inspect
import json
from pathlib import Path

from birkhoff_poisson.verify import SUITES

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_per_layer_metrics_name_public_functions():
    names = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
    timed = [n.rsplit(".", 1)[0] for n in names if n.endswith((".calls", ".s"))]
    assert timed
    missing = []
    for span in timed:
        module, fn = span.split(".", 1)
        if module == "verify" and fn in SUITES:
            continue
        mod = importlib.import_module(f"birkhoff_poisson.{module}")
        obj = getattr(mod, fn, None)
        if fn.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
            missing.append(span)
    assert missing == []
