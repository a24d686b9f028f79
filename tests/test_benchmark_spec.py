"""The benchmark's per-layer metrics and ratios name functions of the
package; each named function must still exist, or the traced benchmark run
cannot read it.  Likewise every package name the layer harness in
``benchmarks/`` imports or reads off an imported module, every call the
harness makes of a package function must bind to its signature, and the
harness's grid stacks must be the stacks ``rank-grid`` runs.  Every call
the benchmark's workloads make must still parse."""

import ast
import contextlib
import importlib
import inspect
import io
import json
from pathlib import Path

import pytest

from birkhoff_poisson import cli
from birkhoff_poisson.verify import SUITES

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
BENCH = ROOT / "bench"
RUNNER = BENCH / "run.py"
LAYERS = ROOT / "benchmarks" / "test_layers.py"


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


def _literal(path: Path, name: str):
    """The value of the module-level literal ``name`` of a source file, read
    without importing the file."""
    (value,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
    ]
    return value


def test_ratios_name_public_functions():
    ratios = _literal(RUNNER, "RATIOS")
    assert ratios
    spans = [half for pair in ratios.values() for side in pair for half in side.split("<")]
    assert _missing(spans) == []


def _package_references(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every name the file imports from the package, and
    for every attribute it reads off a package module it imported that way
    (``cli._grid_cells``)."""
    tree = ast.parse(path.read_text())
    refs, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("birkhoff_poisson"):
            for alias in node.names:
                refs.append((node.module, alias.name))
                try:
                    module = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    continue
                modules[alias.asname or alias.name] = module.__name__
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                refs.append((modules[node.value.id], node.attr))
    return refs


def test_layer_harness_names_exist():
    # pytest collects only tests/, so a deletion in the package would break
    # the layer harness in benchmarks/ unseen
    files = sorted((ROOT / "benchmarks").glob("*.py"))
    refs = [(path.name, ref) for path in files for ref in _package_references(path)]
    assert any(module == "birkhoff_poisson.cli" for _, (module, _) in refs)
    missing = [
        f"{name}: {module}.{attr}"
        for name, (module, attr) in refs
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def _package_calls(path: Path) -> list[tuple[int, object, list, list]]:
    """(line, function, args, keywords) for every call the file makes of a
    package function it imports, directly or off a package module it imports
    (``cli.main(argv)``), or as ``benchmark(fn, *args)``, with the arguments
    that function receives."""
    tree = ast.parse(path.read_text())
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("birkhoff_poisson"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name, None)

    def resolve(node):
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = names.get(node.value.id)
            return getattr(module, node.attr, None) if inspect.ismodule(module) else None
        return None

    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = resolve(node.func), node.args
        if isinstance(node.func, ast.Name) and node.func.id == "benchmark" and args:
            fn, args = resolve(args[0]), args[1:]
        if callable(fn):
            calls.append((node.lineno, fn, args, node.keywords))
    return calls


def test_layer_harness_calls_bind_to_the_package_signatures():
    # a parameter dropped from the package that the harness still passes
    # would break only a manual harness run; a starred argument of unknown
    # length binds the others partially
    bad, called = [], set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        for line, fn, args, keywords in _package_calls(path):
            called.add(fn.__name__)
            signature = inspect.signature(fn)
            starred = any(isinstance(a, ast.Starred) for a in args) or any(
                k.arg is None for k in keywords
            )
            bind = signature.bind_partial if starred else signature.bind
            try:
                bind(
                    *[None for a in args if not isinstance(a, ast.Starred)],
                    **{k.arg: None for k in keywords if k.arg is not None},
                )
            except TypeError as exc:
                bad.append(f"{path.name}:{line} {fn.__name__}{signature}: {exc}")
    assert {"jacobi_residual", "pi_rank", "torus_tw", "main", "_grid_columns"} <= called
    assert bad == []


def test_layer_harness_grid_stacks_are_the_rank_grid_stacks(monkeypatch):
    # the harness times a stack of a 32 x 32 rank-grid; a change of the
    # stack budget would leave it timing sizes rank-grid no longer runs
    cases = _literal(LAYERS, "_GRID_CASES")
    grid_columns = cli._grid_columns
    for spec, count in cases:
        stacks = []

        def columns(preset, x, y):
            stacks.append(len(x))
            return grid_columns(preset, x, y)

        monkeypatch.setattr(cli, "_grid_columns", columns)
        argv = ["rank-grid", "--preset", spec, "--grid=-0.5,0.5,32,-0.5,0.5,32"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert stacks == [count] * (32 * 32 // count), spec


@pytest.fixture
def workloads(monkeypatch):
    """``bench/workloads.py``, imported as the benchmark imports it, with
    ``bench/`` on the path for its ``oracles``."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["sweep", "pointwise", "verify"])
def test_every_workload_call_parses(workloads, name, seed):
    # the tests never run the benchmark, so a flag removed from the CLI that
    # a workload still passed would otherwise show only as failed operations
    workload = workloads.WORKLOADS[name](seed)
    parser = cli._build_parser()
    for argv in [workload.warmup_argv] + [op.argv for op in workload.ops]:
        args = parser.parse_args(argv)
        assert args.func.__name__ == "cmd_" + argv[0].replace("-", "_")
