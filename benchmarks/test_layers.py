"""Layer-level timings of the kernels the ``rank-grid`` sweep and the
``pi`` call stand on, with pytest-benchmark.

``tests/`` is the only test path, so the test suite does not collect this
module.  Run it from the repository root; ``conftest.py`` sets one BLAS
thread:

    python -m pytest benchmarks --benchmark-json=BENCH.json

The stack sizes are those one ``rank-grid`` stack holds under its 256 KiB
budget (cp1 takes a whole 32 x 32 grid, cp2 455 cells, gr:2,2 128), plus
the single matrices of ``pi --preset gr:6,10`` and of the group case su3.
"""

import contextlib
import io

import numpy as np
import pytest

from birkhoff_poisson import cli
from birkhoff_poisson.poisson import matrix_of_omega
from birkhoff_poisson.sampling import random_point
from birkhoff_poisson.symspace import canonical_rep, parse_preset

_STACKS = [("cp1", 1024), ("cp2", 455), ("gr:2,2", 128), ("gr:6,10", None)]
_BIVECTOR_CASES = _STACKS + [("group:su3", None)]


def _chart_points(spec, count):
    preset = parse_preset(spec)
    shape = (preset.n, preset.m) if count is None else (count, preset.n, preset.m)
    rng = np.random.default_rng(1)
    return preset, 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _ids(cases):
    return [spec if count is None else f"{spec}-{count}" for spec, count in cases]


@pytest.mark.parametrize("spec,count", _STACKS, ids=_ids(_STACKS))
def test_canonical_rep(benchmark, spec, count):
    preset, z = _chart_points(spec, count)
    benchmark(canonical_rep, z, preset)


@pytest.mark.parametrize("spec,count", _BIVECTOR_CASES, ids=_ids(_BIVECTOR_CASES))
def test_matrix_of_omega(benchmark, spec, count):
    if spec.startswith("group:"):
        preset = parse_preset(spec)
        u = random_point(preset, np.random.default_rng(1))
    else:
        preset, z = _chart_points(spec, count)
        u = canonical_rep(z, preset)
    benchmark(matrix_of_omega, u, preset)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rank_grid_text(benchmark, fmt, monkeypatch):
    """The text of one 32 x 32 cp2 grid, its rows computed once beforehand."""
    axis = cli._axis_points(0.05, 1.85, 32).tolist()
    rows = cli._grid_cells("cp2", parse_preset("cp2"), axis, axis, 1e-9)
    monkeypatch.setattr(cli, "_grid_cells", lambda *args: rows)
    argv = ["rank-grid", "--preset", "cp2", "--grid=0.05,1.85,32,0.05,1.85,32", "--format", fmt]

    def text():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    benchmark(text)
