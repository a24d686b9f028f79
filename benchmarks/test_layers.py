"""Layer-level timings of the kernels the ``rank-grid`` sweep and the
``pi``, ``moment`` and ``jacobi`` calls stand on, with pytest-benchmark.

``tests/`` is the only test path, so the test suite does not collect this
module.  Run it from the repository root; ``conftest.py`` sets one BLAS
thread:

    python -m pytest benchmarks --benchmark-json=BENCH.json

The stack sizes are those one ``rank-grid`` stack holds under its 256 KiB
budget (cp1 takes a whole 32 x 32 grid, cp2 455 cells, gr:2,2 128), plus
the single matrices of ``pi --preset gr:6,10`` and of the group case su3.
``canonical_rep`` also runs on a gr:3,1 stack, whose chart matrices are
rows, and on one cp1 point.  The two factorizations run on unimodular
matrices of size 2, 4, 8 and 16, one matrix and a stack of 256 each.
The Jacobi residual is timed at one chart point of each ``jacobi`` preset
of the pointwise benchmark workload (cp2, gr:2,2, gr:2,3), and the leaf
factorization with the moments of the whole torus basis, as ``moment``
reads them, at one interior point of each of its ``moment`` presets.
"""

import contextlib
import io

import numpy as np
import pytest

from birkhoff_poisson import cli
from birkhoff_poisson.linalg import birkhoff_factor, iwasawa_factor
from birkhoff_poisson.momentum import leaf_moment
from birkhoff_poisson.poisson import coordinate_bivector, jacobi_residual, matrix_of_omega
from birkhoff_poisson.sampling import random_interior_point, random_point, special_linear_stack
from birkhoff_poisson.strata import leaf_factorize, torus_tw
from birkhoff_poisson.symspace import canonical_rep, cartan_embed, parse_preset

_STACKS = [("cp1", 1024), ("cp2", 455), ("gr:2,2", 128), ("gr:6,10", None)]
_REP_CASES = _STACKS + [("gr:3,1", 455), ("cp1", None)]
_BIVECTOR_CASES = _STACKS + [("group:su3", None)]
_FACTOR_CASES = [(n, count) for n in (2, 4, 8, 16) for count in (None, 256)]
_JACOBI_PRESETS = ["cp2", "gr:2,2", "gr:2,3"]
_MOMENT_PRESETS = ["cp1", "cp2", "gr:2,2", "gr:2,3", "gr:3,3"]


def _chart_points(spec, count):
    preset = parse_preset(spec)
    shape = (preset.n, preset.m) if count is None else (count, preset.n, preset.m)
    rng = np.random.default_rng(1)
    return preset, 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _ids(cases):
    return [spec if count is None else f"{spec}-{count}" for spec, count in cases]


@pytest.mark.parametrize("spec,count", _REP_CASES, ids=_ids(_REP_CASES))
def test_canonical_rep(benchmark, spec, count):
    preset, z = _chart_points(spec, count)
    benchmark(canonical_rep, z, preset)


@pytest.mark.parametrize("factor", [birkhoff_factor, iwasawa_factor], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n,count", _FACTOR_CASES, ids=_ids((f"n{n}", c) for n, c in _FACTOR_CASES))
def test_factor(benchmark, factor, n, count):
    """Top-layer unimodular matrices: Ginibre samples scaled to determinant 1."""
    g = special_linear_stack(n, 1 if count is None else count, np.random.default_rng(1))
    benchmark(factor, g[0] if count is None else g)


@pytest.mark.parametrize("spec,count", _BIVECTOR_CASES, ids=_ids(_BIVECTOR_CASES))
def test_matrix_of_omega(benchmark, spec, count):
    if spec.startswith("group:"):
        preset = parse_preset(spec)
        u = random_point(preset, np.random.default_rng(1))
    else:
        preset, z = _chart_points(spec, count)
        u = canonical_rep(z, preset)
    benchmark(matrix_of_omega, u, preset)


@pytest.mark.parametrize("spec", _JACOBI_PRESETS)
def test_jacobi_residual(benchmark, spec):
    preset = parse_preset(spec)
    biv = coordinate_bivector("grassmann", m=preset.m, n=preset.n)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, biv.dim_real)
    benchmark(jacobi_residual, biv, x)


@pytest.mark.parametrize("spec", _MOMENT_PRESETS)
def test_leaf_factorize_and_moment(benchmark, spec):
    """One leaf factorization of a top-layer Cartan image, and the moments
    of the whole torus basis read off it in one call."""
    preset = parse_preset(spec)
    phi = cartan_embed(random_interior_point(preset, np.random.default_rng(1)), preset)
    top = tuple(range(preset.matrix_dim))
    basis = np.stack(torus_tw((top, (1,) * len(top)), preset))

    def moments():
        return leaf_moment(leaf_factorize(phi, preset), basis, preset)

    benchmark(moments)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rank_grid_text(benchmark, fmt, monkeypatch):
    """The text of one 32 x 32 cp2 grid, its rows computed once beforehand."""
    axis = cli._axis_points(0.05, 1.85, 32).tolist()
    rows = cli._grid_cells(parse_preset("cp2"), axis, axis, 1e-9)
    monkeypatch.setattr(cli, "_grid_cells", lambda *args: rows)
    argv = ["rank-grid", "--preset", "cp2", "--grid=0.05,1.85,32,0.05,1.85,32", "--format", fmt]

    def text():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    benchmark(text)
