"""Layer-level timings of the kernels the ``rank-grid`` sweep and the
``pi``, ``moment`` and ``jacobi`` calls stand on, with pytest-benchmark.

``tests/`` is the only test path, so the test suite does not collect this
module.  Run it from the repository root; ``conftest.py`` sets one BLAS
thread:

    python -m pytest benchmarks --benchmark-json=BENCH.json

The stack sizes are those one ``rank-grid`` stack holds under its 256 KiB
budget of (d, d) matrices: a whole 32 x 32 grid, 1,024 cells, on cp1, cp2,
gr:2,2 and group:su2, and one of that grid's 16 stacks, 64 cells, on
gr:6,10 (``tests/test_benchmark_spec.py`` checks that ``_GRID_CASES``
still matches); ``matrix_of_omega`` runs them in frame chunks of its own.
The single matrices are those of ``pi --preset gr:6,10``, of gr:8,12
(dim_ip 192) and of the group case su3.  ``orbit_direction_span``, the
kernel ``lie.proj_u`` serves, runs on the cp1, cp2 and gr:2,2 stacks and
on the one gr:6,10 point.
``canonical_rep`` also runs on a gr:3,1 stack, whose chart matrices are
rows, and on one cp1 point.  The two factorizations run on unimodular
matrices of size 2, 4, 8 and 16, one matrix and a stack of 256 each.
The Jacobi residual is timed at one chart point of each ``jacobi`` preset
of the pointwise benchmark workload (cp2, gr:2,2, gr:2,3), and the leaf
factorization with the moments of the whole torus basis, as ``moment``
reads them, at one interior point of each of its ``moment`` presets.
``pi_rank``, ``cartan_embed`` and the ``rank-grid`` columns of one stack
run at the stack sizes, and ``cartan_embed`` on the one gr:2,2 image of a
``moment`` call too; ``_grid_cells`` runs the whole 32 x 32 grid of each
sweep preset and of gr:2,3, whose cells take cp3's closed form, its stacks included,
and ``_pivot_minors``, the unchecked Hermitian elimination the grid runs,
on each sweep grid's one stack of 1,024 Cartan images and on the first
stack of the gr:2,3 grid, and the public ``birkhoff_factor``
on the 1,024; one ``pi --preset gr:6,10``, one ``moment --preset
gr:2,2``, one ``embed --preset cp2`` and one ``jacobi --preset cp2`` call
run through ``cli.main``, each reading its ``--point`` through the library's
chart rule; the chart transfer
``chart_pi_eval`` runs on the cp1, cp2 and gr:2,2 stacks, and the
finite-difference ``hamiltonian_residual`` over the whole torus basis at 5
interior points of cp2 and of gr:2,2, as the momentum suite calls it.

The medians of one run move by up to 1.7x on a shared machine while the
minima hold, so a layer change is read from at least 5 runs per side,
alternating the two sides, by the minimum and by the median of the run
medians.  The large single matrices, ``matrix_of_omega`` at gr:6,10 and
gr:8,12, the gr:6,10 stack of 64 cells and the ``cli_call`` cases are
compared in a process of their own: their minima depend on the cases run before them, as glibc's mmap
threshold follows the largest array freed so far.  Run them apart from
the rest:

    python -m pytest benchmarks -k "cli_call or 10-64 or (matrix_of_omega and (gr:6 or gr:8))"
    python -m pytest benchmarks -k "not cli_call and not 10-64 and not (matrix_of_omega and (gr:6 or gr:8))"
"""

import contextlib
import functools
import io

import numpy as np
import pytest

from birkhoff_poisson import cli
from birkhoff_poisson.linalg import _pivot_minors, birkhoff_factor, iwasawa_factor
from birkhoff_poisson.momentum import hamiltonian_residual, leaf_moment
from birkhoff_poisson.poisson import (
    chart_pi_eval,
    chart_tensor,
    jacobi_residual,
    matrix_of_omega,
    pi_rank,
)
from birkhoff_poisson.sampling import (
    draw,
    point_sampler,
    random_interior_point,
    random_point,
    special_linear_stack,
)
from birkhoff_poisson.strata import leaf_factorize, orbit_direction_span, torus_tw
from birkhoff_poisson.symspace import canonical_rep, cartan_embed, parse_preset

# a stack of a 32 x 32 rank-grid; a literal, read by tests/test_benchmark_spec.py
_GRID_CASES = [("cp1", 1024), ("cp2", 1024), ("gr:2,2", 1024), ("group:su2", 1024), ("gr:6,10", 64)]
_STACKS = _GRID_CASES[:3] + [("gr:6,10", None)]
_REP_CASES = _STACKS + [("gr:3,1", 455), ("cp1", None)]
_BIVECTOR_CASES = _STACKS + [("gr:8,12", None), ("group:su3", None)]
_EMBED_CASES = _GRID_CASES + [("gr:2,2", None)]
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


@pytest.mark.parametrize("spec,count", _STACKS, ids=_ids(_STACKS))
def test_orbit_direction_span(benchmark, spec, count):
    """The leaf-span columns through ``lie.proj_u``, which the
    ``leaf-tangency`` check of ``verify`` compares with ``matrix_of_omega``."""
    preset, z = _chart_points(spec, count)
    benchmark(orbit_direction_span, canonical_rep(z, preset), preset)


def _plane_cells(spec, count):
    """The plane coordinates (x, y) of ``count`` rank-grid cells, inside the
    unit disc for group:su2."""
    x, y = np.random.default_rng(1).uniform(-1.0, 1.0, (2, count))
    if spec.startswith("group:"):
        x, y = 0.7 * x, 0.7 * y
    return x, y


def _grid_points(spec, count):
    """The preset and a stack of ``count`` representatives: canonical ones
    of chart points, or a draw of the group case."""
    preset = parse_preset(spec)
    if preset.is_inner:
        return preset, canonical_rep(_chart_points(spec, count)[1], preset)
    (u,) = draw(np.random.default_rng(1), count, point_sampler(preset))
    return preset, u


@pytest.mark.parametrize("spec,count", _GRID_CASES, ids=_ids(_GRID_CASES))
def test_pi_rank(benchmark, spec, count):
    """The rank of a stack of bivector matrices, the kernel included."""
    preset, u = _grid_points(spec, count)
    benchmark(pi_rank, u, preset)


@pytest.mark.parametrize("spec,count", _EMBED_CASES, ids=_ids(_EMBED_CASES))
def test_cartan_embed(benchmark, spec, count):
    """The Cartan images of a rank-grid stack, and the one image of a
    ``moment --preset gr:2,2`` call."""
    preset, u = _grid_points(spec, count)
    benchmark(cartan_embed, u, preset)


@pytest.mark.parametrize("spec,count", _GRID_CASES, ids=_ids(_GRID_CASES))
def test_grid_columns(benchmark, spec, count):
    """The columns of one rank-grid stack: representatives, ranks, layers
    and minors."""
    benchmark(cli._grid_columns, parse_preset(spec), *_plane_cells(spec, count))


def _sweep_axes(preset):
    """The axes of a 32 x 32 rank-grid over the preset's default ranges."""
    return [cli._axis_points(lo, hi, 32) for lo, hi, _ in cli._grid_layout(preset)[0]]


@pytest.mark.parametrize("spec", [spec for spec, _ in _STACKS[:3]] + ["gr:2,3"])
def test_grid_cells(benchmark, spec):
    """The columns of a whole 32 x 32 rank-grid over the default axes."""
    preset = parse_preset(spec)
    benchmark(cli._grid_cells, preset, *_sweep_axes(preset))


def _sweep_stack(spec, monkeypatch):
    """The arguments ``_grid_cells`` passes to ``_pivot_minors`` on the
    first stack of a 32 x 32 rank-grid over the default axes: its Cartan
    images and the diagonal of J.  That stack is the whole grid, 1,024
    images, on cp1, cp2 and gr:2,2, and 655 of them on gr:2,3, whose 5 x 5
    images take two stacks."""
    preset = parse_preset(spec)
    stacks = []
    pivot_minors = cli._pivot_minors
    monkeypatch.setattr(cli, "_pivot_minors", lambda *a: stacks.append(a) or pivot_minors(*a))
    cli._grid_cells(preset, *_sweep_axes(preset))
    assert sum(len(phi) for phi, _ in stacks) == 1024
    return stacks[0]


@pytest.mark.parametrize("spec", [spec for spec, _ in _STACKS[:3]] + ["gr:2,3"])
def test_pivot_minors_of_a_sweep_stack(benchmark, spec, monkeypatch):
    """The one Hermitian elimination, with no det, and the minors, layer
    and pivots it reads off the sweep stack; ``rank-grid`` prints the
    minors."""
    benchmark(_pivot_minors, *_sweep_stack(spec, monkeypatch))


@pytest.mark.parametrize("spec", [spec for spec, _ in _STACKS[:3]])
def test_birkhoff_factor_of_a_sweep_stack(benchmark, spec, monkeypatch):
    """The public factorization of the sweep stack, its det check included."""
    benchmark(birkhoff_factor, _sweep_stack(spec, monkeypatch)[0])


def _chart_arg(spec, scale):
    """--point at a chart point of the preset drawn at the given scale,
    inside the top layer."""
    flat = scale * _chart_points(spec, None)[1].ravel()
    return "--point=" + ",".join(repr(float(v)) for c in flat for v in (c.real, c.imag))


@pytest.mark.parametrize(
    "argv",
    [
        ["pi", "--preset", "gr:6,10", _chart_arg("gr:6,10", 0.2)],
        ["moment", "--preset", "gr:2,2", _chart_arg("gr:2,2", 0.5)],
        ["embed", "--preset", "cp2", _chart_arg("cp2", 0.5)],
        ["jacobi", "--preset", "cp2", _chart_arg("cp2", 0.5)],
    ],
    ids=lambda argv: f"{argv[0]}-{argv[2]}",
)
def test_cli_call(benchmark, argv):
    """One ``bpoisson`` call through ``cli.main``, its text included."""

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    benchmark(call)


@pytest.mark.parametrize("spec,count", _STACKS[:3], ids=_ids(_STACKS[:3]))
def test_chart_pi_eval(benchmark, spec, count):
    preset, z = _chart_points(spec, count)
    rng = np.random.default_rng(2)
    v, w = rng.normal(size=(2, count, preset.m, preset.n)) + 1j * rng.normal(
        size=(2, count, preset.m, preset.n)
    )
    benchmark(chart_pi_eval, preset, z, v, w)


@pytest.mark.parametrize("spec", ["cp2", "gr:2,2"])
def test_hamiltonian_residual(benchmark, spec):
    preset = parse_preset(spec)
    rng = np.random.default_rng(1)
    u = np.stack([random_interior_point(preset, rng) for _ in range(5)])
    top = tuple(range(preset.matrix_dim))
    basis = np.stack(torus_tw(top, preset))
    benchmark(hamiltonian_residual, u, basis, preset)


@pytest.mark.parametrize("spec", _JACOBI_PRESETS)
def test_jacobi_residual(benchmark, spec):
    preset = parse_preset(spec)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, preset.dim_ip)
    benchmark(jacobi_residual, functools.partial(chart_tensor, preset=preset), x)


@pytest.mark.parametrize("spec", _MOMENT_PRESETS)
def test_leaf_factorize_and_moment(benchmark, spec):
    """One leaf factorization of a top-layer Cartan image, and the moments
    of the whole torus basis read off it in one call."""
    preset = parse_preset(spec)
    phi = cartan_embed(random_interior_point(preset, np.random.default_rng(1)), preset)
    top = tuple(range(preset.matrix_dim))
    basis = np.stack(torus_tw(top, preset))

    def moments():
        return leaf_moment(np.diagonal(leaf_factorize(phi, preset).h), basis, preset)

    benchmark(moments)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rank_grid_text(benchmark, fmt, monkeypatch):
    """The text of one 32 x 32 cp2 grid, its columns computed once beforehand."""
    axis = cli._axis_points(0.05, 1.85, 32)
    columns = cli._grid_cells(parse_preset("cp2"), axis, axis)
    monkeypatch.setattr(cli, "_grid_cells", lambda *args: columns)
    argv = ["rank-grid", "--preset", "cp2", "--grid=0.05,1.85,32,0.05,1.85,32", "--format", fmt]

    def text():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0

    benchmark(text)
