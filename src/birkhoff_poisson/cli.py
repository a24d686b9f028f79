"""Batch front end: factorizations, pointwise evaluations, grid sweeps
emitting plot data, and the verification suites.

Conventions: complex scalars serialize as [re, im] pairs and matrices as
row-major nested arrays of such pairs.  Grid sweeps sample open rectangles
with a half-step offset so exact boundary points are avoided.

Each ``cmd_*`` handler maps its parsed arguments to a payload: a dict, or
the CSV text of ``rank-grid --format csv``.  ``main`` alone writes it, to
``--out`` or stdout, and maps the call to an exit code: 0 ok, 1 a report
whose ``pass`` is false (a failed ``verify``), 2 usage/parse error,
3 numerical-domain error.  ``rank-grid``'s rows are one structured array,
a field a grid column, which ``jsontext`` prints field by field.

The CLI parses and the library refuses: ``--point`` and ``--tol`` are read
as floats, and the one library function that uses a value refuses it with a
ValueError (exit 2), a chart point ``symspace._chart_stack`` or
``fothlu_w_tensor``, a threshold ``birkhoff_factor``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys

import numpy as np

from . import __version__, poisson
from .errors import NumericalDomainError, StratumAmbiguous
from .jsontext import _dict_chunks, _json_text, _table_rows
from .linalg import DEFAULT_TOL, _pivot_minors, birkhoff_factor, iwasawa_factor
from .momentum import leaf_moment
from .poisson import (
    FD_STEP,
    _chart_points,
    _skew_rank,
    calibration_constant,
    chart_tensor,
    cp2_degeneracy_p,
    fothlu_w_chart,
    fothlu_w_tensor,
    jacobi_residual,
    matrix_of_omega,
    pi_rank,
    su2_from_sphere,
)
from .strata import _check_image_symmetry, torus_tw
from .symspace import (
    SymmetricSpacePreset,
    _j_diagonal,
    block_diag,
    canonical_rep,
    cartan_embed,
    grassmannian,
    parse_preset,
)
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# ---------------------------------------------------------------------------
# serialization helpers


def _pairs(m) -> np.ndarray:
    """A complex array as a float array of [re, im] pairs along a new last
    axis, which the emitter prints as nested JSON arrays."""
    m = np.asarray(m)
    return np.stack([m.real, m.imag], -1)


def _write(chunks, out: str | None) -> None:
    """Write the strings of ``chunks`` to the file ``out``, or to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def _parse_point(text: str) -> np.ndarray:
    """--point: interleaved re,im pairs, as a flat array of reals."""
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed point {text!r}") from exc


def _parse_grid(text: str) -> list[tuple[float, float, int]]:
    """--grid: the two min,max,steps triples of the x and the y axis."""
    values = text.split(",")
    if len(values) != 6:
        raise argparse.ArgumentTypeError("grid spec must be two min,max,steps triples")
    axes = []
    for i in (0, 3):
        lo, hi, steps = float(values[i]), float(values[i + 1]), int(values[i + 2])
        if steps < 2:
            raise argparse.ArgumentTypeError("grid axes need at least 2 steps")
        if not lo < hi:
            raise argparse.ArgumentTypeError("grid axis needs min < max")
        if not np.isfinite(hi - lo):
            raise argparse.ArgumentTypeError("grid axis needs finite min, max and max - min")
        axes.append((lo, hi, steps))
    return axes


def _axis_points(lo: float, hi: float, steps: int) -> np.ndarray:
    h = (hi - lo) / steps
    return lo + h * (np.arange(steps) + 0.5)


def _resolve_preset(spec: str) -> tuple[str, SymmetricSpacePreset | None]:
    """The label and the preset of a ``--preset`` argument, read ignoring case
    and surrounding spaces as ``parse_preset`` reads it; ``fothlu``, a chart
    tensor with no symmetric space behind it, has no preset (None)."""
    if spec.strip().lower() == "fothlu":
        return "fothlu", None
    preset = parse_preset(spec)
    return preset.label, preset


# ---------------------------------------------------------------------------
# subcommands


def _read_matrix(args) -> np.ndarray:
    if args.matrix is not None:
        data = json.loads(args.matrix)
    elif args.infile is not None:
        with open(args.infile) as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix JSON must be a square nested array of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def cmd_factor(args) -> dict:
    g = _read_matrix(args)
    factors = birkhoff_factor(g, args.tol)
    return {
        "mode": "birkhoff",
        "perm": list(factors.perm),
        "signs": list(factors.signs),
        "l": _pairs(factors.l),
        "w": _pairs(factors.w_matrix),
        "h": _pairs(factors.h),
        "u_plus": _pairs(factors.u_plus),
        "residual": float(np.linalg.norm(factors.reconstruct() - g)),
    }


def cmd_iwasawa(args) -> dict:
    g = _read_matrix(args)
    factors = iwasawa_factor(g)
    return {
        "mode": "iwasawa",
        "l": _pairs(factors.l),
        "a": _pairs(factors.a),
        "u": _pairs(factors.u),
        "residual": float(np.linalg.norm(factors.reconstruct() - g)),
    }


def cmd_embed(args) -> dict:
    preset = parse_preset(args.preset)
    u = canonical_rep(_chart_points(args.point, preset), preset)
    phi = cartan_embed(u, preset)
    minors, _, perm, signs, _ = _pivot_minors(phi, _j_diagonal(preset))
    return {
        "preset": preset.label,
        "u": _pairs(u),
        "phi": _pairs(phi),
        "principal_minors": _pairs(minors),
        "layer_perm": list(perm),
        "layer_signs": list(signs),
    }


def cmd_pi(args) -> dict:
    preset = parse_preset(args.preset)
    mat = matrix_of_omega(canonical_rep(_chart_points(args.point, preset), preset), preset)
    return {
        "preset": preset.label,
        "omega_matrix": mat,
        "rank": _skew_rank(mat),
        "dim_ip": preset.dim_ip,
    }


def cmd_moment(args) -> dict:
    preset = parse_preset(args.preset)
    phi = cartan_embed(canonical_rep(_chart_points(args.point, preset), preset), preset)
    # the guard reads the top layer's minors h_0 ... h_(k-1) off the pivots,
    # before the symmetry check, so a wall point is refused here, not by it;
    # the moments read the pivots h alone
    minors, _, perm, _, pivots = _pivot_minors(phi, _j_diagonal(preset))
    top = perm == tuple(range(len(perm)))
    min_minor = float(np.min(np.abs(minors))) if top else 0.0
    if min_minor <= DEFAULT_TOL:
        where = f"min |minor| = {min_minor:.3e}" if top else f"layer {list(perm)}"
        raise StratumAmbiguous(f"point is not strictly inside the top layer ({where})")
    _check_image_symmetry(phi, preset)
    basis = np.stack(torus_tw(perm, preset))
    torus_dim = len(basis)
    if args.index is not None:
        if not 0 <= args.index < torus_dim:
            raise ValueError(f"torus basis index {args.index} out of range 0..{torus_dim - 1}")
        basis = basis[args.index:args.index + 1]
    return {
        "preset": preset.label,
        "layer_perm": list(perm),
        "torus_dim": torus_dim,
        "mu": leaf_moment(pivots, basis, preset).tolist(),
        "basis": _pairs(basis),
    }


def cmd_jacobi(args) -> dict:
    label, preset = _resolve_preset(args.preset)
    tensor = fothlu_w_tensor if preset is None else functools.partial(chart_tensor, preset=preset)
    # an overflowing point is refused below or by the tensor, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        residual = jacobi_residual(tensor, args.point)
    if not np.isfinite(residual):
        raise NumericalDomainError(f"Schouten residual is not finite at the point: {residual}")
    return {"preset": label, "fd_step": FD_STEP, "residual": residual}


# ---------------------------------------------------------------------------
# rank grid


def _grid_layout(preset: SymmetricSpacePreset | None) -> tuple[list, list[str]]:
    """The default axes and the columns of a grid over the preset (None for
    fothlu): cp2 sweeps its real (z1, z2) plane, another Grassmannian the
    complex z11 plane, group:su2 the disc of a; other groups are refused."""
    if preset is None:
        return [(-2.0, 2.0, 40)] * 2, ["re_w", "im_w", "rank", "abs_coefficient"]
    if not preset.is_inner:
        if preset.n != 2:
            raise ValueError(f"rank-grid takes group:su2 of the group presets, not {preset.label}")
        return [(-1.0, 1.0, 40)] * 2, ["re_a", "im_a", "rank", "abs_principal_minor"]
    if preset.label == "cp2":
        return [(0.0, 2.0, 40)] * 2, ["re_z1", "re_z2", "rank", "min_abs_minor", "abs_p"]
    plane = ["re_z", "im_z"] if preset.label == "cp1" else ["re_z11", "im_z11"]
    return [(-2.0, 2.0, 40)] * 2, plane + ["rank", "min_abs_minor"]


def _grid_columns(preset, x: np.ndarray, y: np.ndarray) -> list:
    """The rank column and the preset's float columns at the cells (x, y),
    every rank decided at ``DEFAULT_TOL``.  Every preset but fothlu takes
    one route: the point stack u, the rank of the bivector at u, -1 where
    the layer of the Cartan image phi is ambiguous, and the smallest
    |leading minor| of phi, read off the pivots of phi's Birkhoff
    factorization on the top layer (``_pivot_minors``).  A Grassmannian cell
    is the chart matrix z = [c, 0].  Where min(m, n) >= 2, u is cp_n's
    closed-form representative of the column c, with no LAPACK call, put on
    coordinates 0, m, ..., m + n - 1 of the identity; cp_n refuses c where
    gr:m,n refuses z.  gr:m,1 takes z whole: cp1 never refuses c.  A
    group:su2 cell is u = diag(I, k*), where ``pi_el_group`` evaluates, at
    k = [[a, b], [-b*, a*]], a = x + iy, b = sqrt(1 - |a|^2):
    phi = diag(k, k*), whose smallest |leading minor| is |a|.  A cell
    outside the unit disc, |a|^2 overflowing included, gets rank -1 and 0.0.
    fothlu is the one closed form; a coefficient that overflows is refused
    as ``jacobi`` refuses it."""
    if preset is None:
        with np.errstate(over="ignore", invalid="ignore"):
            coeff = np.abs(fothlu_w_chart(x + 1j * y))
        if not np.all(np.isfinite(coeff)):
            raise NumericalDomainError("fothlu coefficient is not finite at a grid cell")
        return [np.where(coeff > DEFAULT_TOL, 2, 0), coeff]
    inside = np.ones(len(x), dtype=bool)
    if preset.is_inner:
        m, n = preset.m, preset.n
        z = np.zeros((len(x), n, m), dtype=complex)
        if preset.label == "cp2":
            z[:, 0, 0], z[:, 1, 0] = x, y
        else:
            z.real[:, 0, 0], z.imag[:, 0, 0] = x, y
        if min(m, n) < 2:
            u = canonical_rep(z, preset)
        else:
            on = np.r_[0, m:m + n]
            u = np.broadcast_to(np.eye(m + n, dtype=complex), (len(x), m + n, m + n)).copy()
            u[:, on[:, np.newaxis], on] = canonical_rep(z[..., :1], grassmannian(1, n))
    else:
        with np.errstate(over="ignore"):
            mod2 = x * x + y * y
        inside = mod2 <= 1.0
        k = su2_from_sphere((x + 1j * y)[inside], np.sqrt(1.0 - mod2[inside]))
        u = block_diag(np.eye(2), k.mT.conj())
    minors, ambiguous, *_ = _pivot_minors(cartan_embed(u, preset), _j_diagonal(preset))
    columns = [np.full(len(x), -1), np.zeros(len(x))]
    columns[0][inside] = np.where(ambiguous, -1, pi_rank(u, preset))
    columns[1][inside] = np.min(np.abs(minors), axis=-1)
    if preset.label == "cp2":
        columns.append(np.abs(cp2_degeneracy_p(x, y)))
    return columns


def _grid_cells(preset, xs: np.ndarray, ys: np.ndarray) -> list[np.ndarray]:
    """The ``_grid_columns`` of the grid's cells, x = repeat(xs, ny) and
    y = tile(ys, nx), so row-major.  The cells are evaluated as flat stacks
    whose (cells, d, d) complex matrices, 16 d^2 bytes a cell, or (cells,)
    points w of fothlu, 16 bytes a cell, fit ``poisson._STACK_BYTES``:
    4,096 cells on cp1, 1,820 on cp2, 1,024 on gr:2,2 and group:su2, 64 on
    gr:6,10 and 16,384 on fothlu.  ``matrix_of_omega`` bounds its own
    frames by the same budget, in chunks of a stack."""
    cell_bytes = 16 if preset is None else 16 * preset.matrix_dim**2
    per_stack = max(1, poisson._STACK_BYTES // cell_bytes)
    x, y = np.repeat(xs, len(ys)), np.tile(ys, len(xs))
    starts = range(0, len(x), per_stack)
    stacks = [_grid_columns(preset, x[i:i + per_stack], y[i:i + per_stack]) for i in starts]
    return [*map(np.concatenate, zip(*stacks))]


def cmd_rank_grid(args) -> dict | str:
    """The grid as a JSON payload or as CSV text without its final newline."""
    label, preset = _resolve_preset(args.preset)
    default_axes, columns = _grid_layout(preset)
    axes = args.grid or default_axes
    xs, ys = (_axis_points(*axis) for axis in axes)
    cells = [np.repeat(xs, len(ys)), np.tile(ys, len(xs)), *_grid_cells(preset, xs, ys)]
    rows = np.rec.fromarrays(cells, names=columns).view(np.ndarray)
    if args.format == "csv":
        return "\n".join(map(",".join, itertools.chain([columns], _table_rows(rows, repr))))
    return {"preset": label, "grid": [list(a) for a in axes], "columns": columns, "rows": rows}


def cmd_verify(args) -> dict:
    return run_suite(args.suite, args.seed)


def cmd_calibration(args) -> dict:
    return {"constant": calibration_constant()}


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpoisson",
        description="Poisson geometry of compact symmetric spaces via triangular factorization",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand declares only the shared flags it reads
    flag_specs = {
        "--point": dict(
            type=_parse_point,
            required=True,
            help="comma-separated re,im pairs (use --point=... when the first value is negative)",
        ),
        "--tol": dict(type=float, default=DEFAULT_TOL),
        "--seed": dict(type=int, default=0),
        "--grid": dict(type=_parse_grid, help="min,max,steps,min,max,steps: the x and y axes"),
        "--format": dict(choices=["json", "csv"], default="json"),
    }

    def add(name: str, func, text: str, *flags: str, presets: str | None = None):
        p = sub.add_parser(name, help=text)
        if presets:
            p.add_argument("--preset", default="cp1", help=presets)
        for flag in flags:
            p.add_argument(flag, **flag_specs[flag])
        # main writes every payload, so every subcommand takes --out
        p.add_argument("--out", help="output path (default: stdout)")
        p.set_defaults(func=func)
        return p

    chart = "gr:m,n | cp1 | cpN | cpn:N"
    for name, func, text, *flags in (
        ("factor", cmd_factor, "Birkhoff (permuted LDU) factorization", "--tol"),
        ("iwasawa", cmd_iwasawa, "Iwasawa (lower-unipotent / diagonal / unitary) factorization"),
    ):
        p = add(name, func, text, *flags)
        p.add_argument("--in", dest="infile", help="JSON matrix file (default: stdin)")
        p.add_argument("--matrix", help="inline JSON matrix")
    add("embed", cmd_embed, "canonical representative and Cartan image at a chart point",
        "--point", presets=chart)
    add("pi", cmd_pi, "bivector operator matrix and rank at a chart point", "--point", presets=chart)
    add("moment", cmd_moment, "momentum values on the layer torus basis", "--point",
        presets=chart).add_argument("--index", type=int, help="single torus basis index")
    add("rank-grid", cmd_rank_grid, "grid sweep emitting rank and degeneracy data",
        "--grid", "--format", presets=f"{chart} | group:su2 | su2 | fothlu")
    add("verify", cmd_verify, "run a verification suite", "--seed").add_argument(
        "suite", choices=[*SUITES, "all"], metavar="suite", help=" | ".join([*SUITES, "all"]))
    add("jacobi", cmd_jacobi, "finite-difference Schouten bracket residual", "--point",
        presets=f"{chart} | fothlu")
    add("calibration", cmd_calibration, "measured local-to-equivariant calibration constant")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse ``argv``, run its handler, write its payload; return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        payload = args.func(args)
        if isinstance(payload, str):
            _write([payload, "\n"], args.out)
            return EXIT_OK
        # a top-level value at a time: pi's matrix text is never copied
        _write(itertools.chain(_dict_chunks(payload, ""), ["\n"]), args.out)
        return EXIT_OK if payload.get("pass", True) else EXIT_VERIFY_FAIL
    except NumericalDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
