"""Batch front end: factorizations, pointwise evaluations, grid sweeps
emitting plot data, and the verification suites.

Conventions: complex scalars serialize as [re, im] pairs and matrices as
row-major nested arrays of such pairs.  Grid sweeps sample open rectangles
with a half-step offset so exact boundary points are avoided.  Exit codes:
0 ok, 1 verification failure, 2 usage/parse error, 3 numerical-domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import NumericalDomainError, StratumAmbiguous
from .linalg import birkhoff_factor, iwasawa_factor, principal_minors
from .momentum import leaf_moment
from .poisson import (
    calibration_constant,
    complex_to_reals,
    coordinate_bivector,
    cp2_degeneracy_p,
    jacobi_residual,
    matrix_of_omega,
    pi_rank,
    su2_el_matrix,
    su2_from_sphere,
)
from .strata import _factor_image, torus_tw
from .symspace import (
    SymmetricSpacePreset,
    canonical_rep,
    cartan_embed,
    parse_preset,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_DEFAULT_GRIDS = {
    "cp1": [(-2.0, 2.0, 40), (-2.0, 2.0, 40)],
    "cp2": [(0.0, 2.0, 40), (0.0, 2.0, 40)],
    "su2": [(-1.0, 1.0, 40), (-1.0, 1.0, 40)],
    "fothlu": [(-2.0, 2.0, 40), (-2.0, 2.0, 40)],
    "gr": [(-2.0, 2.0, 40), (-2.0, 2.0, 40)],
}

_GRID_COLUMNS = {
    "cp1": ["re_z", "im_z", "rank", "min_abs_minor"],
    "cp2": ["abs_z1", "abs_z2", "rank", "min_abs_minor", "abs_p"],
    "gr": ["re_z11", "im_z11", "rank", "min_abs_minor"],
    "su2": ["re_a", "im_a", "rank", "abs_principal_minor"],
    "fothlu": ["re_w", "im_w", "rank", "abs_coefficient"],
}


@dataclass
class RunConfig:
    """Common run parameters shared by the subcommands."""

    preset: str | None = None
    tol: float = 1e-9
    fd_step: float = 1e-5
    seed: int = 0
    grid: list[tuple[float, float, int]] = field(default_factory=list)
    out: str | None = None
    fmt: str = "json"

    def __post_init__(self) -> None:
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        for lo, hi, steps in self.grid:
            if steps < 2:
                raise ValueError("grid axes need at least 2 steps")
            if not lo < hi:
                raise ValueError("grid axis needs min < max")


# ---------------------------------------------------------------------------
# serialization helpers


def _c2j(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _mat2j(m: np.ndarray) -> list:
    return [[_c2j(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _j2mat(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("matrix JSON must be a square nested array of [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, out: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", out)


def _parse_point(text: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed point {text!r}") from exc
    if len(values) % 2:
        raise ValueError("points need an even number of reals (re, im pairs)")
    arr = np.asarray(values)
    return arr[0::2] + 1j * arr[1::2]


def _parse_grid(text: str) -> list[tuple[float, float, int]]:
    values = text.split(",")
    if len(values) % 3:
        raise ValueError("grid spec must be min,max,steps triples")
    axes = []
    for i in range(0, len(values), 3):
        axes.append((float(values[i]), float(values[i + 1]), int(values[i + 2])))
    return axes


def _axis_points(lo: float, hi: float, steps: int) -> np.ndarray:
    h = (hi - lo) / steps
    return lo + h * (np.arange(steps) + 0.5)


def _chart_matrix(preset: SymmetricSpacePreset, point: np.ndarray) -> np.ndarray:
    expected = preset.m * preset.n
    if point.size != expected:
        raise ValueError(
            f"preset {preset.label} needs {expected} complex coordinates, got {point.size}"
        )
    return point.reshape(preset.n, preset.m)


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
    return _j2mat(data)


def cmd_factor(args, config: RunConfig) -> int:
    g = _read_matrix(args)
    factors = birkhoff_factor(g, config.tol)
    residual = float(np.linalg.norm(factors.reconstruct() - g))
    _emit(
        {
            "mode": "birkhoff",
            "perm": list(factors.perm),
            "signs": list(factors.signs),
            "l": _mat2j(factors.l),
            "w": _mat2j(factors.w_matrix),
            "h": _mat2j(factors.h),
            "u_plus": _mat2j(factors.u_plus),
            "residual": residual,
        },
        config.out,
    )
    return EXIT_OK


def cmd_iwasawa(args, config: RunConfig) -> int:
    g = _read_matrix(args)
    factors = iwasawa_factor(g, config.tol)
    residual = float(np.linalg.norm(factors.reconstruct() - g))
    _emit(
        {
            "mode": "iwasawa",
            "l": _mat2j(factors.l),
            "a": _mat2j(factors.a),
            "u": _mat2j(factors.u),
            "residual": residual,
        },
        config.out,
    )
    return EXIT_OK


def cmd_embed(args, config: RunConfig) -> int:
    preset = parse_preset(config.preset or "cp1")
    z = _chart_matrix(preset, _parse_point(args.point))
    u = canonical_rep(z, preset)
    phi = cartan_embed(u, preset)
    factors = birkhoff_factor(phi, config.tol)
    _emit(
        {
            "preset": preset.label,
            "u": _mat2j(u),
            "phi": _mat2j(phi),
            "principal_minors": [_c2j(v) for v in principal_minors(phi)],
            "layer_perm": list(factors.perm),
            "layer_signs": list(factors.signs),
        },
        config.out,
    )
    return EXIT_OK


def cmd_pi(args, config: RunConfig) -> int:
    preset = parse_preset(config.preset or "cp1")
    z = _chart_matrix(preset, _parse_point(args.point))
    u = canonical_rep(z, preset)
    mat = matrix_of_omega(u, preset)
    _emit(
        {
            "preset": preset.label,
            "omega_matrix": mat.tolist(),
            "rank": int(np.linalg.matrix_rank(mat, tol=config.tol)),
            "dim_ip": preset.dim_ip,
        },
        config.out,
    )
    return EXIT_OK


def cmd_moment(args, config: RunConfig) -> int:
    preset = parse_preset(config.preset or "cp1")
    z = _chart_matrix(preset, _parse_point(args.point))
    u = canonical_rep(z, preset)
    phi = cartan_embed(u, preset)
    min_minor = float(np.min(np.abs(principal_minors(phi))))
    if min_minor <= config.tol:
        raise StratumAmbiguous(
            f"point is not strictly inside the top layer (min |minor| = {min_minor:.3e})"
        )
    lf = _factor_image(phi, preset, config.tol)
    basis = torus_tw((lf.perm, lf.signs), preset)
    torus_dim = len(basis)
    if args.index is not None:
        if not 0 <= args.index < torus_dim:
            raise ValueError(f"torus basis index {args.index} out of range 0..{torus_dim - 1}")
        basis = [basis[args.index]]
    values = [leaf_moment(lf, x, preset) for x in basis]
    _emit(
        {
            "preset": preset.label,
            "layer_perm": list(lf.perm),
            "torus_dim": torus_dim,
            "mu": values,
            "basis": [_mat2j(x) for x in basis],
        },
        config.out,
    )
    return EXIT_OK


def cmd_jacobi(args, config: RunConfig) -> int:
    name = (config.preset or "cp1").lower()
    point = _parse_point(args.point)
    if name == "cp1":
        biv = coordinate_bivector("cp1")
    elif name == "cp2":
        biv = coordinate_bivector("cpn", n=2)
    elif name.startswith("cpn:"):
        biv = coordinate_bivector("cpn", n=int(name[4:]))
    elif name.startswith("gr:"):
        preset = parse_preset(name)
        biv = coordinate_bivector("grassmann", m=preset.m, n=preset.n)
    elif name == "fothlu":
        biv = coordinate_bivector("fothlu_w")
    else:
        raise ValueError(f"jacobi supports chart presets, not {name!r}")
    reals = complex_to_reals(point)
    if reals.size != biv.dim_real:
        raise ValueError(f"preset {name} needs {biv.dim_real // 2} complex coordinates")
    residual = jacobi_residual(biv, reals, config.fd_step)
    _emit(
        {"preset": name, "fd_step": config.fd_step, "residual": residual},
        config.out,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# rank grid


def _grid_cell(name: str, x: float, y: float, tol: float) -> list[float]:
    """One row of the closed-form su2 and fothlu grids."""
    if name == "su2":
        mod2 = x * x + y * y
        if mod2 > 1.0:
            return [x, y, -1, 0.0]
        a = complex(x, y)
        b = complex(np.sqrt(1.0 - mod2))
        mat = su2_el_matrix(su2_from_sphere(a, b))
        return [x, y, int(np.linalg.matrix_rank(mat, tol=tol)), abs(a)]
    w = complex(x, y)
    coeff = abs(-2.0 * y * (1.0 + abs(w) ** 2))
    return [x, y, 2 if coeff > tol else 0, coeff]


# Bytes of the (cells, dim_ip, d, d) complex stack that matrix_of_omega
# builds for one stack of grid cells; bounds the cells per stack.
_STACK_BYTES = 1 << 18


def _grid_cells(name: str, preset, xs: list[float], ys: list[float], tol: float) -> list[list]:
    """The cells (x, y) of the grid, row-major, evaluated as flat stacks of
    chart points of at most ``_STACK_BYTES`` of odd-basis images each; a cell
    whose layer is ambiguous gets rank -1."""
    d = preset.matrix_dim
    per_stack = max(1, _STACK_BYTES // (16 * preset.dim_ip * d * d))
    cells = [(x, y) for x in xs for y in ys]
    rows = []
    for start in range(0, len(cells), per_stack):
        chunk = cells[start:start + per_stack]
        xy = np.array(chunk)
        z = np.zeros((len(chunk), preset.n, preset.m), dtype=complex)
        if name == "cp2":
            z[:, 0, 0], z[:, 1, 0] = xy[:, 0], xy[:, 1]
        else:
            z.real[:, 0, 0], z.imag[:, 0, 0] = xy[:, 0], xy[:, 1]
        u = canonical_rep(z, preset)
        phi = cartan_embed(u, preset)
        min_minors = np.min(np.abs(principal_minors(phi)), axis=-1)
        ranks = pi_rank(u, preset, tol)
        try:
            birkhoff_factor(phi, tol)
        except StratumAmbiguous as exc:
            ranks = np.where(exc.mask, -1, ranks)
        for (x, y), rank, min_minor in zip(chunk, ranks.tolist(), min_minors.tolist()):
            rows.append([x, y, rank, min_minor])
            if name == "cp2":
                rows[-1].append(abs(cp2_degeneracy_p(complex(x), complex(y))))
    return rows


def cmd_rank_grid(args, config: RunConfig) -> int:
    spec = (config.preset or "cp1").lower()
    if spec.startswith("gr:"):
        name = "gr"
        preset = parse_preset(spec)
    elif spec in ("cp1", "cp2"):
        name = spec
        preset = parse_preset(spec)
    elif spec in ("su2", "fothlu"):
        name = spec
        preset = None
    else:
        raise ValueError(f"rank-grid supports cp1 | cp2 | gr:m,n | su2 | fothlu, not {spec!r}")
    axes = config.grid or _DEFAULT_GRIDS[name]
    if len(axes) != 2:
        raise ValueError("rank-grid needs exactly two grid axes")
    xs = [float(x) for x in _axis_points(*axes[0])]
    ys = [float(y) for y in _axis_points(*axes[1])]
    if preset is None:
        rows = [_grid_cell(name, x, y, config.tol) for x in xs for y in ys]
    else:
        rows = _grid_cells(name, preset, xs, ys, config.tol)
    columns = _GRID_COLUMNS[name]
    if config.fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        _write("\n".join(lines) + "\n", config.out)
    else:
        _emit(
            {
                "preset": spec,
                "grid": [list(a) for a in axes],
                "columns": columns,
                "rows": rows,
            },
            config.out,
        )
    return EXIT_OK


def cmd_verify(args, config: RunConfig) -> int:
    report = run_suite(args.suite, config.seed, config.tol, config.fd_step)
    _emit(report, config.out)
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAIL


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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--preset", help="gr:m,n | cp1 | cpn:n | cp2 | su2 | group:su2 | fothlu")
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--fd-step", type=float, default=1e-5)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid", help="min,max,steps[,min,max,steps...]")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], default="json")

    p_factor = sub.add_parser("factor", help="Birkhoff (permuted LDU) factorization")
    p_factor.add_argument("--in", dest="infile", help="JSON matrix file (default: stdin)")
    p_factor.add_argument("--matrix", help="inline JSON matrix")
    add_common(p_factor)
    p_factor.set_defaults(func=cmd_factor)

    p_iwa = sub.add_parser("iwasawa", help="Iwasawa (lower-unipotent / diagonal / unitary) factorization")
    p_iwa.add_argument("--in", dest="infile")
    p_iwa.add_argument("--matrix")
    add_common(p_iwa)
    p_iwa.set_defaults(func=cmd_iwasawa)

    p_embed = sub.add_parser("embed", help="canonical representative and Cartan image at a chart point")
    p_embed.add_argument("--point", required=True, help="comma-separated re,im pairs")
    add_common(p_embed)
    p_embed.set_defaults(func=cmd_embed)

    p_pi = sub.add_parser("pi", help="bivector operator matrix and rank at a chart point")
    p_pi.add_argument("--point", required=True)
    add_common(p_pi)
    p_pi.set_defaults(func=cmd_pi)

    p_moment = sub.add_parser("moment", help="momentum values on the layer torus basis")
    p_moment.add_argument("--point", required=True)
    p_moment.add_argument("--index", type=int, help="single torus basis index")
    add_common(p_moment)
    p_moment.set_defaults(func=cmd_moment)

    p_grid = sub.add_parser("rank-grid", help="grid sweep emitting rank and degeneracy data")
    add_common(p_grid)
    p_grid.set_defaults(func=cmd_rank_grid)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "suite",
        help="factorization | embedding | bivector | local-vs-equivariant | jacobi | "
        "lambda-identity | degeneracy | momentum | all",
    )
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_jac = sub.add_parser("jacobi", help="finite-difference Schouten bracket residual")
    p_jac.add_argument("--point", required=True)
    add_common(p_jac)
    p_jac.set_defaults(func=cmd_jacobi)

    p_cal = sub.add_parser("calibration", help="measured local-to-equivariant calibration constant")
    add_common(p_cal)
    p_cal.set_defaults(func=lambda a, c: (_emit({"constant": calibration_constant()}, c.out), EXIT_OK)[1])

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        config = RunConfig(
            preset=args.preset,
            tol=args.tol,
            fd_step=args.fd_step,
            seed=args.seed,
            grid=_parse_grid(args.grid) if args.grid else [],
            out=args.out,
            fmt=args.format,
        )
        return args.func(args, config)
    except NumericalDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
