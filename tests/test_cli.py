import argparse
import csv
import gc
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from birkhoff_poisson import (
    StratumAmbiguous,
    SymmetryViolation,
    birkhoff_factor,
    birkhoff_layer,
    canonical_rep,
    cartan_embed,
    parse_preset,
    pi_rank,
    principal_minors,
)
from birkhoff_poisson import cli, linalg, momentum, poisson, strata, verify
from birkhoff_poisson.cli import main
from birkhoff_poisson.poisson import pi_el_group, su2_frame, su2_from_sphere


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_factor_identity(capsys):
    code, out = run_cli(
        ["factor", "--matrix", "[[[1,0],[0,0]],[[0,0],[1,0]]]"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["perm"] == [0, 1]
    assert data["residual"] == 0.0


def test_factor_signed_rotation(capsys):
    code, out = run_cli(
        ["factor", "--matrix", "[[[0,0],[1,0]],[[-1,0],[0,0]]]"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["perm"] == [1, 0]
    assert data["signs"] == [1, -1]


def test_factor_random_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(2)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    g = g / np.exp(np.log(np.linalg.det(g)) / 3)
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in g]))
    code, out = run_cli(["factor", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-10
    code, out = run_cli(["iwasawa", "--in", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-10


def test_factor_reads_its_matrix_from_stdin_by_default(monkeypatch, capsys):
    expected = run_cli(["factor", "--matrix", _MATRIX], capsys)
    monkeypatch.setattr("sys.stdin", io.StringIO(_MATRIX))
    assert run_cli(["factor"], capsys) == expected
    assert expected[0] == 0


def test_factor_tol_follows_the_scale_of_the_matrix(capsys):
    # a determinant-one matrix has a scale of its own: diag(1e-10, 1e10)
    # has no pivot above the default 1e-9, and factors at --tol 1e-12
    matrix = "[[[1e-10,0],[0,0]],[[0,0],[1e10,0]]]"
    assert main(["factor", "--matrix", matrix]) == 3
    assert "no usable pivot" in capsys.readouterr().err
    code, out = run_cli(["factor", "--matrix", matrix, "--tol", "1e-12"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["perm"] == [0, 1] and data["residual"] == 0.0


def test_parse_error_exit_code(capsys):
    code, _ = run_cli(["factor", "--matrix", "not json"], capsys)
    assert code == 2
    code, _ = run_cli(["embed", "--preset", "cp1", "--point", "0.1"], capsys)
    assert code == 2


def test_singular_exit_code(capsys):
    code, _ = run_cli(["factor", "--matrix", "[[[1,0],[1,0]],[[1,0],[1,0]]]"], capsys)
    assert code == 3


def test_embed_reports_layer(capsys):
    code, out = run_cli(["embed", "--preset", "cp1", "--point", "0.5,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["layer_perm"] == [0, 1]
    minors = [complex(re, im) for re, im in data["principal_minors"]]
    assert abs(minors[0] - 0.6) < 1e-12  # (1-|z|^2)/(1+|z|^2) at z = 0.5


def test_pi_rank_output(capsys):
    code, out = run_cli(["pi", "--preset", "cp1", "--point", "0,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 2 and data["dim_ip"] == 2


def test_moment_closed_form(capsys):
    code, out = run_cli(["moment", "--preset", "cp1", "--point", "0.6,0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["mu"][0] == pytest.approx(np.log(1.36 / 0.64), abs=1e-10)
    assert data["torus_dim"] == 1


def test_moment_origin_zero(capsys):
    code, out = run_cli(["moment", "--preset", "cp1", "--point", "0,0"], capsys)
    assert code == 0
    assert json.loads(out)["mu"][0] == pytest.approx(0.0, abs=1e-12)


def test_moment_equator_is_domain_error(capsys):
    assert main(["moment", "--preset", "cp1", "--point", "1,0"]) == 3
    assert "not strictly inside the top layer" in capsys.readouterr().err


def test_moment_point_with_a_negative_first_value(capsys):
    code, out = run_cli(["moment", "--preset", "cp2", "--point=-0.5,0.2,0.1,0.1"], capsys)
    assert code == 0 and json.loads(out)["torus_dim"] == 2


@pytest.mark.parametrize("command", ["embed", "pi", "moment", "jacobi"])
@pytest.mark.parametrize("point", ["0.5,0", "0.1,0,0.2,0,0.3,0,0.4,0"])
def test_chart_commands_reject_group_presets(command, point, capsys):
    code = main([command, "--preset", "group:su2", "--point", point])
    assert code == 2
    assert "charts exist for the Grassmannian family only" in capsys.readouterr().err


def test_moment_builds_the_cartan_image_once(monkeypatch, capsys):
    # moment builds one representative and one image, and reads every
    # moment off the one leaf factorization of that image
    images, reps = [], []
    for module in (cli, strata, momentum):
        if hasattr(module, "cartan_embed"):
            monkeypatch.setattr(
                module, "cartan_embed", lambda u, preset: images.append(u) or cartan_embed(u, preset)
            )
        if hasattr(module, "canonical_rep"):
            monkeypatch.setattr(
                module, "canonical_rep", lambda z, preset: reps.append(z) or canonical_rep(z, preset)
            )
    point = "--point=0.1,0.05,0.2,-0.1,0.05,0.1,-0.2,0.15"
    code, out = run_cli(["moment", "--preset", "gr:2,2", point], capsys)
    assert code == 0 and json.loads(out)["torus_dim"] == 3
    assert len(images) == 1 and len(reps) == 1


def test_jacobi_subcommand(capsys):
    code, out = run_cli(["jacobi", "--preset", "cp2", "--point", "0.3,0.1,-0.2,0.4"], capsys)
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-5


@pytest.mark.parametrize(
    "preset,point",
    [
        ("cp2", "0.3,0.1,-0.2,0.4"),
        ("gr:2,2", "0.1,0.2,-0.3,0.1,0.2,0.05,-0.1,0.3"),
        ("fothlu", "0.3,-0.7"),
    ],
)
def test_jacobi_evaluates_its_stencil_in_one_tensor_call(preset, point, monkeypatch, capsys):
    stencils = []

    def counted(tensor):
        def record(x, **kwargs):
            stencils.append(np.shape(x))
            return tensor(x, **kwargs)

        return record

    for name in ("chart_tensor", "fothlu_w_tensor"):
        monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
    code, out = run_cli(["jacobi", "--preset", preset, "--point", point], capsys)
    assert code == 0 and json.loads(out)["residual"] <= 1e-5
    dim = len(point.split(","))
    assert stencils == [(2 * dim + 1, dim)]


def test_jacobi_accepts_the_cpn_spelling_of_parse_preset(capsys):
    point = "0.1,0.2,0.3,-0.1,0.05,0.2"
    code, out = run_cli(["jacobi", "--preset", "cp3", "--point", point], capsys)
    assert code == 0
    assert json.loads(out)["preset"] == "cp3"
    assert run_cli(["jacobi", "--preset", "cpn:3", "--point", point], capsys) == (code, out)
    assert run_cli(["jacobi", "--preset", "group:su2", "--point", point], capsys)[0] == 2


@pytest.mark.parametrize(
    "spellings,point",
    [
        (["cp1", "cpn:1", "gr:1,1", "cp1 ", " CP1"], "0.3,-0.2"),
        (["cp2", "cpn:2", "gr:1,2", " cp2", "CPN:2 "], "0.1,0.2,0.3,0.1"),
        (["fothlu", " fothlu", "FOTHLU"], "0.3,-0.7"),
    ],
)
def test_jacobi_prints_one_output_for_every_spelling_of_a_preset(spellings, point, capsys):
    # every spelling parse_preset accepts goes through the one Grassmann
    # kernel and echoes the preset's label, as embed, pi and moment do
    outputs = {run_cli(["jacobi", "--preset", spec, f"--point={point}"], capsys) for spec in spellings}
    assert len(outputs) == 1
    ((code, out),) = outputs
    assert code == 0
    data = json.loads(out)
    assert data["preset"] == spellings[0] and data["residual"] <= 1e-5


# The shared flags each subcommand reads; it declares no other.
_SHARED_FLAGS = {"--preset", "--tol", "--fd-step", "--seed", "--grid", "--out", "--format"}
_READS = {
    "factor": {"--tol", "--out"},
    "iwasawa": {"--out"},
    "embed": {"--preset", "--out"},
    "pi": {"--preset", "--out"},
    "moment": {"--preset", "--out"},
    "rank-grid": {"--preset", "--grid", "--format", "--out"},
    "verify": {"--seed", "--out"},
    "jacobi": {"--preset", "--out"},
    "calibration": {"--out"},
}
_MATRIX = "[[[1,0],[0,0]],[[0,0],[1,0]]]"
_MINIMAL = {
    "factor": ["factor", "--matrix", _MATRIX],
    "iwasawa": ["iwasawa", "--matrix", _MATRIX],
    "embed": ["embed", "--point", "0.5,0"],
    "pi": ["pi", "--point", "0.5,0"],
    "moment": ["moment", "--point", "0.5,0"],
    "rank-grid": ["rank-grid", "--grid=-1,1,2,-1,1,2"],
    "verify": ["verify", "lambda-identity"],
    "jacobi": ["jacobi", "--point", "0.5,0"],
    "calibration": ["calibration"],
}
_FLAG_VALUES = {
    "--preset": "cp1",
    "--tol": "1e-8",
    "--fd-step": "1e-4",
    "--seed": "3",
    "--grid": "-1,1,2,-1,1,2",
    "--format": "csv",
}


def test_each_subcommand_declares_only_the_shared_flags_it_reads():
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    declared = {
        name: {opt for a in p._actions for opt in a.option_strings} & _SHARED_FLAGS
        for name, p in subparsers.choices.items()
    }
    assert declared == _READS
    assert sum(map(len, declared.values())) == 18


@pytest.mark.parametrize("command", sorted(_READS))
def test_every_flag_a_subcommand_reads_parses(command, tmp_path):
    out = tmp_path / "out.txt"
    argv = list(_MINIMAL[command])
    for flag in sorted(_READS[command] - {"--out"}):
        argv.append(f"{flag}={_FLAG_VALUES[flag]}")
    if command == "moment":
        argv += ["--index", "0"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text()


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c in sorted(_READS) for f in sorted(_SHARED_FLAGS - _READS[c])],
)
def test_a_flag_the_subcommand_does_not_read_exits_2(command, flag, capsys):
    assert main(_MINIMAL[command] + [f"{flag}={_FLAG_VALUES[flag]}"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["factor", "--matrix", _MATRIX, "--tol", "nan"],
        ["rank-grid", "--grid=1,0,4,-1,1,4"],
        ["rank-grid", "--grid=0,1,1,-1,1,4"],
        ["rank-grid", "--grid=1,0,4"],
        ["rank-grid", "--grid=0,1,1"],
        ["rank-grid", "--grid=0,1"],
        ["embed", "--point", "0.5,x"],
        ["jacobi", "--preset", "gr:2,2", "--point=nan,0,0,0,0,0,0,0"],
        ["jacobi", "--preset", "cp2", "--point=inf,0,0,0"],
        ["rank-grid", "--preset", "fothlu", "--grid=-inf,1,4,-1,1,4"],
        ["rank-grid", "--preset", "su2", "--grid=-1e308,1e308,4,-1,1,4"],
        ["rank-grid", "--preset", "group:su3"],
        ["rank-grid", "--preset", "su4"],
    ],
)
def test_invalid_flag_values_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["jacobi", "--preset", "fothlu", "--point=0.1,0.2,0.3,0.4"], "needs 1 complex coordinates"),
        (["moment", "--preset", "cp2", "--point=0.1,0,0.2,0", "--index", "5"], "out of range 0..1"),
        (["factor", "--matrix", "[[[1,0],[0,0]]]"], "must be a square nested array"),
        (["embed", "--preset", "gr:2", "--point=0.1,0"], "malformed Grassmannian preset"),
        (["embed", "--preset", "gr:0,2", "--point=0.1,0"], "block sizes must be positive"),
        (["embed", "--preset", "su1", "--point=0.1,0"], "group case needs factor size at least 2"),
        (["rank-grid", "--grid=0,1,4"], "grid spec must be two min,max,steps triples"),
        (["rank-grid", "--grid=0,1,4,0,1,4,0,1,4"], "grid spec must be two min,max,steps triples"),
        (["verify", "no-such-suite"], "invalid choice: 'no-such-suite'"),
    ],
)
def test_refused_inputs_exit_2_and_say_why(argv, reason, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err


@pytest.mark.parametrize(
    "preset,point",
    [
        ("cp1", "1e300,0"),
        ("gr:1,1", "1e300,0"),
        ("cp2", "0,0,1e300,0"),
        ("cpn:2", "0,0,1e300,0"),
        ("gr:2,2", "1e300,0,0,0,0,0,0,0"),
        # the tensor is finite here, but the bracket of its derivatives overflows
        ("cp2", "1e60,0,0.5,0"),
    ],
)
def test_jacobi_at_an_overflowing_point_exits_3(preset, point, capsys):
    # the Grassmann kernel refuses a tensor that is not finite; on cp1 the
    # Schouten bracket has no component, so without that refusal the
    # residual would read 0.0
    with np.errstate(all="ignore"):
        assert main(["jacobi", "--preset", preset, f"--point={point}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize(
    "preset,point",
    [
        ("cp1", "1e300,0"),
        ("gr:1,1", "1e300,0"),
        ("fothlu", "1e300,1e300"),
        ("fothlu", "1e200,1e200"),
        ("cp2", "1e300,0,0,0"),
        ("cpn:2", "1e300,0,0,0"),
        ("gr:2,2", "1e300,0,0,0,0,0,0,0"),
        ("cp2", "1e60,0,0.5,0"),
    ],
)
def test_jacobi_at_an_overflowing_point_exits_3_without_warnings(preset, point, capsys):
    # pytest turns warnings into errors, so an unsilenced overflow fails here
    assert main(["jacobi", "--preset", preset, f"--point={point}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rank_grid_refuses_an_overflowing_fothlu_grid_without_warnings(fmt, capsys):
    # pytest turns warnings into errors, so an unsilenced overflow fails here
    argv = ["rank-grid", "--preset", "fothlu", "--grid=-1e200,1e200,3,-1e200,1e200,3"]
    assert main(argv + ["--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_rank_grid_su2_cells_that_overflow_lie_outside_the_disc(capsys):
    argv = ["rank-grid", "--preset", "su2", "--grid=-1e200,1e200,3,-1e200,1e200,3"]
    assert main(argv + ["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    axis = cli._axis_points(-1e200, 1e200, 3).tolist()
    # |a|^2 overflows everywhere but at the centre, a = 0, which is inside
    expected = [f"{x!r},{y!r},{0 if x == y == 0 else -1},0.0" for x in axis for y in axis]
    assert captured.out.splitlines()[1:] == expected


@pytest.mark.parametrize("command", ["moment", "embed", "pi"])
@pytest.mark.parametrize(
    "preset,point,message",
    [
        # I + z z* has condition number 1 + 1e16
        ("cp2", "1e8,0,0,0", "ill-conditioned"),
        # z = [[1e8, 1e8], [0, 1]]: 1 + 1e16 is lost to rounding in I + z* z
        ("gr:2,2", "1e8,0,1e8,0,0,0,1,0", "ill-conditioned"),
        ("cp1", "1e300,0", "overflows"),
        ("gr:2,2", "1e200,0,0,0,0,0,1e200,0", "overflows"),
    ],
)
def test_chart_commands_refuse_the_same_chart_points(command, preset, point, message, capsys):
    # moment reads the Cartan image off the representative that embed and
    # pi build; all three refuse the point with exit 3
    assert main([command, "--preset", preset, f"--point={point}"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("preset,point", [("cp2", "0.3,-0.2,0.1,0.4"), ("gr:2,2", "0.2,0.1,-0.3,0,0.1,0.2,0.4,-0.1")])
def test_embed_and_moment_see_the_same_cartan_image(preset, point, capsys):
    code, out = run_cli(["embed", "--preset", preset, f"--point={point}"], capsys)
    assert code == 0
    data = json.loads(out)
    phi = np.array([[complex(re, im) for re, im in row] for row in data["phi"]])
    minors = np.array([complex(re, im) for re, im in data["principal_minors"]])
    p = parse_preset(preset)
    z = cli._chart_matrix(p, cli._parse_point(point))
    closed = cartan_embed(canonical_rep(z, p), p)
    np.testing.assert_allclose(closed, phi, rtol=0, atol=1e-13)
    assert np.min(np.abs(principal_minors(closed))) == pytest.approx(
        np.min(np.abs(minors)), rel=1e-13
    )
    code, out = run_cli(["moment", "--preset", preset, f"--point={point}"], capsys)
    assert code == 0 and json.loads(out)["layer_perm"] == data["layer_perm"]


def test_embed_far_out_on_the_chart(capsys):
    # |z|^2 = 1.5e11: u and phi stay unitary to rounding, so phi keeps
    # determinant 1 and the Birkhoff factorization accepts it
    code, out = run_cli(["embed", "--preset", "cp2", "--point=1e5,2e5,-3e5,1e5"], capsys)
    assert code == 0
    data = json.loads(out)
    for key in ("u", "phi"):
        g = np.array([[complex(re, im) for re, im in row] for row in data[key]])
        assert np.linalg.norm(g @ g.conj().T - np.eye(3)) <= 1e-14


@pytest.mark.parametrize("point,code", [("0.3,0.1,0.2,-0.1", 0), ("0.6,0,0,0.8", 3)])
def test_moment_classifies_its_point_with_one_factorization(point, code, monkeypatch, capsys):
    # the image is the package's own, unimodular by construction: one
    # elimination, with no det, gives the factors the moments come from and
    # the pivots the top-layer guard reads (_pivot_minors).  On the top
    # layer that is the Hermitian elimination alone, with no _eliminate
    # call.  The wall point |z| = 1 is left to _eliminate, once, on a lower
    # layer whose minors _pivot_minors takes once by principal_minors, and
    # is refused before the symmetry checks, which would raise
    # SymmetryViolation there
    calls = {"eliminate": 0, "factor": 0, "minors": 0, "det": 0, "symmetry": 0}
    eliminate, factor, minors = linalg._eliminate, linalg.birkhoff_factor, linalg.principal_minors
    det, symmetry = np.linalg.det, strata._check_leaf_symmetry
    inside = []

    def counted(name, call):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            inside.append(name)
            try:
                return call(*args, **kwargs)
            finally:
                inside.pop()

        return wrapped

    def counted_det(a):
        calls["det"] += "minors" not in inside
        return det(a)

    monkeypatch.setattr(linalg, "_eliminate", counted("eliminate", eliminate))
    monkeypatch.setattr(linalg, "principal_minors", counted("minors", minors))
    for module in (cli, strata, linalg):
        monkeypatch.setattr(module, "birkhoff_factor", counted("factor", factor))
    monkeypatch.setattr(cli, "_check_leaf_symmetry", counted("symmetry", symmetry))
    monkeypatch.setattr(np.linalg, "det", counted_det)
    assert main(["moment", "--preset", "cp2", f"--point={point}"]) == code
    assert calls == {"eliminate": int(code != 0), "factor": 0, "minors": int(code != 0),
                     "det": 0, "symmetry": int(code == 0)}
    if code:
        captured = capsys.readouterr()
        assert captured.out == "" and "not strictly inside the top layer" in captured.err


@pytest.mark.parametrize("entry", [(1, 0), (0, 1), (2, 2)])
def test_moment_refuses_an_image_off_theta_symmetry(entry, monkeypatch):
    # the Hermitian elimination reads phi J on and below its diagonal only,
    # so its factors are theta-symmetric whatever phi is: moment's symmetry
    # check holds phi* = theta(phi) itself, and an image 1e-6 off it, below,
    # above or on the diagonal, is refused
    embed = cli.cartan_embed

    def off_symmetry(u, preset):
        phi = embed(u, preset)
        phi[entry] += 1e-6j
        return phi

    monkeypatch.setattr(cli, "cartan_embed", off_symmetry)
    args = cli._build_parser().parse_args(["moment", "--preset", "cp2", "--point=0.3,0.1,0.2,-0.1"])
    with pytest.raises(SymmetryViolation):
        cli.cmd_moment(args)


@pytest.mark.parametrize("scale", ["154", "160"])
def test_iwasawa_refuses_a_matrix_whose_gram_matrix_overflows(scale, capsys):
    # diag(10^k, 10^-k): det 1, but g g* is not finite
    matrix = f"[[[1e{scale},0],[0,0]],[[0,0],[1e-{scale},0]]]"
    assert main(["iwasawa", "--matrix", matrix]) == 3
    assert capsys.readouterr() == ("", "error: matrix overflows: g g* is not finite\n")


def test_a_lone_band_image_is_refused_by_the_elimination_alone(capsys):
    # the cp1 image at |z| = 1.0000000007 has phi[0, 0] = 7e-10 inside the
    # ambiguity band: the elimination refuses it, and both of its doors,
    # and embed, moment and factor on top of them, pass that on unchanged
    point = "--point=1.0000000007,0"
    cp1 = parse_preset("cp1")
    phi = cartan_embed(canonical_rep(np.array([[1.0000000007 + 0j]]), cp1), cp1)
    refusals = []
    for call in (lambda: linalg._eliminate(phi, linalg.DEFAULT_TOL),
                 lambda: linalg._pivot_minors(phi), lambda: birkhoff_factor(phi)):
        with pytest.raises(StratumAmbiguous) as info:
            call()
        assert info.value.mask.shape == () and info.value.mask
        refusals.append(str(info.value))
    assert refusals == [refusals[0]] * 3 and refusals[0].startswith("entry 7.000e-10 at (0, 0)")
    matrix = json.dumps(np.stack([phi.real, phi.imag], -1).tolist())
    for argv in (["embed", point], ["moment", point], ["factor", "--matrix", matrix]):
        assert main(argv) == 3
        assert capsys.readouterr() == ("", f"error: {refusals[0]}\n")


_GR_6_10_INTERIOR = ",".join(["0.1,0.2"] + ["0.05,-0.03"] * 59)
_GR_6_10_WALL = ",".join(["0.6,0.8"] + ["0,0"] * 59)


@pytest.mark.parametrize(
    "spec,point,rank",
    [
        ("cp1", "0.3,-0.2", 2),
        ("cp1", "0.6,0.8", 0),
        ("cp2", "0.3,-0.2,0.1,0.4", 4),
        ("cp2", "0.6,0,0,0.8", 2),
        ("gr:2,2", "0.1,0,0,0.2,0.3,0,0,-0.1", 8),
        ("gr:2,2", "0.6,0.8,0,0,0,0,0,0", 4),
        ("gr:6,10", _GR_6_10_INTERIOR, 120),
        ("gr:6,10", _GR_6_10_WALL, 108),
    ],
    ids=[f"{spec}-{where}" for spec in ("cp1", "cp2", "gr:2,2", "gr:6,10")
         for where in ("interior", "equator")],
)
def test_pi_prints_the_rank_of_pi_rank(spec, point, rank, monkeypatch, capsys):
    # interior points and points with |z11| = 1, where the bivector drops
    # rank; pi ranks the one matrix it builds and prints by the rule of
    # pi_rank
    built, matrix = [], poisson.matrix_of_omega
    for module in (cli, poisson):
        monkeypatch.setattr(module, "matrix_of_omega", lambda u, p: built.append(p) or matrix(u, p))
    code, out = run_cli(["pi", "--preset", spec, f"--point={point}"], capsys)
    assert code == 0 and len(built) == 1
    preset = parse_preset(spec)
    u = canonical_rep(cli._chart_matrix(preset, cli._parse_point(point)), preset)
    assert json.loads(out)["rank"] == pi_rank(u, preset) == rank


def test_rank_grid_hits_equator(tmp_path, capsys):
    # the chosen half-offset grid contains z = 1 and z = i exactly
    code, out = run_cli(
        [
            "rank-grid",
            "--preset",
            "cp1",
            "--grid=-0.5,1.5,2,-0.5,1.5,2",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    rows = {(row[0], row[1]): row[2] for row in data["rows"]}
    assert rows[(0.0, 0.0)] == 2
    assert rows[(1.0, 0.0)] == 0
    assert rows[(0.0, 1.0)] == 0
    assert rows[(1.0, 1.0)] == 2


def _reference_cell(spec, x, y):
    """One rank-grid row from the per-point library calls."""
    preset = parse_preset(spec)
    z = np.zeros((preset.n, preset.m), dtype=complex)
    if spec == "cp2":
        z[0, 0], z[1, 0] = x, y
    else:
        z[0, 0] = complex(x, y)
    u = canonical_rep(z, preset)
    min_minor = float(np.min(np.abs(principal_minors(cartan_embed(u, preset)))))
    try:
        birkhoff_layer(u, preset)
        rank = pi_rank(u, preset)
    except StratumAmbiguous:
        rank = -1
    return [x, y, rank, min_minor]


# The x axis -8e-10, 1 + 8e-10 puts |z| = 1 inside the ambiguity band on the
# real axis (rank -1), and y = +-1 puts it on the rank-drop locus.  The cp2
# grid hits its locus exactly at (0, +-1) and (1, 0).  cp3, like every
# Grassmannian but cp2, runs on the z11 plane.
_GRID_CASES = [
    ("cp1", "-0.5000000016,1.5000000016,2,-1.5,1.5,3"),
    ("cp2", "-0.5,1.5,2,-1.5,1.5,3"),
    ("gr:2,2", "-0.5000000016,1.5000000016,2,-1.5,1.5,3"),
    ("cp3", "-0.5000000016,1.5000000016,2,-1.5,1.5,3"),
]


# Cells per stack: the default budget (None), one stack; 4, so stacks end
# mid-row and the ambiguous cells of cp1 and gr:2,2 fall in different stacks,
# and the frames of matrix_of_omega run in chunks of 2 cells on cp1 and of 1
# on the others, so a chunk ends inside a stack; 0 for a budget one byte short
# of one cell, which must still give one-cell stacks and one-cell chunks.
@pytest.mark.parametrize(
    "spec,grid,stack_cells",
    [
        pytest.param(spec, grid, cells, id=f"{spec}-{grid}{suffix}")
        for cells, suffix in ((None, ""), (4, "-4cells"), (0, "-0cells"))
        for spec, grid in _GRID_CASES
    ],
)
def test_rank_grid_rows_match_per_cell_definition(spec, grid, stack_cells, monkeypatch, capsys):
    if stack_cells is not None:
        cell_bytes = 16 * parse_preset(spec).matrix_dim ** 2
        monkeypatch.setattr(poisson, "_STACK_BYTES", max(stack_cells * cell_bytes, cell_bytes - 1))
    code, out = run_cli(["rank-grid", "--preset", spec, f"--grid={grid}"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    dim_ip = parse_preset(spec).dim_ip
    ranks = {row[2] for row in rows}
    assert dim_ip in ranks and any(0 <= r < dim_ip for r in ranks)
    assert (-1 in ranks) == (spec != "cp2")
    for row in rows:
        expected = _reference_cell(spec, row[0], row[1])
        assert row[:3] == expected[:3]
        assert row[3] == pytest.approx(expected[3], rel=1e-14, abs=1e-15)


def su2_el_matrix(k: np.ndarray) -> np.ndarray:
    """Raw pairing values of the homogeneous group structure on (H, X, Y):
    (3, 3), or (..., 3, 3) for a stack of k; the diagonal is 0.  The kernel
    su2 rank-grid cells used before they went through ``pi_rank``, kept as
    an oracle: its singular values are 4 |a|, those of the bivector matrix
    at diag(I, k*) are |a|, so at tol 1e-9 the two ranks differ only for
    |a| in (2.5e-10, 1e-9], inside the ambiguity band of the Cartan image."""
    frame = np.array(su2_frame())
    k = np.asarray(k, dtype=complex)[..., np.newaxis, np.newaxis, :, :]
    mat = pi_el_group(k, frame[:, np.newaxis], frame[np.newaxis, :])
    return np.where(np.eye(3, dtype=bool), 0.0, mat)


def _closed_form_cell(spec, x, y, tol=1e-9):
    """One su2 or fothlu rank-grid row, from scalar arithmetic and, for su2,
    the rank of the pairing matrix on (H, X, Y); a = x + iy with |a| in the
    ambiguity band (tol / 10, 10 tol) of the first leading minor gets -1."""
    if spec == "fothlu":
        coeff = abs(-2.0 * y * (1.0 + abs(complex(x, y)) ** 2))
        return [x, y, 2 if coeff > tol else 0, coeff]
    mod2 = x * x + y * y
    if mod2 > 1.0:
        return [x, y, -1, 0.0]
    a = complex(x, y)
    if tol / 10 < abs(a) < 10 * tol:
        return [x, y, -1, abs(a)]
    k = su2_from_sphere(a, np.sqrt(1.0 - mod2))
    return [x, y, int(np.linalg.matrix_rank(su2_el_matrix(k), tol=tol)), abs(a)]


# The su2 rows x = +-1.03 lie outside the unit disc (rank -1); at 1 byte a
# stack holds 1 cell, so some stacks have no cell inside the disc; at 2,000
# bytes a stack holds 7 su2 cells, ending mid-row, and a frame chunk of
# matrix_of_omega 2, so a chunk ends inside a stack, and 125 fothlu cells.  The
# small grids hit a = 0 and Im w = 0, where the rank drops to 0.  On the
# 37 x 53 fothlu grid, |w|^2 by pow and by squaring differ in the last bit
# at some cells.  The su2 minor column is |a| from the pivot products of the
# Cartan image, and from its determinants off the top layer (a = 0), so it
# is |a| to a few ulps and not bit for bit.
@pytest.mark.parametrize("stack_bytes", [None, 1, 2000])
@pytest.mark.parametrize(
    "spec,grid,ranks",
    [
        ("su2", "-1.2,1.2,7,-1.2,1.2,5", {-1, 0, 2}),
        ("su2", "-0.75,0.75,3,-0.75,0.75,3", {0, 2}),
        ("fothlu", "-1,1,4,-1.5,1.5,3", {0, 2}),
        ("fothlu", "-1.3,1.7,37,-0.9,1.1,53", {2}),
    ],
)
def test_rank_grid_closed_form_rows_match_per_cell_arithmetic(
    spec, grid, ranks, stack_bytes, monkeypatch, capsys
):
    if stack_bytes is not None:
        monkeypatch.setattr(poisson, "_STACK_BYTES", stack_bytes)
    code, out = run_cli(["rank-grid", "--preset", spec, f"--grid={grid}"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    expected = [_closed_form_cell(spec, row[0], row[1]) for row in rows]
    if spec == "fothlu":
        assert rows == expected
    for row, want in zip(rows, expected):
        assert row[:3] == want[:3]
        assert abs(row[3] - want[3]) <= 1e-15 * want[3]
    assert {row[2] for row in rows} == ranks


# |a| spread over every scale from 1e-14 to 1, the ambiguity band
# (1e-10, 1e-8) included, and a = 0
_DISC_POINTS = st.tuples(
    st.one_of(st.just(0.0), st.floats(-14.0, 0.0).map(lambda e: 10.0**e)),
    st.floats(0.0, 2 * math.pi),
)


@settings(max_examples=200, deadline=None)
@given(points=st.lists(_DISC_POINTS, min_size=1, max_size=12))
def test_su2_grid_ranks_are_the_pairing_matrix_ranks_outside_the_band(points):
    x = np.array([r * math.cos(t) for r, t in points])
    y = np.array([r * math.sin(t) for r, t in points])
    ranks, minors = cli._grid_columns(parse_preset("group:su2"), x, y)
    for a, mod2, rank, minor in zip(x + 1j * y, x * x + y * y, ranks, minors):
        if 1e-10 < abs(a) < 1e-8:
            assert rank == -1
        elif mod2 <= 1.0:
            k = su2_from_sphere(a, np.sqrt(1.0 - mod2))
            assert rank == np.linalg.matrix_rank(su2_el_matrix(k), tol=1e-9)
        else:
            # |a| = 1 a rounding outside the disc
            assert (rank, minor) == (-1, 0.0)
            continue
        assert abs(minor - abs(a)) <= 1e-14 * abs(a)


def test_su2_grid_minor_column_never_exceeds_the_entry_a():
    # the k = 1 leading minor of phi = diag(k, k*) is the entry a itself, so
    # the smallest |minor| is at most |a| bit for bit.  It is not hypot(x, y)
    # bit for bit: numpy's complex modulus is not correctly rounded, and the
    # 3 x 3 minor, the pivot product a h_1 a*, can fall below |a| by a few
    # roundings
    rng = np.random.default_rng(5)
    r, t = 10.0 ** rng.uniform(-12.0, 0.0, 4000), rng.uniform(0.0, 2 * math.pi, 4000)
    x, y = r * np.cos(t), r * np.sin(t)
    minors = cli._grid_columns(parse_preset("group:su2"), x, y)[1]
    assert np.all(minors <= np.abs(x + 1j * y))
    eps = np.finfo(float).eps
    assert np.all(np.abs(minors - np.hypot(x, y)) <= 4 * eps * (1.0 - np.log(r)) * r)


def test_su2_top_layer_minor_column_is_hypot_to_4_eps():
    # on the top layer (a != 0, outside the band) the column reads the pivot
    # products a, a h_1, a h_1 a*, a h_1 a* h_3 of phi = diag(k, k*); the
    # determinants, sign * exp(log|det|), read up to 1.4e-15 relative low
    # here, on 153 of the 12,000 cells
    rng = np.random.default_rng(11)
    r = np.logspace(-7.0, 0.0, 12000)
    t = rng.uniform(0.0, 2 * math.pi, r.size)
    x, y = r * np.cos(t), r * np.sin(t)
    ranks, minors = cli._grid_columns(parse_preset("group:su2"), x, y)
    top = ranks == 2
    assert np.count_nonzero(top) >= 11990
    a = np.hypot(x, y)[top]
    assert np.all(np.abs(minors[top] - a) <= 4 * np.finfo(float).eps * a)


def test_grid_minor_column_on_a_mixed_stack():
    # one cp1 stack: top-layer cells, the exact wall cell z = 0.6 + 0.8i and
    # a cell whose phi[0, 0] = 1e-9 lies in the ambiguity band (1e-10, 1e-8)
    cp1 = parse_preset("cp1")
    band = math.sqrt((1 - 1e-9) / (1 + 1e-9))
    x = np.array([0.3, 0.6, band, -0.2, 1.4])
    y = np.array([-0.1, 0.8, 0.0, 0.5, 0.2])
    ranks, column = cli._grid_columns(cp1, x, y)
    np.testing.assert_array_equal(ranks, [2, 0, -1, 2, 2])
    phi = cartan_embed(canonical_rep((x + 1j * y).reshape(-1, 1, 1), cp1), cp1)
    for i in (1, 2):
        assert column[i] == np.min(np.abs(principal_minors(phi[i])))
    # the top cells read the pivot products of the Hermitian elimination:
    # LAPACK's det of the leading blocks to within 2e-14 / min|h|
    top = [0, 3, 4]
    h = np.abs(np.diagonal(birkhoff_factor(phi[top]).h, 0, -2, -1))
    dets = np.min(np.abs(principal_minors(phi[top])), axis=-1)
    assert np.all(np.abs(column[top] - dets) <= 2e-14 / np.min(h, axis=-1))


def test_embed_minors_are_pivot_products_on_the_top_layer_only(capsys):
    # z = (3/5, 4i/5) has |z| = 1: phi[0, 0] = 0, a lower layer
    cp2 = parse_preset("cp2")
    for point, top in (("0.3,-0.2,0.1,0.4", True), ("0.6,0,0,0.8", False)):
        code, out = run_cli(["embed", "--preset", "cp2", f"--point={point}"], capsys)
        assert code == 0
        data = json.loads(out)
        assert (data["layer_perm"] == [0, 1, 2]) == top
        minors = np.array([complex(re, im) for re, im in data["principal_minors"]])
        z = cli._chart_matrix(cp2, cli._parse_point(point))
        phi = cartan_embed(canonical_rep(z, cp2), cp2)
        # the top point reads the real pivot products of the Hermitian
        # elimination, LAPACK's det of the leading blocks to within
        # 2e-14 / min|h|; the wall point keeps the determinants, bit for bit
        dets = principal_minors(phi)
        if top:
            h = np.abs(np.diag(birkhoff_factor(phi).h))
            assert np.all(minors.imag == 0)
            assert np.all(np.abs(minors - dets) <= 2e-14 / np.min(h))
        else:
            np.testing.assert_array_equal(minors, dets)
        assert np.array_equal(minors, dets) != top


@pytest.mark.parametrize(
    "preset,grid,rows",
    [
        # |phi[0, 0]| = |1 - |z|^2| / (1 + |z|^2), about x - 1 on the real
        # axis: 7e-10 and 9e-10, inside the band (1e-10, 1e-8) of tol = 1e-9.
        # A difference of terms near 1, it holds the rounding of the Cartan
        # image's products from its 10th digit on; the test below bounds it
        # against the exact value
        ("cp1", "1.0000000006,1.000000001,2,-1e-9,1e-9,2",
         ["1.0000000007,-5e-10,-1,7.00000139608537e-10",
          "1.0000000007,5.000000000000001e-10,-1,7.00000139608537e-10",
          "1.0000000009,-5e-10,-1,8.999998996177682e-10",
          "1.0000000009,5.000000000000001e-10,-1,8.999998996177682e-10"]),
        # |a| = 1e-9 sqrt(2) inside the band too
        ("su2", "-2e-9,2e-9,2,-2e-9,2e-9,2",
         ["-1e-09,-1e-09,-1,1.4142135623730953e-09",
          "-1e-09,1.0000000000000003e-09,-1,1.4142135623730953e-09",
          "1.0000000000000003e-09,-1e-09,-1,1.4142135623730953e-09",
          "1.0000000000000003e-09,1.0000000000000003e-09,-1,1.4142135623730955e-09"]),
    ],
)
def test_rank_grid_prints_band_cells_with_rank_minus_one(preset, grid, rows, capsys):
    # a cell whose Cartan image has a pivot inside the ambiguity band gets
    # rank -1, and its smallest |leading minor| is still printed, from the
    # determinants, as the cell lies on no layer the pivots can name
    code, out = run_cli(["rank-grid", "--preset", preset, f"--grid={grid}",
                         "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == rows


def test_rank_grid_band_minors_are_within_rounding_of_the_exact_value(capsys):
    # the cp1 band cells above: each printed |phi[0, 0]| is within 4 eps of
    # |1 - r| / (1 + r), r = x^2 + y^2, taken exactly on the printed cell
    code, out = run_cli(["rank-grid", "--preset", "cp1",
                         "--grid=1.0000000006,1.000000001,2,-1e-9,1e-9,2",
                         "--format", "csv"], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        x, y, _, printed = (Fraction(float(v)) for v in line.split(","))
        r = x * x + y * y
        assert abs(printed - abs(1 - r) / (1 + r)) <= 4 * Fraction(np.finfo(float).eps)


def test_cached_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    point = "--point=0.1,0.05,0.2,-0.1,0.05,0.1,-0.2,0.15"
    calls = [
        ["moment", "--preset", "gr:2,2", point, "--index", "0"],
        ["moment", "--preset", "gr:2,2", point],
        ["pi", "--preset", "gr:2,2", point],
    ]
    assert cli._build_parser() is cli._build_parser()
    cached = [run_cli(argv, capsys) for argv in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run_cli(argv, capsys) for argv in calls]
    assert cached == fresh
    assert all(code == 0 for code, _ in cached)
    single, full = (json.loads(out) for _, out in cached[:2])
    assert len(single["mu"]) == 1
    assert len(full["mu"]) == len(full["basis"]) == full["torus_dim"] == 3


@pytest.mark.parametrize(
    "grid,axis", [("0,1.5,3", [0.25, 0.75, 1.25]), ("-1,1,4", [-0.75, -0.25, 0.25, 0.75])]
)
def test_rank_grid_cp2_locus_column(grid, axis, capsys):
    # the cp2 plane is z = (x, y) real: a negative axis prints its signed
    # coordinates, under re_z1 and re_z2
    code, out = run_cli(["rank-grid", "--preset", "cp2", f"--grid={grid},{grid}"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["columns"] == ["re_z1", "re_z2", "rank", "min_abs_minor", "abs_p"]
    assert [row[:2] for row in data["rows"]] == [[x, y] for x in axis for y in axis]
    for row in data["rows"]:
        r1, r2, rank, min_minor, abs_p = row
        pred = abs((1 + r1**2 - r2**2) * (1 - r1**2 - r2**2) * (1 + r1**2 + r2**2))
        assert abs_p == pytest.approx(pred, abs=1e-12)
        if abs_p > 1e-6:
            assert rank == 4


def test_rank_grid_fothlu_zero_set(capsys):
    code, out = run_cli(
        ["rank-grid", "--preset", "fothlu", "--grid=-1,1,4,-1.5,1.5,3"], capsys
    )
    assert code == 0
    data = json.loads(out)
    for re_w, im_w, rank, coeff in data["rows"]:
        assert rank == (0 if abs(im_w) < 1e-12 else 2)


def test_rank_grid_su2_vanishes_at_zero_minor(capsys):
    code, out = run_cli(
        ["rank-grid", "--preset", "su2", "--grid=-0.75,0.75,3,-0.75,0.75,3"], capsys
    )
    assert code == 0
    for re_a, im_a, rank, minor in json.loads(out)["rows"]:
        if minor < 1e-12:
            assert rank == 0
        elif minor > 1e-6:
            assert rank == 2


def test_csv_roundtrips_through_json(tmp_path, capsys):
    args = ["rank-grid", "--preset", "cp1", "--grid=-1,1,4,-1,1,4"]
    json_path = tmp_path / "grid.json"
    csv_path = tmp_path / "grid.csv"
    assert main(args + ["--out", str(json_path)]) == 0
    assert main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
    data = json.loads(json_path.read_text())
    with open(csv_path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    assert header == data["columns"]
    for json_row, csv_row in zip(data["rows"], rows):
        np.testing.assert_allclose(csv_row, json_row, atol=1e-15)


def _per_row_csv(columns, rows):
    """Reference: the CSV text ``rank-grid`` printed a row at a time, the
    repr of a float and the str of anything else."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _recorded_grid(spec, grid, fmt, monkeypatch, capsys):
    """The output of ``rank-grid``, and its columns: the cells' x and y, read
    off the axes row-major, then the columns ``_grid_cells`` gave it."""
    grids = []
    grid_cells = cli._grid_cells

    def recording(*args):
        grids.append(grid_cells(*args))
        return grids[-1]

    monkeypatch.setattr(cli, "_grid_cells", recording)
    argv = ["rank-grid", "--preset", spec, "--format", fmt] + ([grid] if grid else [])
    code, out = run_cli(argv, capsys)
    assert code == 0 and len(grids) == 1
    xs, ys = (cli._axis_points(*axis) for axis in _grid_axes(spec, grid))
    return out, [np.repeat(xs, len(ys)), np.tile(ys, len(xs)), *grids[0]]


def _grid_axes(spec, grid):
    """The two (min, max, steps) axes of a ``rank-grid`` call."""
    return cli._parse_grid(grid.split("=")[1]) if grid else cli._grid_layout(
        cli._resolve_preset(spec)[1])[0]


def _grid_rows_of(columns):
    """Reference: the rows of the grid as Python lists, read off its columns."""
    return [list(row) for row in zip(*(c.tolist() for c in columns))]


_GRID_SPECS = ["cp1", "cp2", "gr:2,2", "gr:2,3", "su2", "fothlu"]
_GRIDS = [None, "--grid=-1.5,1.5,7,-1.5,1.5,9"]


@pytest.mark.parametrize("spec", _GRID_SPECS)
@pytest.mark.parametrize("grid", _GRIDS)
def test_rank_grid_csv_matches_the_per_row_formatter(spec, grid, monkeypatch, capsys):
    out, columns = _recorded_grid(spec, grid, "csv", monkeypatch, capsys)
    header = cli._grid_layout(cli._resolve_preset(spec)[1])[1]
    assert len(columns) == len(header)
    assert out == _per_row_csv(header, _grid_rows_of(columns))


@pytest.mark.parametrize("spec", _GRID_SPECS)
@pytest.mark.parametrize("grid", _GRIDS)
def test_rank_grid_json_matches_json_dumps_of_the_rows(spec, grid, monkeypatch, capsys):
    out, columns = _recorded_grid(spec, grid, "json", monkeypatch, capsys)
    label, preset = cli._resolve_preset(spec)
    payload = {
        "preset": label,
        "grid": [list(a) for a in _grid_axes(spec, grid)],
        "columns": cli._grid_layout(preset)[1],
        "rows": _grid_rows_of(columns),
    }
    assert out == json.dumps(payload, indent=2) + "\n"


def test_rank_grid_stacks_and_frame_chunks_stay_inside_the_budget(monkeypatch, capsys):
    """A 64 x 64 gr:2,2 grid runs as stacks of at most 1,024 cells, whose
    (cells, 4, 4) matrices fill 256 KiB, and ``matrix_of_omega`` builds its
    (cells, 8, 4, 4) frames in chunks of at most 128 cells, which fill it
    too: the memory of a grid does not grow with the grid."""
    stacks, chunks = [], []
    grid_columns, hilbert = cli._grid_columns, poisson.hilbert_transform

    def columns(preset, x, y):
        stacks.append(len(x))
        return grid_columns(preset, x, y)

    def transform(z):
        chunks.append(len(z))
        return hilbert(z)

    monkeypatch.setattr(cli, "_grid_columns", columns)
    monkeypatch.setattr(poisson, "hilbert_transform", transform)
    code, _ = run_cli(["rank-grid", "--preset", "gr:2,2", "--grid=-2,2,64,-2,2,64"], capsys)
    assert code == 0
    assert sum(stacks) == sum(chunks) == 64 * 64
    assert max(stacks) == 1024 and max(chunks) == 128


def test_rank_grid_is_deterministic(tmp_path):
    for spec in ("cp1", "cp2", "gr:2,2", "su2", "fothlu"):
        args = ["rank-grid", "--preset", spec, "--grid=-1,1,4,-1,1,4"]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "spellings,grid",
    [
        (["cp2", " cp2", "CP2", "cpn:2", "gr:1,2"], "-0.5,1.5,2,-1.5,1.5,3"),
        (["group:su2", "su2", " SU2"], "-1.2,1.2,7,-1.2,1.2,5"),
        (["fothlu", " fothlu", "FOTHLU"], "-1,1,4,-1.5,1.5,3"),
    ],
)
def test_rank_grid_prints_one_output_for_every_spelling_of_a_preset(spellings, grid, fmt, capsys):
    # the preset is resolved as jacobi resolves it and echoed by its label:
    # every spelling of cp2 sweeps the real (z1, z2) plane with abs_p
    argv = ["rank-grid", f"--grid={grid}", "--format", fmt, "--preset"]
    outputs = {run_cli(argv + [spec], capsys) for spec in spellings}
    assert len(outputs) == 1
    ((code, out),) = outputs
    assert code == 0
    if fmt == "json":
        assert json.loads(out)["preset"] == spellings[0]


def test_verify_suite_exit_codes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "lambda-identity", "--seed", "7", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert all(c["pass"] for c in report["checks"])


def test_verify_unknown_suite(capsys):
    assert main(["verify", "no-such-suite"]) == 2


def test_verify_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "factorization", "--seed", "11", "--out", str(a)]) == 0
    assert main(["verify", "factorization", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_calibration_subcommand(capsys):
    code, out = run_cli(["calibration"], capsys)
    assert code == 0
    assert json.loads(out)["constant"] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# JSON output

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(
        ['"quoted" \\ back/slash', "tab\tnew\nline\r\x00\x1f", "é ü ∑ € 😀 \u2028"]
    ),
)
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e-308, 1e16, 1e-7, 123456789.0]),
)
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FINITE),
    # NaN and the infinities fall back to tolist
    hnp.arrays(np.float64, _SHAPES, elements=st.floats()),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
)
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
        # the emitter's one-join path: flat lists of floats and ints, finite
        # or not
        st.lists(st.one_of(st.integers(), st.floats())),
        st.lists(st.one_of(st.integers(), _FINITE)),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(payload=_PAYLOADS)
def test_json_text_equals_json_dumps_with_indent_2(payload):
    assert cli._json_text(payload) == json.dumps(payload, indent=2, default=np.ndarray.tolist)


_TABLE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e300, 5e-324, 123456789.0]
_TABLE_INTS = [0, 1, -1, 7]
_TABLE_OTHERS = [True, False, math.nan, math.inf, -math.inf]


@st.composite
def _tables(draw):
    """Equal-length rows whose columns draw from a small pool of floats, of
    ints or of both, so values repeat and 0.0 meets -0.0 and 1 meets 1.0;
    some columns also draw bools, NaN and the infinities, and some tables
    get one row of another length."""
    width = draw(st.integers(0, 4))
    pools = [
        draw(st.sampled_from([_TABLE_FLOATS, _TABLE_INTS, _TABLE_FLOATS + _TABLE_INTS]))
        + (_TABLE_OTHERS if draw(st.integers(0, 3)) == 0 else [])
        for _ in range(width)
    ]
    row = st.tuples(*map(st.sampled_from, pools))
    rows = draw(st.lists(row.map(list) if draw(st.booleans()) else row, min_size=1, max_size=12))
    if draw(st.integers(0, 3)) == 0:
        other = draw(st.lists(st.sampled_from(_TABLE_FLOATS), max_size=5).filter(
            lambda r: len(r) != width))
        rows.insert(draw(st.integers(0, len(rows))), other)
    return rows


@settings(max_examples=300, deadline=None)
@given(table=_tables())
def test_table_json_text_equals_json_dumps(table):
    assert cli._json_text(table) == json.dumps(table, indent=2)
    assert cli._json_text({"rows": table}, "  ") == json.dumps({"rows": table}, indent=2).replace(
        "\n", "\n  ")


_AXIS_VALUES = [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 1e300, 5e-324, 123456789.0]


@st.composite
def _grid_tables(draw):
    """The rows of a grid as a structured array: axes that repeat values
    and meet 0.0 with -0.0, sometimes with NaN or an infinity, taken
    row-major, then fields of ints or of floats, some with NaN and the
    infinities."""
    pool = _AXIS_VALUES + (_TABLE_OTHERS[2:] if draw(st.integers(0, 3)) == 0 else [])
    xs, ys = (draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5)) for _ in "xy")
    cells = len(xs) * len(ys)
    columns = [np.repeat(xs, len(ys)), np.tile(ys, len(xs))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            values = draw(st.lists(st.sampled_from(_TABLE_INTS), min_size=cells, max_size=cells))
        else:
            floats = _TABLE_FLOATS + (_TABLE_OTHERS[2:] if draw(st.booleans()) else [])
            values = draw(st.lists(st.sampled_from(floats), min_size=cells, max_size=cells))
        columns.append(np.array(values))
    names = [f"c{i}" for i in range(len(columns))]
    return np.rec.fromarrays(columns, names=names).view(np.ndarray)


@settings(max_examples=300, deadline=None)
@given(table=_grid_tables())
def test_table_rows_equal_json_dumps_and_the_per_row_csv(table):
    # a structured array prints as json.dumps prints its tolist(), the
    # repeated values of a field sharing one text: NaN and the infinities
    # are spelled as json.dumps spells them in JSON, as repr does in CSV
    rows = table.tolist()
    assert cli._json_text(table) == json.dumps(rows, indent=2)
    text = cli._json_text({"rows": table}, "  ")
    assert text == json.dumps({"rows": rows}, indent=2).replace("\n", "\n  ")
    csv_rows = map(",".join, cli._table_rows(table, repr))
    assert "\n".join(["h", *csv_rows]) + "\n" == _per_row_csv(["h"], rows)


_POINT_120 = "--point=" + ",".join(
    map(repr, np.random.default_rng(7).normal(scale=0.3, size=120).tolist())
)
_CALLS = {
    "pi": ["pi", "--preset", "gr:6,10", _POINT_120],
    "moment": ["moment", "--preset", "gr:2,2", "--point=0.1,0.05,0.2,-0.1,0.05,0.1,-0.2,0.15"],
    "embed": ["embed", "--preset", "cp2", "--point=-0.5,0.2,0.1,0.1"],
    "rank-grid": ["rank-grid", "--preset", "cp2", "--format", "json"],
    "jacobi": ["jacobi", "--preset", "gr:2,2", "--point=0.3,-0.2,0.1,0.4,-0.5,0.2,0.1,0.1"],
    "verify": ["verify", "all", "--seed", "424242"],
}


@pytest.mark.parametrize("command", ["pi", "moment", "embed", "rank-grid", "verify"])
def test_subcommands_print_json_dumps_of_their_payload(command, monkeypatch, capsys):
    payloads = []
    parser = cli._build_parser()
    parse = parser.parse_args

    def recording(argv):
        args = parse(argv)
        func = args.func

        def record(a):
            payloads.append(func(a))
            return payloads[-1]

        args.func = record
        return args

    monkeypatch.setattr(parser, "parse_args", recording)
    code, out = run_cli(_CALLS[command], capsys)
    assert code == 0
    assert out == json.dumps(payloads[0], indent=2, default=np.ndarray.tolist) + "\n"


@pytest.mark.parametrize(
    "argv", [*_MINIMAL.values(), ["rank-grid", "--grid=-1,1,2,-1,1,2", "--format", "csv"]]
)
def test_handlers_return_their_payload_and_main_writes_it(argv, capsys):
    # a handler computes and prints nothing; main alone writes the payload:
    # a dict as its JSON text, the CSV text of rank-grid as it is
    args = cli._build_parser().parse_args(argv)
    payload = args.func(args)
    assert capsys.readouterr() == ("", "")
    csv_call = "csv" in argv
    assert isinstance(payload, str if csv_call else dict)
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert out == (payload if csv_call else cli._json_text(payload)) + "\n"


def test_main_maps_a_failed_report_to_exit_1(monkeypatch, capsys):
    report = {"suite": "jacobi", "seed": 0, "pass": False, "checks": []}
    monkeypatch.setattr(cli, "run_suite", lambda name, seed: report)
    code, out = run_cli(["verify", "jacobi"], capsys)
    assert code == 1 and json.loads(out) == report


def test_verify_suite_choices_are_the_suites(monkeypatch):
    # the parser reads the names off verify.SUITES, so a suite added there
    # is a choice with no second list to edit
    def suite_choices():
        (subparsers,) = [
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        (suite,) = [a for a in subparsers.choices["verify"]._actions if a.dest == "suite"]
        return suite.choices

    assert suite_choices() == [*verify.SUITES, "all"]
    monkeypatch.setitem(verify.SUITES, "extra", lambda rng: [])
    cli._build_parser.cache_clear()
    try:
        assert suite_choices() == [*verify.SUITES, "all"] and "extra" in suite_choices()
    finally:
        cli._build_parser.cache_clear()


@pytest.mark.parametrize("command", ["pi", "moment", "rank-grid", "jacobi", "verify"])
def test_a_warm_call_leaves_no_reference_cycles(command, capsys):
    # every cycle a call leaves waits for the collector, so repeated calls
    # (the benchmark's rounds) hold far more memory than one call needs
    assert main(_CALLS[command]) == 0
    gc.collect()
    gc.disable()
    try:
        assert main(_CALLS[command]) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()
