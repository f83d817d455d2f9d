import cmath
import csv
import io
import json

import pytest

from quantoda.cli import build_parser, dispatch


def _run(argv):
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def test_whittaker_eval_n1_value():
    code, text = _run(["whittaker", "eval", "--n", "1",
                       "--alpha", "0.7", "--x", "1.3", "--format", "json"])
    assert code == 0
    (row,) = json.loads(text)
    want = cmath.exp(1j * 0.7 * 1.3)
    assert abs(row["re"] - want.real) < 1e-15
    assert abs(row["im"] - want.imag) < 1e-15
    assert row["x1"] == 1.3
    assert row["error_estimate"] == 0.0


def test_csv_round_trip():
    code, text = _run(["whittaker", "eval", "--n", "2",
                       "--alpha", "0.5,-0.5", "--x", "0.3,-0.3"])
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(text)))
    assert set(row) == {"x1", "x2", "re", "im", "abs", "error_estimate"}
    # repr round trip keeps full precision
    assert abs(float(row["abs"])) > 0


def test_recursive_method_agrees():
    args = ["whittaker", "eval", "--n", "2", "--alpha", "0.8,-0.3",
            "--x", "0.4,-0.6", "--tol", "1e-8", "--format", "json"]
    _, d_text = _run(args + ["--method", "direct"])
    _, r_text = _run(args + ["--method", "recursive"])
    (d,) = json.loads(d_text)
    (r,) = json.loads(r_text)
    assert abs(d["re"] - r["re"]) < 1e-8
    assert abs(d["im"] - r["im"]) < 1e-8


def test_grid_subcommand_rows():
    code, text = _run(["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5",
                       "--axis", "0", "--from", "-1", "--to", "1",
                       "--steps", "3", "--format", "json"])
    assert code == 0
    rows = json.loads(text)
    assert [r["x1"] for r in rows] == [-1.0, 0.0, 1.0]


def test_spherical_eval_runs():
    code, text = _run(["spherical", "eval", "--n", "2",
                       "--lambda", "0.6,-0.3", "--x", "0.2,-0.2",
                       "--format", "json"])
    assert code == 0
    (row,) = json.loads(text)
    assert row["abs"] > 0


def test_cfunction_output():
    code, text = _run(["cfunction", "--lambda", "1.0,-1.0",
                       "--format", "json"])
    assert code == 0
    (row,) = json.loads(text)
    # single positive root at lambda_alpha = 1: c = 2
    assert abs(row["c_re"] - 2.0) < 1e-12
    assert abs(row["c_im"]) < 1e-12
    assert row["plancherel_density"] > 0


def test_verify_report_schema_and_exit():
    code, text = _run(["verify", "qism", "--n", "2"])
    assert code == 0
    payload = json.loads(text)
    assert payload["status"] == "PASS"
    for rep in payload["reports"]:
        assert set(rep) == {"suite", "n", "relation", "status",
                           "residual", "tolerance", "seed", "witness"}
        assert rep["status"] == "PASS"


def test_verify_deterministic_output():
    args = ["verify", "gz", "--n", "2", "--trials", "5", "--seed", "7"]
    _, first = _run(args)
    _, second = _run(args)
    assert first == second
    args = ["verify", "separation", "--n", "2", "--trials", "10", "--seed", "3"]
    _, first = _run(args)
    _, second = _run(args)
    assert first == second


def test_error_paths():
    # bad grid spec surfaces as exit 1, not a traceback
    code, _ = _run(["verify", "eigen", "--n", "2", "--alpha", "0.5,-0.5",
                    "--grid", "oops"])
    assert code == 1
    # usage error from argparse is exit 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["whittaker"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        dispatch(["whittaker", "eval", "--n", "2", "--alpha", "bad"])


_GRID = ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5", "--axis", "0",
         "--from", "-1", "--to", "1"]
_EVAL = ["whittaker", "eval", "--n", "2", "--alpha", "0.5,-0.5", "--x", "0.3,-0.3"]


@pytest.mark.parametrize("argv", [
    # each of these raised a traceback (IndexError, ZeroDivisionError)
    ["verify", "qism", "--n", "0"],
    _GRID + ["--steps", "0"],
    _EVAL + ["--tol", "0"],
    # counts below 1
    ["verify", "gz", "--n", "-1"],
    ["spherical", "eval", "--n", "0", "--lambda", "0.6,-0.3", "--x", "0.2,-0.2"],
    ["verify", "gz", "--n", "2", "--trials", "0"],
    ["verify", "separation", "--n", "2", "--trials", "-3"],
    _GRID + ["--steps", "-2"],
    # non-finite or non-positive tolerances
    _EVAL + ["--tol", "-1e-6"],
    _EVAL + ["--tol", "nan"],
    _EVAL + ["--tol", "inf"],
    _GRID + ["--steps", "3", "--tol", "0"],
    ["verify", "gz", "--n", "2", "--tol", "-1"],
    ["verify", "eigen", "--n", "2", "--alpha", "0.5,-0.5", "--grid", "8:0.1",
     "--tol", "nan"],
    # non-finite coordinates and parameters: NaN rows, a silent 0, or
    # "cannot convert float NaN to integer" with exit 1
    ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5", "--axis", "0",
     "--from", "nan", "--to", "1", "--steps", "3"],
    _GRID[:-1] + ["inf", "--steps", "3"],
    ["whittaker", "eval", "--n", "2", "--alpha", "0.5,-0.5", "--x", "inf,0"],
    ["whittaker", "eval", "--n", "2", "--alpha", "nan,1", "--x", "0,0"],
    ["cfunction", "--lambda", "nan,1"],
    # sweep axis outside [0, n) exited 1
    ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5", "--axis", "7",
     "--from", "0", "--to", "1", "--steps", "3"],
    ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5", "--axis", "-1",
     "--from", "0", "--to", "1", "--steps", "3"],
])
def test_bad_inputs_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv, out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: argument --" in err


@pytest.mark.parametrize("argv", [
    # each of these raised an IndexError traceback
    ["spherical", "eval", "--n", "2", "--lambda", "0.5,-0.5", "--x", "0"],
    ["whittaker", "grid", "--n", "3", "--alpha", "1,0,-1", "--axis", "2",
     "--from", "0", "--to", "1", "--steps", "2", "--x", "0,0"],
])
def test_length_mismatch_exits_1_with_one_line(argv, capsys):
    assert dispatch(argv, out=io.StringIO()) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_smallest_valid_counts_run():
    assert _run(["verify", "qism", "--n", "1"])[0] == 0
    code, text = _run(_GRID + ["--steps", "1", "--format", "json"])
    assert code == 0 and len(json.loads(text)) == 1
    assert _run(["verify", "gz", "--n", "2", "--trials", "1"])[0] == 0
