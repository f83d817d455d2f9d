import cmath
import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantoda import mellin_barnes as mb, oracle
from quantoda.cli import build_parser, dispatch
from quantoda.report import VerificationReport


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
    # usage error from argparse is exit 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["whittaker"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        dispatch(["whittaker", "eval", "--n", "2", "--alpha", "bad"])


_GRID = ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5", "--axis", "0",
         "--from", "-1", "--to", "1"]
_EVAL = ["whittaker", "eval", "--n", "2", "--alpha", "0.5,-0.5", "--x", "0.3,-0.3"]
_EIGEN = ["verify", "eigen", "--n", "2", "--alpha", "0.5,-0.5", "--grid"]


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
    # a malformed grid spec exited 1; too few points for an interior node, or
    # a zero spacing, printed "residual": NaN; 0 points and a NaN spacing exited 1
    _EIGEN + ["oops"],
    _EIGEN + ["3:0.1"],
    _EIGEN + ["2:0.1"],
    _EIGEN + ["5:0"],
    _EIGEN + ["0:0.1"],
    _EIGEN + ["5:nan"],
    _EIGEN + ["5:-0.1"],
    _EIGEN + ["5:0.1:2"],
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


def _run_captured(argv):
    """(return code or "SystemExit(code)", stdout, stderr) of dispatch."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv, out=out)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("exc", [
    MemoryError("Unable to allocate 80.1 TiB for an array with shape "
                "(2345452, 2345452) and data type complex128"),
    MemoryError(),
])
def test_memory_error_exits_1_with_one_line(monkeypatch, exc):
    def out_of_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(mb, "whittaker_eval", out_of_memory)
    code, out, err = _run_captured(_EVAL)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_non_finite_json_exits_1_and_writes_nothing(monkeypatch):
    # verify eigen --grid 5:1000 printed "residual": Infinity
    def infinite(N, alpha, grid, tol, refine):
        return VerificationReport(suite="eigen", n=N, relation="toda-eigenvalue",
                                  status="FAIL", residual=math.inf, tolerance=tol)

    monkeypatch.setattr(oracle, "check_eigen", infinite)
    code, out, err = _run_captured(_EIGEN + ["8:0.1"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")

    monkeypatch.setattr(mb, "whittaker_eval",
                        lambda *a: mb.QuadratureResult(complex(math.nan, 0.0), 0.0))
    code, out, err = _run_captured(_EVAL + ["--format", "json"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


# -- the CLI contract over generated argv --------------------------------------

_REPORT_KEYS = {"suite", "n", "relation", "status", "residual", "tolerance",
                "seed", "witness"}
_CFUNCTION_KEYS = {"lambda", "c_re", "c_im", "plancherel_density"}
_VALUE_KEYS = {"re", "im", "abs", "error_estimate"}

# one token in 16 is malformed, so most command lines get past argparse
_BAD = st.sampled_from(["nan", "inf", "x", ""])
_value = st.integers(0, 15).flatmap(
    lambda k: _BAD if k == 0 else st.floats(-5, 5).map(repr))
_tol = st.integers(0, 15).flatmap(
    lambda k: _BAD if k == 0 else st.integers(2, 8).map(lambda e: f"1e-{e}"))
_fmt = st.sampled_from(["csv", "json"])


def _mostly(draw, good, anything):
    """A draw from `good` three times in four, else from `anything`."""
    return draw(good if draw(st.integers(0, 3)) else anything)


def _values(draw, n):
    size = _mostly(draw, st.just(n), st.integers(0, 5))
    return ",".join(draw(st.lists(_value, min_size=size, max_size=size)))


@st.composite
def _argv(draw):
    """One command line for a subcommand, within small bounds.

    Values go in --opt=value form, so a leading minus sign is not an option.
    """
    kind = draw(st.sampled_from(["eval", "grid", "spherical", "cfunction", "qism",
                                 "separation", "gz", "eigen"]))
    n = draw(st.integers(0, 4))
    if kind == "eval":
        argv = ["whittaker", "eval", f"--n={n}", f"--alpha={_values(draw, n)}",
                f"--x={_values(draw, n)}", f"--tol={draw(_tol)}",
                f"--method={draw(st.sampled_from(['direct', 'recursive']))}"]
    elif kind == "grid":
        axis = _mostly(draw, st.integers(0, max(n - 1, 0)), st.integers(-1, 4))
        argv = ["whittaker", "grid", f"--n={n}", f"--alpha={_values(draw, n)}",
                f"--axis={axis}", f"--from={draw(_value)}", f"--to={draw(_value)}",
                f"--steps={_mostly(draw, st.integers(1, 8), st.integers(0, 8))}",
                f"--tol={draw(_tol)}"]
        if draw(st.booleans()):
            argv.append(f"--x={_values(draw, n)}")
    elif kind == "spherical":
        argv = ["spherical", "eval", f"--n={n}", f"--lambda={_values(draw, n)}",
                f"--x={_values(draw, n)}", f"--tol={draw(_tol)}"]
    elif kind == "cfunction":
        argv = ["cfunction", f"--lambda={_values(draw, n)}"]
    elif kind == "eigen":
        argv = ["verify", "eigen", f"--n={n}", f"--alpha={_values(draw, n)}",
                f"--grid={_mostly(draw, st.integers(5, 10), st.integers(0, 10))}:"
                f"{_mostly(draw, st.floats(0.05, 2).map(repr), _value)}",
                f"--tol={draw(_tol)}"]
        return argv + (["--refine"] if draw(st.booleans()) else [])
    else:
        argv = ["verify", kind, f"--n={n}"]
        if kind != "qism":
            argv += [f"--trials={draw(st.integers(0, 3))}",
                     f"--seed={draw(st.integers(0, 99))}"]
        if kind == "gz" and draw(st.booleans()):
            argv.append(f"--tol={draw(_tol)}")
        return argv
    return argv + [f"--format={draw(_fmt)}"]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def _check_rows(rows, argv):
    assert rows
    for row in rows:
        if argv[0] == "cfunction":
            assert set(row) == _CFUNCTION_KEYS
        else:
            xs = set(row) - _VALUE_KEYS
            assert _VALUE_KEYS <= set(row)
            assert xs == {f"x{k + 1}" for k in range(len(xs))}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=_argv())
@example(argv=_EIGEN + ["3:0.1"])
@example(argv=_EIGEN + ["5:0"])
def test_cli_contract_on_generated_argv(argv):
    code, out, err = _run_captured(argv)
    assert code in (0, 1, "SystemExit(2)")
    assert err.count("\n") <= 1
    if code == "SystemExit(2)":
        assert out == "" and "error: argument --" in err
        return
    if code == 0:
        assert out
    if not out:
        assert code == 1 and err.startswith("error: ")
        return
    if argv[0] == "verify":
        payload = json.loads(out, parse_constant=_reject_constant)
        assert set(payload) == {"reports", "status"}
        assert all(set(r) == _REPORT_KEYS for r in payload["reports"])
        assert (code == 0) == (payload["status"] == "PASS")
    elif argv[-1] == "--format=json":
        _check_rows(json.loads(out, parse_constant=_reject_constant), argv)
    else:
        _check_rows(list(csv.DictReader(io.StringIO(out))), argv)
