import cmath
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quantoda
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


def test_error_paths(capsys):
    # usage error from argparse is exit 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["whittaker"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        dispatch(["whittaker", "eval", "--n", "2", "--alpha", "bad"])
    capsys.readouterr()
    # one shared parser per process stays usable after usage errors
    assert build_parser() is build_parser()
    first = _run(_EVAL + ["--format", "json"])
    assert first[0] == 0
    for argv in (["whittaker", "eval", "--n", "2", "--alpha", "bad"],
                 ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5",
                  "--axis", "5", "--from", "0", "--to", "1", "--steps", "3"]):
        with pytest.raises(SystemExit) as exc:
            dispatch(argv, out=io.StringIO())
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "error: argument --" in err
    assert _run(_EVAL + ["--format", "json"]) == first


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
    # empty list entries were dropped: two values read, or c = 1 from none
    ["whittaker", "eval", "--n", "2", "--alpha=0.5,,-0.5", "--x", "0.3,-0.3"],
    ["whittaker", "eval", "--n", "2", "--alpha=0.5,-0.5,", "--x", "0.3,-0.3"],
    ["cfunction", "--lambda="],
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


@pytest.mark.parametrize("n, alpha", [(2, "0.5,-0.5"), (3, "0.5,-0.5,0.1")])
def test_eigen_grid_span_across_the_bound(n, alpha):
    # numpy overflow warnings were written before the error line
    bound = oracle.max_grid_span(n)
    for points, refine in ((5, False), (5, True), (9, False)):
        width = (2 * points - 1) / 2 if refine else points - 1
        for frac in (0.9, 0.999, 1.001, 1.1, 3.0):
            argv = ["verify", "eigen", f"--n={n}", f"--alpha={alpha}",
                    f"--grid={points}:{frac * bound / width!r}"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _run_captured(argv + ["--refine"] * refine)
            if frac < 1:
                assert code in (0, 1) and err == ""
                assert json.loads(out)["reports"][0]["relation"] == "toda-eigenvalue"
            else:
                assert code == 1 and out == ""
                assert err.count("\n") == 1 and err.startswith("error: grid spans")


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


def test_non_finite_csv_exits_1_and_writes_nothing(monkeypatch):
    monkeypatch.setattr(mb, "whittaker_eval",
                        lambda *a: mb.QuadratureResult(complex(math.nan, 0.0), 0.0))
    code, out, err = _run_captured(_EVAL)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("target", ["dir", "missing/parent/x.csv"])
def test_unwritable_grid_out_exits_1_with_one_line(tmp_path, target):
    # an --out directory or a missing parent printed an OSError traceback
    path = tmp_path / target if target != "dir" else tmp_path
    code, out, err = _run_captured(["whittaker", "grid", "--n=1", "--alpha=0.3",
                                    "--axis=0", "--from=0", "--to=1", "--steps=2",
                                    f"--out={path}"])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(path) in err
    assert sorted(tmp_path.iterdir()) == []


_FAR_N2 = ["whittaker", "eval", "--n=2", "--alpha=0.5,-0.5", "--x=-800,800"]
_FAR_N3 = ["whittaker", "eval", "--n=3", "--alpha=0.9,0.1,-0.6", "--x=-400,0,400"]
_RECURSIVE = ["--method=recursive"]


@pytest.mark.parametrize("argv", [
    # each printed a CSV row of nan after numpy RuntimeWarnings, with exit 0
    _FAR_N2, _FAR_N2 + _RECURSIVE, _FAR_N3, _FAR_N3 + _RECURSIVE,
    ["whittaker", "grid", "--n=2", "--alpha=0.5,-0.5", "--axis=0",
     "--from=-1600", "--to=0", "--steps=3"],
])
def test_far_apart_coordinates_exit_1_with_one_line(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run_captured(argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("n, alpha, x", [
    (3, "0.9,0.1,-0.6", "-400,-400,-400"),   # recursive printed nan
    (2, "0.5,-0.5", "-2000,-2000"),          # recursive overflowed, exit 1
])
def test_recursive_at_far_equal_coordinates_matches_direct(n, alpha, x):
    argv = ["whittaker", "eval", f"--n={n}", f"--alpha={alpha}", f"--x={x}",
            "--tol=1e-8", "--format=json"]
    values = []
    for method in ("direct", "recursive"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run_captured(argv + [f"--method={method}"])
        assert code == 0 and err == ""
        (row,) = json.loads(out)
        values.append(complex(row["re"], row["im"]))
    assert abs(values[1] - values[0]) <= 1e-10 * abs(values[0])


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
# a coordinate token is drawn like a value, except that one in eight reaches
# |2000|, past the overflow bound
_coord = st.integers(0, 15).flatmap(
    lambda k: _BAD if k == 0
    else st.floats(*((-2000, 2000) if k <= 2 else (-5, 5))).map(repr))
_fmt = st.sampled_from(["csv", "json"])
# grid spacings on both sides of the N = 2 and N = 3 overflow bounds
_spacing = st.one_of(st.floats(0.05, 2), st.floats(2, 1000)).map(repr)


def _mostly(draw, good, anything):
    """A draw from `good` three times in four, else from `anything`."""
    return draw(good if draw(st.integers(0, 3)) else anything)


def _values(draw, n, token=_value):
    size = _mostly(draw, st.just(n), st.integers(0, 5))
    vals = draw(st.lists(token, min_size=size, max_size=size))
    if not draw(st.integers(0, 7)):     # one list in eight gets an empty entry
        vals.insert(draw(st.integers(0, len(vals))), "")
    return ",".join(vals)


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
                f"--x={_values(draw, n, _coord)}", f"--tol={draw(_tol)}",
                f"--method={draw(st.sampled_from(['direct', 'recursive']))}"]
    elif kind == "grid":
        axis = _mostly(draw, st.integers(0, max(n - 1, 0)), st.integers(-1, 4))
        argv = ["whittaker", "grid", f"--n={n}", f"--alpha={_values(draw, n)}",
                f"--axis={axis}", f"--from={draw(_coord)}", f"--to={draw(_coord)}",
                f"--steps={_mostly(draw, st.integers(1, 8), st.integers(0, 8))}",
                f"--tol={draw(_tol)}"]
        if draw(st.booleans()):
            argv.append(f"--x={_values(draw, n, _coord)}")
    elif kind == "spherical":
        argv = ["spherical", "eval", f"--n={n}", f"--lambda={_values(draw, n)}",
                f"--x={_values(draw, n, _coord)}", f"--tol={draw(_tol)}"]
    elif kind == "cfunction":
        argv = ["cfunction", f"--lambda={_values(draw, n)}"]
    elif kind == "eigen":
        argv = ["verify", "eigen", f"--n={n}", f"--alpha={_values(draw, n)}",
                f"--grid={_mostly(draw, st.integers(5, 10), st.integers(0, 10))}:"
                f"{_mostly(draw, _spacing, _value)}",
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
        # JSON parsing rejects NaN and infinities; CSV must not hold them either
        assert all(math.isfinite(float(v)) for k, v in row.items() if k != "lambda")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(argv=_argv())
@example(argv=_EIGEN + ["3:0.1"])
@example(argv=_EIGEN + ["5:0"])
@example(argv=_EIGEN + ["5:1000"])
@example(argv=["verify", "eigen", "--n=3", "--alpha=0.5,-0.5,0.1", "--grid=5:100"])
@example(argv=["cfunction", "--lambda="])
@example(argv=_EVAL[:4] + ["--alpha=0.5,,-0.5"] + _EVAL[6:])
@example(argv=_FAR_N2)
@example(argv=_FAR_N2 + _RECURSIVE)
@example(argv=_FAR_N3)
@example(argv=_FAR_N3[:4] + ["--x=-400,-400,-400"] + _RECURSIVE)
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


def _fresh_python(*args):
    # a new interpreter that imports this checkout's quantoda
    env = dict(os.environ)
    src = str(Path(quantoda.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_entry_point_in_a_fresh_process():
    # no scipy module is loaded by importing the CLI, nor by running one
    # command of each kind in the same process (a lazy import inside a
    # function would show here)
    probe = _fresh_python("-c", """
import io, sys
import quantoda.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(scipy_modules())
for argv in (["whittaker", "eval", "--n=3", "--alpha=0.9,0.1,-0.6", "--x=0.5,0,-0.5"],
             ["spherical", "eval", "--n=2", "--lambda=0.5,-0.5", "--x=0.3,-0.2"],
             ["cfunction", "--lambda=1.0,-0.3"],
             ["verify", "separation", "--n=2"]):
    assert cli.dispatch(argv, out=io.StringIO()) == 0, argv
print(scipy_modules())
""")
    assert probe.returncode == 0 and probe.stdout == "[]\n[]\n", probe.stderr
    argv = ["cfunction", "--lambda=1.0,-0.3", "--format=json"]
    run = _fresh_python("-m", "quantoda.cli", *argv)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == _run(argv)[1]
