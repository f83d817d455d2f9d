import cmath
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quantoda
from quantoda import cli, gz, mellin_barnes as mb, oracle, separation, weyl
from quantoda.cli import build_parser, dispatch
from quantoda.rationals import MAX_TRIALS
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_value_commands_call_no_python_level_numpy_helper(monkeypatch, fmt):
    # each of these costs 30-200 us on its first call after other work:
    # value commands build their arrays with numpy's C-level calls, and
    # print the same bytes without them
    argvs = [["whittaker", "eval", f"--n={n}", "--alpha=" + alpha, "--x=" + x,
              f"--method={method}"]
             for n, alpha, x in [(1, "0.7", "1.3"), (2, "0.8,-0.3", "0.4,-0.6"),
                                 (3, "0.9,0.1,-0.6", "0.5,0,-0.5")]
             for method in ("direct", "recursive")]
    argvs += [["spherical", "eval", "--n=2", "--lambda=0.8,-0.3", "--x=0.4,-0.6"],
              ["spherical", "eval", "--n=3", "--lambda=0.9,0.1,-0.6",
               "--x=0.5,0,-0.5"],
              ["cfunction", "--lambda=0.8,-0.3"],
              ["cfunction", "--lambda=0.9,0.1,-0.6"]]
    argvs = [argv + [f"--format={fmt}"] for argv in argvs]
    want = [_run(argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("a Python-level numpy helper was called")
    for name in ("einsum", "linspace", "stack", "full", "ravel", "min"):
        monkeypatch.setattr(np, name, refuse)
    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view", refuse)
    assert [_run(argv) for argv in argvs] == want


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


# sha256 of `verify qism --n k` stdout: the exact suite prints no floats, so
# these bytes hold on every platform and change only with a report
_QISM_STDOUT_SHA256 = {
    1: "907749cc9b2aa4ff906ca2393aec5cffd4597fe10458edb5d125a243d8c9f0d7",
    2: "ee36898ef04983bc7b12fb970d1e499bfbf871cabc4ffeb48a5b2fc59715f6e2",
    3: "fd42ac90c9e6960e9c034d93cd63cc8ca829f3e1ab44cf4eaee2abc67f8ca5c7",
    4: "c6f9bf3c11ac1e4a88a357edf9d1b197cbfe875d7844a338498f47a7b31d3ce2",
    5: "cda5d3ff67d5c64e22c0ea2b751e3a8e9be12a3c67e6baa217247e8ddfa89e73",
}


@pytest.mark.parametrize("n", sorted(_QISM_STDOUT_SHA256))
def test_verify_qism_stdout_bytes_are_pinned(n):
    code, text = _run(["verify", "qism", "--n", str(n)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == _QISM_STDOUT_SHA256[n]


@pytest.mark.parametrize("n", [9, 40])
def test_verify_qism_refuses_n_above_the_limit(monkeypatch, n):
    # --n 40 was killed by the OS (exit 137) with no message
    def monodromy(*args, **kwargs):
        raise AssertionError("operator built past the QISM limit")

    monkeypatch.setattr(weyl, "monodromy", monodromy)
    code, out, err = _run_captured(["verify", "qism", f"--n={n}"])
    assert code == 1 and out == ""
    assert err == f"error: N={n} unsupported: the QISM suite runs N <= 8\n"


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
    # axis = n, one past the last coordinate: a usage error, not grid_scan's
    ["whittaker", "grid", "--n", "2", "--alpha", "0.5,-0.5", "--axis", "2",
     "--from", "0", "--to", "1", "--steps", "3"],
])
def test_bad_inputs_exit_2_with_one_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(argv, out=io.StringIO())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error: argument --" in err


@pytest.mark.parametrize("argv, default, other", [
    (["verify", "separation", "--n=2"], "--seed=42", "--seed=43"),
    # at seed 2 the N = 3 measure residual differs between 100 and 101 trials
    (["verify", "separation", "--n=3", "--seed=2"], "--trials=100", "--trials=101"),
    (["verify", "eigen", "--n=2", "--alpha=0.5,-0.5", "--grid=16:0.1"],
     "--tol=0.001", "--tol=0.0011"),
])
def test_an_omitted_option_takes_its_documented_default(argv, default, other):
    # the command prints the same without the option as with its documented
    # default, and something else with a neighbouring value
    assert _run(argv) == _run(argv + [default]) != _run(argv + [other])


def test_verify_separation_passes_at_n1():
    # one particle: no difference equation to check, and no residual
    code, text = _run(["verify", "separation", "--n=1"])
    payload = json.loads(text)
    assert code == 0 and payload["status"] == "PASS"
    assert [(r["relation"], r["status"], r["residual"]) for r in payload["reports"]] == [
        ("dif-equation", "PASS", 0.0), ("measure-difference-eq", "PASS", 0.0),
        ("lagrange", "PASS", None)]


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
    cases = []
    for points, refine in ((5, False), (5, True), (9, False)):
        width = (2 * points - 1) / 2 if refine else points - 1
        cases += [(points, frac * bound / width, refine, frac > 1)
                  for frac in (0.9, 0.999, 1.001, 1.1, 3.0)]
    # 5 points span 4 spacings: bound / 4 spans the bound exactly, and is
    # accepted; one ulp more is refused
    exact = bound / 4
    cases += [(5, exact, False, False), (5, math.nextafter(exact, math.inf), False, True)]
    for points, spacing, refine, refused in cases:
        argv = ["verify", "eigen", f"--n={n}", f"--alpha={alpha}",
                f"--grid={points}:{spacing!r}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run_captured(argv + ["--refine"] * refine)
        if not refused:
            assert code in (0, 1) and err == ""
            assert json.loads(out)["reports"][0]["relation"] == "toda-eigenvalue"
        else:
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: grid spans")


@pytest.mark.parametrize("n, alpha", [(2, "0.5,-0.5"), (3, "0.5,-0.5,0.1")])
def test_eigen_spacing_too_small_for_the_stencil(n, alpha):
    # 5:1e-160 wrote numpy overflow warnings from the stencil's / h^2, and
    # 5:1e-170 then failed on a NaN residual
    for spacing in (1e-150, 1e-155, 1e-160, 1e-170, 1e-300, 5e-324):
        for refine in (False, True):
            argv = ["verify", "eigen", f"--n={n}", f"--alpha={alpha}",
                    f"--grid=5:{spacing!r}"] + ["--refine"] * refine
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = _run_captured(argv)
            assert code in (0, 1) and err.count("\n") <= 1
            h = spacing / 2 if refine else spacing
            refused = h < math.exp(-oracle.EXP_LIMIT / 2)
            assert err.startswith("error: grid spacing") == refused
            assert (out == "") == refused


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


@pytest.mark.parametrize("argv, message", [
    # 42 values 0.1 apart do not fit in gz's [-2, 2], nor 22 in its [-1, 1]:
    # --n 42 spent over 20 s in the gl and Serre checks before it failed to
    # allocate 487 MiB.  Both N lie above gz.GZ_MAX_N, whose refusal now
    # comes first, before the draws
    (["verify", "gz", "--n=42", "--trials=1"],
     "N=42 unsupported: the gz suite runs N <= 13"),
    (["verify", "gz", "--n=22", "--trials=1"],
     "N=22 unsupported: the gz suite runs N <= 13"),
    # 2N - 1 = 603 points 0.01 apart need 6.02 of [-3, 3]: refused after
    # 1.9 s in the Lagrange identity
    (["verify", "separation", "--n=302", "--trials=1"],
     "603 values at least 0.01 apart do not fit in [-3.0, 3.0]"),
], ids=["gz-n42", "gz-n22", "separation-n302"])
def test_sampled_suites_refuse_draws_that_do_not_fit_before_any_exact_check(
        monkeypatch, argv, message):
    def entered(*args, **kwargs):
        raise AssertionError("an exact check ran before the draws were refused")

    # gz_suite runs the gl and Serre relations through `_check_relations`,
    # as the standalone checks do
    for module, name in ((gz, "_check_relations"), (separation, "check_lagrange_identity")):
        monkeypatch.setattr(module, name, entered)
    assert _run_captured(argv) == (1, "", f"error: {message}\n")


def test_verify_gz_refuses_n_above_its_limit_at_once():
    # --n 16 --trials 1 ran 8.2 s, then printed two numpy RuntimeWarnings and
    # a NaN JSON error, as the measure check's product overflowed
    n = gz.GZ_MAX_N + 1
    start = time.perf_counter()
    probe = _fresh_python("-m", "quantoda.cli", "verify", "gz", f"--n={n}", "--trials=1")
    elapsed = time.perf_counter() - start
    assert (probe.returncode, probe.stdout) == (1, "")
    assert probe.stderr == f"error: N={n} unsupported: the gz suite runs N <= {gz.GZ_MAX_N}\n"
    assert elapsed <= 0.5


@pytest.mark.parametrize("argv, message", [
    # the first two had not ended after 40 s; the last two ran out of memory
    # after 11 and 19 s with numpy's or Python's message
    *((["verify", suite, f"--n={n}", f"--trials={trials}"],
       f"trials must be at most {MAX_TRIALS}, got {trials}")
      for suite, n, trials in (("gz", 13, 10 ** 4), ("separation", 300, 10 ** 4),
                               ("separation", 2, 10 ** 7), ("gz", 2, 10 ** 8))),
    (["verify", "qism", f"--n={weyl.QISM_MAX_N + 1}"],
     f"N={weyl.QISM_MAX_N + 1} unsupported: the QISM suite runs N <= {weyl.QISM_MAX_N}"),
    # 603 points of [-3, 3], 0.01 apart, do not fit
    (["verify", "separation", "--n=302"],
     "603 values at least 0.01 apart do not fit in [-3.0, 3.0]"),
])
def test_verify_refuses_past_its_bounds_at_once(argv, message):
    start = time.perf_counter()
    probe = _fresh_python("-m", "quantoda.cli", *argv)
    elapsed = time.perf_counter() - start
    assert (probe.returncode, probe.stdout, probe.stderr) == (1, "", f"error: {message}\n")
    assert elapsed <= 0.5


def test_cfunction_refuses_entries_above_its_limit_at_once():
    # 3000 entries ran 3.3 s before a pole refusal; the cost grows as N^2
    from quantoda.harish_chandra import C_FUNCTION_MAX_N
    n = C_FUNCTION_MAX_N + 1
    lam = ",".join(repr(0.37 * k) for k in range(n))
    start = time.perf_counter()
    probe = _fresh_python("-m", "quantoda.cli", "cfunction", f"--lambda={lam}")
    elapsed = time.perf_counter() - start
    assert (probe.returncode, probe.stdout) == (1, "")
    assert probe.stderr == (f"error: N={n} unsupported: the c-function takes "
                            f"N <= {C_FUNCTION_MAX_N} entries\n")
    assert elapsed <= 0.5


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_out_writes_the_stdout_bytes_to_the_file(tmp_path, fmt):
    argv = ["whittaker", "grid", "--n=2", "--alpha=0.5,-0.5", "--axis=0",
            "--from=-1", "--to=1", "--steps=5", f"--format={fmt}"]
    code, want, _ = _run_captured(argv)
    assert code == 0 and ("\r\n" in want) == (fmt == "csv")
    path = tmp_path / f"sweep.{fmt}"
    assert _run_captured(argv + [f"--out={path}"]) == (0, "", "")
    assert path.read_bytes() == want.encode()


def test_non_integer_count_exits_2_with_one_line():
    code, out, err = _run_captured(["whittaker", "eval", "--n=2.5",
                                    "--alpha=0.5,-0.5", "--x=0,0"])
    assert (code, out) == ("SystemExit(2)", "")
    assert err.count("\n") == 1 and "expected an integer: '2.5'" in err


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


_HUGE_N2 = ["whittaker", "eval", "--n=2", "--alpha=1e7,-1e7", "--x=0,0", "--tol=1e-3"]
_HUGE_N3 = ["spherical", "eval", "--n=3", "--lambda=1e6,0,-1e6", "--x=0,0,0"]


@pytest.mark.parametrize("argv", [_HUGE_N2, _HUGE_N2 + _RECURSIVE, _HUGE_N3])
def test_evaluation_too_big_for_memory_exits_1_before_the_kernel(monkeypatch, argv):
    # M = 2.3e8 and 4.1e7 nodes per level: both were killed for want of memory
    def no_kernel(*args):
        raise AssertionError("kernel built past the node-array limit")

    monkeypatch.setattr(mb, "_kernel", no_kernel)
    code, out, err = _run_captured(argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: M=")


_WIDE_N3 = ["whittaker", "eval", "--n=3", "--alpha=120,0,-120", "--x=0.5,0,-0.5",
            "--tol=1e-2"]


@pytest.mark.parametrize("argv", [
    _WIDE_N3, _WIDE_N3 + _RECURSIVE,
    ["spherical", "eval", "--n=3", "--lambda=120,0,-120", "--x=0.5,0,-0.5",
     "--tol=1e-2"],
    # T = 223.4: printed 3.4e-301 with estimate 7.4e-298, exit 0
    _WIDE_N3[:3] + ["--alpha=109.6,0,-109.6"] + _WIDE_N3[4:],
])
def test_n3_contour_too_wide_for_the_node_sum_exits_1_before_the_kernel(
        monkeypatch, argv):
    # pi T > EXP_LIMIT: the rank-4 factors e^{+-pi t} overflowed, and T = 244
    # (M = 2148, under the node-array limit) printed numpy RuntimeWarnings
    # and then "error: ... nan"
    def no_kernel(*args):
        raise AssertionError("kernel built for a contour too wide at N=3")

    monkeypatch.setattr(mb, "_kernel", no_kernel)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run_captured(argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: half-width T=")


# -- the value writer against the standard library ------------------------------

_SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, 1e16,
            1.7976931348623157e308, -1.7976931348623157e308]
_double = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False,
                                                         allow_infinity=False),
                    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308))
_lambda_text = st.one_of(
    st.lists(_double, min_size=1, max_size=4).map(lambda v: ",".join(map(repr, v))),
    st.text(alphabet=',"\r\n -.e0123456789ab', min_size=1, max_size=12))


def _stdlib_text(rows, fmt):
    """`_value_text`'s reference: `json` with strict floats, or a
    `csv.DictWriter` with repr cells."""
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True, allow_nan=False) + "\n"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows({k: v if isinstance(v, str) else repr(v) for k, v in r.items()}
                     for r in rows)
    return buf.getvalue()


@st.composite
def _value_rows(draw):
    """1-61 rows with the value keys of N = 1..3 or the `cfunction` keys."""
    n = draw(st.integers(0, 3))
    keys = ([f"x{k + 1}" for k in range(n)] + ["re", "im", "abs", "error_estimate"]
            if n else ["lambda", "c_re", "c_im", "plancherel_density"])
    return [{k: draw(_lambda_text if k == "lambda" else _double) for k in keys}
            for _ in range(draw(st.integers(1, 61)))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rows=_value_rows(), fmt=st.sampled_from(["csv", "json"]), bad=st.one_of(
    st.none(), st.tuples(st.integers(0, 60), st.integers(0, 7),
                         st.sampled_from([math.nan, math.inf, -math.inf]))))
def test_value_text_is_the_stdlib_writers_output(rows, fmt, bad):
    if bad is not None:          # one non-finite cell: both raise, before output
        i, k, v = bad
        row = rows[i % len(rows)]
        numbers = [c for c in row if c != "lambda"]
        row[numbers[k % len(numbers)]] = v
    table = {k: [r[k] for r in rows] for k in rows[0]}
    if bad is None:
        assert cli._value_text(table, fmt) == _stdlib_text(rows, fmt)
        return
    with pytest.raises(ValueError, match=f"not {fmt.upper()} compliant: "):
        cli._value_text(table, fmt)
    if fmt == "json":
        with pytest.raises(ValueError) as want:
            _stdlib_text(rows, fmt)
        with pytest.raises(ValueError) as got:
            cli._value_text(table, fmt)
        assert str(got.value) == str(want.value)



# -- the report writer against the standard library -----------------------------

_report_text = st.text(alphabet=st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é€😀'),
                                          st.characters()), max_size=12)


@st.composite
def _reports(draw):
    """0-8 reports, every optional field None in some, every text field
    with quotes, backslashes, control characters and non-ASCII text."""
    return [VerificationReport(
        suite=draw(_report_text), n=draw(st.integers()), relation=draw(_report_text),
        status=draw(st.one_of(st.sampled_from(["PASS", "FAIL"]), _report_text)),
        residual=draw(st.none() | _double), tolerance=draw(st.none() | _double),
        seed=draw(st.none() | st.integers()), witness=draw(st.none() | _report_text))
        for _ in range(draw(st.integers(0, 8)))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(reports=_reports(), bad=st.one_of(st.none(), st.tuples(
    st.integers(0, 7), st.sampled_from(["residual", "tolerance"]),
    st.sampled_from([math.nan, math.inf, -math.inf]))))
def test_report_writer_is_the_stdlib_writers_output(reports, bad):
    if bad is not None and reports:      # one non-finite number: both raise, before output
        i, field, v = bad
        setattr(reports[i % len(reports)], field, v)
    payload = {"reports": [dataclasses.asdict(r) for r in reports],
               "status": "PASS" if all(r.status == "PASS" for r in reports) else "FAIL"}
    buf = io.StringIO()
    if bad is None or not reports:
        code = cli._emit_reports(reports, buf)
        assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True,
                                            allow_nan=False) + "\n"
        assert code == (payload["status"] != "PASS")
        return
    with pytest.raises(ValueError) as want:
        json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with pytest.raises(ValueError) as got:
        cli._emit_reports(reports, buf)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")
    assert buf.getvalue() == ""

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
@example(argv=["verify", "eigen", "--n=1", "--alpha=0", "--grid=5:0.1", "--refine"])
@example(argv=["verify", "eigen", "--n=3", "--alpha=0.5,-0.5,0.1", "--grid=5:100"])
@example(argv=["cfunction", "--lambda="])
@example(argv=_EVAL[:4] + ["--alpha=0.5,,-0.5"] + _EVAL[6:])
@example(argv=_FAR_N2)
@example(argv=_FAR_N2 + _RECURSIVE)
@example(argv=_FAR_N3)
@example(argv=_FAR_N3[:4] + ["--x=-400,-400,-400"] + _RECURSIVE)
@example(argv=_HUGE_N2)
@example(argv=_HUGE_N3)
@example(argv=_WIDE_N3)
# inputs that once printed numpy RuntimeWarnings before the output: a
# difference past 1.8e296 (its node sum underflows to 0), then past the
# largest double the carrier's phase sigma1 x_N, a difference x_1 - x_2, its
# node-sum phase and the eigen residual's norm
@example(argv=_EVAL[:6] + ["--x=1e297,0"])
@example(argv=_GRID[:8] + ["--from=0", "--to=1e300", "--steps=61"])
@example(argv=["whittaker", "eval", "--n=3", "--alpha=0.5,0,-0.5", "--x=1e300,0,-1e300"])
@example(argv=["spherical", "eval", "--n=2", "--lambda=0.5,-0.5", "--x=1e300,0"])
@example(argv=["whittaker", "eval", "--n=2", "--alpha=1,1", "--x=1e308,1e308"])
@example(argv=["whittaker", "grid", "--n=1", "--alpha=2", "--axis=0", "--from=0",
               "--to=1e308", "--steps=2"])
@example(argv=_EVAL[:6] + ["--x=1e308,-1e308"])
@example(argv=_EVAL[:6] + ["--x=8e307,-8e307"])
@example(argv=["verify", "eigen", "--n=1", "--alpha=1e100", "--grid=5:0.1"])
@example(argv=["verify", "eigen", "--n=1", "--alpha=1e300", "--grid=5:0.1"])
@example(argv=["verify", "qism", "--n=9"])
# N = 1 is the carrier alone, and N = 2 refuses a contour of infinite width
@example(argv=["whittaker", "eval", "--n=1", "--alpha=1e308", "--x=0"])
@example(argv=["spherical", "eval", "--n=1", "--lambda=1e308", "--x=0"])
@example(argv=["whittaker", "grid", "--n=1", "--alpha=1e308", "--axis=0",
               "--from=0", "--to=1", "--steps=3"])
@example(argv=["whittaker", "eval", "--n=2", "--alpha=1e308,1e308", "--x=0,0"])
# (lambda_1 - lambda_2)/2 halved entry by entry: no overflow in the difference
@example(argv=["cfunction", "--lambda=1e308,-1e308"])
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


# -- the direct parse against argparse ----------------------------------------

def _argparse_vars(argv):
    """vars() of argparse's namespace, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


_OPTION_FLAGS = sorted({f for _, opts in cli._COMMANDS.values() for f in opts})


@st.composite
def _mutated_argv(draw):
    """(argv, direct): an `_argv` command line after 0-3 edits, and whether
    every edit keeps it in the forms `_parse` reads."""
    argv, direct = draw(_argv()), True
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["separate", "separate", "abbreviate", "repeat",
                                     "unknown", "help", "refine=", "--", "drop word",
                                     "drop option", "out", "from -3"]))
        at = draw(st.integers(0, len(argv)))
        opts = [i for i, a in enumerate(argv) if a.startswith("--") and "=" in a]
        if edit == "separate" and opts:
            i = draw(st.sampled_from(opts))
            flag, _, text = argv[i].partition("=")
            argv[i:i + 1] = [flag, text]
            direct = direct and not text.startswith("-")
            continue
        if edit == "out":
            out = draw(st.sampled_from(["", "o.csv", "-o.csv", "eval"]))
            form = draw(st.sampled_from([[f"--out={out}"], ["--out", out]]))
            direct = (direct and not any(a.partition("=")[0] == "--out" for a in argv)
                      and not (len(form) == 2 and out.startswith("-")))
            argv += form
            continue
        direct = False
        if edit == "abbreviate" and opts:
            i = draw(st.sampled_from(opts))
            flag, _, text = argv[i].partition("=")
            argv[i] = f"{flag[:draw(st.integers(3, len(flag) - 1))]}={text}" \
                if len(flag) > 3 else argv[i]
        elif edit == "repeat" and opts:
            argv.insert(at, argv[draw(st.sampled_from(opts))])
        elif edit == "unknown":
            argv.insert(at, draw(st.sampled_from(["--bogus=1", "--nope", "-x", "extra"])))
        elif edit == "help":
            argv.insert(at, draw(st.sampled_from(["-h", "--help"])))
        elif edit == "refine=":
            argv.insert(at, draw(st.sampled_from(["--refine=1", "--refine="])))
        elif edit == "--":
            argv.insert(at, "--")
        elif edit == "drop word" and argv[0] != "cfunction":
            del argv[1]
        elif edit == "drop option" and opts:
            del argv[draw(st.sampled_from(opts))]
        elif edit == "from -3":
            argv += draw(st.sampled_from([["--from", "-3"], ["--alpha", "-0.5,1"],
                                          [draw(st.sampled_from(_OPTION_FLAGS)),
                                           "-1"]]))
    return argv, direct


@settings(max_examples=400, derandomize=True, deadline=None)
@given(case=_mutated_argv())
@example(case=(_EVAL[:4] + ["--alph=0.5,-0.5"] + _EVAL[6:], False))
@example(case=(_EVAL + ["--tol=1e-6", "--tol", "1e-8"], False))
@example(case=(_GRID[:6] + ["-3"] + _GRID[7:] + ["--steps", "3"], False))
@example(case=(_EVAL[:4] + ["--alpha", "-0.5,1"] + _EVAL[6:], False))
@example(case=(_EVAL[:2] + ["--n", "2"] + _EVAL[4:], True))
@example(case=(_EVAL[:2] + ["--n=2.5"] + _EVAL[4:], True))
@example(case=(_EVAL + ["--format=xml"], True))
@example(case=(_EIGEN + ["8:0.1", "--refine=1"], False))
@example(case=(["verify", "--n=2"], False))
@example(case=(["whittaker", "eval", "--help"], False))
def test_direct_parse_is_argparse_or_defers_to_it(case):
    argv, direct = case
    want = _argparse_vars(argv)
    got = cli._parse(list(argv))
    if want is None:
        assert got is None
        return
    assert got is None or vars(got) == want
    if direct:
        # a command line in the direct forms that argparse accepts is read
        assert got is not None


# The README "Command line" examples and the benchmark's warm-up commands
_README_ARGVS = [
    "whittaker eval --n 3 --alpha 0.9,0.1,-0.6 --x 0.5,0,-0.5 --tol 1e-8",
    "whittaker eval --n 2 --alpha 0.8,-0.3 --x 0.4,-0.6 --method recursive --format json",
    "spherical eval --n 2 --lambda 0.6,-0.3 --x 0.2,-0.2",
    "cfunction --lambda 1.0,-1.0 --format json",
    "whittaker grid --n=2 --alpha=0.3,-1.0 --axis=0 --from=-1.5 --to=1.7 --steps=61 "
    "--x=0.2,-0.4 --tol=1e-8",
    "whittaker grid --n=3 --alpha=0.9,0.1,-0.6 --axis=1 --from=-1 --to=1.5 --steps=61 "
    "--x=0.3,-0.1,-0.4 --tol=1e-8",
    "verify qism --n 3",
    "verify separation --n 3 --trials 100 --seed 42",
    "verify gz --n 3 --trials 20 --seed 42",
    "verify eigen --n 3 --alpha 0.7,0,-0.7 --grid 64:0.05 --refine",
]
_WARMUP_ARGVS = [
    "whittaker eval --n=2 --alpha=1.0,-0.5 --x=0.5,0.0",
    "whittaker grid --n=2 --alpha=1.0,-0.5 --axis=0 --from=-1 --to=1 --steps=61",
    "verify separation --n=2 --trials=10",
]


@pytest.mark.parametrize("line", _README_ARGVS + _WARMUP_ARGVS)
def test_documented_commands_parse_directly(line):
    argv = line.split()
    got = cli._parse(argv)
    assert got is not None and vars(got) == _argparse_vars(argv)


def test_separated_negative_value_goes_to_argparse():
    argv = ("whittaker grid --n 2 --alpha 0.5,-0.5 --axis 0 --from -3 --to 3 "
            "--steps 61 --out sweep.csv").split()
    assert cli._parse(argv) is None
    assert _argparse_vars(argv)["start"] == -3.0


def _fresh_python(*args, **env_vars):
    # a new interpreter that imports this checkout's quantoda, with env_vars
    # added to its environment
    env = dict(os.environ, **env_vars)
    src = str(Path(quantoda.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_quadrature_half_imports_no_gz_code():
    # the Mellin-Barnes tests compare two independent codes, the quadrature
    # against the GZ product, only while the quadrature half (and the oracle
    # that checks it) imports neither gz nor separation
    probe = _fresh_python("-c", "import sys, quantoda.mellin_barnes, quantoda.oracle; print("
                          "[m for m in ('quantoda.gz', 'quantoda.separation') if m in sys.modules])")
    assert (probe.returncode, probe.stdout) == (0, "[]\n"), probe.stderr


def test_entry_point_in_a_fresh_process():
    # no scipy or numpy.random module is loaded by importing the CLI, nor by
    # running one command of each kind in the same process (`dispatch`
    # imports each half of the package with its first command, so the
    # second list covers what the halves import)
    probe = _fresh_python("-c", """
import io, sys
import quantoda.cli as cli
def unwanted_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "numpy.random" or m.startswith("numpy.random."))
print(unwanted_modules())
for argv in (["whittaker", "eval", "--n=3", "--alpha=0.9,0.1,-0.6", "--x=0.5,0,-0.5"],
             ["spherical", "eval", "--n=2", "--lambda=0.5,-0.5", "--x=0.3,-0.2"],
             ["cfunction", "--lambda=1.0,-0.3"],
             ["verify", "separation", "--n=2"], ["verify", "gz", "--n=2", "--trials=3"]):
    assert cli.dispatch(argv, out=io.StringIO()) == 0, argv
print(unwanted_modules())
""")
    assert probe.returncode == 0 and probe.stdout == "[]\n[]\n", probe.stderr
    argv = ["cfunction", "--lambda=1.0,-0.3", "--format=json"]
    run = _fresh_python("-m", "quantoda.cli", *argv)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == _run(argv)[1]


@pytest.mark.parametrize("argv", [
    ["whittaker", "eval", "--n=2", "--alpha=0.3,-1.0", "--x=0.2,-0.4", "--tol=1e-8"],
    ["verify", "eigen", "--n=2", "--alpha=0.3,-1.0", "--grid=32:0.05", "--refine"],
    ["whittaker", "grid", "--n=2", "--alpha=0.3,-1.0", "--axis=0", "--from=-1.5",
     "--to=1.7", "--steps=61", "--x=0.2,-0.4", "--tol=1e-8"],
])
def test_n2_point_and_eigen_bytes_do_not_depend_on_blas_threads(argv):
    # README: an N = 2 point value (one-column products), an N = 2 eigen
    # report at an ordinary spacing and the README's N = 2 sweep (phase
    # factor products of inner dimension about sqrt(M)) print the same
    # bytes under one and two OpenBLAS threads
    runs = [_fresh_python("-m", "quantoda.cli", *argv, OPENBLAS_NUM_THREADS=k)
            for k in ("1", "2")]
    assert [(r.returncode, r.stderr) for r in runs] == [(0, "")] * 2
    assert runs[0].stdout == runs[1].stdout


_ARGPARSE_STATE = """
import contextlib, io, json, sys
import quantoda.cli as cli
steps = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.dispatch(argv, out=io.StringIO())
        except SystemExit as exc:
            code = exc.code
    steps.append([code, "argparse" in sys.modules, cli.build_parser.cache_info().currsize])
print(json.dumps(steps))
"""


@pytest.mark.parametrize("last, code", [
    (["--help"], 0), (["verify", "eigen", "--help"], 0),
    (["whittaker", "eval", "--n=0", "--alpha=1,2", "--x=0,0"], 2),
    (["whittaker", "eval", "--n=2", "--alpha=1,2", "--x=0,0", "--bogus"], 2)])
def test_well_formed_commands_leave_argparse_unloaded(last, code):
    # a fresh process parses well-formed commands without argparse; help and
    # usage errors import it and build the parser
    argvs = [["whittaker", "eval", "--n", "2", "--alpha=0.5,-0.5", "--x=0.3,-0.3"],
             ["verify", "qism", "--n=2"], last]
    probe = _fresh_python("-c", _ARGPARSE_STATE, json.dumps(argvs))
    assert probe.returncode == 0, probe.stderr
    assert json.loads(probe.stdout) == [[0, False, 0], [0, False, 0], [code, True, 1]]


def test_entry_point_parses_without_argparse():
    # `python -m quantoda.cli` reads sys.argv through the same direct parse
    argv = ["cfunction", "--lambda", "1.0,-0.3", "--format", "json"]
    run = _fresh_python("-X", "importtime", "-m", "quantoda.cli", *argv)
    assert run.returncode == 0 and run.stdout == _run(argv)[1]
    imported = {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}
    assert "quantoda.harish_chandra" in imported and "argparse" not in imported


# The two halves of the package that `dispatch` imports with their first
# command; `specfun` serves both.
_NUMERICAL_HALF = {"mellin_barnes", "oracle", "harish_chandra", "specfun"}
_EXACT_HALF = {"weyl", "gz", "separation", "rationals", "specfun"}
_FRONT = {"cli", "report"}
_EXACT_ARGVS = [["verify", "separation", "--n=2", "--trials=10"],
                ["verify", "qism", "--n=2"],
                ["verify", "gz", "--n=2", "--trials=3"]]
_NUMERICAL_ARGVS = [["whittaker", "eval", "--n=2", "--alpha=1.0,-0.5", "--x=0.5,0.0"],
                    ["whittaker", "grid", "--n=2", "--alpha=1.0,-0.5", "--axis=0",
                     "--from=-1", "--to=1", "--steps=5"],
                    ["spherical", "eval", "--n=2", "--lambda=0.5,-0.5", "--x=0.3,-0.2"],
                    ["cfunction", "--lambda=1.0,-0.3"],
                    ["verify", "eigen", "--n=2", "--alpha=0.5,-0.5", "--grid=8:0.1"]]


def _modules_after(argvs):
    """[(exit code, quantoda modules loaded)] in a fresh process: after
    `import quantoda.cli` (code None), then after each argv in turn."""
    probe = _fresh_python("-c", """
import contextlib, io, json, sys
import quantoda.cli as cli
def loaded():
    return sorted(m[len("quantoda."):] for m in sys.modules if m.startswith("quantoda."))
steps = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.dispatch(argv, out=io.StringIO())
        except SystemExit as exc:
            code = exc.code
    steps.append([code, loaded()])
print(json.dumps(steps))
""", json.dumps(argvs))
    assert probe.returncode == 0, probe.stderr
    return [(code, set(mods)) for code, mods in json.loads(probe.stdout)]


def test_cli_import_and_usage_load_neither_half():
    steps = _modules_after([["--help"], ["whittaker", "eval", "--n=0", "--alpha=1,2",
                                         "--x=0,0"], ["whittaker", "--help"]])
    assert steps == [(None, _FRONT), (0, _FRONT), (2, _FRONT), (0, _FRONT)]


@pytest.mark.parametrize("first", ["numerical", "exact"])
def test_each_half_loads_whole_with_its_first_command(first):
    halves = {"numerical": (_NUMERICAL_ARGVS, _NUMERICAL_HALF),
              "exact": (_EXACT_ARGVS, _EXACT_HALF)}
    argvs_a, half_a = halves.pop(first)
    (argvs_b, half_b), = halves.values()
    steps = _modules_after(argvs_a + argvs_b)
    assert [code for code, _ in steps[1:]] == [0] * len(argvs_a + argvs_b)
    # the first command of a half loads all of it and nothing of the other;
    # the later commands of either half add no module
    loaded = [mods for _, mods in steps[1:]]
    assert loaded[:len(argvs_a)] == [_FRONT | half_a] * len(argvs_a)
    assert loaded[len(argvs_a):] == [_FRONT | half_a | half_b] * len(argvs_b)
