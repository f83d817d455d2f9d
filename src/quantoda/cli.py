"""Command line interface.

Subcommands:

* ``whittaker eval`` / ``whittaker grid`` -- contour-integral wave function
  values and coordinate sweeps (direct or recursive method).
* ``spherical eval`` -- spherical-kernel integral values.
* ``cfunction`` -- Gamma-product c-function factors and Plancherel density.
* ``verify {qism, separation, gz, eigen}`` -- the exact and numerical
  relation suites, as JSON reports.

`dispatch` may be called any number of times in one process.  One table,
`_COMMANDS`, holds every command's options.  A well-formed command line --
the exact command words, then each option at most once as ``--opt=value``,
as ``--opt value`` with a value that does not start with ``-``, or as a
bare ``--refine`` -- is read straight from it by `_parse`, through the same
type functions, choices and required options.  Every other command line
(``-h``/``--help``, unknown or abbreviated options, repeats, ``--``, a
separated value starting with ``-`` such as ``--from -3``, a bad value, a
missing option or subcommand) goes to argparse: `build_parser` builds its
parser from the same table, once per process, and argparse is imported
only then, so help and usage errors read as before.  Importing
this module loads only `report` of the package; `dispatch` imports a half
of it, whole, with the first command of that half.  The numerical half
(`mellin_barnes`, `oracle`, `harish_chandra`, with `specfun`) serves
``whittaker``, ``spherical``, ``cfunction`` and ``verify eigen``, whose
``--grid`` type loads `oracle` at parse time; the exact half (`weyl`, `gz`,
`separation`, with `rationals` and `specfun`) serves ``verify qism``,
``verify gz`` and ``verify separation``.  Without a bytecode cache (say,
under PYTHONDONTWRITEBYTECODE) a process compiles every module it imports,
so a one-shot command compiles only its own half, and in a long-running
process only the first command of each half compiles anything: each
module at most once.

Values leave `mellin_barnes` as one record, `QuadratureResult`: a point
evaluator's value and estimate, or `grid_scan`'s arrays with their axes.
This module alone makes output columns: `_run` builds every value table in
one place (`_value_table` for a record, one row per point or sweep step),
and `_value_text` writes them.  Reports use the fixed key set {suite, n,
relation, status, residual, tolerance, seed, witness}.  Exit codes: 0
success, 1 a verification or evaluation failure, 2 usage error.  Every
number is written by repr, which round-trips doubles.  Reports and value
rows each go through one fixed row template (`_emit_reports`,
`_value_text`), which writes what `json` or `csv` would; their JSON rows
share one layout (`_json_row`) and one cell rule (`_json_cell`), while a
value row formats its number columns by %r.  Identical arguments and seed
produce byte-identical output under one BLAS thread configuration: the
matrix products of the N = 3 quadrature sum in an order that depends on
the OpenBLAS thread count.  N = 2 values do not depend on it: a point
takes one-column products, and a sweep multiplies its phase factors in
products whose inner dimension is about sqrt(M).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
import types
from typing import List, Sequence

from .report import VerificationReport, combine


def _type_error(message: str) -> Exception:
    """argparse's ArgumentTypeError, imported only when a value is bad."""
    from argparse import ArgumentTypeError
    return ArgumentTypeError(message)


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise _type_error(f"expected a number: {text!r}")
    if not math.isfinite(v):
        raise _type_error(f"must be finite, got {text!r}")
    return v


def _float_list(text: str) -> List[float]:
    """Comma-separated finite numbers; an empty entry is an error."""
    return [_finite_float(v) for v in text.split(",")]


def _int_at_least(text: str, least: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise _type_error(f"expected an integer: {text!r}")
    if v < least:
        raise _type_error(f"must be at least {least}, got {v}")
    return v


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _positive_float(text: str) -> float:
    v = _finite_float(text)
    if v <= 0:
        raise _type_error(f"must be positive, got {text!r}")
    return v


def _grid_spec(text: str) -> oracle.GridSpec:
    """points:spacing, with an interior node and a finite spacing > 0."""
    from . import oracle
    points_s, colon, spacing_s = text.partition(":")
    if not colon:
        raise _type_error(f"expected points:spacing, got {text!r}")
    points = _int_at_least(points_s, 2 * oracle.BOUNDARY_MARGIN + 1)
    return oracle.GridSpec(points, _positive_float(spacing_s))


# The options, as (flag, `add_argument` keywords); those that several
# commands share are written once here.
_N = ("--n", {"type": _positive_int, "required": True})
_ALPHA = ("--alpha", {"type": _float_list, "required": True})
_X = ("--x", {"type": _float_list, "required": True})
_LAMBDA = ("--lambda", {"dest": "lam", "type": _float_list, "required": True})
_TOL = ("--tol", {"type": _positive_float, "default": 1e-6})
_SEED = ("--seed", {"type": int, "default": 42})
_FORMAT = ("--format", {"choices": ["csv", "json"], "default": "csv"})

# The one option table: command path -> (its help, or None for no entry in
# its group's listing; {flag: keywords} in help order).  `build_parser`
# builds argparse's parser from it and `_parse` reads command lines by it.
_COMMANDS = {
    ("whittaker", "eval"): ("single-point value", dict([
        _N, _ALPHA, _X, _TOL,
        ("--method", {"choices": ["direct", "recursive"], "default": "direct"}),
        _FORMAT])),
    ("whittaker", "grid"): ("sweep one coordinate", dict([
        _N, _ALPHA,
        ("--axis", {"type": int, "required": True}),
        ("--from", {"dest": "start", "type": _finite_float, "required": True}),
        ("--to", {"dest": "stop", "type": _finite_float, "required": True}),
        ("--steps", {"type": _positive_int, "required": True}),
        ("--x", {"type": _float_list, "default": None,
                 "help": "base point for the fixed coordinates"}),
        _TOL,
        ("--out", {"default": None}),
        _FORMAT])),
    ("spherical", "eval"): (None, dict([_N, _LAMBDA, _X, _TOL, _FORMAT])),
    ("cfunction",): ("c-function factors and Plancherel density",
                     dict([_LAMBDA, _FORMAT])),
    ("verify", "qism"): ("exact Lax/monodromy operator identities", dict([_N])),
    ("verify", "separation"): ("separated difference equations and measure", dict([
        _N, ("--trials", {"type": _positive_int, "default": 100}), _SEED])),
    ("verify", "gz"): ("difference-operator representation suite", dict([
        _N, ("--trials", {"type": _positive_int, "default": 20}), _SEED,
        ("--tol", {"type": _positive_float, "default": None})])),
    ("verify", "eigen"): ("coordinate-space eigenvalue residual", dict([
        _N, _ALPHA,
        ("--grid", {"type": _grid_spec, "required": True,
                    "help": "points:spacing, e.g. 64:0.05"}),
        ("--tol", {"type": _positive_float, "default": 1e-3}),
        ("--refine", {"action": "store_true", "default": False})])),
}
_GROUP_HELP = {"whittaker": "wave function evaluation",
               "spherical": "spherical function evaluation",
               "verify": "relation check suites"}


def _parse(argv: List[str]) -> types.SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for a
    well-formed command line: the exact command words, then each option of
    that command at most once, as --opt=value, as --opt value with a value
    that does not start with "-", or as a bare store-true flag.  None for
    every other command line, and wherever a value fails its type or its
    choices or a required option is missing: argparse alone judges those.
    """
    words = 1 if argv[:1] == ["cfunction"] else 2
    found = _COMMANDS.get(tuple(argv[:words]))
    if found is None:
        return None
    opts = found[1]
    ns = {"command": argv[0]}
    if words == 2:
        ns["subcommand"] = argv[1]
    i = words
    while i < len(argv):
        flag, eq, text = argv[i].partition("=")
        kw = opts.get(flag)
        if kw is None:
            return None
        dest = kw.get("dest", flag[2:])
        if dest in ns:                          # a repeat
            return None
        i += 1
        if kw.get("action") == "store_true":
            if eq:
                return None
            ns[dest] = True
            continue
        if not eq:
            if i == len(argv) or argv[i].startswith("-"):
                return None
            text, i = argv[i], i + 1
        # values convert in command-line order, as argparse converts them;
        # whatever a type function raises, argparse calls it again and judges
        try:
            value = kw["type"](text) if "type" in kw else text
        except Exception:
            return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        ns[dest] = value
    for flag, kw in opts.items():
        dest = kw.get("dest", flag[2:])
        if dest not in ns:
            if kw.get("required"):
                return None
            ns[dest] = kw.get("default")
    return types.SimpleNamespace(**ns)


def _json_row(keys, cells, pad: str) -> str:
    """The template of one object row of a JSON list at indent pad, as
    `json.dumps(..., indent=2, sort_keys=True)` lays it out: the sorted
    keys, each with its format cell.  Reports and value rows share it."""
    body = ",\n".join(f"{pad}  {json.dumps(k)}: {c}" for k, c in zip(keys, cells))
    return f"{pad}{{\n{body}\n{pad}}}"


# `_emit_reports`' row: a report's fields in sorted order, in the list of
# the {"reports": [...]} envelope
_REPORT_KEYS = sorted(f.name for f in dataclasses.fields(VerificationReport))
_REPORT_ROW = _json_row(_REPORT_KEYS, ["%s"] * len(_REPORT_KEYS), "    ")


def _json_cell(v) -> str:
    """One JSON cell as `json` writes it: null, an int or a float by repr, a
    string quoted.  A non-finite float raises `json`'s ValueError.  Every
    report field and every string cell of a JSON value row takes it."""
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
        return float.__repr__(v)
    return int.__repr__(v)


def _emit_reports(reports: Sequence[VerificationReport], out) -> int:
    """{"reports": [...], "status": ...} as `json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)` writes it, every report through one
    row template.  A non-finite number raises ValueError before any output."""
    status = combine(reports)
    rows = ",\n".join(_REPORT_ROW % tuple(_json_cell(getattr(r, k)) for k in _REPORT_KEYS)
                       for r in reports)
    body = f"[\n{rows}\n  ]" if reports else "[]"
    out.write(f'{{\n  "reports": {body},\n  "status": {json.dumps(status)}\n}}\n')
    return 0 if status == "PASS" else 1


def _csv_cell(text: str) -> str:
    """A string cell as `csv` quotes it (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def _value_table(x, res) -> dict:
    """The output columns {x1.., re, im, abs, error_estimate} of a record
    (`mellin_barnes.QuadratureResult`), lists of Python floats: one row for
    a point evaluator's value at the point x, or, for a sweep's axes x and
    arrays (`mellin_barnes.grid_scan`), one per value, each x_k broadcast.
    abs is Python's abs(complex): np.abs may differ in the last bit."""
    import numpy as np
    values = np.asarray(res.value).ravel()
    col, table = np.empty(values.shape), {}
    for k, xk in enumerate(x):
        col[...] = xk
        table[f"x{k+1}"] = col.tolist()
    table.update(re=values.real.tolist(), im=values.imag.tolist(),
                 abs=list(map(abs, values.tolist())),
                 error_estimate=np.asarray(res.error_estimate).ravel().tolist())
    return table


def _value_text(table: dict, fmt: str) -> str:
    """The value table {key: column}, at least one row, as JSON rows (keys
    sorted, indent 2) or CSV (CRLF line ends).  Every row goes through one
    template: a number by repr, which round-trips doubles, a string cell as
    `_json_cell` or `csv` quotes it.  A non-finite number raises ValueError
    before any output."""
    keys = sorted(table) if fmt == "json" else list(table)
    cols = [table[k] for k in keys]
    texts = [isinstance(c[0], str) for c in cols]
    if not all(t or all(map(math.isfinite, c)) for t, c in zip(texts, cols)):
        bad = next(v for row in zip(*cols) for t, v in zip(texts, row)
                   if not (t or math.isfinite(v)))
        raise ValueError(f"Out of range float values are not {fmt.upper()} "
                         f"compliant: {bad!r}")
    cells = ["%s" if t else "%r" for t in texts]
    if fmt == "json":
        quote, row = _json_cell, _json_row(keys, cells, "  ")
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        quote, row = _csv_cell, ",".join(cells)
        head, sep, tail = ",".join(keys) + "\r\n", "\r\n", "\r\n"
    cols = [list(map(quote, c)) if t else c for t, c in zip(texts, cols)]
    return head + sep.join(map(row.__mod__, zip(*cols))) + tail


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, for the command lines that
    `_parse` leaves to it: help, usage errors and the forms `_parse` does
    not read.  Built once per process, with argparse imported only then;
    callers must not mutate it.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors exit with code 2 and a one-line message on stderr."""

        def error(self, message):
            self.exit(2, f"{self.prog}: error: {message}\n")

    p = Parser(
        prog="quantoda",
        description="Open Toda lattice wave functions: evaluation and "
                    "verification of their operator identities.")
    sub = p.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (help_text, opts) in _COMMANDS.items():
        listed = {} if help_text is None else {"help": help_text}
        if len(path) == 1:
            leaf = sub.add_parser(path[0], **listed)
        else:
            if path[0] not in groups:
                group = sub.add_parser(path[0], help=_GROUP_HELP[path[0]])
                groups[path[0]] = group.add_subparsers(dest="subcommand",
                                                       required=True)
            leaf = groups[path[0]].add_parser(path[1], **listed)
        for flag, kw in opts.items():
            leaf.add_argument(flag, **kw)
    return p


def dispatch(argv: Sequence[str] | None = None, out=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    out = out or sys.stdout
    try:
        return _run(args, out)
    except (ValueError, RuntimeError, OverflowError, FloatingPointError,
            MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _run(args, out) -> int:
    if args.command == "verify" and args.subcommand != "eigen":
        return _emit_reports(_exact_reports(args), out)
    # the whole numerical half, so that no later command of it compiles a module
    from . import harish_chandra as hc, mellin_barnes as mb, oracle
    if args.command == "verify":     # eigen
        return _emit_reports([oracle.check_eigen(args.n, args.alpha, args.grid,
                                                 tol=args.tol, refine=args.refine)], out)
    # every value table is made here, and written by `_value_text`
    if args.command == "cfunction":
        lam = args.lam
        c = hc.c_function([complex(v) for v in lam])
        table = {"lambda": [",".join(repr(v) for v in lam)],
                 "c_re": [c.real], "c_im": [c.imag],
                 "plancherel_density": [hc.plancherel_density(lam)]}
    elif args.subcommand == "grid":
        if not 0 <= args.axis < args.n:
            build_parser().error(f"argument --axis: must be in [0, {args.n}), "
                                 f"got {args.axis}")
        table = _value_table(*mb.grid_scan(args.n, args.alpha, args.axis, args.start,
                                           args.stop, args.steps, args.x, args.tol))
    else:                            # whittaker eval, spherical eval: one point
        if args.command == "spherical":
            res = mb.spherical_eval(args.n, args.lam, args.x, args.tol)
        else:
            fn = mb.whittaker_eval if args.method == "direct" else mb.whittaker_recursive
            res = fn(args.n, args.alpha, args.x, args.tol)
        table = _value_table(args.x, res)
    text = _value_text(table, args.format)
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _exact_reports(args) -> List[VerificationReport]:
    # the whole exact half, so that no later command of it compiles a module
    from . import gz, separation, weyl
    if args.subcommand == "qism":
        return weyl.qism_suite(args.n)
    if args.subcommand == "separation":
        return separation.separation_suite(args.n, args.trials, args.seed)
    return gz.gz_suite(args.n, args.trials, args.seed, tol=args.tol)   # verify gz


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
