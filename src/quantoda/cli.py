"""Command line interface.

Subcommands:

* ``whittaker eval`` / ``whittaker grid`` -- contour-integral wave function
  values and coordinate sweeps (direct or recursive method).
* ``spherical eval`` -- spherical-kernel integral values.
* ``cfunction`` -- Gamma-product c-function factors and Plancherel density.
* ``verify {qism, separation, gz, eigen}`` -- the exact and numerical
  relation suites, as JSON reports.

`dispatch` may be called any number of times in one process: every call
parses with the one parser that `build_parser` builds and caches.  Importing
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

Reports use the fixed key set {suite, n, relation, status, residual,
tolerance, seed, witness}.  Exit codes: 0 success, 1 a verification or
evaluation failure, 2 usage error.  Every number is written by repr, which
round-trips doubles.  Identical arguments and seed produce byte-identical
output under one BLAS thread configuration: the matrix products of the
N = 3 quadrature and of N = 2 sweeps sum in an order that depends on the
OpenBLAS thread count.  An N = 2 point value takes one-column products and
does not depend on it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Sequence

from .report import VerificationReport, combine


def _finite_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number: {text!r}")
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _float_list(text: str) -> List[float]:
    """Comma-separated finite numbers; an empty entry is an error."""
    return [_finite_float(v) for v in text.split(",")]


def _int_at_least(text: str, least: int) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer: {text!r}")
    if v < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}, got {v}")
    return v


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _positive_float(text: str) -> float:
    v = _finite_float(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return v


def _grid_spec(text: str) -> oracle.GridSpec:
    """points:spacing, with an interior node and a finite spacing > 0."""
    from . import oracle
    points_s, colon, spacing_s = text.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"expected points:spacing, got {text!r}")
    points = _int_at_least(points_s, 2 * oracle.BOUNDARY_MARGIN + 1)
    return oracle.GridSpec(points, _positive_float(spacing_s))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 2 and a one-line message on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _emit_reports(reports: Sequence[VerificationReport], out) -> int:
    """Strict JSON: a non-finite number raises ValueError before any output."""
    payload = {"reports": [r.to_dict() for r in reports], "status": combine(reports)}
    out.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0 if combine(reports) == "PASS" else 1


def _csv_cell(text: str) -> str:
    """A string cell as `csv` quotes it (minimal quoting)."""
    if any(c in text for c in ',"\r\n'):
        return '"%s"' % text.replace('"', '""')
    return text


def _value_text(table: dict, fmt: str) -> str:
    """The value table {key: column}, at least one row, as JSON rows (keys
    sorted, indent 2) or CSV (CRLF line ends).  Every row goes through one
    template: a number by repr, which round-trips doubles, a string cell as
    `json` or `csv` quotes it.  A non-finite number raises ValueError before
    any output."""
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
        quote = json.dumps
        row = "  {\n%s\n  }" % ",\n".join(f"    {json.dumps(k)}: {c}"
                                           for k, c in zip(keys, cells))
        head, sep, tail = "[\n", ",\n", "\n]\n"
    else:
        quote, row = _csv_cell, ",".join(cells)
        head, sep, tail = ",".join(keys) + "\r\n", "\r\n", "\r\n"
    cols = [list(map(quote, c)) if t else c for t, c in zip(texts, cols)]
    return head + sep.join(map(row.__mod__, zip(*cols))) + tail


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every call.

    It depends on no argument, output stream or setting, so one instance
    serves all `dispatch` calls.  Callers must not mutate it.
    """
    p = _Parser(
        prog="quantoda",
        description="Open Toda lattice wave functions: evaluation and "
                    "verification of their operator identities.")
    sub = p.add_subparsers(dest="command", required=True)

    wh = sub.add_parser("whittaker", help="wave function evaluation")
    whsub = wh.add_subparsers(dest="subcommand", required=True)
    we = whsub.add_parser("eval", help="single-point value")
    we.add_argument("--n", type=_positive_int, required=True)
    we.add_argument("--alpha", type=_float_list, required=True)
    we.add_argument("--x", type=_float_list, required=True)
    we.add_argument("--tol", type=_positive_float, default=1e-6)
    we.add_argument("--method", choices=["direct", "recursive"], default="direct")
    we.add_argument("--format", choices=["csv", "json"], default="csv")

    wg = whsub.add_parser("grid", help="sweep one coordinate")
    wg.add_argument("--n", type=_positive_int, required=True)
    wg.add_argument("--alpha", type=_float_list, required=True)
    wg.add_argument("--axis", type=int, required=True)
    wg.add_argument("--from", dest="start", type=_finite_float, required=True)
    wg.add_argument("--to", dest="stop", type=_finite_float, required=True)
    wg.add_argument("--steps", type=_positive_int, required=True)
    wg.add_argument("--x", type=_float_list, default=None,
                    help="base point for the fixed coordinates")
    wg.add_argument("--tol", type=_positive_float, default=1e-6)
    wg.add_argument("--out", default=None)
    wg.add_argument("--format", choices=["csv", "json"], default="csv")

    sp = sub.add_parser("spherical", help="spherical function evaluation")
    spsub = sp.add_subparsers(dest="subcommand", required=True)
    se = spsub.add_parser("eval")
    se.add_argument("--n", type=_positive_int, required=True)
    se.add_argument("--lambda", dest="lam", type=_float_list, required=True)
    se.add_argument("--x", type=_float_list, required=True)
    se.add_argument("--tol", type=_positive_float, default=1e-6)
    se.add_argument("--format", choices=["csv", "json"], default="csv")

    cf = sub.add_parser("cfunction",
                        help="c-function factors and Plancherel density")
    cf.add_argument("--lambda", dest="lam", type=_float_list, required=True)
    cf.add_argument("--format", choices=["csv", "json"], default="csv")

    ver = sub.add_parser("verify", help="relation check suites")
    vsub = ver.add_subparsers(dest="subcommand", required=True)

    vq = vsub.add_parser("qism", help="exact Lax/monodromy operator identities")
    vq.add_argument("--n", type=_positive_int, required=True)

    vs = vsub.add_parser("separation",
                         help="separated difference equations and measure")
    vs.add_argument("--n", type=_positive_int, required=True)
    vs.add_argument("--trials", type=_positive_int, default=100)
    vs.add_argument("--seed", type=int, default=42)

    vg = vsub.add_parser("gz", help="difference-operator representation suite")
    vg.add_argument("--n", type=_positive_int, required=True)
    vg.add_argument("--trials", type=_positive_int, default=20)
    vg.add_argument("--seed", type=int, default=42)
    vg.add_argument("--tol", type=_positive_float, default=None)

    vei = vsub.add_parser("eigen", help="coordinate-space eigenvalue residual")
    vei.add_argument("--n", type=_positive_int, required=True)
    vei.add_argument("--alpha", type=_float_list, required=True)
    vei.add_argument("--grid", type=_grid_spec, required=True,
                     help="points:spacing, e.g. 64:0.05")
    vei.add_argument("--tol", type=_positive_float, default=1e-3)
    vei.add_argument("--refine", action="store_true")
    return p


def dispatch(argv: Sequence[str] | None = None, out=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        return _run(args, parser, out)
    except (ValueError, RuntimeError, OverflowError, FloatingPointError,
            MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _run(args, parser, out) -> int:
    if args.command == "verify" and args.subcommand != "eigen":
        return _emit_reports(_exact_reports(args), out)
    # the whole numerical half, so that no later command of it compiles a module
    from . import harish_chandra as hc, mellin_barnes as mb, oracle
    if args.command == "whittaker" and args.subcommand == "eval":
        fn = mb.whittaker_eval if args.method == "direct" else mb.whittaker_recursive
        res = fn(args.n, args.alpha, args.x, args.tol)
        out.write(_value_text(mb.value_row(res, args.x), args.format))
        return 0
    if args.command == "whittaker" and args.subcommand == "grid":
        if not 0 <= args.axis < args.n:
            parser.error(f"argument --axis: must be in [0, {args.n}), "
                         f"got {args.axis}")
        table = mb.grid_scan(args.n, args.alpha, args.axis, args.start,
                             args.stop, args.steps, x_base=args.x, tol=args.tol)
        text = _value_text(table, args.format)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            out.write(text)
        return 0
    if args.command == "spherical":
        res = mb.spherical_eval(args.n, args.lam, args.x, args.tol)
        out.write(_value_text(mb.value_row(res, args.x), args.format))
        return 0
    if args.command == "cfunction":
        lam = args.lam
        c = hc.c_function([complex(v) for v in lam])
        table = {"lambda": [",".join(repr(v) for v in lam)],
                 "c_re": [c.real], "c_im": [c.imag],
                 "plancherel_density": [hc.plancherel_density(lam)]}
        out.write(_value_text(table, args.format))
        return 0
    # verify eigen: the required subparsers admit no other command
    return _emit_reports([oracle.check_eigen(args.n, args.alpha, args.grid,
                                             tol=args.tol, refine=args.refine)], out)


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
