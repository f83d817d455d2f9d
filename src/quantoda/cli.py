"""Command line interface.

Subcommands:

* ``whittaker eval`` / ``whittaker grid`` -- contour-integral wave function
  values and coordinate sweeps (direct or recursive method).
* ``spherical eval`` -- spherical-kernel integral values.
* ``cfunction`` -- Gamma-product c-function factors and Plancherel density.
* ``verify {qism, separation, gz, eigen}`` -- the exact and numerical
  relation suites, as JSON reports.

`dispatch` may be called any number of times in one process: every call
parses with the one parser that `build_parser` builds and caches.

Reports use the fixed key set {suite, n, relation, status, residual,
tolerance, seed, witness}.  Exit codes: 0 success, 1 a verification or
evaluation failure, 2 usage error.  Identical arguments and seed produce
byte-identical output (floats normalized to 17 significant digits) under
one BLAS thread configuration: the N = 3 quadrature's matrix products sum
in an order that depends on the OpenBLAS thread count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import List, Sequence

from . import gz, harish_chandra as hc, mellin_barnes as mb, oracle, separation, weyl
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
    points_s, colon, spacing_s = text.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError(f"expected points:spacing, got {text!r}")
    points = _int_at_least(points_s, 2 * oracle.BOUNDARY_MARGIN + 1)
    return oracle.GridSpec(points, _positive_float(spacing_s))


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with code 2 and a one-line message on stderr."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _norm(x):
    """Round-trip floats through 17 significant digits for stable output."""
    if isinstance(x, float):
        return float(f"{x:.17g}")
    if isinstance(x, complex):
        return {"re": _norm(x.real), "im": _norm(x.imag)}
    if isinstance(x, dict):
        return {k: _norm(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_norm(v) for v in x]
    return x


def _json_text(payload) -> str:
    """Strict JSON: a non-finite number raises ValueError before any output."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit_reports(reports: Sequence[VerificationReport], out) -> int:
    payload = {"reports": [_norm(r.to_dict()) for r in reports],
               "status": combine(reports)}
    out.write(_json_text(payload))
    return 0 if combine(reports) == "PASS" else 1


def _csv_number(v: float) -> str:
    if not math.isfinite(v):    # as strict as JSON
        raise ValueError(f"Out of range float values are not CSV compliant: {v!r}")
    return repr(v)


def _value_text(rows: Sequence[dict], fmt: str) -> str:
    """Rows as JSON or CSV; either raises ValueError before any output on a
    non-finite number."""
    rows = [_norm(r) for r in rows]
    if fmt == "json":
        return _json_text(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows({k: _csv_number(v) if isinstance(v, float) else v
                      for k, v in r.items()} for r in rows)
    return buf.getvalue()


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
    except (ValueError, RuntimeError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def _run(args, parser, out) -> int:
    if args.command == "whittaker" and args.subcommand == "eval":
        fn = mb.whittaker_eval if args.method == "direct" else mb.whittaker_recursive
        res = fn(args.n, args.alpha, args.x, args.tol)
        out.write(_value_text([mb.value_row(res, args.x)], args.format))
        return 0
    if args.command == "whittaker" and args.subcommand == "grid":
        if not 0 <= args.axis < args.n:
            parser.error(f"argument --axis: must be in [0, {args.n}), "
                         f"got {args.axis}")
        rows = mb.grid_scan("whittaker", args.n, args.alpha, args.axis,
                            args.start, args.stop, args.steps,
                            x_base=args.x, tol=args.tol)
        text = _value_text(rows, args.format)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            out.write(text)
        return 0
    if args.command == "spherical":
        res = mb.spherical_eval(args.n, args.lam, args.x, args.tol)
        out.write(_value_text([mb.value_row(res, args.x)], args.format))
        return 0
    if args.command == "cfunction":
        lam = args.lam
        c = hc.c_function([complex(v) for v in lam])
        row = {"lambda": ",".join(repr(v) for v in lam),
               "c_re": c.real, "c_im": c.imag,
               "plancherel_density": hc.plancherel_density(lam)}
        out.write(_value_text([row], args.format))
        return 0
    if args.command == "verify":
        return _emit_reports(_verify_reports(args), out)
    parser.error(f"unknown command {args.command}")


def _verify_reports(args) -> List[VerificationReport]:
    if args.subcommand == "qism":
        return weyl.qism_suite(args.n)
    if args.subcommand == "separation":
        return separation.separation_suite(args.n, args.trials, args.seed)
    if args.subcommand == "gz":
        return gz.gz_suite(args.n, args.trials, args.seed, tol=args.tol)
    if args.subcommand == "eigen":
        return [oracle.check_eigen(args.n, args.alpha, args.grid,
                                   tol=args.tol, refine=args.refine)]
    raise ValueError(f"unknown verify target {args.subcommand}")


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
