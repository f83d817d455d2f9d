"""Output checks for the benchmark's CLI commands.

Each check turns (op, exit code, stdout text) into a verdict.  Reference
values are computed lazily, outside the timed section, and kept in a
`RefCache` keyed by argv, which can persist them to disk per seed.

References:

* N=2 Whittaker values: the closed form
  psi = 2 e^{i sigma1 (x1+x2)/2} K_{i(a1-a2)}(2 e^{(x1-x2)/2}) from mpmath,
  independent of the quadrature.
* N=3 Whittaker values: the finite-difference open Toda residual
  (-1/2 Laplacian + sum_k e^{x_k - x_{k+1}} - E) psi on a 3-point-per-axis
  stencil around x, built from `whittaker_on_grid` at tol 1e-12 and
  normalised by the sum of the three terms' moduli, plus agreement of the
  command's value with the stencil centre.  The residual does not trust the
  quadrature; the centre comparison does.
* Recursive and spherical values: a tol-1e-12 direct evaluation by the same
  package.  This reference is NOT independent of the quadrature: it catches
  a route or a tolerance that disagrees with the direct sum, not an error
  shared by both.
* cfunction: the Gamma product over positive roots, evaluated by mpmath.
* verify commands: exact report key set, every status PASS.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, List, Optional, Tuple

import mpmath
import numpy as np

REF_TOL = 1e-12
VALUE_RTOL_FACTOR = 10.0   # accept |v - ref| <= 10 * tol * |ref|
FD_H = 0.02                # stencil spacing for single-point N=3 checks
FD_MAX = 0.1               # normalised Toda residual accepted as correct
CFUNCTION_RTOL = 1e-10
# Whittaker values in the decay region, sum_k e^{(x_k - x_{k+1})/2} >=
# e^{d/2} (for N=2: x1 - x2 >= d), come back from the default contour with
# too few correct digits.  The threshold d follows the failures seen at the
# parent commit: direct evaluations failed only beyond an effective
# difference of 4.3, the recursive route already at 3.58 (1.03e-7 at tol
# 1e-8 with differences 3.51 and -3.02).  Rejections there are still counted
# as wrong values; they only leave `correct` true.
DECAY_DIFF = {"whittaker_eval": 4.0, "whittaker_recursive": 3.0}

REPORT_KEYS = {"suite", "n", "relation", "status", "residual", "tolerance",
               "seed", "witness"}

OK, WRONG, BAD_OUTPUT, BAD_EXIT, RAISED = (
    "ok", "wrong_value", "bad_output", "bad_exit", "raised")


def parse_args(argv) -> Dict[str, str]:
    """--key=value options of an argv (bare flags map to '')."""
    out = {}
    for tok in argv:
        if tok.startswith("--"):
            key, _, val = tok[2:].partition("=")
            out[key] = val
    return out


def floats(text: str) -> List[float]:
    return [float(v) for v in text.split(",")]


def parse_rows(text: str, fmt: str) -> List[dict]:
    if fmt == "json":
        rows = json.loads(text)
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for r in rows:
        row = {}
        for k, v in r.items():
            try:
                row[k] = float(v)
            except (TypeError, ValueError):
                row[k] = v
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def closed_form_n2(alpha, x) -> complex:
    s1 = alpha[0] + alpha[1]
    with mpmath.workdps(25):
        k = mpmath.besselk(1j * (alpha[0] - alpha[1]),
                           2 * mpmath.exp((x[0] - x[1]) / 2))
        val = 2 * mpmath.expj(s1 * (x[0] + x[1]) / 2) * k
    return complex(val)


def c_function_ref(lam) -> complex:
    out = mpmath.mpc(1)
    with mpmath.workdps(25):
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                la = (lam[i] - lam[j]) / 2
                out *= (mpmath.gamma(la) * mpmath.sqrt(mpmath.pi)
                        / mpmath.gamma(la + 0.5))
    return complex(out)


def _toda_residual(g, centre, h, x, alpha) -> float:
    """Normalised residual of the Toda eigen equation at `centre` of g."""
    c = g[centre]
    lap = -2.0 * len(centre) * c
    for k in range(len(centre)):
        for step in (-1, 1):
            idx = list(centre)
            idx[k] += step
            lap += g[tuple(idx)]
    lap /= h * h
    pot = sum(math.exp(x[k] - x[k + 1]) for k in range(len(x) - 1))
    energy = 0.5 * sum(a * a for a in alpha)
    terms = (-0.5 * lap, pot * c, -energy * c)
    return abs(sum(terms)) / sum(abs(t) for t in terms)


def fd_reference_n3(mb, alpha, x) -> Tuple[complex, float]:
    """(stencil centre value, normalised residual) around one point."""
    axes = [np.array([xk - FD_H, xk, xk + FD_H]) for xk in x]
    g = mb.whittaker_on_grid(3, alpha, axes, tol=REF_TOL)
    return complex(g[1, 1, 1]), _toda_residual(g, (1, 1, 1), FD_H, x, alpha)


def fd_reference_sweep_n3(mb, alpha, x_base, axis, sweep):
    """Per-row (centre, residual) for an N=3 sweep, from one tensor grid whose
    stencil spacing equals the sweep step."""
    h = float(sweep[1] - sweep[0])
    axes = []
    for k in range(3):
        if k == axis:
            axes.append(np.concatenate(([sweep[0] - h], sweep, [sweep[-1] + h])))
        else:
            axes.append(np.array([x_base[k] - h, x_base[k], x_base[k] + h]))
    g = mb.whittaker_on_grid(3, alpha, axes, tol=REF_TOL)
    out = []
    for i, xv in enumerate(sweep):
        centre = [1, 1, 1]
        centre[axis] = i + 1
        centre = tuple(centre)
        out.append((complex(g[centre]), _toda_residual(
            g, centre, h, _with(x_base, axis, xv), alpha)))
    return out


class RefCache:
    """Reference values keyed by argv; optionally backed by a JSON file."""

    def __init__(self, path=None):
        self.path = path
        self.data: Dict[str, list] = {}
        self.dirty = False
        if path is not None and path.exists():
            try:
                self.data = json.loads(path.read_text())
            except (OSError, ValueError):
                self.data = {}

    def get(self, argv, compute):
        key = "\x1f".join(argv)
        if key not in self.data:
            self.data[key] = _encode(compute())
            self.dirty = True
        return _decode(self.data[key])

    def save(self):
        if self.path is not None and self.dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data))
            tmp.replace(self.path)
            self.dirty = False


def _encode(obj):
    if isinstance(obj, complex):
        return {"c": [obj.real, obj.imag]}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    return obj


def _decode(obj):
    if isinstance(obj, dict) and "c" in obj:
        return complex(*obj["c"])
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _rel_ok(v: complex, ref: complex, tol: float) -> bool:
    return abs(v - ref) <= VALUE_RTOL_FACTOR * tol * abs(ref)


def _row_value(row) -> complex:
    return complex(row["re"], row["im"])


def in_decay_region(op) -> bool:
    """Whittaker value command whose point lies in the decay region."""
    if op.kind not in DECAY_DIFF:
        return False
    x = floats(parse_args(op.argv)["x"])
    reach = sum(math.exp((x[k] - x[k + 1]) / 2) for k in range(len(x) - 1))
    return reach >= math.exp(DECAY_DIFF[op.kind] / 2)


def check(op, rc: Optional[int], text: str, mb, cache: RefCache) -> Tuple[str, str]:
    """Verdict and a short reason for one executed command."""
    if rc is None:
        return RAISED, text
    if rc != 0:
        return BAD_EXIT, f"exit code {rc}"
    args = parse_args(op.argv)
    try:
        if op.kind.startswith("verify_"):
            return _check_reports(op, text)
        rows = parse_rows(text, args.get("format", "csv"))
        if op.kind == "cfunction":
            return _check_cfunction(args, rows)
        if op.kind == "whittaker_grid":
            return _check_sweep(op, args, rows, mb, cache)
        return _check_value(op, args, rows, mb, cache)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return BAD_OUTPUT, f"{type(exc).__name__}: {exc}"


def _check_value(op, args, rows, mb, cache):
    if len(rows) != 1:
        return BAD_OUTPUT, f"{len(rows)} rows"
    n, tol, x = op.n, float(args["tol"]), floats(args["x"])
    params = floats(args["lambda"] if op.kind == "spherical_eval" else args["alpha"])
    v = _row_value(rows[0])
    if op.kind == "spherical_eval":
        ref = cache.get(op.argv, lambda: mb.spherical_eval(n, params, x, REF_TOL).value)
    elif n == 2 and op.kind == "whittaker_eval":
        ref = cache.get(op.argv, lambda: closed_form_n2(params, x))
    elif op.kind == "whittaker_recursive":
        ref = cache.get(op.argv, lambda: mb.whittaker_eval(n, params, x, REF_TOL).value)
    else:
        ref, resid = cache.get(op.argv, lambda: fd_reference_n3(mb, params, x))
        if resid > FD_MAX:
            return WRONG, f"Toda residual {resid:.2e} > {FD_MAX}"
    if not _rel_ok(v, ref, tol):
        return WRONG, f"relative error {abs(v - ref) / abs(ref):.2e} > {VALUE_RTOL_FACTOR}*tol"
    return OK, ""


def _check_cfunction(args, rows):
    lam = floats(args["lambda"])
    if len(rows) != 1:
        return BAD_OUTPUT, f"{len(rows)} rows"
    row = rows[0]
    c = c_function_ref(lam)
    density = 1.0 / abs(c_function_ref([1j * v for v in lam])) ** 2
    got_c = complex(row["c_re"], row["c_im"])
    if abs(got_c - c) > CFUNCTION_RTOL * abs(c):
        return WRONG, "c-function mismatch"
    if abs(row["plancherel_density"] - density) > CFUNCTION_RTOL * density:
        return WRONG, "Plancherel density mismatch"
    return OK, ""


def _check_sweep(op, args, rows, mb, cache):
    n, tol = op.n, float(args["tol"])
    alpha, axis = floats(args["alpha"]), int(args["axis"])
    x_base = floats(args["x"])
    sweep = np.linspace(float(args["from"]), float(args["to"]), int(args["steps"]))
    if len(rows) != len(sweep):
        return BAD_OUTPUT, f"{len(rows)} rows, expected {len(sweep)}"
    if n == 2:
        refs = cache.get(op.argv, lambda: [
            closed_form_n2(alpha, _with(x_base, axis, xv)) for xv in sweep])
        resids = [0.0] * len(sweep)
    else:
        pairs = cache.get(op.argv, lambda: fd_reference_sweep_n3(
            mb, alpha, x_base, axis, sweep))
        refs = [p[0] for p in pairs]
        resids = [p[1] for p in pairs]
    for i, (row, xv) in enumerate(zip(rows, sweep)):
        if abs(row[f"x{axis + 1}"] - xv) > 1e-9:
            return BAD_OUTPUT, f"row {i}: coordinate {row[f'x{axis + 1}']} != {xv}"
        if resids[i] > FD_MAX:
            return WRONG, f"row {i}: Toda residual {resids[i]:.2e} > {FD_MAX}"
        if not _rel_ok(_row_value(row), refs[i], tol):
            return WRONG, f"row {i}: relative error above {VALUE_RTOL_FACTOR}*tol"
    return OK, ""


def _with(x, axis, xv):
    x = list(x)
    x[axis] = float(xv)
    return x


def _check_reports(op, text):
    payload = json.loads(text)
    if set(payload) != {"reports", "status"}:
        return BAD_OUTPUT, f"payload keys {sorted(payload)}"
    reports = payload["reports"]
    if not reports:
        return BAD_OUTPUT, "no reports"
    suite = op.kind[len("verify_"):]
    for r in reports:
        if set(r) != REPORT_KEYS:
            return BAD_OUTPUT, f"report keys {sorted(r)}"
        if r["suite"] != suite or r["n"] != op.n:
            return BAD_OUTPUT, f"report for {r['suite']} n={r['n']}"
        if r["status"] != "PASS":
            return WRONG, f"{r['relation']}: {r['status']}"
    if payload["status"] != "PASS":
        return WRONG, f"overall status {payload['status']}"
    return OK, ""
