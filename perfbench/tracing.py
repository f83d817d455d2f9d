"""In-memory span tracer installed from outside the package.

`install` replaces module attributes and class attributes of `quantoda` with
timing wrappers, so every caller that looks the name up at call time (module
globals, `mb.whittaker_eval`, `a * b` on a patched class) goes through the
wrapper.  `uninstall` puts the originals back.

Every wrapped call updates per-name aggregates: calls, self seconds (its
duration minus the part covered by wrapped callees) and optional counters.
Calls to names marked `span` are also recorded as spans
(id, name, start, end, parent span id, op id).  Hot leaves such as QI
arithmetic run millions of times per command, so they are aggregated only;
their time still counts as covered time in the enclosing span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

PKG = "quantoda"


# Counters: (aggregate field, amount per call from (args, result)).
_ELEMS = ("elems", lambda args, result: int(np.size(args[0])))
_TERMS_OUT = ("terms_out", lambda args, result: len(result.terms))

# (module, attribute or Class.method or Class.*, record spans, counter)
TARGETS = [
    ("cli", "dispatch", True, None),
    ("cli", "build_parser", True, None),
    ("specfun", "log_gamma_array", True, _ELEMS),
    ("specfun", "log_gamma", False, None),
    ("specfun", "gamma", False, None),
    ("specfun", "gamma_shift_ratio", False, None),
    ("mellin_barnes", "whittaker_eval", True, None),
    ("mellin_barnes", "whittaker_on_grid", True, None),
    ("mellin_barnes", "whittaker_recursive", True, None),
    ("mellin_barnes", "spherical_eval", True, None),
    ("mellin_barnes", "grid_scan", True, None),
    ("mellin_barnes", "default_contour", True, None),
    ("separation", "sep_wavefunction", False, None),
    ("separation", "separation_suite", True, None),
    ("weyl", "qism_suite", True, None),
    ("weyl", "WeylElement.__mul__", False, _TERMS_OUT),
    ("weyl", "UVPoly.__mul__", False, None),
    ("rationals", "QI.*", False, None),
    ("gz", "gz_suite", True, None),
    ("gz", "check_gl_relations", True, None),
    ("gz", "check_serre", True, None),
    ("gz", "DifferenceOperator.__mul__", False, _TERMS_OUT),
    ("gz", "DifferenceOperator.evaluate_on_test", False, None),
    ("harish_chandra", "c_function", True, None),
    ("harish_chandra", "plancherel_density", True, None),
    ("oracle", "check_eigen", True, None),
    ("oracle", "toda_apply", True, None),
]

# QI methods left unwrapped: attribute assignment guard.
_SKIP_METHODS = {"__setattr__"}


class Tracer:
    def __init__(self):
        self.stack = [[0.0, None]]     # frames: [covered seconds, span id]
        self.agg = {}
        self.spans = []
        self.op_id = None
        self._next_id = 0
        self._patches = []

    def wrap(self, name, fn, span, counter):
        agg = self.agg.setdefault(name, {"calls": 0, "s": 0.0})
        if counter is not None:
            field, amount = counter
            agg.setdefault(field, 0)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1]
            if span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[0] += t1 - t0
                agg["calls"] += 1
                agg["s"] += (t1 - t0) - frame[0]
                if span:
                    tracer.spans.append(
                        (sid, name, t0, t1, parent[1], tracer.op_id))
            if counter is not None:
                agg[field] += amount(args, result)
            return result

        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"{PKG}.{m}")
                for m in {t[0] for t in TARGETS}}
        everywhere = [m for name, m in list(sys.modules.items())
                      if name == PKG or name.startswith(PKG + ".")]
        for mod_name, attr, span, counter in TARGETS:
            mod = mods[mod_name]
            if "." not in attr:
                orig = getattr(mod, attr)
                wrapper = self.wrap(f"{mod_name}.{attr}", orig, span, counter)
                for m in everywhere:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapper)
                continue
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            snapshot = dict(vars(cls))
            names = ([k for k, v in snapshot.items()
                      if inspect.isfunction(v) and k not in _SKIP_METHODS]
                     if meth == "*" else [meth])
            done = set()
            for key in names:
                orig = snapshot[key]
                if id(orig) in done:
                    continue
                done.add(id(orig))
                wrapper = self.wrap(f"{mod_name}.{cls_name}.{key}", orig,
                                    span, counter)
                # aliases such as __rmul__ = __mul__ share one wrapper
                for alias, val in snapshot.items():
                    if val is orig:
                        self._patch(cls, alias, wrapper)

    def _patch(self, obj, key, new):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def uninstall(self):
        while self._patches:
            obj, key, orig = self._patches.pop()
            setattr(obj, key, orig)

    # -- derived figures --------------------------------------------------

    def get(self, name, field="calls"):
        return self.agg.get(name, {}).get(field, 0)

    def self_seconds(self, prefix):
        return sum(a["s"] for n, a in self.agg.items() if n.startswith(prefix))

    def span_rows(self):
        return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "op": s[5]} for s in self.spans]
