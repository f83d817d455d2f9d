"""quantoda benchmark: closed-loop CLI workloads with oracle-checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload points|sweeps|exact --seed N \
        --seconds S --trace 0|1

One client in one process calls `quantoda.cli.dispatch(argv, out=buffer)`
on a seeded list of commands, one after another.  Outputs are checked
against the oracles in `oracles.py` after the timed loop.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 the same
commands run once untraced and once under the tracer of `tracing.py`, and
the last line carries the per-layer metrics.  Spans and aggregates are
written to .bench_out/ at the repository root.  Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up probes taken before the timed loop and again after the output
# checks, so that they span the whole run rather than a few seconds of a
# host whose speed drifts.
SETUP_PROBES = 4
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pin_to_one_cpu() -> None:
    """Keep the client, its probes and its set-up processes on one CPU.  On
    a shared host the CPUs' speeds drift independently, so a probe taken on
    another CPU than the command says little about the command's speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _single_thread() -> None:
    """One client, one thread: pin the BLAS/OpenMP pools (inherited by the
    set-up probes).  On a shared host a second BLAS thread adds more
    run-to-run noise than speed at these matrix sizes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


def run_ops(cli, ops, tracer=None, probe=None, trace_ids=None):
    """Execute ops one after another.

    Returns (records, wall seconds, slowdowns).  A record is (exit code or
    None if it raised, stdout text, seconds).  With `probe`, the host-speed
    probe runs before the first op, after each op and on its timer, and
    `slowdowns` gives the host slowdown around each op; an op's seconds
    exclude the probe time inside it.  With `tracer`, op i runs with the
    tracer installed and its spans carry op id trace_ids[i] (i itself
    without `trace_ids`), unless that id is None.
    """
    records, spans = [], []
    if probe is not None:
        probe.reset()
        probe()
        probe.start()
    start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            tid = i if trace_ids is None else trace_ids[i]
            traced = tracer is not None and tid is not None
            if traced:
                tracer.op_id = tid
                tracer.install()
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                rc = cli.dispatch(list(op.argv), out=buf)
                text = buf.getvalue()
            except SystemExit as exc:          # argparse usage error
                rc, text = exc.code, buf.getvalue()
            except Exception as exc:           # counted as a failed command
                rc, text = None, f"{type(exc).__name__}: {exc}"
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall()
            records.append((rc, text, t1 - t0))
            spans.append((t0, t1))
            if probe is not None:
                probe()
    finally:
        if probe is not None:
            probe.stop()
    wall = time.perf_counter() - start
    if probe is None:
        return records, wall, None
    records = [(rc, text, s - probe.time_inside(t0, t1))
               for (rc, text, s), (t0, t1) in zip(records, spans)]
    return records, wall, [probe.slowdown(t0, t1) for t0, t1 in spans]


def measure_setup(warmup, count, probe) -> list:
    """(raw, host-normalised) seconds to import the CLI and finish one
    warm-up call, in fresh processes started one at a time.

    Each sample is divided by the host slowdown that `probe`, a pure-Python
    probe, reads just before and just after it.  Set-up is imports and
    Python code, and the client is pinned to one CPU, so the probe runs
    where the set-up runs."""
    out = []
    for _ in range(count):
        before = probe()[1]
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *warmup],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        after = probe()[1]
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if res["rc"] != 0:
            raise RuntimeError(f"set-up warm-up call exited {res['rc']}")
        slow = (before + after) / 2 / probe.reference_s
        out.append((res["setup_s"], res["setup_s"] / slow))
    return out


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail_rank(n):
    """(percentile, 0-based rank, samples beyond) of the highest ladder
    percentile with at least TAIL_MIN_BEYOND of n samples above it."""
    for p in TAIL_LADDER:
        k = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - k >= TAIL_MIN_BEYOND:
            return p, k, n - 1 - k
    return 100.0, n - 1, 0


def tail_latency(lat):
    """(percentile, value, samples beyond), nearest rank."""
    pct, k, beyond = tail_rank(len(lat))
    return pct, sorted(lat)[k], beyond


def normalised_total(records, slow):
    return sum(r[2] / f for r, f in zip(records, slow))


def summarize(ops, records, verdicts, slow):
    """End-to-end figures; latencies are divided by the host slowdown of
    each command, and the raw figures are kept for the printout."""
    raw = [r[2] for r in records]
    lat = [t / f for t, f in zip(raw, slow)]
    n = len(ops)
    failed = sum(v != "ok" for v, _ in verdicts)
    wrong = sum(v == "wrong_value" for v, _ in verdicts)
    delivered = sum(op.values for op, r in zip(ops, records) if r[0] == 0)
    pct, tail, beyond = tail_latency(lat)
    total = sum(lat)
    return {
        "ops_per_s": n / total,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "latency_tail.percentile": pct,
        "latency_tail.samples_beyond": beyond,
        "values_per_s": delivered / total,
        "fail_frac": failed / n,
        "wrong_value_frac": wrong / n,
        "failed": failed,
        "wrong": wrong,
        "total_s": total,
        "raw_ops_per_s": n / sum(raw),
        "raw_latency_p50_ms": statistics.median(raw) * 1e3,
        "host_slowdown": statistics.median(slow),
    }


def layer_metrics(tr, ops, records, base_s, traced_s):
    g = tr.get
    evals = sum(g(f"mellin_barnes.{f}") for f in (
        "whittaker_eval", "whittaker_on_grid", "whittaker_recursive",
        "spherical_eval"))
    delivered = sum(op.values for op, r in zip(ops, records) if r[0] == 0)
    lga_s = g("specfun.log_gamma_array", "s")
    m = {
        "cli.self_s": tr.self_seconds("cli."),
        "specfun.log_gamma_array.elems_per_s":
            g("specfun.log_gamma_array", "elems") / lga_s if lga_s else 0.0,
        "mellin_barnes.self_s": tr.self_seconds("mellin_barnes."),
        "mellin_barnes.values_per_eval_call": delivered / evals if evals else 0.0,
        "rationals.QI.s": tr.self_seconds("rationals.QI."),
        "trace.overhead_frac": traced_s / base_s - 1.0,
    }
    for name, agg in tr.agg.items():
        for field, val in agg.items():
            m[f"{name}.{field}"] = val
    return m


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def openblas_threads():
    """Thread pool size of the OpenBLAS that numpy loaded, or None when
    numpy carries no bundled scipy-openblas to ask."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def environment(nproc):
    import mpmath
    import numpy
    import scipy
    sha = "unknown"
    try:
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": nproc,
        "openblas_threads": openblas_threads(),
        "machine": platform.machine(),
    }


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")) + [HERE / "oracles.py"]:
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def check_all(oracles, mb, ops, records, cache):
    return [oracles.check(op, rc, text, mb, cache)
            for op, (rc, text, _) in zip(ops, records)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quantoda" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = _nproc()
    _single_thread()
    _pin_to_one_cpu()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import calibrate
    from quantoda import cli, mellin_barnes as mb
    if Path(cli.__file__).resolve().parent != (SRC / "quantoda").resolve():
        print(f"error: imported quantoda from {cli.__file__}", file=sys.stderr)
        return 2
    import oracles
    import tracing

    env = environment(nproc)
    # The traced run measures one round: per-layer counts depend only on the
    # seed, and the untraced and traced passes together stay short.
    rounds = 1 if args.trace else workloads.rounds_for(args.workload, args.seconds)
    ops = [op for rnd in workloads.generate(args.workload, args.seed, rounds)
           for op in rnd]
    warmup = workloads.WARMUP[args.workload]
    probe = calibrate.Probe(calibrate.WORKLOAD_PARTS[args.workload])
    probe()                                # warm the probe's own code paths
    setup_probe = calibrate.Probe(("python",))
    setup_probe()
    setup = [] if args.trace else measure_setup(warmup, SETUP_PROBES, setup_probe)

    cli.dispatch(list(warmup), out=io.StringIO())
    if args.trace:
        # Every op runs three times, back to back: untraced (the record the
        # untraced figures use), then traced and untraced again, in an order
        # that alternates from op to op.  The first run of an op is slower
        # than the later ones, so trace.overhead_frac compares the later
        # two, which also see the same host speed.
        tr = tracing.Tracer()
        roles = []
        for i in range(len(ops)):
            later = ["traced", "warm"] if i % 2 == 0 else ["warm", "traced"]
            roles += [("plain", i)] + [(r, i) for r in later]
        runs, wall, run_slow = run_ops(
            cli, [ops[i] for _, i in roles], tracer=tr, probe=probe,
            trace_ids=[i if r == "traced" else None for r, i in roles])

        def pick(role, xs):
            return [x for (r, _), x in zip(roles, xs) if r == role]
        records, traced, warm = (pick(r, runs) for r in ("plain", "traced", "warm"))
        slow, traced_slow, warm_slow = (
            pick(r, run_slow) for r in ("plain", "traced", "warm"))
    else:
        records, wall, slow = run_ops(cli, ops, probe=probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    cache = oracles.RefCache(
        OUT_DIR / "cache" / f"{args.workload}-seed{args.seed}-{src_digest()}.json")
    verdicts = check_all(oracles, mb, ops, records, cache)
    cache.save()
    summ = summarize(ops, records, verdicts, slow)
    correct = all(v == oracles.OK or (v == oracles.WRONG
                                      and oracles.in_decay_region(op))
                  for op, (v, _) in zip(ops, verdicts))

    metrics = dict(summ)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"ops-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"probes": probe.samples, "ops": [
            {"kind": op.kind, "n": op.n, "argv": op.argv, "rc": r[0], "seconds": r[2],
             "slowdown": f, "verdict": v[0], "why": v[1]}
            for op, r, v, f in zip(ops, records, verdicts, slow)]}))
    if args.trace:
        traced_verdicts = check_all(oracles, mb, ops, traced, cache)
        if [v for v, _ in traced_verdicts] != [v for v, _ in verdicts]:
            print("trace: verdicts differ between traced and untraced runs")
            correct = False
        metrics.update(layer_metrics(
            tr, ops, traced, normalised_total(warm, warm_slow),
            normalised_total(traced, traced_slow)))
        # the percentile latency_tail_ms uses in the untraced run
        full = workloads.rounds_for(args.workload, args.seconds) * len(ops)
        pct, _, beyond = tail_rank(full)
        metrics["latency_tail.percentile"] = pct
        metrics["latency_tail.samples_beyond"] = beyond
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"env": env, "workload": args.workload,
                        "seed": args.seed, "aggregates": tr.agg,
                        "spans": tr.span_rows()}))
    else:
        setup += measure_setup(warmup, SETUP_PROBES, setup_probe)
        metrics["setup_s"] = statistics.median(s for _, s in setup)
        metrics["peak_rss_mb"] = peak_rss_mb

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"ops={len(ops)} wall={wall:.3f}s trace={args.trace}")
    print(f"host slowdown (median) {summ['host_slowdown']:.3f}; raw ops_per_s "
          f"{summ['raw_ops_per_s']:.4f}, raw latency_p50_ms {summ['raw_latency_p50_ms']:.4f}")
    if setup:
        print("setup_s samples raw/normalised " + " ".join(
            f"{r:.4f}/{s:.4f}" for r, s in setup))
    print(f"latency_tail_ms is p{summ['latency_tail.percentile']:g} with "
          f"{summ['latency_tail.samples_beyond']} samples beyond, of {len(ops)}")
    print(f"fail_frac {summ['fail_frac']:.4f} ({summ['failed']}/{len(ops)}), "
          f"wrong_value_frac {summ['wrong_value_frac']:.4f} ({summ['wrong']}/{len(ops)}), "
          f"values_per_s {summ['values_per_s']:.6g} 1/s")
    for (op, (v, why)) in zip(ops, verdicts):
        if v != oracles.OK:
            tag = "decay-region" if oracles.in_decay_region(op) else "UNEXPECTED"
            print(f"  {v} [{tag}] {' '.join(op.argv)}: {why}")

    out = {}
    for name, unit in declared_metrics(bool(args.trace)):
        if name not in metrics:
            raise KeyError(f"metric {name} declared in BENCHMARK.json "
                           f"was not measured")
        out[name] = {"value": metrics[name], "unit": unit}
        print(f"{name:48s} {metrics[name]:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": summ["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
