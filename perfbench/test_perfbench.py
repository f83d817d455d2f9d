"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("specfun.log_gamma_array.elems", "rationals.QI.__mul__.calls",
                "weyl.WeylElement.__mul__.terms_out",
                "gz.DifferenceOperator.__mul__.calls")


def _small_ops(seed):
    """A cheap seeded subset: one points round without recursive N=3 and
    one exact round without N=4."""
    pts = workloads.generate("points", seed, 1)[0]
    ex = workloads.generate("exact", seed, 1)[0]
    return ([op for op in pts if not (op.kind == "whittaker_recursive" and op.n == 3)]
            + [op for op in ex if op.n <= 3])


def traced_aggregates(seed):
    from quantoda import cli
    tr = tracing.Tracer()
    records, _, _ = run.run_ops(cli, _small_ops(seed), tracer=tr)
    assert all(r[0] == 0 for r in records)
    return tr


def test_counts_repeat_exactly_across_processes():
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, __file__, "--counts", "7"],
                              capture_output=True, text=True, env=env,
                              timeout=300, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outs[0] == outs[1]
    assert all(outs[0][name] > 0 for name in EXACT_COUNTS)


def test_every_declared_layer_metric_is_produced():
    from quantoda import cli
    ops = _small_ops(3)
    records, wall, _ = run.run_ops(cli, ops)
    tr = traced_aggregates(3)
    verdicts = [("ok", "")] * len(ops)
    metrics = run.summarize(ops, records, verdicts, [1.0] * len(ops))
    metrics.update(run.layer_metrics(tr, ops, records, wall, wall))
    declared = [name for name, _ in run.declared_metrics(True)]
    assert not [name for name in declared if name not in metrics]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e <= set(metrics) | {"setup_s", "peak_rss_mb"}


def test_tracer_restores_the_package():
    from quantoda import mellin_barnes as mb, rationals
    before = (mb.whittaker_eval, mb.log_gamma_array, rationals.QI.__mul__,
              rationals.QI.__rmul__)
    tr = tracing.Tracer()
    tr.install()
    assert mb.whittaker_eval is not before[0]
    assert rationals.QI.__mul__ is rationals.QI.__rmul__
    tr.uninstall()
    assert (mb.whittaker_eval, mb.log_gamma_array, rationals.QI.__mul__,
            rationals.QI.__rmul__) == before


def test_workloads_are_seeded_and_rounds_share_one_shape():
    a = workloads.generate("points", 5, 2)
    assert a == workloads.generate("points", 5, 2)
    assert a != workloads.generate("points", 6, 2)

    def shape(rnd):
        return sorted((op.kind, op.n, oracles.parse_args(op.argv).get("tol"))
                      for op in rnd)
    for w in workloads.WORKLOADS:
        rounds = workloads.generate(w, 9, 3)
        assert shape(rounds[0]) == shape(rounds[1]) == shape(rounds[2])
        # verify qism takes no input but N, so only it repeats
        argvs = [op.argv for rnd in rounds for op in rnd
                 if op.kind != "verify_qism"]
        assert len(set(argvs)) == len(argvs)


def test_alpha_has_unit_max_and_distinct_entries():
    import random
    rng = random.Random(0)
    for n in (2, 3):
        for _ in range(50):
            a = workloads.draw_alpha(rng, n)
            assert max(abs(v) for v in a) == 1.0
            assert min(abs(a[i] - a[j]) for i in range(n)
                       for j in range(i + 1, n)) >= 0.2


def test_tail_latency_keeps_ten_samples_beyond():
    lat = [float(i) for i in range(1, 106)]
    pct, value, beyond = run.tail_latency(lat)
    assert (pct, beyond) == (90.0, 10) and value == 95.0
    assert run.tail_latency([1.0] * 20)[0] == 50.0


def test_timer_probe_runs_inside_long_commands_and_is_taken_off():
    class BusyCli:
        def dispatch(self, argv, out):
            end = time.perf_counter() + 1.0
            while time.perf_counter() < end:
                pass
            return 0

    probe = calibrate.Probe(("python",))
    op = workloads.Op(("verify", "qism", "--n=2"), "verify_qism", 2, 0)
    records, wall, slow = run.run_ops(BusyCli(), [op], probe=probe)
    assert len(probe.ticks) >= 2
    assert records[0][2] <= 1.0 - sum(d for _, d in probe.ticks) + 0.05
    assert slow[0] > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert not calibrate.Probe(("python", "numeric")).timed


def _value_op(argv, kind, n):
    return workloads.Op(tuple(argv), kind, n, 1)


def test_oracles_accept_right_and_reject_perturbed_values():
    from quantoda import mellin_barnes as mb
    cache = oracles.RefCache()
    cases = [
        (["whittaker", "eval", "--n=2", "--alpha=1.0,-0.3", "--x=0.4,-0.2",
          "--tol=1e-8", "--format=json"], "whittaker_eval", 2),
        (["whittaker", "eval", "--n=3", "--alpha=1.0,-0.3,0.4",
          "--x=0.4,-0.2,0.1", "--tol=1e-6", "--format=csv"], "whittaker_eval", 3),
        (["spherical", "eval", "--n=2", "--lambda=1.0,-0.3", "--x=0.4,-0.2",
          "--tol=1e-6", "--format=csv"], "spherical_eval", 2),
    ]
    for argv, kind, n in cases:
        op = _value_op(argv, kind, n)
        args = oracles.parse_args(argv)
        alpha = oracles.floats(args.get("alpha") or args["lambda"])
        x = oracles.floats(args["x"])
        fn = mb.spherical_eval if kind == "spherical_eval" else mb.whittaker_eval
        v = fn(n, alpha, x, float(args["tol"])).value
        good = json.dumps([{"re": v.real, "im": v.imag}])
        bad_v = v * (1 + 1e-3)
        bad = json.dumps([{"re": bad_v.real, "im": bad_v.imag}])
        if args["format"] == "csv":
            good = f"re,im\n{v.real!r},{v.imag!r}\n"
            bad = f"re,im\n{bad_v.real!r},{bad_v.imag!r}\n"
        assert oracles.check(op, 0, good, mb, cache)[0] == oracles.OK
        assert oracles.check(op, 0, bad, mb, cache)[0] == oracles.WRONG
        assert oracles.check(op, 1, good, mb, cache)[0] == oracles.BAD_EXIT


def test_report_check_requires_exact_keys_and_pass():
    op = workloads.Op(("verify", "qism", "--n=2"), "verify_qism", 2, 0)
    rep = {k: None for k in oracles.REPORT_KEYS}
    rep.update(suite="qism", n=2, relation="rll", status="PASS")
    ok = json.dumps({"reports": [rep], "status": "PASS"})
    assert oracles.check(op, 0, ok, None, None)[0] == oracles.OK
    failing = json.dumps({"reports": [dict(rep, status="FAIL")], "status": "FAIL"})
    assert oracles.check(op, 0, failing, None, None)[0] == oracles.WRONG
    extra = json.dumps({"reports": [dict(rep, extra=1)], "status": "PASS"})
    assert oracles.check(op, 0, extra, None, None)[0] == oracles.BAD_OUTPUT


def test_decay_region_is_whittaker_values_only():
    w = _value_op(["whittaker", "eval", "--n=2", "--alpha=1,0", "--x=4.5,0"],
                  "whittaker_eval", 2)
    s = _value_op(["spherical", "eval", "--n=2", "--lambda=1,0", "--x=4.5,0"],
                  "spherical_eval", 2)
    near = _value_op(["whittaker", "eval", "--n=3", "--alpha=1,0,0.5",
                      "--x=2.0,0,-1"], "whittaker_eval", 3)
    assert oracles.in_decay_region(w)
    assert not oracles.in_decay_region(s)
    assert not oracles.in_decay_region(near)
    # the recursive route loses accuracy from a smaller difference on
    direct = _value_op(["whittaker", "eval", "--n=2", "--alpha=1,0", "--x=3.5,0"],
                       "whittaker_eval", 2)
    rec = _value_op(["whittaker", "eval", "--n=2", "--alpha=1,0", "--x=3.5,0",
                     "--method=recursive"], "whittaker_recursive", 2)
    assert not oracles.in_decay_region(direct)
    assert oracles.in_decay_region(rec)


if __name__ == "__main__" and sys.argv[1:2] == ["--counts"]:
    tr = traced_aggregates(int(sys.argv[2]))
    print(json.dumps({name: tr.get(name.rsplit(".", 1)[0], name.rsplit(".", 1)[1])
                      for name in EXACT_COUNTS}))
