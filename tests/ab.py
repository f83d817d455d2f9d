"""A/B pairs of the unchanged benchmark: does a change move an end-to-end metric?

    python3 tests/ab.py PARENT CHANGE --workload W --pairs 10 --seed S --tag T

Exports the local revisions PARENT and CHANGE with `git archive` (so no
worktree is registered) into two temporary directories, and in pair i =
0 .. pairs-1 runs the unchanged `perfbench/run.py --workload W --seed S+i
--seconds R` of each, R being `BENCHMARK.json`'s run_seconds, the parent
first in even pairs and the change first in odd ones, with OpenBLAS,
OpenMP and MKL at one thread and PYTHONDONTWRITEBYTECODE=1.  Writes
BENCH_<tag>.json at the root of the checkout in one schema (`SCHEMA`):

* "schema", "argv", "environment" (run.py's env line of the first run),
  "parent" and "change" ({"rev", "sha"}), "workload", "seconds", "pairs"
  and "seeds";
* "runs": one entry per run, {"pair", "seed", "side", "order" (1 or 2
  within its pair), "metrics" (the end-to-end figures run.py prints),
  "failed", "attempted", "correct", "tail_percentile", "tail_command" (the
  command at that percentile's rank of the host-normalised latencies)};
* "summary": per end-to-end metric of BENCHMARK.json, `summarize`'s record:
  the parent's median and quartiles, the change's median and its move
  against the parent's, "better k of n" over the pairs, whether the move
  exceeds the parent's quartile spread and whether it stays within the
  metric's bound; and "failed", the failed counts of both sides per pair
  and whether they are equal in every pair.

It takes `checkout` from `tests/same_bytes.py` and otherwise the
standard library alone, and pytest does not collect this file;
tests/test_ab.py re-derives a summary from its runs.  Run from the root of
the checkout, one benchmark at a time on an otherwise idle host.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_bytes import checkout

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "quantoda-ab/1"
SIDES = ("parent", "change")


def tail_command(ops, percentile):
    """The argv, as one string, at run.py's nearest rank of `percentile`
    among the ops' host-normalised latencies (seconds over slowdown)."""
    k = max(0, math.ceil(percentile / 100.0 * len(ops)) - 1)
    op = sorted(ops, key=lambda o: o["seconds"] / o["slowdown"])[k]
    return " ".join(op["argv"])


def run_once(tree, workload, seed, seconds):
    """(run record without pair, side and order; run.py's env line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    percentile = float(re.search(r"^latency_tail_ms is p([\d.]+) ", proc.stdout,
                                 re.M).group(1))
    ops = json.loads((tree / ".bench_out" / f"ops-{workload}-seed{seed}-trace0.json")
                     .read_text())["ops"]
    record = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
              "failed": result["failed"], "attempted": result["attempted"],
              "correct": result["correct"], "tail_percentile": percentile,
              "tail_command": tail_command(ops, percentile)}
    env_line = next(line for line in lines if line.startswith("env "))
    return record, json.loads(env_line[4:])


def summarize(runs, end_to_end):
    """The summary of `runs` (the file's "runs") for BENCHMARK.json's
    end_to_end metrics: see the module docstring.  Quartiles are
    `statistics.quantiles(..., n=4, method="inclusive")`, and a metric stays
    within its bound while the change's median is worse than the parent's
    by at most bound times the parent's."""
    by_side = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
               for s in SIDES}
    n = len(by_side["parent"])
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        parent, change = ([r["metrics"][name] for r in by_side[s]] for s in SIDES)
        q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        pm, cm = statistics.median(parent), statistics.median(change)
        better = sum(c < p if lower else c > p for p, c in zip(parent, change))
        worse = (cm - pm if lower else pm - cm) / pm
        summary[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent_median": pm, "parent_q1": q1, "parent_q3": q3,
            "change_median": cm, "change_vs_parent": cm / pm - 1.0,
            "better_pairs": f"{better} of {n}",
            "beyond_parent_spread": abs(cm - pm) > q3 - q1,
            "within_bound": worse <= spec["bound"]}
    failed = {s: [r["failed"] for r in by_side[s]] for s in SIDES}
    summary["failed"] = dict(failed, equal_every_pair=failed["parent"] == failed["change"])
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="a local revision, such as HEAD~1")
    ap.add_argument("change", help="a local revision, such as HEAD")
    ap.add_argument("--workload", required=True, choices=("points", "sweeps", "exact"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="the seed of pair 0")
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    revs = {s: {"rev": r, "sha": subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", r], capture_output=True,
                text=True, check=True).stdout.strip()}
            for s, r in zip(SIDES, (args.parent, args.change))}
    runs, environment = [], None
    with tempfile.TemporaryDirectory() as tmp:
        trees = {s: checkout(revs[s]["sha"], Path(tmp, s)) for s in SIDES}
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for k, side in enumerate(order, 1):
                record, env = run_once(trees[side], args.workload, seed, seconds)
                environment = environment or env
                runs.append(dict(pair=pair, seed=seed, side=side, order=k, **record))
                print(f"pair {pair} seed {seed} {side}: " + ", ".join(
                    f"{m} {v:.4g}" for m, v in record["metrics"].items())
                    + f", failed {record['failed']}", flush=True)
    doc = {"schema": SCHEMA, "argv": sys.argv, "environment": environment,
           **revs, "workload": args.workload, "seconds": seconds,
           "pairs": args.pairs, "seeds": [args.seed + i for i in range(args.pairs)],
           "runs": runs, "summary": summarize(runs, spec["end_to_end"])}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in doc["summary"].items():
        print(f"{name}: {json.dumps(row)}")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
