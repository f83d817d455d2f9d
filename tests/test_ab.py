"""The A/B driver's summary, re-derived from the runs of a file.

`tests/ab.py` runs the benchmark; these tests run no benchmark.  They
check `ab.summarize` on a small synthetic file whose summary is worked out
by hand, and re-derive the summary of every checked-in BENCH_*.json that
the driver wrote.
"""

import json
from pathlib import Path

import ab
import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = [{"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
         {"name": "ops_per_s", "better": "higher", "bound": 0.25}]


def _run(pair, side, latency, ops, failed):
    first = (pair % 2 == 0) == (side == "parent")
    return {"pair": pair, "seed": 7 + pair, "side": side, "order": 1 if first else 2,
            "metrics": {"latency_p50_ms": latency, "ops_per_s": ops}, "failed": failed,
            "attempted": 40, "correct": True, "tail_percentile": 75.0,
            "tail_command": "verify qism --n=3"}


# four pairs, listed out of pair order: the parent's latencies 1-4 ms have
# inclusive quartiles 1.75 and 3.25 around the median 2.5
_RUNS = [_run(*run) for run in [
    (3, "change", 4.5, 90.0, 2), (3, "parent", 4.0, 130.0, 0),
    (0, "parent", 1.0, 100.0, 0), (0, "change", 0.5, 60.0, 0),
    (1, "parent", 2.0, 110.0, 1), (1, "change", 1.5, 70.0, 1),
    (2, "parent", 3.0, 120.0, 0), (2, "change", 2.5, 80.0, 0)]]
_SUMMARY = {
    # 3 of 4 pairs faster; the medians 0.5 apart, inside the spread 1.5
    "latency_p50_ms": {"better": "lower", "bound": 0.25, "parent_median": 2.5,
                       "parent_q1": 1.75, "parent_q3": 3.25, "change_median": 2.0,
                       "change_vs_parent": 2.0 / 2.5 - 1.0, "better_pairs": "3 of 4",
                       "beyond_parent_spread": False, "within_bound": True},
    # every pair slower, by 35%: past the spread 15 and the bound 25%
    "ops_per_s": {"better": "higher", "bound": 0.25, "parent_median": 115.0,
                  "parent_q1": 107.5, "parent_q3": 122.5, "change_median": 75.0,
                  "change_vs_parent": 75.0 / 115.0 - 1.0, "better_pairs": "0 of 4",
                  "beyond_parent_spread": True, "within_bound": False},
    "failed": {"parent": [0, 1, 0, 0], "change": [0, 1, 0, 2], "equal_every_pair": False},
}


def test_summary_of_a_synthetic_file_is_rederived_from_its_runs(tmp_path):
    path = tmp_path / "BENCH_synthetic.json"
    path.write_text(json.dumps({"schema": ab.SCHEMA, "runs": _RUNS, "summary": _SUMMARY}))
    doc = json.loads(path.read_text())
    assert ab.summarize(doc["runs"], _SPEC) == doc["summary"]


def test_tail_command_is_run_py_nearest_rank():
    # normalised latencies 4, 1, 3, 2 (seconds over slowdown): the p75 of
    # four is rank 3, the command at 3
    ops = [{"argv": [name], "seconds": s, "slowdown": f}
           for name, s, f in (("a", 8.0, 2.0), ("b", 1.0, 1.0), ("c", 1.5, 0.5),
                              ("d", 2.0, 1.0))]
    assert ab.tail_command(ops, 75.0) == "c"
    assert ab.tail_command(ops, 50.0) == "d"


@pytest.mark.parametrize("path", sorted(p.name for p in ROOT.glob("BENCH_*.json")
                                        if json.loads(p.read_text()).get("schema")
                                        == ab.SCHEMA))
def test_checked_in_driver_files_summarize_their_runs(path):
    doc = json.loads((ROOT / path).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert ab.summarize(doc["runs"], spec) == doc["summary"]
