"""Same bytes at a revision and in the work tree: does a change move any output?

Runs every command of every round that `perfbench/workloads.generate` makes
for a run of `BENCHMARK.json`'s run_seconds of each workload (points,
sweeps, exact) at each of the seeds 1-5 (`SEEDS`), then a fixed edge list:
the argvs that the refusal tests of `tests/test_cli.py` parametrize,
`--help` at three levels, and `whittaker grid --out` in CSV and JSON.  The
commands run once in a copy of REV (exported with `git archive`, so no
worktree is registered) and once in this work tree, one
Python process per side calling `quantoda.cli.dispatch` on each command in
turn, with OpenBLAS, OpenMP and MKL at one thread (two with --threads 2)
and COLUMNS=80 for argparse's help.  Each `--out` path is moved into a
per-side temporary directory, and the file it leaves is compared too.  The
two sides run at the same time, and the child processes of a side live
under a 2 GiB address-space limit.  `perfbench/` is read, never edited,
and `tests/test_cli.py` is imported for its argvs, so the test extras
must be installed.  pytest does not collect this file.  Run from the root
of the checkout:

    python3 tests/same_bytes.py HEAD~1
    python3 tests/same_bytes.py HEAD~1 --threads 2

Prints one line per command whose exit code, stdout, stderr or `--out`
file differs, with the largest move of a number of its stdout or `--out`
file in units of the command's --tol (its default when omitted; absolute
for commands without one) and each side's exit code and stderr, then one
summary line and one line per command kind (`workloads.Op.kind`, "edge"
for the fixed list): how many of its commands differ and the largest move
among them, in the units above, given apart for the Whittaker values in
the decay region (`perfbench/oracles.in_decay_region`), which carry few
correct digits, so that their moves do not hide the others'.  Exits 1 when
any command differs.
"""

import argparse
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MEMORY_LIMIT = 2 * 2 ** 30
SEEDS = (1, 2, 3, 4, 5)
HELP = [["--help"], ["whittaker", "--help"], ["whittaker", "grid", "--help"]]
SWEEP = ["whittaker", "grid", "--n=2", "--alpha=0.3,-1.0", "--axis=0", "--from=-1.5",
         "--to=1.7", "--steps=61", "--x=0.2,-0.4", "--tol=1e-8"]
OUT = [SWEEP + ["--format=csv", "--out=sweep.csv"],
       SWEEP + ["--format=json", "--out=sweep.json"]]
# the --tol a value command takes when none is given
DEFAULT_TOL = {"whittaker": 1e-6, "spherical": 1e-6}
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)", re.I)

# One side: argvs as JSON on stdin, one result per argv as JSON on stdout.
SIDE = r"""
import contextlib, io, json, os, sys, warnings
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from quantoda import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    path = next((a[6:] for a in argv if a.startswith("--out=")), None)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.dispatch(argv, out=out)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:                # a traceback: reported as such
            code = f"raised {type(exc).__name__}: {exc}"
    saved = None
    if path is not None and os.path.isfile(path):
        with open(path, "rb") as fh:
            saved = fh.read().decode("latin-1")
        os.remove(path)
    results.append([code, out.getvalue(), err.getvalue(), saved])
json.dump(results, sys.stdout)
"""


def workload_ops():
    """{workload: [op, ...]} over every round of a benchmark run at SEEDS."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return {w: [op for seed in SEEDS
                for rnd in workloads.generate(w, seed, workloads.rounds_for(w, seconds))
                for op in rnd]
            for w in workloads.WORKLOADS}


def refusal_argvs():
    """The argvs that the refusal tests of tests/test_cli.py parametrize:
    every test named ..._exit..., ..._exits_... or ..._refuse... whose
    first parameter is argv, and `verify qism` above its limit."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    import test_cli
    found = []
    for name, fn in vars(test_cli).items():
        if not (name.startswith("test_") and re.search(r"_exits?_|_refuse", name)):
            continue
        for mark in getattr(fn, "pytestmark", []):
            names = mark.args[0] if mark.name == "parametrize" else ""
            if names.split(",")[0].strip() != "argv":
                continue
            for case in mark.args[1]:
                case = getattr(case, "values", case)          # pytest.param
                found.append(list(case if names == "argv" else case[0]))
    return found + [["verify", "qism", "--n=9"], ["verify", "qism", "--n=40"]]


def checkout(rev, into):
    """The files of rev in the new directory `into`, by `git archive`."""
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def start_side(tree, argvs, outdir, threads):
    """A running side: the argvs with each --out moved into outdir."""
    argvs = [[f"--out={Path(outdir, a[6:]).name}" if a.startswith("--out=") else a
              for a in argv] for argv in argvs]
    env = dict(os.environ, COLUMNS="80")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    proc = subprocess.Popen([sys.executable, "-c", SIDE, str(tree)], cwd=outdir, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=limit)
    proc.stdin.write(json.dumps(argvs))
    proc.stdin.close()
    return proc


def finish_side(proc):
    out = proc.stdout.read()
    err = proc.stderr.read()
    if proc.wait() != 0:
        sys.exit(f"a side failed:\n{err}")
    return json.loads(out)


def tol_of(argv):
    """The command's --tol, its default for a value command, or None."""
    for a in argv:
        if a.startswith("--tol="):
            return float(a[6:])
    return DEFAULT_TOL.get(argv[0])


def largest_move(a, b, tol):
    """The largest move between the numbers of two texts, in units of tol
    (absolute without one); None when they do not pair up."""
    xs, ys = NUMBER.findall(a), NUMBER.findall(b)
    if len(xs) != len(ys):
        return None
    move = max((abs(float(x) - float(y)) for x, y in zip(xs, ys) if x != y), default=0.0)
    return move / tol if tol else move


def kind_lines(rows):
    """One summary line per command kind, from (kind, exempt, differs, move)
    rows: how many of its commands differ, and the largest move of those
    whose numbers pair up, given apart for the commands that
    `oracles.in_decay_region` exempts."""
    lines = []
    for kind in dict.fromkeys(k for k, *_ in rows):
        parts = []
        for exempt, name in ((False, ""), (True, "decay region: ")):
            group = [(d, m) for k, e, d, m in rows if k == kind and e == exempt]
            if not group:
                continue
            moves = [m for d, m in group if d and m is not None]
            unpaired = sum(d and m is None for d, m in group)
            parts.append(f"{name}{sum(d for d, _ in group)} of {len(group)} differ"
                         + (f", largest move {max(moves):.3g}" if moves else "")
                         + (f", {unpaired} unpaired" if unpaired else ""))
        lines.append(f"  {kind}: " + "; ".join(parts))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="a local revision, such as HEAD~1")
    ap.add_argument("--threads", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.rev],
                         capture_output=True, text=True, check=True).stdout.strip()
    groups = workload_ops()
    import oracles, workloads           # perfbench/, on the path from workload_ops
    groups["edge"] = [workloads.Op(tuple(argv), "edge", 0, 0)
                      for argv in refusal_argvs() + HELP + OUT]
    ops = [op for group in groups.values() for op in group]
    argvs = [list(op.argv) for op in ops]
    with tempfile.TemporaryDirectory() as tmp:
        tree = checkout(args.rev, Path(tmp, "rev"))
        outs = [Path(tmp, side) for side in ("out-rev", "out-work")]
        for d in outs:
            d.mkdir()
        sides = [start_side(t, argvs, d, args.threads) for t, d in zip((tree, ROOT), outs)]
        before, after = map(finish_side, sides)
    rows = []                           # (kind, exempt, differs, move) per command
    for op, argv, old, new in zip(ops, argvs, before, after):
        parts = [part for part, x, y in zip(("exit", "stdout", "stderr", "--out"), old, new)
                 if x != y]
        row = [op.kind, oracles.in_decay_region(op), bool(parts), None]
        rows.append(row)
        if not parts:
            continue
        tol = tol_of(argv)
        moves = [largest_move(str(old[k]), str(new[k]), tol) for k in (1, 3)
                 if old[k] != new[k]]
        if None not in moves:
            row[3] = max(moves, default=0.0)
        text = ("no value output moved" if not moves else "no paired numbers" if None in moves
                else f"largest move {max(moves):.3g} {'tol' if tol else '(absolute)'}")
        print(f"DIFF [{', '.join(parts)}] {text}: {' '.join(argv)}", flush=True)
        for side, (code, _, err, _) in ((args.rev, old), ("work tree", new)):
            print(f"  {side}: exit {code}, stderr {err.strip()[:160]!r}")
    differ = sum(row[2] for row in rows)
    sizes = ", ".join(f"{name} {len(group)}" for name, group in groups.items())
    seeds = ",".join(map(str, SEEDS))
    print(f"same_bytes: {differ} of {len(argvs)} commands differ ({sizes}; seeds "
          f"{seeds}) between {args.rev} ({sha}) and the work tree, OpenBLAS "
          f"{args.threads} thread{'s' if args.threads > 1 else ''}; per kind:")
    print("\n".join(kind_lines(rows)))
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
