"""Seeded command lists for the three benchmark workloads.

Options are written as --key=value, because argparse reads a separate
value such as "-0.5,1.0" as an option name.

A workload is a sequence of rounds.  Every round holds the same multiset of
command shapes (subcommand, N, tol, method, grid); only the drawn inputs
(alpha, coordinates, sweep axis and range, suite seeds) differ from round to
round and from seed to seed.  That keeps the cost of a round nearly
independent of the seed, so runs on different seeds are comparable, while
no two commands in a run share their inputs (except `verify qism`, whose
only input is N) and a per-argument cache in the program would gain
nothing.

The cost of a command depends on alpha through max|alpha| (it sets the
contour half-width T), so every drawn alpha has max|alpha| = 1 exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Tuple

WORKLOADS = ("points", "sweeps", "exact")

# Nominal seconds per round, measured on a 2-CPU x86-64 host at the parent
# commit.  A run executes max(MIN_ROUNDS, ceil(--seconds / ROUND_SECONDS))
# whole rounds, so the op count (and with it the tail percentile chosen) is
# fixed for a given --seconds and workload.  Sweeps and exact rounds are
# long, so they get two rounds and points three, which keeps a run under a
# minute.
ROUND_SECONDS = {"points": 5.0, "sweeps": 10.0, "exact": 12.0}
MIN_ROUNDS = {"points": 3, "sweeps": 2, "exact": 2}

# Successive coordinate differences x_k - x_{k+1} on `points`.  Beyond about
# 4 the wave function decays doubly exponentially and the default contour
# returns values with no correct digits.
POINT_DIFF = (-4.0, 8.0)
# Sweeps keep every difference inside this band, below the decay region.
SWEEP_DIFF = (-4.0, 3.0)
SWEEP_STEPS = 61

# Small `verify eigen --refine` grids (points:spacing, residual tol) that
# pass for every drawn alpha: smaller N=3 grids miss the [3.5, 4.5]
# refinement-ratio window, and at spacing 0.1 the N=3 residual is a few
# 1e-3, above the default tol 1e-3.
EIGEN_GRID = {2: ("32:0.05", None), 3: ("20:0.1", "1e-2")}

# Warm-up command per workload: run once untimed in the benchmark process
# and once per set-up probe.
WARMUP = {
    "points": ["whittaker", "eval", "--n=2", "--alpha=1.0,-0.5", "--x=0.5,0.0"],
    "sweeps": ["whittaker", "grid", "--n=2", "--alpha=1.0,-0.5", "--axis=0",
               "--from=-1", "--to=1", "--steps=61"],
    "exact": ["verify", "separation", "--n=2", "--trials=10"],
}


@dataclass(frozen=True)
class Op:
    """One CLI command: its argv, its kind and N, and the wave-function
    values it delivers (0 for commands that deliver none)."""

    argv: Tuple[str, ...]
    kind: str
    n: int
    values: int


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload],
               math.ceil(seconds / ROUND_SECONDS[workload]))


def _fmt(v: float) -> str:
    return repr(round(v, 6))


def _csv(vals) -> str:
    return ",".join(_fmt(v) for v in vals)


def draw_alpha(rng: random.Random, n: int) -> List[float]:
    """Distinct entries (pairwise gap >= 0.2), one of them exactly +-1 and
    the others in (-1, 1)."""
    while True:
        a = [rng.choice((-1.0, 1.0))] + [rng.uniform(-0.95, 0.95)
                                         for _ in range(n - 1)]
        a = [round(v, 6) for v in a]
        if all(abs(a[i] - a[j]) >= 0.2
               for i in range(n) for j in range(i + 1, n)):
            rng.shuffle(a)
            return a


def _point(rng: random.Random, n: int) -> List[float]:
    x = [rng.uniform(-1.0, 1.0)]
    for _ in range(n - 1):
        x.insert(0, x[0] + rng.uniform(*POINT_DIFF))
    return x


def _value_op(rng, kind: str, n: int, tol: str) -> Op:
    fmt = rng.choice(("csv", "json"))
    x = _csv(_point(rng, n))
    if kind == "spherical_eval":
        argv = ["spherical", "eval", f"--n={n}",
                f"--lambda={_csv(draw_alpha(rng, n))}", f"--x={x}", f"--tol={tol}"]
    else:
        argv = ["whittaker", "eval", f"--n={n}",
                f"--alpha={_csv(draw_alpha(rng, n))}", f"--x={x}", f"--tol={tol}"]
        if kind == "whittaker_recursive":
            argv.append("--method=recursive")
    return Op(tuple(argv + [f"--format={fmt}"]), kind, n, 1)


def _cfunction_op(rng, n: int) -> Op:
    argv = ["cfunction", f"--lambda={_csv(draw_alpha(rng, n))}",
            f"--format={rng.choice(('csv', 'json'))}"]
    return Op(tuple(argv), "cfunction", n, 0)


def _sweep_op(rng, n: int, tol: str) -> Op:
    """One-coordinate sweep with every successive difference kept inside
    SWEEP_DIFF over the whole range.  The axis is drawn at every N: a
    change that shares work along the sweep (one contraction per distinct
    x2 - x3 at N=3) gains most on x1 sweeps and least on x2 and x3 sweeps."""
    lo, hi = SWEEP_DIFF
    length = rng.uniform(2.0, 4.0)
    axis = rng.randrange(n)
    while True:
        x = [rng.uniform(-1.0, 1.0)]
        for _ in range(n - 1):
            x.insert(0, x[0] + rng.uniform(lo + 1.0, hi - 1.0))
        # bounds on x[axis] from the differences it enters
        a_lo, a_hi = -math.inf, math.inf
        if axis > 0:                       # x[axis-1] - x[axis] in [lo, hi]
            a_lo, a_hi = max(a_lo, x[axis - 1] - hi), min(a_hi, x[axis - 1] - lo)
        if axis < n - 1:                   # x[axis] - x[axis+1] in [lo, hi]
            a_lo, a_hi = max(a_lo, x[axis + 1] + lo), min(a_hi, x[axis + 1] + hi)
        if a_hi - a_lo >= length:
            break
    start = round(rng.uniform(a_lo, a_hi - length), 6)
    stop = round(start + length, 6)
    argv = ["whittaker", "grid", f"--n={n}",
            f"--alpha={_csv(draw_alpha(rng, n))}", f"--axis={axis}",
            f"--from={_fmt(start)}", f"--to={_fmt(stop)}",
            f"--steps={SWEEP_STEPS}", f"--x={_csv(x)}", f"--tol={tol}",
            f"--format={rng.choice(('csv', 'json'))}"]
    return Op(tuple(argv), "whittaker_grid", n, SWEEP_STEPS)


def _eigen_op(rng, n: int) -> Op:
    grid, tol = EIGEN_GRID[n]
    argv = ["verify", "eigen", f"--n={n}",
            f"--alpha={_csv(draw_alpha(rng, n))}", f"--grid={grid}", "--refine"]
    if tol is not None:
        argv.append(f"--tol={tol}")
    points = int(grid.split(":")[0])
    return Op(tuple(argv), "verify_eigen", n, points ** n + (2 * points) ** n)


def _suite_op(rng, suite: str, n: int) -> Op:
    argv = ["verify", suite, f"--n={n}"]
    if suite == "gz":
        argv.append("--trials=20")
    if suite in ("gz", "separation"):
        argv.append(f"--seed={rng.randrange(1, 10 ** 6)}")
    return Op(tuple(argv), "verify_" + suite, n, 0)


def _points_round(rng) -> List[Op]:
    ops = []
    for tol in ("1e-6", "1e-8", "1e-10"):
        ops += [_value_op(rng, "whittaker_eval", 2, tol) for _ in range(4)]
        ops += [_value_op(rng, "whittaker_eval", 3, tol) for _ in range(2)]
        ops.append(_value_op(rng, "whittaker_recursive", 2, tol))
        ops.append(_value_op(rng, "spherical_eval", 2, tol))
        ops.append(_value_op(rng, "spherical_eval", 3, tol))
    # recursive N=3 builds an M x M x M array: about 0.7 GB at 1e-8, and
    # 1e-10 would need ~1.8 GB
    ops += [_value_op(rng, "whittaker_recursive", 3, "1e-6") for _ in range(3)]
    ops.append(_value_op(rng, "whittaker_recursive", 3, "1e-8"))
    ops += [_cfunction_op(rng, n) for n in (2, 2, 3, 3)]
    return ops


# The counts per round place the median and the tail percentile of a run at
# --seconds 15 inside a cluster of like commands rather than between two
# clusters: on sweeps (2 rounds) the median is a `whittaker grid` N=2 and
# the p75 the second of eight `verify eigen` N=3; on exact (2 rounds) the
# median is a `verify gz` N=2 and the p75 the fifth of eight `verify qism`
# N=3.
def _sweeps_round(rng) -> List[Op]:
    ops = []
    for tol in ("1e-6", "1e-8"):
        ops += [_sweep_op(rng, 2, tol) for _ in range(5)]
        ops.append(_sweep_op(rng, 3, tol))
    ops += [_eigen_op(rng, 2) for _ in range(4)]
    ops += [_eigen_op(rng, 3) for _ in range(4)]
    return ops


def _exact_round(rng) -> List[Op]:
    ops = [_suite_op(rng, "qism", 2) for _ in range(2)]
    ops += [_suite_op(rng, "gz", 2) for _ in range(2)]
    ops += [_suite_op(rng, "qism", 3) for _ in range(4)]
    ops.append(_suite_op(rng, "gz", 3))
    ops += [_suite_op(rng, "separation", n) for n in (2, 3) for _ in range(4)]
    ops += [_suite_op(rng, s, 4) for s in ("qism", "gz", "separation")]
    return ops


_ROUND = {"points": _points_round, "sweeps": _sweeps_round,
          "exact": _exact_round}


def generate(workload: str, seed: int, rounds: int) -> List[List[Op]]:
    """`rounds` rounds of shuffled commands, a pure function of the seed."""
    rng = random.Random(f"quantoda-bench:{workload}:{seed}")
    out = []
    for _ in range(rounds):
        ops = _ROUND[workload](rng)
        rng.shuffle(ops)
        out.append(ops)
    return out
