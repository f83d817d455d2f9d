"""Exact Gaussian arithmetic: Z[i] pairs of Python ints and F_p[i] lanes.

* Z[i] -- plain tuples ``(re, im)``.  The Weyl-algebra coefficients of
  `weyl` live here: the algebra never divides, so no modulus is needed and a
  zero result is an exact zero.  `weyl` combines the pairs inline in its
  product loop; `as_gauss`, `gauss_mul` and `gauss_str` serve the rest.
* F_p[i], p = 2**31 - 1 -- `FpLanes`, one element per lane: int64 arrays of
  parts (ints for a value every lane shares) reduced mod p.  As p = 3 mod 4,
  F_p[i] is a field, and a*d + b*c <= 2(p-1)^2 < 2^63 fits in int64.  The
  lane kernels `_gauss_mul`, `_fermat_inverse` and `_batch_inverse` serve
  `FpLanes` and `gz.TermTable`.  Floats and complex numbers are refused (TypeError).

The randomized identity checks of `gz` and `separation` run their trials
through `first_witnesses`, three lanes per trial (`random_lanes`,
`lane_blocks`).  A nonzero polynomial of degree d, sampled from sets of
p - 1 or more elements, vanishes in one lane with probability at most
d/(p-1) (Schwartz 1980; Zippel 1979), in all three at most (d/(p-1))^3.
That is at most d/q, q = 2^61 - 1, exactly when d^2 <=
(p-1)^3/q = 2^32 - 12 + e (0 < e < 1e-7): for every d < 2^16.  Two lanes
would need d <= 2.  Relations that share lanes each keep their own bound.
`random_lanes` reads a lane's k values off uniform 64-bit words
(`random_words`, one `getrandbits` call per block) and draws a lane again,
alone, while it repeats a value or holds one past the range: each lane is
independent uniform draws conditioned on k distinct values, an event of
probability at least 1 - C(k,2)/(p-1), which divides the bound by that,
cubed.  The field, the degrees and so the bounds do not depend on how the
words are read.
"""

from __future__ import annotations

import random
from functools import reduce
from operator import add, mul, sub
from typing import Callable, List, Optional, Tuple

import numpy as np

Gauss = Tuple[int, int]

P = (1 << 31) - 1

LANES_PER_TRIAL = 3
TRIALS_PER_BLOCK = 64   # bounds the lanes, and so the memory, of one evaluation
# Most trials a sampled check or suite takes: ten times the most that a
# test, README example or benchmark command runs (101).  The draws are bulk,
# 8 bytes per word in one Python int, and without a bound `verify gz --n 2
# --trials 100000000` ran out of memory after 19 s.  At the bound `verify gz
# --n 13` takes 154 s and 1.40 GB, and `verify separation --n 301` 12 s and
# 59 MB (2 CPUs x86-64, CPython 3.11, seed defaults, every report PASS).
MAX_TRIALS = 1000

ONE: Gauss = (1, 0)
I: Gauss = (0, 1)
MINUS_I: Gauss = (0, -1)


def as_gauss(c) -> Gauss:
    """An int or an (re, im) pair of ints as a Z[i] pair."""
    return (c, 0) if isinstance(c, int) else (c[0], c[1])


def gauss_mul(a: Gauss, b: Gauss) -> Gauss:
    """Product in Z[i]."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gauss_str(a: Gauss) -> str:
    re, im = a
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def _part(x):
    """An int or an integer array, reduced mod P."""
    if type(x) is int:
        return x % P
    x = np.asarray(x)
    if x.dtype.kind not in "iu":
        raise TypeError("F_p[i] parts must be integers")
    return x.astype(np.int64) % P


def _gauss_mul(ar, ai, br, bi):
    """(ar + ai i)(br + bi i) mod P on reduced parts, ints or int64 arrays
    of one shape or of shapes that broadcast to br's."""
    re = ar * br
    re -= ai * bi
    re %= P
    im = ai * br
    im += ar * bi
    im %= P
    return re, im


def _fermat_inverse(x: np.ndarray) -> np.ndarray:
    """x^(P-2) mod P elementwise: 1/x for x != 0 mod P, and 0 for x = 0."""
    out, base, e = np.ones_like(x), x, P - 2
    while e:
        if e & 1:
            out = out * base % P
        base = base * base % P
        e >>= 1
    return out


def _batch_inverse(x: np.ndarray) -> np.ndarray:
    """1/x mod P for each row of x, nonzero (rows, lanes), from one Fermat
    inverse per lane: the product tree of the rows is inverted at its root
    and the inverse pushed back down, two products per node."""
    levels = [x]
    while len(levels[-1]) > 1:
        v = levels[-1]
        if len(v) % 2:
            v = levels[-1] = np.concatenate([v, np.ones_like(v[:1])])
        levels.append(v[0::2] * v[1::2] % P)
    inv = _fermat_inverse(levels.pop())
    for v in reversed(levels):
        inv, down = inv[:len(v) // 2], np.empty_like(v)
        down[0::2] = inv * v[1::2] % P
        down[1::2] = inv * v[0::2] % P
        inv = down
    return inv[:len(x)]


def _lanes(re, im) -> "FpLanes":
    """FpLanes from parts already reduced mod P."""
    return tuple.__new__(FpLanes, (re, im))


class FpLanes(tuple):
    """Elements re + im*i of F_p[i], one per lane, from int or integer-array
    parts; a/b maps to FpLanes(a) / FpLanes(b).  `==` holds when every lane
    is equal.  The tuple is (re, im), each reduced mod P.
    """

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        return _lanes(_part(re), _part(im))

    def lane(self, k: int) -> "FpLanes":
        """Lane k as a value with int parts."""
        return FpLanes(*(int(x if np.ndim(x) == 0 else x[k]) for x in self))

    def zeros(self) -> np.ndarray:
        """Per lane, whether the value is 0."""
        re, im = self
        return np.asarray((re == 0) & (im == 0))

    def __eq__(self, other):
        if type(other) is int:
            other = FpLanes(other)
        if type(other) is not FpLanes:
            return NotImplemented
        return bool((self - other).zeros().all())

    def __ne__(self, other):     # tuple's own would compare the parts
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def _combine(self, other, op):
        """self op other for op = add or sub."""
        other = other if type(other) is FpLanes else FpLanes(other)
        (a, b), (c, e) = self, other
        return _lanes(op(a, c) % P, op(b, e) % P)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        re, im = self
        return _lanes(-re % P, -im % P)

    def __mul__(self, other):
        other = other if type(other) is FpLanes else FpLanes(other)
        return _lanes(*_gauss_mul(*self, *other))

    __rmul__ = __mul__

    def inverse(self) -> "FpLanes":
        """conj / |self|^2, the norm inverted by `_fermat_inverse`.  |self|^2 = 0
        mod p only where self = 0, and then, in any lane, ZeroDivisionError.
        No check divides: division and negative powers serve the tests and
        the per-operator reference `gz.DifferenceOperator.evaluate_on_test`."""
        a, b = self
        norm = (a * a + b * b) % P
        if not np.all(norm):
            raise ZeroDivisionError("division by zero in F_p[i]")
        inv = pow(norm, -1, P) if type(norm) is int else _fermat_inverse(norm)
        return _lanes(a * inv % P, -b * inv % P)

    def __truediv__(self, other):
        other = other if type(other) is FpLanes else FpLanes(other)
        return self * other.inverse()

    def __pow__(self, k: int):
        base = self if k >= 0 else self.inverse()
        return reduce(mul, [base] * abs(k)) if k else FpLanes(1)

    def __repr__(self):
        re, im = (x if type(x) is int else x.tolist() for x in self)
        return f"FpLanes({re}, {im})"


def random_words(rng: random.Random, shape: Tuple[int, ...]) -> np.ndarray:
    """Uniform uint64 words of the given shape, read from one
    rng.getrandbits(64 * size) call."""
    size = reduce(mul, shape, 1)
    return np.frombuffer(rng.getrandbits(64 * size).to_bytes(8 * size, "little"),
                         "<u8").reshape(shape)


def random_lanes(rng: random.Random, lanes: int, count: int, low: int = 0) -> np.ndarray:
    """`count` values per lane, uniform on low..p-1 and distinct within each
    lane, in int64 rows (count, lanes).  ValueError when count > p - low.

    A lane's values are the top k bits of `count` words of `random_words`,
    k = (p - low).bit_length(); a lane that holds a value >= p - low or a
    repeat is drawn again, alone, so each lane is uniform on the distinct
    tuples of the range.  One sort finds both.
    """
    width = P - low
    if count > width:
        raise ValueError(f"{count} distinct values do not fit in {low}..{P - 1}")
    shift = 64 - width.bit_length()
    rows = random_words(rng, (count, lanes)) >> shift
    while True:
        ordered = np.sort(rows, axis=0)
        bad = (ordered[count - 1:] >= width).any(0) | (ordered[1:] == ordered[:-1]).any(0)
        if not bad.any():
            return rows.astype(np.int64) + low
        rows[:, bad] = random_words(rng, (count, int(bad.sum()))) >> shift


def lane_blocks(trials: int) -> List[Tuple[int, int]]:
    """(first lane, lane count) of each block of the trials' lanes, in order."""
    total, step = LANES_PER_TRIAL * trials, LANES_PER_TRIAL * TRIALS_PER_BLOCK
    return [(start, min(step, total - start)) for start in range(0, total, step)]


def check_trials(trials: int) -> None:
    """ValueError when trials is outside 1..MAX_TRIALS: the first refusal of
    every sampled check and suite."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most {MAX_TRIALS}, got {trials}")


def first_witnesses(relations: int, trials: int, seed: int,
                    block: Callable) -> List[Optional[str]]:
    """Per relation, "trial t: " + describe(i, k) for its first nonzero lane,
    lane k of the block that holds trial t, or None.  Block by block
    (`lane_blocks`), block(rng, lanes) draws and evaluates the next lanes
    from rng = random.Random(seed) and returns (bad, describe), bad[i]
    marking relation i's nonzero lanes.  No block is drawn once every
    relation has failed.  ValueError when trials is outside 1..MAX_TRIALS."""
    check_trials(trials)
    rng = random.Random(seed)
    found: List[Optional[str]] = [None] * relations
    for start, lanes in lane_blocks(trials):
        if all(found):
            break
        bad, describe = block(rng, lanes)
        for i, row in enumerate(bad):
            if found[i] is None and row.any():
                k = int(row.argmax())
                found[i] = f"trial {(start + k) // LANES_PER_TRIAL}: {describe(i, k)}"
    return found


# perfbench/tracing.py counts F_p[i] lane operations under this name.
QI = FpLanes
