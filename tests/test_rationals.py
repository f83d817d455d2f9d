import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantoda.rationals import (LANES_PER_TRIAL, MAX_TRIALS, P, TRIALS_PER_BLOCK, FpLanes,
                                first_witnesses, gauss_mul, gauss_str, lane_blocks,
                                random_lanes, random_words)

LANES = 3


def fp_values():
    """Three lanes per value; parts small or anywhere in 0..p-1."""
    part = st.one_of(st.integers(min_value=-20, max_value=20),
                     st.integers(min_value=0, max_value=P - 1))
    lanes = st.lists(part, min_size=LANES, max_size=LANES).map(np.array)
    return st.builds(FpLanes, lanes, lanes)


def _fp(num, den=1):
    return FpLanes(num) / FpLanes(den)


@given(fp_values(), fp_values(), fp_values())
@settings(max_examples=150)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a + (-a) == FpLanes(0)


@given(fp_values().filter(lambda z: not z.zeros().any()), fp_values())
@settings(max_examples=100)
def test_division_inverts_multiplication(a, b):
    assert (FpLanes(1) / a) * a == FpLanes(1)
    assert a.inverse() * a == FpLanes(1)
    assert a / a == FpLanes(1)
    assert FpLanes(1) / a == a.inverse()
    # quotients add, multiply and compare like any other value
    assert (b / a + b) * a == b + b * a
    assert (b / a).zeros().tolist() == b.zeros().tolist()


@given(fp_values(), st.integers(min_value=0, max_value=6))
def test_power_is_repeated_product(a, k):
    expect = FpLanes(1)
    for _ in range(k):
        expect = expect * a
    assert a ** k == expect


@given(fp_values(), fp_values())
@settings(max_examples=100)
def test_lanes_match_python_int_arithmetic(a, b):
    # each lane against the same operation on Python ints mod p, which
    # cannot overflow
    quotient = None if b.zeros().any() else a / b
    for k in range(LANES):
        (ar, ai), (br, bi) = (tuple(x.lane(k)) for x in (a, b))
        assert tuple((a + b).lane(k)) == ((ar + br) % P, (ai + bi) % P)
        assert tuple((a * b).lane(k)) == ((ar * br - ai * bi) % P,
                                          (ar * bi + ai * br) % P)
        if quotient is not None:
            inv = pow((br * br + bi * bi) % P, -1, P)
            assert tuple(quotient.lane(k)) == ((ar * br + ai * bi) * inv % P,
                                               (ai * br - ar * bi) * inv % P)


def test_negative_power():
    a = _fp(np.array([3, 1, -4])) / FpLanes(2) + FpLanes(0, -1) / FpLanes(3)
    assert a ** -2 == FpLanes(1) / (a * a)
    assert a ** -1 * a == FpLanes(1)
    with pytest.raises(ZeroDivisionError):
        FpLanes(0, 0) ** -1
    with pytest.raises(ZeroDivisionError):
        FpLanes(1) / FpLanes(P, -P)        # the zero of F_p[i]
    with pytest.raises(ZeroDivisionError):
        FpLanes(0).inverse()


def test_zero_in_one_lane_is_refused():
    # one zero lane among nonzero ones: no lane divides
    z = FpLanes(np.array([5, P, 2]), np.array([1, -P, 0]))
    assert z.zeros().tolist() == [False, True, False] and (z - z).zeros().all()
    with pytest.raises(ZeroDivisionError):
        FpLanes(1) / z
    with pytest.raises(ZeroDivisionError):
        z ** -1
    with pytest.raises(ZeroDivisionError):
        FpLanes(1) / P


def test_int64_edge_parts_at_p_minus_one():
    # reduced parts are at most p - 1: a*d + b*c <= 2(p-1)^2 < 2^63
    assert 2 * (P - 1) ** 2 < 2 ** 63
    top = np.full(LANES, P - 1)
    a = FpLanes(top, top)                     # -1 - i in every lane
    assert a * a == FpLanes(0, 2)             # (1 + i)^2 = 2i
    assert a * FpLanes(top, -top) == FpLanes(2)
    assert a + a == FpLanes(-2, -2) and a - a == FpLanes(0)
    assert a / a == FpLanes(1) and a ** -3 * a ** 3 == FpLanes(1)
    over = a / FpLanes(top)                   # a divisor of p - 1
    assert over == FpLanes(1, 1) and over * over == FpLanes(0, 2)
    assert sum([a] * 5, FpLanes()) == FpLanes(-5, -5)
    big = FpLanes(np.array([P - 1, 0, 1]), np.array([P - 1, P - 1, 0]))
    re, im = big * big
    assert re.tolist() == [0, (-1) % P, 1] and im.tolist() == [2, 0, 0]


def test_i_squares_to_minus_one():
    assert FpLanes(0, 1) * FpLanes(0, 1) == FpLanes(-1, 0)
    assert FpLanes(0, 1) ** 4 == FpLanes(1)
    assert gauss_mul((0, 1), (0, 1)) == (-1, 0)
    i = FpLanes(np.zeros(LANES, dtype=np.int64), np.ones(LANES, dtype=np.int64))
    assert i * i == FpLanes(-1) and i ** -1 == -i


def test_conjugate_and_modulus():
    a = FpLanes(2) / FpLanes(3) + FpLanes(0, -5) / FpLanes(7)   # 2/3 - 5i/7
    re, im = a
    m = a * FpLanes(re, -im)
    assert m == FpLanes(2 ** 2 * 7 ** 2 + 5 ** 2 * 3 ** 2) / FpLanes(3 ** 2 * 7 ** 2)
    assert m[1] == 0
    assert gauss_mul((2, -5), (2, 5)) == (29, 0)
    # p = 3 mod 4: a^2 + b^2 = 0 mod p forces a = b = 0, so the norm of
    # a nonzero element is nonzero
    assert P % 4 == 3
    assert FpLanes(1, 1) * FpLanes(1, -1) == FpLanes(2)


def test_coercion_with_floats_and_complex():
    a = FpLanes(1, 2)
    assert a + 3 == FpLanes(4, 2) and 3 + a == FpLanes(4, 2)
    assert 2 * a == FpLanes(2, 4) and a - 1 == FpLanes(0, 2) and a / 2 * 2 == a
    # a residue mod p has no float value: mixing is refused
    for bad in (0.5, 1j):
        with pytest.raises(TypeError):
            a + bad
        with pytest.raises(TypeError):
            bad * a
    with pytest.raises(TypeError):
        FpLanes(1.5, 0)
    with pytest.raises(TypeError):
        FpLanes(np.array([1.5, 2.0]))
    assert gauss_str((3, 0)) == "3" and gauss_str((0, -2)) == "-2i"
    assert gauss_str((1, -2)) == "(1-2i)"
    assert gauss_str((2, 1)) == "(2+1i)" and gauss_str((2, -1)) == "(2-1i)"
    assert gauss_str((0, 1)) == "1i"


def test_equality_is_lane_by_lane_on_reduced_values():
    assert FpLanes(P + 1, -1) == FpLanes(1, P - 1)
    assert FpLanes(3, 0) == FpLanes(3) and tuple(FpLanes(3)) == (3, 0)
    lanes = FpLanes(np.array([1, 1 + P, 4]))
    assert lanes == FpLanes(np.array([1, 1, 4]))
    assert lanes != FpLanes(1) and lanes != FpLanes(np.array([1, 1, 5]))
    # a shared value equals lanes that all hold it
    assert FpLanes(np.array([2, 2 + P])) == 2
    assert repr(_fp(np.array([1, 4]), 2)) == f"FpLanes([{(P + 1) // 2}, 2], [0, 0])"
    assert repr(_fp(np.array([1, 4]), 2).lane(1)) == "FpLanes(2, 0)"
    with pytest.raises(TypeError):
        hash(FpLanes(1))


@pytest.mark.parametrize("other", [0.5, 1j, "1", (1, 2), np.int64(1)],
                         ids=["float", "complex", "str", "tuple", "numpy-int"])
def test_equality_with_another_type_is_not_implemented(other):
    # only an FpLanes or an int compares; Python then tries `other`'s side
    a = FpLanes(1, 2)
    assert a.__eq__(other) is NotImplemented and a.__ne__(other) is NotImplemented


def test_immutability():
    a = FpLanes(1, 1)
    with pytest.raises(AttributeError):
        a.re = 2
    with pytest.raises(AttributeError):
        a.extra = 2


def test_random_lanes_draws_distinct_elements_from_low_up():
    rng = random.Random(0)
    vals = random_lanes(rng, 5, 6, 1)
    assert vals.shape == (6, 5) and vals.dtype == np.int64
    for lane in vals.T.tolist():
        assert all(1 <= v < P for v in lane) and len(set(lane)) == 6
    # a range of 4 values drawn 4 at a time takes 24/4096 of the 3-bit word
    # tuples: each lane is drawn again alone until it is a permutation (a
    # whole-block redraw would need 3 good lanes at once)
    small = random_lanes(random.Random(1), 3, 4, P - 4)
    for lane in small.T.tolist():
        assert sorted(lane) == [P - 4, P - 3, P - 2, P - 1]
    assert np.array_equal(random_lanes(random.Random(2), 2, 3),
                          random_lanes(random.Random(2), 2, 3))
    assert random_lanes(random.Random(3), 4, 0).shape == (0, 4)


def test_random_words_are_one_getrandbits_call():
    calls = []

    class Recording(random.Random):
        def getrandbits(self, k):
            calls.append(k)
            return super().getrandbits(k)

    words = random_words(Recording(4), (2, 3, 5))
    assert words.shape == (2, 3, 5) and words.dtype == np.uint64 and calls == [64 * 30]
    bits = random.Random(4).getrandbits(64 * 30)
    assert words.ravel().tolist() == [bits >> 64 * i & (2 ** 64 - 1) for i in range(30)]
    assert random_words(Recording(4), (0, 7)).shape == (0, 7)


class _Words(random.Random):
    """Serves getrandbits from given values, one 64-bit word each with the
    value in its top 31 bits, and records each call's bit count."""

    def __init__(self, values):
        super().__init__(0)
        self.values, self.calls = list(values), []

    def getrandbits(self, k):
        self.calls.append(k)
        taken, self.values = self.values[:k // 64], self.values[k // 64:]
        return sum(v << 33 << 64 * i for i, v in enumerate(taken))


def test_random_lanes_draws_again_only_the_lanes_it_rejects():
    # rows (count, lanes): lane 0 is good, lane 1 repeats a value, lane 2
    # holds P, past the range 0..P-1; the redraw fills lanes 1 and 2 alone
    served = [[7, 5, P], [8, 5, 9], [11, 13], [12, 14]]
    rng = _Words([v for row in served for v in row])
    vals = random_lanes(rng, 3, 2)
    assert vals.tolist() == [[7, 11, 13], [8, 12, 14]]
    assert rng.calls == [64 * 6, 64 * 4]


def test_random_lanes_are_uniform_on_distinct_tuples():
    # 3000 lanes of 2 distinct values from a range of 4: each of the 12
    # ordered pairs expects 250 (sd 15); no lane repeats a value
    counts = Counter(map(tuple, random_lanes(random.Random(5), 3000, 2, P - 4).T.tolist()))
    assert len(counts) == 12 and all(a != b for a, b in counts)
    assert all(175 < n < 325 for n in counts.values())


def test_random_lanes_refuses_more_values_than_the_range_holds():
    for low, count in ((P - 4, 5), (P - 1, 2), (0, P + 1)):
        rng = random.Random(1)
        state = rng.getstate()
        with pytest.raises(ValueError, match="do not fit"):
            random_lanes(rng, 1, count, low)
        assert rng.getstate() == state


def test_lane_blocks_bound_the_lanes_of_one_evaluation():
    block = LANES_PER_TRIAL * TRIALS_PER_BLOCK
    assert lane_blocks(1) == [(0, LANES_PER_TRIAL)]
    assert lane_blocks(TRIALS_PER_BLOCK) == [(0, block)]
    assert lane_blocks(2 * TRIALS_PER_BLOCK + 1) == [
        (0, block), (block, block), (2 * block, LANES_PER_TRIAL)]
    assert max(n for _, n in lane_blocks(10 ** 6)) == block


def test_first_witnesses_names_global_trials_and_stops_when_all_have_failed():
    block = LANES_PER_TRIAL * TRIALS_PER_BLOCK
    # relation -> the global lanes where its value is nonzero
    nonzero = {0: [block + 7], 1: [4, 5, block + 1], 2: [-1]}
    drawn, first_draws = [], []

    def stub(rng, lanes):
        first = sum(drawn)
        drawn.append(lanes)
        first_draws.append(rng.getrandbits(32))
        bad = np.zeros((len(nonzero), lanes), dtype=bool)
        for i, at in nonzero.items():
            for g in at:
                if first <= g < first + lanes:
                    bad[i, g - first] = True
        return bad, lambda i, k: f"relation {i} at lane {first + k}"

    trials = 5 * TRIALS_PER_BLOCK
    found = first_witnesses(3, trials, 9, stub)
    # a later block names its global trial; a relation keeps its first witness
    assert found == [f"trial {TRIALS_PER_BLOCK + 2}: relation 0 at lane {block + 7}",
                     "trial 1: relation 1 at lane 4", None]
    assert drawn == [block] * 5
    # every block draws on from one generator seeded once
    rng = random.Random(9)
    assert first_draws == [rng.getrandbits(32) for _ in range(5)]
    # once every relation has failed, no further block is drawn
    nonzero[2] = [block + 2]
    drawn.clear()
    found = first_witnesses(3, trials, 9, stub)
    assert found[2] == f"trial {TRIALS_PER_BLOCK}: relation 2 at lane {block + 2}"
    assert drawn == [block, block]
    # the last block holds what is left of the trials
    drawn.clear()
    first_witnesses(3, TRIALS_PER_BLOCK + 1, 9, stub)
    assert drawn == [block, LANES_PER_TRIAL]


def test_first_witnesses_refuses_more_than_max_trials_before_any_draw():
    # README documents the bound: 1000 trials
    def stub(rng, lanes):
        raise AssertionError("nothing may be drawn")
    with pytest.raises(ValueError, match="^trials must be at most 1000, got 1001$"):
        first_witnesses(1, 1001, 0, stub)
    drawn = []
    first_witnesses(1, 1000, 0, lambda rng, lanes: drawn.append(lanes) or (
        [np.zeros(lanes, dtype=bool)], None))
    assert sum(drawn) == LANES_PER_TRIAL * 1000 == LANES_PER_TRIAL * MAX_TRIALS


@pytest.mark.parametrize("trials", [0, -5])
def test_first_witnesses_refuses_fewer_than_one_trial(trials):
    def stub(rng, lanes):
        raise AssertionError("nothing may be drawn")
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}"):
        first_witnesses(1, trials, 0, stub)
