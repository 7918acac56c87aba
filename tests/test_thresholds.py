"""Threshold lattice construction and exact power evaluation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from robust_summary import (
    CentralizedConfig,
    DeletionStrategy,
    PowerLadder,
    StreamingConfig,
    StreamState,
    lattice_size_limit,
    make_modular,
    make_uniform,
    stream_summary,
    threshold_lattice,
)
from robust_summary.thresholds import may_be_lattice


def _direct_power(base, i):
    # oracle: same repeated-multiplication convention, written independently
    p = 1.0
    for _ in range(abs(i)):
        p *= base
    return p if i >= 0 else 1.0 / p


def test_power_ladder_matches_direct_evaluation():
    ladder = PowerLadder(1.1)
    for i in range(-40, 41):
        assert ladder.power(i) == _direct_power(1.1, i)


def test_floor_exponents():
    ladder = PowerLadder(1.25)
    for i in range(-20, 21):
        x = ladder.power(i)
        assert ladder.floor_exponent(x) == i
        assert ladder.floor_exponent(x * 1.01) == i
    with pytest.raises(ValueError):
        ladder.floor_exponent(0.0)


def test_lattice_window_delta_one():
    # delta=1, k=1, eps=0.1: all i with 1/11 < 1.1**i <= 1
    lattice = threshold_lattice(1.0, 1, 0.1)
    assert lattice.exponents == tuple(range(0, -26, -1))
    # verified by direct power evaluation at the window edges
    assert _direct_power(1.1, -25) > 0.1 / 1.1
    assert _direct_power(1.1, -26) <= 0.1 / 1.1
    assert _direct_power(1.1, 0) <= 1.0
    assert _direct_power(1.1, 1) > 1.0


def test_centralized_lattice_leaves_out_a_power_equal_to_its_floor():
    # eps=0.1, k=1, delta=11: the floor is exactly 1.0 = 1.1**0, and the
    # lattice leaves that power out; a stream anchored at 11.0 does the same
    # (test_streaming)
    lattice = threshold_lattice(11.0, 1, 0.1)
    assert lattice.lower == 1.0 == lattice.power(0)
    assert lattice.exponents == tuple(range(25, 0, -1))
    assert lattice.filing_exponent(1.0) is None
    assert lattice.filing_exponent(1.1) == 1


def test_lattice_membership_by_direct_powers():
    for delta, k, eps in [(7.3, 4, 0.2), (0.02, 2, 0.45), (123.0, 10, 0.1)]:
        lattice = threshold_lattice(delta, k, eps)
        lower = eps * delta / ((1 + eps) * k)
        members = set(lattice.exponents)
        for i in range(min(members) - 5, max(members) + 6):
            inside = lower < _direct_power(1 + eps, i) <= delta
            assert (i in members) == inside
        assert list(lattice.exponents) == sorted(members, reverse=True)


def test_empty_lattice_when_delta_zero():
    assert threshold_lattice(0.0, 3, 0.1).exponents == ()
    assert threshold_lattice(-1.0, 3, 0.1).exponents == ()


def test_size_limit_formula():
    # k=100, eps=0.1: 1 + ceil(2*ln(1000)/0.1) = 140
    assert lattice_size_limit(100, 0.1) == 1 + math.ceil(2 * math.log(1000) / 0.1) == 140
    for delta, k, eps in [(5.0, 3, 0.1), (1.0, 1, 0.1), (40.0, 100, 0.1), (2.0, 5, 0.3)]:
        assert threshold_lattice(delta, k, eps).size <= lattice_size_limit(k, eps)


def test_tiny_deltas_never_crash_the_lattice():
    # a normal-range tiny delta still yields a working window
    lattice = threshold_lattice(1e-300, 2, 0.4)
    assert lattice.exponents
    assert lattice.power(lattice.exponents[0]) <= 1e-300
    assert lattice.power(lattice.exponents[-1]) > lattice.lower
    # below 1/DBL_MAX the ladder goes on down through the subnormals, so a
    # subnormal delta keeps a window; at the smallest double none is left,
    # and the underflow clamp only has to avoid a crash
    assert threshold_lattice(5e-324, 2, 0.4).exponents == ()
    tiny = threshold_lattice(1e-320, 2, 0.4)
    assert tiny.exponents
    assert all(tiny.lower < tiny.power(i) <= 1e-320 for i in tiny.exponents)


@pytest.mark.parametrize("base", [1.001, 1.05, 1.1, 1.2, 1.9])
def test_powers_never_rise_as_the_exponent_falls(base):
    ladder = PowerLadder(base)
    # from above 1 down past the smallest double, where the powers reach 0.0
    low = math.floor(math.log(5e-324) / math.log(base)) - 40
    powers = [ladder.power(i) for i in range(8, low - 1, -1)]
    assert all(a >= b for a, b in zip(powers, powers[1:]))
    assert all(a > b for a, b in zip(powers, powers[1:]) if b > 0.0)
    assert powers[-1] == 0.0
    # the reciprocals of finite positive powers are kept as they were
    for i in range(1, 2000):
        if ladder.power(i) < math.inf:
            assert ladder.power(-i) == 1.0 / ladder.power(i)


@settings(max_examples=150, deadline=None)
@given(
    base=st.sampled_from([1.01, 1.05, 1.2, 1.9]),
    where=st.sampled_from(["below 0", "across 0", "above 0", "subnormal"]),
    offset=st.integers(0, 400),
    length=st.integers(-1, 120),
    fresh=st.booleans(),
)
def test_powers_slice_equals_power_of_each_exponent(base, where, offset, length, fresh):
    # the slice comes from a new ladder or from one already part-filled; the
    # reference ladder evaluates each power on its own, in the other order
    reference = PowerLadder(base)
    # a positive subnormal power, with up to 60 exponents under it, 0.0 ones included
    subnormal = reference.floor_exponent(1e-315)
    lo = {
        "below 0": -offset - 1 - max(length, 0),
        "across 0": -offset - 1,
        "above 0": offset,
        "subnormal": subnormal - offset % 60,
    }[where]
    hi = lo + length
    sliced = PowerLadder(base)
    if not fresh:
        sliced.power(lo + length // 2)
    expected = [reference.power(i) for i in range(hi, lo - 1, -1)][::-1]
    assert [x.hex() for x in sliced.powers(lo, hi)] == [x.hex() for x in expected]
    assert len(expected) == max(length + 1, 0)
    if where == "across 0" and length > offset + 1:
        assert lo < 0 < hi
    if where == "subnormal" and hi >= subnormal:
        assert 0.0 < reference.power(subnormal) < 2.2250738585072014e-308


def test_lattice_table_is_the_ladders_powers_over_its_window():
    for delta, k, epsilon in [(3.0, 35, 0.2), (1e-310, 2, 0.3), (1e300, 4, 0.05), (0.7, 1, 0.5)]:
        lattice = threshold_lattice(delta, k, epsilon)
        lo, hi = lattice.exponents[-1], lattice.exponents[0]
        assert lattice.table == [PowerLadder(1.0 + epsilon).power(i) for i in range(lo, hi + 2)]


@pytest.mark.parametrize("base", [1.001, 1.05, 1.1, 1.2, 1.9])
def test_every_subnormal_has_a_lattice_point_at_or_below_it(base):
    ladder = PowerLadder(base)
    xs = [5e-324 * 2.0**j for j in range(0, 52)] + [1e-311 * 1.37**j for j in range(20)]
    xs += [x * f for x in xs for f in (0.999, 1.001)]
    xs = [x for x in xs if 0.0 < x < 2.2250738585072014e-308]
    expected = [ladder.floor_exponent(x) for x in xs]
    for x, i in zip(xs, expected):
        assert ladder.power(i) <= x < ladder.power(i + 1)
        # 1e-311 and the like sit above a positive lattice point
        if x >= 1e-320:
            assert ladder.power(i) > 0.0
    # a lattice over the subnormals files each gain as the literal rule does
    for delta in (1e-309, 2.2250738585072014e-308):
        lattice = threshold_lattice(delta, 3, base - 1.0)
        assert lattice.exponents
        for x, i in zip(xs, expected):
            assert lattice.filing_exponent(x) == _literal_filing_exponent(lattice, x)
            if x >= lattice.power(lattice.exponents[-1]):
                assert lattice.filing_exponent(x) == i


def test_lattice_rejects_bad_parameters():
    with pytest.raises(ValueError):
        threshold_lattice(1.0, 0, 0.1)
    with pytest.raises(ValueError):
        threshold_lattice(1.0, 3, 1.5)


def _state(epsilon, k=3):
    return StreamState(StreamingConfig(epsilon=epsilon, d=1), k)


def _literal_filing_exponent(lattice, gain):
    """The filing rule as written: floor_exponent, if at or above the lowest exponent."""
    if not lattice.exponents or not gain > 0.0:
        return None
    exponent = lattice.ladder.floor_exponent(gain)
    return exponent if exponent >= lattice.exponents[-1] else None


def _probes(ladder, low, high):
    """Each lattice point from ``low`` to ``high``, and one step either side of it."""
    gains = []
    for i in range(low, high + 1):
        p = ladder.power(i)
        gains += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    return [g for g in gains if 0.0 < g < math.inf]


class _CountingLadder(PowerLadder):
    calls = 0

    def floor_exponent(self, x):
        _CountingLadder.calls += 1
        return super().floor_exponent(x)


@pytest.mark.parametrize("epsilon", [0.001, 0.05, 0.1, 0.2, 0.9])
def test_filing_exponent_matches_the_literal_rule(epsilon):
    state = _state(epsilon)
    ladder = state.lattice.ladder
    # no anchor yet: the lattice is empty and files nothing
    for gain in _probes(ladder, -40, 40) + [5e-324, 1e-320, 1e300]:
        assert state.lattice.filing_exponent(gain) is None
    # delta grows between calls, and the stream's lattice is the sweep's
    for delta in (1e-300, 0.37, 1.0, 2.5e3, 1e200):
        state.raise_delta(delta)
        lattice = state.lattice
        assert lattice == threshold_lattice(delta, 3, epsilon)
        low, top = lattice.exponents[-1], ladder.floor_exponent(delta) + 1
        assert lattice.table == [ladder.power(i) for i in range(low, top + 1)]
        gains = _probes(ladder, low - 3, top + 3)
        # at and under the floor, between the floor and the lowest power, above the top
        gains += [lattice.lower, math.nextafter(lattice.lower, 0.0), delta, 10.0 * delta]
        gains += [ladder.power(top + 5) * 1.5, 1e300]
        for gain in gains:
            exponent = lattice.filing_exponent(gain)
            assert exponent == _literal_filing_exponent(lattice, gain), (delta, gain)
            assert exponent is None or type(exponent) is int
        # the gains above the table are filed, each above its top
        assert lattice.filing_exponent(10.0 * delta) > top >= lattice.filing_exponent(delta)


def test_filing_exponent_asks_the_ladder_only_outside_the_window():
    state = _state(0.2)
    state.lattice.ladder.__class__ = _CountingLadder
    state.raise_delta(7.0)
    lattice = state.lattice
    top = lattice.exponents[0] + 1
    before = _CountingLadder.calls
    for gain in _probes(lattice.ladder, lattice.exponents[-1] - 2, top - 1) + [7.0]:
        lattice.filing_exponent(gain)
    assert _CountingLadder.calls == before
    assert lattice.filing_exponent(lattice.ladder.power(top)) == top
    assert _CountingLadder.calls == before + 1


def test_filing_exponent_files_no_zero_negative_or_nan_gain():
    state = _state(0.1)
    # no anchor, a subnormal anchor with an empty lattice, then a lattice
    for delta in (None, 5e-324, 1.0):
        if delta is not None:
            state.raise_delta(delta)
        for gain in (0.0, -0.0, -5e-324, -1.0, -math.inf, math.nan):
            assert state.lattice.filing_exponent(gain) is None
            assert _literal_filing_exponent(state.lattice, gain) is None


def test_a_subnormal_anchor_leaves_no_window():
    # the floor underflows: the lattice of 5e-324 is empty, as the sweep's is
    state = _state(0.4, k=1)
    state.raise_delta(5e-324)
    assert state.lattice.exponents == () == threshold_lattice(5e-324, 1, 0.4).exponents
    for gain in [5e-324, 1e-320, 2.2e-308, 0.5, 3.0, 1e300]:
        assert state.lattice.filing_exponent(gain) is None
    # the first anchor with live exponents files again
    state.raise_delta(1.0)
    assert state.lattice.exponents
    assert state.lattice.filing_exponent(1e-320) is None
    assert state.lattice.filing_exponent(1.0) == 0
    # a whole stream anchored at 5e-324 files nothing
    config = StreamingConfig(epsilon=0.4, d=0, monotone_mode=True, audit=True)
    summary = stream_summary(make_modular([5e-324] * 3), make_uniform(3, 1), config, [0, 1, 2])
    assert summary.delta == 5e-324 and summary.buckets == {} and summary.solution == []
    assert summary.audit.low_value == [0, 1, 2]


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 2.0, math.nan, math.inf])
def test_every_builder_refuses_the_same_epsilon_in_the_same_words(epsilon):
    for build in (
        lambda: CentralizedConfig(epsilon=epsilon, d=1),
        lambda: StreamingConfig(epsilon=epsilon, d=1),
        lambda: threshold_lattice(1.0, 2, epsilon),
    ):
        with pytest.raises(ValueError, match=rf"^epsilon must be in \(0, 1\), got {epsilon!r}$"):
            build()


def test_every_builder_refuses_the_same_d_and_k_in_the_same_words():
    for build in (
        lambda: CentralizedConfig(epsilon=0.1, d=-1),
        lambda: StreamingConfig(epsilon=0.1, d=-1),
        lambda: DeletionStrategy("top-value", d=-1),
    ):
        with pytest.raises(ValueError, match=r"deletion budget( d)? must be non-negative, got -1$"):
            build()
    for build in (
        lambda: threshold_lattice(1.0, 0, 0.1),
        lambda: StreamState(StreamingConfig(epsilon=0.1, d=1), 0),
    ):
        with pytest.raises(ValueError, match=r"^matroid rank must be at least 1, got 0$"):
            build()


@pytest.mark.parametrize("epsilon", [0.01, 0.1, 0.5, 0.9])
def test_may_be_lattice_passes_every_lattice_and_refuses_far_lines(epsilon):
    # subnormal anchors and floors widen the margins; normal ones are within a few steps
    deltas = (5e-324, 1e-320, 3e-310, 2.2250738585072014e-308, 1e-300, 1e-200, 0.37, 1.0,
              7.0, 1e200, 1.7e308)
    ladder = PowerLadder(1.0 + epsilon)
    for delta in deltas:
        for k in (1, 7, 1000):
            exponents = list(threshold_lattice(delta, k, epsilon, ladder).exponents)
            assert may_be_lattice(exponents, delta, k, epsilon), (delta, k)
            if delta < 1e-200 or not exponents:
                continue
            low = exponents[-1]
            for wrong in (
                [x + 5 for x in exponents],
                [x - 5 for x in exponents],
                exponents + list(range(low - 1, low - 11, -1)),
                exponents[:1] + [low - 2],  # a gap
            ):
                assert not may_be_lattice(wrong, delta, k, epsilon), (delta, k, wrong[:3])
    assert may_be_lattice([], 0.0, 1, epsilon) and not may_be_lattice([0], 0.0, 1, epsilon)
