"""Threshold lattice construction and exact power evaluation."""

import math

import pytest

from robust_summary import (
    CentralizedConfig,
    DeletionStrategy,
    PowerLadder,
    StreamingConfig,
    StreamState,
    lattice_size_limit,
    threshold_lattice,
)


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


def test_floor_and_ceil_exponents():
    ladder = PowerLadder(1.25)
    for i in range(-20, 21):
        x = ladder.power(i)
        assert ladder.floor_exponent(x) == i
        assert ladder.ceil_exponent(x) == i
        assert ladder.floor_exponent(x * 1.01) == i
        assert ladder.ceil_exponent(x * 1.01) == i + 1
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
    assert ladder.floor_exponents(xs) == expected
    assert ladder.floor_exponents(sorted(xs)) == sorted(expected)


def test_lattice_rejects_bad_parameters():
    with pytest.raises(ValueError):
        threshold_lattice(1.0, 0, 0.1)
    with pytest.raises(ValueError):
        threshold_lattice(1.0, 3, 1.5)


@pytest.mark.parametrize("base", [1.001, 1.05, 1.1, 1.2, 1.9])
def test_floor_exponents_match_floor_exponent(base):
    ladder = PowerLadder(base)
    xs = []
    for i in list(range(-60, 61)) + [-400, -700, 500]:
        p = ladder.power(i)
        xs += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    # subnormals, down to the smallest positive double
    xs += [5e-324, 1e-320, 2.2e-308, math.nextafter(2.2250738585072014e-308, 0.0)]
    xs = [x for x in xs if x > 0.0]
    expected = [ladder.floor_exponent(x) for x in xs]
    assert ladder.floor_exponents(xs) == expected
    assert all(type(i) is int for i in ladder.floor_exponents(xs))
    assert ladder.floor_exponents(xs[::-1]) == expected[::-1]
    for x in xs[:30]:
        assert ladder.floor_exponents([x]) == [ladder.floor_exponent(x)]
    assert ladder.floor_exponents([]) == []


def test_floor_exponents_reject_non_positive_values():
    ladder = PowerLadder(1.1)
    for xs in ([1.0, 0.0], [-2.0], [3.0, -0.0]):
        with pytest.raises(ValueError, match="positive argument"):
            ladder.floor_exponents(xs)


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
