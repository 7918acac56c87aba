"""Geometric threshold lattices with reproducible power evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class PowerLadder:
    """Evaluates base**i by repeated multiplication from a single base.

    Threshold membership decisions compare marginals against exact lattice
    points; evaluating every power incrementally pins each lattice point to
    one specific double, so decisions replay bit-for-bit.  math.pow could
    round the same exponent differently from the products the sweep logic
    reasons about.  A negative power is the reciprocal of the positive one
    while that is finite; below it, where the reciprocal would be 0.0, each
    power is the next one up divided by the base, down through the
    subnormals until a division no longer falls; every power below that is
    0.0.  Both steps are correctly rounded and monotone, so the powers never
    rise as i falls, and the positive ones strictly fall.
    """

    def __init__(self, base: float):
        base = float(base)
        if not base > 1.0:
            raise ValueError("base of a threshold ladder must exceed 1")
        self.base = base
        self._log_base = math.log(base)
        self._pos = [1.0]
        self._neg = [1.0]  # power(-i) at index i

    def power(self, i: int) -> float:
        if i < 0:
            neg = self._neg
            while len(neg) <= -i:
                above = self.power(len(neg))
                step = 1.0 / above if above < math.inf else neg[-1] / self.base
                # a subnormal too coarse to fall by a step ends the ladder at 0.0
                neg.append(step if step < neg[-1] else 0.0)
            return neg[-i]
        while len(self._pos) <= i:
            self._pos.append(self._pos[-1] * self.base)
        return self._pos[i]

    def floor_exponent(self, x: float) -> int:
        """Largest i with power(i) <= x.  Requires x > 0."""
        if not x > 0.0:
            raise ValueError("floor_exponent needs a positive argument")
        guess = int(math.floor(math.log(x) / self._log_base))
        # the log guess can be off by a step or two; settle it against the
        # exact evaluated powers
        while self.power(guess + 1) <= x:
            guess += 1
        while self.power(guess) > x:
            guess -= 1
        return guess

    def floor_exponents(self, xs: Sequence[float]) -> list[int]:
        """``[floor_exponent(x) for x in xs]`` by one search in a table of powers.

        The evaluated powers never decrease with i (see the class), so
        counting the table entries <= x finds the largest such i, as
        floor_exponent does.
        """
        if not len(xs):
            return []
        low, high = self.floor_exponent(min(xs)), self.floor_exponent(max(xs))
        table = [self.power(i) for i in range(low, high + 2)]
        return (np.searchsorted(table, xs, side="right") + (low - 1)).tolist()

    def ceil_exponent(self, x: float) -> int:
        """Smallest i with power(i) >= x.  Requires x > 0."""
        j = self.floor_exponent(x)
        return j if self.power(j) == x else j + 1


@dataclass(frozen=True)
class ThresholdLattice:
    """Descending geometric thresholds (1+eps)**i covering (lower, delta].

    ``exponents`` is empty when delta <= 0 (no positive values to chase).
    """

    epsilon: float
    delta: float
    lower: float
    exponents: tuple[int, ...]
    ladder: PowerLadder = field(repr=False, compare=False)

    def power(self, i: int) -> float:
        return self.ladder.power(i)

    @property
    def size(self) -> int:
        return len(self.exponents)


def threshold_lattice(delta: float, k: int, epsilon: float) -> ThresholdLattice:
    """Exponents i with epsilon*delta/((1+epsilon)*k) < (1+epsilon)**i <= delta.

    Membership is decided on the exactly evaluated powers, never on a pure
    float-log test, so the lattice is reproducible.
    """
    if k < 1:
        raise ValueError("matroid rank must be at least 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    ladder = PowerLadder(1.0 + epsilon)
    if not delta > 0.0:
        return ThresholdLattice(epsilon, float(delta), 0.0, (), ladder)
    lower = epsilon * delta / ((1.0 + epsilon) * k)
    if lower <= 0.0:
        # subnormal delta underflowed the window floor; clamp to the smallest
        # positive double so the lattice stays finite
        lower = 5e-324
    hi = ladder.floor_exponent(delta)
    lo = ladder.floor_exponent(lower) + 1  # smallest exponent strictly above `lower`
    return ThresholdLattice(epsilon, float(delta), lower, tuple(range(hi, lo - 1, -1)), ladder)


def lattice_size_limit(k: int, epsilon: float) -> int:
    """Worst-case count of active thresholds: 1 + ceil(2*ln(k/eps)/eps)."""
    return 1 + math.ceil(2.0 * math.log(k / epsilon) / epsilon)
