"""Geometric threshold lattices with reproducible power evaluation.

``threshold_lattice`` is the one rule both builders follow: which exponents
are live for an anchor delta, and where a gain files.  The centralized sweep
walks its exponents; the stream rebuilds it when delta grows and files each
gain by its ``filing_exponent``.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence


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

    def powers(self, lo: int, hi: int) -> list[float]:
        """``[power(i) for i in range(lo, hi + 1)]``, as slices of the memoized powers."""
        if lo > hi:
            return []
        self.power(lo)  # evaluates every power from lo up to 0, if lo < 0
        self.power(hi)
        below = self._neg[-lo : max(-hi - 1, 0) : -1] if lo < 0 else []
        return (below + self._pos[max(lo, 0) : hi + 1]) if hi >= 0 else below

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

    def estimate(self, x: float) -> tuple[float, float]:
        """log(x)/log(base), and how many steps ``floor_exponent(x)`` can lie from it; x > 0.

        power(i) lies within |i| + 1 roundings of base**i, and the floor and
        the logs add two steps.  A subnormal quotient can fall by as little
        as a sixth of a step, so six times the steps from x up to the
        smallest normal double are added under it.  No power is evaluated.
        """
        t = math.log(x) / self._log_base
        margin = 2.0 + 2.0**-50 * (abs(t) + 3.0) / self._log_base
        if x < sys.float_info.min:
            margin += 6.0 * (math.log(sys.float_info.min / x) / self._log_base + 1.0)
        return t, margin


@dataclass(frozen=True)
class ThresholdLattice:
    """Descending geometric thresholds (1+eps)**i covering (lower, delta].

    ``exponents`` is empty when delta <= 0 (no positive values to chase).
    ``table`` holds the powers from the lowest exponent to one step above
    the highest, ascending; it is empty with the exponents.
    """

    epsilon: float
    delta: float
    lower: float
    exponents: tuple[int, ...]
    ladder: PowerLadder = field(repr=False, compare=False)
    table: list[float] = field(repr=False, compare=False)

    def power(self, i: int) -> float:
        return self.ladder.power(i)

    @property
    def size(self) -> int:
        return len(self.exponents)

    def filing_exponent(self, gain: float) -> int | None:
        """The exponent a gain files at: ``ladder.floor_exponent(gain)``, if live.

        None for a gain under the lowest power, for one that is not
        positive or is NaN, and on an empty lattice.  The powers strictly
        rise with the exponent, so counting the table's powers at or below
        the gain finds the exponent; the ladder is asked only for a gain at
        or above the table's top (a gain above delta, which an objective
        without exact gains can give).
        """
        table = self.table
        i = bisect.bisect_right(table, gain)
        if 0 < i < len(table):
            return self.exponents[-1] + i - 1
        # under the lowest power, an empty table, or NaN (it bisects to the top)
        if i == 0 or not gain > 0.0:
            return None
        return self.ladder.floor_exponent(gain)


# The range each builder parameter must lie in, and its wording in errors.
# NaN fails every comparison, so it is outside every range.
_PARAMETER_RULES = {
    "k": (lambda k: k >= 1, "at least 1"),
    "d": (lambda d: d >= 0, "non-negative"),
    "epsilon": (lambda x: 0.0 < x < 1.0, "in (0, 1)"),
    "seed": (lambda s: s >= 0, "non-negative"),
}


def check_parameter(name: str, value, label: str | None = None, text: str | None = None):
    """``value`` of builder parameter ``name`` (k, d, epsilon or seed) if it lies in its range.

    Otherwise a ValueError "<label> must be <range>, got <text>", ``label``
    defaulting to ``name`` and ``text`` to the value itself.
    """
    ok, want = _PARAMETER_RULES[name]
    if not ok(value):
        shown = value if text is None else text
        raise ValueError(f"{label or name} must be {want}, got {shown!r}")
    return value


def threshold_lattice(
    delta: float, k: int, epsilon: float, ladder: PowerLadder | None = None
) -> ThresholdLattice:
    """Exponents i with epsilon*delta/((1+epsilon)*k) < (1+epsilon)**i <= delta.

    Membership is decided on the exactly evaluated powers, never on a pure
    float-log test, so the lattice is reproducible.  The floor ``lower`` is
    evaluated as ``epsilon * delta / ((1.0 + epsilon) * k)`` and a power
    equal to it is left out.  ``ladder``, a ladder of base 1 + epsilon,
    lets a caller that rebuilds the lattice keep its powers; by default a
    new one is made.
    """
    check_parameter("k", k, "matroid rank")
    check_parameter("epsilon", epsilon)
    if ladder is None:
        ladder = PowerLadder(1.0 + epsilon)
    if not delta > 0.0:
        return ThresholdLattice(epsilon, float(delta), 0.0, (), ladder, [])
    lower = _floor(delta, k, epsilon)
    hi = ladder.floor_exponent(delta)
    lo = ladder.floor_exponent(lower) + 1  # smallest exponent strictly above `lower`
    table = ladder.powers(lo, hi + 1) if lo <= hi else []
    return ThresholdLattice(
        epsilon, float(delta), lower, tuple(range(hi, lo - 1, -1)), ladder, table
    )


def _floor(delta: float, k: int, epsilon: float) -> float:
    """The floor of a positive delta's lattice; one that underflows is the smallest double."""
    return max(epsilon * delta / ((1.0 + epsilon) * k), 5e-324)


def may_be_lattice(exponents: Sequence[int], delta: float, k: int, epsilon: float) -> bool:
    """False when ``exponents`` cannot be ``threshold_lattice(delta, k, epsilon).exponents``.

    The lattice runs down by one from ``floor_exponent(delta)`` and holds
    ``floor_exponent(delta) - floor_exponent(lower)`` exponents, which
    ``PowerLadder.estimate`` bounds without evaluating a power.
    """
    if any(a - b != 1 for a, b in zip(exponents, exponents[1:])):
        return False
    if not delta > 0.0:
        return not exponents
    ladder = PowerLadder(1.0 + epsilon)
    top, top_margin = ladder.estimate(delta)
    bottom, bottom_margin = ladder.estimate(_floor(delta, k, epsilon))
    count, margin = top - bottom, top_margin + bottom_margin
    if not exponents:
        return count <= margin
    return abs(exponents[0] - top) <= top_margin and abs(len(exponents) - count) <= margin


def lattice_size_limit(k: int, epsilon: float) -> int:
    """Worst-case count of active thresholds: 1 + ceil(2*ln(k/eps)/eps)."""
    return 1 + math.ceil(2.0 * math.log(k / epsilon) / epsilon)
