"""Offline summary construction: descending threshold sweep with bucket sampling.

Builds a deletion-robust summary in one pass over a geometric threshold
lattice.  At each threshold the pool is scanned into a bucket of feasible
high-marginal elements; while the bucket stays large enough, elements are
drawn uniformly at random into the candidate solution, which insures every
insertion against adversarial deletions.  Leftover buckets are banked into
the reservoir for the post-deletion solve.

A scan touches only the elements it can admit (Minoux 1978).  The
unsettled pool sits on one max-heap keyed by a bound on each element's
gain: its last computed gain, the singleton value at first.  A scan at
threshold tau asks the standing bucket, less the pick, and the heap
entries whose bound reaches tau, sorted by id, so the seeded draw indexes
the bucket a full rescan would give.  The skip is exact: the solution only
grows, so with ``exact_gains`` a gain never rises above one computed
earlier, bit for bit, and an element under its bound stays under tau.  A
gain that is a difference of two float values can come back an ulp higher
after the solution grows, so an objective without exact gains keeps every
bound at +inf and has every feasible element asked at every scan, as the
plain sweep does.  An element that once made the solution dependent never
fits again (downward closure) and leaves the pool for good, counted low
value with the elements left on the heap.  The scan asks the oracles
through the kernels ``Matroid.fits_to`` and ``Objective.gains_to`` hand
out, fetched once per pick.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from .matroids import Matroid
from .objectives import Objective, check_monotone_mode
from .summary import BuildConfig, Draws, Summary, SummaryEntry
from .thresholds import threshold_lattice


# the builders take one config (``summary.BuildConfig``), bound to both names
CentralizedConfig = BuildConfig


def bucket_cap(k: int, d: int, epsilon: float, monotone_mode: bool) -> int:
    """Minimum bucket size before sampling may start, floored at 1.

    Monotone objectives only need buckets of d/epsilon similar elements;
    otherwise (k+d)/epsilon.  Ceiling keeps the size comparison on integers
    without flipping its direction.
    """
    raw = (d if monotone_mode else k + d) / epsilon
    return max(1, math.ceil(raw))


def compute_delta(values: Sequence[float], d: int) -> tuple[float, list[int]]:
    """(d+1)-th largest singleton value and the ids of the d largest.

    Ties break toward the smaller id.  With d or fewer elements the anchor is
    0 and every element is protected.
    """
    # stable, as sorted(..., reverse=True) is: equal values keep id order
    order = heapq.nlargest(d + 1, range(len(values)), key=values.__getitem__)
    top = sorted(order[:d])
    delta = float(values[order[d]]) if len(values) > d else 0.0
    return delta, top


def build_summary(
    objective: Objective,
    matroid: Matroid,
    config: BuildConfig,
    rng: np.random.Generator | None = None,
) -> Summary:
    """Run the offline threshold sweep and return the summary.

    Deterministic given (objective, matroid, config.seed): bucket draws map a
    uniform index into the bucket sorted by element id.  The index is drawn
    through ``summary.Draws``, the stream's draw kernel: it is
    ``int(rng.integers(len(bucket)))`` bit for bit, through the bit
    generator's C entry points for a numpy ``Generator`` and through the
    object's own ``integers`` for any other rng.  No other thread may draw
    from ``rng`` while the sweep runs, since the kernel takes no lock.
    """
    if objective.n == 0:
        raise ValueError("instance is empty")
    if matroid.n != objective.n:
        raise ValueError("objective and matroid ground sets differ")
    check_monotone_mode(objective, config.monotone_mode)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    index = Draws(rng).index

    n = objective.n
    values = objective.counted_singleton_values()
    delta, top = compute_delta(values, config.d)
    lattice = threshold_lattice(delta, matroid.k, config.epsilon)
    cap = bucket_cap(matroid.k, config.d, config.epsilon, config.monotone_mode)

    # (-bound, id) per unsettled element: its last gain, or +inf without exact gains
    exact = objective.exact_gains
    protected = set(top)
    heap = [(-values[e] if exact else -math.inf, e) for e in range(n) if e not in protected]
    heapq.heapify(heap)
    dropped = 0  # elements that stopped fitting the solution

    entries: list[SummaryEntry] = []
    # replaced on every pick, never mutated: the oracles know it by identity
    solution: frozenset[int] = frozenset()
    fits, gains = matroid.fits_to(solution), objective.gains_to(solution)
    leftover: dict[int, list[int]] = {}

    for exponent in lattice.exponents:
        tau = lattice.power(exponent)
        bucket: list[int] = []
        while True:
            while heap and heap[0][0] <= -tau:
                bucket.append(heapq.heappop(heap)[1])
            bucket.sort()
            feasible = [e for e in bucket if fits(e)]
            dropped += len(bucket) - len(feasible)
            bucket, bucket_gains = [], []
            for e, gain in zip(feasible, gains(feasible)):
                if gain >= tau:
                    bucket.append(e)
                    bucket_gains.append(gain)
                else:
                    heapq.heappush(heap, (-gain if exact else -math.inf, e))
            if len(bucket) < cap:
                break
            at = index(len(bucket))
            pick = bucket.pop(at)
            entries.append(SummaryEntry(pick, exponent, bucket_gains[at]))
            solution = solution | {pick}
            fits, gains = matroid.fits_to(solution), objective.gains_to(solution)
            if config.audit and not matroid.is_independent(solution):
                raise AssertionError("candidate solution became dependent")
        if bucket:
            leftover[exponent] = bucket

    return Summary(
        mode="centralized",
        n=n,
        k=matroid.k,
        d=config.d,
        epsilon=config.epsilon,
        monotone=config.monotone_mode,
        seed=config.seed,
        delta=delta,
        entries=entries,
        buckets=leftover,
        top_buffer=list(top),
        counters={"low_value": dropped + len(heap)},
    )
