"""Offline summary construction: descending threshold sweep with bucket sampling.

Builds a deletion-robust summary in one pass over a geometric threshold
lattice.  At each threshold the pool is scanned into a bucket of feasible
high-marginal elements; while the bucket stays large enough, elements are
drawn uniformly at random into the candidate solution, which insures every
insertion against adversarial deletions.  Leftover buckets are banked into
the reservoir for the post-deletion solve.

The scans are lazy (Minoux 1978): the solution only grows during the sweep,
so by submodularity a gain computed earlier bounds every later gain from
above, and by downward closure an element that once made the solution
dependent never fits again.  Skipping such elements yields exactly the
buckets of a full rescan with fewer oracle queries.  The gain skip needs
``exact_gains``, where the bound holds bit for bit; a gain that is a
difference of two float values can come back an ulp higher after the
solution grows, so an objective without exact gains has every feasible
pool element asked at every scan, as the plain sweep does.  The
infeasible skip holds for every objective.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .matroids import Matroid
from .objectives import Objective, check_monotone_mode
from .summary import BuildConfig, Summary, SummaryEntry
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
    order = sorted(range(len(values)), key=lambda e: (-values[e], e))
    top = sorted(order[: min(d, len(values))])
    delta = float(values[order[d]]) if len(values) > d else 0.0
    return delta, top


def _scan_bucket(pool, solution, tau, objective, matroid, gain_cache, infeasible):
    """Current bucket at threshold tau: feasible pool elements with gain >= tau.

    Skips elements already known to be infeasible and, with ``exact_gains``,
    elements whose cached gain sits below tau; the rest are rechecked, and
    their fresh gains refresh the cache.  Both skips are exact because the
    solution only grows: feasibility never returns once lost (downward
    closure), and exact gains only shrink (submodularity), so a full rescan
    would reject the skipped elements too.  Without exact gains a cached
    gain bounds nothing, and every feasible element is asked.
    """
    exact = objective.exact_gains
    checked = [e for e in pool if not (e in infeasible or exact and gain_cache[e] < tau)]
    fresh: list[int] = []
    for e, fits in zip(checked, matroid.fits_each(checked, solution)):
        if fits:
            fresh.append(e)
        else:
            infeasible.add(e)
    bucket: list[int] = []
    gains: dict[int, float] = {}
    for e, gain in zip(fresh, objective.gains(fresh, solution)):
        gain_cache[e] = gain
        if gain >= tau:
            bucket.append(e)
            gains[e] = gain
    return bucket, gains


def build_summary(
    objective: Objective,
    matroid: Matroid,
    config: BuildConfig,
    rng: np.random.Generator | None = None,
) -> Summary:
    """Run the offline threshold sweep and return the summary.

    Deterministic given (objective, matroid, config.seed): bucket draws map a
    uniform index into the bucket sorted by element id.
    """
    if objective.n == 0:
        raise ValueError("instance is empty")
    if matroid.n != objective.n:
        raise ValueError("objective and matroid ground sets differ")
    check_monotone_mode(objective, config.monotone_mode)
    if rng is None:
        rng = np.random.default_rng(config.seed)

    n = objective.n
    values = [objective.singleton_value(e) for e in range(n)]
    delta, top = compute_delta(values, config.d)
    lattice = threshold_lattice(delta, matroid.k, config.epsilon)
    cap = bucket_cap(matroid.k, config.d, config.epsilon, config.monotone_mode)

    protected = set(top)
    pool = [e for e in range(n) if e not in protected]
    # singleton values are the exact gains at the empty solution
    gain_cache = {e: values[e] for e in pool}
    infeasible: set[int] = set()

    entries: list[SummaryEntry] = []
    # replaced on every pick, never mutated: the oracles know it by identity
    solution: frozenset[int] = frozenset()
    leftover: dict[int, list[int]] = {}

    for exponent in lattice.exponents:
        tau = lattice.power(exponent)
        while True:
            bucket, gains = _scan_bucket(pool, solution, tau, objective, matroid, gain_cache, infeasible)
            if len(bucket) < cap:
                break
            pick = bucket[int(rng.integers(len(bucket)))]
            entries.append(SummaryEntry(pick, exponent, gains[pick]))
            solution = solution | {pick}
            pool.remove(pick)
            if config.audit and not matroid.is_independent(solution):
                raise AssertionError("candidate solution became dependent")
        if bucket:
            leftover[exponent] = list(bucket)
            banked = set(bucket)
            pool = [e for e in pool if e not in banked]

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
        counters={"low_value": len(pool)},
    )
