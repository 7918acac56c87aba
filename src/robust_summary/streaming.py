"""Single-pass summary construction with threshold buckets and weight-based swaps.

Arrivals first pass through a bounded buffer of the d most valuable elements
seen; whatever that buffer pops is filed into geometric threshold buckets by
its current marginal gain.  Whenever a bucket reaches the drain cap, elements
are pulled out uniformly at random, gated by a Bernoulli coin, and either
added to the candidate solution directly or swapped against the lightest
element of the circuit they would close - provided their weight beats the
swap margin.  Every change of the candidate triggers a rebucketing.

The state keeps the gain each element was filed by.  A rebucketing refiles
only what the change can move: the filed elements that depend on an element
that entered or left the candidate (``Objective.dependents``).  With
``exact_gains`` every other filed gain is bit for bit the gain a fresh query
would return (see ``rebucket``), so a drained element's weight is read from
its filed gain.  The active window (``tau_min`` and the lowest live bucket)
depends on the anchor delta alone and moves only when delta grows.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .matroids import Matroid
from .objectives import Objective
from .summary import StreamAudit, Summary, SummaryEntry
from .thresholds import PowerLadder


def drain_cap(d: int, epsilon: float) -> int:
    """Bucket size at which a streaming bucket drains: ceil(d/epsilon), floored at 1."""
    return max(1, math.ceil(d / epsilon))


@dataclass(frozen=True)
class StreamingConfig:
    """Streaming builder parameters.

    gamma (swap margin) and sample_prob default per objective class: the
    non-monotone run uses gamma = 1.746 with sample_prob = 1/(gamma+2), the
    monotone run disables subsampling (gamma = 1, sample_prob = 1).
    """

    epsilon: float
    d: int
    monotone_mode: bool = False
    gamma: float | None = None
    sample_prob: float | None = None
    seed: int = 0
    audit: bool = False

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.d < 0:
            raise ValueError("deletion budget d must be non-negative")
        if self.gamma is not None and not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if self.sample_prob is not None and not 0.0 < self.sample_prob <= 1.0:
            raise ValueError("sample_prob must lie in (0, 1]")

    @property
    def gamma_value(self) -> float:
        if self.gamma is not None:
            return self.gamma
        return 1.0 if self.monotone_mode else 1.746

    @property
    def sample_prob_value(self) -> float:
        if self.sample_prob is not None:
            return self.sample_prob
        return 1.0 if self.monotone_mode else 1.0 / (self.gamma_value + 2.0)

    @property
    def drain_cap(self) -> int:
        return drain_cap(self.d, self.epsilon)


class StreamState:
    """Mutable state of one streaming run.  Strictly sequential per stream."""

    def __init__(self, config: StreamingConfig, k: int):
        if k < 1:
            raise ValueError("matroid rank must be at least 1")
        self.config = config
        self.k = k
        self.ladder = PowerLadder(1.0 + config.epsilon)
        # in insertion order; an entry's gain is its element's swap weight
        self.candidate: dict[int, SummaryEntry] = {}
        # replaced on every change, never mutated: the oracles know it by identity
        self.candidate_set: frozenset[int] = frozenset()
        self.buckets: dict[int, list[int]] = {}  # exponent -> sorted ids
        # filed element -> the gain it was last filed by: its gain against
        # the current candidate, bit for bit
        self.gains: dict[int, float] = {}
        self.top_buffer: list[tuple[float, int]] = []  # (value, id), size <= d
        self.delta = 0.0
        self.tau_min = 0.0
        self.min_active_exponent: int | None = None
        self.audit = StreamAudit()
        self.upward_moves = 0
        self.upward_moves_after_growth = 0
        self.arrivals = 0
        self.seen: set[int] = set()
        self.peak_memory = 0

    def memory(self) -> int:
        return len(self.candidate) + len(self.top_buffer) + len(self.gains)

    def _note_boundary(self) -> None:
        self.peak_memory = max(self.peak_memory, self.memory())


def _pop_smallest(buffer: list[tuple[float, int]]) -> tuple[float, int]:
    # smallest value leaves; on ties the larger id leaves first
    j = min(range(len(buffer)), key=lambda t: (buffer[t][0], -buffer[t][1]))
    return buffer.pop(j)


def ingest(
    state: StreamState,
    element: int,
    objective: Objective,
    matroid: Matroid,
    rng: np.random.Generator,
) -> StreamState:
    """Process one arrival; drains buckets as a side effect when they fill.

    Outside a drain no bucket is at the cap, so only the bucket the arrival
    is filed into can reach it, and only then is the drain called.
    """
    element = int(element)
    if element in state.seen:
        raise ValueError(f"element {element} arrived twice")
    state.seen.add(element)
    state.arrivals += 1
    cfg = state.config

    value = objective.value((element,))
    if len(state.top_buffer) < cfg.d:
        # warm-up: the first d arrivals are buffered wholesale
        state.top_buffer.append((value, element))
        state._note_boundary()
        return state

    state.top_buffer.append((value, element))
    popped_value, popped = _pop_smallest(state.top_buffer)

    if popped_value > state.delta:
        # the window depends on delta alone, so it moves only when delta grows
        state.delta = popped_value
        state.tau_min = cfg.epsilon / (1.0 + cfg.epsilon) * state.delta / state.k
        # tau_min can underflow to 0 on subnormal anchors; the window then stays open
        if state.tau_min > 0.0:
            state.min_active_exponent = state.ladder.ceil_exponent(state.tau_min)
            stale = sorted(x for x in state.buckets if x < state.min_active_exponent)
            for x in stale:
                dropped = state.buckets.pop(x)
                for e in dropped:
                    del state.gains[e]
                state.audit.low_value.extend(dropped)

    gain = objective.marginal(popped, state.candidate_set)
    exponent = None
    if not state.tau_min > gain and gain > 0.0:
        exponent = state.ladder.floor_exponent(gain)
        # the window may leave no lattice point at or below the gain
        if state.min_active_exponent is not None and exponent < state.min_active_exponent:
            exponent = None
    if exponent is None:
        state.audit.low_value.append(popped)
        state._note_boundary()
        return state

    bucket = state.buckets.setdefault(exponent, [])
    bisect.insort(bucket, popped)
    state.gains[popped] = gain
    if len(bucket) >= cfg.drain_cap:
        drain_buckets(state, objective, matroid, rng, exponent)
    state._note_boundary()
    return state


def drain_buckets(
    state: StreamState,
    objective: Objective,
    matroid: Matroid,
    rng: np.random.Generator,
    capped: int,
) -> StreamState:
    """Pull elements out of capped buckets until none is at the cap.

    Called when bucket ``capped`` has just reached the cap while no other
    bucket is at it; the highest capped bucket drains first.  Per drained
    element the draw order is fixed: bucket-index draw first, Bernoulli coin
    second, so traces replay exactly.  Between rebuckets a drain only
    shrinks its own bucket, so the capped buckets are listed again only
    after a rebucket.

    A drained element's weight is its marginal against the current
    candidate: the gain it is filed by.
    """
    cfg = state.config
    cap = cfg.drain_cap
    over = [capped]
    while over:
        exponent = max(over)
        bucket = state.buckets[exponent]
        g = bucket.pop(int(rng.integers(len(bucket))))
        weight = state.gains.pop(g)
        if len(bucket) < cap:
            over.remove(exponent)
        if not bucket:
            del state.buckets[exponent]
        state.audit.drained.append(g)

        state.audit.weight_log.append((g, weight))
        accepted = bool(rng.random() < cfg.sample_prob_value)

        changed = ()
        if matroid.fits(g, state.candidate_set):
            if accepted:
                state.candidate[g] = SummaryEntry(g, exponent, weight)
                state.candidate_set = state.candidate_set | {g}
                changed = (g,)
            else:
                state.audit.sample_rejected.append(g)
        else:
            cycle = matroid.circuit(state.candidate_set, g)
            lightest, victim = min(
                (weight if y == g else state.candidate[y].gain, y) for y in cycle
            )
            if weight > (1.0 + cfg.gamma_value) * lightest:
                if accepted:
                    del state.candidate[victim]
                    state.audit.swapped_out.append((victim, lightest))
                    state.candidate[g] = SummaryEntry(g, exponent, weight)
                    state.candidate_set = (state.candidate_set - {victim}) | {g}
                    changed = (g, victim)
                else:
                    state.audit.sample_rejected.append(g)
            else:
                state.audit.swap_failed.append(g)

        if changed:
            if cfg.audit and not matroid.is_independent(state.candidate_set):
                raise AssertionError("candidate solution became dependent")
            # a lone changed element entered: the candidate only grew
            rebucket(state, objective, changed, solution_grew=len(changed) == 1)
            over = [x for x in state.buckets if len(state.buckets[x]) >= cap]
    return state


def rebucket(
    state: StreamState,
    objective: Objective,
    changed: Iterable[int] | None = None,
    solution_grew: bool = False,
) -> StreamState:
    """Refile each filed element the candidate change can move, by its fresh marginal.

    ``changed`` lists the elements that entered or left the candidate; None
    refiles every element.  Otherwise an element is refiled when it depends
    on a changed element (``Objective.dependents``; None there also means
    every element).  Every other element keeps its bucket and its filed
    gain, which is exactly what a full refile would give it: with
    ``exact_gains`` its computed gain is unchanged, bit for bit, since it
    was filed.  An objective without exact gains has every element refiled,
    since a difference of two float values can move by an ulp where the
    exact gain did not.

    The fresh marginals become the filed gains.  Elements falling under the
    active window are discarded.  When the candidate only grew, gains cannot
    rise, so upward moves are tracked separately from the legitimate ones a
    swap can cause: with exact gains ``upward_moves_after_growth`` stays 0.
    """
    affected = None
    if changed is not None and objective.exact_gains:
        affected = set()
        for x in changed:
            dependents = objective.dependents(x)
            if dependents is None:
                affected = None
                break
            affected |= dependents
    moving = []  # (old exponent, element), by exponent descending, then id
    for x in sorted(state.buckets, reverse=True):
        bucket = state.buckets[x]
        picked = bucket if affected is None else [e for e in bucket if e in affected]
        if not picked:
            continue
        moving.extend((x, e) for e in picked)
        if len(picked) == len(bucket):
            del state.buckets[x]
        else:
            state.buckets[x] = [e for e in bucket if e not in affected]
    gains = objective.gains([e for _, e in moving], state.candidate_set)
    live = [not (state.tau_min > gain or gain <= 0.0) for gain in gains]
    new_exponents = iter(
        state.ladder.floor_exponents([gain for gain, ok in zip(gains, live) if ok])
    )
    for (exponent, e), gain, ok in zip(moving, gains, live):
        new_exponent = next(new_exponents) if ok else None
        if new_exponent is None or (
            state.min_active_exponent is not None
            and new_exponent < state.min_active_exponent
        ):
            del state.gains[e]
            state.audit.low_value.append(e)
            continue
        if new_exponent > exponent:
            state.upward_moves += 1
            if solution_grew:
                state.upward_moves_after_growth += 1
        bisect.insort(state.buckets.setdefault(new_exponent, []), e)
        state.gains[e] = gain
    return state


def finalize(state: StreamState) -> Summary:
    """Close the stream: reservoir = top buffer plus surviving buckets."""
    cfg = state.config
    entries = list(state.candidate.values())
    buckets = {x: list(state.buckets[x]) for x in sorted(state.buckets, reverse=True)}
    counters = {
        "arrivals": state.arrivals,
        "drained": len(state.audit.drained),
        "swapped_out": len(state.audit.swapped_out),
        "sample_rejected": len(state.audit.sample_rejected),
        "swap_failed": len(state.audit.swap_failed),
        "low_value": len(state.audit.low_value),
        "upward_moves": state.upward_moves,
        "upward_moves_after_growth": state.upward_moves_after_growth,
    }
    return Summary(
        mode="streaming",
        n=state.arrivals,
        k=state.k,
        d=cfg.d,
        epsilon=cfg.epsilon,
        monotone=cfg.monotone_mode,
        seed=cfg.seed,
        delta=state.delta,
        entries=entries,
        buckets=buckets,
        top_buffer=sorted(e for _, e in state.top_buffer),
        exponents=sorted(buckets, reverse=True),
        counters=counters,
        gamma=cfg.gamma_value,
        sample_prob=cfg.sample_prob_value,
        peak_memory=state.peak_memory,
        audit=state.audit,
    )


def stream_summary(
    objective: Objective,
    matroid: Matroid,
    config: StreamingConfig,
    order: Iterable[int],
    rng: np.random.Generator | None = None,
) -> Summary:
    """Feed the whole arrival order through one stream and finalize."""
    if matroid.n != objective.n:
        raise ValueError("objective and matroid ground sets differ")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = StreamState(config, matroid.k)
    for element in order:
        ingest(state, element, objective, matroid, rng)
    return finalize(state)
