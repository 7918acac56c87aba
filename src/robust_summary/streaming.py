"""Single-pass summary construction with threshold buckets and weight-based swaps.

Arrivals first pass through a bounded buffer of the d most valuable elements
seen; whatever that buffer pops is filed into geometric threshold buckets by
its current marginal gain.  Whenever a bucket reaches the drain cap, elements
are pulled out uniformly at random, gated by a Bernoulli coin, and either
added to the candidate solution directly or swapped against the lightest
element of the circuit they would close - provided their weight beats the
swap margin.  Every change of the candidate triggers a rebucketing.  An
element whose weight cannot beat the margin against the smaller of its own
weight and the lightest candidate gain is refused before its circuit is
built: no circuit member weighs less than that, so the refusal is exact
(see ``drain_buckets``).

One loop does the arrivals: ``stream_summary`` hands it the whole order,
and ``ingest`` is the same loop run over one element.  It holds the stream's
containers and constants in locals and calls out only to read an arrival's
singleton value (``Objective.singleton_value``, which validates the id, one
query), to ask a popped element's marginal when a candidate member can
move it, to file an element, to drain a capped bucket, and to rebuild the
lattice when delta grows.  A drain asks whether an element fits through
the predicate ``Matroid.fits_to`` gave for the current candidate: the state
keeps it, and fetches a new one at each change of the candidate, so the
candidate is validated once per change, not once per drained element.

A drained element takes two draws from the stream's generator: its index
in the bucket, then its coin.  Both go through the kernel ``summary.Draws``
the state keeps for the generator it was last handed (matched by
identity), the kernel the centralized sweep draws its picks through.  For
a ``numpy.random.Generator`` it calls the bit generator's C entry points
and gives ``int(rng.integers(m))`` and ``rng.random()`` bit for bit,
leaving the generator's state where those calls leave it; an index over
one element takes no bits.  A range of 2**32 or more, and any other rng
object, is drawn by the object's own ``integers`` and ``random``.  The
kernel takes no lock, so no other thread may draw from the generator while
the stream runs.

The state keeps the gain each element was filed by.  A rebucketing refiles
only what the change can move: it visits the filed elements that depend on
an element that entered or left the candidate (``Objective.dependents``),
and no other.  With ``exact_gains`` every other filed gain is bit for bit
the gain a fresh query would return (see ``rebucket``), so a drained
element's weight is read from its filed gain.  The live buckets are the
exponents of ``threshold_lattice`` of the anchor delta, the lattice the
centralized sweep walks, and they move only when delta grows: the state
keeps that lattice, rebuilt at each growth, and files a gain by its
``filing_exponent``, a bisection of the lattice's table of powers.

An arrival's gain is asked only when a candidate member can move it.  The
state counts, per element, the candidate members that list it in their
dependents; an element popped from the top buffer with count 0 has, with
``exact_gains``, bit for bit its gain at the empty set against the
candidate, which is the singleton value the buffer was keyed by (see
``_arrive``).  A dependents call that answers None stops the counts, and
every later arrival asks its marginal.

What the state keeps is what the algorithm reads, and no more: the
candidate, the top buffer, the filed elements with their gains, the
swapped-out ``(element, weight)`` pairs the weight checks read, integer
tallies for the counters, and one ``seen`` flag per ground-set id (n
bytes) to refuse a repeated arrival.  The rest of the audit trail (the
weight of every drained element, and every refused or dropped element)
is recorded only with ``BuildConfig.audit``, so beyond the instance's
own n-sized tables and the arrival order the stream's memory stays flat
as the number of arrivals grows.
"""

from __future__ import annotations

import bisect
import heapq
import math
from typing import Iterable

import numpy as np

from .matroids import Matroid
from .objectives import Objective, check_monotone_mode
from .summary import BuildConfig, Draws, StreamAudit, Summary, SummaryEntry, coin_probability, swap_margin
from .thresholds import PowerLadder, check_parameter, threshold_lattice


def drain_cap(d: int, epsilon: float) -> int:
    """Bucket size at which a streaming bucket drains: ceil(d/epsilon), floored at 1."""
    return max(1, math.ceil(d / epsilon))


# the builders take one config (``summary.BuildConfig``), bound to both names
StreamingConfig = BuildConfig


class StreamState:
    """Mutable state of one streaming run.  Strictly sequential per stream."""

    def __init__(self, config: BuildConfig, k: int):
        check_parameter("k", k, "matroid rank")
        self.config = config
        self.k = k
        # the stream's constants, read once: the objective class fixes the
        # swap margin gamma (as the factor 1 + gamma) and the coin probability
        self.drain_cap = drain_cap(config.d, config.epsilon)
        self.swap_factor = 1.0 + swap_margin(config.monotone_mode)
        self.sample_prob = coin_probability(config.monotone_mode)
        # in insertion order; an entry's gain is its element's swap weight
        self.candidate: dict[int, SummaryEntry] = {}
        # the smallest gain in the candidate, inf while it is empty
        self.lightest_gain = math.inf
        # replaced on every change, never mutated: the oracles know it by identity
        self.candidate_set: frozenset[int] = frozenset()
        # the matroid's ``fits_to(candidate_set)``: fetched by the first drain
        # and again at each change, so S is validated once per change
        self.fits = None
        # the ``summary.Draws`` of the rng the last drain was handed, kept
        # while the next drain is handed the same object
        self.draws: Draws | None = None
        self.buckets: dict[int, list[int]] = {}  # exponent -> sorted ids
        # filed element -> the gain it was last filed by: its gain against
        # the current candidate, bit for bit
        self.gains: dict[int, float] = {}
        # element -> how many candidate members list it in their dependents;
        # None once a dependents call answered "any element"
        self.depended: dict[int, int] | None = {}
        # a heap of (value, -id, id), size <= d: its top is the entry that
        # leaves next, the smallest value and on ties the larger id
        self.top_buffer: list[tuple[float, int, int]] = []
        self.delta = 0.0
        # the live exponents of delta; empty, and filing nothing, until delta > 0.
        # Every rebuild keeps this one ladder, so a power is evaluated once per stream
        self.lattice = threshold_lattice(0.0, k, config.epsilon, PowerLadder(1.0 + config.epsilon))
        # ``trail`` is the audit with config.audit and None without: the
        # lists other than swapped_out are filled only through it, and
        # ``counts`` tallies the refused and dropped elements either way
        self.audit = StreamAudit()
        self.trail = self.audit if config.audit else None
        self.counts = {"sample_rejected": 0, "swap_failed": 0, "low_value": 0}
        self.upward_moves = 0
        self.upward_moves_after_growth = 0
        self.arrivals = 0
        # one flag per ground-set id, 1 once it arrived; empty until the
        # first arrival is taken, since the state does not know n before
        self.seen = bytearray()
        self.peak_memory = 0

    def raise_delta(self, delta: float) -> None:
        """Anchor the lattice at a larger delta and drop the buckets under it.

        The live exponents are those of ``threshold_lattice(delta, k,
        epsilon)``, the lattice the centralized sweep walks, so they move
        only here.  An anchor so small that the lattice is empty files
        nothing, and every bucket is dropped.
        """
        self.delta = delta
        lattice = self.lattice = threshold_lattice(
            delta, self.k, self.config.epsilon, self.lattice.ladder
        )
        low = lattice.exponents[-1] if lattice.exponents else math.inf
        for x in sorted(x for x in self.buckets if x < low):
            dropped = self.buckets.pop(x)
            for e in dropped:
                del self.gains[e]
            self.counts["low_value"] += len(dropped)
            if self.trail is not None:
                self.trail.low_value.extend(dropped)


def ingest(
    state: StreamState,
    element: int,
    objective: Objective,
    matroid: Matroid,
    rng: np.random.Generator,
) -> StreamState:
    """Process one arrival; drains buckets as a side effect when they fill.

    This is the one arrival loop of ``stream_summary`` (``_arrive``) run
    over one element, so feeding a stream one arrival at a time gives the
    bytes and the queries of ``stream_summary``.  The popped element is
    filed by the state's lattice (``ThresholdLattice.filing_exponent``),
    and a drain that changes the candidate refiles only the filed elements
    the change can move (``rebucket``).
    """
    _arrive(state, (element,), objective, matroid, rng)
    return state


def _arrive(
    state: StreamState,
    elements: Iterable[int],
    objective: Objective,
    matroid: Matroid,
    rng: np.random.Generator,
) -> None:
    """The arrival loop: buffer each element, file what the buffer pops, drain at the cap.

    Outside a drain no bucket is at the cap, so only the bucket the popped
    element is filed into can reach it, and only then is the drain called.
    A refused arrival (a repeat, or an id outside the ground set) raises
    before it changes any state, and so does monotone mode on an objective
    that is not monotone.  A repeat is read from the state's ``seen``
    flags, one byte per ground-set id, before any query.

    The popped element is filed by its singleton value, without a marginal,
    when the objective has exact gains and no candidate member lists it in
    its dependents: removing the members one by one never changes its
    computed gain, and the gain at the empty set is the singleton value.
    The popped element never was a member, since each element arrives once
    and only filed elements enter the candidate.
    """
    check_monotone_mode(objective, state.config.monotone_mode)
    d, cap, exact = state.config.d, state.drain_cap, objective.exact_gains
    read, marginal = objective.singleton_value, objective.marginal
    top_buffer, buckets, gains = state.top_buffer, state.buckets, state.gains
    candidate, counts, trail = state.candidate, state.counts, state.trail
    filing_exponent = state.lattice.filing_exponent
    seen = state.seen or bytearray(objective.n)
    n = len(seen)
    for element in elements:
        element = int(element)
        if 0 <= element < n and seen[element]:
            raise ValueError(f"element {element} arrived twice")
        value = read(element)  # raises for an id outside the ground set
        seen[element] = 1
        state.seen = seen  # the flags join the state with the first arrival taken
        state.arrivals += 1
        if len(top_buffer) < d:
            # warm-up: the first d arrivals are buffered wholesale
            heapq.heappush(top_buffer, (value, -element, element))
        else:
            popped_value, _, popped = heapq.heappushpop(top_buffer, (value, -element, element))
            if popped_value > state.delta:
                state.raise_delta(popped_value)
                filing_exponent = state.lattice.filing_exponent
            depended = state.depended
            if exact and depended is not None and popped not in depended:
                # no candidate member can move the gain: it is the gain at the empty set
                gain = popped_value
            else:
                gain = marginal(popped, state.candidate_set)
            exponent = filing_exponent(gain)
            if exponent is None:
                counts["low_value"] += 1
                if trail is not None:
                    trail.low_value.append(popped)
            else:
                bucket = buckets.setdefault(exponent, [])
                bisect.insort(bucket, popped)
                gains[popped] = gain
                if len(bucket) >= cap:
                    drain_buckets(state, objective, matroid, rng, exponent)
        memory = len(candidate) + len(top_buffer) + len(gains)
        if memory > state.peak_memory:
            state.peak_memory = memory


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
    second, so traces replay exactly.  Both are drawn through the state's
    ``summary.Draws`` of ``rng``, built at the first drain handed that
    object: ``int(rng.integers(len(bucket)))`` and ``rng.random()`` bit for
    bit, through the bit generator's C entry points for a numpy
    ``Generator`` and through the object's own calls for any other rng.
    No other thread may draw from ``rng`` while the drain runs, since the
    kernel takes no lock.  Outside a rebucket a drain only
    shrinks its own bucket, so the capped buckets are listed again only
    after a rebucket that moved an element to another bucket or out of
    the lattice.

    A drained element's weight is its marginal against the current
    candidate: the gain it is filed by.  An element that does not fit is
    refused as ``swap_failed`` without asking for its circuit when its
    weight does not beat ``(1+gamma)`` times the smaller of its own weight
    and the lightest candidate gain.  That refusal is exact: every member of
    the circuit is g or a candidate member, so the lightest one weighs at
    least that much, and ``(1+gamma) * x`` rounds monotonically in x.
    """
    cap = state.drain_cap
    candidate, counts, trail = state.candidate, state.counts, state.trail
    # every drained element was validated on arrival
    fits = state.fits
    if fits is None:
        fits = state.fits = matroid.fits_to(state.candidate_set)
    draws = state.draws
    if draws is None or draws.rng is not rng:
        draws = state.draws = Draws(rng)
    index, coin = draws.index, draws.coin
    over = [capped]
    while over:
        exponent = max(over)
        bucket = state.buckets[exponent]
        g = bucket.pop(index(len(bucket)))
        weight = state.gains.pop(g)
        if len(bucket) < cap:
            over.remove(exponent)
        if not bucket:
            del state.buckets[exponent]
        if trail is not None:
            trail.weight_log.append((g, weight))
        accepted = bool(coin() < state.sample_prob)

        # the audit list g is refused into; None once g entered the candidate
        refused = "sample_rejected"
        victim = None
        if fits(g):
            if accepted:
                candidate[g] = SummaryEntry(g, exponent, weight)
                state.candidate_set = state.candidate_set | {g}
                refused = None
        elif not weight > state.swap_factor * min(weight, state.lightest_gain):
            # no member of g's circuit can weigh less: the swap cannot clear the margin
            refused = "swap_failed"
        else:
            cycle = matroid.circuit(state.candidate_set, g)
            victim_gain, loser = min(
                (weight if y == g else candidate[y].gain, y) for y in cycle
            )
            if not weight > state.swap_factor * victim_gain:
                refused = "swap_failed"
            elif accepted:
                victim = loser
                del candidate[victim]
                state.audit.swapped_out.append((victim, victim_gain))
                candidate[g] = SummaryEntry(g, exponent, weight)
                state.candidate_set = (state.candidate_set - {victim}) | {g}
                refused = None

        if refused is not None:
            counts[refused] += 1
            if trail is not None:
                getattr(trail, refused).append(g)
        else:
            if victim is None or victim_gain > state.lightest_gain:
                state.lightest_gain = min(state.lightest_gain, weight)
            else:  # the lightest member left
                state.lightest_gain = min(entry.gain for entry in candidate.values())
            fits = state.fits = matroid.fits_to(state.candidate_set)
            if state.config.audit and not matroid.is_independent(state.candidate_set):
                raise AssertionError("candidate solution became dependent")
            moved = _note_change(state, objective, g, victim)
            if rebucket(state, objective, moved, solution_grew=victim is None):
                over = [x for x in state.buckets if len(state.buckets[x]) >= cap]
    return state


def _note_change(
    state: StreamState, objective: Objective, entered: int, left: int | None
) -> frozenset[int] | None:
    """Count the dependents of a candidate change; return the elements it can move.

    ``entered`` joined the candidate and ``left``, if not None, was swapped
    out.  Each element's count in ``state.depended`` goes up by one for the
    entered element that lists it and down by one for the one that left.
    None (every element can move) for an objective without exact gains or
    when a dependents call answers None; the counts then stop for the rest
    of the stream.
    """
    if not objective.exact_gains:
        return None
    entering = objective.dependents(entered)
    leaving = frozenset() if left is None else objective.dependents(left)
    if entering is None or leaving is None:
        state.depended = None
        return None
    depended = state.depended
    if depended is not None:
        for e in entering:
            depended[e] = depended.get(e, 0) + 1
        for e in leaving:
            if depended[e] == 1:
                del depended[e]
            else:
                depended[e] -= 1
    return entering | leaving


def rebucket(
    state: StreamState,
    objective: Objective,
    moved: frozenset[int] | None = None,
    solution_grew: bool = False,
) -> bool:
    """Refile each filed element the candidate change can move, by its fresh marginal.

    Returns whether an element changed bucket or left the lattice, that is
    whether any bucket changed size.

    ``moved`` holds the elements whose gain the change can move: those that
    depend on an element that entered or left the candidate
    (``Objective.dependents``, as ``_note_change`` collects them).  Only the
    filed elements in it are visited; an empty ``moved`` returns at once.
    None refiles every element.  Every other element keeps its bucket and
    its filed gain, which is exactly what a full refile would give it: with
    ``exact_gains`` its computed gain is unchanged, bit for bit, since it
    was filed.  An objective without exact gains has every element refiled
    (``_note_change`` gives None), since a difference of two float values
    can move by an ulp where the exact gain did not.

    A visited element's old exponent is the one its filed gain files at in
    the state's lattice (``ThresholdLattice.filing_exponent``); the lattice
    only rose since, and an element under it was dropped.  Elements are
    refiled by old exponent descending, then id.  The fresh marginals
    become the filed gains.  Elements falling under the lattice are
    discarded.  When the candidate only grew, gains cannot rise, so upward
    moves are tracked separately from the legitimate ones a swap can cause:
    with exact gains ``upward_moves_after_growth`` stays 0.
    """
    buckets, gains = state.buckets, state.gains
    filed = gains if moved is None else [e for e in moved if e in gains]
    if not filed:
        return False
    filing_exponent = state.lattice.filing_exponent
    # (old exponent, element), by exponent descending, then id
    moving = sorted(((filing_exponent(gains[e]), e) for e in filed), key=lambda m: (-m[0], m[1]))
    for old, e in moving:
        bucket = buckets[old]
        bucket.remove(e)
        if not bucket:
            del buckets[old]
    fresh = objective.gains([e for _, e in moving], state.candidate_set)
    changed = False
    for (old, e), gain in zip(moving, fresh):
        exponent = filing_exponent(gain)
        if exponent != old:
            changed = True
        if exponent is None:
            del gains[e]
            state.counts["low_value"] += 1
            if state.trail is not None:
                state.trail.low_value.append(e)
            continue
        if exponent > old:
            state.upward_moves += 1
            if solution_grew:
                state.upward_moves_after_growth += 1
        bisect.insort(buckets.setdefault(exponent, []), e)
        gains[e] = gain
    return changed


def finalize(state: StreamState) -> Summary:
    """Close the stream: reservoir = top buffer plus surviving buckets."""
    cfg = state.config
    entries = list(state.candidate.values())
    buckets = {x: list(state.buckets[x]) for x in sorted(state.buckets, reverse=True)}
    counts = state.counts
    swapped_out = len(state.audit.swapped_out)
    counters = {
        "arrivals": state.arrivals,
        # a drained element entered the candidate (it is there, or it was
        # swapped out: none enters twice) or was refused
        "drained": len(entries) + swapped_out + counts["sample_rejected"] + counts["swap_failed"],
        "swapped_out": swapped_out,
        "sample_rejected": counts["sample_rejected"],
        "swap_failed": counts["swap_failed"],
        "low_value": counts["low_value"],
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
        top_buffer=sorted(entry[-1] for entry in state.top_buffer),
        counters=counters,
        peak_memory=state.peak_memory,
        audit=state.audit,
    )


def stream_summary(
    objective: Objective,
    matroid: Matroid,
    config: BuildConfig,
    order: Iterable[int],
    rng: np.random.Generator | None = None,
) -> Summary:
    """Feed the whole arrival order through one stream and finalize."""
    if matroid.n != objective.n:
        raise ValueError("objective and matroid ground sets differ")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = StreamState(config, matroid.k)
    _arrive(state, order, objective, matroid, rng)
    return finalize(state)
