"""Independent brute-force oracles for pinning expected values in tests.

These deliberately avoid the library's own shortcuts: optima come from plain
itertools enumeration, cut/coverage values from direct definition sweeps,
graphic independence from DFS cycle detection, matroid axioms from full
bitmask truth tables, the centralized summary from a sweep that rescans
the whole pool at every step, the streaming summary from a pass that
re-derives every weight, window and capped bucket that ``stream_summary``
reuses, the greedy from a loop that re-evaluates every element at every pick,
the batched, tabled and memo-backed oracle calls from the scalar calls
they must equal (``plain_oracle``), every built-in objective's value
in exact rational arithmetic (``exact_value``, ``exact_gains``), and the
cut and coverage generators from one scalar draw at a time
(``literal_generate_instance``).  ``KernelCoverage`` is the smallest
class with exact gains.  ``levers`` sets the stream's swap margin and
coin probability by hand, and ``rank_of`` grows a maximal independent
subset greedily.
"""

import contextlib
import copy
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from robust_summary import (
    StreamState,
    Summary,
    SummaryEntry,
    bucket_cap,
    compute_delta,
    finalize,
    threshold_lattice,
)
from robust_summary import streaming
from robust_summary.generators import _parse_spec
from robust_summary.instance import Instance, parse_matroid_spec
from robust_summary.matroids import Matroid
from robust_summary.objectives import GraphCut, Objective, WeightedCoverage


def brute_force_opt(objective, matroid, ground):
    """Best independent subset by enumerating every combination."""
    elements = sorted(ground)
    best_val, best = 0.0, ()
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            if matroid.is_independent(combo):
                v = objective.value(combo)
                if v > best_val:
                    best_val, best = v, combo
    return best_val, set(best)


def cut_value_by_enumeration(edges, inside):
    inside = set(inside)
    total = 0.0
    for u, v, w in edges:
        if (u in inside) != (v in inside):
            total += w
    return total


def coverage_value_by_union(weights, covers, chosen):
    covered = set()
    for e in chosen:
        covered |= set(covers[e])
    return sum(weights[u] for u in covered)


def exact_sum(xs):
    """The exact sum of some floats, as a Fraction: every double is a multiple of 2**-1074."""
    total = 0
    for x in xs:
        num, den = float(x).as_integer_ratio()
        total += num * (2**1074 // den)
    return Fraction(total, 2**1074)


def exact_value(objective, ids):
    """f(ids) of a built-in objective as a Fraction, from its definition."""
    s = sorted(set(int(e) for e in ids))
    kind = objective.kind
    if kind == "modular":
        return exact_sum(objective.weights[e] for e in s)
    if kind == "weighted-coverage":
        covered = set().union(*(objective.covers[e] for e in s))
        return exact_sum(objective.universe_weights[u] for u in covered)
    if kind == "facility-location":
        # a max of floats is exact
        return exact_sum(max((row[e] for e in s), default=0.0)
                         for row in objective.similarity.tolist())
    if kind == "graph-cut":
        return exact_sum(w for u, v, w in objective.edges if (u in s) != (v in s))
    raise ValueError(f"no exact value for {kind}")


def exact_gains(objective, candidates, ids):
    """``[f(ids + e) - f(ids) for e in candidates]`` of a built-in objective, as Fractions."""
    s = set(int(x) for x in ids)
    base = exact_value(objective, s)
    gains = {e: exact_value(objective, s | {e}) - base for e in set(candidates)}
    return [gains[e] for e in candidates]


class ConcaveOfModular(Objective):
    """sqrt of a weight sum: a ``_value``-only objective whose every gain depends on the whole set."""

    kind = "concave-of-modular"

    def __init__(self, weights):
        super().__init__(len(weights), monotone=True)
        self.weights = np.asarray(weights, dtype=float)

    def _value(self, s):
        return float(np.sqrt(self.weights[sorted(s)].sum()))


class SummedCoverage(Objective):
    """Weighted coverage as a ``_value``-only objective: its gains are differences of numpy sums."""

    kind = "summed-coverage"

    def __init__(self, weights, covers):
        super().__init__(len(covers), monotone=True)
        self.weights = np.asarray(weights, dtype=float)
        self.covers = [set(cover) for cover in covers]

    def _value(self, s):
        return float(self.weights[sorted(set().union(*(self.covers[e] for e in s)))].sum())


class Float32Coverage(SummedCoverage):
    """Weighted coverage as a ``_value``-only objective summed in float32: gains far from exact.

    A gain is a difference of two float32 sums, so it can rise as S grows
    and can tie or cross a threshold that its exact value does not.
    """

    kind = "float32-coverage"

    def _value(self, s):
        covered = sorted(set().union(*(self.covers[e] for e in s)))
        return float(self.weights[covered].sum(dtype=np.float32))


class KernelCoverage(Objective):
    """Weighted coverage as the smallest class with exact gains: ``_value``, ``_state``, ``_gain``.

    The state of S is the set of items S covers, and a gain is one fsum of
    the weights of e's items outside it.  It has no batch of its own and
    no ``dependents``.
    """

    kind = "kernel-coverage"
    exact_gains = True

    def __init__(self, weights, covers):
        super().__init__(len(covers), monotone=True)
        self.weights = [float(w) for w in weights]
        self.covers = [frozenset(cover) for cover in covers]

    def _value(self, s):
        return math.fsum(self.weights[u] for u in self._state(s))

    def _state(self, s):
        return frozenset().union(*(self.covers[e] for e in s))

    def _gain(self, covered, e, s):
        return math.fsum(self.weights[u] for u in self.covers[e] - covered)


def edge_subset_has_cycle(n_vertices, pairs, chosen):
    """DFS cycle detection over the chosen edge ids."""
    adjacency = {v: [] for v in range(n_vertices)}
    for idx, e in enumerate(chosen):
        u, v = pairs[e]
        adjacency[u].append((v, idx))
        adjacency[v].append((u, idx))
    visited = set()
    for start in range(n_vertices):
        if start in visited:
            continue
        visited.add(start)
        stack = [(start, -1)]
        while stack:
            node, via = stack.pop()
            for nxt, idx in adjacency[node]:
                if idx == via:
                    continue
                if nxt in visited:
                    return True
                visited.add(nxt)
                stack.append((nxt, idx))
    return False


def rank_of(matroid, ids):
    """Size of a maximal independent subset of ids, grown greedily.

    Greedy is exact here by the matroid exchange property.
    """
    s = matroid._as_set(ids)
    grown = set()
    for e in sorted(s):
        if matroid._independent(frozenset(grown | {e})):
            grown.add(e)
    return len(grown)


def independence_table(matroid):
    """Truth table over every subset bitmask of the ground set."""
    n = matroid.n
    table = []
    for mask in range(1 << n):
        ids = [i for i in range(n) if mask >> i & 1]
        table.append(matroid.is_independent(ids))
    return table


def downward_closed_violations(table, n):
    bad = []
    for mask in range(1 << n):
        if not table[mask]:
            continue
        for i in range(n):
            if mask >> i & 1 and not table[mask ^ (1 << i)]:
                bad.append((mask, i))
    return bad


def augmentation_violations(table, n):
    independents = [mask for mask in range(1 << n) if table[mask]]
    by_size = {}
    for mask in independents:
        by_size.setdefault(bin(mask).count("1"), []).append(mask)
    bad = []
    sizes = sorted(by_size)
    for sa in sizes:
        for sb in sizes:
            if sb <= sa:
                continue
            for a in by_size[sa]:
                for b in by_size[sb]:
                    extra = b & ~a
                    if not any(table[a | (1 << i)] for i in range(n) if extra >> i & 1):
                        bad.append((a, b))
    return bad


def minimal_dependent_supersets(table, base_mask, g, n):
    """Minimal dependent subsets of base_mask|{g} that contain g."""
    found = []
    # iterate over all subsets of base_mask, each joined with g
    sub = base_mask
    while True:
        mask = sub | (1 << g)
        if not table[mask]:
            # minimal iff every one-element removal restores independence
            if all(table[mask ^ (1 << i)] for i in range(n) if mask >> i & 1):
                found.append(mask)
        if sub == 0:
            break
        sub = (sub - 1) & base_mask
    return found


def mask_to_ids(mask, n):
    return [i for i in range(n) if mask >> i & 1]


def plain_greedy_matroid(ground, objective, matroid):
    """Greedy that re-checks and re-evaluates every remaining element each round.

    The plain reference for ``greedy_matroid``: same picks, ties toward the
    smaller id, stops when nothing improves.
    """
    remaining = sorted(set(int(e) for e in ground))
    chosen: set[int] = set()
    while True:
        best_gain = 0.0
        best = None
        for e in remaining:
            if e in chosen:
                continue
            if not matroid.is_independent(chosen | {e}):
                continue
            gain = objective.marginal(e, chosen)
            if gain > best_gain:
                best_gain = gain
                best = e
        if best is None:
            return sorted(chosen)
        chosen.add(best)


def literal_build_summary(objective, matroid, config):
    """Centralized threshold sweep that rescans every pool element at every step.

    The plain reference for ``build_summary``: same lattice, caps and seeded
    draws, but no cached gains and no remembered infeasibility.
    """
    rng = np.random.default_rng(config.seed)
    n = objective.n
    values = [objective.value((e,)) for e in range(n)]
    delta, top = compute_delta(values, config.d)
    lattice = threshold_lattice(delta, matroid.k, config.epsilon)
    cap = bucket_cap(matroid.k, config.d, config.epsilon, config.monotone_mode)
    protected = set(top)
    pool = [e for e in range(n) if e not in protected]
    entries, solution, leftover = [], set(), {}

    def scan(tau):
        gains = {}
        for e in pool:
            if matroid.is_independent(solution | {e}):
                gain = objective.marginal(e, solution)
                if gain >= tau:
                    gains[e] = gain
        return list(gains), gains

    for exponent in lattice.exponents:
        tau = lattice.power(exponent)
        bucket, gains = scan(tau)
        while len(bucket) >= cap:
            pick = bucket[int(rng.integers(len(bucket)))]
            entries.append(SummaryEntry(pick, exponent, gains[pick]))
            solution.add(pick)
            pool.remove(pick)
            bucket, gains = scan(tau)
        if bucket:
            leftover[exponent] = bucket
            for e in bucket:
                pool.remove(e)

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


def literal_generate_instance(spec, matroid, seed):
    """``generate_instance`` for cut and coverage specs, one scalar draw at a time.

    The plain reference for the block draws: a ``random()`` coin per vertex
    pair and a ``uniform(wmin, wmax)`` after each hit, or a ``random(universe)``
    row per cover.
    """
    kind, args = _parse_spec(spec)
    rng = np.random.default_rng(seed)
    n = args["n"]
    if kind == "coverage":
        item_weights = rng.uniform(0.1, 1.0, size=args["universe"])
        covers = []
        for _ in range(n):
            mask = rng.random(args["universe"]) < args["density"]
            covers.append([int(u) for u in np.flatnonzero(mask)])
        objective = WeightedCoverage(item_weights, covers)
    elif kind == "cut":
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < args["p"]:
                    edges.append((u, v, float(rng.uniform(args["wmin"], args["wmax"]))))
        objective = GraphCut(n, edges)
    else:
        raise ValueError(f"no literal {kind!r} generator")
    return Instance(objective, parse_matroid_spec(matroid, n))


@contextlib.contextmanager
def levers(gamma=None, sample_prob=None):
    """Streams started inside run with the swap margin and coin probability set by hand.

    The library fixes both per objective class, and ``StreamState`` reads
    them once, from ``swap_margin`` and ``coin_probability``; tests move them
    to reach swaps, refusals and coin outcomes that the fixed values rarely
    give.  None keeps the class value.  The summary still records the class
    gamma and p, which its ``monotone`` fixes.
    """
    margin, coin = streaming.swap_margin, streaming.coin_probability
    with mock.patch.multiple(
        streaming,
        swap_margin=lambda monotone: margin(monotone) if gamma is None else gamma,
        coin_probability=lambda monotone: coin(monotone) if sample_prob is None else sample_prob,
    ):
        yield


def literal_stream_summary(objective, matroid, config, order, rng=None):
    """Streaming pass that re-derives what ``stream_summary`` keeps between arrivals.

    The plain reference for ``stream_summary``: same buffer, filing, draws,
    swaps and refiling, but a drained element's weight is a fresh marginal
    against the candidate, the lowest live exponent is taken from
    ``threshold_lattice`` at every arrival and a gain is filed by
    ``floor_exponent`` (not by the lattice's table), every bucket is scanned
    for the cap before every draw, refiling asks one marginal and one floor
    exponent per element, and memory is recounted at every boundary.  It
    draws with the generator's own ``integers`` and ``random``, from ``rng``
    or, by default, a generator seeded with ``config.seed``.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    state = StreamState(config, matroid.k)
    ladder, audit, cap = state.lattice.ladder, state.audit, state.drain_cap
    candidate = set()
    low = None  # the lowest live exponent; None files nothing

    def boundary():
        filed = sum(len(bucket) for bucket in state.buckets.values())
        memory = len(state.candidate) + len(state.top_buffer) + filed
        state.peak_memory = max(state.peak_memory, memory)

    def live_exponent(gain):
        """The exponent to file a gain at, or None when it falls under the lattice."""
        if low is None or not gain > 0.0:
            return None
        exponent = ladder.floor_exponent(gain)
        return exponent if exponent >= low else None

    def refile(grew):
        filed = [(x, e) for x in sorted(state.buckets, reverse=True) for e in state.buckets[x]]
        state.buckets = {}
        for old, e in filed:
            exponent = live_exponent(objective.marginal(e, candidate))
            if exponent is None:
                audit.low_value.append(e)
                continue
            if exponent > old:
                state.upward_moves += 1
                state.upward_moves_after_growth += grew
            state.buckets.setdefault(exponent, []).append(e)
            state.buckets[exponent].sort()

    def drain():
        while True:
            over = [x for x in state.buckets if len(state.buckets[x]) >= cap]
            if not over:
                return
            exponent = max(over)
            bucket = state.buckets[exponent]
            g = bucket.pop(int(rng.integers(len(bucket))))
            if not bucket:
                del state.buckets[exponent]
            weight = objective.marginal(g, candidate)
            audit.weight_log.append((g, weight))
            accepted = bool(rng.random() < state.sample_prob)
            changed = grew = False
            if matroid.is_independent(candidate | {g}):
                if accepted:
                    changed = grew = True
                else:
                    audit.sample_rejected.append(g)
            else:
                cycle = matroid.circuit(candidate, g)
                weights = {y: state.candidate[y].gain for y in cycle - {g}} | {g: weight}
                victim = min(cycle, key=lambda y: (weights[y], y))
                if weight > state.swap_factor * weights[victim]:
                    if accepted:
                        del state.candidate[victim]
                        candidate.discard(victim)
                        audit.swapped_out.append((victim, weights[victim]))
                        changed = True
                    else:
                        audit.sample_rejected.append(g)
                else:
                    audit.swap_failed.append(g)
            if changed:
                state.candidate[g] = SummaryEntry(g, exponent, weight)
                candidate.add(g)
                refile(grew)

    for element in order:
        element = int(element)
        state.arrivals += 1
        value = objective.value((element,))
        state.top_buffer.append((value, element))
        if len(state.top_buffer) <= config.d:
            boundary()
            continue
        # smallest value leaves; on ties the larger id leaves first
        popped_value, popped = min(state.top_buffer, key=lambda t: (t[0], -t[1]))
        state.top_buffer.remove((popped_value, popped))
        state.delta = max(state.delta, popped_value)
        low = min(threshold_lattice(state.delta, state.k, config.epsilon).exponents, default=None)
        for x in sorted(state.buckets):
            if low is None or x < low:
                audit.low_value.extend(state.buckets.pop(x))
        exponent = live_exponent(objective.marginal(popped, candidate))
        if exponent is None:
            audit.low_value.append(popped)
        else:
            state.buckets.setdefault(exponent, []).append(popped)
            state.buckets[exponent].sort()
            drain()
        boundary()
    # the counters come from this reference's own trail, which it always records
    state.counts.update(
        sample_rejected=len(audit.sample_rejected),
        swap_failed=len(audit.swap_failed),
        low_value=len(audit.low_value),
    )
    return finalize(state)


def _typed(x):
    """x with the type of every value and member spelled out; sets as sorted lists."""
    if isinstance(x, (list, tuple)):
        return type(x).__name__, [_typed(y) for y in x]
    if isinstance(x, (set, frozenset)):
        return type(x).__name__, sorted(_typed(y) for y in x)
    return type(x).__name__, x


def outcome(call):
    """``call()``'s result with its types, or the type and message of the error it raises."""
    try:
        return "returned", _typed(call())
    except Exception as exc:  # compared, never swallowed: a mismatch fails the test
        return type(exc), str(exc)


def set_forms(ids, n):
    """Forms of S to hand an oracle in turn, each paired with the list form of S.

    Covers the frozenset identity fast path: fresh frozensets with an id out
    of range or negative, frozensets of numpy ints and of bools, the memo's
    own key again, a frozenset equal to it but a different object, and a
    mutable set right after the frozenset it equals.
    """
    ids = sorted(ids)
    forms = [
        (frozenset(ids), ids),
        (frozenset(ids + [n]), ids + [n]),
        (frozenset(ids + [-1]), ids + [-1]),
        (frozenset(np.asarray(ids, dtype=np.int64)), ids),
        (frozenset([False, True]), [False, True]),
        (frozenset([True, False] + ids[2:]), [True, False] + ids[2:]),
    ]
    twin = frozenset(ids)
    forms += [(twin, ids), (frozenset(list(ids)), ids), (twin, ids), (set(ids), ids), (twin, ids)]
    return forms


def _plain_value(objective, ids):
    s = objective._as_set(ids)
    objective._queries += 1
    return objective._f(s)


def _plain_singleton_value(objective, e):
    e = objective._check_id(e)
    objective._queries += 1
    return objective._f(frozenset({e}))


def _plain_counted_singleton_values(objective):
    return [objective.singleton_value(e) for e in range(objective.n)]


def _plain_gains(objective, candidates, ids):
    ids = list(ids)
    return [objective.marginal(e, ids) for e in candidates]


def _plain_gains_to(objective, ids):
    s = set(ids)
    return lambda es: [objective.marginal(e, s) for e in es]


def _plain_fits(matroid, e, ids):
    return matroid.is_independent(set(ids) | {e})


def _plain_fits_to(matroid, ids):
    s = set(ids)
    return lambda e: matroid.is_independent(s | {e})


def _plain_fits_each(matroid, candidates, ids):
    ids = list(ids)
    return [matroid.fits(e, ids) for e in candidates]


def plain_oracle(oracle):
    """A copy of an objective or matroid whose fast paths are their plain references.

    ``value`` evaluates every set afresh, singletons included, and so
    does ``singleton_value``, one query each, which
    ``counted_singleton_values`` loops over; ``gains`` and the kernel
    ``gains_to(S)`` hands out become loops of ``marginal`` against S,
    ``fits(e, S)`` becomes ``is_independent(S | {e})``, and
    so does the predicate ``fits_to(S)`` hands out, ``fits_each`` a loop of
    that ``fits``, and every ``circuit`` the generic ``Matroid.circuit``.
    Everything else is the oracle's own code.
    """
    if isinstance(oracle, Objective):
        methods = {
            "value": _plain_value,
            "singleton_value": _plain_singleton_value,
            "counted_singleton_values": _plain_counted_singleton_values,
            "gains": _plain_gains,
            "gains_to": _plain_gains_to,
        }
        plain = oracle.clone()
    else:
        methods = {
            "fits": _plain_fits,
            "fits_to": _plain_fits_to,
            "fits_each": _plain_fits_each,
            "circuit": Matroid.circuit,
        }
        plain = copy.copy(oracle)
    plain.__class__ = type(f"Plain{type(oracle).__name__}", (type(oracle),), methods)
    return plain
