"""Submodular objective oracles: coverage, facility location, graph cuts, modular."""

from __future__ import annotations

import copy
import math
from itertools import accumulate
from operator import itemgetter, mul
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .ground import GroundSet, Ids

# candidates FacilityLocation joins into one numpy pass: bounds its temporaries
BATCH_ROWS = 256


class Objective(GroundSet):
    """Value oracle for a normalized, non-negative submodular set function.

    The ground set is the integers 0..n-1.  Every value() call bumps a query
    tally so experiment reports can account oracle cost; a singleton value
    counts as one query even when it comes from the table below, a marginal
    counts as two, as the two value() calls of f(S+e) - f(S) would, and
    gains() counts two per candidate.  Parameters are frozen at construction.
    The mutable state is the tally, a one-slot memo ``(S, state of S)`` of
    the last set a gain was asked against, and a table of every f({e}),
    filled by one batch on the first one-element value() query or
    singleton read.  singleton_value(e), the reader the stream asks at each
    arrival, is value({e}) read from the table without building a set, one
    query each; counted_singleton_values(), which the centralized sweep
    reads once, is every singleton_value(e) in one read, n queries.
    singleton_values() hands out the whole table and counts no query, for
    callers outside the algorithms, whose reads no report counts (deletion
    strategies and checks).  gains_to(S) is the objective's twin of
    ``Matroid.fits_to``: it validates S and reads its memo state once, and
    returns the batch kernel ``es -> gains(es, S)`` for ids already known
    to be valid and outside S, which the sweep fetches once per pick.  The
    memo is replaced whole, never changed in place;
    clone() gives a copy with its own tally and an empty memo that shares
    the table, so it is computed at most once per objective.

    Exact gains.  A class with ``exact_gains`` (every built-in one) computes
    the gain of e against S as one ``math.fsum`` of e's own terms, such as
    the weights of the items e would newly cover, and value(S) as the fsum
    of the terms that make up S.  fsum is correctly rounded and rounding to
    nearest is monotone, so every float gain is its exact gain rounded once:
    a gain never rises as S grows (the gains are exactly submodular), a gain
    whose exact value is unchanged is bit-identical, and value({e}) equals
    the gain of e at the empty set.  The lazy paths rely on this: the
    centralized scan skips an element by the last gain it heaped, the greedy
    recomputes only the entries that reach the top of its heap, and the
    stream reuses filed gains.  A class that defines only ``_value``
    (``exact_gains`` False) gets the gain f(S+e) - f(S) as a difference of
    two float values, which may come back an ulp higher after S grows, so
    a remembered gain bounds nothing: the scan and the greedy ask every
    feasible element after each pick, as their plain forms do, and the
    stream refiles every filed element at each change.  A class opts into
    the lazy paths by giving exact gains, as the built-ins do: ``_state(S)``,
    what a gain needs to know of S; ``_gain(state, e, S)``, one
    ``math.fsum`` of e's own terms; ``_value`` as the fsum of the terms of
    S; ``exact_gains = True``; and optionally ``dependents``, so that the
    stream refiles only the elements a change can move.  ``exact_gains`` is
    a fact of the class, not an option.

    One gain, one kernel.  ``_gain`` is the only gain a class writes:
    marginal() asks it for one element, and gains() and the kernel of
    gains_to() ask ``_gains_with`` once for all their candidates, which
    calls ``_gain`` on each.  A class overrides ``_gains_with`` only where
    a batch pays, and the override must give ``_gain``'s bits for every
    element: coverage loops its gathers without a method call per
    candidate, and facility location joins
    ``BATCH_ROWS`` candidates' numpy arrays at a time into one pass and cuts
    the terms back into runs.  fsum does not depend on the order of its
    terms, so both give the same bits.  Against the empty set, once the
    table of every f({e}) is filled, both read their gains from it, which
    is the same bits again since value({e}) is the gain at the empty set; a
    gain query never fills the table itself.
    """

    kind = "abstract"
    exact_gains = False

    def __init__(self, n: int, monotone: bool):
        if n < 0:
            raise ValueError("ground set size must be non-negative")
        self.n = int(n)
        self.monotone = bool(monotone)
        self._queries = 0
        self._singletons: list = [None]  # one slot, shared by every clone

    def value(self, ids: Ids) -> float:
        """f(ids), one query; a one-element set is read from the table of every f({e})."""
        s = self._as_set(ids)
        self._queries += 1
        if len(s) == 1:
            return self.singleton_values()[next(iter(s))]
        return self._f(s)

    def singleton_value(self, e: int) -> float:
        """``value({e})``, one query, read from the table of every f({e}) without building a set."""
        e = self._check_id(e)
        self._queries += 1
        table = self._singletons[0]
        return (self.singleton_values() if table is None else table)[e]

    def counted_singleton_values(self) -> list[float]:
        """``[singleton_value(e) for e in range(n)]`` in one read: n queries.

        The list is the shared table itself: read it, never change it.
        """
        table = self.singleton_values()
        self._queries += self.n
        return table

    def marginal(self, e: int, ids: Ids) -> float:
        """The gain f(ids + e) - f(ids); an exact 0.0 when e is already in the set.

        The one-element gain query, two queries.  When ids is the memo's
        own key, as the builders' and the greedy's solutions are while
        they stand, its state is read from the memo without validating ids
        again.
        """
        e = self._check_id(e)
        memo = self._memo
        if memo is not None and ids is memo[0]:
            self._queries += 2
            return 0.0 if e in ids else self._gain(memo[1], e, ids)
        s = self._as_set(ids)
        self._queries += 2
        if e in s:
            return 0.0
        table = self._singletons[0]
        if not s and table is not None:
            return table[e]
        return self._gain(self._remembered(s)[1], e, s)

    def gains(self, candidates: Ids, ids: Ids) -> list[float]:
        """``[marginal(e, ids) for e in candidates]``, evaluated in one batch.

        Validates the ids once and raises for the same id the loop would,
        except that a bad S raises even with no candidates.  Counts two
        queries per candidate, as the loop does.
        """
        es = [int(e) for e in candidates]
        if es:
            self._check_id(es[0])
        s = self._as_set(ids)
        self._check_ids(es)
        if not es:
            return []
        outside = [e for e in es if e not in s] if s else es
        gains = self._gains_to(s)(outside)
        if len(outside) == len(es):
            return gains
        self._queries += 2 * (len(es) - len(outside))
        gains = iter(gains)
        return [0.0 if e in s else next(gains) for e in es]

    def gains_to(self, ids: Ids) -> Callable[[list[int]], list[float]]:
        """The kernel ``es -> gains(es, ids)``, for a list of valid ids outside ids.

        Validates ids and reads its memo state once, here, raising as gains()
        would for a bad id in ids; the kernel checks nothing.  It counts two
        queries per id and gives gains()'s bits.  It answers for the set ids
        was when fetched: a caller whose set changes fetches a new one.
        """
        return self._gains_to(self._as_set(ids))

    def _gains_to(self, s: frozenset) -> Callable[[list[int]], list[float]]:
        """``gains_to`` of a validated set; the empty set reads a filled table."""
        table = self._singletons[0]
        if not s and table is not None:

            def gains(es: list[int]) -> list[float]:
                self._queries += 2 * len(es)
                return [table[e] for e in es]

            return gains
        state, gains_with = self._remembered(s)[1], self._gains_with

        def gains(es: list[int]) -> list[float]:
            self._queries += 2 * len(es)
            return gains_with(state, es, s) if es else []

        return gains

    @property
    def queries(self) -> int:
        return self._queries

    def clone(self) -> "Objective":
        """Same oracle with a fresh query tally and memo.

        Parameters and the singleton-value table are shared.
        """
        other = copy.copy(self)
        other._queries = 0
        other._memo = None
        return other

    def dependents(self, x: int) -> frozenset[int] | None:
        """Elements whose computed gain can change when x joins or leaves a set.

        For every S and every e outside the result and other than x, the
        computed gain of e against S with x is bit for bit the one against S
        without x.  None means "any element", which is always safe.  Only
        the stream asks, and only a class with ``exact_gains``: there a
        result that misses such an element is a correctness bug, since the
        refile keeps every other filed gain as it is, and an arrival that
        no candidate member lists is filed by its singleton value without
        its marginal.  A class without exact gains is refiled whole at
        every change and never asked.
        """
        self._check_id(x)
        return None

    def singleton_values(self) -> list[float]:
        """f({e}) for every e: the gains at the empty set, computed once; not a query.

        The list is the shared table itself: read it, never change it.
        """
        table = self._singletons[0]
        if table is None:
            empty = frozenset()
            es = list(range(self.n))
            table = self._gains_with(self._state(empty), es, empty) if es else []
            self._singletons[0] = table
        return table

    def _remember(self, s: frozenset) -> tuple:
        return (self._state(s),)

    def _f(self, s: frozenset) -> float:
        """f(s) as value() returns it, without counting a query."""
        return float(self._value(s)) if s else 0.0

    def _value(self, s: frozenset) -> float:
        raise NotImplementedError

    def _state(self, s: frozenset):
        """What a gain needs to know of s; never modified after it is made.

        Here f(s), for the difference of two values.
        """
        return self._f(s)

    def _gain(self, state, e: int, s: frozenset) -> float:
        """The gain of one id e outside s, as a float: the one kernel a class writes.

        Here f(s + e) - f(s), ``state`` being f(s); a class with
        ``exact_gains`` overrides it with one fsum of e's own terms.
        """
        return self._f(s | {e}) - state

    def _gains_with(self, state, es: list[int], s: frozenset) -> list[float]:
        """``_gain`` of each e of a non-empty list of ids outside s.

        A class overrides it only where a batch pays, and then gives
        ``_gain``'s bits for every e.
        """
        gain = self._gain
        return [gain(state, e, s) for e in es]


def check_monotone_mode(objective: Objective, monotone_mode: bool) -> None:
    """Raise when monotone mode is asked of an objective that is not monotone.

    Monotone mode uses the monotone bucket cap and swap margin, whose
    guarantee holds for monotone objectives only.
    """
    if monotone_mode and not objective.monotone:
        raise ValueError(f"monotone mode needs a monotone objective; {objective.kind} is not")


def _check_weights(weights: np.ndarray, what: str) -> None:
    """Raise unless every entry is finite and non-negative; NaN and inf are rejected."""
    bad = weights[~np.isfinite(weights) | (weights < 0.0)]
    if bad.size:
        raise ValueError(f"{what} must be finite and non-negative, got {float(bad[0])!r}")


class WeightedCoverage(Objective):
    """f(S) = total weight of universe items covered by the sets of S.

    The gain of e sums the weights of e's items that S leaves uncovered.  The
    memo state of S is a plain list of open weights, each item's weight or
    0.0 where S covers it, never changed once made.  Each element has one
    gatherer, a C-level ``itemgetter`` over its items made at construction
    and shared by every clone, so a gain is one ``math.fsum`` of what the
    gatherer picks from the list: the uncovered weights plus a 0.0 per
    covered item, which fsum adds exactly.  value(S) is the fsum of the
    weights of the union of S's items.
    """

    kind = "weighted-coverage"
    exact_gains = True

    def __init__(self, universe_weights: Sequence[float], covers: Sequence[Iterable[int]]):
        weights = np.asarray(list(universe_weights), dtype=float)
        _check_weights(weights, "universe weights")
        cover_sets = []
        for cover in covers:
            c = frozenset(map(int, cover))
            if c and not 0 <= min(c) <= max(c) < weights.size:
                u = min(c) if min(c) < 0 else max(c)
                raise ValueError(f"cover references universe item {u} outside range")
            cover_sets.append(c)
        super().__init__(len(cover_sets), monotone=True)
        self.universe_weights = weights
        self.covers = tuple(cover_sets)
        self._weights = weights.tolist()
        self._gather = tuple(map(_gatherer, cover_sets))
        self._coverers: list = [None]  # one slot, shared by every clone

    def dependents(self, x: int) -> frozenset[int]:
        """The elements that share a universe item with x."""
        x = self._check_id(x)
        coverers = self._coverers[0]
        if coverers is None:
            # item -> the elements covering it, built on the first call
            members = [[] for _ in range(self.universe_weights.size)]
            for e, cover in enumerate(self.covers):
                for u in cover:
                    members[u].append(e)
            coverers = self._coverers[0] = tuple(members)
        return frozenset().union(*(coverers[u] for u in self.covers[x]))

    def _value(self, s: frozenset) -> float:
        covered = frozenset().union(*map(self.covers.__getitem__, s))
        return math.fsum(map(self._weights.__getitem__, covered))

    def _state(self, s: frozenset) -> list[float]:
        """The open weights of s: each item's weight, or 0.0 where s covers it."""
        open_weights = self._weights.copy()
        for e in s:
            for u in self.covers[e]:
                open_weights[u] = 0.0
        return open_weights

    def _gains_with(self, open_weights: list[float], es: list[int], s: frozenset) -> list[float]:
        gather = self._gather
        return [math.fsum(gather[e](open_weights)) for e in es]

    def _gain(self, open_weights: list[float], e: int, s: frozenset) -> float:
        return math.fsum(self._gather[e](open_weights))


def _gatherer(items: Collection[int]) -> Callable[[list], Sequence]:
    """A C-level callable taking a list to its entries at ``items``, in a tuple or list.

    The entries come in the order ``items`` iterates, repeats included.
    ``itemgetter`` of one item returns the entry itself, and of no item is
    not allowed, so those get a slice instead.
    """
    if len(items) > 1:
        return itemgetter(*items)
    u = next(iter(items), 0)
    return itemgetter(slice(u, u + len(items)))


class FacilityLocation(Objective):
    """f(S) = sum over clients of the best similarity to an element of S.

    The gain of e sums ``s - b`` over the clients where e's similarity s
    beats the best b of S, as the pair of terms ``s, -b``.
    """

    kind = "facility-location"
    exact_gains = True

    def __init__(self, similarity: Sequence[Sequence[float]]):
        sim = np.asarray(similarity, dtype=float)
        if sim.ndim != 2:
            raise ValueError("similarity must be a 2-D clients x elements matrix")
        _check_weights(sim, "similarity entries")
        super().__init__(sim.shape[1], monotone=True)
        self.similarity = sim

    def _value(self, s: frozenset) -> float:
        return math.fsum(self._state(s).tolist())

    def _state(self, s: frozenset) -> np.ndarray:
        """Best similarity per client over s; 0 for the empty set."""
        if not s:
            return np.zeros(self.similarity.shape[0])
        return self.similarity[:, list(s)].max(axis=1)

    def _gains_with(self, best: np.ndarray, es: list[int], s: frozenset) -> list[float]:
        gains: list[float] = []
        for i in range(0, len(es), BATCH_ROWS):
            columns = self.similarity[:, es[i : i + BATCH_ROWS]].T  # row j: es[i + j]
            beats = columns > best
            rows, clients = np.nonzero(beats)  # row by row
            terms = np.empty((rows.size, 2))
            terms[:, 0] = columns[rows, clients]
            terms[:, 1] = -best[clients]
            # one fsum per row: its run of 2 terms per client it beats
            terms = terms.ravel().tolist()
            ends = list(accumulate((2 * beats.sum(axis=1)).tolist()))
            gains += [math.fsum(terms[start:end]) for start, end in zip([0] + ends, ends)]
        return gains

    def _gain(self, best: np.ndarray, e: int, s: frozenset) -> float:
        column = self.similarity[:, e]
        beats = column > best
        return math.fsum(column[beats].tolist() + (-best[beats]).tolist())


class GraphCut(Objective):
    """f(S) = total weight of edges with exactly one endpoint in S.

    Non-monotone: f(V) = f(empty) = 0.  Elements are the graph vertices.
    Adding e flips exactly the edges at e (there are no self-loops), so the
    gain of e sums +w over its edges that start crossing and -w over those
    that stop.

    The edges come as ``(u, v, w)`` triples, or as ``columns=(us, vs, ws)``,
    three equal-length sequences or arrays, as the instance reader and the
    generator build them.  Either way they are checked as numpy columns: the
    error names the first bad edge in order, a self-loop before a vertex out
    of range, and then the first weight that is negative or not finite.
    The memo state of S is a plain list of signs, -1.0 for a vertex inside S
    and 1.0 outside, never changed once made.  Each vertex with edges keeps
    the weights of its edges as a list, in the order of the other endpoints,
    and one C-level ``itemgetter`` over those endpoints (see ``_gatherer``),
    made at construction and shared by every clone; the vertices with no
    edge share one empty list and gatherer.  e lies outside S, so an edge
    at e starts crossing exactly when its other end is outside: the gain is
    one ``math.fsum`` of each weight times the sign of its other end, and a
    weight times -1.0 or 1.0 is exact.  value(S) is the fsum of the weights
    of the edges with exactly one end in S.
    """

    kind = "graph-cut"
    exact_gains = True

    def __init__(
        self,
        n_vertices: int,
        edges: Iterable[tuple[int, int, float]] = (),
        *,
        columns: tuple[Sequence[int], Sequence[int], Sequence[float]] | None = None,
    ):
        n_vertices = int(n_vertices)
        if columns is None:
            triples = [(int(u), int(v), float(w)) for u, v, w in edges]
            columns = tuple(zip(*triples)) if triples else ((), (), ())
        us, vs, ws = columns
        if not len(us) == len(vs) == len(ws):
            raise ValueError("edge columns must have one entry per edge each")
        try:
            us, vs = np.asarray(us, dtype=int), np.asarray(vs, dtype=int)
        except OverflowError:  # a vertex id no int64 holds lies out of range
            raise ValueError(_first_bad_edge(n_vertices, us, vs)) from None
        bad = (us == vs) | (np.minimum(us, vs) < 0) | (np.maximum(us, vs) >= n_vertices)
        if bad.any():
            at = int(bad.argmax())
            raise ValueError(_first_bad_edge(n_vertices, us[at : at + 1], vs[at : at + 1]))
        weights = np.asarray(ws, dtype=float)
        _check_weights(weights, "edge weights")
        super().__init__(n_vertices, monotone=False)
        self.edge_u = us
        self.edge_v = vs
        self.edge_w = weights
        # per vertex: the other endpoint and the weight of each edge at it,
        # cut from two lists sorted by vertex
        ends = np.concatenate((us, vs))
        order = np.argsort(ends, kind="stable")
        others = np.concatenate((vs, us))[order].tolist()
        both = np.concatenate((weights, weights))[order].tolist()
        counts = np.bincount(ends, minlength=n_vertices)
        touched = np.flatnonzero(counts)
        self._neighbours = [[]] * n_vertices
        self._weights = [[]] * n_vertices
        self._gather = [_gatherer(())] * n_vertices
        stop = 0
        for x, count in zip(touched.tolist(), counts[touched].tolist()):
            start, stop = stop, stop + count
            self._neighbours[x] = neighbours = others[start:stop]
            self._weights[x] = both[start:stop]
            self._gather[x] = _gatherer(neighbours)

    def dependents(self, x: int) -> frozenset[int]:
        """The neighbours of x."""
        x = self._check_id(x)
        return frozenset(self._neighbours[x])

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return list(zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()))

    def _value(self, s: frozenset) -> float:
        inside = np.zeros(self.n, dtype=bool)
        inside[np.fromiter(s, dtype=np.intp, count=len(s))] = True
        return math.fsum(self.edge_w[inside[self.edge_u] ^ inside[self.edge_v]].tolist())

    def _state(self, s: frozenset) -> list[float]:
        """The signs of s: -1.0 for each vertex in s, 1.0 for the others."""
        signs = [1.0] * self.n
        for e in s:
            signs[e] = -1.0
        return signs

    def _gain(self, signs: list[float], e: int, s: frozenset) -> float:
        return math.fsum(map(mul, self._weights[e], self._gather[e](signs)))


def _first_bad_edge(n_vertices: int, us, vs) -> str:
    """What is wrong with the first edge of the columns that is wrong."""
    for u, v in zip(us, vs):
        u, v = int(u), int(v)
        if u == v:
            return f"self-loop at vertex {u} is not allowed"
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            return f"edge ({u},{v}) references a vertex outside range"
    return "edge vertex ids must fit in 64 bits"


class Modular(Objective):
    """Additive f(S) = sum of per-element weights; the gain of e is its weight."""

    kind = "modular"
    exact_gains = True

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(list(weights), dtype=float)
        _check_weights(w, "element weights")
        super().__init__(w.size, monotone=True)
        self.weights = w

    def dependents(self, x: int) -> frozenset[int]:
        """No element: a modular gain never depends on the set."""
        self._check_id(x)
        return frozenset()

    def _value(self, s: frozenset) -> float:
        return math.fsum(self.weights[list(s)].tolist())

    def _state(self, s: frozenset) -> None:
        return None

    def _gain(self, state: None, e: int, s: frozenset) -> float:
        return math.fsum((self.weights[e],))


def make_weighted_coverage(universe_weights, covers) -> WeightedCoverage:
    return WeightedCoverage(universe_weights, covers)


def make_facility_location(similarity) -> FacilityLocation:
    return FacilityLocation(similarity)


def make_cut_function(n_vertices, edges) -> GraphCut:
    return GraphCut(n_vertices, edges)


def make_modular(weights) -> Modular:
    return Modular(weights)
