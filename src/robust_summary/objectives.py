"""Submodular objective oracles: coverage, facility location, graph cuts, modular."""

from __future__ import annotations

import copy
import math
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .ground import GroundSet, Ids

# candidates gains() evaluates per _gains_with call: bounds its temporaries
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
    filled in batches on the first one-element value() query; a one-element
    tuple, as the stream asks at each arrival, is read from it without
    building a set.  The memo is replaced whole, never changed in place;
    clone() gives a copy with its own tally and an empty memo that shares
    the table, so it is computed at most once per objective.

    Exact gains.  A class with ``exact_gains`` (every built-in one) computes
    the gain of e against S as one ``math.fsum`` of e's own terms, such as
    the weights of the items e would newly cover, and value(S) as the fsum
    of the terms that make up S.  fsum is correctly rounded and rounding to
    nearest is monotone, so every float gain is its exact gain rounded once:
    a gain never rises as S grows (the gains are exactly submodular), a gain
    whose exact value is unchanged is bit-identical, and value({e}) equals
    the gain of e at the empty set.  The builders and the greedy rely on
    this and keep no float slack.  A class that defines only ``_value``
    (``exact_gains`` False) gets the gain f(S+e) - f(S) as a difference of
    two float values, which may come back an ulp higher after S grows; the
    builders and the greedy keep a float slack for it, and the stream
    refiles every filed element at each change.  ``exact_gains`` is a fact
    of the class, not an option.

    One gain, one call.  marginal() asks the class's one-element ``_gain``,
    which sums the same terms as the batched ``_gains_with`` without its
    bookkeeping (joining the candidates' arrays and cutting the terms back
    into runs); gains() batches ``BATCH_ROWS`` candidates per
    ``_gains_with`` call.  fsum does not depend on the order of its terms,
    so both give the same bits.  Against the empty set, once the table of
    every f({e}) is filled, both read their gains from it, which is the
    same bits again since value({e}) is the gain at the empty set; a gain
    query never fills the table itself.
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
        if type(ids) is tuple and len(ids) == 1:
            e = self._check_id(ids[0])
            self._queries += 1
            return self._singleton_values()[e]
        s = self._as_set(ids)
        self._queries += 1
        if len(s) == 1:
            return self._singleton_values()[next(iter(s))]
        return self._f(s)

    def marginal(self, e: int, ids: Ids) -> float:
        """The gain f(ids + e) - f(ids); an exact 0.0 when e is already in the set."""
        e = self._check_id(e)
        s = self._as_set(ids)
        self._queries += 2
        if e in s:
            return 0.0
        table = self._singletons[0]
        if not s and table is not None:
            return table[e]
        return self._gain(self._remembered(s)[1], e, s)

    def gains(self, candidates: Ids, ids: Ids) -> list[float]:
        """``[marginal(e, ids) for e in candidates]``, evaluated in batches.

        Validates the ids once and raises for the same id the loop would,
        except that a bad S raises even with no candidates.  Counts two
        queries per candidate, as the loop does.
        """
        es = [int(e) for e in candidates]
        if es:
            self._check_id(es[0])
        s = self._as_set(ids)
        self._check_ids(es)
        self._queries += 2 * len(es)
        if not es:
            return []
        table = self._singletons[0]
        if not s and table is not None:
            return [table[e] for e in es]
        state = self._remembered(s)[1]
        outside = [e for e in es if e not in s]
        fresh: list[float] = []
        for i in range(0, len(outside), BATCH_ROWS):
            fresh.extend(self._gains_with(state, outside[i : i + BATCH_ROWS], s))
        gains = iter(fresh)
        return [0.0 if e in s else next(gains) for e in es]

    @property
    def queries(self) -> int:
        return self._queries

    def reset_queries(self) -> None:
        self._queries = 0

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
        without x.  None means "any element", which is always safe; a result
        that misses such an element is a correctness bug, since the
        streaming refile keeps every other filed gain as it is.
        """
        self._check_id(x)
        return None

    def _singleton_values(self) -> list[float]:
        """f({e}) for every e: the gains at the empty set, computed once."""
        table = self._singletons[0]
        if table is None:
            empty = frozenset()
            state = self._state(empty)
            table = []
            for start in range(0, self.n, BATCH_ROWS):
                es = list(range(start, min(start + BATCH_ROWS, self.n)))
                table.extend(self._gains_with(state, es, empty))
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
        """What _gains_with needs to know of s; never modified after it is made.

        Here f(s), for the difference of two values.
        """
        return self._f(s)

    def _gains_with(self, state, es: list[int], s: frozenset) -> list[float]:
        """The gain of each e of a non-empty list of ids outside s, as floats.

        Here f(s + e) - f(s), ``state`` being f(s); a class with
        ``exact_gains`` overrides it with one fsum of e's own terms.
        """
        return [self._f(s | {e}) - state for e in es]

    def _gain(self, state, e: int, s: frozenset) -> float:
        """The gain of one id e outside s: ``_gains_with(state, [e], s)[0]``, bit for bit.

        A class overrides it where one element can skip the batch bookkeeping.
        """
        return self._gains_with(state, [e], s)[0]


def _check_weights(weights: np.ndarray, what: str) -> None:
    """Raise unless every entry is finite and non-negative; NaN and inf are rejected."""
    bad = weights[~np.isfinite(weights) | (weights < 0.0)]
    if bad.size:
        raise ValueError(f"{what} must be finite and non-negative, got {float(bad[0])!r}")


def _fsums(terms: np.ndarray, counts: Iterable[int]) -> list[float]:
    """math.fsum of each run of ``terms`` in turn, the runs being ``counts`` long."""
    terms = terms.tolist()
    ends = list(accumulate(counts))
    return [math.fsum(terms[start:end]) for start, end in zip([0] + ends, ends)]


class WeightedCoverage(Objective):
    """f(S) = total weight of universe items covered by the sets of S.

    The gain of e sums the weights of e's items that S leaves uncovered.
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
        self._cover_items = tuple(np.fromiter(c, dtype=np.intp, count=len(c)) for c in cover_sets)
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
        return math.fsum(self.universe_weights[self._state(s)].tolist())

    def _state(self, s: frozenset) -> np.ndarray:
        """Which universe items s covers."""
        covered = np.zeros(self.universe_weights.size, dtype=bool)
        for e in s:
            covered[self._cover_items[e]] = True
        return covered

    def _gains_with(self, covered: np.ndarray, es: list[int], s: frozenset) -> list[float]:
        items = [self._cover_items[e] for e in es]
        at = np.concatenate(items)
        terms = np.where(covered[at], 0.0, self.universe_weights[at])
        return _fsums(terms, map(len, items))

    def _gain(self, covered: np.ndarray, e: int, s: frozenset) -> float:
        items = self._cover_items[e]
        return math.fsum(np.where(covered[items], 0.0, self.universe_weights[items]).tolist())


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
        columns = self.similarity[:, es].T  # row j: the similarities of es[j]
        beats = columns > best
        rows, clients = np.nonzero(beats)  # row by row
        terms = np.empty((rows.size, 2))
        terms[:, 0] = columns[rows, clients]
        terms[:, 1] = -best[clients]
        return _fsums(terms.ravel(), (2 * beats.sum(axis=1)).tolist())

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
    """

    kind = "graph-cut"
    exact_gains = True

    def __init__(self, n_vertices: int, edges: Sequence[tuple[int, int, float]]):
        n_vertices = int(n_vertices)
        us, vs, ws = [], [], []
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not allowed")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) references a vertex outside range")
            us.append(u)
            vs.append(v)
            ws.append(w)
        weights = np.asarray(ws, dtype=float)
        _check_weights(weights, "edge weights")
        super().__init__(n_vertices, monotone=False)
        self.edge_u = np.asarray(us, dtype=int)
        self.edge_v = np.asarray(vs, dtype=int)
        self.edge_w = weights
        # per vertex: the other endpoint and the weight of each edge at it
        ends = np.concatenate((self.edge_u, self.edge_v))
        order = np.argsort(ends, kind="stable")
        cuts = np.cumsum(np.bincount(ends, minlength=n_vertices))[:-1]
        self._others = tuple(np.split(np.concatenate((self.edge_v, self.edge_u))[order], cuts))
        self._weights = tuple(np.split(np.concatenate((weights, weights))[order], cuts))

    def dependents(self, x: int) -> frozenset[int]:
        """The neighbours of x."""
        x = self._check_id(x)
        return frozenset(self._others[x].tolist())

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(u), int(v), float(w))
            for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w)
        ]

    def _value(self, s: frozenset) -> float:
        inside = self._state(s)
        return math.fsum(self.edge_w[inside[self.edge_u] ^ inside[self.edge_v]].tolist())

    def _state(self, s: frozenset) -> np.ndarray:
        """Which vertices lie in s."""
        inside = np.zeros(self.n, dtype=bool)
        inside[np.fromiter(s, dtype=np.intp, count=len(s))] = True
        return inside

    def _gains_with(self, inside: np.ndarray, es: list[int], s: frozenset) -> list[float]:
        others = [self._others[e] for e in es]
        weights = np.concatenate([self._weights[e] for e in es])
        # e lies outside s, so an edge at e crosses now exactly when its other end is inside
        crossing = inside[np.concatenate(others)]
        return _fsums(np.where(crossing, -weights, weights), map(len, others))

    def _gain(self, inside: np.ndarray, e: int, s: frozenset) -> float:
        weights = self._weights[e]
        return math.fsum(np.where(inside[self._others[e]], -weights, weights).tolist())


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

    def _gains_with(self, state: None, es: list[int], s: frozenset) -> list[float]:
        return [math.fsum((w,)) for w in self.weights[es].tolist()]

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
