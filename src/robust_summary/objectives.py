"""Submodular objective oracles: coverage, facility location, graph cuts, modular."""

from __future__ import annotations

import bisect
import copy
from typing import Iterable, Sequence

import numpy as np

from .ground import GroundSet, Ids

# candidates gains() evaluates per _values_with call: bounds its temporaries
BATCH_ROWS = 256


class Objective(GroundSet):
    """Value oracle for a normalized, non-negative submodular set function.

    The ground set is the integers 0..n-1.  Every value() call bumps a query
    tally so experiment reports can account oracle cost; a singleton value
    counts as one query even when it comes from the table below, a marginal
    counts as two even when f(S) comes from the memo, and gains() counts two
    per candidate.  Parameters are frozen at construction.  The mutable state
    is the tally, a one-slot memo ``(S, f(S), per-class state of S)`` of the
    last set a marginal was asked against, so marginals against an unchanged
    S cost one evaluation of f(S+e), and a table of every f({e}), filled in
    batches on the first one-element value() query.  The memo is replaced
    whole, never changed in place; clone() gives a copy with its own tally
    and an empty memo that shares the table, so it is computed at most once
    per objective.
    """

    kind = "abstract"

    def __init__(self, n: int, monotone: bool):
        if n < 0:
            raise ValueError("ground set size must be non-negative")
        self.n = int(n)
        self.monotone = bool(monotone)
        self._queries = 0
        self._singletons: list = [None]  # one slot, shared by every clone

    def value(self, ids: Ids) -> float:
        s = self._as_set(ids)
        self._queries += 1
        if len(s) == 1:
            return self._singleton_values()[next(iter(s))]
        return self._f(s)

    def marginal(self, e: int, ids: Ids) -> float:
        """f(ids + e) - f(ids), equal to the difference of two value() calls.

        Yields an exact 0.0 when e is already in the set.
        """
        e = self._check_id(e)
        s = self._as_set(ids)
        self._queries += 2
        _, base, state = self._remembered(s)
        with_e = base if e in s else float(self._value_with(state, e, s))
        return with_e - base

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
        _, base, state = self._remembered(s)
        outside = [e for e in es if e not in s]
        with_e: list = []
        for i in range(0, len(outside), BATCH_ROWS):
            with_e.extend(self._values_with(state, outside[i : i + BATCH_ROWS], s))
        fresh = iter(with_e)
        return [(base if e in s else float(next(fresh))) - base for e in es]

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
        """Elements whose marginal can change when x joins or leaves a set.

        For every S and every e outside the result and other than x, the
        exact marginal of e is the same against S with x as without it.
        None means "any element", which is always safe; a result that misses
        such an element is a correctness bug, since the streaming refile
        keeps every other filed gain as it is.
        """
        self._check_id(x)
        return None

    def _singleton_values(self) -> list[float]:
        """f({e}) for every e, each equal to _f(frozenset({e})); computed once."""
        table = self._singletons[0]
        if table is None:
            empty = frozenset()
            state = self._state(empty)
            table = []
            for start in range(0, self.n, BATCH_ROWS):
                es = list(range(start, min(start + BATCH_ROWS, self.n)))
                table.extend(float(v) for v in self._values_with(state, es, empty))
            self._singletons[0] = table
        return table

    def _remember(self, s: frozenset) -> tuple:
        return self._f(s), self._state(s)

    def _f(self, s: frozenset) -> float:
        """f(s) as value() returns it, without counting a query."""
        return float(self._value(s)) if s else 0.0

    def _value(self, s: frozenset) -> float:
        raise NotImplementedError

    def _state(self, s: frozenset):
        """What _value_with needs to know of s; never modified after it is made."""
        return None

    def _value_with(self, state, e: int, s: frozenset) -> float:
        """f(s + e) for e not in s, by the same float arithmetic as _value."""
        return self._value(s | {e})

    def _values_with(self, state, es: list[int], s: frozenset) -> Sequence[float]:
        """f(s + e) for each e of a non-empty list of ids outside s, each equal to _value_with."""
        return [self._value_with(state, e, s) for e in es]


def _check_weights(weights: np.ndarray, what: str) -> None:
    """Raise unless every entry is finite and non-negative; NaN and inf are rejected."""
    bad = weights[~np.isfinite(weights) | (weights < 0.0)]
    if bad.size:
        raise ValueError(f"{what} must be finite and non-negative, got {float(bad[0])!r}")


def _masked_row_sums(weights: np.ndarray, masks: np.ndarray) -> list[float]:
    """``weights[mask].sum()`` for each row of a boolean matrix, bit for bit.

    Each row's selected weights are summed on their own: np.add.reduceat
    would add them left to right instead of pairwise, as sum() does, and so
    round differently.
    """
    picked = np.broadcast_to(weights, masks.shape)[masks]
    ends = np.cumsum(masks.sum(axis=1)).tolist()
    return [picked[start:end].sum() for start, end in zip([0] + ends, ends)]


class WeightedCoverage(Objective):
    """f(S) = total weight of universe items covered by the sets of S."""

    kind = "weighted-coverage"

    def __init__(self, universe_weights: Sequence[float], covers: Sequence[Iterable[int]]):
        weights = np.asarray(list(universe_weights), dtype=float)
        _check_weights(weights, "universe weights")
        cover_sets = []
        for cover in covers:
            c = frozenset(int(u) for u in cover)
            for u in c:
                if not 0 <= u < weights.size:
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
        covered: set[int] = set()
        for e in s:
            covered |= self.covers[e]
        if not covered:
            return 0.0
        return float(self.universe_weights[sorted(covered)].sum())

    def _state(self, s: frozenset) -> np.ndarray:
        covered = np.zeros(self.universe_weights.size, dtype=bool)
        for e in s:
            covered[self._cover_items[e]] = True
        return covered

    def _value_with(self, covered: np.ndarray, e: int, s: frozenset) -> float:
        # a mask selects the covered items in ascending order, as sorted() does
        covered = covered.copy()
        covered[self._cover_items[e]] = True
        return self.universe_weights[covered].sum()

    def _values_with(self, covered: np.ndarray, es: list[int], s: frozenset) -> list[float]:
        items = [self._cover_items[e] for e in es]
        masks = np.repeat(covered[None, :], len(es), axis=0)
        masks[np.repeat(np.arange(len(es)), [len(i) for i in items]), np.concatenate(items)] = True
        return _masked_row_sums(self.universe_weights, masks)


class FacilityLocation(Objective):
    """f(S) = sum over clients of the best similarity to an element of S."""

    kind = "facility-location"

    def __init__(self, similarity: Sequence[Sequence[float]]):
        sim = np.asarray(similarity, dtype=float)
        if sim.ndim != 2:
            raise ValueError("similarity must be a 2-D clients x elements matrix")
        _check_weights(sim, "similarity entries")
        super().__init__(sim.shape[1], monotone=True)
        self.similarity = sim

    def _value(self, s: frozenset) -> float:
        if self.similarity.shape[0] == 0:
            return 0.0
        cols = sorted(s)
        return float(self.similarity[:, cols].max(axis=1).sum())

    def _state(self, s: frozenset) -> np.ndarray | None:
        """Best similarity per client over s; None for the empty set."""
        if not s:
            return None
        return self.similarity[:, sorted(s)].max(axis=1)

    def _value_with(self, best: np.ndarray | None, e: int, s: frozenset) -> float:
        # max is exact, so the per-client bests equal those of _value(s + e)
        column = self.similarity[:, e]
        best = column.copy() if best is None else np.maximum(best, column)
        return best.sum()

    def _values_with(self, best: np.ndarray | None, es: list[int], s: frozenset) -> np.ndarray:
        # one C-contiguous row per candidate: a row sum adds pairwise, as sum() does
        columns = self.similarity[:, es].T
        rows = np.empty(columns.shape)
        if best is None:
            rows[...] = columns
        else:
            np.maximum(best, columns, out=rows)
        return rows.sum(axis=1)


class GraphCut(Objective):
    """f(S) = total weight of edges with exactly one endpoint in S.

    Non-monotone: f(V) = f(empty) = 0.  Elements are the graph vertices.
    """

    kind = "graph-cut"

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
        incident: list[list[int]] = [[] for _ in range(n_vertices)]
        for i, (u, v) in enumerate(zip(us, vs)):
            incident[u].append(i)
            incident[v].append(i)
        self._incident = tuple(np.asarray(edge_ids, dtype=np.intp) for edge_ids in incident)

    def dependents(self, x: int) -> frozenset[int]:
        """The neighbours of x."""
        x = self._check_id(x)
        at = self._incident[x]
        return frozenset(self.edge_u[at].tolist() + self.edge_v[at].tolist()) - {x}

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [
            (int(u), int(v), float(w))
            for u, v, w in zip(self.edge_u, self.edge_v, self.edge_w)
        ]

    def _value(self, s: frozenset) -> float:
        if self.edge_w.size == 0:
            return 0.0
        return float(self.edge_w[self._state(s)].sum())

    def _state(self, s: frozenset) -> np.ndarray:
        """Which edges cross the cut of s."""
        inside = np.zeros(self.n, dtype=bool)
        inside[np.fromiter(s, dtype=np.intp, count=len(s))] = True
        return inside[self.edge_u] ^ inside[self.edge_v]

    def _value_with(self, crossing: np.ndarray, e: int, s: frozenset) -> float:
        # adding e (not in s, no self-loops) flips exactly the edges at e
        crossing = crossing.copy()
        crossing[self._incident[e]] ^= True
        return self.edge_w[crossing].sum()

    def _values_with(self, crossing: np.ndarray, es: list[int], s: frozenset) -> list[float]:
        incident = [self._incident[e] for e in es]
        masks = np.repeat(crossing[None, :], len(es), axis=0)
        masks[np.repeat(np.arange(len(es)), [len(i) for i in incident]), np.concatenate(incident)] ^= True
        return _masked_row_sums(self.edge_w, masks)


class Modular(Objective):
    """Additive f(S) = sum of per-element weights."""

    kind = "modular"

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
        return float(self.weights[sorted(s)].sum())

    def _state(self, s: frozenset) -> tuple[list[int], np.ndarray]:
        ids = sorted(s)
        return ids, self.weights[ids]

    def _value_with(self, state, e: int, s: frozenset) -> float:
        ids, weights = state
        i = bisect.bisect(ids, e)
        return np.concatenate((weights[:i], self.weights[e : e + 1], weights[i:])).sum()

    def _values_with(self, state, es: list[int], s: frozenset) -> np.ndarray:
        # row j is _value_with's array for es[j]: one C-contiguous row per
        # candidate, so a row sum adds pairwise, as sum() does
        ids, weights = state
        at = np.searchsorted(np.asarray(ids, dtype=np.intp), es, side="right")
        cols = np.arange(len(ids) + 1)
        rows = np.append(weights, 0.0)[cols - (cols > at[:, None])]
        rows[np.arange(len(es)), at] = self.weights[es]
        return rows.sum(axis=1)


def make_weighted_coverage(universe_weights, covers) -> WeightedCoverage:
    return WeightedCoverage(universe_weights, covers)


def make_facility_location(similarity) -> FacilityLocation:
    return FacilityLocation(similarity)


def make_cut_function(n_vertices, edges) -> GraphCut:
    return GraphCut(n_vertices, edges)


def make_modular(weights) -> Modular:
    return Modular(weights)
