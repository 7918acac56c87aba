"""Matroid independence oracles with rank and circuit extraction."""

from __future__ import annotations

from typing import Iterable, Sequence

from .ground import GroundSet, Ids

NOT_DEPENDENT = "circuit() requires base+g to be dependent"
NOT_INDEPENDENT = "circuit() requires an independent base set"


class Matroid(GroundSet):
    """Independence oracle over the ground set 0..n-1.

    Subclasses provide the fast native membership test; rank and circuit are
    derived from it, so every algorithm in the package stays oracle-generic.
    The concrete matroids override circuit() with a direct construction of
    the same set.  The ground set and constraints are frozen at construction.
    The only mutable state is a one-slot memo ``(S, independent(S), per-class
    state of S)`` of the last set fits() or a native circuit() was asked
    against: the concrete matroids keep S's size, its count per block, or
    its forest, so each candidate against an unchanged S costs O(1) beyond
    validating S.  fits_each() validates S once for a whole list of
    candidates.  The memo is replaced whole, never changed in place, so a
    copy of the oracle may share it.
    """

    kind = "abstract"
    n: int
    k: int

    def is_independent(self, ids: Ids) -> bool:
        return self._independent(self._as_set(ids))

    def fits(self, e: int, ids: Ids) -> bool:
        """Whether ids + e is independent: ``is_independent(ids | {e})``."""
        e = self._check_id(e)
        s = self._as_set(ids)
        _, independent, state = self._remembered(s)
        if e in s or not independent:
            return independent
        return self._fits(state, e, s)

    def fits_each(self, candidates: Ids, ids: Ids) -> list[bool]:
        """``[fits(e, ids) for e in candidates]``, validating ids once.

        Raises for the same id the loop would, except that a bad S raises
        even with no candidates.
        """
        es = [int(e) for e in candidates]
        if es:
            self._check_id(es[0])
        s = self._as_set(ids)
        self._check_ids(es)
        if not es:
            return []
        _, independent, state = self._remembered(s)
        if not independent:
            return [False] * len(es)
        return [e in s or self._fits(state, e, s) for e in es]

    def rank_of(self, ids: Ids) -> int:
        """Size of a maximal independent subset, grown greedily.

        Greedy is exact here by the matroid exchange property.
        """
        s = self._as_set(ids)
        grown: set[int] = set()
        for e in sorted(s):
            if self._independent(frozenset(grown | {e})):
                grown.add(e)
        return len(grown)

    def circuit(self, a: Ids, g: int) -> frozenset:
        """The unique minimal dependent subset of a+g, for independent a.

        Equals {g} plus every x in a whose removal restores independence;
        valid only when a is independent and a+g is not.
        """
        base = self._as_set(a)
        g = self._check_id(g)
        if not self._independent(base):
            raise ValueError(NOT_INDEPENDENT)
        with_g = base | {g}
        if self._independent(with_g):
            raise ValueError(NOT_DEPENDENT)
        members = {g}
        for x in sorted(base):
            if self._independent(with_g - {x}):
                members.add(x)
        return frozenset(members)

    def _circuit_args(self, a: Ids, g: int) -> tuple[frozenset, int, object]:
        """A native circuit()'s validated arguments and the memo state of the base.

        The base must be independent.
        """
        base = self._as_set(a)
        g = self._check_id(g)
        _, independent, state = self._remembered(base)
        if not independent:
            raise ValueError(NOT_INDEPENDENT)
        return base, g, state

    def _independent(self, s: frozenset) -> bool:
        raise NotImplementedError

    def _remember(self, s: frozenset) -> tuple:
        return self._independent(s), None

    def _fits(self, state, e: int, s: frozenset) -> bool:
        """Whether s + e is independent, for independent s and e not in s."""
        return self._independent(s | {e})


class UniformMatroid(Matroid):
    """Independent iff the set has at most k elements."""

    kind = "uniform"

    def __init__(self, n: int, k: int):
        n, k = int(n), int(k)
        if n < 0 or k < 0:
            raise ValueError("uniform matroid needs n >= 0 and k >= 0")
        self.n = n
        self.cap = k
        self.k = min(n, k)

    def _independent(self, s: frozenset) -> bool:
        return len(s) <= self.cap

    def _fits(self, state, e: int, s: frozenset) -> bool:
        return len(s) < self.cap

    def circuit(self, a: Ids, g: int) -> frozenset:
        base, g, _ = self._circuit_args(a, g)
        if g in base or len(base) < self.cap:
            raise ValueError(NOT_DEPENDENT)
        return base | {g}


class PartitionMatroid(Matroid):
    """Per-block capacities; blocks must partition the ground set exactly."""

    kind = "partition"

    def __init__(self, blocks: Sequence[Iterable[int]], capacities: Sequence[int]):
        blocks = [sorted(int(e) for e in b) for b in blocks]
        caps = [int(c) for c in capacities]
        if len(blocks) != len(caps):
            raise ValueError("need one capacity per block")
        if any(c < 0 for c in caps):
            raise ValueError("capacities must be non-negative")
        n = sum(len(b) for b in blocks)
        seen = sorted(e for b in blocks for e in b)
        if seen != list(range(n)):
            raise ValueError("blocks must partition 0..n-1 exactly")
        self.n = n
        self.blocks = tuple(tuple(b) for b in blocks)
        self.capacities = tuple(caps)
        self.block_of = [0] * n
        for bi, b in enumerate(blocks):
            for e in b:
                self.block_of[e] = bi
        self.k = sum(min(c, len(b)) for c, b in zip(caps, blocks))

    def _independent(self, s: frozenset) -> bool:
        return self._remember(s)[0]

    def _remember(self, s: frozenset) -> tuple[bool, list[int]]:
        """Independence of s and its member count per block."""
        counts = [0] * len(self.blocks)
        for e in s:
            counts[self.block_of[e]] += 1
        return all(c <= cap for c, cap in zip(counts, self.capacities)), counts

    def _fits(self, counts: list[int], e: int, s: frozenset) -> bool:
        block = self.block_of[e]
        return counts[block] < self.capacities[block]

    def circuit(self, a: Ids, g: int) -> frozenset:
        """g plus the members of the base in g's block, when that block is full."""
        base, g, counts = self._circuit_args(a, g)
        block = self.block_of[g]
        if g in base or counts[block] < self.capacities[block]:
            raise ValueError(NOT_DEPENDENT)
        return frozenset(x for x in base if self.block_of[x] == block) | {g}


class GraphicMatroid(Matroid):
    """Elements are edges of a simple graph; independent = acyclic subset."""

    kind = "graphic"

    def __init__(self, n_vertices: int, edges: Sequence[tuple[int, int]]):
        n_vertices = int(n_vertices)
        pairs = []
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}: graph must be simple")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u},{v}) references a vertex outside range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}: graph must be simple")
            seen.add(key)
            pairs.append((u, v))
        self.n_vertices = n_vertices
        self.edges = tuple(pairs)
        self.n = len(pairs)
        self.k = self._forest(range(self.n))[0]  # edges of a spanning forest

    def _independent(self, s: frozenset) -> bool:
        return self._remember(s)[0]

    def _forest(self, s: Iterable[int]):
        """The rank of the edges s, a tree label per vertex and the adjacency of s.

        The rank is the number of vertices s touches minus the trees it forms.
        """
        adjacent: dict[int, list[tuple[int, int]]] = {}
        for e in s:
            u, v = self.edges[e]
            adjacent.setdefault(u, []).append((v, e))
            adjacent.setdefault(v, []).append((u, e))
        tree = list(range(self.n_vertices))  # a vertex no edge touches is its own tree
        labelled: set[int] = set()
        trees = 0
        for root in adjacent:
            if root in labelled:
                continue
            trees += 1
            labelled.add(root)
            stack = [root]
            while stack:
                for y, _ in adjacent[stack.pop()]:
                    if y not in labelled:
                        labelled.add(y)
                        tree[y] = root
                        stack.append(y)
        return len(adjacent) - trees, tree, adjacent

    def _remember(self, s: frozenset):
        """Whether s is a forest (as many edges as its rank) and, if so, its labels and adjacency."""
        rank, tree, adjacent = self._forest(s)
        return (True, (tree, adjacent)) if len(s) == rank else (False, None)

    def _fits(self, state, e: int, s: frozenset) -> bool:
        tree, _ = state
        u, v = self.edges[e]
        return tree[u] != tree[v]

    def circuit(self, a: Ids, g: int) -> frozenset:
        """g plus the path joining g's endpoints in the forest of the base."""
        base, g, (tree, adjacent) = self._circuit_args(a, g)
        start, goal = self.edges[g]
        if g in base or tree[start] != tree[goal]:
            raise ValueError(NOT_DEPENDENT)
        via = {start: -1}  # vertex -> the forest edge it was reached by
        stack = [start]
        while goal not in via:
            x = stack.pop()
            for y, e in adjacent[x]:
                if y not in via:
                    via[y] = e
                    stack.append(y)
        members = {g}
        x = goal
        while x != start:
            e = via[x]
            members.add(e)
            u, v = self.edges[e]
            x = u if x == v else v
        return frozenset(members)


def make_uniform(n: int, k: int) -> UniformMatroid:
    return UniformMatroid(n, k)


def make_partition(blocks, capacities) -> PartitionMatroid:
    return PartitionMatroid(blocks, capacities)


def make_graphic(n_vertices: int, edges) -> GraphicMatroid:
    return GraphicMatroid(n_vertices, edges)
