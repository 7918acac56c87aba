"""Matroid independence oracles with rank and circuit extraction."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .ground import GroundSet, Ids

NOT_DEPENDENT = "circuit() requires base+g to be dependent"
NOT_INDEPENDENT = "circuit() requires an independent base set"


def _never(e: int) -> bool:
    """``fits_to`` of a dependent set: nothing joins it independently."""
    return False


def _always(e: int) -> bool:
    """``fits_to`` of a uniform set under its cap: every element joins it independently."""
    return True


class Matroid(GroundSet):
    """Independence oracle over the ground set 0..n-1.

    Subclasses provide the fast native membership test; rank and circuit are
    derived from it, so every algorithm in the package stays oracle-generic.
    The concrete matroids override circuit() with a direct construction of
    the same set.  The ground set and constraints are frozen at construction.
    The only mutable state is a one-slot memo ``(S, independent(S), per-class
    state of S)`` of the last set fits_to() or a native circuit() was asked
    against: the concrete matroids keep S's size, its count per block, or
    its rooted forest.  fits_to(S) validates S and reads its
    memo state once, and returns the predicate ``e -> fits(e, S)``, built
    by the class's one kernel ``_fits``, which answers in O(1) for ids
    already known to be valid.  The stream's drain and the greedy's refresh
    keep one predicate while their solution stands and fetch a new one at
    each change; fits() and fits_each() are thin uses of it.  The memo is
    replaced whole, never changed in place, so a copy of the oracle may
    share it, and a predicate holds on to the state it was built from.
    The graphic matroid derives the forest of S from the memo's when S is
    the memo's set plus one edge, or the memo's set with one edge swapped
    for an edge whose endpoints share a tree, as the builders' and the
    greedy's solutions change; any other S is searched afresh.  Its circuit
    is read off the same forest.
    """

    kind = "abstract"
    n: int
    k: int

    def is_independent(self, ids: Ids) -> bool:
        return self._independent(self._as_set(ids))

    def fits(self, e: int, ids: Ids) -> bool:
        """Whether ids + e is independent: ``is_independent(ids | {e})``."""
        e = self._check_id(e)
        return self.fits_to(ids)(e)

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
        return list(map(self._fits_to(s), es)) if es else []

    def fits_to(self, ids: Ids) -> Callable[[int], bool]:
        """The predicate ``e -> fits(e, ids)``, for ids e already known to be valid.

        Validates ids and reads its memo state once, here, raising as fits()
        would for a bad id in ids; the predicate checks nothing.  It answers
        for the set ids was when fetched: a caller whose set changes fetches
        a new one.
        """
        return self._fits_to(self._as_set(ids))

    def _fits_to(self, s: frozenset) -> Callable[[int], bool]:
        """``fits_to`` of a validated set."""
        _, independent, state = self._remembered(s)
        return self._fits(state, s) if independent else _never

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

    def _fits(self, state, s: frozenset) -> Callable[[int], bool]:
        """The predicate ``e -> s + e is independent`` of an independent s: the one kernel.

        Asked for every valid id e, members of s included, which fit.
        """
        independent = self._independent
        return lambda e: e in s or independent(s | {e})


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

    def _fits(self, state, s: frozenset) -> Callable[[int], bool]:
        return _always if len(s) < self.cap else s.__contains__

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

    def _fits(self, counts: list[int], s: frozenset) -> Callable[[int], bool]:
        block_of = self.block_of
        room = [c < cap for c, cap in zip(counts, self.capacities)]  # per block
        return lambda e: e in s or room[block_of[e]]

    def circuit(self, a: Ids, g: int) -> frozenset:
        """g plus the members of the base in g's block, when that block is full."""
        base, g, counts = self._circuit_args(a, g)
        block = self.block_of[g]
        if g in base or counts[block] < self.capacities[block]:
            raise ValueError(NOT_DEPENDENT)
        return frozenset(x for x in base if self.block_of[x] == block) | {g}


class GraphicMatroid(Matroid):
    """Elements are edges of a simple graph; independent = acyclic subset.

    The vertices that some edge touches are numbered 0.. in order of first
    touch, and every search works on those numbers (``_ends``), so a vertex
    no edge touches costs nothing, however many ``n_vertices`` declares.
    The memo state of a forest is rooted: a tree label and a parent edge
    (-1 at a root) per touched vertex.  Fits compares labels; a circuit
    walks parent edges up from g's endpoints to where the two ways meet.
    """

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
        touched: dict[int, int] = {}  # vertex -> its number among the touched ones
        self._ends = tuple(
            (touched.setdefault(u, len(touched)), touched.setdefault(v, len(touched)))
            for u, v in pairs
        )
        self._touched = len(touched)
        self.n = len(pairs)
        self.k = self._forest(range(self.n))[0]  # edges of a spanning forest

    def _independent(self, s: frozenset) -> bool:
        return self._remember(s)[0]

    def _forest(self, s: Iterable[int]):
        """The rank of the edges s, and a tree label and a parent edge per touched vertex.

        One search from each tree's first vertex, its root, which labels the
        tree; a vertex no edge of s touches is a root of its own.  The parent
        edges are those of the search, and describe a forest only when s is
        one.  The rank is the number of vertices s touches minus its trees.
        """
        adjacent: dict[int, list[tuple[int, int]]] = {}  # vertex -> (neighbour, edge) per edge
        for e in s:
            u, v = self._ends[e]
            adjacent.setdefault(u, []).append((v, e))
            adjacent.setdefault(v, []).append((u, e))
        tree = list(range(self._touched))
        parent = [-1] * self._touched
        roots = 0
        for root in adjacent:
            if tree[root] != root:
                continue
            roots += 1
            stack = [root]
            while stack:
                for y, e in adjacent[stack.pop()]:
                    if tree[y] == y and y != root:
                        tree[y], parent[y] = root, e
                        stack.append(y)
        return len(adjacent) - roots, tree, parent

    def _way_up(self, parent: list[int], x: int) -> list[int]:
        """The parent edges from x up to its root."""
        ends = self._ends
        edges = []
        while (e := parent[x]) >= 0:
            edges.append(e)
            u, v = ends[e]
            x = u if x == v else v
        return edges

    def _path(self, parent: list[int], u: int, v: int) -> tuple[list[int], list[int]]:
        """The forest path from u to v in one tree: the edges up from each to where they meet."""
        up, down = self._way_up(parent, u), self._way_up(parent, v)
        while up and down and up[-1] == down[-1]:
            up.pop()
            down.pop()
        return up, down

    def _hang(self, parent: list[int], x: int, e: int, cut: int = -1) -> list[int]:
        """A copy of parent with x hung from e and x's way up reversed, up to the edge cut."""
        parent, ends = parent.copy(), self._ends
        while True:
            parent[x], e = e, parent[x]
            if e == cut:
                return parent
            u, v = ends[e]
            x = u if x == v else v

    def _remember(self, s: frozenset):
        """Whether s is a forest and, if so, its tree labels and parent edges.

        When s is the memo's forest plus an edge e joining trees a and b, b
        is relabelled a, and e's endpoint in b is re-rooted and hung from e.
        When s is the memo's forest with an edge x swapped for an edge g
        whose endpoints share a tree, s is a forest iff x lies on g's forest
        path; then x is cut, g's endpoint below it is re-rooted and hung
        from g, and the labels are kept.  Any other s is searched afresh.
        """
        memo = self._memo
        if memo is None:
            return self._search(s)
        key = memo[0]
        grown = len(s) - len(key)
        added = s - key if grown in (0, 1) else ()
        if len(added) != 1:
            return self._search(s)
        if not memo[1]:
            return (False, None) if grown else self._search(s)
        tree, parent = memo[2]
        (g,) = added
        u, v = self._ends[g]
        a, b = tree[u], tree[v]
        if grown:  # s is the memo's forest plus g
            if a == b:
                return False, None
            return True, ([a if t == b else t for t in tree], self._hang(parent, v, g))
        if a != b:
            return self._search(s)
        (x,) = key - s  # s is the memo's forest with x swapped for g
        up, down = self._path(parent, u, v)
        if x not in up and x not in down:
            return False, None
        return True, (tree, self._hang(parent, u if x in up else v, g, x))

    def _search(self, s: frozenset):
        """``_remember(s)`` from a fresh search of s, without the memo."""
        rank, tree, parent = self._forest(s)
        return (True, (tree, parent)) if len(s) == rank else (False, None)

    def _fits(self, state, s: frozenset) -> Callable[[int], bool]:
        tree, _ = state
        ends = self._ends

        def fits(e: int) -> bool:
            u, v = ends[e]
            return e in s or tree[u] != tree[v]

        return fits

    def circuit(self, a: Ids, g: int) -> frozenset:
        """g plus the path joining g's endpoints in the forest of the base."""
        base, g, (tree, parent) = self._circuit_args(a, g)
        u, v = self._ends[g]
        if g in base or tree[u] != tree[v]:
            raise ValueError(NOT_DEPENDENT)
        up, down = self._path(parent, u, v)
        return frozenset(up).union(down, (g,))


def make_uniform(n: int, k: int) -> UniformMatroid:
    return UniformMatroid(n, k)


def make_partition(blocks, capacities) -> PartitionMatroid:
    return PartitionMatroid(blocks, capacities)


def make_graphic(n_vertices: int, edges) -> GraphicMatroid:
    return GraphicMatroid(n_vertices, edges)
