"""Matroid oracles: membership, rank, circuits, axioms."""

import copy
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_summary import (
    CentralizedConfig,
    StreamingConfig,
    build_summary,
    format_summary,
    greedy_matroid,
    make_graphic,
    make_modular,
    make_partition,
    make_uniform,
    stream_summary,
)
from robust_summary.matroids import Matroid

from helpers import (
    augmentation_violations,
    downward_closed_violations,
    edge_subset_has_cycle,
    independence_table,
    literal_build_summary,
    literal_stream_summary,
    mask_to_ids,
    minimal_dependent_supersets,
    outcome,
    plain_greedy_matroid,
    rank_of,
    set_forms,
)


def test_uniform_membership():
    m = make_uniform(5, 2)
    assert m.is_independent([])
    assert m.is_independent([0, 1])
    assert not m.is_independent([0, 1, 2])
    assert m.k == 2
    assert make_uniform(1, 5).k == 1  # rank capped by the ground set


def test_partition_membership():
    m = make_partition([[0, 1], [2, 3]], [1, 1])
    assert m.is_independent([0, 2])
    assert not m.is_independent([0, 1])
    assert m.k == 2
    assert make_partition([[0, 1], [2]], [1, 1]).k == 2
    assert make_partition([[0, 1, 2]], [5]).k == 3  # capacity above the block size


def test_partition_validation():
    with pytest.raises(ValueError):
        make_partition([[0, 1]], [1, 1])  # capacity count mismatch
    with pytest.raises(ValueError):
        make_partition([[0, 2]], [1])  # not a partition of 0..n-1
    with pytest.raises(ValueError):
        make_partition([[0]], [-1])


def test_rank_examples():
    assert rank_of(make_uniform(5, 2), [0, 1, 2]) == 2
    assert rank_of(make_partition([[0, 1], [2]], [1, 1]), [0, 1, 2]) == 2
    triangle = make_graphic(3, [(0, 1), (1, 2), (2, 0)])
    # spanning tree of a triangle has two edges; oracle: cycle enumeration
    assert not edge_subset_has_cycle(3, triangle.edges, [0, 1])
    assert edge_subset_has_cycle(3, triangle.edges, [0, 1, 2])
    assert rank_of(triangle, [0, 1, 2]) == 2
    assert triangle.k == 2


def test_graphic_matches_cycle_detection_on_all_subsets():
    # two structures with up to 8 edges, exhaustively compared against DFS
    graphs = [
        (4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        (5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 3), (1, 4)]),
    ]
    for n_vertices, pairs in graphs:
        m = make_graphic(n_vertices, pairs)
        for r in range(len(pairs) + 1):
            for chosen in itertools.combinations(range(len(pairs)), r):
                expected = not edge_subset_has_cycle(n_vertices, pairs, chosen)
                assert m.is_independent(chosen) == expected


def test_graphic_validation():
    with pytest.raises(ValueError):
        make_graphic(3, [(0, 0)])
    with pytest.raises(ValueError):
        make_graphic(3, [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(ValueError):
        make_graphic(2, [(0, 5)])


def test_graphic_rank_counts_components():
    # triangle plus a disjoint edge plus an isolated vertex: 6 vertices, 2 comps + isolated
    m = make_graphic(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert m.k == 6 - 3


def test_circuit_uniform():
    m = make_uniform(3, 2)
    assert m.circuit([0, 1], 2) == frozenset({0, 1, 2})


def test_circuit_partition():
    m = make_partition([[0, 1], [2]], [1, 1])
    assert m.circuit([0, 2], 1) == frozenset({0, 1})


def test_circuit_graphic_square_with_diagonal():
    # square 0-1-2-3 plus diagonal (0,2) as element 4
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    m = make_graphic(4, pairs)
    base = [0, 1, 2]
    got = m.circuit(base, 4)
    # oracle: the unique cycle in tree+edge found by DFS over candidate subsets
    cycles = [
        set(sub) | {4}
        for r in range(len(base) + 1)
        for sub in itertools.combinations(base, r)
        if edge_subset_has_cycle(4, pairs, list(sub) + [4])
    ]
    smallest = min(cycles, key=len)
    assert got == frozenset(smallest)
    assert got == frozenset({0, 1, 4})


def test_circuit_contract_errors():
    m = make_uniform(4, 2)
    with pytest.raises(ValueError):
        m.circuit([0, 1, 2], 3)  # base not independent
    with pytest.raises(ValueError):
        m.circuit([0], 1)  # base+g still independent


def test_circuit_minimality_and_uniqueness_small():
    matroids = [
        make_uniform(6, 3),
        make_partition([[0, 1, 2], [3, 4], [5]], [2, 1, 1]),
        make_graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ]
    for m in matroids:
        table = independence_table(m)
        n = m.n
        for mask in range(1 << n):
            if not table[mask]:
                continue
            base = mask_to_ids(mask, n)
            for g in range(n):
                if mask >> g & 1 or table[mask | (1 << g)]:
                    continue
                circuit = m.circuit(base, g)
                for x in circuit:
                    assert m.is_independent(circuit - {x})
                minimal = minimal_dependent_supersets(table, mask, g, n)
                assert len(minimal) == 1
                assert set(mask_to_ids(minimal[0], n)) == set(circuit)


def test_axioms_exhaustive_small():
    matroids = [
        make_uniform(7, 3),
        make_partition([[0, 1, 2], [3, 4, 5], [6]], [1, 2, 1]),
        make_graphic(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
    ]
    for m in matroids:
        table = independence_table(m)
        assert table[0], "the empty set must be independent"
        assert not downward_closed_violations(table, m.n)
        assert not augmentation_violations(table, m.n)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    caps=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    seed=st.integers(0, 999),
)
def test_partition_axioms_sampled(sizes, caps, seed):
    blocks, start = [], 0
    for s in sizes:
        blocks.append(list(range(start, start + s)))
        start += s
    m = make_partition(blocks, caps[: len(blocks)])
    n = m.n
    rng = np.random.default_rng(seed)
    for _ in range(30):
        a = set(int(e) for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        b = set(int(e) for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        if m.is_independent(b):
            for x in list(b):
                assert m.is_independent(b - {x})
        if m.is_independent(a) and m.is_independent(b) and len(a) < len(b):
            assert any(m.is_independent(a | {e}) for e in b - a)


def test_out_of_range_rejected():
    m = make_uniform(3, 2)
    with pytest.raises(ValueError):
        m.is_independent([3])
    with pytest.raises(ValueError):
        rank_of(m, [-1])


def _random_matroid(rng, kind):
    if kind == "uniform":
        return make_uniform(int(rng.integers(1, 12)), int(rng.integers(0, 6)))
    if kind == "partition":
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 5)))
        ids = [int(e) for e in rng.permutation(int(sizes.sum()))]
        blocks = [ids[start - size : start] for size, start in zip(sizes, np.cumsum(sizes))]
        return make_partition(blocks, rng.integers(0, 4, size=len(blocks)))
    n_vertices = int(rng.integers(2, 9))
    pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    pairs = [pairs[i] for i in rng.permutation(len(pairs)) if rng.random() < 0.6]
    return make_graphic(n_vertices, pairs or [(0, 1)])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["uniform", "partition", "graphic"]), seed=st.integers(0, 2**32 - 1))
def test_native_circuit_matches_generic(kind, seed):
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, kind)
    assert type(m).circuit is not Matroid.circuit
    base: set[int] = set()
    for e in rng.permutation(m.n):
        if rng.random() < 0.8 and m.is_independent(base | {int(e)}):
            base.add(int(e))
    for g in range(m.n):
        if g not in base and not m.is_independent(base | {g}):
            assert m.circuit(iter(base), g) == Matroid.circuit(m, base, g)
        else:
            with pytest.raises(ValueError, match="base\\+g to be dependent"):
                m.circuit(base, g)
            with pytest.raises(ValueError, match="base\\+g to be dependent"):
                Matroid.circuit(m, base, g)


@pytest.mark.parametrize(
    "m, dependent",
    [
        (make_uniform(4, 2), [0, 1, 2]),
        (make_partition([[0, 1], [2, 3]], [1, 2]), [0, 1]),
        (make_graphic(3, [(0, 1), (1, 2), (2, 0)]), [0, 1, 2]),
    ],
)
def test_native_circuit_rejects_a_dependent_base(m, dependent):
    for g in range(m.n):
        for circuit in (m.circuit, lambda a, g: Matroid.circuit(m, a, g)):
            with pytest.raises(ValueError, match="independent base set"):
                circuit(dependent, g)


def _random_subset(rng, n):
    return set(int(e) for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["uniform", "partition", "graphic"]), seed=st.integers(0, 2**32 - 1))
def test_fits_equals_independence_of_the_union(kind, seed):
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, kind)
    # random sets are often dependent; members of S are asked about too
    sets = [_random_subset(rng, m.n) for _ in range(3)] + [set()]
    for _ in range(40):
        base = sets[int(rng.integers(len(sets)))]
        e = int(rng.integers(m.n))
        assert m.fits(e, iter(base)) == m.is_independent(base | {e})


def test_fits_on_dependent_sets_and_members():
    graphic = make_graphic(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert not graphic.fits(3, [0, 1, 2])  # S holds a cycle
    assert not graphic.fits(0, [0, 1, 2])
    assert graphic.fits(0, [0, 1]) and not graphic.fits(2, [0, 1]) and graphic.fits(3, [0, 1])
    partition = make_partition([[0, 1, 2], [3]], [1, 1])
    assert not partition.fits(3, [0, 1])
    assert partition.fits(3, [0]) and not partition.fits(1, [0]) and partition.fits(0, [0])
    uniform = make_uniform(4, 2)
    assert uniform.fits(1, [0, 1]) and not uniform.fits(2, [0, 1]) and not uniform.fits(0, [0, 1, 2])
    for m in (graphic, partition, uniform):
        with pytest.raises(ValueError, match=r"element id 4 outside range \[0, 4\)"):
            m.fits(4, [0])
        with pytest.raises(ValueError, match=r"element id -1 outside range \[0, 4\)"):
            m.fits(0, iter([-1, 1]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_graphic_circuit_follows_the_base_back_and_forth(seed):
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, "graphic")
    forests = []
    for _ in range(3):
        base: set[int] = set()
        for e in rng.permutation(m.n):
            if rng.random() < 0.7 and m.is_independent(base | {int(e)}):
                base.add(int(e))
        forests.append(base)
    for _ in range(30):
        base = forests[int(rng.integers(len(forests)))]
        g = int(rng.integers(m.n))
        if rng.random() < 0.3:
            assert m.fits(g, base) == m.is_independent(base | {g})
        elif g not in base and not m.is_independent(base | {g}):
            assert m.circuit(base, g) == Matroid.circuit(m, base, g)
        else:
            with pytest.raises(ValueError, match="base\\+g to be dependent"):
                m.circuit(base, g)


def _loop_fits(m, candidates, ids):
    return [m.fits(e, ids) for e in candidates]


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["uniform", "partition", "graphic"]), seed=st.integers(0, 2**32 - 1))
def test_fits_each_equals_the_fits_loop(kind, seed):
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, kind)
    reference = copy.copy(m)
    # random sets are often dependent; members of S and duplicates are asked about too
    for base in [_random_subset(rng, m.n) for _ in range(3)] + [set()]:
        candidates = [int(e) for e in rng.integers(0, m.n, size=int(rng.integers(0, 2 * m.n)))]
        candidates += list(range(m.n)) + sorted(base)[:3]
        got = m.fits_each(iter(candidates), iter(sorted(base)))
        assert got == _loop_fits(reference, candidates, base)
        assert got == [m.is_independent(base | {e}) for e in candidates]
        assert all(type(f) is bool for f in got)


def test_fits_each_on_dependent_sets_and_members():
    graphic = make_graphic(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert graphic.fits_each([3, 0], [0, 1, 2]) == [False, False]  # S holds a cycle
    assert graphic.fits_each([0, 2, 3], [0, 1]) == [True, False, True]
    partition = make_partition([[0, 1, 2], [3]], [1, 1])
    assert partition.fits_each([3, 2], [0, 1]) == [False, False]
    assert partition.fits_each([3, 1, 0], [0]) == [True, False, True]
    uniform = make_uniform(4, 2)
    assert uniform.fits_each([1, 2], [0, 1]) == [True, False]
    assert uniform.fits_each([0, 3], [0, 1, 2]) == [False, False]
    assert uniform.fits_each([], [0]) == [] and uniform.fits_each(iter(()), ()) == []


def _random_independent(rng, m):
    s: set[int] = set()
    for e in rng.permutation(m.n):
        if rng.random() < 0.7 and m.is_independent(s | {int(e)}):
            s.add(int(e))
    return frozenset(s)


def _assert_fits_to_matches(m, s, fits):
    """``fits``, fetched as m.fits_to(s), answers as fits does for every id outside s."""
    reference = copy.copy(m)
    reference._memo = None
    for e in range(m.n):
        if e not in s:
            assert fits(e) == reference.fits(e, s) == m.is_independent(s | {e})


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["uniform", "partition", "graphic"]), seed=st.integers(0, 2**32 - 1))
def test_fits_to_predicate_equals_fits(kind, seed):
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, kind)
    searched = []
    if kind == "graphic":
        search = m._search
        m._search = lambda s: searched.append(s) or search(s)
    s = _random_independent(rng, m)
    _assert_fits_to_matches(m, s, m.fits_to(s))
    # walk the way the builders do: add an edge that fits, or swap one along
    # the circuit of one that does not; the graphic memo derives each set
    for _ in range(8):
        outside = [e for e in range(m.n) if e not in s]
        if not outside:
            break
        g = outside[int(rng.integers(len(outside)))]
        if m.fits(g, s):
            s = s | {g}
        else:
            cycle = sorted(m.circuit(s, g) - {g})
            if not cycle:  # a uniform or partition matroid of capacity 0
                continue
            s = (s - {cycle[int(rng.integers(len(cycle)))]}) | {g}
        before = len(searched)
        fits = m.fits_to(s)
        assert len(searched) == before  # derived from the memo, not searched afresh
        _assert_fits_to_matches(m, s, fits)
    # a dependent set, or one holding an id out of range, as fits treats it
    others = [frozenset(_random_subset(rng, m.n)) for _ in range(3)]
    for bad in others + [s | {m.n}, s | {-1}, frozenset([m.n + 3])]:
        for e in range(m.n):
            fresh = copy.copy(m)
            assert outcome(lambda: m.fits_to(bad)(e)) == outcome(lambda: fresh.fits(e, bad))
            if bad in others:
                assert m.fits_to(bad)(e) == m.is_independent(bad | {e})


@pytest.mark.parametrize(
    "m",
    [
        make_uniform(4, 2),
        make_partition([[0, 1], [2, 3]], [1, 1]),
        make_graphic(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    ],
)
def test_fits_each_rejects_out_of_range_ids_as_the_loop_does(m):
    cases = [
        ([0, 4, 1], [2], r"element id 4 outside range \[0, 4\)"),  # a bad candidate
        ([1, -2, 5], [2], r"element id -2 outside range \[0, 4\)"),  # the first bad one
        ([1, 2], [0, 7], r"element id 7 outside range \[0, 4\)"),  # a bad S id
        ([9, 1], [0, -1], r"element id 9 outside range \[0, 4\)"),  # the loop checks e first
        ([1, 9], [0, -1], r"element id -1 outside range \[0, 4\)"),  # then S
    ]
    for candidates, ids, message in cases:
        with pytest.raises(ValueError, match=message):
            _loop_fits(m, candidates, ids)
        with pytest.raises(ValueError, match=message):
            m.fits_each(iter(candidates), iter(ids))
    with pytest.raises(ValueError, match=r"element id 4 outside range \[0, 4\)"):
        m.fits_each([], [4])  # S is checked even with no candidates


@pytest.mark.parametrize("kind", ["uniform", "partition", "graphic"])
@pytest.mark.parametrize("seed", range(8))
def test_frozenset_arguments_act_as_their_list_form(kind, seed):
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, kind)
    fast, plain = copy.copy(m), copy.copy(m)
    calls = (
        lambda o, s: o.is_independent(s),
        lambda o, s: o.fits(0, s),
        lambda o, s: o.fits_each(range(o.n), s),
        lambda o, s: [outcome(lambda: o.circuit(s, g)) for g in range(o.n)],
        lambda o, s: rank_of(o, s),
    )
    base = set()  # independent, so the native circuits are exercised
    for e in rng.permutation(m.n):
        if rng.random() < 0.8 and m.is_independent(base | {int(e)}):
            base.add(int(e))
    for subset in (base, _random_subset(rng, m.n)):
        for ids, listed in set_forms(subset, m.n):
            for call in calls:
                assert outcome(lambda: call(fast, ids)) == outcome(lambda: call(plain, listed))


def _answers(m, s):
    """Everything a graphic matroid says about s: independence, fits and circuits."""
    return (
        m.is_independent(s),
        m.fits_each(range(m.n), s),
        [outcome(lambda: m.circuit(s, g)) for g in range(m.n)],
    )


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), steps=st.lists(st.sampled_from("+-sdcjo"), max_size=24))
def test_graphic_labels_grown_or_kept_answer_as_a_fresh_oracle(seed, steps):
    # S+e grows the memo's forest, S-x+g with g's endpoints in one tree keeps
    # its labels or is dependent, with no search; anything else is searched
    # afresh.  Swap steps: along g's circuit ("s"), off g's path ("d"), along
    # g's circuit after circuit() was last asked for another edge ("c"), and
    # with g joining two trees ("j").  Each answer is checked against a fresh
    # oracle, and a copy sharing the memo keeps its own
    rng = np.random.default_rng(seed)
    m = _random_matroid(rng, "graphic")
    searched = []
    search = m._search
    m._search = lambda s: searched.append(s) or search(s)
    fresh = lambda: make_graphic(m.n_vertices, m.edges)
    pick = lambda xs: sorted(xs)[int(rng.integers(len(xs)))]
    s, twin, twin_set = frozenset(), None, None
    m.fits_to(s)  # the memo holds s from the start
    for step in steps:
        derived = False
        outside = [e for e in range(m.n) if e not in s]
        if step == "+" and outside:
            s, derived = s | {pick(outside)}, True
        elif step == "-" and s:
            s = s - {pick(s)}
        elif step in "sdc" and m.is_independent(s):
            closing = [g for g in outside if not m.fits(g, s)]
            if closing:
                g = pick(closing)
                if step == "s":
                    on_path = m.circuit(s, g) - {g}
                else:
                    on_path = fresh().circuit(s, g) - {g}
                    if step == "c" and len(closing) > 1:
                        m.circuit(s, pick(set(closing) - {g}))
                pool = s - on_path if step == "d" else on_path
                if pool:
                    s, derived = s - {pick(pool)} | {g}, True
        elif step == "j" and s and m.is_independent(s):
            joining = [g for g in outside if m.fits(g, s)]
            if joining:
                s = s - {pick(s)} | {pick(joining)}
        elif step == "o":
            s = frozenset(_random_subset(rng, m.n))
        if twin is None and rng.random() < 0.3:
            twin, twin_set = copy.copy(m), s
        before = len(searched)
        assert _answers(m, s) == _answers(fresh(), s)
        assert not derived or len(searched) == before
        if twin is not None:
            grown = twin_set | {int(rng.integers(m.n))}
            assert _answers(twin, grown) == _answers(fresh(), grown)


def test_graphic_labels_cost_the_touched_vertices_not_the_graph():
    # a million vertices, three edges: the forest labels cover the 4 touched
    # vertices, so neither the build nor the calls allocate per vertex
    tracemalloc.start()
    try:
        m = make_graphic(10**6, [(0, 1), (1, 2), (2, 3)])
        answers = [m.is_independent(s) for s in ([0, 1], [1, 2], [0, 2], [0, 1, 2])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answers == [True] * 4 and m.k == 3
    assert peak < 2 * 2**20


def test_graphic_swap_along_the_circuit_keeps_the_labels():
    # path 0-1-2-3 plus the chord 0-3: swapping the chord for the middle
    # edge keeps one tree over the same vertices, derived without a search
    m = make_graphic(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])
    searched = []
    search = m._search
    m._search = lambda s: searched.append(s) or search(s)
    base = frozenset({0, 1, 2})
    assert not m.fits(3, base)
    assert m.circuit(base, 3) == {0, 1, 2, 3}
    swapped = frozenset({0, 2, 3})
    before = len(searched)
    assert m.fits(4, swapped) and not m.fits(1, swapped)
    assert m._memo[0] == swapped and len(searched) == before
    assert m.circuit(swapped, 1) == {0, 1, 2, 3}
    # a swap whose entering edge joins two trees: searched afresh
    assert m.fits(1, {0, 2, 4}) and m.fits(3, {0, 2, 4})
    assert searched[before:] == [frozenset({0, 2, 4})]


class NestedCaps(Matroid):
    """At most ``cap`` elements, at most ``low_cap`` of them below ``split``: a laminar matroid.

    Defines only ``_independent``, so ``fits`` runs the base ``Matroid._fits``.
    """

    kind = "nested-caps"

    def __init__(self, n, cap, split, low_cap):
        self.n, self.cap, self.split, self.low_cap = n, cap, split, low_cap
        self.k = min(cap, min(split, low_cap) + n - split)

    def _independent(self, s):
        return len(s) <= self.cap and sum(e < self.split for e in s) <= self.low_cap


def test_matroid_with_only_an_independence_test_runs_the_builders_and_the_greedy():
    assert "_fits" not in NestedCaps.__dict__
    small = NestedCaps(8, 3, 4, 1)
    table = independence_table(small)
    assert not downward_closed_violations(table, 8) and not augmentation_violations(table, 8)
    assert small.k == rank_of(small, range(8)) == 3
    picks = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        objective = make_modular(rng.lognormal(0.0, 1.0, size=40))
        matroid = NestedCaps(40, 5, 20, 2)
        config = CentralizedConfig(epsilon=0.3, d=1, monotone_mode=True, seed=seed)
        summary = build_summary(objective.clone(), matroid, config)
        assert format_summary(summary) == format_summary(
            literal_build_summary(objective.clone(), matroid, config)
        )
        stream_config = StreamingConfig(epsilon=0.3, d=1, monotone_mode=True, seed=seed, audit=True)
        order = rng.permutation(40)
        assert format_summary(
            stream_summary(objective.clone(), matroid, stream_config, order), include_audit=True
        ) == format_summary(
            literal_stream_summary(objective.clone(), matroid, stream_config, order),
            include_audit=True,
        )
        chosen = greedy_matroid(range(40), objective.clone(), matroid)
        assert chosen == plain_greedy_matroid(range(40), objective.clone(), matroid)
        assert len(chosen) == 5 and sum(e < 20 for e in chosen) <= 2
        picks += len(summary.entries)
    assert picks
