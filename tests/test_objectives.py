"""Objective oracle behaviour: values, marginals, validation, counters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_summary import (
    make_cut_function,
    make_facility_location,
    make_modular,
    make_weighted_coverage,
)
from robust_summary.objectives import Objective
from robust_summary.thresholds import PowerLadder

from helpers import (
    ConcaveOfModular,
    coverage_value_by_union,
    cut_value_by_enumeration,
    exact_gains,
    outcome,
    set_forms,
)


def test_modular_values():
    obj = make_modular([1, 2, 3])
    assert obj.value([0, 2]) == 4.0
    assert obj.value([]) == 0.0
    assert obj.marginal(1, [0]) == 2.0
    assert make_modular([0.5]).value([0]) == 0.5
    assert make_modular([1, 1, 0]).value([0, 1]) == 2.0


def test_marginal_of_member_is_exactly_zero():
    obj = make_modular([1, 2, 3])
    assert obj.marginal(0, [0, 1]) == 0.0
    cut = make_cut_function(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert cut.marginal(1, [0, 1]) == 0.0


def test_weighted_coverage_union_oracle():
    weights = [1.0, 1.0, 1.0]
    covers = [[0, 1], [1, 2]]
    obj = make_weighted_coverage(weights, covers)
    expected = coverage_value_by_union(weights, covers, [0, 1])
    assert expected == 3.0
    assert obj.value([0, 1]) == expected
    assert obj.value([0]) == coverage_value_by_union(weights, covers, [0])


def test_weighted_coverage_degenerate():
    empty = make_weighted_coverage([1.0, 2.0], [[], [], []])
    assert all(empty.value(s) == 0.0 for s in ([], [0], [0, 1, 2]))
    shared = make_weighted_coverage([1.0], [[0], [0], [0]])
    for s in ([0], [1], [0, 2], [0, 1, 2]):
        assert shared.value(s) == 1.0


def test_facility_location_values():
    obj = make_facility_location([[0.2, 0.9]])
    assert obj.value([0]) == 0.2
    assert obj.value([0, 1]) == 0.9
    two = make_facility_location([[1.0, 0.0], [0.0, 1.0]])
    assert two.value([0, 1]) == 2.0
    assert two.value([]) == 0.0


def test_graph_cut_values():
    path = make_cut_function(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert path.value([1]) == 2.0
    assert path.value([0, 1, 2]) == 0.0
    assert path.value([0, 2]) == cut_value_by_enumeration([(0, 1, 1.0), (1, 2, 1.0)], [0, 2])
    assert path.value([0, 2]) == 2.0


def test_graph_cut_marginal_can_be_negative():
    # 2-node single edge of weight 5: cut({0}) = 5, cut({0,1}) = 0
    edges = [(0, 1, 5.0)]
    obj = make_cut_function(2, edges)
    expected = cut_value_by_enumeration(edges, [0, 1]) - cut_value_by_enumeration(edges, [0])
    assert expected == -5.0
    assert obj.marginal(1, [0]) == expected
    assert not obj.monotone


def test_monotone_flags():
    assert make_modular([1]).monotone
    assert make_weighted_coverage([1.0], [[0]]).monotone
    assert make_facility_location([[0.1]]).monotone
    assert not make_cut_function(2, [(0, 1, 1.0)]).monotone


def test_constructor_validation():
    with pytest.raises(ValueError):
        make_modular([-1.0])
    with pytest.raises(ValueError):
        make_weighted_coverage([-0.5], [[0]])
    with pytest.raises(ValueError):
        make_weighted_coverage([1.0], [[1]])  # cover outside universe
    with pytest.raises(ValueError):
        make_facility_location([[-0.1]])
    with pytest.raises(ValueError):
        make_cut_function(2, [(0, 0, 1.0)])  # self-loop
    with pytest.raises(ValueError):
        make_cut_function(2, [(0, 1, -1.0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", ["coverage", "cut", "facility", "modular"])
def test_non_finite_weights_rejected(kind, bad):
    make = {
        "coverage": lambda w: make_weighted_coverage([1.0, w], [[0], [1]]),
        "cut": lambda w: make_cut_function(3, [(0, 1, 1.0), (1, 2, w)]),
        "facility": lambda w: make_facility_location([[1.0, w], [0.5, 0.5]]),
        "modular": lambda w: make_modular([1.0, w, 2.0]),
    }[kind]
    with pytest.raises(ValueError, match=f"must be finite and non-negative, got {bad!r}"):
        make(bad)


def test_out_of_range_ids_rejected():
    obj = make_modular([1, 2])
    with pytest.raises(ValueError):
        obj.value([2])
    with pytest.raises(ValueError):
        obj.marginal(5, [0])
    with pytest.raises(ValueError):
        obj.marginal(0, [-1])


def test_query_counter_and_clone():
    obj = make_modular([1, 2, 3])
    obj.value([0])
    obj.value([1, 2])
    assert obj.queries == 2
    obj.marginal(0, [1])  # two value calls
    assert obj.queries == 4
    other = obj.clone()
    assert other.queries == 0
    other.value([0])
    assert obj.queries == 4 and other.queries == 1
    obj.reset_queries()
    assert obj.queries == 0


def _random_objective(rng, kind):
    n = int(rng.integers(2, 8))
    if kind == "modular":
        return make_modular(rng.random(n))
    if kind == "coverage":
        universe = int(rng.integers(1, 6))
        covers = [list(np.flatnonzero(rng.random(universe) < 0.5)) for _ in range(n)]
        return make_weighted_coverage(rng.random(universe), covers)
    if kind == "facility":
        return make_facility_location(rng.random((int(rng.integers(1, 5)), n)))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                edges.append((u, v, float(rng.random())))
    return make_cut_function(n, edges)


@pytest.mark.parametrize("kind", ["modular", "coverage", "facility", "cut"])
def test_submodularity_and_normalization_sampled(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(60):
        obj = _random_objective(rng, kind)
        assert obj.value([]) == 0.0
        for _ in range(20):
            members = list(rng.permutation(obj.n))
            cut_small = int(rng.integers(0, obj.n))
            cut_big = int(rng.integers(cut_small, obj.n))
            small, big = set(members[:cut_small]), set(members[:cut_big])
            outside = [e for e in range(obj.n) if e not in big]
            if not outside:
                continue
            e = int(rng.choice(outside))
            assert obj.value(big) >= 0.0
            assert obj.marginal(e, small) >= obj.marginal(e, big) - 1e-9
            if obj.monotone:
                assert obj.marginal(e, small) >= -1e-9


@settings(max_examples=60, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=7),
    seed=st.integers(0, 10_000),
)
def test_marginal_matches_two_value_calls(weights, seed):
    rng = np.random.default_rng(seed)
    obj = make_modular(weights)
    base = set(int(e) for e in rng.choice(obj.n, size=int(rng.integers(0, obj.n + 1)), replace=False))
    e = int(rng.integers(0, obj.n))
    direct = obj.value(base | {e}) - obj.value(base)
    assert abs(obj.marginal(e, base) - direct) <= 1e-9


KINDS = ["modular", "coverage", "facility", "cut"]
# the built-in kinds, with exact gains, and a class that defines only _value
ALL_KINDS = KINDS + ["concave"]


def _wide_objective(rng, kind):
    """An objective whose float sums round.

    Weights span nine decades, and sizes reach past numpy's 8- and 128-term
    summation blocks, so a gain rounded once differs in its last bits from a
    difference of two rounded values.
    """

    def weights(size):
        return rng.random(size) * 10.0 ** rng.integers(-4, 5, size=size)

    n = int(rng.integers(2, 40))
    if kind == "modular":
        return make_modular(weights(n))
    if kind == "concave":
        return ConcaveOfModular(weights(n))
    if kind == "coverage":
        universe = int(rng.integers(1, 300))
        density = float(rng.random())
        covers = [np.flatnonzero(rng.random(universe) < density) for _ in range(n)]
        return make_weighted_coverage(weights(universe), covers)
    if kind == "facility":
        clients = int(rng.integers(1, 200))
        return make_facility_location(weights(clients * n).reshape(clients, n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return make_cut_function(n, [(u, v, w) for (u, v), w in zip(pairs, weights(len(pairs)))])


def _random_subset(rng, n):
    return set(int(e) for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))


def _reference_gains(obj, candidates, ids):
    """The gains the oracle must return, without touching its tally or memo.

    With exact gains, each exact rational gain rounded once; otherwise the
    difference of two values.
    """
    if obj.exact_gains:
        return [float(g) for g in exact_gains(obj, candidates, ids)]
    other = obj.clone()
    return [other.value(set(ids) | {e}) - other.value(ids) for e in candidates]


def _reference_marginal(obj, e, ids):
    return _reference_gains(obj, [e], ids)[0]


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_marginal_equals_the_exact_gain_rounded_once(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    base = _random_subset(rng, obj.n)
    # members of base included: their marginal is 0.0
    expected = _reference_gains(obj, range(obj.n), base)
    assert [obj.marginal(e, base) for e in range(obj.n)] == expected
    for e in range(obj.n):
        assert obj.marginal(e, ()) == obj.value([e])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_marginal_exact_when_sets_alternate(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    sets = [_random_subset(rng, obj.n) for _ in range(3)] + [set()]
    for _ in range(30):
        base = sets[int(rng.integers(len(sets)))]
        e = int(rng.integers(obj.n))
        assert obj.marginal(e, base) == _reference_marginal(obj, e, base)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_marginal_exact_when_caller_mutates_its_set(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    base: set[int] = set()
    for x in rng.permutation(obj.n):
        e = int(rng.integers(obj.n))
        assert obj.marginal(e, base) == _reference_marginal(obj, e, base)
        base.add(int(x))
        if rng.random() < 0.3:
            base.discard(int(rng.integers(obj.n)))
        assert obj.marginal(e, base) == _reference_marginal(obj, e, base)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_marginal_exact_for_clone_and_original_in_turn(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    obj.marginal(0, _random_subset(rng, obj.n))  # cloned while its memo is filled
    other = obj.clone()
    sets = [_random_subset(rng, obj.n), _random_subset(rng, obj.n)]
    for step in range(20):
        oracle = (obj, other)[step % 2]
        base = sets[int(rng.integers(2))]
        e = int(rng.integers(obj.n))
        assert oracle.marginal(e, base) == _reference_marginal(oracle, e, base)
    assert obj.queries == 2 + 10 * 2 and other.queries == 10 * 2


def test_marginal_accepts_a_one_shot_iterator():
    obj = make_modular([1.0, 2.0, 4.0])
    assert obj.marginal(2, iter([0, 1])) == 4.0
    assert obj.value(e for e in [0, 2]) == 5.0
    with pytest.raises(ValueError, match=r"element id 3 outside range \[0, 3\)"):
        obj.value(iter([0, 3]))
    with pytest.raises(ValueError, match=r"element id -1 outside range \[0, 3\)"):
        obj.marginal(0, [2, -1])


def _loop_gains(obj, candidates, ids):
    return [obj.marginal(e, ids) for e in candidates]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    seed=st.integers(0, 2**32 - 1),
    degenerate=st.booleans(),
    filled=st.booleans(),
)
def test_gains_equal_marginals_and_exact_gains(kind, seed, degenerate, filled):
    def make():
        # degenerate: zero weights, empty covers, isolated vertices, parallel edges
        rng = np.random.default_rng(seed)
        if degenerate:
            return _singleton_objective(kind, int(rng.integers(1, 40)), seed)
        return _wide_objective(rng, kind)

    # each its own singleton table: obj's is filled or not, unfilled's never is
    obj, unfilled, reference = make(), make(), make()
    if filled:
        obj.value([0])
    rng = np.random.default_rng([seed, 1])
    for base in (_random_subset(rng, obj.n), set(), _random_subset(rng, obj.n)):
        # members of base, duplicates and every id of the ground set
        candidates = [int(e) for e in rng.integers(0, obj.n, size=int(rng.integers(0, 3 * obj.n)))]
        candidates += list(range(obj.n)) + sorted(base)[:3]
        before = obj.queries
        got = obj.gains(iter(candidates), iter(sorted(base)))
        assert obj.queries == before + 2 * len(candidates)
        # the batch, the one-element path and, at the empty set, the table
        # give the same bits; float.hex tells -0.0 from 0.0, which == does not
        bits = [float.hex(g) for g in got]
        assert [float.hex(g) for g in _loop_gains(obj, candidates, base)] == bits
        assert [float.hex(obj.gains([e], base)[0]) for e in candidates] == bits
        assert obj.queries == before + 6 * len(candidates)
        assert [float.hex(g) for g in _loop_gains(unfilled, candidates, base)] == bits
        assert got == _reference_gains(reference, candidates, base)
        assert all(type(g) is float for g in got)
    # a gain query never fills the table
    assert unfilled._singletons[0] is None
    assert (obj._singletons[0] is not None) == filled


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_gains_and_marginals_share_the_memo_in_turn(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    sets = [_random_subset(rng, obj.n), _random_subset(rng, obj.n), set()]
    for _ in range(12):
        base = sets[int(rng.integers(len(sets)))]
        if rng.random() < 0.5:
            e = int(rng.integers(obj.n))
            assert obj.marginal(e, base) == _reference_marginal(obj, e, base)
        else:
            candidates = [int(e) for e in rng.integers(0, obj.n, size=5)]
            assert obj.gains(candidates, base) == _reference_gains(obj, candidates, base)


def test_gains_of_no_candidates():
    obj = make_modular([1.0, 2.0, 4.0])
    assert obj.gains([], [0, 1]) == [] and obj.gains(iter(()), ()) == []
    assert obj.queries == 0


def test_gains_many_candidates_span_several_batches():
    rng = np.random.default_rng(7)
    obj = make_facility_location(rng.random((30, 700)))
    base = set(range(0, 700, 9))
    candidates = list(range(700)) * 2
    assert obj.gains(candidates, base) == _loop_gains(obj.clone(), candidates, base)


def test_gains_reject_out_of_range_ids_as_the_loop_does():
    obj = make_modular([1.0, 2.0, 4.0])
    cases = [
        ([0, 3, 1], [2], r"element id 3 outside range \[0, 3\)"),  # a bad candidate
        ([1, -2, 5], [2], r"element id -2 outside range \[0, 3\)"),  # the first bad one
        ([1, 2], [0, 7], r"element id 7 outside range \[0, 3\)"),  # a bad S id
        ([9, 1], [0, -1], r"element id 9 outside range \[0, 3\)"),  # the loop checks e first
        ([1, 9], [0, -1], r"element id -1 outside range \[0, 3\)"),  # then S
    ]
    for candidates, ids, message in cases:
        with pytest.raises(ValueError, match=message):
            _loop_gains(obj, candidates, ids)
        with pytest.raises(ValueError, match=message):
            obj.gains(iter(candidates), iter(ids))
    with pytest.raises(ValueError, match=r"element id 4 outside range \[0, 3\)"):
        obj.gains([], [4])  # S is checked even with no candidates


def _singleton_objective(kind, n, seed):
    """An objective over n elements with weights spanning nine decades and signed zeros.

    Coverage gets empty covers, facility location may have no clients, and
    the cut graph may repeat an edge and is sparse enough to leave isolated
    vertices.
    """
    rng = np.random.default_rng(seed)

    def weights(size):
        w = rng.random(size) * 10.0 ** rng.integers(-4, 5, size=size)
        w[rng.random(size) < 0.1] = 0.0
        w[rng.random(size) < 0.1] = -0.0
        return w

    if kind == "modular":
        return make_modular(weights(n))
    if kind == "concave":
        return ConcaveOfModular(weights(n))
    if kind == "coverage":
        universe = int(rng.integers(1, 300))
        density = float(rng.random()) * 0.2
        covers = [
            [] if rng.random() < 0.2 else np.flatnonzero(rng.random(universe) < density)
            for _ in range(n)
        ]
        return make_weighted_coverage(weights(universe), covers)
    if kind == "facility":
        clients = int(rng.integers(0, 40))
        return make_facility_location(weights(clients * n).reshape(clients, n))
    edges = []
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges += [(u, v)] * int(rng.integers(1, 3))  # parallel edges, either way round
    return make_cut_function(n, [(u, v, w) for (u, v), w in zip(edges, weights(len(edges)))])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.one_of(st.sampled_from([1, 255, 256, 257]), st.integers(1, 40)),
    seed=st.integers(0, 2**32 - 1),
    clone_first=st.booleans(),
)
def test_singleton_values_are_bit_identical_to_a_fresh_evaluation(kind, n, seed, clone_first):
    obj = _singleton_objective(kind, n, seed)
    other = obj.clone()
    first, second = (other, obj) if clone_first else (obj, other)
    order = np.random.default_rng(seed).permutation(n)
    got = [first.value([int(order[0])])]  # the first query fills the table
    got += [second.value((int(e),)) for e in order[1:]]
    # float.hex tells -0.0 from 0.0, which == does not
    expected = [float.hex(obj._f(frozenset({int(e)}))) for e in order]
    assert [float.hex(v) for v in got] == expected
    assert all(type(v) is float for v in got)
    assert (first.queries, second.queries) == (1, n - 1)


def test_singleton_table_is_computed_once_for_every_clone(monkeypatch):
    obj = make_facility_location(np.random.default_rng(5).random((6, 600)))
    batches = []
    original = type(obj)._gains_with

    def counted(self, state, es, s):
        batches.append(len(es))
        return original(self, state, es, s)

    monkeypatch.setattr(type(obj), "_gains_with", counted)
    clone = obj.clone()
    assert clone.value([599]) == obj._f(frozenset({599}))
    assert batches == [256, 256, 88]  # BATCH_ROWS at a time
    for e in range(600):
        obj.value([e])
        clone.clone().value([e])
    assert len(batches) == 3


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_singleton_value_is_the_gain_at_the_empty_set(kind, n, seed):
    obj = _singleton_objective(kind, n, seed)
    values = [float.hex(obj.value([e])) for e in range(n)]
    fresh = _singleton_objective(kind, n, seed)  # its own table, which gains leave unfilled
    assert [float.hex(g) for g in fresh.gains(range(n), ())] == values
    assert [float.hex(fresh.gains([e], frozenset())[0]) for e in range(n)] == values
    assert [float.hex(fresh.marginal(e, ())) for e in range(n)] == values
    assert fresh._singletons[0] is None and fresh.queries == 6 * n
    # with the table filled, a gain at the empty set is read from it
    assert [float.hex(obj.marginal(e, ())) for e in range(n)] == values
    assert [float.hex(g) for g in obj.gains(range(n), ())] == values


def test_singleton_value_queries_count_one_each():
    obj = make_cut_function(4, [(0, 1, 1.0), (1, 2, 2.0)])
    assert obj.value([1]) == 3.0 and obj.queries == 1
    assert obj.value([1]) == 3.0 and obj.queries == 2  # a repeat still counts
    assert obj.value((2, 2)) == 2.0 and obj.queries == 3  # one distinct id
    assert obj.value(iter([3])) == 0.0 and obj.queries == 4  # an isolated vertex
    assert obj.value([0, 1]) == 2.0 and obj.queries == 5
    assert obj.value([]) == 0.0 and obj.queries == 6
    with pytest.raises(ValueError, match=r"element id 4 outside range \[0, 4\)"):
        obj.value([4])
    with pytest.raises(ValueError, match=r"element id -1 outside range \[0, 4\)"):
        obj.value([-1])
    assert obj.queries == 6


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(5))
def test_frozenset_arguments_act_as_their_list_form(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    fast, plain = obj.clone(), obj.clone()
    calls = (
        lambda o, s: o.value(s),
        lambda o, s: o.marginal(0, s),
        lambda o, s: o.marginal(o.n - 1, s),
        lambda o, s: o.gains(range(o.n), s),
    )
    for ids, listed in set_forms(_random_subset(rng, obj.n), obj.n):
        for call in calls:
            assert outcome(lambda: call(fast, ids)) == outcome(lambda: call(plain, listed))
    assert fast.queries == plain.queries


def _integer_objective(rng, kind):
    """An objective with small integer weights: every float sum is exact."""
    n = int(rng.integers(2, 14))
    if kind == "modular":
        return make_modular(rng.integers(0, 5, size=n).astype(float))
    if kind == "coverage":
        universe = int(rng.integers(1, 12))
        covers = [np.flatnonzero(rng.random(universe) < rng.random()) for _ in range(n)]
        return make_weighted_coverage(rng.integers(0, 5, size=universe).astype(float), covers)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return make_cut_function(n, [(u, v, float(rng.integers(0, 5))) for u, v in pairs])


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "cut"]), seed=st.integers(0, 2**32 - 1))
def test_dependents_are_sound(kind, seed):
    # an element outside dependents(x) has the same marginal with x as without it
    rng = np.random.default_rng(seed)
    obj = _integer_objective(rng, kind)
    for x in range(obj.n):
        dependents = obj.dependents(x)
        assert isinstance(dependents, frozenset)
        base = _random_subset(rng, obj.n)
        for e in set(range(obj.n)) - dependents - {x}:
            assert obj.marginal(e, base | {x}) == obj.marginal(e, base - {x})


def test_dependents_of_each_kind():
    assert make_modular([1.0, 2.0, 3.0]).dependents(1) == frozenset()
    cut = make_cut_function(4, [(0, 1, 1.0), (2, 0, 2.0), (2, 3, 1.0)])
    assert [cut.dependents(v) for v in range(4)] == [{1, 2}, {0}, {0, 3}, {2}]
    parallel = make_cut_function(4, [(0, 1, 1.0), (1, 0, 2.0), (0, 1, 0.0), (2, 0, 2.0)])
    assert [parallel.dependents(v) for v in range(4)] == [{1, 2}, {0}, {0}, frozenset()]
    cover = make_weighted_coverage([1.0] * 4, [[0, 1], [1], [2], [], [2, 3]])
    assert cover.dependents(0) - {0} == {1}
    assert cover.dependents(2) - {2} == {4}
    assert cover.dependents(3) - {3} == frozenset()
    assert cover.clone().dependents(1) - {1} == {0}
    # None means "any element": the safe default of every objective without
    # a dependency structure of its own
    assert make_facility_location([[1.0, 2.0], [0.5, 0.0]]).dependents(0) is None
    assert Objective(3, monotone=True).dependents(2) is None
    with pytest.raises(ValueError, match="outside range"):
        make_modular([1.0]).dependents(1)


def test_coverage_dependents_index_is_built_on_first_use_and_shared():
    obj = make_weighted_coverage([1.0, 2.0], [[0], [0, 1], [1]])
    twin = obj.clone()
    assert obj._coverers[0] is None
    assert twin.dependents(2) - {2} == {1}
    assert obj._coverers[0] is not None and obj._coverers is twin._coverers


def _lattice_objective(rng, kind):
    """A coverage, cut or facility objective whose weights are lattice points."""
    ladder = PowerLadder(1.0 + float(rng.choice([0.1, 0.2, 0.3])))

    def weights(size):
        return [ladder.power(int(i)) for i in rng.integers(-5, 9, size=size)]

    n = int(rng.integers(16, 30))
    if kind == "coverage":
        universe = int(rng.integers(20, 60))
        covers = [np.flatnonzero(rng.random(universe) < 0.15) for _ in range(n)]
        return make_weighted_coverage(weights(universe), covers)
    if kind == "facility":
        similarity = np.reshape(weights(8 * n), (8, n))
        similarity[rng.random((8, n)) < 0.5] = 0.0
        return make_facility_location(similarity)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return make_cut_function(n, [(u, v, w) for (u, v), w in zip(pairs, weights(len(pairs)))])


@pytest.mark.parametrize("kind", ["coverage", "cut", "facility"])
def test_gains_are_exactly_submodular_on_lattice_weights(kind):
    # gains taken as differences of two numpy sums rose from S to T on 495
    # of these 6,894 coverage pairs, 620 of 6,586 cut and 139 of 6,709
    # facility pairs
    pairs = 0
    for seed in range(120):
        rng = np.random.default_rng([seed, 11])
        obj = _lattice_objective(rng, kind)
        for _ in range(5):
            big = _random_subset(rng, obj.n)
            small = {e for e in big if rng.random() < 0.5}
            outside = [e for e in range(obj.n) if e not in big]
            for e, at_small, at_big in zip(
                outside, obj.gains(outside, small), obj.gains(outside, big)
            ):
                assert at_big <= at_small, (seed, e)
            pairs += len(outside)
    assert pairs >= 5000


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["modular", "coverage", "cut"]), seed=st.integers(0, 2**32 - 1))
def test_gains_outside_dependents_are_bit_identical(kind, seed):
    rng = np.random.default_rng(seed)
    obj = _wide_objective(rng, kind)
    base = _random_subset(rng, obj.n)
    for x in rng.permutation(obj.n)[:5].tolist():
        others = sorted(set(range(obj.n)) - obj.dependents(x) - {x})
        with_x, without_x = obj.gains(others, base | {x}), obj.gains(others, base - {x})
        assert [float.hex(g) for g in with_x] == [float.hex(g) for g in without_x]
