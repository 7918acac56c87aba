"""Oblivious deletion strategies and the surviving-optimum oracle."""

import copy

import numpy as np
import pytest

from robust_summary import (
    CentralizedConfig,
    DeletionStrategy,
    Instance,
    StreamingConfig,
    build_summary,
    choose_deletions,
    generate_instance,
    make_modular,
    make_partition,
    make_uniform,
    make_weighted_coverage,
    opt_value,
    parse_strategy,
    stream_summary,
)
from robust_summary import adversary
from robust_summary.centralized import compute_delta
from robust_summary.verify import structural_checks

from helpers import brute_force_opt


def _modular_instance(weights, k=2):
    return Instance(make_modular(weights), make_uniform(len(weights), k))


def test_top_value_strategy():
    inst = _modular_instance([5.0, 3.0, 1.0])
    assert choose_deletions(inst, DeletionStrategy("top-value", d=1)) == [0]
    assert choose_deletions(inst, DeletionStrategy("top-value", d=2)) == [0, 1]


def test_zero_budget_is_empty_for_every_strategy():
    inst = _modular_instance([5.0, 3.0, 1.0])
    for kind in ("top-value", "random", "block-concentrated", "max-damage"):
        assert choose_deletions(inst, DeletionStrategy(kind, d=0, seed=1, block=0)) == []


def test_random_strategy_reproducible_and_oblivious():
    inst = _modular_instance([1.0] * 10)
    strategy = DeletionStrategy("random", d=3, seed=42)
    first = choose_deletions(inst, strategy)
    second = choose_deletions(inst, strategy)
    assert first == second
    assert len(first) == 3
    assert choose_deletions(inst, DeletionStrategy("random", d=3, seed=43)) != first


def test_block_strategy_concentrates_then_pads():
    matroid = make_partition([[0, 1], [2, 3, 4]], [1, 2])
    obj = make_modular([9.0, 1.0, 8.0, 7.0, 2.0])
    inst = Instance(obj, matroid)
    # block 1 holds {2,3,4}; top two inside are 2 and 3
    assert choose_deletions(inst, DeletionStrategy("block-concentrated", d=2, block=1)) == [2, 3]
    # budget above the block size: pad with the global top value (element 0)
    assert choose_deletions(inst, DeletionStrategy("block-concentrated", d=4, block=0)) == [
        0, 1, 2, 3,
    ]
    # non-partition matroid degenerates to top-value padding
    uniform_inst = _modular_instance([5.0, 3.0, 1.0])
    assert choose_deletions(
        uniform_inst, DeletionStrategy("block-concentrated", d=1, block=0)
    ) == [0]


def test_max_damage_on_symmetric_instance_is_lexicographic():
    # k+d unit weights: every deletion hurts the same; ties resolve to the
    # lexicographically smallest subset (verified by exhaustive damage sweep)
    k, d = 2, 2
    inst = _modular_instance([1.0] * (k + d) + [0.0] * 3, k=k)
    assert choose_deletions(inst, DeletionStrategy("max-damage", d=d)) == [0, 1]


def test_max_damage_prefers_concentrated_value():
    # deleting the two heavyweights hurts most
    inst = _modular_instance([10.0, 9.0, 1.0, 1.0, 1.0], k=2)
    assert choose_deletions(inst, DeletionStrategy("max-damage", d=2)) == [0, 1]


def test_explicit_list_validation(tmp_path):
    inst = _modular_instance([1.0, 2.0, 3.0])
    ok = DeletionStrategy("explicit-list", d=2, ids=(2, 0))
    assert choose_deletions(inst, ok) == [0, 2]
    with pytest.raises(ValueError):
        choose_deletions(inst, DeletionStrategy("explicit-list", d=1, ids=(0, 1)))
    with pytest.raises(ValueError):
        choose_deletions(inst, DeletionStrategy("explicit-list", d=2, ids=(0, 9)))
    listing = tmp_path / "ids.txt"
    listing.write_text("2, 1\n")
    parsed = parse_strategy(f"list:{listing}")
    assert parsed.kind == "explicit-list" and sorted(parsed.ids) == [1, 2]


def test_parse_strategy_specs():
    assert parse_strategy("top:3") == DeletionStrategy("top-value", d=3)
    assert parse_strategy("rand:2:7") == DeletionStrategy("random", d=2, seed=7)
    assert parse_strategy("block:2:1") == DeletionStrategy("block-concentrated", d=2, block=1)
    assert parse_strategy("maxdmg:4") == DeletionStrategy("max-damage", d=4)
    with pytest.raises(ValueError):
        parse_strategy("nuke:3")
    # strategy text round-trips through its spec string
    for text in ("top:3", "rand:2:7", "block:2:1", "maxdmg:4"):
        assert parse_strategy(text).spec == text


@pytest.mark.parametrize("spec", ["list", "list:", " list "])
def test_list_spec_without_a_path_is_refused(spec):
    # once it read the current directory and raised IsADirectoryError
    with pytest.raises(ValueError, match="needs list:<path>"):
        parse_strategy(spec)


def test_budget_larger_than_ground_rejected():
    inst = _modular_instance([1.0, 2.0])
    with pytest.raises(ValueError):
        choose_deletions(inst, DeletionStrategy("top-value", d=5))


def test_opt_value_examples():
    obj = make_modular([1.0, 2.0, 3.0])
    matroid = make_uniform(3, 2)
    assert opt_value(obj, matroid, [2]) == 3.0
    assert opt_value(obj, matroid, [0, 1, 2]) == 0.0


def test_opt_value_exhaustive_matches_enumeration():
    rng = np.random.default_rng(17)
    universe = rng.uniform(0.1, 1.0, size=8)
    covers = [list(np.flatnonzero(rng.random(8) < 0.4)) for _ in range(10)]
    obj = make_weighted_coverage(universe, covers)
    matroid = make_uniform(10, 3)
    for deleted in ([], [0], [3, 7], [1, 2, 9]):
        survivors = [e for e in range(10) if e not in deleted]
        oracle, _ = brute_force_opt(obj, matroid, survivors)
        assert opt_value(obj, matroid, deleted) == oracle


def test_opt_value_greedy_bound_is_sandwiched():
    rng = np.random.default_rng(23)
    universe = rng.uniform(0.1, 1.0, size=8)
    covers = [list(np.flatnonzero(rng.random(8) < 0.4)) for _ in range(10)]
    obj = make_weighted_coverage(universe, covers)
    matroid = make_uniform(10, 3)
    exact = opt_value(obj, matroid, [0], method="exhaustive")
    greedy = opt_value(obj, matroid, [0], method="greedy-bound")
    assert greedy <= exact + 1e-9
    assert exact <= 2 * greedy + 1e-9  # monotone: greedy is a half-approximation


def test_opt_value_monotone_under_growing_deletions():
    rng = np.random.default_rng(31)
    obj = make_modular(rng.uniform(0.0, 5.0, size=9))
    matroid = make_uniform(9, 3)
    chain = [[], [4], [4, 1], [4, 1, 7], [4, 1, 7, 0]]
    values = [opt_value(obj, matroid, removed) for removed in chain]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_opt_value_refuses_oversized_exhaustive():
    obj = make_modular([1.0] * 40)
    with pytest.raises(ValueError):
        opt_value(obj, make_uniform(40, 2), [], method="exhaustive")
    assert opt_value(obj, make_uniform(40, 2), [], method="greedy-bound") == 2.0


def _value_order(objective):
    """Ids by falling ``value((e,))``, ties toward the smaller id: the counted reference."""
    values = [objective.value((e,)) for e in range(objective.n)]
    return sorted(range(objective.n), key=lambda e: (-values[e], e))


# n <= 22 + d, so that max-damage can ask its exhaustive optimum
SINGLETON_CASES = [
    ("cut n=20 p=0.2", "partition nblocks=4 cap=1"),
    ("coverage n=20 universe=30 density=0.1", "partition nblocks=5 cap=1"),
    ("coverage n=20 universe=4 density=0.3", "partition nblocks=3 cap=1"),  # many ties
]


@pytest.mark.parametrize("spec, matroid", SINGLETON_CASES)
def test_strategies_read_the_singleton_table_as_value_calls_would(monkeypatch, spec, matroid):
    specs = ["top:3", "block:3:1", "block:9:0", "maxdmg:2"]
    for seed in range(3):
        table = generate_instance(spec, matroid=matroid, seed=seed)
        fast = [choose_deletions(table, parse_strategy(s)) for s in specs[:3]]
        assert table.objective.queries == 0  # the table is read, not queried
        fast.append(choose_deletions(table, parse_strategy(specs[3])))
        with monkeypatch.context() as patched:
            patched.setattr(adversary, "_singleton_order", _value_order)
            counted = generate_instance(spec, matroid=matroid, seed=seed)
            assert fast == [choose_deletions(counted, parse_strategy(s)) for s in specs], seed


@pytest.mark.parametrize("spec, matroid", SINGLETON_CASES)
def test_anchor_check_reads_the_singleton_table_as_value_calls_would(spec, matroid):
    for seed in range(3):
        instance = generate_instance(spec, matroid=matroid, seed=seed)
        summaries = [
            build_summary(
                instance.objective.clone(), instance.matroid,
                CentralizedConfig(epsilon=0.3, d=2, seed=seed),
            ),
            stream_summary(
                instance.objective.clone(), instance.matroid,
                StreamingConfig(epsilon=0.3, d=2, seed=seed), range(instance.n),
            ),
        ]
        for summary in list(summaries):
            moved = copy.deepcopy(summary)
            moved.delta = float(np.nextafter(summary.delta, np.inf))
            swapped = copy.deepcopy(summary)
            swapped.top_buffer = [min(set(range(instance.n)) - set(summary.top_buffer))]
            summaries += [moved, swapped]
        verdicts = []
        for summary in summaries:
            checks = structural_checks(summary, instance)
            (anchor,) = [c for c in checks if c.name == "anchor_value"]
            singles = [instance.objective.value((e,)) for e in range(instance.n)]
            delta, top = compute_delta(singles, summary.d)
            expected = delta == summary.delta and sorted(top) == sorted(summary.top_buffer)
            assert (anchor.ok, anchor.detail) == (expected, f"expected delta={delta!r}")
            verdicts.append(anchor.ok)
        assert verdicts == [True, True] + [False] * 4
