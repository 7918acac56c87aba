"""Offline summary builder: threshold sweep, sampling, size accounting."""

import numpy as np
import pytest

from robust_summary import (
    CentralizedConfig,
    PowerLadder,
    Summary,
    SummaryEntry,
    bucket_cap,
    build_summary,
    compute_delta,
    format_summary,
    generate_instance,
    lattice_size_limit,
    make_cut_function,
    make_modular,
    make_uniform,
    make_weighted_coverage,
    threshold_lattice,
)

from helpers import brute_force_opt, literal_build_summary


def test_compute_delta_examples():
    assert compute_delta([5, 3, 3, 1], 1) == (3.0, [0])
    assert compute_delta([2, 2], 3) == (0.0, [0, 1])
    assert compute_delta([1, 1, 1], 0) == (1.0, [])


def test_compute_delta_tie_breaking():
    delta, top = compute_delta([4, 7, 7, 4], 2)
    assert top == [1, 2]
    assert delta == 4.0


def test_bucket_cap():
    assert bucket_cap(3, 2, 0.1, monotone_mode=False) == 50
    assert bucket_cap(3, 2, 0.1, monotone_mode=True) == 20
    assert bucket_cap(4, 0, 0.5, monotone_mode=True) == 1  # floored at one
    assert bucket_cap(5, 2, 0.2, monotone_mode=False) == 35


def _config(**kw):
    base = dict(epsilon=0.2, d=1, monotone_mode=False, seed=0)
    base.update(kw)
    return CentralizedConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        CentralizedConfig(epsilon=0.0, d=1)
    with pytest.raises(ValueError):
        CentralizedConfig(epsilon=1.2, d=1)
    with pytest.raises(ValueError):
        CentralizedConfig(epsilon=0.1, d=-1)


def test_all_zero_objective():
    obj = make_modular([0.0] * 5)
    summary = build_summary(obj, make_uniform(5, 2), _config(d=2))
    assert summary.delta == 0.0
    assert summary.solution == []
    assert set(summary.reservoir) == {0, 1}  # protected buffer only, ties by id
    assert summary.exponents == []


def test_fewer_elements_than_budget():
    obj = make_modular([2.0, 2.0])
    summary = build_summary(obj, make_uniform(2, 1), _config(d=3))
    assert summary.delta == 0.0
    assert sorted(summary.top_buffer) == [0, 1]
    assert summary.size() == 2


def test_lower_bound_instance_keeps_every_valuable_element():
    # k+d unit weights plus zeros; a single positive threshold catches them all
    k, d = 2, 1
    weights = [1.0] * (k + d) + [0.0] * 3
    obj = make_modular(weights)
    summary = build_summary(obj, make_uniform(len(weights), k), _config(d=d, epsilon=0.2))
    kept = set(summary.solution) | set(summary.reservoir)
    assert {0, 1, 2} <= kept
    assert summary.delta == 1.0
    # positives not in the protected buffer end in the threshold-1 bucket
    assert 0 in summary.buckets or summary.entries


def test_degenerate_threshold_greedy_matches_classic_guarantee():
    # d=0 in monotone mode: cap 1, plain threshold greedy
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        obj = make_modular(rng.uniform(0.0, 5.0, size=n))
        matroid = make_uniform(n, k)
        config = _config(d=0, monotone_mode=True, epsilon=0.25)
        summary = build_summary(obj, matroid, config)
        opt, _ = brute_force_opt(obj, matroid, range(n))
        assert obj.value(summary.solution) >= opt / (1 + config.epsilon) - 1e-9


def test_summary_size_accounting():
    empty = Summary(
        mode="centralized", n=0, k=1, d=0, epsilon=0.1, monotone=False, seed=0,
        delta=0.0, entries=[], buckets={}, top_buffer=[], counters={},
    )
    assert empty.size() == 0
    disjoint = Summary(
        mode="centralized", n=10, k=3, d=0, epsilon=0.1, monotone=False, seed=0,
        delta=1.0,
        entries=[SummaryEntry(e, 0, 1.0) for e in range(3)],
        buckets={0: [3, 4, 5, 6]}, top_buffer=[7, 8, 9], counters={},
    )
    assert disjoint.size() == 10


def test_size_bound_small_sweep():
    rng = np.random.default_rng(11)
    k, d, eps = 5, 2, 0.2
    obj = make_modular(rng.uniform(0.0, 3.0, size=30))
    summary = build_summary(obj, make_uniform(30, k), CentralizedConfig(epsilon=eps, d=d, seed=3))
    cap = bucket_cap(k, d, eps, monotone_mode=False)
    assert cap == 35
    assert summary.size() <= k + d + len(summary.exponents) * cap
    assert len(summary.exponents) <= lattice_size_limit(k, eps)


def _busy_instance():
    # enough equal-value elements that buckets exceed the cap and sampling runs
    weights = [1.0] * 16
    return make_modular(weights), make_uniform(16, 4)


def _busy_config(seed=0):
    return CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=seed, audit=True)


def test_sampling_run_populates_solution():
    obj, matroid = _busy_instance()
    summary = build_summary(obj, matroid, _busy_config())
    assert len(summary.entries) == 4
    assert matroid.is_independent(summary.solution_set)
    assert len(summary.top_buffer) == 3


def test_gain_brackets_on_real_run():
    obj, matroid = _busy_instance()
    summary = build_summary(obj, matroid, _busy_config())
    lattice = threshold_lattice(summary.delta, summary.k, summary.epsilon)
    top = summary.exponents[0]
    for entry in summary.entries:
        tau = lattice.power(entry.exponent)
        assert entry.gain >= tau
        assert entry.gain <= summary.delta + 1e-9
        if entry.exponent < top:
            assert entry.gain <= lattice.power(entry.exponent + 1) + 1e-9


def test_pool_partition_accounting():
    obj, matroid = _busy_instance()
    summary = build_summary(obj, matroid, _busy_config(seed=9))
    solution = set(summary.solution)
    reservoir = set(summary.reservoir)
    assert not solution & reservoir
    assert len(solution) + len(reservoir) + summary.counters["low_value"] == obj.n


def test_seed_determinism_and_variation():
    obj, matroid = _busy_instance()
    text_a = format_summary(build_summary(obj, matroid, _busy_config(seed=4)))
    text_b = format_summary(build_summary(obj, matroid, _busy_config(seed=4)))
    assert text_a == text_b
    outputs = {
        tuple(build_summary(obj, matroid, _busy_config(seed=s)).solution) for s in range(8)
    }
    assert len(outputs) > 1  # different seeds explore different draws


def _differential_cases():
    """(objective, matroid, config fields) on which sampling runs for every seed."""
    obj, matroid = _busy_instance()
    yield obj, matroid, dict(epsilon=0.3, d=3, monotone_mode=True)
    coverage = generate_instance(
        "coverage n=40 universe=30 density=0.15", matroid="partition nblocks=4 cap=2", seed=3
    )
    yield coverage.objective, coverage.matroid, dict(epsilon=0.25, d=1, monotone_mode=True)
    cut = generate_instance("cut n=30 p=0.2", matroid="uniform k=3", seed=3)
    yield cut.objective, cut.matroid, dict(epsilon=0.5, d=1, monotone_mode=False)


def test_lazy_mode_matches_literal():
    # skipping stale rescans reproduces the full-rescan sweep byte for byte
    for obj, matroid, fields in _differential_cases():
        for seed in range(10):
            config = CentralizedConfig(seed=seed, **fields)
            summary = build_summary(obj.clone(), matroid, config)
            reference = literal_build_summary(obj.clone(), matroid, config)
            assert summary.entries
            assert format_summary(summary) == format_summary(reference)


def _lattice_valued_case(seed):
    """Modular weights that mostly sit on the threshold lattice itself.

    A gain equal to a threshold is where float marginals, which are not
    exactly submodular, can come back an ulp above an earlier cached gain.
    """
    rng = np.random.default_rng(seed)
    epsilon = float(rng.choice([0.1, 0.2, 0.3]))
    n = int(rng.integers(30, 81))
    ladder = PowerLadder(1.0 + epsilon)
    on_lattice = [ladder.power(int(i)) for i in rng.integers(-12, 4, size=n)]
    weights = np.where(rng.random(n) < 0.8, on_lattice, rng.uniform(0.0, 4.0, size=n))
    matroid = make_uniform(n, int(rng.integers(3, 15)))
    config = CentralizedConfig(
        epsilon=epsilon,
        d=int(rng.integers(0, 3)),
        monotone_mode=bool(rng.random() < 0.5),
        seed=seed,
    )
    return make_modular(weights), matroid, config


def test_lazy_mode_matches_literal_on_lattice_valued_weights():
    for seed in range(150):
        obj, matroid, config = _lattice_valued_case(seed)
        summary = build_summary(obj.clone(), matroid, config)
        reference = literal_build_summary(obj.clone(), matroid, config)
        assert format_summary(summary) == format_summary(reference), seed


def test_lazy_mode_saves_queries():
    rng = np.random.default_rng(21)
    universe = rng.uniform(0.1, 1.0, size=20)
    covers = [list(np.flatnonzero(rng.random(20) < 0.3)) for _ in range(24)]
    matroid = make_uniform(24, 4)
    literal_obj = make_weighted_coverage(universe, covers)
    lazy_obj = literal_obj.clone()
    config = CentralizedConfig(epsilon=0.3, d=2, monotone_mode=True, seed=1)
    literal_build_summary(literal_obj, matroid, config)
    build_summary(lazy_obj, matroid, config)
    assert lazy_obj.queries < literal_obj.queries


def test_empty_instance_rejected():
    with pytest.raises(ValueError):
        build_summary(make_modular([]), make_uniform(0, 1), _config())


def test_monotone_mode_on_a_non_monotone_objective_is_refused():
    cut = make_cut_function(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.5)])
    with pytest.raises(ValueError) as raised:
        build_summary(cut, make_uniform(4, 2), _config(monotone_mode=True))
    assert str(raised.value) == "monotone mode needs a monotone objective; graph-cut is not"
    assert cut.queries == 0
