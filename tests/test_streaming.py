"""Single-pass builder: buffering, draining, swapping, rebucketing, audits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from robust_summary import (
    StreamingConfig,
    StreamState,
    check_weight_properties,
    finalize,
    format_summary,
    ingest,
    make_cut_function,
    make_modular,
    make_uniform,
    make_weighted_coverage,
    rebucket,
    stream_summary,
    streaming_memory_limit,
)


class ScriptedRng:
    """Deterministic stand-in: fixed bucket index, fixed Bernoulli coin."""

    def __init__(self, index=0, coin=0.0):
        self.index = index
        self.coin = coin

    def integers(self, n):
        return min(self.index, n - 1)

    def random(self):
        return self.coin


def test_config_defaults():
    nonmono = StreamingConfig(epsilon=0.2, d=1)
    assert nonmono.gamma_value == 1.746
    assert nonmono.sample_prob_value == 1.0 / (1.746 + 2.0)
    mono = StreamingConfig(epsilon=0.2, d=1, monotone_mode=True)
    assert mono.gamma_value == 1.0 and mono.sample_prob_value == 1.0
    custom = StreamingConfig(epsilon=0.2, d=1, gamma=3.0)
    assert custom.sample_prob_value == 1.0 / 5.0  # follows the chosen gamma


def test_config_validation():
    with pytest.raises(ValueError):
        StreamingConfig(epsilon=0.0, d=1)
    with pytest.raises(ValueError):
        StreamingConfig(epsilon=0.2, d=-1)
    with pytest.raises(ValueError):
        StreamingConfig(epsilon=0.2, d=1, gamma=0.0)
    with pytest.raises(ValueError):
        StreamingConfig(epsilon=0.2, d=1, sample_prob=0.0)


def test_drain_cap_floors_at_one():
    assert StreamingConfig(epsilon=0.5, d=0).drain_cap == 1
    assert StreamingConfig(epsilon=0.5, d=1).drain_cap == 2
    assert StreamingConfig(epsilon=0.1, d=2).drain_cap == 20


def test_warmup_buffers_first_arrivals_wholesale():
    obj = make_modular([5.0, 1.0, 3.0])
    summary = stream_summary(obj, make_uniform(3, 2), StreamingConfig(epsilon=0.5, d=3), [0, 1, 2])
    assert summary.solution == []
    assert sorted(summary.top_buffer) == [0, 1, 2]
    assert summary.delta == 0.0
    assert summary.buckets == {}


def test_popped_element_is_newcomer_when_not_among_top():
    obj = make_modular([5.0, 4.0, 1.0])
    summary = stream_summary(obj, make_uniform(3, 2), StreamingConfig(epsilon=0.5, d=2), [0, 1, 2])
    assert sorted(summary.top_buffer) == [0, 1]


def test_zero_value_arrival_discarded_after_anchor_rises():
    obj = make_modular([2.0, 0.0])
    summary = stream_summary(
        obj, make_uniform(2, 1), StreamingConfig(epsilon=0.5, d=0, monotone_mode=True), [0, 1]
    )
    assert summary.solution == [0]
    assert summary.audit.low_value == [1]


def test_hand_trace_swap_chain():
    # d=0, eps=0.5, gamma=1, p=1, rank-1: marginals 1..5 arrive in order;
    # only the 1 -> 3 step clears the (1+gamma) margin, ties and lesser
    # ratios fall into the swap-failed bin
    obj = make_modular([1.0, 2.0, 3.0, 4.0, 5.0])
    cfg = StreamingConfig(epsilon=0.5, d=0, monotone_mode=True, seed=0)
    summary = stream_summary(obj, make_uniform(5, 1), cfg, [0, 1, 2, 3, 4])
    assert summary.solution == [2]
    assert [(entry.element, entry.gain) for entry in summary.entries] == [(2, 3.0)]
    assert summary.audit.swapped_out == [(0, 1.0)]
    assert summary.audit.swap_failed == [1, 3, 4]
    assert summary.audit.sample_rejected == []
    assert summary.audit.drained == [0, 1, 2, 3, 4]


def test_exact_swap_margin_tie_goes_to_failed():
    obj = make_modular([1.0, 2.0])
    cfg = StreamingConfig(epsilon=0.5, d=0, monotone_mode=True)
    summary = stream_summary(obj, make_uniform(2, 1), cfg, [0, 1])
    # weight 2 equals (1+gamma)*1 exactly: strict comparison refuses the swap
    assert summary.solution == [0]
    assert summary.audit.swap_failed == [1]


def test_forced_rejection_keeps_solution_empty():
    obj = make_modular([1.0, 2.0, 3.0])
    cfg = StreamingConfig(epsilon=0.5, d=0, monotone_mode=True)
    state = StreamState(cfg, k=2)
    rng = ScriptedRng(coin=1.0)  # Bernoulli never fires
    matroid = make_uniform(3, 2)
    for e in [0, 1, 2]:
        ingest(state, e, obj, matroid, rng)
    summary = finalize(state)
    assert summary.solution == []
    assert summary.audit.sample_rejected == [0, 1, 2]


def test_a_bucket_drained_below_the_cap_stops_draining():
    # d=2, eps=0.5: cap 4.  Equal weights share one bucket and every coin
    # rejects, so the candidate never changes and no rebucket runs: each
    # arrival that fills the bucket drains exactly one element.
    obj = make_modular([1.0] * 10)
    cfg = StreamingConfig(epsilon=0.5, d=2, sample_prob=0.5)
    state = StreamState(cfg, k=3)
    rng = ScriptedRng(coin=0.9)
    matroid = make_uniform(10, 3)
    filed = []
    for e in range(10):
        ingest(state, e, obj, matroid, rng)
        filed.append(sum(len(b) for b in state.buckets.values()))
    # arrivals 0 and 1 warm the top buffer up; then each arrival pops itself
    assert filed == [0, 0, 1, 2, 3, 3, 3, 3, 3, 3]
    assert state.audit.drained == state.audit.sample_rejected == [2, 3, 4, 5, 6]
    assert list(state.buckets.values()) == [[7, 8, 9]]


def test_rebucket_discards_zeroed_marginals():
    # three twins covering the same universe items: once one is accepted the
    # buffered twin's gain collapses to zero and falls out at rebucket
    obj = make_weighted_coverage([1.0, 1.0, 1.0, 1.0], [[0, 1], [0, 1], [0, 1]])
    cfg = StreamingConfig(epsilon=0.5, d=1, monotone_mode=True)
    state = StreamState(cfg, k=2)
    matroid = make_uniform(3, 2)
    rng = ScriptedRng(index=0, coin=0.0)
    for e in [0, 1, 2]:
        ingest(state, e, obj, matroid, rng)
    summary = finalize(state)
    assert summary.solution == [1]
    assert summary.audit.low_value == [2]
    assert summary.buckets == {}


def test_rebucket_keeps_modular_buckets_in_place():
    obj = make_modular([3.0] * 5)
    cfg = StreamingConfig(epsilon=0.5, d=1, monotone_mode=True)
    state = StreamState(cfg, k=3)
    matroid = make_uniform(5, 3)
    rng = ScriptedRng(index=0, coin=0.0)
    for e in range(5):
        ingest(state, e, obj, matroid, rng)
    summary = finalize(state)
    assert summary.solution == [1, 2, 3]
    assert summary.buckets == {2: [4]}
    assert summary.counters["upward_moves"] == 0


def test_rebucket_is_idempotent():
    obj = make_modular([1.0, 2.0, 3.0, 4.0])
    cfg = StreamingConfig(epsilon=0.3, d=2, monotone_mode=True)
    state = StreamState(cfg, k=2)
    matroid = make_uniform(4, 2)
    rng = np.random.default_rng(0)
    for e in range(4):
        ingest(state, e, obj, matroid, rng)
    rebucket(state, obj)
    first = {x: list(b) for x, b in state.buckets.items()}
    rebucket(state, obj)
    assert {x: list(b) for x, b in state.buckets.items()} == first


def test_empty_and_warmup_only_streams():
    obj = make_modular([1.0, 2.0])
    cfg = StreamingConfig(epsilon=0.5, d=2)
    empty = stream_summary(obj, make_uniform(2, 1), cfg, [])
    assert empty.size() == 0 and empty.counters["arrivals"] == 0
    warm = stream_summary(obj, make_uniform(2, 1), cfg, [1])
    assert warm.solution == [] and warm.reservoir == [1]


def test_duplicate_arrival_rejected():
    obj = make_modular([1.0, 2.0])
    cfg = StreamingConfig(epsilon=0.5, d=0)
    state = StreamState(cfg, k=1)
    rng = np.random.default_rng(0)
    ingest(state, 0, obj, make_uniform(2, 1), rng)
    with pytest.raises(ValueError):
        ingest(state, 0, obj, make_uniform(2, 1), rng)


def _random_stream(seed, monotone=True):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 20))
    if monotone:
        obj = make_modular(rng.uniform(0.0, 4.0, size=n))
    else:
        edges = [
            (u, v, float(rng.uniform(0.5, 1.5)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        obj = make_cut_function(n, edges)
    k = int(rng.integers(1, 4))
    matroid = make_uniform(n, k)
    d = int(rng.integers(0, 3))
    eps = float(rng.choice([0.3, 0.5]))
    cfg = StreamingConfig(
        epsilon=eps, d=d, monotone_mode=monotone, seed=seed, audit=True
    )
    order = [int(e) for e in rng.permutation(n)]
    return obj, matroid, cfg, order


@pytest.mark.parametrize("monotone", [True, False])
def test_partition_audit_on_random_streams(monotone):
    for seed in range(25):
        obj, matroid, cfg, order = _random_stream(seed, monotone)
        summary = stream_summary(obj, matroid, cfg, order)
        audit = summary.audit
        drained = set(audit.drained)
        solution = set(summary.solution)
        kicked = {e for e, _ in audit.swapped_out}
        rejected = set(audit.sample_rejected)
        failed = set(audit.swap_failed)
        # every drained element lands in exactly one bin
        assert drained == solution | kicked | rejected | failed
        assert len(audit.drained) == len(solution) + len(kicked) + len(rejected) + len(failed)
        # every arrival is accounted for exactly once
        buffered = {e for b in summary.buckets.values() for e in b}
        low = set(audit.low_value)
        parts = [set(summary.top_buffer), buffered, low, drained]
        assert set(order) == set().union(*parts)
        assert sum(len(p) for p in parts) == len(order)
        # structural invariants
        assert matroid.is_independent(solution)
        assert len(solution) <= matroid.k
        assert summary.peak_memory <= streaming_memory_limit(matroid.k, cfg.d, cfg.epsilon)
        assert summary.counters["upward_moves_after_growth"] == 0
        if summary.delta > 0:
            assert all(w > 0 for _, w in audit.weight_log)
        # active window: surviving bucket thresholds sit between the floor and
        # the anchor value
        from robust_summary import PowerLadder

        ladder = PowerLadder(1.0 + cfg.epsilon)
        tau_min = cfg.epsilon / (1.0 + cfg.epsilon) * summary.delta / matroid.k
        for exponent in summary.buckets:
            assert ladder.power(exponent) >= tau_min
            assert ladder.power(exponent) <= summary.delta + 1e-9
        report = check_weight_properties(summary, obj, deleted=order[: cfg.d])
        assert report.all_ok, report.failures()


def test_buckets_stay_under_cap_at_every_arrival_boundary():
    rng = np.random.default_rng(77)
    obj = make_modular(rng.uniform(0.0, 4.0, size=30))
    matroid = make_uniform(30, 3)
    cfg = StreamingConfig(epsilon=0.4, d=2, monotone_mode=True, seed=5)
    state = StreamState(cfg, matroid.k)
    stream_rng = np.random.default_rng(cfg.seed)
    for e in rng.permutation(30):
        ingest(state, int(e), obj, matroid, stream_rng)
        assert all(len(b) < cfg.drain_cap for b in state.buckets.values())
        assert state.memory() <= streaming_memory_limit(matroid.k, cfg.d, cfg.epsilon)


def test_memory_equals_a_full_recount_after_every_arrival():
    drained = 0
    for seed in range(20):
        obj, matroid, cfg, order = _random_stream(seed, monotone=seed % 2 == 0)
        state = StreamState(cfg, matroid.k)
        stream_rng = np.random.default_rng(seed)
        for e in order:
            ingest(state, e, obj, matroid, stream_rng)
            filed = sum(len(b) for b in state.buckets.values())
            assert state.memory() == len(state.candidate) + len(state.top_buffer) + filed
        drained += len(state.audit.drained)
    assert drained  # drains and rebuckets ran


def test_a_long_stream_keeps_per_element_records_only_for_what_it_holds():
    # weights and exponents live only for the candidate, the filed elements
    # and the buffer; the audit trail and ``seen`` are O(n)
    rng = np.random.default_rng(3)
    n = 4000
    obj, matroid = make_modular(rng.lognormal(0.0, 1.0, size=n)), make_uniform(n, 5)
    cfg = StreamingConfig(epsilon=0.1, d=3, monotone_mode=True, seed=1)
    state = StreamState(cfg, matroid.k)
    stream_rng = np.random.default_rng(cfg.seed)
    for e in range(n):
        ingest(state, e, obj, matroid, stream_rng)
    assert len(state.audit.drained) > 10 * (matroid.k + cfg.d)  # many drains and swaps
    filed = {e for bucket in state.buckets.values() for e in bucket}
    held = set(state.candidate) | filed | {e for _, e in state.top_buffer}
    assert set(state.gains) == filed
    for name, value in vars(state).items():
        if isinstance(value, (dict, set)) and name not in ("buckets", "seen"):
            assert set(value) <= held, name
    assert [entry.element for entry in state.candidate.values()] == finalize(state).solution


def test_memory_limit_arithmetic():
    # k=5, d=4, eps=0.2: cap 20, at most 1+ceil(2*ln(25)/0.2)=34 buckets
    assert streaming_memory_limit(5, 4, 0.2) == 5 + 4 + 34 * 20
    rng = np.random.default_rng(19)
    obj = make_modular(rng.uniform(0.0, 4.0, size=40))
    summary = stream_summary(
        obj, make_uniform(40, 5),
        StreamingConfig(epsilon=0.2, d=4, monotone_mode=True, seed=2),
        range(40),
    )
    assert summary.peak_memory <= 689


def test_subnormal_values_do_not_crash_the_window():
    # 5e-324 underflows tau_min to zero while the anchor stays positive
    obj = make_modular([0.0, 0.0, 5e-324])
    cfg = StreamingConfig(epsilon=0.4, d=0, monotone_mode=True, seed=0)
    summary = stream_summary(obj, make_uniform(3, 1), cfg, [0, 1, 2])
    assert check_weight_properties(summary, obj, []).all_ok


def test_weight_properties_empty_state():
    obj = make_modular([1.0])
    summary = stream_summary(obj, make_uniform(1, 1), StreamingConfig(epsilon=0.5, d=1), [])
    report = check_weight_properties(summary, obj, [])
    assert report.all_ok
    assert all(c.detail == "0.0 <= 0.0" for c in report.checks)


def test_seed_determinism_with_audit():
    obj, matroid, cfg, order = _random_stream(3)
    text_a = format_summary(stream_summary(obj, matroid, cfg, order), include_audit=True)
    text_b = format_summary(stream_summary(obj, matroid, cfg, order), include_audit=True)
    assert text_a == text_b


@settings(max_examples=40, deadline=None)
@given(
    weights=st.lists(st.floats(0.0, 8.0, allow_nan=False), min_size=3, max_size=10),
    d=st.integers(0, 2),
    k=st.integers(1, 3),
    seed=st.integers(0, 500),
)
def test_streaming_invariants_property(weights, d, k, seed):
    obj = make_modular(weights)
    matroid = make_uniform(len(weights), k)
    cfg = StreamingConfig(epsilon=0.4, d=d, monotone_mode=True, seed=seed)
    order = [int(e) for e in np.random.default_rng(seed).permutation(len(weights))]
    summary = stream_summary(obj, matroid, cfg, order)
    assert matroid.is_independent(summary.solution_set)
    assert summary.size() <= streaming_memory_limit(matroid.k, d, cfg.epsilon)
    assert check_weight_properties(summary, obj, order[:d]).all_ok
