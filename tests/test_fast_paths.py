"""Batched, tabled and memo-backed oracle calls against their plain references.

Each builder and the phase-2 greedy run once with the library's oracles and
once with ``helpers.plain_oracle`` copies, whose ``value``, ``gains``,
``fits``, ``fits_each`` and ``circuit`` are the scalar calls they must equal;
the outputs must agree byte for byte, and so must the query tallies.
``stream_summary`` also runs against ``helpers.literal_stream_summary``,
which re-derives the weights, the window and the capped buckets it reuses.
"""

import numpy as np
import pytest

from robust_summary import (
    CentralizedConfig,
    StreamingConfig,
    build_summary,
    format_summary,
    generate_instance,
    greedy_matroid,
    make_graphic,
    make_modular,
    stream_summary,
)
from helpers import literal_stream_summary, plain_oracle

SEEDS = range(10)


def _modular_graphic(seed):
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(16) for v in range(u + 1, 16)]
    edges = [pairs[i] for i in rng.choice(len(pairs), size=100, replace=False)]
    return make_modular(rng.lognormal(0.0, 0.5, size=100)), make_graphic(16, edges), True


def _generated(spec, matroid, monotone):
    def make(seed):
        instance = generate_instance(spec, matroid=matroid, seed=seed)
        return instance.objective, instance.matroid, monotone

    return make


CASES = {
    "modular/graphic": _modular_graphic,
    "coverage/partition": _generated(
        "coverage n=100 universe=60 density=0.08", "partition nblocks=4 cap=2", True
    ),
    "cut/partition": _generated("cut n=80 p=0.15", "partition nblocks=3 cap=1", False),
    "facility/uniform": _generated("facility n=80 clients=20", "uniform k=5", True),
}
# a large epsilon and a small d keep the buckets draining, so every fast path runs
EPSILON, D = 0.3, 1


def _both(make, seed, run):
    """run(objective, matroid) with the library's oracles, then with plain copies."""
    objective, matroid, monotone = make(seed)
    fast, plain = objective.clone(), plain_oracle(objective)
    fast_out = run(fast, matroid, monotone)
    plain_out = run(plain, plain_oracle(matroid), monotone)
    assert fast.queries == plain.queries
    return fast_out, plain_out


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_summary_matches_plain_reference(case):
    drained = swapped = 0
    for seed in SEEDS:

        def run(objective, matroid, monotone):
            config = StreamingConfig(
                epsilon=EPSILON, d=D, monotone_mode=monotone, seed=seed, audit=True
            )
            order = np.random.default_rng(seed + 100).permutation(objective.n)
            return stream_summary(objective, matroid, config, order)

        fast, plain = _both(CASES[case], seed, run)
        assert format_summary(fast, include_audit=True) == format_summary(
            plain, include_audit=True
        )
        drained += fast.counters["drained"]
        swapped += fast.counters["swapped_out"] + fast.counters["swap_failed"]
    assert drained and swapped  # rebuckets, feasibility checks and circuits all ran


@pytest.mark.parametrize("case", sorted(CASES))
def test_stream_summary_matches_literal_loop(case):
    drained = 0
    for seed in SEEDS:
        objective, matroid, monotone = CASES[case](seed)
        config = StreamingConfig(
            epsilon=EPSILON, d=D, monotone_mode=monotone, seed=seed, audit=True
        )
        order = np.random.default_rng(seed + 100).permutation(objective.n)
        fast, literal = objective.clone(), objective.clone()
        summary = stream_summary(fast, matroid, config, order)
        expected = literal_stream_summary(literal, matroid, config, order)
        assert format_summary(summary, include_audit=True) == format_summary(
            expected, include_audit=True
        )
        # the literal loop spends one marginal, two queries, per drained element
        assert literal.queries - fast.queries == 2 * summary.counters["drained"]
        drained += summary.counters["drained"]
    assert drained


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_summary_matches_plain_reference(case):
    picks = 0
    for seed in SEEDS:

        def run(objective, matroid, monotone):
            config = CentralizedConfig(epsilon=EPSILON, d=D, monotone_mode=monotone, seed=seed)
            return build_summary(objective, matroid, config)

        fast, plain = _both(CASES[case], seed, run)
        assert format_summary(fast) == format_summary(plain)
        picks += len(fast.entries)
    assert picks


@pytest.mark.parametrize("case", sorted(CASES))
def test_greedy_matches_plain_reference(case):
    for seed in SEEDS:

        def run(objective, matroid, monotone):
            return greedy_matroid(range(objective.n), objective, matroid)

        fast, plain = _both(CASES[case], seed, run)
        assert fast == plain and fast
