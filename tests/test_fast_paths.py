"""Batched, tabled and memo-backed oracle calls against their plain references.

Each builder and the phase-2 greedy run once with the library's oracles and
once with ``helpers.plain_oracle`` copies, whose ``value``, ``gains``,
``fits``, ``fits_each`` and ``circuit`` are the scalar calls they must equal;
the outputs must agree byte for byte, and so must the query tallies.
``stream_summary`` also runs against ``helpers.literal_stream_summary``,
which re-derives the weights, the window and the capped buckets it reuses
and refiles every element at every change of the candidate, also on
float-adversarial streams whose gains sit on bucket edges or below 1/DBL_MAX,
and ``ingest``, fed one arrival at a time, must give its bytes and queries.
"""

import copy

import numpy as np
import pytest

from robust_summary import (
    CentralizedConfig,
    StreamingConfig,
    StreamState,
    build_summary,
    finalize,
    format_summary,
    generate_instance,
    greedy_matroid,
    ingest,
    make_cut_function,
    make_facility_location,
    make_graphic,
    make_modular,
    make_partition,
    make_uniform,
    make_weighted_coverage,
    stream_summary,
)
from robust_summary.objectives import WeightedCoverage
from robust_summary.thresholds import PowerLadder
from helpers import (
    ConcaveOfModular,
    Float32Coverage,
    KernelCoverage,
    SummedCoverage,
    levers,
    literal_build_summary,
    literal_stream_summary,
    plain_greedy_matroid,
    plain_oracle,
)

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


def _concave_graphic(seed):
    # a _value-only objective: its gains are differences of two values
    objective, matroid, monotone = _modular_graphic(seed)
    return ConcaveOfModular(objective.weights), matroid, monotone


CASES = {
    "modular/graphic": _modular_graphic,
    "concave/graphic": _concave_graphic,
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
        # the literal loop refiles every element at every change and asks a
        # marginal per drained element; the stream refiles only what a change
        # can move and reuses every fresh filed gain
        assert fast.queries <= literal.queries
        if summary.solution:  # a rebucket ran
            assert fast.queries < literal.queries
        drained += summary.counters["drained"]
    assert drained


@pytest.mark.parametrize("case", sorted(CASES))
def test_ingest_one_arrival_at_a_time_matches_stream_summary(case):
    for seed in SEEDS:
        objective, matroid, monotone = CASES[case](seed)
        config = StreamingConfig(
            epsilon=EPSILON, d=D, monotone_mode=monotone, seed=seed, audit=True
        )
        order = np.random.default_rng(seed + 100).permutation(objective.n)
        whole, single = objective.clone(), objective.clone()
        summary = stream_summary(whole, matroid, config, order)
        state = StreamState(config, matroid.k)
        rng = np.random.default_rng(config.seed)
        for element in order:
            ingest(state, element, single, matroid, rng)
        assert format_summary(finalize(state), include_audit=True) == format_summary(
            summary, include_audit=True
        )
        assert single.queries == whole.queries


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_drain_predicate_answers_for_the_candidate_as_it_stands(case):
    # a swap along a circuit keeps the candidate's span, so a predicate kept
    # from before it answers alike for every element that can still be
    # drained; only its members tell it from a fresh one
    swapped = 0
    for seed in SEEDS:
        objective, matroid, monotone = CASES[case](seed)
        config = StreamingConfig(epsilon=EPSILON, d=D, monotone_mode=monotone, seed=seed)
        reference, checked = copy.copy(matroid), None
        rng = np.random.default_rng(config.seed)
        with levers(gamma=0.05):
            state = StreamState(config, matroid.k)
            for element in np.random.default_rng(seed + 100).permutation(objective.n):
                ingest(state, element, objective, matroid, rng)
                s = state.candidate_set
                if state.fits is not None and s is not checked:
                    ids = range(matroid.n)
                    assert [state.fits(e) for e in ids] == [reference.fits(e, s) for e in ids]
                    checked = s
        swapped += len(state.audit.swapped_out)
    assert swapped


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


def _graphic(rng, n, vertices):
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    return make_graphic(vertices, [pairs[i] for i in rng.choice(len(pairs), size=n, replace=False)])


def _lattice_weights(rng, n, epsilon):
    # powers of 1+epsilon as the ladder evaluates them: gains land on bucket edges
    ladder = PowerLadder(1.0 + epsilon)
    return [ladder.power(int(i)) for i in rng.integers(-5, 9, size=n)]


def _lattice_modular(rng, epsilon):
    return make_modular(_lattice_weights(rng, 40, epsilon)), make_uniform(40, int(rng.integers(2, 6)))


def _lattice_modular_graphic(rng, epsilon):
    return make_modular(_lattice_weights(rng, 40, epsilon)), _graphic(rng, 40, 10)


def _lattice_coverage(rng, epsilon):
    covers = [np.flatnonzero(rng.random(30) < 0.12) for _ in range(40)]
    objective = make_weighted_coverage(_lattice_weights(rng, 30, epsilon), covers)
    return objective, make_partition([range(0, 40, 2), range(1, 40, 2)], [2, 2])


def _lattice_cut(rng, epsilon):
    pairs = [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.1]
    weights = _lattice_weights(rng, len(pairs), epsilon)
    edges = [(u, v, w) for (u, v), w in zip(pairs, weights)]
    return make_cut_function(40, edges), make_uniform(40, int(rng.integers(2, 6)))


def _lattice_facility(rng, epsilon):
    similarity = np.reshape(_lattice_weights(rng, 6 * 40, epsilon), (6, 40))
    similarity[rng.random((6, 40)) < 0.5] = 0.0
    return make_facility_location(similarity), make_uniform(40, int(rng.integers(2, 6)))


def _integer_coverage(rng, epsilon):
    covers = [np.flatnonzero(rng.random(30) < 0.12) for _ in range(40)]
    objective = make_weighted_coverage(rng.integers(1, 5, size=30).astype(float), covers)
    return objective, make_partition([range(0, 40, 2), range(1, 40, 2)], [2, 2])


def _integer_cut(rng, epsilon):
    edges = [(u, v, float(rng.integers(1, 4))) for u in range(40) for v in range(u + 1, 40)
             if rng.random() < 0.1]
    return make_cut_function(40, edges), make_uniform(40, int(rng.integers(2, 6)))


def _subnormal_modular(rng, epsilon):
    # every singleton is subnormal, and so are the anchor delta and the slack;
    # none lies below 1/DBL_MAX, the lowest lattice point the ladder reaches
    return make_modular(rng.uniform(0.6, 2.0, size=40) * 1e-308), _graphic(rng, 40, 10)


def _swapping_modular_graphic(rng, epsilon):
    return make_modular(rng.lognormal(0.0, 1.0, size=40)), _graphic(rng, 40, 10)


def _tiny_modular_graphic(rng, epsilon):
    # every weight lies below 1/DBL_MAX: only the ladder's divisions down
    # through the subnormals put positive lattice points under them
    return make_modular(rng.lognormal(0.0, 1.0, size=40) * 1e-311), _graphic(rng, 40, 10)


FLOAT_ADVERSARIAL = {
    "lattice-modular/uniform": _lattice_modular,
    "lattice-modular/graphic": _lattice_modular_graphic,
    "lattice-coverage/partition": _lattice_coverage,
    "lattice-cut/uniform": _lattice_cut,
    "lattice-facility/uniform": _lattice_facility,
    "integer-coverage/partition": _integer_coverage,
    "integer-cut/uniform": _integer_cut,
    "subnormal-modular/graphic": _subnormal_modular,
    "swapping-modular/graphic": _swapping_modular_graphic,
    "tiny-modular/graphic": _tiny_modular_graphic,
}


@pytest.mark.parametrize("family", sorted(FLOAT_ADVERSARIAL))
def test_sparse_refile_matches_literal_loop_on_float_adversarial_streams(family):
    # 30 seeded streams per family; a small swap margin keeps swaps frequent
    drained = swapped = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 17])
        epsilon = float(rng.choice([0.1, 0.2, 0.3]))
        objective, matroid = FLOAT_ADVERSARIAL[family](rng, epsilon)
        monotone = objective.monotone and bool(rng.random() < 0.5)
        config = StreamingConfig(
            epsilon=epsilon, d=int(rng.integers(0, 3)), monotone_mode=monotone,
            seed=seed, audit=True,
        )
        order = rng.permutation(objective.n)
        fast, literal = objective.clone(), objective.clone()
        with levers(gamma=0.05 if seed % 2 else None):
            summary = stream_summary(fast, matroid, config, order)
            expected = literal_stream_summary(literal, matroid, config, order)
        assert format_summary(summary, include_audit=True) == format_summary(
            expected, include_audit=True
        )
        assert fast.queries <= literal.queries
        # exact gains never rise while the candidate only grows
        assert summary.counters["upward_moves_after_growth"] == 0
        drained += summary.counters["drained"]
        swapped += summary.counters["swapped_out"]
    assert drained and swapped


def test_streams_below_the_reciprocal_floor_drain():
    # weights near 1e-311 once met no positive lattice point at or below
    # them, so these 30 streams filed nothing and drained nothing
    drained = bucketed = 0
    for seed in range(30):
        rng = np.random.default_rng([seed, 17])
        epsilon = float(rng.choice([0.1, 0.2, 0.3]))
        objective, matroid = _tiny_modular_graphic(rng, epsilon)
        config = StreamingConfig(
            epsilon=epsilon, d=int(rng.integers(0, 3)), monotone_mode=True, seed=seed
        )
        summary = stream_summary(objective, matroid, config, rng.permutation(objective.n))
        drained += summary.counters["drained"]
        # every arrival is buffered, low value or filed into a bucket
        bucketed += summary.counters["arrivals"] - summary.counters["low_value"] - config.d
        assert all(PowerLadder(1.0 + epsilon).power(x) > 0.0 for x in summary.exponents)
    assert drained > 300 and bucketed > 600


def test_objective_without_dependents_refiles_everything():
    drained = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        objective = ConcaveOfModular(rng.lognormal(0.0, 0.5, size=60))
        assert objective.dependents(0) is None
        matroid = _graphic(rng, 60, 14)
        config = StreamingConfig(epsilon=EPSILON, d=D, monotone_mode=True, seed=seed, audit=True)
        order = rng.permutation(60)
        fast, literal = objective.clone(), objective.clone()
        summary = stream_summary(fast, matroid, config, order)
        expected = literal_stream_summary(literal, matroid, config, order)
        assert format_summary(summary, include_audit=True) == format_summary(
            expected, include_audit=True
        )
        # a full refile at every change: every filed gain is current when
        # drained, so the stream saves exactly the literal loop's marginal
        # per drained element
        assert literal.queries - fast.queries == 2 * summary.counters["drained"]
        drained += summary.counters["drained"]
    assert drained


def test_value_only_coverage_sweep_and_greedy_equal_their_plain_references():
    # gains that are differences of two float sums on lattice weights, where
    # a remembered gain bounds nothing: the sweep and the greedy ask every
    # feasible element, so they give the bytes and picks of the plain loops
    for seed in range(200):
        rng = np.random.default_rng([seed, 23])
        epsilon = float(rng.choice([0.1, 0.2, 0.3]))
        covers = [np.flatnonzero(rng.random(30) < 0.1).tolist() for _ in range(40)]
        objective = SummedCoverage(_lattice_weights(rng, 30, epsilon), covers)
        assert not objective.exact_gains
        matroid = make_partition([range(0, 40, 2), range(1, 40, 2)], [3, 3])
        config = CentralizedConfig(
            epsilon=epsilon, d=int(rng.integers(0, 3)), monotone_mode=True, seed=seed
        )
        assert format_summary(build_summary(objective.clone(), matroid, config)) == format_summary(
            literal_build_summary(objective.clone(), matroid, config)
        )
        uniform = make_uniform(40, int(rng.integers(2, 10)))
        assert greedy_matroid(range(40), objective.clone(), uniform) == plain_greedy_matroid(
            range(40), objective.clone(), uniform
        )


def _covers(rng):
    return [np.flatnonzero(rng.random(30) < 0.1).tolist() for _ in range(40)]


VALUE_ONLY = {
    "concave-of-modular": lambda rng, epsilon: ConcaveOfModular(_lattice_weights(rng, 40, epsilon)),
    "summed-coverage": lambda rng, epsilon: SummedCoverage(
        _lattice_weights(rng, 30, epsilon), _covers(rng)
    ),
    "float32-coverage": lambda rng, epsilon: Float32Coverage(
        _lattice_weights(rng, 30, epsilon), _covers(rng)
    ),
}


@pytest.mark.parametrize("kind", sorted(VALUE_ONLY))
def test_value_only_objectives_run_the_plain_scan_and_greedy(kind):
    # a gain without exact_gains bounds nothing, so both ask every feasible
    # element after every pick; with float slacks instead, 26 of these 200
    # float32 sweeps and 12 of these 200 float32 greedy runs differed
    for seed in range(200):
        rng = np.random.default_rng([seed, 23])
        epsilon = float(rng.choice([0.1, 0.2, 0.3]))
        objective = VALUE_ONLY[kind](rng, epsilon)
        assert not objective.exact_gains
        matroid = make_partition([range(0, 40, 2), range(1, 40, 2)], [3, 3])
        config = CentralizedConfig(
            epsilon=epsilon, d=int(rng.integers(0, 3)), monotone_mode=True, seed=seed
        )
        fast, literal = objective.clone(), objective.clone()
        assert format_summary(build_summary(fast, matroid, config)) == format_summary(
            literal_build_summary(literal, matroid, config)
        )
        assert fast.queries == literal.queries
        uniform = make_uniform(40, int(rng.integers(2, 10)))
        fast, plain = objective.clone(), objective.clone()
        assert greedy_matroid(range(40), fast, uniform) == plain_greedy_matroid(
            range(40), plain, uniform
        )
        assert fast.queries == plain.queries


def test_a_class_with_only_a_gain_kernel_runs_every_lazy_path():
    # _value, _state and _gain only: the base batch loops _gain, and every
    # builder takes the lazy paths a built-in coverage on the same data takes
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 29])
        covers = [np.flatnonzero(rng.random(60) < 0.08).tolist() for _ in range(100)]
        weights = rng.lognormal(0.0, 1.0, size=60) * 10.0 ** rng.integers(-3, 4, size=60)
        objective, builtin = KernelCoverage(weights, covers), WeightedCoverage(weights, covers)
        matroid = make_partition([range(b, 100, 4) for b in range(4)], [2, 1, 2, 1])
        base = set(rng.choice(100, size=12, replace=False).tolist())
        gains = objective.clone().gains(range(100), base)
        assert [float.hex(g) for g in gains] == [
            float.hex(objective.marginal(e, base)) for e in range(100)
        ]
        assert gains == builtin.gains(range(100), base)

        config = CentralizedConfig(epsilon=EPSILON, d=D, monotone_mode=True, seed=seed)
        fast, literal, twin = objective.clone(), objective.clone(), builtin.clone()
        summary = format_summary(build_summary(fast, matroid, config))
        assert summary == format_summary(literal_build_summary(literal, matroid, config))
        assert summary == format_summary(build_summary(twin, matroid, config))
        assert fast.queries == twin.queries

        config = StreamingConfig(epsilon=EPSILON, d=D, monotone_mode=True, seed=seed, audit=True)
        order = rng.permutation(100)
        fast, literal, plain = objective.clone(), objective.clone(), plain_oracle(objective)
        summary = format_summary(stream_summary(fast, matroid, config, order), include_audit=True)
        expected = literal_stream_summary(literal, matroid, config, order)
        assert summary == format_summary(expected, include_audit=True)
        stream_summary(plain, matroid, config, order)
        assert fast.queries == plain.queries <= literal.queries

        fast, plain, twin = objective.clone(), objective.clone(), builtin.clone()
        picks = greedy_matroid(range(100), fast, matroid)
        assert picks == plain_greedy_matroid(range(100), plain, matroid)
        assert picks == greedy_matroid(range(100), twin, matroid) and picks
        assert fast.queries == twin.queries
