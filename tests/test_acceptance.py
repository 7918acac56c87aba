"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest tests/test_acceptance.py -v -s``.  Ensemble criteria compare
the surviving optimum against the theoretical factor times the seed-ensemble
mean (never per-seed), with the stated multiplicative statistical slack.
"""

import itertools
import math

import numpy as np

from robust_summary import (
    CentralizedConfig,
    DeletionStrategy,
    ExperimentConfig,
    SolverKind,
    StreamingConfig,
    bucket_cap,
    build_summary,
    check_weight_properties,
    choose_deletions,
    format_summary,
    generate_instance,
    lattice_size_limit,
    make_cut_function,
    make_facility_location,
    make_graphic,
    make_modular,
    make_partition,
    make_uniform,
    make_weighted_coverage,
    opt_value,
    run_experiment,
    solve_after_deletions,
    stream_summary,
    streaming_memory_limit,
    theoretical_bound,
    write_instance,
)

from helpers import (
    augmentation_violations,
    downward_closed_violations,
    independence_table,
    literal_build_summary,
    mask_to_ids,
    minimal_dependent_supersets,
)

EXHAUSTIVE = SolverKind("exhaustive")
ENSEMBLE_SEEDS = 500
SLACK = 0.05


# ---------------------------------------------------------------------------
# shared machinery for the ensemble criteria


def _collapse(summaries):
    """Group summaries by content signature, keeping multiplicities."""
    groups = {}
    for summary in summaries:
        sig = (frozenset(summary.solution), frozenset(summary.reservoir))
        if sig in groups:
            groups[sig][1] += 1
        else:
            groups[sig] = [summary, 1]
    return list(groups.values())


def _cached_phase2(summary, deleted, instance, cache):
    removed = frozenset(deleted)
    key = (summary.solution_set - removed,
           frozenset((summary.solution_set | set(summary.reservoir)) - removed))
    if key not in cache:
        solution = solve_after_deletions(
            summary, removed, instance.objective.clone(), instance.matroid, EXHAUSTIVE
        )
        cache[key] = solution.value
    return cache[key]


def _assert_centralized_size(summary):
    cap = bucket_cap(summary.k, summary.d, summary.epsilon, summary.monotone)
    assert len(summary.exponents) <= lattice_size_limit(summary.k, summary.epsilon)
    assert summary.size() <= summary.k + summary.d + len(summary.exponents) * cap


def _assert_streaming_size(summary):
    limit = streaming_memory_limit(summary.k, summary.d, summary.epsilon)
    assert summary.size() <= limit
    assert summary.peak_memory <= limit


def _ensemble_assert(instance, grouped, deletion_sets, bound):
    cache = {}
    for removed in deletion_sets:
        opt = opt_value(instance.objective.clone(), instance.matroid, removed)
        total = sum(
            mult * _cached_phase2(summary, removed, instance, cache)
            for summary, mult in grouped
        )
        mean = total / sum(mult for _, mult in grouped)
        assert opt <= bound * mean * (1.0 + SLACK) + 1e-12, (
            f"deletion set {sorted(removed)}: opt={opt} mean={mean} bound={bound}"
        )


def _coverage_instances():
    return [
        generate_instance(
            "coverage n=14 universe=18 density=0.3",
            matroid="partition nblocks=3 cap=1",
            seed=gen_seed,
        )
        for gen_seed in (1, 2)
    ]


def _cut_instances():
    return [
        generate_instance("cut n=12 p=0.4", matroid="uniform k=3", seed=gen_seed)
        for gen_seed in (3, 4)
    ]


def _five_strategies(instance, d):
    strategies = [
        DeletionStrategy("top-value", d=d),
        DeletionStrategy("random", d=d, seed=17),
        DeletionStrategy("block-concentrated", d=d, block=0),
        DeletionStrategy("max-damage", d=d),
        DeletionStrategy("explicit-list", d=d, ids=tuple(range(d))),
    ]
    return [tuple(choose_deletions(instance, s)) for s in strategies]


def test_criterion_1_centralized_monotone_bound():
    bound = theoretical_bound("centralized", True, 1.0, 0.1)
    all_deletions = list(itertools.combinations(range(14), 2))
    assert len(all_deletions) == 91
    for instance in _coverage_instances():
        summaries = []
        for seed in range(ENSEMBLE_SEEDS):
            config = CentralizedConfig(epsilon=0.1, d=2, monotone_mode=True, seed=seed)
            summary = build_summary(instance.objective.clone(), instance.matroid, config)
            _assert_centralized_size(summary)
            summaries.append(summary)
        _ensemble_assert(instance, _collapse(summaries), all_deletions, bound)
    print(
        "criterion 1 PASS: centralized monotone ensemble bound holds for all "
        f"91 deletion pairs on 2 coverage instances (bound={bound:.3f})"
    )


def test_criterion_2_centralized_nonmonotone_bound():
    bound = theoretical_bound("centralized", False, 1.0, 0.1)
    for instance in _cut_instances():
        deletion_sets = _five_strategies(instance, d=2)
        summaries = []
        for seed in range(ENSEMBLE_SEEDS):
            config = CentralizedConfig(epsilon=0.1, d=2, monotone_mode=False, seed=seed)
            summary = build_summary(instance.objective.clone(), instance.matroid, config)
            _assert_centralized_size(summary)
            summaries.append(summary)
        _ensemble_assert(instance, _collapse(summaries), deletion_sets, bound)
    print(
        "criterion 2 PASS: centralized non-monotone ensemble bound holds for five "
        f"adversary strategies on 2 cut instances (bound={bound:.3f})"
    )


def test_criterion_3_streaming_bounds():
    mono_bound = theoretical_bound("streaming", True, 1.0, 0.1)
    for instance in _coverage_instances():
        all_deletions = list(itertools.combinations(range(instance.n), 2))
        summaries = []
        for seed in range(ENSEMBLE_SEEDS):
            config = StreamingConfig(epsilon=0.1, d=2, monotone_mode=True, seed=seed)
            order = [int(e) for e in np.random.default_rng([seed, 1]).permutation(instance.n)]
            summary = stream_summary(instance.objective.clone(), instance.matroid, config, order)
            assert summary.gamma == 1.0 and summary.sample_prob == 1.0
            _assert_streaming_size(summary)
            summaries.append(summary)
        _ensemble_assert(instance, _collapse(summaries), all_deletions, mono_bound)

    nonmono_bound = theoretical_bound("streaming", False, 1.0, 0.1)
    for instance in _cut_instances():
        deletion_sets = _five_strategies(instance, d=2)
        summaries = []
        for seed in range(ENSEMBLE_SEEDS):
            config = StreamingConfig(epsilon=0.1, d=2, monotone_mode=False, seed=seed)
            order = [int(e) for e in np.random.default_rng([seed, 1]).permutation(instance.n)]
            summary = stream_summary(instance.objective.clone(), instance.matroid, config, order)
            assert summary.gamma == 1.746
            assert summary.sample_prob == 1.0 / (1.746 + 2.0)
            _assert_streaming_size(summary)
            summaries.append(summary)
        _ensemble_assert(instance, _collapse(summaries), deletion_sets, nonmono_bound)
    print(
        "criterion 3 PASS: streaming ensemble bounds hold with default parameters "
        f"(monotone bound={mono_bound:.3f}, non-monotone bound={nonmono_bound:.3f})"
    )


def _sweep_seed(k, d, epsilon):
    return k * 1000 + d * 100 + int(epsilon * 10)


def test_criterion_4_size_bounds_sweep():
    checked = 0
    for k, d, epsilon in itertools.product((2, 5, 10), (0, 2, 5), (0.1, 0.2)):
        seed = _sweep_seed(k, d, epsilon)
        instance = generate_instance(
            "coverage n=40 universe=30 density=0.25", matroid=f"uniform k={k}", seed=seed
        )
        for monotone in (False, True):
            config = CentralizedConfig(
                epsilon=epsilon, d=d, monotone_mode=monotone, seed=seed + 1
            )
            summary = build_summary(instance.objective.clone(), instance.matroid, config)
            _assert_centralized_size(summary)
            checked += 1
        stream_config = StreamingConfig(epsilon=epsilon, d=d, monotone_mode=True, seed=seed + 2)
        order = [int(e) for e in np.random.default_rng(seed).permutation(40)]
        summary = stream_summary(
            instance.objective.clone(), instance.matroid, stream_config, order
        )
        _assert_streaming_size(summary)
        checked += 1
    print(f"criterion 4 PASS: size and memory bounds hold on all {checked} sweep runs "
          "(criteria 1-3 runs asserted inline)")


def _weight_sweep_instance(index, rng):
    kind = index % 4
    n = 24
    if kind == 0:
        covers = [list(np.flatnonzero(rng.random(15) < 0.3)) for _ in range(n)]
        return make_weighted_coverage(rng.uniform(0.1, 1.0, size=15), covers)
    if kind == 1:
        edges = [
            (u, v, float(rng.uniform(0.5, 1.5)))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.25
        ]
        return make_cut_function(n, edges)
    if kind == 2:
        return make_facility_location(rng.random((10, n)))
    return make_modular(rng.uniform(0.0, 3.0, size=n))


def test_criterion_5_weight_inequalities_ensemble():
    violations = 0
    for index in range(1000):
        rng = np.random.default_rng(10_000 + index)
        objective = _weight_sweep_instance(index, rng)
        matroid = make_uniform(objective.n, int(rng.integers(2, 4)))
        d = int(rng.integers(0, 3))
        config = StreamingConfig(
            epsilon=float(rng.choice([0.25, 0.5])),
            d=d,
            monotone_mode=objective.monotone,
            seed=index,
        )
        order = [int(e) for e in rng.permutation(objective.n)]
        summary = stream_summary(objective.clone(), matroid, config, order)
        for _ in range(50):
            removed = (
                sorted(int(e) for e in rng.choice(objective.n, size=d, replace=False))
                if d
                else []
            )
            report = check_weight_properties(summary, objective.clone(), removed)
            if not report.all_ok:
                violations += 1
    assert violations == 0
    print("criterion 5 PASS: weight inequalities held on 1000 streaming runs x 50 "
          "deletion sets each (tolerance 1e-9, zero violations)")


def test_criterion_6_hard_additive_instance():
    k, d = 4, 3
    instance = generate_instance(f"lowerbound k={k} d={d} nzero=10")
    removed = choose_deletions(instance, DeletionStrategy("top-value", d=d))
    positives = set(range(k + d))
    seeds = range(200)

    central_bound = theoretical_bound("centralized", True, 1.0, 0.2)
    values = []
    cache = {}
    for seed in seeds:
        config = CentralizedConfig(epsilon=0.2, d=d, monotone_mode=True, seed=seed)
        summary = build_summary(instance.objective.clone(), instance.matroid, config)
        value = _cached_phase2(summary, removed, instance, cache)
        if positives <= set(summary.solution) | set(summary.reservoir):
            assert value == float(k)
        values.append(value)
    assert sum(values) / len(values) >= k / central_bound

    stream_bound = theoretical_bound("streaming", True, 1.0, 0.2)
    values = []
    for seed in seeds:
        config = StreamingConfig(epsilon=0.2, d=d, monotone_mode=True, seed=seed)
        order = [int(e) for e in np.random.default_rng([seed, 1]).permutation(instance.n)]
        summary = stream_summary(instance.objective.clone(), instance.matroid, config, order)
        value = _cached_phase2(summary, removed, instance, cache)
        if positives <= set(summary.solution) | set(summary.reservoir):
            assert value == float(k)
        values.append(value)
    assert sum(values) / len(values) >= k / stream_bound
    print("criterion 6 PASS: hard additive instance keeps k surviving units in both "
          "modes (200 seeds each)")


def test_criterion_7_matroid_and_objective_axioms():
    matroids = [
        make_uniform(10, 4),
        make_uniform(8, 8),
        make_partition([[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, 1, 2]),
        make_partition([[0, 1], [2, 3, 4]], [0, 2]),
        make_graphic(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),  # complete
        make_graphic(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)]),
    ]
    for matroid in matroids:
        table = independence_table(matroid)
        assert table[0]
        assert not downward_closed_violations(table, matroid.n)
        assert not augmentation_violations(table, matroid.n)
        for mask in range(1 << matroid.n):
            if not table[mask]:
                continue
            base = mask_to_ids(mask, matroid.n)
            for g in range(matroid.n):
                if mask >> g & 1 or table[mask | (1 << g)]:
                    continue
                circuit = matroid.circuit(base, g)
                for x in circuit:
                    assert matroid.is_independent(circuit - {x})
                minimal = minimal_dependent_supersets(table, mask, g, matroid.n)
                assert len(minimal) == 1
                assert set(mask_to_ids(minimal[0], matroid.n)) == set(circuit)

    triples_per_kind = 10_000
    for kind_index in range(4):
        rng = np.random.default_rng(777 + kind_index)
        done = 0
        while done < triples_per_kind:
            objective = _weight_sweep_instance(kind_index, rng)
            for _ in range(500):
                members = list(rng.permutation(objective.n))
                small_cut = int(rng.integers(0, objective.n))
                big_cut = int(rng.integers(small_cut, objective.n))
                small, big = set(members[:small_cut]), set(members[:big_cut])
                outside = [e for e in range(objective.n) if e not in big]
                if not outside:
                    continue
                e = int(rng.choice(outside))
                assert objective.value([]) == 0.0
                assert objective.value(big) >= 0.0
                assert objective.marginal(e, small) >= objective.marginal(e, big) - 1e-9
                if objective.monotone:
                    assert objective.marginal(e, small) >= -1e-9
                done += 1
                if done >= triples_per_kind:
                    break
    print("criterion 7 PASS: matroid axioms/circuits exhaustive on n<=10; "
          "4 x 10^4 random submodularity triples clean at 1e-9")


def test_criterion_8_deletion_robust_sampling():
    # sixteen equal elements, rank 4, budget 3: every draw comes from a pool
    # of at least ceil(d/eps)=10 candidates of which at most 3 are doomed
    epsilon, d, k = 0.3, 3, 4
    objective = make_modular([1.0] * 16)
    matroid = make_uniform(16, k)
    doomed = {3, 4, 5}
    hits = 0
    total = 0
    for seed in range(2000):
        config = CentralizedConfig(epsilon=epsilon, d=d, monotone_mode=True, seed=seed)
        summary = build_summary(objective.clone(), matroid, config)
        assert len(summary.entries) == k
        total += len(summary.entries)
        hits += sum(1 for entry in summary.entries if entry.element in doomed)
    fraction = hits / total
    sigma = math.sqrt(epsilon * (1 - epsilon) / total)
    assert fraction <= epsilon + 3 * sigma, (fraction, epsilon, sigma)
    print(
        f"criterion 8 PASS: doomed-insertion fraction {fraction:.4f} <= "
        f"{epsilon} + 3*{sigma:.4f} across 2000 seeds"
    )


def test_criterion_9_determinism(tmp_path):
    instance = generate_instance(
        "coverage n=12 universe=10 density=0.3", matroid="uniform k=3", seed=5
    )
    inst_path = tmp_path / "inst.txt"
    write_instance(instance, inst_path)

    # identical experiment configs produce byte-identical CSV artifacts
    texts = []
    for run in ("first", "second"):
        config = ExperimentConfig(
            out_dir=str(tmp_path / run),
            mode="centralized",
            epsilon=0.25,
            d=2,
            monotone=True,
            instance_file=str(inst_path),
            solver="exhaustive",
            strategies=("top:2", "rand:2:7"),
            trials=5,
            seed_base=0,
        )
        report = run_experiment(config)
        texts.append(report.csv_path.read_bytes() + report.text_path.read_bytes())
    assert texts[0] == texts[1]

    # identical summaries, both modes
    busy_obj = make_modular([1.0] * 16)
    busy_matroid = make_uniform(16, 4)
    for seed in range(5):
        config = CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=seed)
        assert format_summary(
            build_summary(busy_obj.clone(), busy_matroid, config)
        ) == format_summary(build_summary(busy_obj.clone(), busy_matroid, config))
        stream_config = StreamingConfig(epsilon=0.3, d=2, monotone_mode=True, seed=seed)
        order = [int(e) for e in np.random.default_rng(seed).permutation(16)]
        assert format_summary(
            stream_summary(busy_obj.clone(), busy_matroid, stream_config, order),
            include_audit=True,
        ) == format_summary(
            stream_summary(busy_obj.clone(), busy_matroid, stream_config, order),
            include_audit=True,
        )

    # the lazy sweep reproduces the full-rescan reference exactly, per seed
    coverage = generate_instance(
        "coverage n=40 universe=30 density=0.15", matroid="partition nblocks=4 cap=2", seed=3
    )
    cut = generate_instance("cut n=30 p=0.2", matroid="uniform k=3", seed=3)
    cases = [
        (busy_obj, busy_matroid, dict(epsilon=0.3, d=3, monotone_mode=True)),
        (coverage.objective, coverage.matroid, dict(epsilon=0.25, d=1, monotone_mode=True)),
        (cut.objective, cut.matroid, dict(epsilon=0.5, d=1, monotone_mode=False)),
    ]
    for obj, matroid, fields in cases:
        for seed in range(10):
            config = CentralizedConfig(seed=seed, **fields)
            assert format_summary(build_summary(obj.clone(), matroid, config)) == format_summary(
                literal_build_summary(obj.clone(), matroid, config)
            )
    print("criterion 9 PASS: byte-identical reruns (CSV, reports, summaries); "
          "lazy sweep == full-rescan reference on 10 seeds x 3 instances")


def test_criterion_10_headline_constants():
    # the published constants are the limit formulas rounded UP at the third
    # decimal; exact equality at three decimals is checked via that rounding
    e = math.e
    cases = [
        ("centralized", True, e / (e - 1), 3.582),
        ("centralized", False, 2.597, 4.597),
        ("streaming", False, 2.597, 9.435),
        ("streaming", True, e / (e - 1), 5.582),
    ]
    for mode, monotone, beta, headline in cases:
        value = theoretical_bound(mode, monotone, beta, 0.0)
        assert value <= headline + 1e-9, (mode, monotone, value, headline)
        assert headline - value < 1e-3, (mode, monotone, value, headline)
    print("criterion 10 PASS: limit formulas reproduce headline constants "
          "3.582 / 4.597 / 9.435 / 5.582 at three decimals")
