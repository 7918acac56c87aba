"""Experiment runner, summary verification and report determinism."""

import copy
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from robust_summary import (
    CentralizedConfig,
    ExperimentConfig,
    Instance,
    Modular,
    SolverKind,
    StreamingConfig,
    SummaryEntry,
    build_summary,
    check_weight_properties,
    choose_deletions,
    format_instance,
    format_summary,
    generate_instance,
    load_experiment_config,
    make_modular,
    make_uniform,
    parse_strategy,
    parse_summary,
    read_instance,
    run_experiment,
    solve_after_deletions,
    stream_summary,
    verify_summary,
    write_instance,
)
from robust_summary.thresholds import PowerLadder
from robust_summary import experiment, thresholds
from robust_summary.verify import VerifyCheck, structural_checks


def _busy_instance(n=16, k=4):
    return Instance(make_modular([1.0] * n), make_uniform(n, k))


def _experiment_config(tmp_path, **overrides):
    inst = _busy_instance()
    inst_path = tmp_path / "instance.txt"
    write_instance(inst, inst_path)
    base = dict(
        out_dir=str(tmp_path / "run"),
        mode="centralized",
        epsilon=0.3,
        d=3,
        monotone=True,
        instance_file=str(inst_path),
        solver="exhaustive",
        strategies=("top:3", "rand:3:9"),
        opt_method="exhaustive",
        trials=4,
        seed_base=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_outputs_and_rows(tmp_path):
    report = run_experiment(_experiment_config(tmp_path))
    assert report.csv_path.exists() and report.text_path.exists()
    assert len(report.rows) == 2 * 4  # strategies x trials
    assert report.all_invariants_ok
    assert report.all_bounds_ok
    for agg in report.strategies:
        assert agg.opt == 4.0  # four unit-weight survivors always exist
        assert agg.ratio is not None and agg.ratio >= 1.0 - 1e-9
    csv = report.csv_path.read_text().splitlines()
    assert csv[0] == "# robust-summary csv v1"
    assert csv[1].startswith("strategy,seed,fS,")
    assert len(csv) == 2 + len(report.rows)


def test_rerun_is_byte_identical(tmp_path):
    config = _experiment_config(tmp_path)
    first = run_experiment(config).csv_path.read_text()
    second = run_experiment(config).csv_path.read_text()
    assert first == second


def test_out_of_range_epsilon_carries_warning(tmp_path):
    report = run_experiment(_experiment_config(tmp_path, epsilon=0.3))
    assert any("outside (0, 1/5)" in w for w in report.warnings)
    assert "warning" in report.text_path.read_text()


def test_vacuous_ratio_on_worthless_instance(tmp_path):
    inst = Instance(make_modular([0.0] * 6), make_uniform(6, 2))
    inst_path = tmp_path / "zero.txt"
    write_instance(inst, inst_path)
    config = _experiment_config(
        tmp_path, instance_file=str(inst_path), d=1, strategies=("top:1",), trials=2
    )
    report = run_experiment(config)
    assert report.strategies[0].ratio is None
    assert ",vacuous," in report.csv_path.read_text()


def test_streaming_experiment_runs(tmp_path):
    config = _experiment_config(
        tmp_path, mode="streaming", epsilon=0.3, d=2, strategies=("top:2",), trials=3
    )
    report = run_experiment(config)
    assert report.all_invariants_ok
    assert all(row.peak_mem is not None for row in report.rows)


def test_a_streaming_experiment_checks_the_weights_once_per_trial_and_strategy(
    tmp_path, monkeypatch
):
    # the stream runs without audit; its swapped-out pairs still feed the checks
    calls = []
    check = experiment.check_weight_properties

    def spy(summary, objective, deleted):
        calls.append(summary)
        return check(summary, objective, deleted)

    monkeypatch.setattr(experiment, "check_weight_properties", spy)
    config = _experiment_config(
        tmp_path, mode="streaming", d=2, strategies=("top:2", "rand:2:9"), trials=3
    )
    report = run_experiment(config)
    assert len(calls) == 2 * 3 and report.all_invariants_ok


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        _experiment_config(tmp_path, trials=0)
    with pytest.raises(ValueError):
        _experiment_config(tmp_path, strategies=())
    with pytest.raises(ValueError):
        _experiment_config(tmp_path, instance_file=None)  # neither file nor generator


def test_load_experiment_config(tmp_path):
    text = """
[instance]
generator = lowerbound k=3 d=2 nzero=4
gen_seed = 5

[algorithm]
mode = streaming
epsilon = 0.25
d = 2
monotone = true
order = shuffle

[phase2]
solver = greedy

[deletions]
strategies = top:2, rand:2:11
opt_method = greedy-bound

[trials]
count = 3
seed_base = 50

[report]
out_dir = {out}
slack = 0.1
"""
    path = tmp_path / "exp.cfg"
    path.write_text(text.format(out=tmp_path / "out"))
    config = load_experiment_config(path)
    assert config.mode == "streaming"
    assert config.gen_spec == "lowerbound k=3 d=2 nzero=4"
    assert config.strategies == ("top:2", "rand:2:11")
    assert config.trials == 3 and config.seed_base == 50
    report = run_experiment(config)
    assert len(report.rows) == 6


def test_readme_example_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.cfg"
    path.write_text(block, encoding="utf-8")
    config = load_experiment_config(path)
    # the inline "; a | b" comments are not part of the values
    assert config.mode == "streaming"
    assert config.solver == "exhaustive"
    assert config.opt_method == "exhaustive"
    assert config.order == "shuffle"
    assert config.strategies == ("top:2", "rand:2:3", "maxdmg:2")


def test_single_trial_empty_deletion_ratio_under_bound(tmp_path):
    # d=0, one trial, exhaustive second phase: the ratio cannot exceed the factor
    from robust_summary import generate_instance, theoretical_bound, write_instance as wi

    inst = generate_instance(
        "coverage n=8 universe=8 density=0.4", matroid="uniform k=3", seed=2
    )
    inst_path = tmp_path / "cov8.txt"
    wi(inst, inst_path)
    config = _experiment_config(
        tmp_path, instance_file=str(inst_path), d=0, monotone=True,
        strategies=("top:0",), trials=1, epsilon=0.1,
    )
    report = run_experiment(config)
    agg = report.strategies[0]
    assert agg.deleted == ()
    assert agg.ratio is not None
    assert agg.ratio <= theoretical_bound("centralized", True, 1.0, 0.1) + 1e-9
    assert agg.bound_ok


def test_hard_additive_ensemble_clears_bound(tmp_path):
    from robust_summary import theoretical_bound

    config = ExperimentConfig(
        out_dir=str(tmp_path / "lb"),
        mode="centralized",
        epsilon=0.2,
        d=2,
        monotone=True,
        gen_spec="lowerbound k=3 d=2 nzero=5",
        solver="exhaustive",
        strategies=("top:2",),
        trials=50,
        seed_base=0,
    )
    report = run_experiment(config)
    agg = report.strategies[0]
    bound = theoretical_bound("centralized", True, 1.0, 0.2)
    assert agg.mean_f_s >= 3 / bound
    assert agg.bound_ok


class _BudgetedModular(Modular):
    """Modular oracle that fails once a shared query budget runs dry."""

    def __init__(self, weights, budget_box):
        super().__init__(weights)
        self.budget_box = budget_box  # shared across clones

    def value(self, ids):
        self.budget_box[0] -= 1
        if self.budget_box[0] <= 0:
            raise RuntimeError("oracle budget exhausted")
        return super().value(ids)


def test_partial_results_flushed_on_failure(tmp_path):
    def run_with_budget(budget, out, trials=8):
        box = [budget]
        inst = Instance(_BudgetedModular([1.0] * 16, budget_box=box), make_uniform(16, 4))
        config = _experiment_config(
            tmp_path, out_dir=str(tmp_path / out), trials=trials, strategies=("top:3",), d=3
        )
        run_experiment(config, instance=inst)
        return budget - box[0]

    # calibrate setup cost vs per-trial cost
    used_one = run_with_budget(10**9, "m1", trials=1)
    used_all = run_with_budget(10**9, "m8", trials=8)
    per_trial = (used_all - used_one) // 7
    budget = used_one + 3 * per_trial + per_trial // 2  # dries up mid-ensemble

    with pytest.raises(RuntimeError, match="budget exhausted"):
        run_with_budget(budget, "broken")
    partial = tmp_path / "broken" / "results.partial.csv"
    assert partial.exists()
    lines = partial.read_text().splitlines()
    assert lines[0] == "# robust-summary csv v1"
    assert 2 < len(lines) < 2 + 8  # some trials made it, not all
    assert all(",partial," in line for line in lines[2:])


def test_verify_fresh_summaries_pass():
    inst = _busy_instance()
    central = build_summary(
        inst.objective.clone(), inst.matroid,
        CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=1),
    )
    assert verify_summary(central, inst).all_ok
    streaming = stream_summary(
        inst.objective.clone(), inst.matroid,
        StreamingConfig(epsilon=0.3, d=3, monotone_mode=True, seed=1),
        np.random.default_rng(0).permutation(inst.n),
    )
    assert verify_summary(streaming, inst).all_ok
    assert verify_summary(streaming, inst, deletion_trials=0).all_ok
    with pytest.raises(ValueError, match="deletion_trials must be non-negative, got -5"):
        verify_summary(streaming, inst, deletion_trials=-5)


def test_verify_flags_duplicated_element():
    inst = _busy_instance()
    summary = build_summary(
        inst.objective.clone(), inst.matroid,
        CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=1),
    )
    corrupted = copy.deepcopy(summary)
    # duplicate a solution element into a reservoir bucket
    stolen = corrupted.solution[0]
    exp = corrupted.exponents[0]
    corrupted.buckets.setdefault(exp, []).append(stolen)
    report = verify_summary(corrupted, inst)
    assert not report.all_ok
    assert any(c.name == "disjointness" for c in report.failures())


def _header_check(summary, instance):
    (check,) = [c for c in structural_checks(summary, instance) if c.name == "header_matches_instance"]
    return check


def test_verify_flags_a_rank_that_is_not_the_matroids():
    # a summary edited to hold every element once passed verify with k=60 on a
    # rank-5 matroid: k raised the bucket cap (k+d)/epsilon from 35 to 310
    inst = generate_instance("cut n=200 p=0.05", matroid="partition nblocks=5 cap=1", seed=3)
    summary = build_summary(
        inst.objective.clone(), inst.matroid, CentralizedConfig(epsilon=0.2, d=2, seed=1)
    )
    assert _header_check(summary, inst) == VerifyCheck(
        "header_matches_instance", True, "k=5 n=200 monotone=0"
    )
    missing = set(range(inst.n)) - set(summary.solution) - set(summary.reservoir)
    lowest = min(summary.buckets)
    summary.buckets[lowest] = sorted(summary.buckets[lowest] + sorted(missing))
    summary.k = 60
    forged = parse_summary(format_summary(summary))
    assert forged.size() == inst.n
    report = verify_summary(forged, inst)
    assert [(c.name, c.detail) for c in report.failures()] == [
        ("header_matches_instance", "k=60 but the matroid has rank 5")
    ]


def test_verify_flags_a_header_that_is_not_the_instances():
    inst = generate_instance("cut n=30 p=0.2", matroid="uniform k=3", seed=4)
    config = StreamingConfig(epsilon=0.3, d=1, seed=1)
    streaming = stream_summary(inst.objective.clone(), inst.matroid, config, range(20))
    # a stream over part of the ground set counts its arrivals
    assert _header_check(streaming, inst).ok and streaming.n == 20
    central = build_summary(
        inst.objective.clone(), inst.matroid, CentralizedConfig(epsilon=0.3, d=1, seed=1)
    )
    edits = [
        (central, "n", 29, "n=29 but the instance has 30 elements"),
        (streaming, "n", 31, "n=31 but the instance has 30 elements"),
        (central, "monotone", True, "monotone=1 but graph-cut is not monotone"),
        (streaming, "monotone", True, "monotone=1 but graph-cut is not monotone"),
    ]
    for summary, key, value, detail in edits:
        forged = copy.deepcopy(summary)
        setattr(forged, key, value)
        assert _header_check(forged, inst) == VerifyCheck("header_matches_instance", False, detail)


def test_verify_flags_corrupted_swap_weights():
    # geometric weights force swaps against the rank-2 constraint
    inst = Instance(make_modular([2.5**i for i in range(8)]), make_uniform(8, 2))
    summary = stream_summary(
        inst.objective.clone(), inst.matroid,
        StreamingConfig(epsilon=0.5, d=0, monotone_mode=True, seed=3),
        range(8),
    )
    assert summary.audit.swapped_out, "need at least one swap for this fixture"
    corrupted = copy.deepcopy(summary)
    victim, weight = corrupted.audit.swapped_out[0]
    # push the kicked-out weight past the whole solution weight
    corrupted.audit.swapped_out[0] = (victim, weight + 1e6)
    report = verify_summary(corrupted, inst)
    assert any(c.name == "weights_swap_balance" for c in report.failures())


def test_weight_checks_without_a_recorded_gamma_use_the_class_margin():
    # non-monotone: a summary file without its gamma= line is checked at 1.746
    inst = Instance(make_modular([4.0**i for i in range(8)]), make_uniform(8, 2))
    summary = stream_summary(
        inst.objective.clone(), inst.matroid,
        StreamingConfig(epsilon=0.5, d=0, seed=2, audit=True), range(8),
    )
    assert summary.gamma == 1.746 and summary.audit.swapped_out
    text = format_summary(summary, include_audit=True)
    unrecorded = parse_summary("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith("gamma=")
    ))
    assert unrecorded.gamma == 1.746

    def details(s):
        return [c.detail for c in check_weight_properties(s, inst.objective.clone()).checks]

    assert details(unrecorded) == details(summary)


def test_verify_flags_inflated_gain():
    inst = _busy_instance()
    summary = build_summary(
        inst.objective.clone(), inst.matroid,
        CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=2),
    )
    corrupted = copy.deepcopy(summary)
    entry = corrupted.entries[0]
    corrupted.entries[0] = SummaryEntry(entry.element, entry.exponent, entry.gain + 50.0)
    report = verify_summary(corrupted, inst)
    assert any(c.name == "gain_brackets" for c in report.failures())


def _with_gain(summary, index, gain):
    """The summary re-read from its text, the gain of its index-th ``a=`` line replaced."""
    lines = format_summary(summary).splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith("a=")][index]
    element, exponent, _ = lines[at][2:].split(",")
    lines[at] = f"a={element},{exponent},{gain!r}\n"
    return parse_summary("".join(lines))


@pytest.mark.parametrize("mode", ["centralized", "streaming"])
def test_gain_brackets_flag_a_gain_outside_its_band(mode):
    rng = np.random.default_rng(5)
    inst = Instance(make_modular(rng.lognormal(0.0, 1.0, size=60)), make_uniform(60, 8))
    if mode == "centralized":
        config = CentralizedConfig(epsilon=0.3, d=2, monotone_mode=True, seed=1)
        summary = build_summary(inst.objective.clone(), inst.matroid, config)
    else:
        config = StreamingConfig(epsilon=0.3, d=2, monotone_mode=True, seed=1)
        summary = stream_summary(inst.objective.clone(), inst.matroid, config, range(60))

    def brackets(s):
        (check,) = [c for c in structural_checks(s, inst) if c.name == "gain_brackets"]
        return check.ok, check.detail

    assert brackets(summary) == (True, "")
    ladder = PowerLadder(1.3)
    # an entry below the top exponent whose band ends well under the anchor
    index, entry = next(
        (i, entry) for i, entry in enumerate(summary.entries)
        if entry.exponent < summary.exponents[0]
        and ladder.power(entry.exponent + 1) + 1e-6 < summary.delta
    )
    below = float(np.nextafter(ladder.power(entry.exponent), 0.0))
    above = ladder.power(entry.exponent + 1) + 1e-6
    for gain, where in ((below, "below its threshold"), (above, "above its band")):
        assert brackets(_with_gain(summary, index, gain)) == (
            False, f"element {entry.element} gain {where}"
        )


def test_gain_brackets_build_no_power_of_a_far_exponent(monkeypatch):
    # an a= exponent of +-10**6 fails at the cost of its gain: the ladder
    # builds the powers out to floor_exponent(gain), not out to the exponent
    ladders = []

    class CountingLadder(PowerLadder):
        def __init__(self, base):
            super().__init__(base)
            ladders.append(self)

        def power(self, i):
            # refuse at once, where the unbounded check would build 10**6 powers
            assert abs(i) < 1000, f"power({i}) asked"
            return super().power(i)

    # a centralized summary's brackets ask the ladder of the lattice it derives
    monkeypatch.setattr(thresholds, "PowerLadder", CountingLadder)
    inst = generate_instance(
        "coverage n=40 universe=60 density=0.1", matroid="partition nblocks=4 cap=1", seed=3
    )
    config = CentralizedConfig(epsilon=0.5, d=1, monotone_mode=True, seed=1)
    text = format_summary(build_summary(inst.objective.clone(), inst.matroid, config))
    first = text.index("\na=") + 1
    element, _, gain = text[first:].split("\n", 1)[0][2:].split(",")
    for exponent, where in ((10**6, "below its threshold"), (-(10**6), "above its band")):
        line = f"a={element},{exponent},{gain}"
        edited = parse_summary(text[:first] + line + text[text.index("\n", first):])
        (check,) = [c for c in structural_checks(edited, inst) if c.name == "gain_brackets"]
        assert (check.ok, check.detail) == (False, f"element {element} gain {where}")
        built = len(ladders[-1]._pos) + len(ladders[-1]._neg)
        assert built < 1000


def test_identity_order_streams_the_ids_in_order(tmp_path):
    rng = np.random.default_rng(3)
    inst = Instance(make_modular(rng.lognormal(0.0, 1.0, size=200)), make_uniform(200, 4))
    rows = {}
    for order in ("identity", "shuffle"):
        config = _experiment_config(
            tmp_path, mode="streaming", order=order, solver="greedy", opt_method="greedy-bound",
            out_dir=str(tmp_path / order),
        )
        report = run_experiment(config, instance=inst)
        rows[order] = [(r.strategy, r.seed, r.f_a_prime, r.summary_size, r.peak_mem, r.oracle_calls)
                       for r in report.rows]
    expected = []
    for spec in config.strategies:
        removed = choose_deletions(inst, parse_strategy(spec))
        for seed in sorted({row[1] for row in rows["identity"]}):
            objective = inst.objective.clone()
            summary = stream_summary(
                objective, inst.matroid,
                StreamingConfig(epsilon=0.3, d=3, monotone_mode=True, seed=seed), range(200),
            )
            solution = solve_after_deletions(
                summary, removed, objective, inst.matroid, SolverKind("greedy")
            )
            expected.append((spec, seed, solution.a_prime_value, summary.size(),
                             summary.peak_memory, objective.queries))
    assert rows["identity"] == expected
    assert rows["shuffle"] != expected


def _cut_experiment(tmp_path, **overrides):
    base = dict(
        out_dir=str(tmp_path / "cut"),
        mode="streaming",
        epsilon=0.2,
        d=2,
        gen_spec="cut n=60 p=0.1",
        gen_matroid="partition nblocks=4 cap=1",
        solver="greedy",
        strategies=("top:2",),
        opt_method="greedy-bound",
        trials=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_greedy_claims_no_bound_on_a_non_monotone_objective(tmp_path):
    # the greedy proves no factor on a non-monotone objective
    report = run_experiment(_cut_experiment(tmp_path))
    assert all(s.bound is None and s.bound_ok is None for s in report.strategies)
    text = report.text_path.read_text()
    assert "  bound=n/a (solver carries no proven factor)\n" in text
    assert "check=" not in text


def test_epsilon_past_the_non_monotone_formula_gives_one_bound_warning(tmp_path):
    # epsilon = 0.8 lies in (0, 1), but the formula at the fixed gamma refuses it
    config = _cut_experiment(
        tmp_path, epsilon=0.8, gen_spec="cut n=14 p=0.3", solver="exhaustive",
        opt_method="exhaustive",
    )
    report = run_experiment(config)
    warnings = [
        line for line in report.text_path.read_text().splitlines() if line.startswith("warning:")
    ]
    assert warnings == [
        "warning: bound formula unavailable: epsilon too large for the streaming bound formula"
    ]
    assert all(s.bound is None for s in report.strategies)


def test_monotone_mode_on_a_non_monotone_objective_is_rejected(tmp_path):
    with pytest.raises(ValueError) as raised:
        run_experiment(_cut_experiment(tmp_path, monotone=True))
    assert str(raised.value) == "monotone mode needs a monotone objective; graph-cut is not"
    assert not (tmp_path / "cut").exists()


def test_monotone_greedy_on_a_uniform_matroid_reports_the_paper_constant(tmp_path):
    # the greedy reaches 1 - 1/e of the optimum there: beta = e/(e-1), so the
    # bound tends to 4 + beta = 5.582 for a monotone stream as epsilon -> 0
    from robust_summary import theoretical_bound

    beta = math.e / (math.e - 1.0)
    report = run_experiment(_cut_experiment(
        tmp_path, gen_spec="coverage n=60 universe=80 density=0.05",
        gen_matroid="uniform k=4", monotone=True,
    ))
    bound = theoretical_bound("streaming", True, beta, 0.2)
    assert [s.bound for s in report.strategies] == [bound]
    assert f"  bound={bound!r} check=ok\n" in report.text_path.read_text()


def test_config_file_naming_the_local_search_is_refused(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "[instance]\ngenerator = cut n=30 p=0.2\nmatroid = uniform k=3\n"
        "[phase2]\nsolver = localsearch\n"
        "[deletions]\nstrategies = top:1\n"
    )
    with pytest.raises(ValueError) as raised:
        load_experiment_config(path)
    assert str(raised.value).endswith("solver must be one of ('greedy', 'exhaustive')")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("order", "shufle", "order must be identity or shuffle"),
        ("solver", "gredy", "solver must be one of ('greedy', 'exhaustive')"),
        ("opt_method", "exact", "opt_method must be one of ('exhaustive', 'greedy-bound')"),
        # a negative seed_base once wrote instance.txt and results.partial.csv
        # before numpy refused the seed in its own words
        ("gen_seed", -1, "gen_seed must be non-negative, got -1"),
        ("seed_base", -1, "seed_base must be non-negative, got -1"),
        ("d", -1, "deletion budget d must be non-negative, got -1"),
        ("epsilon", 1.5, "epsilon must be in (0, 1), got 1.5"),
        # a NaN or negative slack once reported VIOLATED for a run within the
        # bound, and an infinite one passed every check
        ("slack", math.nan, "slack must be finite and non-negative, got nan"),
        ("slack", -5.0, "slack must be finite and non-negative, got -5.0"),
        ("slack", math.inf, "slack must be finite and non-negative, got inf"),
    ],
    ids=["order", "solver", "opt_method", "gen_seed", "seed_base", "d", "epsilon",
         "slack-nan", "slack-negative", "slack-inf"],
)
def test_misspelled_choice_is_rejected_before_any_output(tmp_path, field, value, message):
    with pytest.raises(ValueError) as raised:
        run_experiment(_cut_experiment(tmp_path, **{field: value}))
    assert str(raised.value) == message
    assert not (tmp_path / "cut").exists()


def test_ensemble_mean_is_correctly_rounded(tmp_path):
    # ten trials of fS = 0.1: a left-to-right float sum gives 0.9999999999999999
    # on Python 3.11 (3.12's sum compensates); math.fsum gives 1.0 on both
    inst_path = tmp_path / "tenths.txt"
    write_instance(Instance(make_modular([0.1] * 6), make_uniform(6, 1)), inst_path)
    config = _experiment_config(
        tmp_path, instance_file=str(inst_path), strategies=("top:1",), trials=10, d=1
    )
    report = run_experiment(config)
    assert [row.f_s for row in report.rows] == [0.1] * 10
    (agg,) = report.strategies
    assert agg.mean_f_s == 0.1 and agg.sem == 0.0
    assert " mean_fS=0.1 " in report.text_path.read_text()


def test_weight_sums_are_correctly_rounded():
    # ten candidate gains of 0.1: the weight sum is 1.0, as the value is
    obj, matroid = make_modular([0.1] * 10), make_uniform(10, 10)
    summary = stream_summary(
        obj, matroid, StreamingConfig(epsilon=0.5, d=0, monotone_mode=True, audit=True), range(10)
    )
    assert [entry.gain for entry in summary.entries] == [0.1] * 10
    details = {c.name: c.detail for c in check_weight_properties(summary, obj).checks}
    assert details["weights_solution_weight_vs_value"] == "1.0 <= 1.0"
    assert details["weights_survivor_weight_vs_value"] == "1.0 <= 1.0"


# ---------------------------------------------------------------------------
# instance.txt and the output bytes of a run read from an instance file


def test_instance_txt_of_a_canonical_file_is_its_bytes(tmp_path):
    config = _experiment_config(tmp_path)
    run_experiment(config)
    written = (tmp_path / "run" / "instance.txt").read_bytes()
    assert written == Path(config.instance_file).read_bytes()
    assert written.decode() == format_instance(read_instance(config.instance_file))


def test_instance_txt_of_a_generated_or_passed_in_instance_is_formatted(tmp_path):
    config = _cut_experiment(tmp_path)
    run_experiment(config)
    generated = generate_instance(config.gen_spec, matroid=config.gen_matroid, seed=config.gen_seed)
    assert (tmp_path / "cut" / "instance.txt").read_text() == format_instance(generated)
    # a passed-in instance is formatted, even one read from a file with comments
    source = tmp_path / "commented.txt"
    source.write_text("# weights\n" + format_instance(_busy_instance()))
    run_experiment(_experiment_config(tmp_path), instance=read_instance(source))
    assert (tmp_path / "run" / "instance.txt").read_text() == format_instance(_busy_instance())


NON_CANONICAL_INSTANCE = (
    "# a hand-written instance\r\n"
    "n=6\r\n"
    "objective=modular   \r\n"
    "\r\n"
    "weights = 3, 1.5,2,0.25,4,1\r\n"
    "matroid=partition nblocks=2 cap=1\r\n"
    "tag 4=heavy\r\n"
)


def test_instance_txt_of_a_non_canonical_file_is_its_bytes_and_reads_back(tmp_path):
    # comments, blank lines, spaces, CRLF line ends and the nblocks shorthand
    # are kept as written; the file once held format_instance of what was read
    source = tmp_path / "hand.txt"
    source.write_bytes(NON_CANONICAL_INSTANCE.encode())
    config = _experiment_config(tmp_path, instance_file=str(source), strategies=("top:1",), d=1)
    run_experiment(config)
    written = tmp_path / "run" / "instance.txt"
    assert written.read_bytes() == NON_CANONICAL_INSTANCE.encode()
    again, first = read_instance(written), read_instance(source)
    assert format_instance(again) == format_instance(first)
    assert format_instance(first) != NON_CANONICAL_INSTANCE
    assert again.tags == {4: "heavy"} and again.matroid.blocks == ((0, 2, 4), (1, 3, 5))


# sha256 of results.csv and report.txt of a streaming non-monotone cut run
# read from an instance file (greedy-bound, three strategies), taken before
# the runner read instance.txt as bytes, the singleton table uncounted and the
# greedy stopped at a basis; a change to any output byte fails here
PINNED_CUT_RUN = {
    "results.csv": "6e6fe851b23d0cd26f382a2b4be6d5251dd94f3f9cddb14bdbac4af0041967b1",
    "report.txt": "2f788ac22584a958d272219fec0f8bcf765292264f1c0dd37468fcf1202f30e4",
}


def test_cut_experiment_from_a_file_keeps_its_output_bytes(tmp_path):
    path = tmp_path / "cut.txt"
    instance = generate_instance("cut n=150 p=0.05", matroid="partition nblocks=5 cap=1", seed=17)
    write_instance(instance, path)
    config = ExperimentConfig(
        out_dir=str(tmp_path / "run"),
        mode="streaming",
        epsilon=0.2,
        d=3,
        instance_file=str(path),
        solver="greedy",
        strategies=("top:3", "rand:3:5", "block:3:0"),
        opt_method="greedy-bound",
        trials=3,
        seed_base=40,
    )
    run_experiment(config)
    for name, digest in PINNED_CUT_RUN.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest, name
    assert (tmp_path / "run" / "instance.txt").read_bytes() == path.read_bytes()


# sha256 of results.csv and report.txt of a centralized monotone coverage
# sweep over a partition matroid with the greedy in phase 2 (greedy-bound,
# three strategies), oracle_calls included: the sweep's and the lazy greedy's
# bytes and query counts, which the streaming pins above do not reach
PINNED_CENTRAL_RUN = {
    "results.csv": "a7705b2045403ee1a42505051446f766e75d684856590d6339f31cb4b5338465",
    "report.txt": "c3d426c0d6e1db5ed40cc18216793233e6e6dbedfd09bfcd8a6b201a18d76875",
}


def test_centralized_coverage_experiment_keeps_its_output_bytes(tmp_path):
    config = ExperimentConfig(
        out_dir=str(tmp_path / "run"),
        mode="centralized",
        epsilon=0.2,
        d=2,
        monotone=True,
        gen_spec="coverage n=120 universe=90 density=0.06",
        gen_matroid="partition nblocks=4 cap=2",
        gen_seed=23,
        solver="greedy",
        strategies=("top:2", "rand:2:5", "block:2:0"),
        opt_method="greedy-bound",
        trials=3,
        seed_base=60,
    )
    run_experiment(config)
    for name, digest in PINNED_CENTRAL_RUN.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == digest, name
