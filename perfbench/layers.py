"""What the traced run patches in robust_summary, and the per-layer metrics it yields.

Each layer of the package gets spans around the calls into it; which
end-to-end metric each layer metric should move is listed in README.md.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from statistics import median

from tracer import NAME, PARENT, span_table

GREEDY = "solvers.greedy_matroid"
SOLVE = "solvers.solve_after_deletions"


def _count_inserts(tracer, args, summary, parent):
    tracer.counts[tracer.run]["centralized.inserts"] += len(summary.entries)


def _count_stream(tracer, args, summary, parent):
    counts = tracer.counts[tracer.run]
    for key in ("drained", "swapped_out", "swap_failed", "sample_rejected"):
        counts[f"streaming.{key}"] += summary.counters[key]
    counts["streaming.peak_memory"] = max(counts["streaming.peak_memory"], summary.peak_memory)
    counts["streaming.audit_entries"] += sum(
        len(getattr(summary.audit, f.name)) for f in dataclasses.fields(summary.audit)
    )


def _count_ground(tracer, args, result, parent):
    summary, deleted = args[0], set(args[1])
    counts = tracer.counts[tracer.run]
    counts["solvers.solves"] += 1
    counts["solvers.ground"] += len((set(summary.solution) | set(summary.reservoir)) - deleted)


def _count_picks(tracer, args, picks, parent):
    if parent == SOLVE:
        tracer.counts[tracer.run]["solvers.picks"] += len(picks)


def _wrap_instance(tracer, args, instance, parent):
    # the only way to get traced oracles into run_experiment from outside
    instance.objective = tracer.wrap(instance.objective)
    instance.matroid = tracer.wrap(instance.matroid)


def _count_bytes(tracer, args, text, parent):
    tracer.counts[tracer.run]["summary.bytes"] += len(text.encode())


# span name (or, for a class, the class whose methods get spans) -> hook
LAYER_FUNCTIONS = {
    "thresholds.PowerLadder": None,
    "centralized.build_summary": _count_inserts,
    "streaming.stream_summary": _count_stream,
    "streaming.drain_buckets": None,
    "streaming.rebucket": None,
    SOLVE: _count_ground,
    GREEDY: _count_picks,
    "adversary.choose_deletions": None,
    "adversary.opt_value": None,
    "experiment.run_experiment": None,
    "experiment.structural_checks": None,
    "instance.read_instance": _wrap_instance,
    "summary.format_summary": _count_bytes,
    "summary.parse_summary": None,
    "generators.generate_instance": None,
}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, runs) -> dict[str, float]:
    """Per-layer metrics summed over traced repetitions ``runs`` (set-up included)."""
    spans = tracer.spans
    indices = tracer.indices(runs)
    calls, inclusive, exclusive, edges = span_table(spans, indices)
    counts = Counter()
    for run in runs:
        for key, value in tracer.counts[run].items():
            peak = key == "streaming.peak_memory"
            counts[key] = max(counts[key], value) if peak else counts[key] + value

    def self_s(layer):
        return sum(v for name, v in exclusive.items() if name.startswith(layer + "."))

    # marginals of the phase-2 greedy only, not of opt_value's greedy
    phase2_marginals = 0
    for i in indices:
        if spans[i][NAME] == "objectives.marginal":
            parent = spans[i][PARENT]
            if spans[parent][NAME] == GREEDY and spans[spans[parent][PARENT]][NAME] == SOLVE:
                phase2_marginals += 1
    swaps = counts["streaming.swapped_out"]
    return {
        "objectives.value_calls": calls["objectives.value"],
        "objectives.value_s": inclusive["objectives.value"],
        "objectives.marginal_calls": calls["objectives.marginal"],
        "objectives.marginal_s": inclusive["objectives.marginal"],
        "matroids.is_independent_calls": calls["matroids.is_independent"],
        "matroids.is_independent_s": inclusive["matroids.is_independent"],
        "matroids.circuit_calls": calls["matroids.circuit"],
        "matroids.circuit_s": inclusive["matroids.circuit"],
        "thresholds.floor_exponent_calls": calls["thresholds.floor_exponent"],
        "thresholds.floor_exponent_s": inclusive["thresholds.floor_exponent"],
        "centralized.build_summary_s": inclusive["centralized.build_summary"],
        "centralized.self_s": self_s("centralized"),
        "centralized.marginals_per_insert": _ratio(
            edges[("centralized.build_summary", "objectives.marginal")],
            counts["centralized.inserts"],
        ),
        "streaming.stream_summary_s": inclusive["streaming.stream_summary"],
        "streaming.self_s": self_s("streaming"),
        "streaming.drain_buckets_s": inclusive["streaming.drain_buckets"],
        "streaming.rebucket_calls": calls["streaming.rebucket"],
        "streaming.rebucket_s": inclusive["streaming.rebucket"],
        "streaming.drained": counts["streaming.drained"],
        "streaming.swapped_out": swaps,
        "streaming.swap_failed": counts["streaming.swap_failed"],
        "streaming.sample_rejected": counts["streaming.sample_rejected"],
        "streaming.swap_yield": _ratio(swaps, swaps + counts["streaming.swap_failed"]),
        "streaming.peak_memory": counts["streaming.peak_memory"],
        "streaming.audit_entries": counts["streaming.audit_entries"],
        "solvers.solve_after_deletions_s": inclusive[SOLVE],
        "solvers.self_s": self_s("solvers"),
        "solvers.ground_size": _ratio(counts["solvers.ground"], counts["solvers.solves"]),
        "solvers.marginals_per_pick": _ratio(phase2_marginals, counts["solvers.picks"]),
        "adversary.choose_deletions_s": inclusive["adversary.choose_deletions"],
        "adversary.opt_value_s": inclusive["adversary.opt_value"],
        "experiment.run_experiment_s": inclusive["experiment.run_experiment"],
        "experiment.structural_checks_s": inclusive["experiment.structural_checks"],
        "experiment.self_s": self_s("experiment"),
        "instance.read_instance_s": inclusive["instance.read_instance"],
        "summary.format_summary_s": inclusive["summary.format_summary"],
        "summary.parse_summary_s": inclusive["summary.parse_summary"],
        "summary.bytes": counts["summary.bytes"],
        "generators.generate_instance_s": inclusive["generators.generate_instance"],
    }


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over rounds; counts repeat exactly each round."""
    return {name: median(m[name] for m in per_round) for name in per_round[0]}
