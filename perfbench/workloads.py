"""The benchmark's seeded workloads, each driven through robust_summary's public API.

A workload has three steps, all given the package module ``rs`` so that a
tracer can patch the names they look up:

- ``setup(rs, seed, workdir)`` builds everything before phase 1 (instance,
  arrival order, deletion set, experiment config) from the seed alone;
- ``run(rs, prepared, workdir, tracer)`` is the timed region and returns an
  ``Outcome``: phase times, the exact-per-seed figures, and the output bytes
  that a traced and an untraced run must agree on.  ``tracer`` is None, or
  the active tracer whose oracle wrappers the run must use;
- ``check(rs, prepared, outcome)`` re-checks the outputs and returns one
  ``(name, ok)`` pair per check made.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Outcome:
    phase1_s: float
    phase2_s: float
    total_s: float
    oracle_calls: int
    summary_size: float
    robust_value: float
    outputs: dict[str, bytes]
    # what the checks need beyond the bytes: the in-memory summary, the result
    detail: dict = field(default_factory=dict, repr=False)


def derived_seeds(seed: int, count: int) -> list[int]:
    """Independent generator, build, order and deletion seeds from one seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def solution_bytes(result) -> bytes:
    ids = ",".join(str(e) for e in result.ids)
    return f"ids={ids}\nvalue={result.value!r}\nsource={result.source}\n".encode()


# ---------------------------------------------------------------------------
# phase 1, summary file round trip, phase 2


@dataclass
class PipelineInput:
    instance: object
    order: list[int] | None
    deleted: list[int]
    build_seed: int


@dataclass
class Pipeline:
    """Phase 1, a summary file round trip, then a greedy phase 2."""

    # Instances per run, each with its own seed.  Their work differs from seed
    # to seed; a run sums over several so that runs of different seeds agree.
    instances: int = 20
    phase_spans = ()

    def phase_one(self, rs, objective, matroid, prepared):
        raise NotImplementedError

    def run(self, rs, prepared: PipelineInput, workdir, tracer=None) -> Outcome:
        objective, matroid = prepared.instance.objective, prepared.instance.matroid
        if tracer is not None:
            objective, matroid = tracer.wrap(objective), tracer.wrap(matroid)
        path = workdir / "summary.txt"
        build_oracle = objective.clone()
        solve_oracle = objective.clone()
        t0 = perf_counter()
        summary = self.phase_one(rs, build_oracle, matroid, prepared)
        t1 = perf_counter()
        rs.write_summary(summary, path)
        parsed = rs.read_summary(path)
        t2 = perf_counter()
        result = rs.solve_after_deletions(
            parsed, prepared.deleted, solve_oracle, matroid, rs.SolverKind("greedy")
        )
        t3 = perf_counter()
        return Outcome(
            phase1_s=t1 - t0,
            phase2_s=t3 - t2,
            total_s=t3 - t0,
            oracle_calls=build_oracle.queries + solve_oracle.queries,
            summary_size=summary.size(),
            robust_value=result.value,
            outputs={"summary": path.read_bytes(), "solution": solution_bytes(result)},
            detail={"summary": summary, "result": result},
        )

    def check(self, rs, prepared: PipelineInput, outcome: Outcome) -> list[tuple[str, bool]]:
        instance = prepared.instance
        summary, result = outcome.detail["summary"], outcome.detail["result"]
        text = outcome.outputs["summary"].decode()
        value = instance.objective.clone().value(result.ids)
        return [
            ("summary_verifies", rs.verify_summary(summary, instance).all_ok),
            ("summary_round_trip", rs.format_summary(rs.parse_summary(text)) == text),
            ("solution_independent", instance.matroid.is_independent(result.ids)),
            ("solution_avoids_deleted", not set(result.ids) & set(prepared.deleted)),
            ("solution_value", value == result.value == outcome.robust_value),
        ]


@dataclass
class CentralCoverage(Pipeline):
    """Centralized phase 1 at the library's default bucket mode."""

    name: str = "central-coverage"
    spec: str = "coverage n=600 universe=500 density=0.04"
    matroid: str = "partition nblocks=10 cap=2"
    epsilon: float = 0.1
    d: int = 3

    def setup(self, rs, seed, workdir) -> PipelineInput:
        gen_seed, build_seed = derived_seeds(seed, 2)
        instance = rs.generate_instance(self.spec, matroid=self.matroid, seed=gen_seed)
        deleted = rs.choose_deletions(instance, rs.parse_strategy(f"top:{self.d}"))
        return PipelineInput(instance, None, deleted, build_seed)

    def phase_one(self, rs, objective, matroid, prepared):
        config = rs.CentralizedConfig(
            epsilon=self.epsilon, d=self.d, monotone_mode=True, seed=prepared.build_seed
        )
        return rs.build_summary(objective, matroid, config)


@dataclass
class StreamGraphic(Pipeline):
    """Monotone modular stream over the graphic matroid of a dense random graph."""

    name: str = "stream-graphic"
    n: int = 400
    vertices: int = 36
    epsilon: float = 0.2
    d: int = 3
    # enough instances that their differences in rebucketing work average out
    instances: int = 14

    def setup(self, rs, seed, workdir) -> PipelineInput:
        gen_seed, build_seed, order_seed, delete_seed = derived_seeds(seed, 4)
        rng = np.random.default_rng(gen_seed)
        # with a heavier tail (sigma 1.0) the work of one instance varied by 13%
        # from seed to seed; with 0.5, by about 5%
        weights = rng.lognormal(0.0, 0.5, size=self.n)
        pairs = [(u, v) for u in range(self.vertices) for v in range(u + 1, self.vertices)]
        edges = [pairs[i] for i in rng.choice(len(pairs), size=self.n, replace=False)]
        instance = rs.Instance(rs.make_modular(weights), rs.make_graphic(self.vertices, edges))
        order = [int(e) for e in np.random.default_rng(order_seed).permutation(self.n)]
        deleted = rs.choose_deletions(
            instance, rs.parse_strategy(f"rand:{self.d}:{delete_seed}")
        )
        return PipelineInput(instance, order, deleted, build_seed)

    def phase_one(self, rs, objective, matroid, prepared):
        config = rs.StreamingConfig(
            epsilon=self.epsilon, d=self.d, monotone_mode=True, seed=prepared.build_seed
        )
        return rs.stream_summary(objective, matroid, config, prepared.order)


# ---------------------------------------------------------------------------
# one full experiment from an instance file

# Phase times inside run_experiment can only be taken from spans around these
# two calls, so untraced runs of this workload patch them (16 spans an instance).
EXPERIMENT_PHASES = ("streaming.stream_summary", "solvers.solve_after_deletions")


@dataclass
class ExperimentCut:
    """Streaming, non-monotone ``run_experiment`` on a graph-cut instance file."""

    name: str = "experiment-cut"
    spec: str = "cut n=600 p=0.025"
    matroid: str = "partition nblocks=10 cap=1"
    epsilon: float = 0.2
    d: int = 3
    trials: int = 4
    # fewer instances than the pipelines: the trials already average seeds
    instances: int = 6
    phase_spans = EXPERIMENT_PHASES

    def setup(self, rs, seed, workdir):
        gen_seed, seed_base, delete_seed = derived_seeds(seed, 3)
        instance = rs.generate_instance(self.spec, matroid=self.matroid, seed=gen_seed)
        path = workdir / "instance.txt"
        rs.write_instance(instance, path)
        return rs.ExperimentConfig(
            out_dir=str(workdir / "experiment"),
            mode="streaming",
            epsilon=self.epsilon,
            d=self.d,
            instance_file=str(path),
            strategies=(f"top:{self.d}", f"rand:{self.d}:{delete_seed}", f"block:{self.d}:0"),
            opt_method="greedy-bound",
            trials=self.trials,
            seed_base=seed_base,
        )

    def run(self, rs, config, workdir, tracer) -> Outcome:
        """Needs a tracer that records at least ``EXPERIMENT_PHASES``.

        A full tracer also wraps the oracles of the instance that
        ``read_instance`` returns, so none are passed in here.
        """
        t0 = perf_counter()
        report = rs.run_experiment(config)
        total = perf_counter() - t0
        rows = list(csv.DictReader(io.StringIO(report.csv_path.read_text().split("\n", 1)[1])))
        return Outcome(
            phase1_s=tracer.seconds(EXPERIMENT_PHASES[0], tracer.run),
            phase2_s=tracer.seconds(EXPERIMENT_PHASES[1], tracer.run),
            total_s=total,
            oracle_calls=sum(int(r["oracle_calls"]) for r in rows),
            summary_size=float(np.mean([int(r["summary_size"]) for r in rows])),
            robust_value=float(np.mean([float(r["fS"]) for r in rows])),
            outputs={
                "results.csv": report.csv_path.read_bytes(),
                "report.txt": report.text_path.read_bytes(),
            },
            detail={"rows": rows},
        )

    def check(self, rs, config, outcome: Outcome) -> list[tuple[str, bool]]:
        rows = outcome.detail["rows"]
        report = outcome.outputs["report.txt"].decode()
        return [
            ("all_rows_present", len(rows) == self.trials * len(config.strategies)),
            ("invariants_ok", bool(rows) and all(r["invariants_ok"] == "1" for r in rows)),
            ("no_bound_violated", "VIOLATED" not in report),
            ("report_invariants_ok", "invariants: all ok" in report),
        ]


WORKLOADS = {w.name: w for w in (CentralCoverage(), StreamGraphic(), ExperimentCut())}
