"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import run as bench
from workloads import CentralCoverage, ExperimentCut, StreamGraphic

rs = bench.load_library(bench.ROOT)
UNITS = bench.declared_metrics(bench.ROOT)

TINY = [
    CentralCoverage(
        spec="coverage n=150 universe=100 density=0.05", matroid="partition nblocks=5 cap=2", d=2
    ),
    StreamGraphic(n=150, vertices=20, d=2),
    ExperimentCut(spec="cut n=80 p=0.1", trials=2),
]
IDS = [w.name for w in TINY]


def test_benchmark_json_is_well_formed():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)


def printed(workload, trace, seconds=0.0):
    out = io.StringIO()
    record = bench.run_benchmark(rs, workload, 3, seconds, trace, UNITS, out=out)
    return record, out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    record, lines = printed(workload, trace)
    declared = UNITS["per_layer" if trace else "end_to_end"]
    for name, unit in declared.items():
        assert any(
            line.startswith(name + " ") and line.endswith(" " + unit) for line in lines
        ), name
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(declared)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert "fail_frac 0.0 ratio" in lines


def test_end_to_end_metrics_are_never_zero():
    for workload in TINY:
        record, _ = printed(workload, False)
        assert all(entry["value"] > 0 for entry in record["metrics"].values()), workload.name


def test_times_are_given_in_reference_units(tmp_path):
    from reference import CHECKSUM, reference_work

    assert reference_work() == CHECKSUM
    metrics, checks, _ = bench.measure(rs, TINY[1], 2, 0.0, False, tmp_path)
    assert ("reference_checksum", True) in checks
    # each repetition is divided by the references timed around it, not by
    # their median over the run, so the two agree only roughly
    for phase in ("phase1", "phase2", "total"):
        seconds = metrics[f"{phase}_s"]
        assert metrics[f"{phase}_ref"] == pytest.approx(seconds / metrics["reference_s"], rel=0.5)


def test_each_time_is_divided_by_the_references_around_it():
    from workloads import Outcome

    def timed(seconds):
        return Outcome(seconds, seconds, seconds, 0, 0.0, 0.0, {})

    timeline = [(0, timed(2.0)), (1, timed(6.0)), (0, timed(4.0))]
    # instance 0: 2/1 and 4/4, median 1.5; instance 1: 6/2
    assert bench.suite_references(timeline, [1.0, 1.0, 3.0, 5.0], 2, "total_s") == 4.5


@pytest.mark.parametrize("workload", TINY, ids=IDS)
def test_traced_outputs_match_untraced(workload, tmp_path):
    metrics, checks, _ = bench.measure(rs, workload, 5, 0.0, True, tmp_path, tmp_path / "s.tsv")
    names = [name for name, _ in checks]
    assert "traced_outputs_identical" in names
    assert all(ok for _, ok in checks), [name for name, ok in checks if not ok]
    assert metrics["objectives.marginal_calls"] > 0
    assert metrics["solvers.solve_after_deletions_s"] > 0
    spans = (tmp_path / "s.tsv").read_text().splitlines()
    assert spans[0].split("\t") == ["run", "index", "parent", "name", "start_s", "end_s"]
    assert len(spans) > 1


def test_tracing_leaves_the_library_unpatched(tmp_path):
    originals = (rs.build_summary, rs.streaming.rebucket, rs.experiment.stream_summary)
    bench.measure(rs, TINY[2], 1, 0.0, True, tmp_path)
    bench.measure(rs, TINY[0], 1, 0.0, True, tmp_path)
    assert (rs.build_summary, rs.streaming.rebucket, rs.experiment.stream_summary) == originals
    assert rs.thresholds.PowerLadder is rs.streaming.PowerLadder


def test_wrapped_oracle_clones_keep_their_own_tally():
    from tracer import Tracer

    instance = rs.generate_instance("cut n=10 p=0.5", matroid="uniform k=3", seed=1)
    tracer = Tracer(rs, {})
    traced = tracer.wrap(instance.objective)
    clone = traced.clone()
    with tracer.installed(0):
        clone.marginal(1, [2, 3])
    assert (clone.queries, traced.queries, instance.objective.queries) == (2, 0, 0)
    # the two value() calls inside marginal() are part of it, not new spans
    assert [span[0] for span in tracer.spans] == ["objectives.marginal"]


class BadValue(CentralCoverage):
    def run(self, *args):
        outcome = super().run(*args)
        return dataclasses.replace(outcome, robust_value=outcome.robust_value + 1.0)


class BadTrace(ExperimentCut):
    def run(self, rs, config, workdir, tracer):
        outcome = super().run(rs, config, workdir, tracer)
        if "instance.read_instance" in tracer.functions:
            outputs = dict(outcome.outputs, **{"results.csv": b"tampered"})
            outcome = dataclasses.replace(outcome, outputs=outputs)
        return outcome


@pytest.mark.parametrize(
    "bad, trace",
    [(BadValue(**{f.name: getattr(TINY[0], f.name) for f in dataclasses.fields(TINY[0])}), False),
     (BadTrace(**{f.name: getattr(TINY[2], f.name) for f in dataclasses.fields(TINY[2])}), True)],
    ids=["wrong-value", "traced-differs"],
)
def test_injected_bad_output_is_counted_in_fail_frac(bad, trace):
    record, lines = printed(bad, trace)
    assert not record["correct"]
    assert record["failed"] >= 1
    assert any(line.startswith("FAILED check:") for line in lines)
    fail_frac = next(float(line.split()[1]) for line in lines if line.startswith("fail_frac "))
    assert fail_frac == record["failed"] / record["attempted"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    cmd = [sys.executable, "perfbench/run.py", "--workload", "central-coverage",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "perfbench" / ".work").exists()
