"""Benchmark of the robust_summary two-phase pipeline, run from the repository root.

    python3 perfbench/run.py --workload central-coverage --seed 1 --seconds 40 --trace 0

Derives the workload's instances from ``--seed`` and runs rounds over them (each
instance set up and run once per round) until the next repetition (traced:
the next round) would end after ``--seconds``.  Every output is checked.  Prints one ``name value unit`` line
per metric, then a last line of JSON.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, with the pipeline's times in units of the reference
computation of ``reference.py``, timed between repetitions; ``--trace 1``
follows each untraced repetition by a traced one and reports the per-layer
metrics.  Exits 2 without a result when the library sources or BENCHMARK.json
are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

from layers import LAYER_FUNCTIONS, layer_metrics, median_metrics
from reference import CHECKSUM, reference_work
from tracer import Tracer
from workloads import WORKLOADS, derived_seeds

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / "perfbench" / ".work"


def load_library(root: Path):
    """Import robust_summary from ``root/src``, never from an installed copy."""
    src = root / "src"
    if not (src / "robust_summary" / "__init__.py").is_file():
        raise FileNotFoundError(f"no robust_summary sources under {src}")
    sys.path.insert(0, str(src))
    import robust_summary

    if Path(robust_summary.__file__).resolve().parent != (src / "robust_summary").resolve():
        raise ImportError(f"robust_summary was imported from {robust_summary.__file__}")
    return robust_summary


def declared_metrics(root: Path) -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end-to-end and per-layer lists of BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def reference_seconds() -> tuple[float, bool]:
    """Time the reference computation once; returns (seconds, checksum right)."""
    gc.collect()
    t0 = perf_counter()
    right = reference_work() == CHECKSUM
    return perf_counter() - t0, right


def repetition(rs, workload, seed, workdir, tracer, run):
    """Set-up plus timed region once; returns (setup seconds, outcome, checks)."""
    gc.collect()
    with tracer.installed(run) if tracer is not None else nullcontext():
        t0 = perf_counter()
        prepared = workload.setup(rs, seed, workdir)
        setup_s = perf_counter() - t0
        outcome = workload.run(rs, prepared, workdir, tracer)
    return setup_s, outcome, workload.check(rs, prepared, outcome)


def exact_figures(outcome):
    return (outcome.outputs, outcome.oracle_calls, outcome.summary_size, outcome.robust_value)


def suite_seconds(per_instance, field) -> float:
    """Sum over instances of each instance's median time across rounds."""
    return sum(median(getattr(o, field) for o in reps) for reps in per_instance)


def suite_references(timeline, references, instances, field) -> float:
    """Like ``suite_seconds``, each time divided by the references around it.

    ``timeline`` holds (instance, outcome) in the order run, and
    ``references[k]`` and ``references[k + 1]`` were timed just before and
    just after ``timeline[k]``.
    """
    per_instance = [[] for _ in range(instances)]
    for k, (i, outcome) in enumerate(timeline):
        around = (references[k] + references[k + 1]) / 2
        per_instance[i].append(getattr(outcome, field) / around)
    return sum(median(reps) for reps in per_instance)


def measure(rs, workload, seed: int, seconds: float, trace: bool, workdir: Path, spans_path=None):
    """Repeat rounds over the seed's instances; return (metrics, checks, rounds).

    A round runs each of the workload's instances once (and, when tracing, once
    more traced).  Untraced, repetitions go on until the next one would end
    after ``seconds``, so the last round may be cut short; traced, whole
    rounds repeat until the next one would end after ``seconds``.  The first
    round is always whole.  ``rounds`` counts the whole rounds.
    """
    seeds = derived_seeds(seed, workload.instances)
    phases = Tracer(rs, dict.fromkeys(workload.phase_spans)) if workload.phase_spans else None
    full = Tracer(rs, LAYER_FUNCTIONS) if trace else None
    checks: list[tuple[str, bool]] = []
    references: list[float] = []
    timeline = []
    setups = [[] for _ in seeds]
    plain = [[] for _ in seeds]
    traced = [[] for _ in seeds]
    layers = []
    start = perf_counter()
    longest = 0.0  # the longest repetition (untraced) or round (traced) so far
    rounds = 0
    done = False
    while not done:
        began = perf_counter()
        round_runs = []
        if full is not None:
            full.spans.clear()  # keep one round in memory: up to ~10^6 spans
        for i, instance_seed in enumerate(seeds):
            run = rounds * len(seeds) + i
            if full is None and rounds and perf_counter() - start + longest > seconds:
                done = True
                break
            repetition_began = perf_counter()
            if full is None:
                reference_s, right = reference_seconds()
                references.append(reference_s)
                checks.append(("reference_checksum", right))
            setup_s, outcome, found = repetition(rs, workload, instance_seed, workdir, phases, run)
            checks += found
            timeline.append((i, outcome))
            if plain[i]:
                same = exact_figures(outcome) == exact_figures(plain[i][0])
                checks.append(("same_outputs_each_round", same))
            setups[i].append(setup_s)
            plain[i].append(outcome)
            if full is not None:
                _, outcome, found = repetition(rs, workload, instance_seed, workdir, full, run)
                checks += found
                same = exact_figures(outcome) == exact_figures(plain[i][0])
                checks.append(("traced_outputs_identical", same))
                traced[i].append(outcome)
                round_runs.append(run)
            else:
                longest = max(longest, perf_counter() - repetition_began)
        if full is not None:
            layers.append(layer_metrics(full, round_runs))
            longest = max(longest, perf_counter() - began)
            done = perf_counter() - start + longest > seconds
        if full is not None or not done:  # untraced, done means cut short
            rounds += 1

    if full is not None:
        if spans_path is not None:
            full.write_spans(spans_path)
        metrics = median_metrics(layers)
        metrics["trace.overhead_frac"] = (
            suite_seconds(traced, "total_s") / suite_seconds(plain, "total_s") - 1.0
        )
        return metrics, checks, rounds
    reference_s, right = reference_seconds()
    references.append(reference_s)
    checks.append(("reference_checksum", right))
    firsts = [reps[0] for reps in plain]
    return {
        "setup_s": sum(median(s) for s in setups),
        "phase1_ref": suite_references(timeline, references, len(seeds), "phase1_s"),
        "phase2_ref": suite_references(timeline, references, len(seeds), "phase2_s"),
        "total_ref": suite_references(timeline, references, len(seeds), "total_s"),
        "oracle_calls": sum(o.oracle_calls for o in firsts),
        "summary_size": sum(o.summary_size for o in firsts) / len(firsts),
        "robust_value": sum(o.robust_value for o in firsts) / len(firsts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # printed, not declared: the same times in seconds, and the unit they are given in
        "phase1_s": suite_seconds(plain, "phase1_s"),
        "phase2_s": suite_seconds(plain, "phase2_s"),
        "total_s": suite_seconds(plain, "total_s"),
        "reference_s": median(references),
    }, checks, rounds


UNDECLARED_SECONDS = ("phase1_s", "phase2_s", "total_s", "reference_s")


def result_record(metrics, checks, units: dict[str, str]) -> dict:
    """The last-line JSON: every declared metric with its unit, plus check counts."""
    failed = sum(1 for _, ok in checks if not ok)
    return {
        "correct": failed == 0 and bool(checks),
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def run_benchmark(rs, workload, seed, seconds, trace, units, out=sys.stdout) -> dict:
    """Measure, print every metric with its unit, and print the JSON record last."""
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    spans_path = WORK_ROOT / f"spans-{workload.name}.tsv" if trace else None
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        metrics, checks, rounds = measure(
            rs, workload, seed, seconds, trace, Path(tmp), spans_path
        )
    record = result_record(metrics, checks, units["per_layer" if trace else "end_to_end"])
    print(f"workload={workload.name} seed={seed} trace={int(trace)} instances={workload.instances} "
          f"rounds={rounds}",
          file=out)
    for name, entry in record["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}", file=out)
    if not trace:
        for name in UNDECLARED_SECONDS:
            print(f"{name} {metrics[name]!r} s", file=out)
    print(f"fail_frac {record['failed'] / record['attempted']!r} ratio", file=out)
    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}", file=out)
    print(json.dumps(record), file=out)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        units = declared_metrics(ROOT)
        rs = load_library(ROOT)
    except (OSError, ImportError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    run_benchmark(rs, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
