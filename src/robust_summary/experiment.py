"""Experiment configuration, runner and report emission.

The runner executes seeded two-phase pipelines against obliviously drawn
deletion sets, aggregates the seed ensemble per strategy, compares the
surviving optimum against the theoretical factor times the ensemble mean,
and writes a frozen-schema CSV plus a human-readable report.  Identical
configurations produce byte-identical outputs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .adversary import OPT_METHODS, choose_deletions, opt_value, parse_strategy
from .bounds import bound_warnings, theoretical_bound
from .centralized import build_summary
from .generators import generate_instance
from .instance import Instance, format_instance, read_instance
from .objectives import check_monotone_mode
from .solvers import SOLVER_NAMES, SolverKind, solve_after_deletions
from .streaming import stream_summary
from .summary import MODES, BuildConfig, Summary
from .thresholds import check_parameter
from .verify import check_weight_properties, structural_checks

CSV_HEADER = "# robust-summary csv v1"
CSV_COLUMNS = (
    "strategy,seed,fS,fAprime,opt,method,ratio_ensemble,"
    "summary_size,peak_mem,oracle_calls,invariants_ok"
)

# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str
    mode: str = "centralized"
    epsilon: float = 0.1
    d: int = 0
    monotone: bool = False
    order: str = "shuffle"  # streaming arrival order: identity | shuffle
    instance_file: str | None = None
    gen_spec: str | None = None
    gen_matroid: str | None = None
    gen_seed: int = 0
    solver: str = "greedy"
    strategies: tuple[str, ...] = ()
    opt_method: str = "exhaustive"
    trials: int = 1
    seed_base: int = 0
    slack: float = 0.05

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.mode not in MODES:
            raise ValueError("mode must be centralized or streaming")
        if self.order not in ("identity", "shuffle"):
            raise ValueError("order must be identity or shuffle")
        if self.solver not in SOLVER_NAMES:
            raise ValueError(f"solver must be one of {SOLVER_NAMES}")
        if self.opt_method not in OPT_METHODS:
            raise ValueError(f"opt_method must be one of {OPT_METHODS}")
        if not self.strategies:
            raise ValueError("at least one deletion strategy is required")
        if (self.instance_file is None) == (self.gen_spec is None):
            raise ValueError("configure exactly one of instance_file / gen_spec")
        check_parameter("seed", self.gen_seed, "gen_seed")
        check_parameter("seed", self.seed_base, "seed_base")
        if not (math.isfinite(self.slack) and self.slack >= 0):
            raise ValueError(f"slack must be finite and non-negative, got {self.slack!r}")


def load_experiment_config(path) -> ExperimentConfig:
    """Read the sectioned key=value experiment configuration file.

    A ``;`` after whitespace starts a comment.  A section or key the runner
    does not read is an error, so a misspelled key cannot silently fall back
    to its default.  Every malformed file raises ValueError naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    read: set[tuple[str, str]] = set()

    def get(section, option, fallback=None):
        read.add((section, option))
        return parser.get(section, option, fallback=fallback)

    def convert(kind, section, option, fallback):
        """The value converted by ``kind``, or the converted ``fallback`` when unset."""
        text = get(section, option, fallback)
        try:
            return kind(text)
        except ValueError as exc:
            raise ValueError(f"{path}: [{section}] {option}: {exc}") from None

    def boolean(text):
        if text.lower() not in parser.BOOLEAN_STATES:
            raise ValueError(f"not a boolean: {text!r}")
        return parser.BOOLEAN_STATES[text.lower()]

    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        strategies = tuple(
            s.strip() for s in get("deletions", "strategies", "").split(",") if s.strip()
        )
        fields = dict(
            out_dir=get("report", "out_dir", "runs/experiment"),
            mode=get("algorithm", "mode", "centralized"),
            epsilon=convert(float, "algorithm", "epsilon", "0.1"),
            d=convert(int, "algorithm", "d", "0"),
            monotone=convert(boolean, "algorithm", "monotone", "false"),
            order=get("algorithm", "order", "shuffle"),
            instance_file=get("instance", "file"),
            gen_spec=get("instance", "generator"),
            gen_matroid=get("instance", "matroid"),
            gen_seed=convert(int, "instance", "gen_seed", "0"),
            solver=get("phase2", "solver", "greedy"),
            strategies=strategies,
            opt_method=get("deletions", "opt_method", "exhaustive"),
            trials=convert(int, "trials", "count", "1"),
            seed_base=convert(int, "trials", "seed_base", "0"),
            slack=convert(float, "report", "slack", "0.05"),
        )
    except configparser.Error as exc:
        raise ValueError(f"{path}: " + " ".join(str(exc).split())) from None
    known_sections = {section for section, _ in read}
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    for section in parser.sections():
        if section not in known_sections:
            raise ValueError(f"{path}: unknown section [{section}]")
        for option in parser.options(section):
            if (section, option) not in read:
                raise ValueError(f"{path}: unknown key [{section}] {option}")
    try:
        return ExperimentConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# the runner


@dataclass(frozen=True)
class TrialRow:
    strategy: str
    seed: int
    f_s: float
    f_a_prime: float
    opt: float
    method: str
    summary_size: int
    peak_mem: int | None
    oracle_calls: int
    invariants_ok: bool


@dataclass(frozen=True)
class StrategyResult:
    spec: str
    deleted: tuple[int, ...]
    opt: float
    method: str
    mean_f_s: float
    min_f_s: float
    sem: float
    hoeffding: float
    ratio: float | None  # None marks a vacuous (opt == 0) row, never divided
    bound: float | None
    bound_ok: bool | None


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[TrialRow] = field(default_factory=list)
    strategies: list[StrategyResult] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    csv_path: Path | None = None
    text_path: Path | None = None

    @property
    def all_invariants_ok(self) -> bool:
        return all(row.invariants_ok for row in self.rows)

    @property
    def all_bounds_ok(self) -> bool:
        return all(s.bound_ok in (True, None) for s in self.strategies)


def _load_instance(config: ExperimentConfig) -> Instance:
    if config.instance_file is not None:
        return read_instance(config.instance_file)
    return generate_instance(config.gen_spec, matroid=config.gen_matroid, seed=config.gen_seed)


def _phase_one(
    config: ExperimentConfig, instance: Instance, build: BuildConfig
) -> tuple[Summary, int]:
    objective = instance.objective.clone()
    if config.mode == "centralized":
        summary = build_summary(objective, instance.matroid, build)
    else:
        if config.order == "identity":
            order = list(range(instance.n))
        else:
            order = [int(e) for e in np.random.default_rng([build.seed, 1]).permutation(instance.n)]
        summary = stream_summary(objective, instance.matroid, build, order)
    return summary, objective.queries


def run_experiment(
    config: ExperimentConfig, instance: Instance | None = None
) -> ExperimentReport:
    """Execute the full pipeline and write results.csv plus report.txt.

    ``instance`` overrides the configured source (a testing hook).  If a
    trial fails, the rows completed so far are flushed to
    ``results.partial.csv`` before the error propagates.  ``instance.txt``
    holds the bytes of the configured instance file as read, or
    ``format_instance`` of a generated or passed-in instance.
    """
    # the builders' parameters, refused before any file is written
    build = BuildConfig(epsilon=config.epsilon, d=config.d, monotone_mode=config.monotone)
    text = None
    if instance is None:
        instance = _load_instance(config)
        text = instance.text  # None for a generated instance
    check_monotone_mode(instance.objective, config.monotone)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if text is None:
        text = format_instance(instance)
    (out_dir / "instance.txt").write_bytes(text.encode())

    solver = SolverKind(config.solver)
    strategies = [parse_strategy(spec) for spec in config.strategies]
    deletion_sets = {s.spec: tuple(choose_deletions(instance, s)) for s in strategies}
    opt_oracle = instance.objective.clone()
    opts = {
        spec: opt_value(opt_oracle, instance.matroid, removed, method=config.opt_method)
        for spec, removed in deletion_sets.items()
    }

    warnings = bound_warnings(config.mode, config.epsilon)
    bound: float | None = None
    beta = solver.beta(instance.objective, instance.matroid)
    if beta is not None:
        try:
            bound = theoretical_bound(config.mode, config.monotone, beta, config.epsilon)
        except ValueError as exc:
            warnings.append(f"bound formula unavailable: {exc}")

    def run_trial(seed: int) -> list[TrialRow]:
        summary, phase1_queries = _phase_one(config, instance, replace(build, seed=seed))
        base_ok = all(c.ok for c in structural_checks(summary, instance))
        rows = []
        for strategy in strategies:
            spec = strategy.spec
            removed = deletion_sets[spec]
            objective = instance.objective.clone()
            solution = solve_after_deletions(
                summary, removed, objective, instance.matroid, solver
            )
            ok = base_ok
            if config.mode == "streaming" and summary.audit is not None:
                ok = ok and check_weight_properties(
                    summary, instance.objective.clone(), removed
                ).all_ok
            rows.append(
                TrialRow(
                    strategy=spec,
                    seed=seed,
                    f_s=solution.value,
                    f_a_prime=solution.a_prime_value,
                    opt=opts[spec],
                    method=config.opt_method,
                    summary_size=summary.size(),
                    peak_mem=summary.peak_memory,
                    oracle_calls=phase1_queries + objective.queries,
                    invariants_ok=ok,
                )
            )
        return rows

    seeds = [config.seed_base + i for i in range(config.trials)]
    completed: dict[int, list[TrialRow]] = {}
    try:
        for seed in seeds:
            completed[seed] = run_trial(seed)
    except Exception:
        _flush_partial(out_dir, strategies, completed)
        raise

    # keyed reduction in fixed order: strategy first, then seed
    by_strategy: dict[str, list[TrialRow]] = {s.spec: [] for s in strategies}
    for rows in completed.values():
        for row in rows:
            by_strategy[row.strategy].append(row)
    ordered_rows: list[TrialRow] = []
    results: list[StrategyResult] = []
    for strategy in strategies:
        spec = strategy.spec
        rows = sorted(by_strategy[spec], key=lambda r: r.seed)
        ordered_rows.extend(rows)
        values = [r.f_s for r in rows]
        mean = math.fsum(values) / len(values)
        spread = max(values) - min(values)
        sem = (
            math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1) / len(values))
            if len(values) > 1
            else 0.0
        )
        hoeffding = spread * math.sqrt(math.log(2.0 / 0.05) / (2.0 * len(values)))
        opt = opts[spec]
        if opt <= 0.0:
            ratio = None  # vacuous: nothing to be competitive against
        else:
            ratio = opt / mean if mean > 0.0 else math.inf
        bound_ok: bool | None = None
        if bound is not None and opt > 0.0:
            bound_ok = opt <= bound * mean * (1.0 + config.slack)
        results.append(
            StrategyResult(
                spec=spec,
                deleted=deletion_sets[spec],
                opt=opt,
                method=config.opt_method,
                mean_f_s=mean,
                min_f_s=min(values),
                sem=sem,
                hoeffding=hoeffding,
                ratio=ratio,
                bound=bound,
                bound_ok=bound_ok,
            )
        )

    report = ExperimentReport(
        config=config, rows=ordered_rows, strategies=results, warnings=warnings
    )
    ratio_by_strategy = {s.spec: s.ratio for s in results}
    report.csv_path = out_dir / "results.csv"
    report.csv_path.write_text(_format_csv(ordered_rows, ratio_by_strategy), encoding="utf-8")
    report.text_path = out_dir / "report.txt"
    report.text_path.write_text(_format_report(report), encoding="utf-8")
    return report


def _flush_partial(out_dir: Path, strategies, completed: dict[int, list[TrialRow]]) -> None:
    rows: list[TrialRow] = []
    for spec in (s.spec for s in strategies):
        for seed in sorted(completed):
            rows.extend(r for r in completed[seed] if r.strategy == spec)
    ratios = {s.spec: "partial" for s in strategies}
    (out_dir / "results.partial.csv").write_text(_format_csv(rows, ratios), encoding="utf-8")


def _format_csv(rows: list[TrialRow], ratios: dict) -> str:
    lines = [CSV_HEADER, CSV_COLUMNS]
    for row in rows:
        ratio = ratios[row.strategy]
        if isinstance(ratio, str):
            ratio_text = ratio
        else:
            ratio_text = "vacuous" if ratio is None else repr(ratio)
        peak = "" if row.peak_mem is None else str(row.peak_mem)
        lines.append(
            f"{row.strategy},{row.seed},{row.f_s!r},{row.f_a_prime!r},{row.opt!r},"
            f"{row.method},{ratio_text},{row.summary_size},{peak},"
            f"{row.oracle_calls},{int(row.invariants_ok)}"
        )
    return "\n".join(lines) + "\n"


def _format_report(report: ExperimentReport) -> str:
    config = report.config
    lines = ["# robust-summary experiment report v1", ""]
    lines.append(f"mode={config.mode} epsilon={config.epsilon!r} d={config.d} "
                 f"monotone={int(config.monotone)} solver={config.solver} "
                 f"trials={config.trials} seed_base={config.seed_base}")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    lines.append("")
    for s in report.strategies:
        lines.append(f"strategy {s.spec}")
        lines.append(f"  deleted={list(s.deleted)}")
        lines.append(f"  opt[{s.method}]={s.opt!r}")
        lines.append(
            f"  mean_fS={s.mean_f_s!r} min_fS={s.min_f_s!r} sem={s.sem!r} "
            f"hoeffding={s.hoeffding!r}"
        )
        lines.append(
            "  ratio=" + ("vacuous" if s.ratio is None else repr(s.ratio))
        )
        if s.bound is not None:
            verdict = "n/a" if s.bound_ok is None else ("ok" if s.bound_ok else "VIOLATED")
            lines.append(f"  bound={s.bound!r} check={verdict}")
        else:
            lines.append("  bound=n/a (solver carries no proven factor)")
        lines.append("")
    lines.append(
        "invariants: " + ("all ok" if report.all_invariants_ok else "VIOLATIONS PRESENT")
    )
    return "\n".join(lines) + "\n"
