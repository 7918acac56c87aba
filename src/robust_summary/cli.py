"""Command-line interface: gen, summarize, solve, verify, bound, experiment."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .adversary import SPEC_FORMS, choose_deletions, parse_strategy
from .bounds import bound_warnings, theoretical_bound
from .centralized import build_summary
from .experiment import load_experiment_config, run_experiment
from .generators import generate_instance
from .grammar import read_ids
from .instance import read_instance, write_instance
from .solvers import SOLVER_NAMES, SolverKind, solve_after_deletions
from .streaming import stream_summary
from .summary import MODES, BuildConfig, read_summary, write_summary
from .thresholds import check_parameter
from .verify import verify_summary


def _parse_order(spec: str, n: int) -> list[int]:
    if spec == "identity":
        return list(range(n))
    if spec.startswith("shuffle:"):
        seed = check_parameter("seed", int(spec.split(":", 1)[1]), "--order shuffle:<seed>")
        return [int(e) for e in np.random.default_rng(seed).permutation(n)]
    return read_ids(spec)


def _non_negative(text: str) -> int:
    """The type of a seed or count flag: a non-negative integer, refused by the flag's name."""
    try:
        return check_parameter("seed", int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}") from None


def _parse_deletions(spec: str, instance) -> list[int]:
    """A strategy spec's deletions; any other spec names an id file, read as ``list:``."""
    if not spec.startswith(tuple(f"{head}:" for head in [*SPEC_FORMS, "list"])):
        spec = "list:" + spec
    return choose_deletions(instance, parse_strategy(spec))


def cmd_gen(args) -> int:
    instance = generate_instance(args.spec, matroid=args.matroid, seed=args.seed)
    write_instance(instance, args.out)
    print(f"wrote instance: n={instance.n} k={instance.matroid.k} -> {args.out}")
    return 0


def cmd_summarize(args) -> int:
    if args.mode == "centralized" and args.order is not None:
        raise ValueError("--order sets a stream's arrival order; --mode centralized reads none")
    config = BuildConfig(
        epsilon=args.epsilon, d=args.d, monotone_mode=args.monotone, seed=args.seed,
        audit=args.audit,
    )
    instance = read_instance(args.instance)
    if args.mode == "centralized":
        summary = build_summary(instance.objective, instance.matroid, config)
    else:
        order = _parse_order("identity" if args.order is None else args.order, instance.n)
        summary = stream_summary(instance.objective, instance.matroid, config, order)
    write_summary(summary, args.out, include_audit=args.audit)
    print(
        f"wrote {summary.mode} summary: |solution|={len(summary.entries)} "
        f"|reservoir|={len(summary.reservoir)} size={summary.size()} -> {args.out}"
    )
    return 0


def cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    summary = read_summary(args.summary)
    deleted = _parse_deletions(args.delete, instance)
    solver = SolverKind(args.solver)
    solution = solve_after_deletions(
        summary, deleted, instance.objective, instance.matroid, solver
    )
    if solution.warning:
        print(f"warning: {solution.warning}", file=sys.stderr)
    lines = [
        "# robust-summary solution v1",
        f"solver={args.solver}",
        "beta=" + ("unknown" if solution.beta_claimed is None else repr(solution.beta_claimed)),
        "deleted=" + ",".join(str(e) for e in solution.deleted),
        f"source={solution.source}",
        f"value={solution.value!r}",
        f"a_prime_value={solution.a_prime_value!r}",
        "s=" + ",".join(str(e) for e in solution.ids),
    ]
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"solution value={solution.value!r} source={solution.source} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    instance = read_instance(args.instance)
    summary = read_summary(args.summary)
    report = verify_summary(
        summary,
        instance,
        deletion_trials=args.deletion_trials,
        deletion_seed=args.deletion_seed,
    )
    print(report.format_text(), end="")
    return 0 if report.all_ok else 1


def cmd_bound(args) -> int:
    value = theoretical_bound(args.mode, args.monotone, args.beta, args.epsilon)
    for warning in bound_warnings(args.mode, args.epsilon):
        print(f"warning: {warning}", file=sys.stderr)
    print(repr(value))
    return 0


def cmd_experiment(args) -> int:
    config = load_experiment_config(args.config)
    report = run_experiment(config)
    for warning in report.warnings:
        print(f"warning: {warning}")
    for s in report.strategies:
        ratio = "vacuous" if s.ratio is None else f"{s.ratio:.4f}"
        verdict = "" if s.bound_ok is None else (" bound-ok" if s.bound_ok else " BOUND-VIOLATED")
        print(f"{s.spec}: opt={s.opt:.4f} mean_fS={s.mean_f_s:.4f} ratio={ratio}{verdict}")
    print(f"csv: {report.csv_path}")
    print(f"report: {report.text_path}")
    return 0 if report.all_invariants_ok and report.all_bounds_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-summary",
        description="Deletion-robust submodular maximization under matroid constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance file")
    p.add_argument("--spec", required=True, help='e.g. "coverage n=14 universe=20 density=0.25"')
    p.add_argument("--matroid", default=None, help='e.g. "uniform k=3" or "partition nblocks=3 cap=1"')
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("summarize", help="run the first phase and write a summary file")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--order", default=None,
        help="streaming arrival order: order file | shuffle:<seed> | identity (the default)",
    )
    p.add_argument(
        "--audit", action="store_true",
        help="assert independence at every change of the candidate, in both modes; a stream "
        "also records its audit trail and writes it into the summary file",
    )
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("solve", help="run the post-deletion phase on a summary")
    p.add_argument("--summary", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--delete", required=True, help="id-list file or strategy spec (top:d, rand:d:seed, block:d:blockid, maxdmg:d, list:path)")
    p.add_argument("--solver", choices=SOLVER_NAMES, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a summary file against its instance")
    p.add_argument("--summary", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--deletion-trials", type=_non_negative, default=50)
    p.add_argument("--deletion-seed", type=_non_negative, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="evaluate the approximation-factor formula")
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--monotone", action="store_true")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("experiment", help="run a seeded experiment from a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"robust-summary: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
