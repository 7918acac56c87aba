"""Checkable invariants of a summary, and the one report type they fill.

Structural checks need only the summary and its instance: a header that
agrees with the instance, independence, disjointness, the bucket caps, the
size and memory bounds, the anchor value and the gain brackets.  The
weight checks re-evaluate, for a streaming summary with its audit trail,
the inequalities behind the swap rule against a deleted set.  They read
only the swapped-out pairs of the trail, which every in-memory stream
summary keeps, audited or not; a summary file has them with ``--audit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .centralized import bucket_cap, compute_delta
from .instance import Instance
from .objectives import Objective
from .streaming import drain_cap
from .summary import Summary
from .thresholds import PowerLadder, lattice_size_limit, threshold_lattice


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[VerifyCheck]:
        return [c for c in self.checks if not c.ok]

    def format_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append(f"{status:4}  {c.name}" + (f"  ({c.detail})" if c.detail else ""))
        lines.append("result: " + ("pass" if self.all_ok else "FAIL"))
        return "\n".join(lines) + "\n"


def streaming_memory_limit(k: int, d: int, epsilon: float) -> int:
    """k + d + (worst-case bucket count) * (per-bucket drain cap)."""
    return k + d + lattice_size_limit(k, epsilon) * drain_cap(d, epsilon)


def header_check(summary: Summary, instance: Instance) -> VerifyCheck:
    """The summary's header agrees with its instance.

    k is the matroid's rank; a centralized n is the instance's n, and a
    streaming n (its arrivals) at most that; ``monotone=1`` only on a
    monotone objective.  The bounds below read k, n and monotone from the
    header, so an edited header would move them.
    """
    matroid, objective = instance.matroid, instance.objective
    wrong = []
    if summary.k != matroid.k:
        wrong.append(f"k={summary.k} but the matroid has rank {matroid.k}")
    if summary.n > instance.n or (summary.mode == "centralized" and summary.n != instance.n):
        wrong.append(f"n={summary.n} but the instance has {instance.n} elements")
    if summary.monotone and not objective.monotone:
        wrong.append(f"monotone=1 but {objective.kind} is not monotone")
    detail = "; ".join(wrong) or f"k={summary.k} n={summary.n} monotone={int(summary.monotone)}"
    return VerifyCheck("header_matches_instance", not wrong, detail)


def structural_checks(summary: Summary, instance: Instance) -> list[VerifyCheck]:
    """Mode-aware invariants that need no audit trail."""
    checks: list[VerifyCheck] = [header_check(summary, instance)]

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append(VerifyCheck(name, ok, detail))

    k, d, epsilon = summary.k, summary.d, summary.epsilon
    if summary.mode == "centralized":
        lattice = threshold_lattice(summary.delta, k, epsilon)
        exponents, ladder = list(lattice.exponents), lattice.ladder
        cap = bucket_cap(k, d, epsilon, summary.monotone)
        size_limit = k + d + len(exponents) * cap
    else:
        exponents, ladder = summary.exponents, PowerLadder(1.0 + epsilon)
        cap = drain_cap(d, epsilon)
        size_limit = streaming_memory_limit(k, d, epsilon)
    solution, top = summary.solution_set, summary.top_buffer
    overlap = solution & set(summary.reservoir)
    filed = [e for bucket in summary.buckets.values() for e in bucket]
    check("solution_independent", instance.matroid.is_independent(solution))
    check("solution_within_rank", len(solution) <= k, f"|solution|={len(solution)} k={k}")
    check(
        "disjointness",
        not overlap and len(filed) == len(set(filed)) and not set(top) & set(filed),
        f"solution/reservoir overlap={sorted(overlap)}",
    )
    check("top_buffer_within_budget", len(top) <= d, f"|top|={len(top)} d={d}")
    check("bucket_caps", all(len(b) < cap for b in summary.buckets.values()), f"cap={cap}")
    limit = lattice_size_limit(k, epsilon)
    check("threshold_count", len(exponents) <= limit, f"used={len(exponents)} limit={limit}")
    check("size_bound", summary.size() <= size_limit, f"size={summary.size()} limit={size_limit}")
    if summary.mode == "streaming":
        peak = summary.peak_memory or 0
        check("peak_memory_bound", peak <= size_limit, f"peak={peak} limit={size_limit}")
    # a stream over part of the ground set anchors on the part it saw
    if summary.mode == "centralized" or summary.counters.get("arrivals") == instance.n:
        delta, protected = compute_delta(instance.objective.singleton_values(), d)
        check(
            "anchor_value",
            delta == summary.delta and sorted(protected) == sorted(top),
            f"expected delta={delta!r}",
        )

    # insertion gains must sit in their threshold band and below the anchor.
    # Only floor_exponent(gain) or the exponent under it can pass (the
    # centralized band allows 1e-9), so the power of any other exponent an
    # entry gives is never built; no builder writes a gain that is not positive.
    bracket_ok = True
    detail = ""
    top_exp = exponents[0] if exponents else None
    for entry in summary.entries:
        gain, exponent = entry.gain, entry.exponent
        floor = ladder.floor_exponent(gain) if gain > 0.0 else None
        if floor is None or exponent > floor:
            where = "below its threshold"
        elif gain > summary.delta + 1e-9:
            where = "above the anchor"
        elif exponent < floor - 1:
            where = "above its band"
        elif summary.mode == "streaming":
            where = "above its band" if gain > ladder.power(exponent + 1) else None
        elif top_exp is not None and exponent < top_exp:
            where = "above its band" if gain > ladder.power(exponent + 1) + 1e-9 else None
        else:
            where = None
        if where is not None:
            bracket_ok, detail = False, f"element {entry.element} gain {where}"
            break
    check("gain_brackets", bracket_ok, detail)
    return checks


def check_weight_properties(
    summary: Summary, objective: Objective, deleted: Sequence[int] = ()
) -> VerifyReport:
    """Post-run weight sanity for a streaming summary against a deleted set.

    Verifies that the swap margin keeps the kicked-out weight dominated, that
    weights underestimate the value of the candidate and of its survivors,
    and that they overestimate the value of candidate plus kicked elements.
    Weights are summed by ``math.fsum``, as the values are.  Each
    ``weights_<name>`` check holds when lhs <= rhs + 1e-9; its detail shows
    both sides.  The swap margin is the class margin the summary records
    (``Summary.gamma``).
    """
    if summary.mode != "streaming" or summary.audit is None:
        raise ValueError("weight checks need a streaming summary with its audit trail")
    removed = set(int(e) for e in deleted)

    solution = summary.solution
    weights = [entry.gain for entry in summary.entries]
    kicked = [w for _, w in summary.audit.swapped_out]
    weight_solution = math.fsum(weights)
    weight_kicked = math.fsum(kicked)
    value_solution = objective.value(solution)

    survivors = [e for e in solution if e not in removed]
    weight_survivors = math.fsum(
        entry.gain for entry in summary.entries if entry.element not in removed
    )
    value_survivors = objective.value(survivors)

    union = sorted(set(solution) | {e for e, _ in summary.audit.swapped_out})
    value_union = objective.value(union)
    weight_union = math.fsum(weights + kicked)

    def check(name: str, lhs: float, rhs: float) -> VerifyCheck:
        ok = lhs <= rhs + 1e-9
        return VerifyCheck(f"weights_{name}", ok, f"{lhs!r} {'<=' if ok else '>'} {rhs!r}")

    return VerifyReport((
        check("swap_balance", summary.gamma * weight_kicked, weight_solution),
        check("solution_weight_vs_value", weight_solution, value_solution),
        check("survivor_weight_vs_value", weight_survivors, value_survivors),
        check("union_value_vs_weight", value_union, weight_union),
    ))


def verify_summary(
    summary: Summary,
    instance: Instance,
    deletion_trials: int = 50,
    deletion_seed: int = 0,
) -> VerifyReport:
    """Re-check a (possibly re-read) summary against its instance.

    For streaming summaries carrying an audit trail (every in-memory
    stream summary does), the weight-function inequalities are
    re-evaluated for the empty deletion and a seeded batch of random
    deletion sets.  A negative ``deletion_trials`` raises ValueError.
    """
    if deletion_trials < 0:
        raise ValueError(f"deletion_trials must be non-negative, got {deletion_trials!r}")
    checks = structural_checks(summary, instance)
    if summary.mode == "streaming" and summary.audit is not None:
        rng = np.random.default_rng(deletion_seed)
        deletion_sets: list[list[int]] = [[]]
        if summary.d > 0 and instance.n >= summary.d:
            for _ in range(deletion_trials):
                picks = rng.choice(instance.n, size=summary.d, replace=False)
                deletion_sets.append(sorted(int(e) for e in picks))
        for idx, removed in enumerate(deletion_sets):
            report = check_weight_properties(summary, instance.objective, removed)
            for check in report.failures():
                where = f"deletion set #{idx} {removed}: "
                checks.append(replace(check, detail=where + check.detail))
        if not any(c.name.startswith("weights_") for c in checks):
            checks.append(VerifyCheck("weights_all", True, f"{len(deletion_sets)} deletion sets"))
    return VerifyReport(tuple(checks))
