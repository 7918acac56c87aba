"""Post-deletion solvers and the second-phase driver.

After the deleted set is revealed, the surviving summary is handed to a
constrained-maximization routine; the final answer is the better of the
routine's output and the surviving candidate solution itself.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .matroids import Matroid, UniformMatroid
from .objectives import Modular, Objective
from .summary import Summary

SOLVER_NAMES = ("greedy", "exhaustive")
# the exhaustive search refuses larger ground sets: 2^22 subsets at most
EXHAUSTIVE_CAP = 22


@dataclass(frozen=True)
class SolverKind:
    """Which routine runs in the post-deletion phase.

    ``beta(objective, matroid)`` is the routine's proven approximation
    factor on that objective and matroid, used by bound checks, or None
    where it has none.
    """

    name: str

    def __post_init__(self):
        if self.name not in SOLVER_NAMES:
            raise ValueError(f"solver must be one of {SOLVER_NAMES}")

    def beta(self, objective: Objective, matroid: Matroid) -> float | None:
        """1 for the exact search; for the greedy, the factor its objective and matroid prove.

        The greedy is exact on a modular objective over any matroid (Edmonds
        1971).  On a monotone objective it reaches 1 - 1/e of the optimum
        over a uniform matroid (Nemhauser, Wolsey & Fisher 1978), so beta is
        e/(e-1), and half of it over any other matroid (Fisher, Nemhauser &
        Wolsey 1978).  It proves nothing on a non-monotone objective.
        """
        if self.name == "exhaustive" or isinstance(objective, Modular):
            return 1.0
        if not objective.monotone:
            return None
        if isinstance(matroid, UniformMatroid):
            return math.e / (math.e - 1.0)
        return 2.0

    def run(self, ground: Sequence[int], objective: Objective, matroid: Matroid) -> list[int]:
        if self.name == "greedy":
            return greedy_matroid(ground, objective, matroid)
        return exhaustive_opt(ground, objective, matroid)


def greedy_matroid(ground: Iterable[int], objective: Objective, matroid: Matroid) -> list[int]:
    """Classic greedy: keep adding the feasible element of best positive gain.

    Ties break toward the smaller id; stops when nothing improves, or at a
    basis (``matroid.k`` picks), where no element fits any more.  Lazy
    (Minoux 1978) with ``exact_gains``: a heap of ``(-gain, id, picks)``
    entries, ``picks`` being how many elements were chosen when the gain was
    computed.  An older exact gain bounds its fresh gain bit for bit, so an
    entry that reaches the top with a fresh gain beats every other entry's
    fresh key, and only the entries that reach the top are recomputed.
    Without exact gains an older gain bounds nothing, so every element still
    on the heap is asked afresh after each pick: the plain greedy's queries.
    An element that stops being independent of the picks is dropped for
    good: the picks only grow and independence is downward closed.  So
    stopping at a basis returns the same picks and asks the same queries as
    draining the heap, whose remaining entries would all be dropped unasked.
    """
    # replaced on every pick, never mutated: the oracles know it by identity
    chosen: frozenset[int] = frozenset()
    heap = _fresh_heap(sorted(set(int(e) for e in ground)), objective, matroid, chosen)
    # every id on the heap passed fits_each; fetched again at each pick
    fits = matroid.fits_to(chosen)
    while heap:
        key, e, stamp = heapq.heappop(heap)
        if stamp != len(chosen):
            if fits(e):
                heapq.heappush(heap, (-objective.marginal(e, chosen), e, len(chosen)))
            continue
        if key >= 0.0:
            break
        chosen = chosen | {e}
        if len(chosen) == matroid.k:
            break
        if not objective.exact_gains:
            heap = _fresh_heap([x for _, x, _ in heap], objective, matroid, chosen)
        fits = matroid.fits_to(chosen)
    return sorted(chosen)


def _fresh_heap(elements, objective, matroid, chosen) -> list[tuple[float, int, int]]:
    """A heap of ``(-gain, id, len(chosen))`` over the elements that fit ``chosen``.

    One ``fits_each`` and one ``gains`` call.  The (gain, id) pairs are
    unique, so the pops follow from the entries alone, however the heap
    arranges them.
    """
    feasible = [e for e, fits in zip(elements, matroid.fits_each(elements, chosen)) if fits]
    heap = [(-gain, e, len(chosen)) for e, gain in zip(feasible, objective.gains(feasible, chosen))]
    heapq.heapify(heap)
    return heap


def exhaustive_opt(ground: Iterable[int], objective: Objective, matroid: Matroid) -> list[int]:
    """True optimum by enumerating independent subsets (downward-closed DFS).

    Refuses ground sets above ``EXHAUSTIVE_CAP``.  Ties break toward the set
    that is lexicographically smallest as a sorted id tuple, which the
    pre-order DFS visits first.
    """
    elements = sorted(set(int(e) for e in ground))
    if len(elements) > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive solve refused: {len(elements)} elements exceed the cap of {EXHAUSTIVE_CAP}"
        )
    best_value = 0.0  # the empty set is always independent and worth 0
    best: tuple[int, ...] = ()

    def visit(prefix: list[int], start: int) -> None:
        nonlocal best_value, best
        for idx in range(start, len(elements)):
            e = elements[idx]
            candidate = prefix + [e]
            if not matroid.is_independent(candidate):
                continue
            value = objective.value(candidate)
            if value > best_value:
                best_value = value
                best = tuple(candidate)
            visit(candidate, idx + 1)

    visit([], 0)
    return list(best)


@dataclass(frozen=True)
class RobustSolution:
    """Outcome of the post-deletion phase."""

    ids: tuple[int, ...]
    value: float
    source: str  # "candidate-survivors" | "solver-output"
    beta_claimed: float | None
    a_prime_value: float
    deleted: tuple[int, ...]
    warning: str | None = None


def solve_after_deletions(
    summary: Summary,
    deleted: Iterable[int],
    objective: Objective,
    matroid: Matroid,
    solver: SolverKind,
) -> RobustSolution:
    """Drop the deleted elements, run the solver on the survivors, keep the best.

    Ties go to the surviving candidate solution.  A deleted set larger than
    the summary's budget is accepted but flagged: the guarantee is void.
    """
    removed = set(int(e) for e in deleted)
    warning = None
    if len(removed) > summary.d:
        warning = (
            f"deleted set has {len(removed)} elements, summary was built for d={summary.d}; "
            "guarantee void"
        )
    survivors = [e for e in summary.solution if e not in removed]
    reservoir = [e for e in summary.reservoir if e not in removed]
    ground = sorted(set(survivors) | set(reservoir))
    solver_pick = solver.run(ground, objective, matroid)
    survivors_value = objective.value(survivors)
    solver_value = objective.value(solver_pick)
    if solver_value > survivors_value:
        ids, value, source = sorted(solver_pick), solver_value, "solver-output"
    else:
        ids, value, source = sorted(survivors), survivors_value, "candidate-survivors"
    return RobustSolution(
        ids=tuple(ids),
        value=value,
        source=source,
        beta_claimed=solver.beta(objective, matroid),
        a_prime_value=survivors_value,
        deleted=tuple(sorted(removed)),
        warning=warning,
    )
