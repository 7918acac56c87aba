"""Oblivious deletion strategies and the ground-truth optimum oracle.

Strategies see the instance and the deletion budget, never a summary or the
algorithm's random bits: the interface makes adaptive adversaries
unrepresentable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .grammar import read_ids
from .instance import Instance
from .matroids import Matroid, PartitionMatroid
from .objectives import Objective
from .solvers import exhaustive_opt, greedy_matroid
from .thresholds import check_parameter

STRATEGY_KINDS = ("top-value", "random", "block-concentrated", "max-damage", "explicit-list")
OPT_METHODS = ("exhaustive", "greedy-bound")


@dataclass(frozen=True)
class DeletionStrategy:
    kind: str
    d: int
    seed: int | None = None
    block: int | None = None
    ids: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown deletion strategy {self.kind!r}")
        check_parameter("d", self.d, "deletion budget")

    @property
    def spec(self) -> str:
        if self.kind == "top-value":
            return f"top:{self.d}"
        if self.kind == "random":
            return f"rand:{self.d}:{self.seed}"
        if self.kind == "block-concentrated":
            return f"block:{self.d}:{self.block}"
        if self.kind == "max-damage":
            return f"maxdmg:{self.d}"
        return "list:" + ",".join(str(e) for e in self.ids)


# spec head -> the strategy kind and the fields after the head, in order
SPEC_FORMS = {
    "top": ("top-value", ("d",)),
    "rand": ("random", ("d", "seed")),
    "block": ("block-concentrated", ("d", "block")),
    "maxdmg": ("max-damage", ("d",)),
}


def _count(text: str) -> int | None:
    """The non-negative integer ``text`` spells, or None."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if value >= 0 else None


def parse_strategy(spec: str) -> DeletionStrategy:
    """Parse strategy spec strings: top:d, rand:d:seed, block:d:blockid, maxdmg:d, list:path.

    Every number is a non-negative integer; a spec with a field missing,
    extra or malformed is refused with the form it needs.
    """
    head, _, rest = spec.strip().partition(":")
    if head == "list":
        if not rest:
            raise ValueError(f"deletion strategy {spec!r} needs list:<path>")
        ids = tuple(read_ids(rest))
        return DeletionStrategy("explicit-list", d=len(ids), ids=ids)
    if head not in SPEC_FORMS:
        raise ValueError(f"cannot parse deletion strategy {spec!r}")
    kind, names = SPEC_FORMS[head]
    values = [_count(text) for text in rest.split(":")]
    if len(values) != len(names) or None in values:
        form = ":".join([head] + [f"<{name}>" for name in names])
        raise ValueError(
            f"deletion strategy {spec!r} needs {form}, each a non-negative integer"
        )
    return DeletionStrategy(kind, **dict(zip(names, values)))


def _singleton_order(objective: Objective) -> list[int]:
    """Every id by falling singleton value, ties toward the smaller id."""
    values = objective.singleton_values()
    return sorted(range(objective.n), key=lambda e: (-values[e], e))


def choose_deletions(instance: Instance, strategy: DeletionStrategy) -> list[int]:
    """Draw the deleted set: a function of (instance, strategy) only."""
    objective, matroid = instance.objective, instance.matroid
    n = objective.n
    d = strategy.d
    if d == 0:
        return []
    if strategy.kind == "explicit-list":
        ids = sorted(set(strategy.ids or ()))
        if len(ids) > d:
            raise ValueError("explicit deletion list longer than the budget")
        for e in ids:
            if not 0 <= e < n:
                raise ValueError(f"deletion id {e} outside range [0, {n})")
        return ids
    if d > n:
        raise ValueError(f"cannot delete {d} of {n} elements")

    if strategy.kind == "top-value":
        return sorted(_singleton_order(objective)[:d])

    if strategy.kind == "random":
        rng = np.random.default_rng(strategy.seed)
        return sorted(int(e) for e in rng.choice(n, size=d, replace=False))

    if strategy.kind == "block-concentrated":
        chosen: list[int] = []
        order = _singleton_order(objective)
        if isinstance(matroid, PartitionMatroid) and strategy.block is not None:
            if not 0 <= strategy.block < len(matroid.blocks):
                raise ValueError(f"block {strategy.block} does not exist")
            block = set(matroid.blocks[strategy.block])
            chosen = [e for e in order if e in block][:d]
        # pad from the global top-value order when the block runs short
        for e in order:
            if len(chosen) >= d:
                break
            if e not in chosen:
                chosen.append(e)
        return sorted(chosen)

    # max-damage: the d-subset of the 2d most valuable elements minimizing
    # the surviving optimum; restricting to 2d candidates keeps it tractable
    pool = sorted(_singleton_order(objective)[: min(2 * d, n)])
    best_damage = None
    best: tuple[int, ...] | None = None
    for combo in itertools.combinations(pool, d):
        surviving_opt = opt_value(objective, matroid, combo, method="exhaustive")
        if best_damage is None or surviving_opt < best_damage:
            best_damage = surviving_opt
            best = combo
    assert best is not None
    return sorted(best)


def opt_value(
    objective: Objective,
    matroid: Matroid,
    deleted: Iterable[int],
    method: str = "exhaustive",
) -> float:
    """Best independent-set value among survivors.

    "exhaustive" is the true optimum (refused above ``EXHAUSTIVE_CAP``
    elements); "greedy-bound" returns the greedy value, a lower bound on the
    optimum that is within the greedy's ``SolverKind.beta`` of it: exact on
    a modular objective, a factor e/(e-1) for a monotone objective over a
    uniform matroid and 2 over any other, none for a non-monotone one.
    """
    removed = set(int(e) for e in deleted)
    ground = [e for e in range(objective.n) if e not in removed]
    if method == "exhaustive":
        return objective.value(exhaustive_opt(ground, objective, matroid))
    if method == "greedy-bound":
        return objective.value(greedy_matroid(ground, objective, matroid))
    raise ValueError(f"unknown optimum method {method!r}")
