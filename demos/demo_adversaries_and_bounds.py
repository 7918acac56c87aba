"""Deletion strategies, the surviving-optimum oracle, and the factor formulas.

Run:  python3 demos/demo_adversaries_and_bounds.py
"""

import math

from robust_summary import (
    DeletionStrategy,
    choose_deletions,
    generate_instance,
    opt_value,
    theoretical_bound,
)

instance = generate_instance(
    "coverage n=12 universe=10 density=0.35", matroid="partition nblocks=3 cap=1", seed=9
)

# strategies are oblivious: they see the instance and the budget, never a summary
strategies = [
    DeletionStrategy("top-value", d=2),
    DeletionStrategy("random", d=2, seed=5),
    DeletionStrategy("block-concentrated", d=2, block=1),
    DeletionStrategy("max-damage", d=2),
]
for strategy in strategies:
    removed = choose_deletions(instance, strategy)
    surviving = opt_value(instance.objective.clone(), instance.matroid, removed)
    print(f"{strategy.spec:12} deletes {removed}  surviving optimum {surviving:.3f}")

full = opt_value(instance.objective.clone(), instance.matroid, [])
print(f"\nno deletions: optimum {full:.3f}")
greedy_floor = opt_value(instance.objective.clone(), instance.matroid, [], method="greedy-bound")
print(f"greedy lower bound {greedy_floor:.3f} (within half of the optimum, monotone case)")

# the guarantee formulas, in their exact finite-epsilon form
beta_continuous = math.e / (math.e - 1)
print("\napproximation factors as epsilon -> 0:")
for label, mode, monotone, beta in [
    ("centralized monotone, best-possible routine", "centralized", True, beta_continuous),
    ("centralized non-monotone, state-of-the-art", "centralized", False, 2.597),
    ("streaming non-monotone, tuned margin", "streaming", False, 2.597),
    ("streaming monotone", "streaming", True, beta_continuous),
]:
    value = theoretical_bound(mode, monotone, beta, 0.0)
    print(f"  {label:46} {value:.4f}")

print("\nfinite-epsilon factors with an exact second phase (beta = 1):")
for eps in (0.05, 0.1, 0.15):
    central = theoretical_bound("centralized", True, 1.0, eps)
    streaming = theoretical_bound("streaming", True, 1.0, eps)
    print(f"  epsilon={eps:<5} centralized {central:.3f}   streaming {streaming:.3f}")
