"""Offline two-phase pipeline on the hard additive instance.

Exactly k+d elements carry unit weight; an adversary will delete d of them.
The summary must keep essentially every valuable element to stay competitive,
and the threshold sweep does exactly that.

Run:  python3 demos/demo_offline_pipeline.py
"""

import itertools

from robust_summary import (
    CentralizedConfig,
    SolverKind,
    build_summary,
    generate_instance,
    solve_after_deletions,
    theoretical_bound,
)

k, d = 4, 3
instance = generate_instance(f"lowerbound k={k} d={d} nzero=10")
print(f"instance: {instance.n} elements, {k + d} of them valuable, rank-{k} constraint")

config = CentralizedConfig(epsilon=0.2, d=d, monotone_mode=True, seed=7)
summary = build_summary(instance.objective.clone(), instance.matroid, config)

kept = sorted(set(summary.solution) | set(summary.reservoir))
print("summary keeps:", kept, f" (size {summary.size()})")
print("candidate solution:", summary.solution, " protected buffer:", summary.top_buffer)

# phase two: whatever d valuable elements vanish, k survivors remain
solver = SolverKind("exhaustive")
worst = None
for deleted in itertools.combinations(range(k + d), d):
    outcome = solve_after_deletions(
        summary, deleted, instance.objective.clone(), instance.matroid, solver
    )
    if worst is None or outcome.value < worst[1]:
        worst = (deleted, outcome.value)
print(f"worst deletion set {worst[0]} still leaves value {worst[1]}  (optimum is {k})")

bound = theoretical_bound(
    "centralized", True, solver.beta(instance.objective, instance.matroid), config.epsilon
)
print(f"guaranteed factor at epsilon={config.epsilon}: {bound:.3f}; "
      f"observed ratio {k / worst[1]:.3f}")

# here every bucket stays below the robustness cap, so the candidate is empty
# and the whole value sits in the reservoir; with many interchangeable
# elements the sampler actually builds a candidate solution
from robust_summary import make_modular, make_uniform

crowded = make_modular([1.0] * 16)
crowd_config = CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=1)
crowd_summary = build_summary(crowded, make_uniform(16, 4), crowd_config)
print("\n16 interchangeable unit elements, rank 4:")
print("  sampled candidate:", crowd_summary.solution)
print("  two seeds rarely agree:",
      build_summary(crowded.clone(), make_uniform(16, 4),
                    CentralizedConfig(epsilon=0.3, d=3, monotone_mode=True, seed=2)).solution)
print("  each insertion came from a bucket of >=",
      (crowd_config.d and int(crowd_config.d / crowd_config.epsilon)),
      "similar elements - that crowd is what makes single deletions cheap")
