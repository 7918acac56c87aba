"""Single-pass summarization with swaps, subsampling and the audit trail.

Elements stream by in arbitrary order; the builder keeps a candidate solution
alive by swapping out circuit elements whose recorded weight is beaten by the
swap margin of the objective class, and banks near-threshold elements into small buckets.

Run:  python3 demos/demo_streaming_pipeline.py
"""

import numpy as np

from robust_summary import (
    StreamingConfig,
    check_weight_properties,
    generate_instance,
    stream_summary,
    streaming_memory_limit,
)
from robust_summary.streaming import drain_cap

instance = generate_instance(
    "coverage n=30 universe=20 density=0.25", matroid="uniform k=4", seed=3
)
config = StreamingConfig(epsilon=0.4, d=2, monotone_mode=True, seed=11, audit=True)
order = [int(e) for e in np.random.default_rng(42).permutation(instance.n)]
summary = stream_summary(instance.objective.clone(), instance.matroid, config, order)
print(f"fixed for a monotone objective: swap margin gamma={summary.gamma}, "
      f"sampling probability p={summary.sample_prob}, "
      f"drain cap {drain_cap(summary.d, summary.epsilon)}")

print("\ncandidate solution (element, weight):",
      [(e.element, round(e.gain, 3)) for e in summary.entries])
print("reservoir buckets by threshold exponent:", summary.buckets)
print("protected top-value buffer:", summary.top_buffer)
print("counters:", summary.counters)
print(f"peak memory {summary.peak_memory} vs worst-case limit "
      f"{streaming_memory_limit(summary.k, summary.d, summary.epsilon)}")

# the audit trail partitions every arrival
audit = summary.audit
print("\ndrained:", audit.drained)
print("swapped out (element, weight):", audit.swapped_out)
print("low-value discards:", audit.low_value)

# weight-function sanity against a deletion set
report = check_weight_properties(summary, instance.objective.clone(), deleted=order[:2])
for check in report.checks:
    print(f"  {check.name}: {check.detail}  ok={check.ok}")

# a non-monotone run subsamples: some drained elements are dropped by the coin
cut_instance = generate_instance("cut n=30 p=0.2", matroid="uniform k=4", seed=5)
cut_config = StreamingConfig(epsilon=0.4, d=0, seed=13, audit=True)
cut_summary = stream_summary(
    cut_instance.objective.clone(), cut_instance.matroid, cut_config,
    range(cut_instance.n),
)
print(f"\nnon-monotone run: gamma={cut_summary.gamma}, p={cut_summary.sample_prob:.3f}, "
      f"{len(cut_summary.audit.sample_rejected)} arrivals rejected by the coin, "
      f"{len(cut_summary.audit.swapped_out)} swaps")
