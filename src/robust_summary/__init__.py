"""Deletion-robust submodular maximization under matroid constraints.

Two-phase pipeline: phase one builds a small summary (offline threshold
sweep or single-pass stream with swapping) that survives up to d adversarial
deletions; phase two extracts an independent solution from the survivors.
"""

from .adversary import DeletionStrategy, choose_deletions, opt_value, parse_strategy
from .bounds import bound_warnings, theoretical_bound
from .centralized import CentralizedConfig, bucket_cap, build_summary, compute_delta
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    load_experiment_config,
    run_experiment,
)
from .generators import generate_instance
from .instance import (
    Instance,
    format_instance,
    format_matroid,
    parse_instance_text,
    parse_matroid_spec,
    read_instance,
    write_instance,
)
from .matroids import (
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
    make_graphic,
    make_partition,
    make_uniform,
)
from .objectives import (
    FacilityLocation,
    GraphCut,
    Modular,
    Objective,
    WeightedCoverage,
    make_cut_function,
    make_facility_location,
    make_modular,
    make_weighted_coverage,
)
from .solvers import (
    RobustSolution,
    SolverKind,
    exhaustive_opt,
    greedy_matroid,
    solve_after_deletions,
)
from .streaming import (
    StreamingConfig,
    StreamState,
    drain_buckets,
    finalize,
    ingest,
    rebucket,
    stream_summary,
)
from .summary import (
    BuildConfig,
    StreamAudit,
    Summary,
    SummaryEntry,
    format_summary,
    parse_summary,
    read_summary,
    write_summary,
)
from .thresholds import PowerLadder, ThresholdLattice, lattice_size_limit, threshold_lattice
from .verify import (
    VerifyReport,
    check_weight_properties,
    streaming_memory_limit,
    verify_summary,
)

__version__ = "0.1.0"
