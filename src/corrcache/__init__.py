"""Caching and coded delivery for file libraries with shared subfiles.

Files are unions of subfiles indexed by the set of files containing them;
caches exploit that sharing.  The package provides closed-form rates
for three schemes (uncoded, shared-subfile coded, correlation-ignorant
coded) plus a cut-set converse, a capacity allocator, deterministic
assignment schedules for the coded steps, a bit-exact delivery simulator
with a transcript decoder, and an exhaustive demand-grid verifier.
"""

__version__ = "0.1.0"

from .allocation import (
    AllocationSolution,
    exhaustive_allocation_oracle,
    optimize_allocation,
)
from .delivery import (
    DeliveryPlan,
    Transcript,
    cauc_deliver,
    decode,
    deliver,
    place,
)
from .model import (
    CacheAllocation,
    ContentStore,
    LibraryConfig,
    ratios_to_sizes,
)
from .rates import (
    cacc_alpha,
    cacc_level_rate,
    cacc_m,
    cacc_rate,
    cauc_optimal_allocation,
    cauc_rate,
    cicc_rate,
    cutset_bound,
)
from .scheduling import (
    AssignmentSchedule,
    generate_schedule,
    load_schedule,
    schedule_from_text,
    validate_schedule,
)
from .verification import (
    GridReport,
    verify_all_demands,
    worst_case_demand,
)

__all__ = [
    "AllocationSolution",
    "AssignmentSchedule",
    "CacheAllocation",
    "ContentStore",
    "DeliveryPlan",
    "GridReport",
    "LibraryConfig",
    "Transcript",
    "cacc_alpha",
    "cacc_level_rate",
    "cacc_m",
    "cacc_rate",
    "cauc_deliver",
    "cauc_optimal_allocation",
    "cauc_rate",
    "cicc_rate",
    "cutset_bound",
    "decode",
    "deliver",
    "exhaustive_allocation_oracle",
    "generate_schedule",
    "load_schedule",
    "optimize_allocation",
    "place",
    "ratios_to_sizes",
    "schedule_from_text",
    "validate_schedule",
    "verify_all_demands",
    "worst_case_demand",
]
