"""Free sets, involution covers, and fragmentation checks.

The objects here are finite windows {0, ..., N-1} together with
fixed-point-free functions on them. Everything the library builds,
from three-class free partitions through coded block systems, comes
with an independent verifier so a construction is never its own
witness.
"""

from .boundedfam import (
    BadSetBlock,
    BlockSystem,
    ClaimReport,
    GrowthFunction,
    MeasuredBlocks,
    SelectorReport,
    ShadowSet,
    bad_set,
    build_block_system,
    build_ed_blocks,
    constant_growth,
    ed_fin_blocks,
    ed_membership,
    infinitely_equal,
    meeting_function,
    selector_free_check,
    shadow_set,
    verify_freeness_claim,
    verify_meeting,
)
from .freesets import (
    Coloring,
    find_unsplit_set,
    is_maximal_free,
    katetov_partition,
    max_free_subset,
    verify_coloring,
)
from .funcgraph import (
    FiniteFunction,
    Lcg64,
    Orbit,
    OrbitDecomposition,
    Subset,
    image_overlap,
    is_free,
    orbit_decomposition,
    random_fpf_function,
    verify_orbits,
)
from .involutions import (
    DecompositionResult,
    Involution,
    combine_on_blocks,
    decompose_into_involutions,
    patch_fixed_point,
    verify_decomposition,
)
from .partitions import (
    IntervalPartition,
    PartitionIntoParts,
    dominates,
    edge_blocks,
    escape_intervals,
    localization_agreement,
    localized_function,
    partition_function,
    splits_all_parts,
    verify_escape,
)
from .rosenthal import (
    Fragmentation,
    RosenthalMatrix,
    find_fragmenting_set,
    fragments,
    function_to_matrix,
    parse_fraction,
    verify_fragmentation,
)

__version__ = "0.1.0"
