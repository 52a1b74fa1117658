"""Fiberwise lattice, module, and duality algorithms over finite measure spaces.

The package realizes an axiomatic toolkit as executable constructions: a
generic lattice/ring law suite, finite measure-space carriers with pluggable
distances, normed fiber modules with glueing, generated (cotangent-style)
modules with their universal property, hom/dual machinery with Hahn-Banach
extension, inner-product fiber toolbox, and a deterministic JSON CLI.
"""

from .errors import (
    BoundViolated,
    CompressionViolated,
    DimensionMismatch,
    DominationViolated,
    EmptySet,
    InconsistentGenerators,
    InputError,
    InvalidExponent,
    InvalidStructure,
    ModuleMismatch,
    NegativeInput,
    NonIdempotentInput,
    NotAPartition,
    NotHilbert,
    PartitionMismatch,
    RieszmodError,
    SolverFailed,
    SpaceMismatch,
    UnsupportedHom,
)
from .order import (
    LAW_IDS,
    LAW_TABLE,
    RING_TOL,
    FinitePartition,
    Idempotent,
    LawReport,
    LawResult,
    SimpleElement,
    abs_value,
    check_disjoint,
    check_disjoint_products,
    disjointify,
    negative_part,
    positive_part,
    refine_partitions,
    riesz_decompose,
    riesz_law_suite,
    simple_combine,
)
from .spaces import (
    FSTRUCT_LAW_IDS,
    DualSystem,
    FiniteFStructure,
    FiniteMeasureSpace,
    Fn,
    Kind,
    check_fstructure_laws,
    l0_distance,
    local_inverse,
    lp_norm,
    stone_atoms,
    support_of,
    supporting_element,
)
from .modules import (
    RANK_RTOL,
    AdmissibleFamily,
    Fiber,
    FiberModule,
    FiberNorm,
    GramNorm,
    ImageLpNorm,
    LpNorm,
    ModuleElement,
    Submodule,
    dimensional_decomposition,
    glue,
    independence_check,
    kernel_basis,
    matrix_rank,
    module_distance,
    pointwise_norm,
    quotient_norm,
    row_space_basis,
    zero_indicator,
)
from .homdual import (
    Extension,
    HomElement,
    StructureHom,
    bidual_embed,
    dual_element,
    dual_module,
    dual_vector_norm,
    extend_from_generators,
    hahn_banach_extend,
    hom_norm,
    is_reflexive,
    kernel,
    norming_functional,
    pairing,
    z_module,
)
from .constructions import (
    GeneratedModule,
    Graph,
    SublinearMap,
    complete,
    cotangent_module,
    dual_embed,
    generate_module,
    graph_gradient,
    pullback_module,
    pushforward_hom,
    pushforward_module,
    seminorm_family,
    universal_factor,
)
from .hilbert import (
    BallSet,
    BoxSet,
    ConvexSet,
    HilbertModule,
    IntersectionSet,
    SubspaceSet,
    cauchy_schwarz_check,
    hilbert_reflexivity_check,
    orthogonal_complement,
    parallelogram_defect,
    pointwise_inner,
    project_convex,
    riesz_inverse,
    riesz_map,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
