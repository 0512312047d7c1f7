"""Explicit induced-universal graphs for bounded-degree graphs.

Building blocks: high-girth LPS Ramanujan expanders, constrained walks in
them, thin decompositions with path-power layouts, an implicit product graph
served by an adjacency oracle and label codec, and a deterministic
induced-embedding pipeline in which every guarantee is re-verified.
"""

from .errors import (
    ArgumentError,
    ArtifactError,
    BudgetError,
    CertificationError,
    CodecError,
    ConstructionIntegrityError,
    ConvergenceError,
    DecompositionError,
    EmbeddingFailureError,
    ExhaustedSearchError,
    InfeasibleBuildError,
    IntegrityError,
    LayoutError,
    PropertyFailureError,
    ScheduleOverflowError,
    WalkStuckError,
)
from .graphs import (
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    dump_edge_list,
    empty_graph,
    format_edge_list,
    is_path,
    is_walk,
    load_edge_list,
    parse_edge_list,
    path_graph,
)
from .lps import (
    ExpanderCertificate,
    LpsParams,
    build_lps_graph,
    certify_expander,
    find_lps_params,
    second_eigenvalue,
)
from .walks import (
    ConstraintSchedule,
    WalkMap,
    WalkParams,
    build_walk_map,
    count_q_expanding,
    is_q_expanding,
    verify_walk_map,
)
from .thin import (
    DecomposeStrategy,
    PathPowerLayout,
    ThinDecomposition,
    is_thin,
    layout_thin,
    thin_decompose,
    validate_decomposition,
)
from .gamma import (
    DeskConfig,
    GammaParams,
    GammaVertex,
    Profile,
    adjacency_from_labels,
    decode_label,
    encode_label,
    gamma_adjacent,
    gamma_vertex_count,
    make_gamma_params,
)
from .embedder import (
    EmbeddingResult,
    RetryPolicy,
    assemble_gamma,
    build_f1,
    build_fi,
    build_ri,
    compute_bad_sets,
    compute_sigma_i,
    embed,
    verify_induced,
)
from .harness import (
    FamilySpec,
    enumerate_family,
    property_fuzz,
    size_report,
    universality_sweep,
)

__version__ = "0.1.0"
