"""Exact computation in Leavitt path algebras of finite graphs.

The package provides the graph machinery (paths, cycles, trees, vertex
classes), hereditary saturated set closures with their derived graph
constructions (quotient, hedgehog, edge-set subalgebra graph), an exact
symbolic algebra with a confluent normal form, the simple-module actions
over infinite paths and infinite emitters, and decision procedures for
finitely presented representation theory and polynomially bounded growth.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraContext,
    AlgebraElement,
    Monomial,
    PrimeField,
    RATIONALS,
    Rationals,
    add,
    degree_components,
    element_from_obj,
    enumerate_basis,
    growth_profile,
    is_normal,
    multiply,
    normalize_monomial,
)
from .closures import (
    HedgehogResult,
    HSSet,
    breaking_vertices,
    enumerate_hs_sets,
    hedgehog,
    hereditary_closure,
    is_hereditary,
    is_saturated,
    quotient,
    saturated_closure,
    subalgebra_graph,
)
from .errors import (
    ContextMismatchError,
    ExpressionError,
    InfinitelyManyCyclesError,
    InputError,
    LeavittError,
    NotSupportedError,
    ResourceCapError,
    SchemaError,
    UnknownEdgeError,
    UnknownVertexError,
)
from .expressions import parse_expression
from .graph import (
    OMEGA,
    Condensation,
    Cycle,
    Edge,
    Graph,
    Path,
    TreeView,
    VertexClass,
    canonical_cycle,
    classify_vertex,
    concat,
    condensation,
    condition_K,
    condition_L,
    cycle_base,
    cycle_has_exit,
    cycle_vertices,
    enumerate_cycles,
    graph_from_json,
    graph_from_obj,
    graph_to_json,
    graph_to_obj,
    line_points,
    make_path,
    path_range,
    path_vertices,
    tree,
    vertices_on_closed_paths,
)
from .modules import (
    ChenBasisElement,
    GeneratedStream,
    KernelData,
    PeriodicPath,
    bifurcation_data,
    chen_act,
    chen_basis_element,
    generated_stream,
    periodic_stream,
    singleton_vector,
    stream_from_obj,
    stream_prefix,
    stream_source,
    stream_to_obj,
    sv_act,
)
from .structure import (
    CornerReport,
    CyclePoset,
    Filtration,
    FpVerdict,
    GkVerdict,
    LaurentMatrixLayer,
    MixedLayer,
    SocleLayer,
    VnrLayer,
    corner_report,
    cycle_poset,
    decide_fp,
    decide_gk,
    disjoint_cycles_criterion,
    fp_filtration,
    gk_filtration,
    laurent_index_cardinality,
)
