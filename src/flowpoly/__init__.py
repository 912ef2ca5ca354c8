"""Exact arithmetic for flow polytopes, order polytopes, and the
alternating-sign-matrix family connecting them."""

from .errors import (
    ContractError,
    FlowpolyError,
    InputError,
    InternalCheckError,
    NotPlanarError,
)
from .graphs import (
    DirectedMultigraph,
    Framing,
    complete_graph,
    enumerate_routes,
    graph_from_json,
    graph_to_json,
    id_order_framing,
    parallel_edges,
    path_graph,
    prune_inner_vertices,
    random_framing,
)
from .kostant import (
    flow_ehrhart_polynomial,
    flow_ehrhart_value,
    flow_polytope_volume,
    kostant_value,
)
from .posets import (
    Poset,
    antichain,
    chain,
    count_linear_extensions,
    linear_extensions,
    order_ideals,
    order_polynomial,
    order_polytope_vertices,
    poset_from_json,
    poset_to_json,
    skew_star,
    staircase_star,
    staircase_syt_count,
    zigzag,
)
from .planar import (
    BOTTOM,
    TOP,
    PlanarGraphData,
    arc_diagram,
    dual_poset,
    flow_to_order_point,
    order_to_flow_point,
    poset_to_flow_graph,
)
from .geometry import (
    affine_dimension,
    lattice_basis,
    simplex_normalized_volume,
    triangulation_checks,
)
from .triangulations import (
    canonical_triangulation,
    clique_to_flow,
    compare_triangulations,
    dkk_maximal_cliques,
    dkk_triangulation,
    flow_to_clique,
    framing_change_bijection,
    linext_to_clique,
    noncrossing_trees,
    ps_triangulation,
)
from .asm import (
    asm_dilation_count,
    corner_sum_map,
    enumerate_asm,
    family_report,
    p_lambda_vertices,
    proctor_ehrhart,
)

__version__ = "0.1.0"
