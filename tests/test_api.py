import types

import flowpoly

PUBLIC_NAMES = {
    "BOTTOM",
    "TOP",
    "ContractError",
    "DirectedMultigraph",
    "FlowpolyError",
    "Framing",
    "InputError",
    "InternalCheckError",
    "NotPlanarError",
    "PlanarGraphData",
    "Poset",
    "affine_dimension",
    "antichain",
    "arc_diagram",
    "asm_dilation_count",
    "canonical_triangulation",
    "chain",
    "clique_to_flow",
    "compare_triangulations",
    "complete_graph",
    "corner_sum_map",
    "count_linear_extensions",
    "dkk_maximal_cliques",
    "dkk_triangulation",
    "dual_poset",
    "enumerate_asm",
    "enumerate_routes",
    "family_report",
    "flow_ehrhart_polynomial",
    "flow_ehrhart_value",
    "flow_polytope_volume",
    "flow_to_clique",
    "flow_to_order_point",
    "framing_change_bijection",
    "graph_from_json",
    "graph_to_json",
    "id_order_framing",
    "kostant_value",
    "lattice_basis",
    "linear_extensions",
    "linext_to_clique",
    "noncrossing_trees",
    "order_ideals",
    "order_polynomial",
    "order_polytope_vertices",
    "order_to_flow_point",
    "p_lambda_vertices",
    "parallel_edges",
    "path_graph",
    "poset_from_json",
    "poset_to_flow_graph",
    "poset_to_json",
    "proctor_ehrhart",
    "prune_inner_vertices",
    "ps_triangulation",
    "random_framing",
    "simplex_normalized_volume",
    "skew_star",
    "staircase_star",
    "staircase_syt_count",
    "triangulation_checks",
    "zigzag",
}


def test_public_names_are_pinned():
    # adding or removing a public name is a deliberate change to this set;
    # submodules are attributes of the package too, but not names it exports
    names = {
        name
        for name, value in vars(flowpoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == PUBLIC_NAMES
