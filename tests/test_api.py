import ast
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import flowpoly
from flowpoly import (
    DirectedMultigraph,
    InputError,
    antichain,
    asm_dilation_count,
    chain,
    clique_to_flow,
    complete_graph,
    dkk_maximal_cliques,
    dkk_triangulation,
    flow_ehrhart_polynomial,
    flow_ehrhart_value,
    flow_polytope_volume,
    flow_to_clique,
    framing_change_bijection,
    graph_from_json,
    id_order_framing,
    kostant_value,
    noncrossing_trees,
    order_polynomial,
    p_lambda_vertices,
    parallel_edges,
    path_graph,
    proctor_ehrhart,
    ps_triangulation,
    skew_star,
    staircase_syt_count,
    zigzag,
)
from flowpoly.asm import enumerate_asm, zero_pattern
from flowpoly.geometry import hermite_row_basis
from flowpoly.graphs import route_vertices
from flowpoly.kostant import enumerate_integer_flows
from flowpoly.posets import all_staircase_partitions

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


K4, K5 = complete_graph(4), complete_graph(5)
ENDPOINTS = "vertex count and edge endpoints must be integers"
SIZES = "matrix size and dilation factor must be integers"
NETFLOW = "netflow entries must be integers"
SIDES = "noncrossing tree sides must be integers"

# each entry point with x in one of its integer arguments, where x = 2 is valid
INTEGER_ARGUMENTS = {
    "graph-n": (lambda x: DirectedMultigraph(x, ((1, 2),)), ENDPOINTS),
    "graph-endpoint": (lambda x: DirectedMultigraph(3, ((1, x), (x, 3))), ENDPOINTS),
    "json-edge-id": (
        lambda x: graph_from_json(
            {"n": 3, "edges": [[1, 3], [1, 2], [2, 3]], "framing": {"2": {"in": [1], "out": [x]}}}
        ),
        "framing edge ids must be integers",
    ),
    "netflow": (lambda x: kostant_value(K4, (x, 0, 0, -2)), NETFLOW),
    "flow-ehrhart": (lambda x: flow_ehrhart_value(K4, x), NETFLOW),
    "order-polynomial": (
        lambda x: order_polynomial(chain(3)[0], x),
        "order polynomial argument must be an integer",
    ),
    "partition": (lambda x: skew_star(4, (x,)), "partition parts must be integers"),
    "asm-n": (lambda x: asm_dilation_count(x, (), 1), SIZES),
    "asm-t": (lambda x: asm_dilation_count(3, (), x), SIZES),
    "proctor-n": (lambda x: proctor_ehrhart(x, 1), SIZES),
    "proctor-t": (lambda x: proctor_ehrhart(3, x), SIZES),
    "flow-to-clique": (
        lambda x: flow_to_clique(K5, id_order_framing(K5), (0,) * 8 + (1, x)),
        "flow must be a nonnegative integer vector over the edges",
    ),
    "hermite": (
        lambda x: hermite_row_basis([[x, 0]]),
        "lattice points must have integer coordinates",
    ),
    "complete-graph": (complete_graph, ENDPOINTS),
    "chain": (chain, "poset size must be an integer"),
    "skew-star-n": (skew_star, "staircase order must be an integer"),
    "enumerate-asm": (enumerate_asm, "matrix size must be an integer"),
    "p-lambda-vertices": (p_lambda_vertices, "matrix size must be an integer"),
    "zero-pattern": (zero_pattern, "matrix size must be an integer"),
    "antichain": (antichain, "poset size must be an integer"),
    "zigzag": (zigzag, "poset size must be an integer"),
    "staircase-syt-count": (staircase_syt_count, "staircase order must be an integer"),
    "all-staircase-partitions": (all_staircase_partitions, "staircase order must be an integer"),
    "path-graph": (path_graph, ENDPOINTS),
    "parallel-edges": (parallel_edges, "edge count must be an integer"),
    "noncrossing-left": (lambda x: noncrossing_trees(x, 1), SIDES),
    "noncrossing-right": (lambda x: noncrossing_trees(2, x), SIDES),
    "route-id": (lambda x: route_vertices(K4, (x,)), "route edge ids must be integers"),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_follow_one_rule(name):
    call, message = INTEGER_ARGUMENTS[name]
    for x in (float("nan"), float("inf"), "1", 2.5):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call(x)
    assert call(2.0) == call(Fraction(4, 2)) == call(2)


# each entry point that takes a graph, with x in its place
GRAPH_ARGUMENTS = {
    "kostant-value": lambda x: kostant_value(x, [0, 0]),
    "enumerate-integer-flows": lambda x: enumerate_integer_flows(x, [0, 0]),
    "flow-polytope-volume": flow_polytope_volume,
    "flow-ehrhart-value": lambda x: flow_ehrhart_value(x, 1),
    "flow-ehrhart-polynomial": flow_ehrhart_polynomial,
    "dkk-maximal-cliques": lambda x: dkk_maximal_cliques(x, id_order_framing(K5)),
    "dkk-triangulation": lambda x: dkk_triangulation(x, id_order_framing(K5)),
    "ps-triangulation": lambda x: ps_triangulation(x, id_order_framing(K5)),
    "flow-to-clique": lambda x: flow_to_clique(x, id_order_framing(K5), (0,) * 10),
    "clique-to-flow": lambda x: clique_to_flow(x, id_order_framing(K5), []),
    "framing-change": lambda x: framing_change_bijection(x, id_order_framing(K5), id_order_framing(K5)),
}


@pytest.mark.parametrize("name", GRAPH_ARGUMENTS)
@pytest.mark.parametrize("x", [None, "k4", 5, K5.edges], ids=["None", "str", "int", "tuple"])
def test_a_graph_argument_must_be_a_graph(name, x):
    message = f"graph must be a DirectedMultigraph, not {type(x).__name__}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        GRAPH_ARGUMENTS[name](x)


def _unused_imports(source):
    """Names a module imports and never reads; from __future__ imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys as s\nfrom .a import b, c\nc(os)\n"
    assert _unused_imports(source) == [(2, "s"), (3, "b")]


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports its public names to export them
    modules = sorted(Path(flowpoly.__file__).parent.glob("*.py"))
    unused = {
        path.name: found
        for path in modules
        if path.name != "__init__.py" and (found := _unused_imports(path.read_text()))
    }
    assert len(modules) > 10
    assert unused == {}


def _module_level_names(tree):
    """The names a module's top level defines: functions, classes and
    assignment targets."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _unread_private_names(sources):
    """Module-level private names, dunders aside, that no module of sources
    (file name -> source text) reads, as (file name, name) pairs."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (name, x) for x in _module_level_names(tree) if x.startswith("_") and not x.startswith("__")
        ]
        read |= {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
    return sorted((module, x) for module, x in defined if x not in read)


def test_unread_private_names_are_found():
    sources = {
        "a.py": "__all__ = []\n_A, _B = 1, 2\nC: int = 3\ndef _f():\n    _g = _A\nclass _K: pass\n",
        "b.py": "from .a import _f\n_D: int = _f()\n",
    }
    assert _unread_private_names(sources) == [("a.py", "_B"), ("a.py", "_K"), ("b.py", "_D")]


def test_no_module_defines_a_private_name_no_module_reads():
    modules = sorted(Path(flowpoly.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    assert _unread_private_names({path.name: path.read_text() for path in modules}) == []


# the test oracles: public, unexported and read by no module of the package
ORACLES = {
    "catalan",
    "coherent",
    "determinant",
    "dyck_path_count",
    "euler_zigzag",
    "is_asm",
    "order_polynomial_bruteforce",
    "transported_canonical_triangulation",
}


def test_the_unexported_public_names_no_module_reads_are_the_oracles():
    # a module reads a name as a bare name or as module.name; the CLI's
    # commands are registered by decorator, so cli.py's own names are left out
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(flowpoly.__file__).parent.glob("*.py")}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in trees:
                read.add(node.attr)
    unread = {
        x
        for module, tree in trees.items()
        if module not in ("__init__", "cli")
        for x in _module_level_names(tree)
        if not x.startswith("_") and x not in read
    }
    assert len(trees) > 10
    assert unread - PUBLIC_NAMES == ORACLES
