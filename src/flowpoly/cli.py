"""Command-line interface.

Exit codes: 0 success / property verified, 1 property violated or internal
check failed, 2 malformed input (an unreadable or undecodable file too).
One guard, `_exit_codes`, owns this contract for every command.
"""

from __future__ import annotations

import functools
import json
import sys

import click

from . import checks
from .asm import family_report
from .errors import FlowpolyError, InputError
from .geometry import triangulation_checks
from .graphs import (
    Framing,
    _framing_to_json,
    enumerate_routes,
    graph_from_json,
    id_order_framing,
    route_flow_vector,
    route_vertices,
)
from .kostant import flow_ehrhart_value, flow_polytope_volume
from .planar import arc_diagram
from .posets import (
    _chain_sums,
    _ideal_vertices,
    count_linear_extensions,
    order_ideals,
    order_polynomial,
    poset_from_json,
)
from .triangulations import _clique_masks, _decode, _items, _ps_masks


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    # ValueError: bad JSON, bad UTF-8, over-long ints; RecursionError: deep nesting
    except (OSError, RecursionError, ValueError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _exit_codes(command):
    """Exit 2 on bad input, 1 on any other flowpoly error, else with the command's return value."""

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            code = command(*args, **kwargs)
        except InputError as exc:
            click.echo(f"input error: {exc}", err=True)
            code = 2
        except FlowpolyError as exc:
            click.echo(f"check failed: {exc}", err=True)
            code = 1
        except RecursionError:  # the walks recurse once per vertex or poset element
            message = f"input nests deeper than the recursion limit ({sys.getrecursionlimit()})"
            click.echo(f"input error: {message}", err=True)
            code = 2
        except MemoryError:
            click.echo("input error: out of memory", err=True)
            code = 2
        if code:
            sys.exit(code)

    return guarded


@click.group()
def main():
    """Exact computations on flow polytopes, order polytopes and their kin."""


# ---------------------------------------------------------------------------
# graph commands


@main.group()
def graph():
    """Flow-polytope computations on a graph JSON file."""


def _resolve_framing(g, framing, spec):
    if spec == "id-order":
        return id_order_framing(g)
    if spec == "planar":
        # one page in vertex order: in-arcs from the farthest tail and out-arcs
        # to the farthest head on top; the file's order survives among parallel arcs
        tail, far_head = (lambda e: g.edges[e][0]), (lambda e: -g.edges[e][1])
        drawing = Framing(
            {v: tuple(sorted(order, key=tail)) for v, order in framing.in_orders.items()},
            {v: tuple(sorted(order, key=far_head)) for v, order in framing.out_orders.items()},
        )
        return arc_diagram(g, drawing).framing
    return framing


@graph.command("volume")
@click.argument("path", type=click.Path(exists=True))
@click.option("--method", type=click.Choice(["kostant", "ps", "dkk"]), default="kostant")
@click.option("--all", "all_methods", is_flag=True, help="compute all three and compare")
@_exit_codes
def graph_volume(path, method, all_methods):
    g, framing = graph_from_json(_load_json(path))
    values = {}
    methods = ("kostant", "ps", "dkk") if all_methods else (method,)
    if "kostant" in methods:
        values["kostant"] = flow_polytope_volume(g)
    if "ps" in methods:
        values["ps"] = len(_ps_masks(g, framing)[1])
    if "dkk" in methods:
        values["dkk"] = len(_clique_masks(g, framing)[2])
    click.echo(json.dumps({"volume": values}))
    if all_methods and len(set(values.values())) != 1:
        click.echo("volume methods disagree", err=True)
        return 1


@graph.command("ehrhart")
@click.argument("path", type=click.Path(exists=True))
@click.option("--t-max", default=4, show_default=True, type=click.IntRange(min=0))
@_exit_codes
def graph_ehrhart(path, t_max):
    g, _ = graph_from_json(_load_json(path))
    values = [flow_ehrhart_value(g, t) for t in range(t_max + 1)]
    click.echo(json.dumps({"t": list(range(t_max + 1)), "values": values}))


@graph.command("routes")
@click.argument("path", type=click.Path(exists=True))
@_exit_codes
def graph_routes(path):
    g, _ = graph_from_json(_load_json(path))
    routes = enumerate_routes(g)
    click.echo(
        json.dumps(
            {
                "count": len(routes),
                "routes": [
                    {"edges": list(r), "vertices": list(route_vertices(g, r))}
                    for r in routes
                ],
            }
        )
    )


# ---------------------------------------------------------------------------
# poset commands


@main.group()
def poset():
    """Order-polytope computations on a poset JSON file."""


@poset.command("stats")
@click.argument("path", type=click.Path(exists=True))
@_exit_codes
def poset_stats(path):
    p, _ = poset_from_json(_load_json(path))
    click.echo(
        json.dumps(
            {
                "elements": len(p.elements),
                "linear_extensions": count_linear_extensions(p),
                "ideals": len(order_ideals(p)),
            }
        )
    )


@poset.command("ehrhart")
@click.argument("path", type=click.Path(exists=True))
@click.option("--m-max", default=5, show_default=True, type=click.IntRange(min=0))
@_exit_codes
def poset_ehrhart(path, m_max):
    p, _ = poset_from_json(_load_json(path))
    values = [order_polynomial(p, m) for m in range(m_max + 1)]
    click.echo(json.dumps({"m": list(range(m_max + 1)), "values": values}))


# ---------------------------------------------------------------------------
# triangulate


@main.command("triangulate")
@click.argument("path", type=click.Path(exists=True))
@click.option(
    "--method",
    type=click.Choice(["canonical", "dkk", "ps"]),
    default="dkk",
    show_default=True,
)
@click.option(
    "--framing",
    "framing_spec",
    type=click.Choice(["file", "id-order", "planar"]),
    default="file",
    show_default=True,
    help="planar draws the graph on one page, vertices in order, and uses its arc orders",
)
@click.option("--check/--no-check", default=True, help="run the geometry checks")
@_exit_codes
def triangulate(path, method, framing_spec, check):
    """Emit a triangulation as JSON; exit 1 if its geometry checks fail."""
    data = _load_json(path)
    framing = flows = None
    if method == "canonical":
        p, _ = poset_from_json(data)
        vertex = _ideal_vertices(p)
        vertices = sorted(vertex.values())
        bit = {v: 1 << len(vertices) - 1 - i for i, v in enumerate(vertices)}
        masks = _chain_sums(p, bit[vertex[0]], lambda i, up: bit[vertex[up]])
        volume = count_linear_extensions(p)
    else:
        g, framing = graph_from_json(data)
        framing = _resolve_framing(g, framing, framing_spec)
        if method == "dkk":
            routes, _, masks = _clique_masks(g, framing)
        else:
            routes, masks, flows = _ps_masks(g, framing)
        vertices = [route_flow_vector(g, r) for r in routes]
        volume = flow_polytope_volume(g)
        framing = _framing_to_json(g, framing)
    report = triangulation_checks(vertices, _decode(masks, vertices), volume) if check else None
    # json.dumps of the output, written one simplex and one flow at a time: each
    # simplex decoded from its own mask, its vertices sorted, each vertex's text made once
    rank = {v: r for r, v in enumerate(sorted(vertices))}
    items = [(rank[v], json.dumps(v)) for v in vertices]
    lists = {"simplices": (
        "[" + ", ".join([text for _, text in sorted(_items(mask, items))]) + "]" for mask in masks
    )}
    if flows is not None:
        lists["flows"] = map(json.dumps, flows)
    write = sys.stdout.write
    write(json.dumps({"method": method, "framing": framing})[:-1])
    for key, texts in lists.items():
        write(f', "{key}": [')
        for k, text in enumerate(texts):
            write(f", {text}" if k else text)
        write("]")
    if check:
        write(', "checks": ' + json.dumps(report.to_json()))
    write("}\n")
    sys.stdout.flush()
    if check and not report.passed:
        click.echo("triangulation checks failed", err=True)
        return 1


# ---------------------------------------------------------------------------
# asm


@main.group()
def asm():
    """Alternating-sign-matrix family computations."""


def _parse_lambda(text):
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}") from exc


@asm.command("report")
@click.option("--n", "n", type=int, required=True)
@click.option("--lambda", "lam", default="", help="comma-separated partition parts")
@_exit_codes
def asm_report(n, lam):
    report = family_report(n, _parse_lambda(lam))
    for key, value in report.to_json().items():
        click.echo(f"{key:>22}: {value}")
    click.echo(json.dumps(report.to_json()))
    if not report.all_consistent:
        return 1


# ---------------------------------------------------------------------------
# verify


@main.command("verify")
@click.argument("prop", type=click.Choice(sorted(checks.PROPERTIES)))
@click.option(
    "--n", "n", type=click.IntRange(min=1), default=None, help="asm-family: restrict to one n"
)
@_exit_codes
def verify(prop, n):
    """Re-check one of the package's structural properties over the corpus."""
    if n is not None and prop != "asm-family":
        raise InputError(f"--n applies to asm-family only, not to {prop}")
    results = checks.PROPERTIES[prop]() if n is None else checks.verify_asm_family(ns=(n,))
    failed = 0
    for name, ok, detail in results:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += not ok
    click.echo(f"{len(results) - failed}/{len(results)} fixtures passed")
    if failed:
        return 1


if __name__ == "__main__":
    main()
