import json
import sys
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings, strategies as st

from flowpoly import asm, checks, cli, triangulations
from flowpoly.cli import main
from flowpoly.fixtures import planar_fixtures, wedge_framing, wedge_graph
from flowpoly.geometry import triangulation_checks
from flowpoly.graphs import (
    complete_graph,
    enumerate_routes,
    graph_from_json,
    graph_to_json,
    path_graph,
    random_framing,
    route_flow_vector,
)
from flowpoly.kostant import flow_polytope_volume
from flowpoly.posets import (
    count_linear_extensions,
    order_polytope_vertices,
    poset_from_json,
    poset_to_json,
    skew_star,
    zigzag,
)
from flowpoly.triangulations import canonical_triangulation, dkk_triangulation, ps_triangulation
from test_triangulations import PLANAR_FIXTURES


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def k5_path(tmp_path):
    g = complete_graph(5)
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(graph_to_json(g, random_framing(g, 3))))
    return str(path)


@pytest.fixture
def poset_path(tmp_path):
    path = tmp_path / "skew4.json"
    path.write_text(json.dumps(poset_to_json(*skew_star(4))))
    return str(path)


def test_graph_volume_all_methods_agree(runner, k5_path):
    result = runner.invoke(main, ["graph", "volume", k5_path, "--all"])
    assert result.exit_code == 0
    assert json.loads(result.output)["volume"] == {"kostant": 2, "ps": 2, "dkk": 2}


def test_graph_ehrhart(runner, k5_path):
    result = runner.invoke(main, ["graph", "ehrhart", k5_path, "--t-max", "2"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["values"][0] == 1 and data["values"][1] == 8


def test_graph_routes(runner, k5_path):
    result = runner.invoke(main, ["graph", "routes", k5_path])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["count"] == 8
    assert all(r["vertices"][0] == 1 and r["vertices"][-1] == 5 for r in data["routes"])


def test_poset_stats_and_ehrhart(runner, poset_path):
    result = runner.invoke(main, ["poset", "stats", poset_path])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data == {"elements": 6, "linear_extensions": 16, "ideals": 14}
    result = runner.invoke(main, ["poset", "ehrhart", poset_path, "--m-max", "3"])
    assert json.loads(result.output)["values"] == [0, 1, 14, 84]


def test_triangulate_dkk_with_checks(runner, k5_path):
    result = runner.invoke(main, ["triangulate", k5_path, "--method", "dkk"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["simplices"]) == 2
    assert data["checks"]["volume_total"] == 2
    assert data["checks"]["failures"] == []


def test_triangulate_ps_reports_flows(runner, k5_path):
    result = runner.invoke(
        main, ["triangulate", k5_path, "--method", "ps", "--framing", "id-order"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["flows"]) == len(data["simplices"]) == 2


def test_triangulate_canonical(runner, poset_path):
    result = runner.invoke(main, ["triangulate", poset_path, "--method", "canonical"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert len(data["simplices"]) == 16
    assert data["framing"] is None


def test_asm_report(runner):
    result = runner.invoke(main, ["asm", "report", "--n", "4", "--lambda", "2,1"])
    assert result.exit_code == 0
    data = json.loads(result.output.strip().splitlines()[-1])
    assert data["all_consistent"] and data["lambda"] == [2, 1]


def test_asm_report_bad_partition(runner):
    result = runner.invoke(main, ["asm", "report", "--n", "3", "--lambda", "x"])
    assert result.exit_code == 2
    # a zero part before a positive one is refused, not dropped
    result = runner.invoke(main, ["asm", "report", "--n", "4", "--lambda", "0,2"])
    assert result.exit_code == 2
    assert result.stderr == "input error: partition parts must be weakly decreasing\n"


def test_verify_property(runner):
    result = runner.invoke(main, ["verify", "thm2"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("fixtures passed")


def test_counts_and_dkk_eq_ps_decode_no_route_tuple(runner, tmp_path, monkeypatch):
    # counting and comparing run on route masks: with every mask decoder
    # refusing, the outputs are what they are with the decoders in place
    g = complete_graph(6)
    path = tmp_path / "k6.json"
    path.write_text(json.dumps(graph_to_json(g, random_framing(g, 3))))
    commands = (["verify", "dkk-eq-ps"], ["graph", "volume", str(path), "--all"])
    expected = [runner.invoke(main, command) for command in commands]
    report = asm.family_report(4, (1,))

    def refuse(*args):
        raise AssertionError("a route mask was decoded")

    for module in (triangulations, checks, cli, asm):
        for name in ("_decode", "_items"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for command, before in zip(commands, expected):
        assert before.exit_code == 0
        result = runner.invoke(main, command)
        assert (result.exit_code, result.output) == (0, before.output)
    assert json.loads(expected[1].output) == {"volume": {"kostant": 10, "ps": 10, "dkk": 10}}
    assert asm.family_report(4, (1,)) == report


def nested_triangulation_json(data, method, check):
    """The stdout of `triangulate` as the CLI built it before it wrote from
    masks: the whole output as nested lists, then one json.dumps."""
    flows = None
    if method == "canonical":
        p, _ = poset_from_json(data)
        framing, simplices = None, [s.vertices for s in canonical_triangulation(p)]
        vertices, volume = order_polytope_vertices(p), count_linear_extensions(p)
    else:
        g, fr = graph_from_json(data)
        framing = graph_to_json(g, fr)["framing"]
        if method == "dkk":
            simplices = dkk_triangulation(g, fr)
        else:
            leaves = ps_triangulation(g, fr)
            simplices = [[route_flow_vector(g, r) for r in leaf.routes] for leaf in leaves]
            flows = [leaf.flow for leaf in leaves]
        vertices = [route_flow_vector(g, r) for r in enumerate_routes(g)]
        volume = flow_polytope_volume(g)
    out = {
        "method": method,
        "framing": framing,
        "simplices": [[list(v) for v in sorted(s)] for s in simplices],
    }
    if flows is not None:
        out["flows"] = flows
    if check:
        out["checks"] = triangulation_checks(vertices, simplices, volume).to_json()
    return json.dumps(out) + "\n"


TRIANGULATE_CASES = [
    (f"K{n}-{method}-{saved}", method, graph_to_json(g, fr))
    for n in (5, 6)
    for g in [complete_graph(n)]
    for saved, fr in (("file", None), ("random", random_framing(g, 3)))
    for method in ("dkk", "ps")
] + [("skew4-canonical", "canonical", poset_to_json(*skew_star(4)))]


@pytest.mark.parametrize(
    "method, data", [case[1:] for case in TRIANGULATE_CASES], ids=[c[0] for c in TRIANGULATE_CASES]
)
def test_triangulate_output_is_byte_identical_to_the_nested_builder(runner, tmp_path, method, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    for check in (True, False):
        flag = "--check" if check else "--no-check"
        result = runner.invoke(main, ["triangulate", str(path), "--method", method, flag])
        assert (result.exit_code, result.stderr) == (0, "")
        assert result.stdout == nested_triangulation_json(data, method, check)


def test_failed_checks_still_write_the_whole_output(runner, k5_path, monkeypatch):
    expected = json.loads(runner.invoke(main, ["triangulate", k5_path]).stdout)
    monkeypatch.setattr(cli, "flow_polytope_volume", lambda g: 3)
    result = runner.invoke(main, ["triangulate", k5_path])
    assert (result.exit_code, result.stderr) == (1, "triangulation checks failed\n")
    failures = ["volume total 2 != expected 3"]  # and no sample drawn
    expected["checks"].update(expected_volume=3, sample_count=0, passed=False, failures=failures)
    assert json.loads(result.stdout) == expected


def test_triangulate_decodes_no_mask_list(runner, tmp_path, poset_path, monkeypatch):
    # without the checks, each simplex is decoded from its own mask as it is
    # written: with every module's _decode refusing, the output is the same
    g = complete_graph(6)
    path = tmp_path / "k6.json"
    path.write_text(json.dumps(graph_to_json(g, random_framing(g, 3))))
    commands = [["triangulate", str(path), "--method", method] for method in ("dkk", "ps")]
    commands.append(["triangulate", poset_path, "--method", "canonical"])
    commands = [command + ["--no-check"] for command in commands]
    expected = [runner.invoke(main, command) for command in commands]

    def refuse(*args):
        raise AssertionError("a list of masks was decoded")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "flowpoly" and hasattr(module, "_decode"):
            monkeypatch.setattr(module, "_decode", refuse)
    for command, before in zip(commands, expected):
        assert before.exit_code == 0
        result = runner.invoke(main, command)
        assert (result.exit_code, result.stdout) == (0, before.stdout)


def test_out_of_memory_exits_2(runner, k5_path, monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_clique_masks", exhaust)
    result = runner.invoke(main, ["triangulate", k5_path, "--method", "dkk"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("input error: out of memory")


def test_verify_asm_family_single_n(runner):
    result = runner.invoke(main, ["verify", "asm-family", "--n", "3"])
    assert result.exit_code == 0


@pytest.mark.parametrize("prop", ["bij-linext", "thm2"])
def test_verify_n_outside_asm_family_exits_2(runner, prop):
    result = runner.invoke(main, ["verify", prop, "--n", "3"])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"input error: --n applies to asm-family only, not to {prop}\n"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_verify_asm_family_nonpositive_n_exits_2(runner, n):
    result = runner.invoke(main, ["verify", "asm-family", "--n", n])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Traceback" not in result.output


def test_verify_vertex_bijections(runner):
    result = runner.invoke(main, ["verify", "vertex-bij"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    n = len(planar_fixtures())
    assert len(lines) == n + 1
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"{n}/{n} fixtures passed"


def test_malformed_graph_file_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["graph", "volume", str(bad)])
    assert result.exit_code == 2
    for data in (
        {"edges": [[1, 2]]},
        {"n": float("-inf"), "edges": []},
        {"n": 3, "edges": [[1, 2], [2, float("inf")]]},
        # non-integral numbers are refused, not truncated
        {"n": 3.7, "edges": [[1, 3], [1, 2], [2, 3]]},
        {"n": 3, "edges": [[1.5, 3], [1, 2], [2, 3]]},
    ):
        bad.write_text(json.dumps(data))
        result = runner.invoke(main, ["graph", "volume", str(bad)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback


@pytest.mark.parametrize("n", [1e300, 1000000], ids=["1e300", "1000000"])
def test_vertex_count_alone_cannot_stall_loading(runner, tmp_path, n):
    # vertex 2 has no edges, which is found before a framing over every
    # inner vertex would be built
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": n, "edges": []}))
    start = time.perf_counter()
    result = runner.invoke(main, ["graph", "routes", str(path)])
    assert time.perf_counter() - start < 1
    assert result.exit_code == 2
    assert result.stderr == "input error: graph is not pruned: vertex 2 lacks in- or out-edges\n"


@pytest.mark.parametrize(
    "command,shape",
    [
        (["graph", "routes"], "path"),
        (["graph", "volume", "--method", "ps"], "path"),
        (["graph", "volume", "--method", "dkk"], "path"),
        (["triangulate", "--method", "canonical", "--no-check"], "chain"),
    ],
    ids=["routes", "ps", "dkk", "canonical"],
)
def test_input_deeper_than_the_recursion_limit_exits_2(runner, tmp_path, command, shape):
    # the walks recurse once per vertex or poset element
    n = sys.getrecursionlimit() + 10
    data = {
        "path": {"n": n, "edges": [[i, i + 1] for i in range(1, n)]},
        "chain": {"elements": list(range(n)), "covers": [[i, i + 1] for i in range(n - 1)]},
    }[shape]
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("input error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize(
    "flags,volume",
    [(["--all"], {"kostant": 1, "ps": 1, "dkk": 1}), (["--method", "dkk"], {"dkk": 1})],
    ids=["all", "dkk"],
)
def test_more_parallel_edges_than_the_recursion_limit(runner, tmp_path, flags, volume):
    # one clique of every edge: the clique walk does not recurse per member
    n = sys.getrecursionlimit() + 10
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2]] * n}))
    result = runner.invoke(main, ["graph", "volume", *flags, str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"volume": volume}


def test_a_vertex_wider_than_the_recursion_limit(runner, tmp_path):
    # vertex 2 deals its one arriving route out to every out-edge
    n = sys.getrecursionlimit() + 10
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2]] + [[2, 3]] * n}))
    result = runner.invoke(main, ["graph", "volume", "--all", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"volume": {"kostant": 1, "ps": 1, "dkk": 1}}


def test_degenerate_graph_exits_2(runner, tmp_path):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"n": 3, "edges": [[1, 2], [1, 3]]}))
    result = runner.invoke(main, ["graph", "volume", str(path)])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "command",
    [
        ["graph", "volume", "--method", "kostant"],
        ["graph", "volume", "--method", "ps"],
        ["graph", "volume", "--method", "dkk"],
        ["graph", "volume", "--all"],
        ["triangulate"],
        ["triangulate", "--method", "ps"],
        ["graph", "ehrhart"],
        ["graph", "routes"],
    ],
    ids=["kostant", "ps", "dkk", "all", "triangulate", "triangulate-ps", "ehrhart", "routes"],
)
def test_one_vertex_graph_exits_2(runner, tmp_path, command):
    # and two vertices without an edge: no route, so an empty flow polytope
    for graph in ({"n": 1, "edges": []}, {"n": 2, "edges": []}):
        path = tmp_path / "point.json"
        path.write_text(json.dumps(graph))
        result = runner.invoke(main, command + [str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr.startswith("input error: ")


# id-order framing of K4: edges 0..5 are 12, 13, 14, 23, 24, 34
K4_FRAMING = {"2": {"in": [0], "out": [3, 4]}, "3": {"in": [1, 3], "out": [5]}}


@pytest.mark.parametrize(
    "framing",
    [
        {**K4_FRAMING, "2": {"out": [3, 4]}},
        {**K4_FRAMING, "x": K4_FRAMING["2"]},
        {**K4_FRAMING, "9": {"in": [], "out": []}},
        {**K4_FRAMING, "3": {"in": [1, "3"], "out": [5]}},
        {**K4_FRAMING, "2 ": K4_FRAMING["2"]},
        {**K4_FRAMING, "02": K4_FRAMING["2"]},
    ],
    ids=[
        "no-in-order",
        "vertex-not-a-number",
        "not-an-inner-vertex",
        "mixed-edge-ids",
        "vertex-named-twice",
        "vertex-zero-padded",
    ],
)
def test_malformed_framing_exits_2(runner, tmp_path, framing):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps({**graph_to_json(complete_graph(4)), "framing": framing}))
    result = runner.invoke(main, ["graph", "volume", str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("input error: ")


K3_FLAGS = [["--framing", "planar"], ["--method", "ps"]]


def k3_file(tmp_path, in_ids, out_ids):
    """K3 (edges 0, 1, 2 are 12, 23, 13) with the framing at vertex 2 as given."""
    path = tmp_path / "k3.json"
    framing = {"2": {"in": in_ids, "out": out_ids}}
    data = {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "framing": framing}
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("ids", [([0.0], [1]), ([0], [True])], ids=["float", "bool"])
@pytest.mark.parametrize("flags", K3_FLAGS, ids=["planar", "ps"])
def test_integral_edge_ids_read_as_ints(runner, tmp_path, ids, flags):
    results = [
        runner.invoke(main, ["triangulate", k3_file(tmp_path, *spec)] + flags)
        for spec in (([0], [1]), ids)
    ]
    assert [r.exit_code for r in results] == [0, 0]
    assert results[1].stdout == results[0].stdout


@pytest.mark.parametrize("in_ids", [[0.5], ["0"]], ids=["half", "string"])
@pytest.mark.parametrize("flags", K3_FLAGS, ids=["planar", "ps"])
def test_non_integral_edge_ids_exit_2(runner, tmp_path, in_ids, flags):
    result = runner.invoke(main, ["triangulate", k3_file(tmp_path, in_ids, [1])] + flags)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == "input error: framing edge ids must be integers\n"


SKEW3 = poset_to_json(*skew_star(3))


@pytest.mark.parametrize(
    "data",
    [
        {**SKEW3, "embedding": [1, 2]},
        {**SKEW3, "embedding": {**SKEW3["embedding"], "zz": {"up": [1]}}},
        {**SKEW3, "embedding": {**SKEW3["embedding"], SKEW3["elements"][0]: [1, 2]}},
    ],
    ids=["list-embedding", "unknown-element-key", "spec-not-an-object"],
)
@pytest.mark.parametrize(
    "command", [["poset", "stats"], ["triangulate", "--method", "canonical"]], ids=["stats", "canonical"]
)
def test_malformed_embedding_exits_2(runner, tmp_path, data, command):
    path = tmp_path / "skew3.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("input error: ")


@pytest.mark.parametrize(
    "data",
    [
        {**SKEW3, "covers": [["1,2", "1,3", "2,3"]]},
        {**SKEW3, "covers": [["1,2"]]},
        {**SKEW3, "covers": "ab"},
        {"elements": "ab", "covers": []},
    ],
    ids=["three-element-cover", "one-element-cover", "covers-a-string", "elements-a-string"],
)
@pytest.mark.parametrize(
    "command", [["poset", "stats"], ["triangulate", "--method", "canonical"]], ids=["stats", "canonical"]
)
def test_malformed_covers_or_elements_exit_2(runner, tmp_path, data, command):
    path = tmp_path / "bad-poset.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr.startswith("input error: malformed poset JSON")


@pytest.mark.parametrize(
    "command, data",
    [
        (["poset", "ehrhart", "--m-max"], SKEW3),
        (["graph", "ehrhart", "--t-max"], graph_to_json(complete_graph(4))),
    ],
    ids=["m-max", "t-max"],
)
def test_negative_dilation_bound_exits_2(runner, tmp_path, command, data):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    result = runner.invoke(main, command + ["-2", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_triangulate_single_point_polytope(runner, tmp_path):
    # path_graph(4) has one route, so its flow polytope is a point
    path = tmp_path / "path4.json"
    path.write_text(json.dumps(graph_to_json(path_graph(4))))
    result = runner.invoke(main, ["triangulate", str(path), "--method", "dkk"])
    assert result.exit_code == 0
    checks = json.loads(result.stdout)["checks"]
    assert checks["passed"] and checks["dimension"] == 0
    assert checks["volume_total"] == 1 and checks["sample_count"] == 200


def test_nonplanar_framing_request_exits(runner, tmp_path):
    # K_4 admits no crossing-free arc diagram, so --framing planar must fail
    g = complete_graph(4)
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(graph_to_json(g, None)))
    result = runner.invoke(
        main, ["triangulate", str(path), "--method", "dkk", "--framing", "planar"]
    )
    assert result.exit_code == 2


def test_planar_framing_of_a_graph_saved_without_one(runner, tmp_path):
    # the wedge's default id-order framing is not the arc order of its drawing;
    # --framing planar draws it on one page and reports the wedge framing
    g = wedge_graph()
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(graph_to_json(g)))
    result = runner.invoke(main, ["triangulate", str(path), "--framing", "planar"])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["framing"] == graph_to_json(g, wedge_framing())["framing"]


# G_P fixtures with two interleaving arcs in vertex order: no one-page drawing
NO_ONE_PAGE_DRAWING = ("gp-zigzag4", "gp-skew4-1", "gp-skew4-0")


@pytest.mark.parametrize("name", [n for n in PLANAR_FIXTURES if n not in NO_ONE_PAGE_DRAWING])
def test_planar_framing_of_a_drawable_fixture_is_its_own(runner, tmp_path, name):
    pg = PLANAR_FIXTURES[name]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(pg.graph, pg.framing)))
    results = [
        runner.invoke(main, ["triangulate", str(path), "--framing", spec, "--no-check"])
        for spec in ("planar", "file")
    ]
    assert [r.exit_code for r in results] == [0, 0]
    assert results[0].stdout == results[1].stdout


@pytest.mark.parametrize("method", ["canonical", "dkk", "ps"])
def test_unknown_framing_exits_2(runner, k5_path, method):
    command = ["triangulate", k5_path, "--method", method, "--framing", "bogus"]
    result = runner.invoke(main, command)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "'bogus' is not one of" in result.stderr


def test_zigzag_poset_roundtrips_through_cli(runner, tmp_path):
    path = tmp_path / "zz5.json"
    path.write_text(json.dumps(poset_to_json(*zigzag(5))))
    result = runner.invoke(main, ["poset", "stats", str(path)])
    assert json.loads(result.output)["linear_extensions"] == 16


JSON_KEYS = st.sampled_from(
    ("n", "edges", "framing", "in", "out", "2")
    + ("elements", "covers", "embedding", "up", "down", "__bottom__", "__top__")
) | st.text(max_size=2)
JSON_VALUES = st.recursive(
    # json.load also reads NaN and Infinity, so floats() may draw them
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=12,
)


@seed(0x150)
@settings(max_examples=60, deadline=2000)
@given(JSON_VALUES)
def test_loaders_exit_0_or_2_on_any_json(data):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("in.json", "w") as fh:
            json.dump(data, fh)
        for command in (["graph", "routes"], ["poset", "stats"]):
            result = runner.invoke(main, command + ["in.json"])
            assert result.exit_code in (0, 2), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)


UNDECODABLE = {
    "not-utf8": b'\xff\xfe\x00{"n":',
    "long-n": b'{"n": ' + b"9" * 5000 + b', "edges": [[1, 2]]}',
    "long-element": b'{"elements": [1, ' + b"9" * 5000 + b'], "covers": []}',
    "nested": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("content", UNDECODABLE.values(), ids=UNDECODABLE.keys())
@pytest.mark.parametrize(
    "command",
    [["graph", "routes"], ["poset", "stats"], ["triangulate"]],
    ids=["routes", "stats", "triangulate"],
)
def test_undecodable_file_exits_2(runner, tmp_path, command, content):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    result = runner.invoke(main, command + [str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith(f"input error: cannot read {path}: ")
    assert "Traceback" not in result.output


@seed(0x151)
@settings(max_examples=60, deadline=2000)
@given(st.binary())
def test_loaders_exit_0_or_2_on_any_bytes(content):
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("in.json", "wb") as fh:
            fh.write(content)
        for command in (["graph", "routes"], ["poset", "stats"], ["triangulate"]):
            result = runner.invoke(main, command + ["in.json"])
            assert result.exit_code in (0, 2), result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
