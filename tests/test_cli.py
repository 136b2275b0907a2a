import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pclyap import feasibility, graphs, jsr, lifts, serialize
from pclyap.cli import build_parser, main
from pclyap import (
    backward_composition_lift,
    common_lyapunov_graph,
    composition_lift,
    de_bruijn,
    max_lift,
    min_lift,
    rho_bound,
    sum_lift,
)

import helpers


@pytest.fixture
def demo_files(tmp_path):
    g5 = tmp_path / "demo_graph.json"
    g5.write_text(serialize.dumps(serialize.graph_to_dict(helpers.demo_graph())))
    mats = tmp_path / "demo_matrices.json"
    mats.write_text(serialize.dumps(serialize.matrix_set_to_dict(helpers.demo_matrices())))
    clf = tmp_path / "clf.json"
    clf.write_text(serialize.dumps(serialize.graph_to_dict(
        helpers.loop_pair_graph())))
    return {"graph": str(g5), "matrices": str(mats), "clf": str(clf)}


def run(capsysbinary, argv):
    code = main(argv)
    out = capsysbinary.readouterr()
    return code, out.out.decode(), out.err.decode()


# ------------------------------------------------------------------- check

def test_check_path_complete(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary, ["check", demo_files["graph"]])
    assert code == 0
    assert "path-complete: true" in out
    assert "complete: false" in out
    assert "co-complete: false" in out


def test_check_decides_path_completeness_once(demo_files, capsysbinary, monkeypatch):
    calls = []
    universal = graphs._universal
    monkeypatch.setattr(graphs, "_universal",
                        lambda masks, n: calls.append(n) or universal(masks, n))
    code, out, _ = run(capsysbinary, ["check", demo_files["graph"]])
    assert code == 0 and "path-complete: true" in out
    assert len(calls) == 9  # the graph, then the graph less each of its 8 edges


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_check_exit_one_when_not_path_complete(tmp_path, capsysbinary):
    from pclyap import NodeId, make_graph
    a = NodeId.atom("a")
    g = make_graph(2, [a], [(a, a, 1)])
    path = tmp_path / "g.json"
    path.write_text(serialize.dumps(serialize.graph_to_dict(g)))
    code, out, _ = run(capsysbinary, ["check", str(path)])
    assert code == 1
    assert "path-complete: false" in out


def test_library_warnings_are_one_stderr_line_each(tmp_path, capsysbinary):
    path = tmp_path / "g.json"
    path.write_text('{"alphabet":2,"nodes":["a"],"edges":[["a","a",1]]}')
    code, out, err = run(capsysbinary, ["check", str(path)])
    assert code == 1 and "edge-minimal: false" in out
    assert err == "warning: graph is not path-complete; edge minimality reported as False\n"
    code, out, err = run(capsysbinary, ["lift", str(path), "--kind", "comp"])
    assert code == 0 and json.loads(out)["alphabet"] == 2
    assert err == ("warning: composition_lift: input is not a strongly connected, "
                   "edge-minimal path-complete graph; proceeding anyway\n")


def test_check_json_format(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary, ["check", demo_files["graph"], "--format", "json"])
    data = json.loads(out)
    assert data["path_complete"] is True
    assert data["strongly_connected"] is True


# -------------------------------------------------------------------- lift

@pytest.mark.parametrize("kind,builder", [
    ("sum:2", lambda g: sum_lift(g, 2)),
    ("max", max_lift),
    ("min", min_lift),
    ("comp", composition_lift),
    ("backcomp", backward_composition_lift),
])
def test_lift_kinds_round_trip(demo_files, capsysbinary, kind, builder):
    import warnings
    code, out, _ = run(capsysbinary, ["lift", demo_files["clf"], "--kind", kind])
    assert code == 0
    parsed = serialize.graph_from_dict(json.loads(out))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = builder(helpers.loop_pair_graph())
    assert parsed == expected


def test_lift_de_bruijn(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary,
                       ["lift", demo_files["clf"], "--kind", "debruijn:2,3"])
    assert code == 0
    assert serialize.graph_from_dict(json.loads(out)) == de_bruijn(2, 3)


def test_lift_bad_kind(demo_files, capsysbinary):
    code, _, err = run(capsysbinary, ["lift", demo_files["clf"], "--kind", "boom"])
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["sum:1_0", "sum: 2", "sum:+2", "sum:٢", "sum:",
                                  "debruijn:2,0_3", "debruijn: 2,3", "debruijn:2", "debruijn"])
def test_lift_malformed_kind_exit_two(demo_files, capsysbinary, kind):
    # counts are plain ASCII digits: int() would read sum:1_0 as sum:10
    form = "sum:T" if kind.startswith("sum") else "debruijn:M,l"
    code, out, err = run(capsysbinary, ["lift", demo_files["graph"], "--kind", kind])
    assert (code, out, err) == (2, "", f"error: bad lift kind {kind!r}: expected {form}\n")


# ---------------------------------------------------------------- simulate

def test_simulate_positive(demo_files, tmp_path, capsysbinary):
    from pclyap import common_lyapunov_graph
    clf_path = tmp_path / "g0.json"
    clf_path.write_text(serialize.dumps(serialize.graph_to_dict(common_lyapunov_graph(2))))
    code, out, _ = run(capsysbinary, ["simulate", str(clf_path), demo_files["graph"]])
    assert code == 0
    data = json.loads(out)
    assert data["simulates"] is True
    assert set(data["map"].values()) == {"a"}


def test_simulate_negative(tmp_path, capsysbinary):
    g1 = tmp_path / "g1.json"
    g1.write_text(serialize.dumps(serialize.graph_to_dict(helpers.branching_graph())))
    g2 = tmp_path / "g2.json"
    g2.write_text(serialize.dumps(serialize.graph_to_dict(helpers.loop_pair_graph())))
    code, out, _ = run(capsysbinary, ["simulate", str(g1), str(g2)])
    assert code == 1
    assert json.loads(out)["simulates"] is False


def test_simulate_a_long_cycle_by_one_loop(tmp_path, capsysbinary):
    # the search keeps no call frame per node of h: a 1,500-node cycle maps
    # onto the one-node, one-loop graph
    from pclyap import NodeId, common_lyapunov_graph, make_graph
    cycle = [NodeId.atom(f"c{k}") for k in range(1500)]
    h = make_graph(1, cycle, [(s, t, 1) for s, t in zip(cycle, cycle[1:] + cycle[:1])])
    g_path, h_path = tmp_path / "g.json", tmp_path / "h.json"
    g_path.write_text(serialize.dumps(serialize.graph_to_dict(common_lyapunov_graph(1))))
    h_path.write_text(serialize.dumps(serialize.graph_to_dict(h)))
    code, out, err = run(capsysbinary, ["simulate", str(g_path), str(h_path)])
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["simulates"] is True and data["map"] == {str(s): "a" for s in cycle}


# ------------------------------------------------------------------- bound

def test_bound_demo_graph(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary,
                       ["bound", demo_files["graph"], demo_files["matrices"],
                        "--flavor", "dual"])
    assert code == 0
    assert "rho[dual,G](A) = 1.27363" in out


def test_bound_json_contains_certificate(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary,
                       ["bound", demo_files["graph"], demo_files["matrices"],
                        "--flavor", "dual", "--format", "json"])
    data = json.loads(out)
    assert data["gamma"] == pytest.approx(1.2736270512, abs=5e-6)
    assert set(data["certificate"]["vectors"]) == {"a", "b", "c", "d"}


def test_bound_unknown_cap_exit_two(demo_files, capsysbinary, monkeypatch):
    monkeypatch.setattr(feasibility, "UNKNOWN_CAP", 11)  # the demo LP has 4 * 3 = 12
    code, out, err = run(capsysbinary, ["bound", demo_files["graph"], demo_files["matrices"],
                                        "--flavor", "primal"])
    assert (code, out) == (2, "")
    assert err == "error: the LP has |S| n = 12 unknowns, beyond the 11 unknown cap\n"


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    bound = parser.parse_args(["bound", "g", "m", "--flavor", "dual"])
    assert bound.tol == inspect.signature(rho_bound).parameters["tol"].default
    run_all = parser.parse_args(["hierarchy", "m"])
    library = inspect.signature(jsr.hierarchy).parameters
    assert (run_all.eps, run_all.lmax) == (library["epsilon"].default, library["l_max"].default)


# --------------------------------------------------------------- hierarchy

def test_hierarchy_csv(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary,
                       ["hierarchy", demo_files["matrices"], "--lmax", "2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "step,kind,level,rho_G,lower,upper"
    assert len(lines) == 5
    assert lines[1].startswith("(1),dual,1,")


def test_one_mode_runs_are_refused_before_any_work(demo_files, tmp_path, capsysbinary):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"n": 2, "matrices": [[[0.5, 0.1], [0.2, 0.3]]]}))
    refusal = "would have words of {} letters, beyond the limit of 64\n"
    code, out, err = run(capsysbinary, ["hierarchy", str(one), "--lmax", "1000000000",
                                        "--eps", "0"])
    assert (code, out) == (2, "")
    assert err == "error: De Bruijn graph debruijn:1,66 " + refusal.format(65)
    code, out, err = run(capsysbinary, ["lift", demo_files["graph"],
                                        "--kind", "debruijn:1,100000000"])
    assert (code, out) == (2, "")
    assert err == "error: De Bruijn graph debruijn:1,100000000 " + refusal.format(99999999)
    code, out, _ = run(capsysbinary, ["hierarchy", str(one), "--lmax", "65", "--eps", "0"])
    assert code == 0 and len(out.splitlines()) == 1 + 130


def test_hierarchy_json(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary,
                       ["hierarchy", demo_files["matrices"], "--lmax", "1",
                        "--format", "json"])
    data = json.loads(out)
    assert len(data["rows"]) == 2
    assert data["rows"][0]["rho_G"] == pytest.approx(1.3409991733, abs=5e-6)


# ------------------------------------------------------------------ oracle

def test_oracle(demo_files, capsysbinary):
    code, out, _ = run(capsysbinary,
                       ["oracle", demo_files["matrices"], "--depth", "4"])
    assert code == 0
    assert "lower = 1.069" in out
    assert "upper = " in out


DEMO_MATRICES = str(Path(__file__).parent.parent / "data" / "demo_matrices.json")
# `oracle data/demo_matrices.json --depth K`, K = 1..12, as reported by the
# per-product enumeration the batched one replaced: the upper bound in text
# and in JSON; the lower bound is 1.06991 (1.069913532003771) throughout
DEMO_ORACLE_UPPER = [
    ("1.7", 1.7), ("1.34536", 1.345362404707371), ("1.19114", 1.1911384251964325),
    ("1.17541", 1.175411963157447), ("1.14969", 1.1496914092887074),
    ("1.13691", 1.136907853719626), ("1.12686", 1.1268643329236419),
    ("1.11964", 1.11963823798305), ("1.11399", 1.1139870518926445),
    ("1.1095", 1.109502807207398), ("1.10584", 1.105843114289514),
    ("1.1028", 1.1028036917466841)]


@pytest.mark.parametrize("depth", range(1, 13))
def test_oracle_demo_output_is_pinned(capsysbinary, depth):
    text, value = DEMO_ORACLE_UPPER[depth - 1]
    argv = ["oracle", DEMO_MATRICES, "--depth", str(depth)]
    code, out, err = run(capsysbinary, argv)
    assert code == 0 and err == ""
    assert out == f"lower = 1.06991\nupper = {text}\n"
    code, out, err = run(capsysbinary, argv + ["--format", "json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["lower"] == pytest.approx(1.069913532003771, rel=1e-12, abs=0)
    assert report["upper"] == pytest.approx(value, rel=1e-12, abs=0)


@pytest.mark.parametrize("matrices, value", [
    ([[[1e200]]], "1e+200"),
    ([[[1e-200, 0], [0, 1e-200]]], "1e-200"),
    ([[[1e200, 1e200], [1e200, 1e200]]], "2e+200"),
], ids=["huge-scalar", "tiny-diagonal", "huge-ones"])
def test_oracle_scale_safe(tmp_path, capsysbinary, matrices, value):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"n": len(matrices[0]), "matrices": matrices}))
    code, out, err = run(capsysbinary, ["oracle", str(path), "--depth", "3"])
    assert code == 0 and err == ""
    assert out == f"lower = {value}\nupper = {value}\n"
    code, out, err = run(capsysbinary, ["oracle", str(path), "--depth", "3",
                                        "--format", "json"])
    assert code == 0 and err == ""

    def refuse(token):
        raise AssertionError(f"non-JSON token {token}")

    report = json.loads(out, parse_constant=refuse)
    for key in ("lower", "upper"):
        assert report[key] == pytest.approx(float(value), rel=1e-12, abs=0)


# ------------------------------------------------------- pinned CLI bytes

ROOT = Path(__file__).parent.parent
# (argv run from the repository root, exit code, first 16 hex digits of the
# sha256 of stdout, stderr): every subcommand in every format it accepts on
# the tracked demo inputs, plus the README commands
G, R, A = "data/demo_graph.json", "data/demo_reduced_graph.json", "data/demo_matrices.json"
PINNED_CLI = [
    (f"check {G}", 0, "3b08f556b409c14c", ""),
    (f"check {G} --format json", 0, "d8ff06dcddf0ba77", ""),
    (f"simulate {G} {R}", 1, "a60afbc764f7bd8c", ""),
    (f"simulate {R} {G}", 1, "a60afbc764f7bd8c", ""),
    (f"simulate {G} {R} --format json", 1, "1d058e563219dac8", ""),
    (f"simulate {R} {G} --format json", 1, "1d058e563219dac8", ""),
    (f"bound {G} {A} --flavor dual", 0, "8302eb7c20c540be", ""),
    (f"bound {G} {A} --flavor dual --format json", 0, "10bb9b7adb25e9b7", ""),
    (f"bound {G} {A} --flavor primal", 0, "22c50e1e20c70379", ""),
    (f"bound {G} {A} --flavor primal --format json", 0, "be9431e7fca55b2b", ""),
    (f"bound {R} {A} --flavor dual", 0, "110876963c0e7f9d", ""),
    (f"bound {R} {A} --flavor dual --format json", 0, "2693419ef3179e0b", ""),
    (f"bound {R} {A} --flavor primal", 0, "80cf6e5121e710fd", ""),
    (f"bound {R} {A} --flavor primal --format json", 0, "bfcf113a01b442d4", ""),
    (f"oracle {A} --depth 6", 0, "ff116eb295542ff7", ""),
    (f"oracle {A} --depth 8", 0, "64a6043f50063c1e", ""),
    (f"lift {G} --kind max", 0, "1e673592c07c3f55", ""),
    (f"lift {G} --kind max --format json", 0, "b4ef7bf46ff936d1", ""),
    (f"lift {G} --kind debruijn:2,3", 0, "aa44178f2d2fc85f", ""),
    (f"lift {G} --kind debruijn:2,3 --format json", 0, "d3ecfbffc981c6e5", ""),
    (f"lift {G} --kind boom", 2, "e3b0c44298fc1c14",
     "error: unknown lift kind 'boom' (expected sum:T, max, min, comp or backcomp)\n"),
    (f"hierarchy {A} --lmax 3 --format text", 0, "ef9723c3eaf61b57", ""),
    (f"hierarchy {A} --lmax 3 --format json", 0, "c1b415c71956c812", ""),
    (f"hierarchy {A} --lmax 3 --format csv", 0, "088af20152821193", ""),
    (f"hierarchy {A} --lmax 4", 0, "8259635f14dc4a43", ""),
]


@pytest.mark.parametrize("command, code, digest, err", PINNED_CLI,
                         ids=[c[0].replace("data/", "") for c in PINNED_CLI])
def test_cli_output_is_pinned(capsysbinary, monkeypatch, command, code, digest, err):
    monkeypatch.chdir(ROOT)
    got_code = main(command.split())
    got = capsysbinary.readouterr()
    assert (got_code, got.err.decode()) == (code, err)
    assert hashlib.sha256(got.out).hexdigest()[:16] == digest, got.out.decode()[:2000]


# ------------------------------------------------------------ input errors

def test_malformed_json_exit_two(tmp_path, capsysbinary):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": 2, "nodes": ["a"], "edges": [[')
    code, _, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2
    assert "line" in err and "column" in err


def test_semantic_error_exit_two(tmp_path, capsysbinary):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": 2, "nodes": ["a"], "edges": [["a", "a", 9]]}')
    code, _, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2
    assert "label" in err


def test_non_string_node_name_exit_two(tmp_path, capsysbinary):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": 1, "nodes": [5], "edges": []}')
    code, _, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "string" in err


def test_deeply_nested_node_name_exit_two(tmp_path, capsysbinary):
    bad = tmp_path / "bad.json"
    name = "{" * 3000 + "a" + "}" * 3000
    bad.write_text(json.dumps({"alphabet": 1, "nodes": [name], "edges": []}))
    code, out, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "nested too deeply" in err


@pytest.mark.parametrize("kind", ["comp", "sum:1"])
def test_lift_past_the_nesting_limit_exit_two(tmp_path, capsysbinary, kind):
    # the lift would write a name that no command reads back
    g = common_lyapunov_graph(1)
    for _ in range(64):
        g = composition_lift(g)
    deep = tmp_path / "d64.json"
    deep.write_text(serialize.dumps(serialize.graph_to_dict(g)))
    code, out, err = run(capsysbinary, ["lift", str(deep), "--kind", kind])
    assert (code, out) == (2, "")
    assert err == "error: node name is nested too deeply (more than 64 levels)\n"


@pytest.mark.parametrize("document", [
    "[" * 200_000,
    '{"alphabet": 1, "nodes": ' + "[" * 5000 + "]" * 5000 + ', "edges": []}',
], ids=["open-brackets", "nested-nodes"])
@pytest.mark.parametrize("command", [["check"], ["oracle", "--depth", "2"]],
                         ids=["check", "oracle"])
def test_deeply_nested_json_exit_two(tmp_path, capsysbinary, document, command):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsysbinary, [command[0], str(bad), *command[1:]])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(bad) in err and "nested too deeply" in err


@pytest.mark.parametrize("document", [
    '{"alphabet": 2, "nodes": ["a"], "edges": [["a", "a", 1.9], ["a", "a", true]]}',
    '{"alphabet": 2, "nodes": ["a"], "edges": [["a", "a", true]]}',
], ids=["fractional-and-boolean", "boolean"])
def test_non_integer_edge_label_exit_two(tmp_path, capsysbinary, document):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsysbinary, ["lift", str(bad), "--kind", "sum:1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "label" in err


@pytest.mark.parametrize("document, field", [
    ('{"alphabet": 1, "nodes": "ab", "edges": [["a", "b", 1], ["b", "a", 1]]}', "'nodes'"),
    ('{"alphabet": 1, "nodes": {"a": 1}, "edges": []}', "'nodes'"),
    ('{"alphabet": 1, "nodes": ["a"], "edges": "xx"}', "'edges'"),
    ('{"alphabet": 1, "nodes": ["a"], "edges": [["a", "a"]]}', "'edges' entry 0"),
    ('{"alphabet": 1, "nodes": ["a"], "edges": [["a", "a", 1], "aa1"]}', "'edges' entry 1"),
], ids=["string-nodes", "object-nodes", "string-edges", "short-edge", "string-edge"])
def test_graph_fields_must_be_lists_exit_two(tmp_path, capsysbinary, document, field):
    # a string iterates by character: "ab" read as the nodes a and b, "aa1" as an edge
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"field {field} must be a list" in err


@pytest.mark.parametrize("nodes, edges, message", [
    (["(10)", "(1_0)"], [["(10)", "(1_0)", 1]], "ASCII digits"),
    (["(١)"], [], "ASCII digits"),
    (["( 1)"], [], "ASCII digits"),
    (["a∘١"], [], "trailing characters"),
    (["a∘1_0"], [], "trailing characters"),
    (["{a,b}", "{b,a}"], [], "graph nodes give node {a,b} twice, as '{a,b}' and '{b,a}'"),
    (["a", "a"], [], "graph nodes give node a twice"),
    (["(01)"], [], "word letter '01' has a leading zero"),
    (["(1,02)"], [], "word letter '02' has a leading zero"),
    (["a∘01"], [], "composition label '01' has a leading zero"),
    (["(0)"], [], "word letters must be positive integers"),
    (["a∘0"], [], "composition label must be a positive integer"),
    (["}"], [], "cannot parse node name starting at '}'"),
    ([",a"], [], "cannot parse node name starting at ',a'"),
    (["∘1"], [], "cannot parse node name starting at '∘1'"),
    (["{a)"], [], "unexpected character ')' in node name"),
], ids=["underscore-word", "arabic-indic-word", "spaced-word", "arabic-indic-label",
        "underscore-label", "respelled-node", "repeated-node", "zero-led-word",
        "zero-led-letter", "zero-led-label", "zero-word", "zero-label", "closing-brace",
        "leading-comma", "leading-label", "mismatched-bracket"])
def test_malformed_node_names_exit_two(tmp_path, capsysbinary, nodes, edges, message):
    # "(1_0)" once read as (10): the two nodes became one, the edge a self-loop
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet": 1, "nodes": nodes, "edges": edges}))
    code, out, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("document, message", [
    ('{"nodes": ["a"], "edges": []}', "malformed graph JSON: 'alphabet'"),
    ('{"alphabet": 4611686018427387904, "nodes": ["a", "b"], "edges": []}',
     "2 nodes over 4611686018427387904 labels have more edge keys than the integer edge "
     "table holds"),
], ids=["no-alphabet", "edge-table-overflow"])
def test_graph_document_refusals_exit_two(tmp_path, capsysbinary, document, message):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsysbinary, ["check", str(bad)])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_boolean_alphabet_exit_two(tmp_path, capsysbinary):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": true, "nodes": ["a"], "edges": [["a", "a", 1]]}')
    code, _, err = run(capsysbinary, ["check", str(bad)])
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "alphabet" in err


def test_oracle_beyond_the_float_range_exit_two(tmp_path, capsysbinary):
    path = tmp_path / "mats.json"
    path.write_text(json.dumps({"n": 2, "matrices": [[[1e308, 1e308], [1e308, 1e308]]]}))
    code, out, err = run(capsysbinary, ["oracle", str(path), "--depth", "1"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "inf" in err


@pytest.mark.parametrize("document, message", [
    ('{"n": true, "matrices": [[[0.5]]]}', "n must be an integer, got True"),
    ('{"n": 1.9, "matrices": [[[0.5]]]}', "n must be an integer, got 1.9"),
    ('{"n": 1, "matrices": [[["0.5"]]]}', "matrix entry must be a number, got '0.5'"),
    ('{"n": 1, "matrices": [[[true]]]}', "matrix entry must be a number, got True"),
    ('{"n": 1, "matrices": [[[1' + '0' * 400 + ']]]}', "malformed matrix-set JSON"),
    ('{"n": 3, "matrices": [[[1, 2], [3, 4]]]}', "matrix shape (2, 2) does not match n=3"),
], ids=["boolean-n", "fractional-n", "string-entry", "boolean-entry", "overflow-entry",
        "shape-mismatch"])
def test_malformed_matrix_set_exit_two(tmp_path, capsysbinary, document, message):
    bad = tmp_path / "bad.json"
    bad.write_text(document)
    code, out, err = run(capsysbinary, ["oracle", str(bad), "--depth", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv", [
    ["bound", "graph", "matrices", "--flavor", "dual", "--tol", "nan"],
    ["bound", "graph", "matrices", "--flavor", "dual", "--tol", "inf"],
    ["hierarchy", "matrices", "--lmax", "0"],
    ["hierarchy", "matrices", "--eps", "nan"],
    *(["bound", "graph", "matrices", "--flavor", flavor, "--tol", tol]
      for flavor in ("dual", "primal") for tol in ("1e-15", "3e-15", "1e-16")),
], ids=["nan-tol", "inf-tol", "zero-lmax", "nan-eps",
        *(f"{flavor}-tol-{tol}" for flavor in ("dual", "primal")
          for tol in ("1e-15", "3e-15", "1e-16"))])
def test_bad_numeric_option_exit_two(demo_files, capsysbinary, argv):
    argv = [demo_files.get(a, a) for a in argv]
    code, out, err = run(capsysbinary, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["debruijn:3,25", "sum:60"])
def test_lift_size_cap_exit_two(demo_files, capsysbinary, monkeypatch, kind):
    for name in ("itertools", "NodeId", "_graph"):  # a started build fails loudly
        monkeypatch.setattr(lifts, name, None)
    code, out, err = run(capsysbinary, ["lift", demo_files["graph"], "--kind", kind])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "limit" in err


def test_tiny_tol_keeps_output_at_1e_14(demo_files, capsysbinary):
    for flavor, value in (("dual", "1.27363"), ("primal", "1.07539")):
        code, out, _ = run(capsysbinary, ["bound", demo_files["graph"], demo_files["matrices"],
                                          "--flavor", flavor, "--tol", "1e-14"])
        assert code == 0 and out == f"rho[{flavor},G](A) = {value}\n"


def test_missing_file_exit_two(capsysbinary):
    code, _, err = run(capsysbinary, ["check", "/nonexistent/g.json"])
    assert code == 2
    assert "error" in err


# ------------------------------------------------------------- determinism

def test_reports_are_deterministic(demo_files, capsysbinary):
    argv = ["hierarchy", demo_files["matrices"], "--lmax", "2"]
    _, first, _ = run(capsysbinary, argv)
    _, second, _ = run(capsysbinary, argv)
    assert first == second


def test_graph_round_trip_through_json():
    corpus = [
        helpers.demo_graph(),
        helpers.toggle_graph(),
        de_bruijn(2, 3),
        sum_lift(helpers.toggle_graph(), 2),
        max_lift(helpers.toggle_graph()),
    ]
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        corpus.append(composition_lift(helpers.memory_one_graph()))
    for g in corpus:
        assert serialize.graph_from_dict(json.loads(
            serialize.dumps(serialize.graph_to_dict(g)))) == g


def test_unsupported_format_exit_two(demo_files, capsysbinary):
    for argv in (["oracle", demo_files["matrices"], "--format", "csv"],
                 ["check", demo_files["graph"], "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsysbinary.readouterr()
        assert exc.value.code == 2 and out.out == b""
        assert b"invalid choice: 'csv'" in out.err


def test_matrix_set_round_trip():
    mats = helpers.demo_matrices()
    back = serialize.matrix_set_from_dict(json.loads(
        serialize.dumps(serialize.matrix_set_to_dict(mats))))
    assert back.size == mats.size and back.n == mats.n
    for left, right in zip(back.matrices, mats.matrices):
        assert (left == right).all()


def test_certificate_round_trip():
    from pclyap import rho_bound
    g = helpers.toggle_graph()
    mats = helpers.demo_matrices()
    cert = rho_bound(g, mats, "dual").certificate
    back = serialize.certificate_from_dict(json.loads(
        serialize.dumps(serialize.certificate_to_dict(cert))))
    assert back.flavor == cert.flavor and back.gamma == cert.gamma
    assert set(back.vectors) == set(cert.vectors)
    for node, vec in cert.vectors.items():
        assert (back.vectors[node] == vec).all()


@pytest.mark.parametrize("document", [
    '{"flavor": "dual", "gamma": "1.5", "vectors": {"a": [0.5, 1]}}',
    '{"flavor": "dual", "gamma": true, "vectors": {"a": [0.5, 1]}}',
    '{"flavor": "dual", "gamma": null, "vectors": {"a": [0.5, 1]}}',
    '{"flavor": "dual", "gamma": 1.5, "vectors": {"a": ["0.5", 1]}}',
    '{"flavor": "dual", "gamma": 1.5, "vectors": {"a": [0.5, true]}}',
    '{"flavor": "dual", "gamma": 1.5, "vectors": {"a": [0.5, null]}}',
    '{"flavor": "dual", "gamma": 1.5, "vectors": {"a": [0.5, Infinity]}}',
    '{"flavor": "dual", "gamma": NaN, "vectors": {"a": [0.5, 1]}}',
    '{"flavor": "dual", "gamma": 1.5, "vectors": ["a"]}',
    '{"flavor": "dual", "gamma": 1.5, "vectors": {"a": [1' + '0' * 400 + ']}}',
], ids=["string-gamma", "boolean-gamma", "null-gamma", "string-entry",
        "boolean-entry", "null-entry", "infinite-entry", "nan-gamma",
        "list-vectors", "overflow-entry"])
def test_malformed_certificate_rejected(document):
    with pytest.raises(ValueError):
        serialize.certificate_from_dict(json.loads(document))


def test_certificate_node_spelled_twice_is_rejected():
    document = {"flavor": "dual", "gamma": 1.0, "vectors": {"{a,b}": [1], "{b,a}": [2]}}
    with pytest.raises(ValueError, match=r"node \{a,b\} twice, as '\{a,b\}' and '\{b,a\}'"):
        serialize.certificate_from_dict(document)


# --------------------------------------------------------- large alphabets

def _one_loop_graph(tmp_path, alphabet):
    """One node with a self-loop on label 1 over ``alphabet`` labels."""
    path = tmp_path / f"loop_{alphabet}.json"
    path.write_text(json.dumps({"alphabet": alphabet, "nodes": ["a"], "edges": [["a", "a", 1]]}))
    return str(path)


def _cli_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "pclyap.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=20)


def test_huge_alphabet_work_follows_the_labels_in_use(tmp_path):
    # 10^11 labels, one in use: a loop over the alphabet would never finish
    path = _one_loop_graph(tmp_path, 10 ** 11)
    done = _cli_subprocess("check", path)
    assert done.returncode == 1, done.stderr
    assert "path-complete: false\ncomplete: false\nco-complete: false\n" in done.stdout
    for kind in ("sum:1", "max", "min"):
        done = _cli_subprocess("lift", path, "--kind", kind, "--format", "json")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["graph"]["alphabet"] == 10 ** 11


@pytest.mark.parametrize("kind", ["comp", "backcomp"])
def test_composition_lift_of_a_large_alphabet_is_refused(tmp_path, capsysbinary, kind):
    # |S| M + |E| M = 2 * 10^6 nodes and edges, counted before any is built
    code, out, err = run(capsysbinary, ["lift", _one_loop_graph(tmp_path, 10 ** 6),
                                        "--kind", kind])
    assert (code, out) == (2, "")
    assert err == (f"error: {kind} lift would have 2000000 nodes and edges, "
                   f"beyond the limit of {lifts.LIFT_SIZE_LIMIT}\n")
