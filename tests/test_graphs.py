import copy
import itertools
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclyap import (
    NodeId,
    check_assumption_minimal,
    common_lyapunov_graph,
    completeness_flags,
    de_bruijn,
    find_simulation,
    induced_subgraph,
    is_path_complete,
    make_graph,
    max_lift,
    min_lift,
    parse_node_id,
    path_complete_components,
    strongly_connected_components,
    sum_lift,
    transpose,
)

from pclyap import graphs, serialize

import helpers
from helpers import A, B, C, D, edge_set


# ---------------------------------------------------------------- NodeId

def test_node_id_canonical_order_and_equality():
    m1 = NodeId.multiset([B, A, A])
    m2 = NodeId.multiset([A, B, A])
    assert m1 == m2
    assert str(m1) == "{a,a,b}"
    s = NodeId.subset([B, A, B])
    assert str(s) == "{a,b}"
    trusted = NodeId._sorted_subset((A, B))  # the subset lifts' constructor
    assert (trusted, trusted.kind, trusted.value) == (s, s.kind, s.value)
    assert pickle.loads(pickle.dumps(trusted)).value == s.value
    assert str(NodeId.comp(A, 2)) == "a∘2"
    assert str(NodeId.word([1, 2])) == "(1,2)"
    assert str(NodeId.word([])) == "()"


def test_node_id_atom_validation():
    with pytest.raises(ValueError):
        NodeId.atom("")
    with pytest.raises(ValueError):
        NodeId.atom("a,b")
    with pytest.raises(ValueError):
        NodeId.atom("{x}")


def test_node_id_label_validation():
    # a bool is not a label: a∘True would render a name that cannot be parsed
    for bad in (True, 1.0, 0):
        with pytest.raises(ValueError):
            NodeId.comp(A, bad)
    for bad in ([1.9, True], [True], [1.0], ["1"], [0]):
        with pytest.raises(ValueError):
            NodeId.word(bad)


def test_node_id_checks_as_its_named_constructors():
    named = {"atom": NodeId.atom, "multiset": NodeId.multiset, "subset": NodeId.subset,
             "comp": lambda value: NodeId.comp(*value), "word": NodeId.word}
    good = [("atom", "x"), ("multiset", (B, A, A)), ("subset", (B, A, B)),
            ("comp", (A, 2)), ("word", [1, 2])]
    for kind, value in good:
        node, expected = NodeId(kind, value), named[kind](value)
        assert (str(node), node.kind, node.value) == (str(expected), expected.kind, expected.value)
    bad = [("atom", ""), ("atom", "x,y"), ("atom", 3), ("multiset", ()), ("multiset", ["a"]),
           ("subset", ()), ("subset", ["a"]), ("comp", ("a", 1)), ("comp", (A, 0)),
           ("comp", (A, True)), ("word", [0]), ("word", [True])]
    for kind, value in bad:
        messages = []
        for build in (lambda: NodeId(kind, value), lambda: named[kind](value)):
            with pytest.raises(ValueError) as info:
                build()
            messages.append(str(info.value))
        assert messages[0] == messages[1], (kind, value)
    with pytest.raises(ValueError):
        NodeId("comp", A)
    node = NodeId("subset", (B, A))
    g = make_graph(1, [node], [(node, node, 1)])
    assert node == NodeId.subset([A, B])
    assert serialize.graph_from_dict(serialize.graph_to_dict(g)) == g


def test_parse_node_id_round_trip():
    samples = [
        A,
        NodeId.multiset([A, A]),
        NodeId.subset([A, B, C]),
        NodeId.comp(NodeId.subset([A, B]), 3),
        NodeId.word([2, 1, 2]),
        NodeId.word([]),
        NodeId.multiset([NodeId.subset([A, B]), NodeId.subset([A, B])]),
    ]
    for node in samples:
        assert parse_node_id(str(node)) == node


def _nested(levels):
    """Names nested ``levels`` deep: braces, compositions, and both."""
    half = levels // 2
    return ["{" * levels + "a" + "}" * levels, "a" + "∘1" * levels,
            "{" * half + "(1)" + "∘2" * (levels - half) + "}" * half,
            "{b," + "{" * (half - 1) + "a" + "}" * (half - 1) + "}" + "∘1" * (levels - half)]


def test_parse_node_id_rejects_garbage():
    deep = "{" * 3000 + "a" + "}" * 3000
    # word letters and composition labels are ASCII digits: "(1_0)" once read as (10)
    for bad in ["", "{a", "(1,", "a}", "a∘True", 5, None, ["a"], deep, *_nested(65),
                "(1_0)", "(١)", "( 1)", "(+1)", "(1,)", "a∘١", "a∘1_0", "a∘ 1"]:
        with pytest.raises(ValueError):
            parse_node_id(bad)
    # one spelling per name: "(01)" once read as (1), "a∘01" as a∘1
    for bad, where in [("(01)", "'01' has a leading zero at '(01)'"),
                       ("(1,02)", "'02' has a leading zero at '(1,02)'"),
                       ("(00)", "'00' has a leading zero"), ("{b,(1,010)}", "'010'"),
                       ("a∘01", "label '01' has a leading zero at '∘01'"),
                       ("(1)∘2∘007", "'007'")]:
        with pytest.raises(ValueError, match=re.escape(where)):
            parse_node_id(bad)
    # a lone zero keeps its message
    with pytest.raises(ValueError, match="word letters must be positive integers"):
        parse_node_id("(0)")
    with pytest.raises(ValueError, match="composition label must be a positive integer"):
        parse_node_id("a∘0")
    assert parse_node_id("(10,1)∘20") == NodeId.comp(NodeId.word([10, 1]), 20)


def test_parse_node_id_depth_limit_keeps_nodes_copyable():
    # the deepest accepted names still copy and pickle under a 400-frame caller
    def at_depth(frames):
        if frames:
            return at_depth(frames - 1)
        for text in _nested(64):
            node = parse_node_id(text)
            assert copy.deepcopy(node) == node == pickle.loads(pickle.dumps(node))
    at_depth(400)


node_ids = st.recursive(
    st.one_of(
        st.text(alphabet="abcxyz", min_size=1, max_size=3).map(NodeId.atom),
        st.lists(st.integers(1, 3), max_size=3).map(NodeId.word),
    ),
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(NodeId.multiset),
        st.lists(children, min_size=1, max_size=3).map(NodeId.subset),
        st.tuples(children, st.integers(1, 3)).map(lambda t: NodeId.comp(*t)),
    ),
    max_leaves=6,
)


@given(node_ids)
@settings(max_examples=200, deadline=None)
def test_node_id_string_round_trip_fuzz(node):
    assert parse_node_id(str(node)) == node


@given(st.lists(node_ids, max_size=6))
@settings(max_examples=100, deadline=None)
def test_node_id_is_its_text_fuzz(nodes):
    for node in nodes:
        text = str(node)
        assert isinstance(node, str) and type(text) is str
        assert node == text and hash(node) == hash(text)
    assert [str(x) for x in sorted(nodes)] == sorted(str(x) for x in nodes)


# ---------------------------------------------------------------- make_graph

def test_make_graph_clf():
    g = common_lyapunov_graph(2)
    assert len(g.nodes) == 1
    assert edge_set(g) == {("a", "a", 1), ("a", "a", 2)}


def test_make_graph_loop_pair_has_four_edges():
    g = helpers.loop_pair_graph()
    assert len(g.edges) == 4


def test_make_graph_rejects_bad_label():
    with pytest.raises(ValueError):
        make_graph(2, [A, B], [(A, B, 3)])


def test_make_graph_rejects_unknown_node():
    with pytest.raises(ValueError):
        make_graph(2, [A], [(A, B, 1)])
    # a node must be a NodeId: the lifts name their nodes after its structure
    for nodes in (["a", "b"], [0, 1], [A, "b"]):
        with pytest.raises(ValueError, match="not a NodeId"):
            make_graph(1, nodes, [(nodes[0], nodes[1], 1)])


def test_make_graph_rejects_empty_nodes():
    with pytest.raises(ValueError):
        make_graph(2, [], [])


def test_make_graph_collapses_duplicate_edges():
    g = make_graph(1, [A], [(A, A, 1), (A, A, 1)])
    assert len(g.edges) == 1


def test_common_lyapunov_graph_sizes():
    for m in (1, 2, 3):
        g = common_lyapunov_graph(m)
        assert len(g.nodes) == 1 and len(g.edges) == m
    with pytest.raises(ValueError):
        common_lyapunov_graph(0)


# ------------------------------------------------------- path-completeness

def test_clf_graphs_path_complete():
    for m in (1, 2, 3):
        assert is_path_complete(common_lyapunov_graph(m))


def test_branching_graph_path_complete():
    assert is_path_complete(helpers.branching_graph())


def test_missing_letter_not_path_complete():
    g = make_graph(2, [A], [(A, A, 1)])
    assert not is_path_complete(g)


def _complete_draw(rng, n_nodes, alphabet, doubled=0):
    """A complete graph: one random successor per (node, label) pair, and
    a second one for ``doubled`` random pairs."""
    nodes = [NodeId.atom(f"n{k}") for k in range(n_nodes)]
    pairs = [(a, i) for a in nodes for i in range(1, alphabet + 1)]
    extra = rng.choice(len(pairs), doubled, replace=False).tolist()
    edges = [(a, nodes[int(rng.integers(n_nodes))], i) for a, i in pairs]
    edges += [(pairs[k][0], nodes[int(rng.integers(n_nodes))], pairs[k][1]) for k in extra]
    return make_graph(alphabet, nodes, edges)


def _without(g, edge):
    return make_graph(g.alphabet_size, g.nodes, [e for e in g.edges if e != edge])


def test_path_completeness_agrees_with_word_oracle():
    rng = np.random.default_rng(7)
    for _ in range(120):
        g = helpers.random_graph(rng, int(rng.integers(1, 4)),
                                 int(rng.integers(1, 3)),
                                 density=float(rng.uniform(0.1, 0.7)))
        expected = helpers.path_complete_by_word_enumeration(g, 2 ** len(g.nodes))
        assert is_path_complete(g) == expected, str(g)
    for _ in range(40):  # one edge short of complete or co-complete: no flag
        g = _complete_draw(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        g = _without(g, g.edges[int(rng.integers(len(g.edges)))])
        g = transpose(g) if rng.random() < 0.5 else g
        assert not any(completeness_flags(g))
        expected = helpers.path_complete_by_word_enumeration(g, 2 ** len(g.nodes))
        assert is_path_complete(g) == expected, str(g)
    for _ in range(40):
        # complete and co-complete graphs with up to 5 nodes: every word has
        # a path, so the oracle tries the first thousand or so words
        g = (helpers.random_path_complete_graph(rng, max_nodes=5, max_labels=3)
             if rng.random() < 0.5 else transpose(_complete_draw(rng, int(rng.integers(1, 6)),
                                                                 int(rng.integers(1, 4)))))
        n, M = len(g.nodes), g.alphabet_size
        length = 2 ** n if M == 1 else min(2 ** n, int(np.log(1000) / np.log(M)))
        assert is_path_complete(g) == helpers.path_complete_by_word_enumeration(g, length), str(g)


# --------------------------------------------------------------- flags

def test_flags_clf():
    assert completeness_flags(common_lyapunov_graph(2)) == (True, True)


def test_flags_demo_graph(demo_graph):
    # node a has no outgoing label-2 edge, node b no incoming label-2 edge
    assert completeness_flags(demo_graph) == (False, False)


def test_flags_swap_under_transpose():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = helpers.random_graph(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        complete, co = completeness_flags(g)
        assert completeness_flags(transpose(g)) == (co, complete)


# ------------------------------------------------------------- transpose

def test_transpose_fixes_clf():
    g = common_lyapunov_graph(3)
    assert transpose(g) == g


def test_transpose_memory_one(memory_one_graph):
    assert edge_set(transpose(memory_one_graph)) == {
        ("a", "a", 1), ("b", "a", 2), ("a", "b", 1), ("b", "b", 2)}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    nodes = [NodeId.atom(f"n{k}") for k in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, m))
    raw = draw(st.lists(pairs, max_size=14))
    return make_graph(m, nodes, [(nodes[i], nodes[j], lab) for i, j, lab in raw])


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_transpose_involution(g):
    assert transpose(transpose(g)) == g


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_path_completeness_invariant_under_transpose(g):
    assert is_path_complete(g) == is_path_complete(transpose(g))


# ------------------------------------------------------------------ SCCs

def test_scc_clf():
    assert strongly_connected_components(common_lyapunov_graph(2)) == [frozenset({A})]


def test_scc_two_sum_lift_of_toggle(toggle_graph):
    lifted = sum_lift(toggle_graph, 2)
    comps = strongly_connected_components(lifted)
    names = [sorted(str(s) for s in comp) for comp in comps]
    assert sorted(map(tuple, names)) == [("{a,a}", "{b,b}"), ("{a,b}",)]


def test_scc_topological_order():
    g = make_graph(1, [A, B], [(A, B, 1)])
    assert strongly_connected_components(g) == [frozenset({A}), frozenset({B})]


def test_path_complete_components_clf():
    comps = path_complete_components(common_lyapunov_graph(2))
    assert len(comps) == 1 and comps[0] == common_lyapunov_graph(2)


def test_path_complete_components_of_sum_lift(toggle_graph):
    comps = path_complete_components(sum_lift(toggle_graph, 2))
    assert len(comps) == 2
    assert any(helpers.is_isomorphic(c, toggle_graph) for c in comps)
    assert any(helpers.is_isomorphic(c, common_lyapunov_graph(2)) for c in comps)


# ------------------------------------------------------------- minimality

def test_minimality_clf():
    assert check_assumption_minimal(common_lyapunov_graph(2)) == (True, True)


def test_minimality_detects_disconnection():
    e = NodeId.atom("e")
    g = make_graph(2, [A, e],
                   [(A, A, 1), (A, A, 2), (e, e, 1), (e, e, 2)])
    sc, _ = check_assumption_minimal(g)
    assert not sc


def test_minimality_loop_pair():
    # removing any one of the 4 edges breaks path-completeness
    assert check_assumption_minimal(helpers.loop_pair_graph()) == (True, True)


def _minimal_by_word_oracle(g):
    """Oracle: ``g`` is path-complete and dropping any one edge makes some
    word of at most ``2^|S|`` letters lose its path."""
    def complete(h):
        return helpers.path_complete_by_word_enumeration(h, 2 ** len(h.nodes))
    return complete(g) and not any(complete(_without(g, e)) for e in g.edges)


def test_minimality_agrees_with_word_oracle():
    rng = np.random.default_rng(5)
    corpus = []
    for _ in range(25):
        n, M = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        corpus += [_complete_draw(rng, n, M), _complete_draw(rng, n, M, doubled=1),
                   transpose(_complete_draw(rng, n, M, doubled=1)),
                   helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=2),
                   helpers.random_graph(rng, n, M, density=float(rng.uniform(0.2, 0.6)))]
    corpus += [_complete_draw(rng, 4, 1, doubled=int(rng.integers(2))) for _ in range(10)]
    minimal = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # graphs that are not path-complete warn
        for g in corpus:
            expected = _minimal_by_word_oracle(g)
            assert check_assumption_minimal(g)[1] == expected, str(g)
            minimal += expected
    assert 10 < minimal < len(corpus) - 10


def _refuse(*args):
    raise AssertionError("the subset construction ran")


def test_degree_counts_decide_complete_graphs_without_subsets(monkeypatch):
    nodes = [NodeId.atom(f"n{k}") for k in range(6)]
    to_first = [(a, nodes[0], 1) for a in nodes]  # complete, not co-complete
    cycle = [(nodes[k], nodes[(k + 1) % 6], 2) for k in range(6)]
    complete = make_graph(2, nodes, to_first + cycle)
    doubled = make_graph(2, nodes, to_first + cycle + [(nodes[0], nodes[3], 2)])
    monkeypatch.setattr(graphs, "_label_successor_masks", _refuse)
    monkeypatch.setattr(graphs, "_universal", _refuse)
    big = de_bruijn(2, 16)
    assert len(big.nodes) == 32768
    assert is_path_complete(big) and is_path_complete(transpose(big))
    for g in (complete, transpose(complete)):
        assert all(map(is_path_complete, (g, max_lift(g), min_lift(g))))
    assert check_assumption_minimal(doubled) == (True, False)


def test_minimality_counts_the_completeness_flags_once(monkeypatch):
    # complete with more than |S| M edges: the flags decide both questions
    calls, flags = [], graphs.completeness_flags

    def counted(g):
        calls.append(g)
        return flags(g)
    monkeypatch.setattr(graphs, "completeness_flags", counted)
    doubled = make_graph(1, [A, B], [(A, A, 1), (A, B, 1), (B, A, 1), (B, B, 1)])
    assert check_assumption_minimal(doubled) == (True, False)
    assert calls == [doubled]


def test_graphs_without_flags_still_run_the_subset_construction(monkeypatch, demo_graph):
    calls = []
    universal = graphs._universal

    def counted(masks, n):
        calls.append(n)
        return universal(masks, n)

    monkeypatch.setattr(graphs, "_universal", counted)
    assert completeness_flags(demo_graph) == (False, False)
    assert is_path_complete(demo_graph) and calls == [4]


def test_minimality_warns_when_not_path_complete():
    g = make_graph(2, [A], [(A, A, 1)])
    with pytest.warns(UserWarning):
        sc, minimal = check_assumption_minimal(g)
    assert not minimal


# ------------------------------------------------------------- simulation

def test_branching_does_not_simulate_loop_pair():
    assert find_simulation(helpers.branching_graph(), helpers.loop_pair_graph()) is None


def test_self_simulation_is_identity(memory_one_graph):
    witness = find_simulation(memory_one_graph, memory_one_graph)
    assert witness is not None
    assert all(witness[s] == s for s in memory_one_graph.nodes)


def test_clf_simulates_everything(demo_graph):
    witness = find_simulation(common_lyapunov_graph(2), demo_graph)
    assert witness is not None
    assert len(set(witness.mapping.values())) == 1


def test_simulation_requires_matching_alphabets():
    with pytest.raises(ValueError):
        find_simulation(common_lyapunov_graph(1), common_lyapunov_graph(2))


def test_simulation_witness_preserves_edges():
    rng = np.random.default_rng(3)
    found = 0
    for _ in range(60):
        g = helpers.random_graph(rng, int(rng.integers(1, 4)), 2, density=0.5)
        h = helpers.random_graph(rng, int(rng.integers(1, 4)), 2, density=0.3)
        witness = find_simulation(g, h)
        if witness is None:
            continue
        found += 1
        g_edges = set(g.edges)
        for a, b, i in h.edges:
            assert (witness[a], witness[b], i) in g_edges
    assert found > 5


def _first_simulation_by_enumeration(g, h):
    """Oracle: the first edge-preserving map from ``h.nodes`` into ``g`` in
    the order of ``itertools.product(g.nodes, repeat=len(h.nodes))``."""
    g_edges = set(g.edges)
    for image in itertools.product(g.nodes, repeat=len(h.nodes)):
        mapping = dict(zip(h.nodes, image))
        if all((mapping[a], mapping[b], i) in g_edges for a, b, i in h.edges):
            return mapping
    return None


def test_simulation_witness_is_the_first_in_canonical_order():
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(80):
        g = helpers.random_graph(rng, int(rng.integers(1, 4)), 2, density=0.5)
        h = helpers.random_graph(rng, int(rng.integers(1, 5)), 2, density=0.3)
        witness = find_simulation(g, h)
        assert (witness and witness.mapping) == _first_simulation_by_enumeration(g, h)
        found += witness is not None
    assert found > 5


# --------------------------------------------------------------- subgraphs

def test_induced_subgraph_keeps_internal_edges(demo_graph):
    sub = induced_subgraph(demo_graph, [B, C, D])
    assert edge_set(sub) == {("b", "c", 1), ("b", "d", 1), ("c", "d", 1),
                             ("d", "d", 2), ("d", "c", 2)}


def test_induced_subgraph_matches_edge_filter_oracle():
    rng = np.random.default_rng(12)
    for _ in range(60):
        g = helpers.random_graph(rng, int(rng.integers(1, 7)), int(rng.integers(1, 4)))
        keep = [s for s in g.nodes if rng.random() < 0.6] or [g.nodes[-1]]
        expected = helpers.graph_by_tuples(
            g.alphabet_size, keep, [e for e in g.edges if e[0] in keep and e[1] in keep])
        sub = induced_subgraph(g, reversed(keep))
        assert "edges" not in sub.__dict__
        assert helpers.same_graph(sub, expected)
        assert not any(column.flags.writeable for column in sub._table)
    with pytest.raises(ValueError, match="at least one node"):
        induced_subgraph(g, [])
    with pytest.raises(ValueError, match="not in the graph"):
        induced_subgraph(g, [g.nodes[0], NodeId.atom("zz")])
