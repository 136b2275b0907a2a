import copy
import dataclasses
import itertools
import pickle
import sys
import threading
import warnings
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pclyap import (
    Certificate,
    MatrixSet,
    NodeId,
    TransportError,
    backward_composition_lift,
    check_assumption_minimal,
    common_lyapunov_graph,
    completeness_flags,
    composition_lift,
    de_bruijn,
    graphs,
    induced_subgraph,
    is_path_complete,
    lifts,
    make_graph,
    max_lift,
    min_lift,
    path_complete_components,
    rho_bound,
    serialize,
    strongly_connected_components,
    sum_lift,
    transport_certificate,
    transpose,
    verify_certificate,
)

import helpers
from helpers import A, B, edge_set


def _quiet(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args)


# ------------------------------------------------------------ lift by kind

def test_lift_by_kind(toggle_graph):
    g = toggle_graph
    assert lifts.lift(g, "sum:2") == sum_lift(g, 2)
    assert lifts.lift(g, "max") == max_lift(g)
    assert lifts.lift(g, "min") == min_lift(g)
    assert _quiet(lifts.lift, g, "comp") == _quiet(composition_lift, g)
    assert _quiet(lifts.lift, g, "backcomp") == _quiet(backward_composition_lift, g)
    for bad in ("sum", "sum:", "sum:x", "sum:0", "max:1", "boom", "debruijn:2,2"):
        with pytest.raises(ValueError):
            lifts.lift(g, bad)


@pytest.mark.parametrize("kind", ["sum:2", "sum:3", "max", "min", "comp", "backcomp"])
def test_lift_arrays_are_the_lift_in_builder_order(demo_graph, kind):
    # certificate transport reads these arrays unsorted and relies on their order
    g, M = demo_graph, demo_graph.alphabet_size
    nodes, src, dst, label = _quiet(lifts._lift_arrays, g, kind)
    lifted = _quiet(lifts.lift, g, kind)
    assert sorted(nodes) == list(lifted.nodes)
    edges = list(zip(map(nodes.__getitem__, src), map(nodes.__getitem__, dst), label.tolist()))
    assert len(set(edges)) == len(edges) and set(edges) == set(lifted.edges)
    if kind.startswith("sum:"):
        T = int(kind[len("sum:"):])
        assert [n.value for n in nodes] == list(
            itertools.combinations_with_replacement(g.nodes, T))
    elif kind in ("max", "min"):
        assert [n.value for n in nodes] == [
            tuple(s for b, s in enumerate(g.nodes) if A >> b & 1)
            for A in range(1, 2 ** len(g.nodes))]
    else:
        assert [n.value for n in nodes] == [(s, i) for s in g.nodes for i in range(1, M + 1)]


# ---------------------------------------------------------------- sum lift

def test_sum_lift_of_toggle(toggle_graph):
    lifted = sum_lift(toggle_graph, 2)
    assert {str(s) for s in lifted.nodes} == {"{a,a}", "{a,b}", "{b,b}"}
    assert edge_set(lifted) == {
        ("{a,a}", "{b,b}", 1), ("{b,b}", "{a,a}", 1),
        ("{a,a}", "{a,a}", 2), ("{b,b}", "{b,b}", 2),
        ("{a,b}", "{a,b}", 1), ("{a,b}", "{a,b}", 2),
    }


def test_sum_lift_t1_isomorphic_to_input(demo_graph):
    assert helpers.is_isomorphic(sum_lift(demo_graph, 1), demo_graph)


def test_sum_lift_of_clf():
    assert helpers.is_isomorphic(sum_lift(common_lyapunov_graph(2), 3),
                                 common_lyapunov_graph(2))


def test_sum_lift_rejects_bad_t(toggle_graph):
    for T in (0, True, 2.0):
        with pytest.raises(ValueError):
            sum_lift(toggle_graph, T)


def test_sum_lift_matches_matching_oracle():
    rng = np.random.default_rng(64)
    for k in range(24):
        if k % 2:
            g = helpers.random_graph(rng, int(rng.integers(1, 7)),
                                     int(rng.integers(1, 4)), float(rng.random()))
        else:
            g = helpers.random_path_complete_graph(rng, max_nodes=6, max_labels=3)
        for T in (1, 2, 3):
            assert helpers.same_graph(sum_lift(g, T), helpers.sum_lift_by_matching(g, T)), \
                (str(g), T)


def test_size_caps_checked_before_building(monkeypatch, demo_graph):
    def build(*args, **kwargs):  # every node or word enumeration fails loudly
        raise AssertionError("started building")
    monkeypatch.setattr(lifts, "itertools", SimpleNamespace(
        product=build, combinations_with_replacement=build))
    monkeypatch.setattr(lifts, "NodeId", SimpleNamespace(multiset=build, word=build))
    # estimate: nodes plus candidate edges, C(|S|+T-1, T) + sum_i C(|E_i|+T-1, T)
    # for sum:T and M^(l-1) + M^l for De Bruijn
    for build, estimate in ((lambda: de_bruijn(3, 25), 3 ** 24 + 3 ** 25),
                            (lambda: sum_lift(demo_graph, 60),
                             comb(63, 60) + comb(64, 60) + comb(62, 60)),
                            (lambda: lifts.lift(demo_graph, "sum:1000000"),
                             comb(1000003, 3) + comb(1000004, 4) + comb(1000002, 2)),
                            (lambda: de_bruijn(2, 10 ** 6), None)):
        with pytest.raises(ValueError, match="limit") as info:
            build()
        assert estimate is None or str(estimate) in str(info.value)
    for build in (lambda: sum_lift(demo_graph, 40), lambda: de_bruijn(2, 17)):
        with pytest.raises(AssertionError, match="started building"):
            build()  # within the limit (sum:40 on the demo is about 149k)


def test_sum_lift_matching_requires_pairing():
    # edges (a,b,1) and (b,a,1) only: {a,b} -> {a,b} must pair crosswise
    g = make_graph(1, [A, B], [(A, B, 1), (B, A, 1)])
    lifted = sum_lift(g, 2)
    assert ("{a,b}", "{a,b}", 1) in edge_set(lifted)
    assert ("{a,a}", "{a,b}", 1) not in edge_set(lifted)


# ------------------------------------------------------------ max/min lift

def test_max_lift_of_toggle(toggle_graph):
    lifted = max_lift(toggle_graph)
    assert edge_set(lifted) == {
        ("{a}", "{a}", 2), ("{a}", "{b}", 1), ("{b}", "{a}", 1), ("{b}", "{b}", 2),
        ("{a,b}", "{a}", 1), ("{a,b}", "{a}", 2),
        ("{a,b}", "{b}", 1), ("{a,b}", "{b}", 2),
        ("{a,b}", "{a,b}", 1), ("{a,b}", "{a,b}", 2),
    }


def test_max_lift_of_toggle_component_structure(toggle_graph):
    comps = path_complete_components(max_lift(toggle_graph))
    assert any(helpers.is_isomorphic(c, toggle_graph) for c in comps)
    assert any(helpers.is_isomorphic(c, common_lyapunov_graph(2)) for c in comps)


def test_min_lift_of_memory_one(memory_one_graph):
    lifted = min_lift(memory_one_graph)
    assert edge_set(lifted) == {
        ("{a}", "{a}", 1), ("{a}", "{b}", 2), ("{b}", "{a}", 1), ("{b}", "{b}", 2),
        ("{a}", "{a,b}", 1), ("{a}", "{a,b}", 2),
        ("{b}", "{a,b}", 1), ("{b}", "{a,b}", 2),
        ("{a,b}", "{a}", 1), ("{a,b}", "{b}", 2),
        ("{a,b}", "{a,b}", 1), ("{a,b}", "{a,b}", 2),
    }


def test_powerset_lifts_of_clf():
    g0 = common_lyapunov_graph(2)
    assert helpers.is_isomorphic(max_lift(g0), g0)
    assert helpers.is_isomorphic(min_lift(g0), g0)


def test_full_set_loops_for_complete_input(memory_one_graph):
    # memory_one_graph is complete, so the full node set carries every loop
    lifted = min_lift(memory_one_graph)
    assert {("{a,b}", "{a,b}", 1), ("{a,b}", "{a,b}", 2)} <= edge_set(lifted)


def test_full_set_loops_for_co_complete_input(memory_one_graph):
    lifted = max_lift(transpose(memory_one_graph))
    assert {("{a,b}", "{a,b}", 1), ("{a,b}", "{a,b}", 2)} <= edge_set(lifted)


def test_powerset_lift_node_cap():
    nodes = [NodeId.atom(f"n{k}") for k in range(13)]
    g = make_graph(1, nodes, [(a, b, 1) for a in nodes for b in nodes])
    with pytest.raises(ValueError):
        max_lift(g)


def _lift_corpus(seed, count):
    """Seeded random graphs (not necessarily path-complete) and random
    path-complete graphs, 1-3 labels and up to 7 nodes."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2:
            yield helpers.random_graph(rng, int(rng.integers(1, 8)),
                                       int(rng.integers(1, 4)), float(rng.random()))
        else:
            yield helpers.random_path_complete_graph(rng, max_nodes=7, max_labels=3)


def test_subset_lifts_match_all_pairs_oracle(toggle_graph, memory_one_graph):
    for g in [toggle_graph, memory_one_graph, *_lift_corpus(61, 24)]:
        assert helpers.same_graph(max_lift(g), helpers.subset_lift_by_pairs(g, "dst")), str(g)
        assert helpers.same_graph(min_lift(g), helpers.subset_lift_by_pairs(g, "src")), str(g)


def test_min_and_backward_lifts_are_transposes():
    for g in _lift_corpus(62, 40):
        assert min_lift(g) == transpose(max_lift(transpose(g))), str(g)
        assert _quiet(backward_composition_lift, g) == \
            transpose(_quiet(composition_lift, transpose(g))), str(g)


@pytest.mark.parametrize("kind", ["max", "min", "comp", "backcomp"])
def test_lift_arrays_are_the_swapped_twin_arrays_of_the_transpose(kind):
    for g in _lift_corpus(63, 30):
        nodes, src, dst, label = lifts._lift_arrays(g, kind)
        twin_nodes, twin_src, twin_dst, twin_label = lifts._lift_arrays(
            transpose(g), lifts._TWIN[kind])
        assert nodes == twin_nodes
        edges = set(zip(src.tolist(), dst.tolist(), label.tolist()))
        assert len(edges) == src.size
        assert edges == set(zip(twin_dst.tolist(), twin_src.tolist(), twin_label.tolist()))


@pytest.mark.parametrize("kind", ["sum:1_0", "sum: 2", "sum:2 ", "sum:+2", "sum:-2", "sum:٢",
                                  "sum:²", "sum:2,2", "debruijn:2,0_3", "debruijn:2",
                                  "debruijn:+2,3", "debruijn:2,3,4"])
def test_lift_kind_counts_are_plain_ascii_digits(toggle_graph, kind):
    with pytest.raises(ValueError, match="bad lift kind"):
        lifts.lift(toggle_graph, kind)
    mats = helpers.random_matrix_set(np.random.default_rng(6), 2, 2)
    cert = rho_bound(toggle_graph, mats, "dual").certificate
    with pytest.raises(ValueError, match="bad lift kind"):
        transport_certificate(cert, kind, toggle_graph, mats)


def _structure(node):
    """A node's ``kind``/``value`` tree, with children expanded recursively."""
    assert type(node) is NodeId
    if node.kind in ("atom", "word"):
        return node.kind, node.value
    if node.kind == "comp":
        return node.kind, (_structure(node.value[0]), node.value[1])
    return node.kind, tuple(_structure(c) for c in node.value)


_COPIERS = [copy.copy, copy.deepcopy] + [
    lambda g, p=p: pickle.loads(pickle.dumps(g, protocol=p))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)]


def test_lifted_graphs_survive_copy_and_pickle(toggle_graph, memory_one_graph):
    graphs = [sum_lift(toggle_graph, 2), max_lift(memory_one_graph),
              _quiet(composition_lift, memory_one_graph), de_bruijn(2, 3)]
    for g in graphs:
        for copier in _COPIERS:
            back = copier(g)
            assert back == g
            assert [_structure(s) for s in back.nodes] == [_structure(s) for s in g.nodes]
            for (a, b, i), (a2, b2, i2) in zip(back.edges, g.edges):
                assert (_structure(a), _structure(b), i) == (_structure(a2), _structure(b2), i2)


def test_equality_and_hashing_read_the_table(toggle_graph, memory_one_graph):
    # a built graph and its copies keep only their read-only edge table until
    # ``edges`` is read; comparing and hashing never make the edge tuples
    for g in (sum_lift(toggle_graph, 2), max_lift(memory_one_graph), min_lift(toggle_graph),
              de_bruijn(2, 3), transpose(memory_one_graph)):
        copies = [copier(g) for copier in _COPIERS]
        assert all(back == g and hash(back) == hash(g) for back in copies)
        for h in (g, *copies):
            assert "edges" not in h.__dict__
            assert not any(column.flags.writeable for column in h._table)
        edges = g.edges
        assert type(edges) is tuple
        assert [type(x) for e in edges for x in e] == [NodeId, NodeId, int] * len(edges)
        for h in (g, *copies):
            with pytest.raises(dataclasses.FrozenInstanceError):
                h.edges = edges
            with pytest.raises(dataclasses.FrozenInstanceError):
                del h.edges
        assert all(copier(g) == g and copier(g).edges == edges for copier in _COPIERS)
    one = make_graph(2, [A, B], [(A, B, 1), (B, A, 2)])
    same = make_graph(2, [B, A], [(B, A, 2), (A, B, 1), (A, B, 1)])
    relabelled = make_graph(2, [A, B], [(A, B, 2), (B, A, 2)])
    assert one == same and hash(one) == hash(same)
    assert one != relabelled and hash(one) != hash(relabelled)
    assert all("edges" not in h.__dict__ for h in (one, same, relabelled))
    assert one != helpers.graph_by_tuples(2, one.nodes, one.edges)  # an oracle never equals


def test_index_space_chain_never_builds_edge_tuples(demo_graph):
    # lift -> is_path_complete -> transport -> verify -> rho_bound reads only
    # the integer edge tables of the graphs it builds
    mats = helpers.random_monomial_matrix_set(np.random.default_rng(3), n=3, size=2)
    g = make_graph(2, demo_graph.nodes, demo_graph.edges)
    certs = {f: rho_bound(g, mats, f).certificate for f in ("primal", "dual")}
    built = [g]
    for kind, build, flavors in (("sum:2", lambda h: sum_lift(h, 2), ("primal", "dual")),
                                 ("max", max_lift, ("dual",)), ("min", min_lift, ("primal",)),
                                 ("comp", composition_lift, ("primal",)),
                                 ("backcomp", backward_composition_lift, ("primal",))):
        lifted = _quiet(build, g)
        assert is_path_complete(lifted)
        for flavor in flavors:
            moved = _quiet(transport_certificate, certs[flavor], kind, g, mats)
            assert verify_certificate(lifted, mats, moved).ok
            bound = rho_bound(lifted, mats, flavor)
            assert verify_certificate(lifted, mats, bound.certificate).ok
        built.append(lifted)
    for h in (de_bruijn(2, 3), transpose(de_bruijn(2, 3)), transpose(g)):
        assert is_path_complete(h)
        for flavor in ("primal", "dual"):
            assert verify_certificate(h, mats, rho_bound(h, mats, flavor).certificate).ok
        built.append(h)
    assert ["edges" in h.__dict__ for h in built] == [False] * len(built)


# --------------------------------------------------------- composition lift

def test_composition_lift_of_memory_one(memory_one_graph):
    lifted = _quiet(composition_lift, memory_one_graph)
    assert len(lifted.nodes) == 4
    assert edge_set(lifted) == {
        ("a∘1", "a∘1", 1), ("a∘2", "a∘1", 2),
        ("a∘1", "b∘2", 1), ("a∘2", "b∘2", 2),
        ("b∘1", "a∘1", 1), ("b∘2", "a∘1", 2),
        ("b∘1", "b∘2", 1), ("b∘2", "b∘2", 2),
    }


def test_composition_lift_of_clf_single_mode():
    g0 = common_lyapunov_graph(1)
    assert helpers.is_isomorphic(_quiet(composition_lift, g0), g0)


def test_composition_lift_contains_dual_component(memory_one_graph):
    comps = path_complete_components(_quiet(composition_lift, memory_one_graph))
    target = transpose(memory_one_graph)
    assert any(helpers.is_isomorphic(c, target) for c in comps)


def test_composition_lift_warns_on_non_minimal_input():
    g = make_graph(2, [A, B],
                   [(A, A, 1), (A, A, 2), (A, B, 1), (B, A, 1), (B, B, 2)])
    with pytest.warns(UserWarning):
        composition_lift(g)
    # strongly connected but not path-complete: label 2 never occurs
    cycle = make_graph(2, [A, B], [(A, B, 1), (B, A, 1)])
    assert not is_path_complete(cycle)
    for lift in (composition_lift, backward_composition_lift):
        with pytest.warns(UserWarning, match="not a strongly connected"):
            lift(cycle)
    # strongly connected and edge-minimal, hence path-complete: no warning
    for g in (common_lyapunov_graph(2), de_bruijn(2, 2)):
        for lift in (composition_lift, backward_composition_lift):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lift(g)


def test_one_graph_runs_the_minimality_search_once(monkeypatch):
    searches, search = [], graphs._minimality

    def counted(g):
        searches.append(g)
        return search(g)
    monkeypatch.setattr(graphs, "_minimality", counted)
    minimal = helpers.loop_pair_graph()
    doubled = make_graph(1, [A, B], [(A, A, 1), (A, B, 1), (B, A, 1), (B, B, 1)])
    cycle = make_graph(2, [A, B], [(A, B, 1), (B, A, 1)])  # not path-complete
    for call in (composition_lift, backward_composition_lift, check_assumption_minimal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(minimal)
    assert check_assumption_minimal(doubled) == (True, False)
    for g in (doubled, cycle):  # every lift of a non-minimal graph warns
        for lift in (composition_lift, backward_composition_lift, composition_lift):
            with pytest.warns(UserWarning, match="not a strongly connected"):
                lift(g)
    for _ in range(2):  # and so does every check of a graph that is not path-complete
        with pytest.warns(UserWarning, match="not path-complete"):
            assert check_assumption_minimal(cycle) == (True, False)
    assert searches == [minimal, doubled, cycle]


def test_composition_lifts_in_threads_leave_the_warning_filters_alone(monkeypatch):
    # the first lift leaves its minimality check while the second is inside it
    # on two graphs: neither thread waits for the other's remembered value
    flags, inside, left = graphs.completeness_flags, threading.Event(), threading.Event()
    waited = []

    def interleaved(g):
        if threading.current_thread().name == "first":
            waited.append(inside.wait(5))
        else:
            inside.set()
            waited.append(left.wait(5))
        return flags(g)

    def work(lift):
        lift(common_lyapunov_graph(2))
        if threading.current_thread().name == "first":
            left.set()

    monkeypatch.setattr(graphs, "completeness_flags", interleaved)
    before = list(warnings.filters)
    threads = [threading.Thread(target=work, args=(lift,), name=name) for lift, name in
               ((composition_lift, "first"), (backward_composition_lift, "second"))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert waited == [True, True]
    assert warnings.filters == before


# ------------------------------------------------- backward composition lift

def test_backward_composition_recovers_original(memory_one_graph):
    lifted = _quiet(backward_composition_lift, transpose(memory_one_graph))
    comps = path_complete_components(lifted)
    assert any(helpers.is_isomorphic(c, memory_one_graph) for c in comps)


def test_backward_composition_of_single_mode_clf():
    g0 = common_lyapunov_graph(1)
    assert helpers.is_isomorphic(_quiet(backward_composition_lift, g0), g0)


def test_backward_composition_of_clf_two_modes():
    lifted = _quiet(backward_composition_lift, common_lyapunov_graph(2))
    assert len(lifted.nodes) == 2 and len(lifted.edges) == 4


# ----------------------------------------------------------------- De Bruijn

def test_de_bruijn_level_one_is_clf():
    assert helpers.is_isomorphic(de_bruijn(2, 1), common_lyapunov_graph(2))


def test_de_bruijn_level_two(memory_one_graph):
    g = de_bruijn(2, 2)
    assert len(g.nodes) == 2 and len(g.edges) == 4
    out_pairs = {(str(a), i) for a, _, i in g.edges}
    assert out_pairs == {("(1)", 1), ("(1)", 2), ("(2)", 1), ("(2)", 2)}
    assert helpers.is_isomorphic(g, memory_one_graph)


def test_de_bruijn_level_three():
    g = de_bruijn(2, 3)
    assert len(g.nodes) == 4 and len(g.edges) == 8


def test_de_bruijn_validation():
    for m, l in ((0, 1), (2, 0), (True, True), (True, 2), (2, True), (2.0, 2)):
        with pytest.raises(ValueError):
            de_bruijn(m, l)


def test_de_bruijn_complete_and_dual_co_complete():
    for m, l in ((2, 2), (2, 3), (3, 2)):
        g = de_bruijn(m, l)
        assert completeness_flags(g)[0]
        assert completeness_flags(transpose(g))[1]
    # with memory, every node's incoming edges all carry its last letter,
    # so the graph itself is not co-complete
    assert completeness_flags(de_bruijn(2, 2)) == (True, False)


# ---------------------------------------------------------- lift properties

def _embedded_copy(lift_kind, g, lifted):
    if lift_kind == "sum":
        embed = {s: NodeId.multiset([s, s]) for s in g.nodes}
    else:
        embed = {s: NodeId.subset([s]) for s in g.nodes}
    image = induced_subgraph(lifted, list(embed.values()))
    expected = make_graph(g.alphabet_size, list(embed.values()),
                          [(embed[a], embed[b], i) for a, b, i in g.edges])
    return image, expected


def test_lifts_simulate_their_input():
    # the canonical copies make the lifted graph simulate the original,
    # so the backtracking search must always find a witness
    from pclyap import find_simulation
    rng = np.random.default_rng(55)
    for _ in range(10):
        g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=2)
        for lifted in (sum_lift(g, 2), max_lift(g), min_lift(g)):
            witness = find_simulation(lifted, g)
            assert witness is not None
            lifted_edges = set(lifted.edges)
            for a, b, i in g.edges:
                assert (witness[a], witness[b], i) in lifted_edges


@pytest.mark.parametrize("seed", range(4))
def test_lift_outputs_path_complete_and_embed_input(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(8):
        g = helpers.random_path_complete_graph(rng, max_nodes=4, max_labels=3)
        lifts = {
            "sum": sum_lift(g, 2),
            "max": max_lift(g),
            "min": min_lift(g),
            "comp": _quiet(composition_lift, g),
            "backcomp": _quiet(backward_composition_lift, g),
        }
        for kind, lifted in lifts.items():
            assert is_path_complete(lifted), (kind, str(g))
        for kind in ("sum", "max", "min"):
            image, expected = _embedded_copy(kind, g, lifts[kind])
            assert image == expected, (kind, str(g))
            assert is_path_complete(image)
            assert len(strongly_connected_components(image)) == 1


# ------------------------------------------- index space against tuple sorts

_BUILDERS = {
    "transpose": (transpose, helpers.transpose_by_tuples),
    "sum:2": (lambda g: sum_lift(g, 2), lambda g: helpers.sum_lift_by_matching(g, 2)),
    "sum:3": (lambda g: sum_lift(g, 3), lambda g: helpers.sum_lift_by_matching(g, 3)),
    "max": (max_lift, helpers.max_lift_by_loop),
    "min": (min_lift, helpers.min_lift_by_loop),
    "comp": (lambda g: _quiet(composition_lift, g), helpers.composition_by_tuples),
    "backcomp": (lambda g: _quiet(backward_composition_lift, g),
                 helpers.backward_composition_by_tuples),
}


def _assert_same_tuples(g, kind):
    built, oracle = (f(g) for f in _BUILDERS[kind])
    assert helpers.same_graph(built, oracle), (kind, str(g))
    assert [type(s) for s in built.nodes] == [type(s) for s in oracle.nodes]
    _assert_table_read_only(built)


def _assert_table_read_only(g):
    assert not any(column.flags.writeable for column in g._table)


def _tuple_corpus(seed, count):
    """Random graphs built with ``make_graph`` and checked against the tuple
    oracle, 1-3 labels and 1-5 nodes named ``n<k>`` with k below 30, so
    names with multi-digit suffixes sort apart from their numbers."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        names = sorted(rng.choice(30, size=int(rng.integers(1, 6)), replace=False))
        nodes = [NodeId.atom(f"n{x}") for x in names]
        M = int(rng.integers(1, 4))
        edges = [(a, b, i) for a in nodes for b in nodes for i in range(1, M + 1)
                 if rng.random() < 0.4]
        edges += edges[:int(rng.integers(0, 3))]  # duplicates collapse
        expected = helpers.graph_by_tuples(M, nodes, edges)
        g = make_graph(M, list(reversed(nodes)), edges)
        assert helpers.same_graph(g, expected)
        assert [type(s) for s in g.nodes] == [NodeId] * len(nodes)
        _assert_table_read_only(g)
        yield g


def test_index_space_builders_match_tuple_oracles():
    for g in _tuple_corpus(71, 30):
        for kind in _BUILDERS:
            _assert_same_tuples(g, kind)
    for g in (helpers.demo_graph(), helpers.branching_graph(), de_bruijn(2, 3)):
        for kind in _BUILDERS:
            _assert_same_tuples(g, kind)


def test_de_bruijn_matches_word_oracle():
    # at M = 11 the word "(10,1)" sorts before "(2,1)", so node order is not index order
    for M, l in ((1, 1), (1, 4), (2, 1), (2, 4), (3, 3), (11, 1), (11, 2), (11, 3)):
        g, oracle = de_bruijn(M, l), helpers.de_bruijn_by_words(M, l)
        assert helpers.same_graph(g, oracle), (M, l)
        _assert_table_read_only(g)
    assert [str(s) for s in de_bruijn(11, 2).nodes[:4]] == ["(1)", "(10)", "(11)", "(2)"]


@st.composite
def named_graphs(draw):
    names = draw(st.lists(st.sampled_from(["a", "b", "n1", "n2", "n10", "n11", "n20", "x9"]),
                          min_size=1, max_size=5, unique=True))
    nodes = [NodeId.atom(s) for s in names]
    M = draw(st.integers(1, 3))
    picks = st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1),
                      st.integers(1, M))
    raw = draw(st.lists(picks, max_size=12))
    return make_graph(M, nodes, [(nodes[a], nodes[b], i) for a, b, i in raw])


@given(named_graphs(), st.sampled_from(sorted(_BUILDERS)))
@settings(max_examples=150, deadline=None)
def test_index_space_builders_match_tuple_oracles_fuzz(g, kind):
    assert helpers.same_graph(make_graph(g.alphabet_size, g.nodes, g.edges),
                              helpers.graph_by_tuples(g.alphabet_size, g.nodes, g.edges))
    _assert_same_tuples(g, kind)


# ------------------------------------------------------------ power-set cap

def _subset_lift_size(g, builder):
    lifted = builder(g)
    return len(lifted.nodes) + len(lifted.edges)


@pytest.mark.parametrize("builder", [max_lift, min_lift])
def test_powerset_cap_is_exact_work(monkeypatch, builder):
    g = helpers.demo_graph()
    count = _subset_lift_size(g, builder)  # (2^k - 1) + sum_i sum_A (2^|post_i(A)| - 1)
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", count)
    assert helpers.same_graph(builder(g), (helpers.max_lift_by_loop if builder is max_lift
                                           else helpers.min_lift_by_loop)(g))
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", count - 1)

    def build(*args, **kwargs):
        raise AssertionError("started building")
    monkeypatch.setattr(lifts.NodeId, "_sorted_subset", build)
    with pytest.raises(ValueError, match="limit") as info:
        builder(g)
    assert f"would have {count} nodes and edges" in str(info.value)
    # the nodes alone are counted first
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", 2 ** len(g.nodes) - 2)
    with pytest.raises(ValueError, match=f"would have {2 ** len(g.nodes) - 1} nodes,"):
        builder(g)
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", count)
    with pytest.raises(AssertionError, match="started building"):
        builder(g)


def test_powerset_cap_refuses_large_bases_before_building(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("started building")
    monkeypatch.setattr(lifts.NodeId, "_sorted_subset", build)
    nodes = [NodeId.atom(f"n{k}") for k in range(18)]  # 2^18 - 1 nodes alone
    g = make_graph(1, nodes, [(a, a, 1) for a in nodes])
    for builder in (max_lift, min_lift):
        with pytest.raises(ValueError, match="262143 nodes,"):
            builder(g)
    # 12 nodes that all lead to the first: 4,095 nodes and one edge from each
    funnel = make_graph(1, nodes[:12], [(a, nodes[0], 1) for a in nodes[:12]])
    with pytest.raises(AssertionError, match="started building"):
        max_lift(funnel)


# ---------------------------------------------------------- composition cap

@pytest.mark.parametrize("builder, oracle", [
    (composition_lift, helpers.composition_by_tuples),
    (backward_composition_lift, helpers.backward_composition_by_tuples)])
def test_composition_cap_is_exact_work(monkeypatch, builder, oracle):
    g = helpers.demo_graph()
    count = (len(g.nodes) + len(g.edges)) * g.alphabet_size  # |S| M nodes, |E| M edges
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", count)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lifted = builder(g)
    assert helpers.same_graph(lifted, oracle(g))
    assert len(lifted.nodes) + len(lifted.edges) == count
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", count - 1)

    def build(*args, **kwargs):
        raise AssertionError("started building")
    monkeypatch.setattr(lifts.NodeId, "comp", build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the minimality warning, too
        with pytest.raises(ValueError, match=f"would have {count} nodes and edges, beyond"):
            builder(g)


def test_lifts_of_a_large_alphabet_loop_over_labels_in_use():
    a = NodeId.atom("a")
    g = make_graph(10 ** 11, [a], [(a, a, 1), (a, a, 7)])
    assert not is_path_complete(g)
    assert completeness_flags(g) == (False, False)
    lifted = sum_lift(g, 2)
    assert lifted.alphabet_size == 10 ** 11
    assert [i for _, _, i in lifted.edges] == [1, 7]
    assert [i for _, _, i in max_lift(g).edges] == [1, 7]


# ------------------------------------------------------- the last lift built

MEMO_PAIRS = [("sum:2", "primal"), ("sum:2", "dual"), ("sum:3", "primal"), ("sum:3", "dual"),
              ("max", "dual"), ("min", "primal"), ("comp", "primal"), ("comp", "dual"),
              ("backcomp", "primal"), ("backcomp", "dual")]  # every admitted pair, and sum:3


@pytest.fixture
def builds(monkeypatch):
    """The (graph, kind) of every run of the lift builder, starting with no
    lift remembered."""
    runs = []
    build = lifts._lift_arrays

    def counted(g, kind):
        runs.append((g, kind))
        return build(g, kind)
    monkeypatch.setattr(lifts, "_lift_arrays", counted)
    monkeypatch.setattr(lifts, "_last", None)
    return runs


def _same_certificate(a, b):
    """Equal bit for bit: flavor, gamma, node order and every vector."""
    return ((a.flavor, a.gamma, list(a.vectors)) == (b.flavor, b.gamma, list(b.vectors))
            and all(a.vectors[s].tobytes() == b.vectors[s].tobytes() for s in a.vectors))


def _memo_corpus(seed, count):
    """Seeded path-complete graphs with monomial modes, which admit every
    pair, and the base graph's primal and dual certificates."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = helpers.random_path_complete_graph(rng, max_nodes=4, max_labels=2)
        mats = helpers.random_monomial_matrix_set(rng, int(rng.integers(1, 4)), g.alphabet_size)
        yield g, mats, {f: rho_bound(g, mats, f).certificate for f in ("primal", "dual")}


def test_transport_after_lift_is_the_transport_without_it(monkeypatch, builds):
    for g, mats, certs in _memo_corpus(2021, 6):
        for kind, flavor in MEMO_PAIRS:
            monkeypatch.setattr(lifts, "_last", None)
            cold = transport_certificate(certs[flavor], kind, g, mats)
            _quiet(lifts.lift, g, kind)
            del builds[:]
            warm = transport_certificate(certs[flavor], kind, g, mats)
            assert builds == [], (kind, flavor)  # read from the lift just built
            assert _same_certificate(warm, cold), (kind, flavor)


def test_one_build_per_graph_and_kind(builds, demo_graph, toggle_graph):
    mats = helpers.random_monomial_matrix_set(np.random.default_rng(7), n=2, size=2)
    cert = rho_bound(demo_graph, mats, "dual").certificate
    lifted = max_lift(demo_graph)
    first = transport_certificate(cert, "max", demo_graph, mats)
    second = transport_certificate(cert, "max", demo_graph, mats)
    assert builds == [(demo_graph, "max")]
    assert _same_certificate(first, second) and list(first.vectors) == list(lifted.nodes)
    # an equal graph that is another object reads the same lift
    copy_of = serialize.graph_from_dict(serialize.graph_to_dict(demo_graph))
    assert copy_of == demo_graph and copy_of is not demo_graph
    assert _same_certificate(transport_certificate(cert, "max", copy_of, mats), first)
    assert len(builds) == 1
    # another kind, or another graph, builds again
    transport_certificate(cert, "sum:2", demo_graph, mats)
    assert builds[1:] == [(demo_graph, "sum:2")]
    sum_lift(demo_graph, 2)  # sum_lift goes through lift() too
    assert builds[2:] == [(demo_graph, "sum:2")]
    transport_certificate(cert, "sum:2", demo_graph, mats)
    assert len(builds) == 3
    max_lift(toggle_graph)
    transport_certificate(cert, "max", demo_graph, mats)
    assert builds[3:] == [(toggle_graph, "max"), (demo_graph, "max")]
    # lift() never reads the memo, so its size check runs on every call
    max_lift(demo_graph)
    max_lift(demo_graph)
    assert builds[5:] == [(demo_graph, "max")] * 2


def test_lift_failures_leave_the_memo_alone(monkeypatch, builds, demo_graph):
    lifted = max_lift(demo_graph)
    remembered = lifts._last
    for bad in (lambda: lifts.lift(demo_graph, "sum:0"), lambda: sum_lift(demo_graph, 2.0),
                lambda: lifts.lift(demo_graph, "boom")):
        with pytest.raises(ValueError):
            bad()
    monkeypatch.setattr(lifts, "LIFT_SIZE_LIMIT", 1)
    with pytest.raises(ValueError, match="limit"):
        min_lift(demo_graph)
    assert lifts._last is remembered
    assert remembered == (demo_graph, ("max", ()), lifted) and remembered[2] is lifted


@pytest.mark.filterwarnings("ignore:(backward_)?composition_lift:UserWarning")
def test_threads_sharing_the_memo_read_their_own_lift(builds):
    # each thread lifts its own (graph, kind) and transports along it, while
    # the others replace the one remembered lift as fast as they can
    cases = [(g, mats, certs[flavor], kind)  # two kinds per graph and certificate
             for (g, mats, certs), (flavor, kinds) in zip(_memo_corpus(11, 3), [
                 ("dual", ("max", "sum:3")), ("primal", ("comp", "min")),
                 ("dual", ("sum:2", "backcomp"))])
             for kind in kinds]
    expected = [transport_certificate(cert, kind, g, mats) for g, mats, cert, kind in cases]
    wrong, finished = [], []

    def work(k):
        g, mats, cert, kind = cases[k]
        for _ in range(30):
            lifts.lift(g, kind)
            if not _same_certificate(transport_certificate(cert, kind, g, mats), expected[k]):
                wrong.append(k)
        finished.append(k)  # not reached when a call raised
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(cases))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and sorted(finished) == list(range(len(cases)))


def _refusals():
    """A refused pair, a singular mode along backcomp and a transport that
    fails on the lift, each with its base graph, modes and certificate."""
    rng = np.random.default_rng(27)
    g = helpers.toggle_graph()
    mats = helpers.random_matrix_set(rng, n=2, size=2)
    yield "max", g, mats, rho_bound(g, mats, "primal").certificate, ValueError
    g0 = common_lyapunov_graph(1)
    yield ("backcomp", g0, MatrixSet.from_matrices([np.zeros((2, 2))]),
           Certificate("primal", 1.0, {g0.nodes[0]: np.ones(2)}), ValueError)
    yield ("backcomp", g0, MatrixSet.from_matrices([np.array([[1.0, 1.0], [0.0, 1.0]])]),
           Certificate("primal", 2.0, {g0.nodes[0]: np.array([1.0, 1.1])}), TransportError)


@pytest.mark.parametrize("case", range(3), ids=["max-primal", "singular-backcomp",
                                                "transport-error"])
def test_refusals_are_the_same_after_a_lift(monkeypatch, builds, case):
    kind, g, mats, cert, error = list(_refusals())[case]
    messages = []
    for lifted_first in (False, True):
        monkeypatch.setattr(lifts, "_last", None)
        if lifted_first:
            _quiet(lifts.lift, g, kind)
        with pytest.raises(error) as info:
            _quiet(transport_certificate, cert, kind, g, mats)
        messages.append((type(info.value), str(info.value)))
    assert messages[0] == messages[1]
    assert len(builds) == (1 if case == 0 else 2)  # the refused pair never reads a lift
