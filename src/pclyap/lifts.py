"""Graph lifts: T-sum, max, min, composition, backward composition, De Bruijn.

Each lift maps path-complete graphs to path-complete graphs while changing
which Lyapunov inequalities the graph encodes.  Lifted nodes keep
structured identities (multisets, subsets, composition pairs, words) so
they stay traceable to the nodes they came from.

The max lift indexes subsets by bitmask and emits ``(A, B, i)`` for every
nonempty submask ``B`` of ``post_i(A) = post_i(A - {a}) | post_i({a})``,
``a`` the lowest node of ``A``, so its work follows its output.  The
primal/dual twins are transposes: ``min_lift(g)`` is
``transpose(max_lift(transpose(g)))``, and ``backward_composition_lift``
relates to ``composition_lift`` the same way.
"""

from __future__ import annotations

import itertools
import warnings

from .graphs import (
    LabeledGraph,
    NodeId,
    _label_successor_masks,
    check_assumption_minimal,
    is_path_complete,
    make_graph,
    transpose,
)

POWERSET_NODE_LIMIT = 12


def sum_lift(g: LabeledGraph, T: int) -> LabeledGraph:
    """Lift whose nodes are all multisets of ``T`` nodes of ``g``.

    A lifted edge ``(abar, bbar, i)`` exists iff the two multisets can be
    matched one-to-one so that every matched pair is an ``i``-labeled edge
    of ``g``.  Matching existence is decided by bipartite perfect matching
    on the compatibility graph, which makes the implicit pairing in the
    multiset-of-edges condition exact.
    """
    if not isinstance(T, int) or T < 1:
        raise ValueError("T must be an integer >= 1")
    multisets = [NodeId.multiset(c)
                 for c in itertools.combinations_with_replacement(g.nodes, T)]
    members = {m: tuple(sorted(c)) for m, c in zip(
        multisets, itertools.combinations_with_replacement(g.nodes, T))}
    edge_set = set(g.edges)
    edges = []
    for abar in multisets:
        for bbar in multisets:
            for i in range(1, g.alphabet_size + 1):
                if _has_perfect_matching(members[abar], members[bbar], i, edge_set):
                    edges.append((abar, bbar, i))
    return make_graph(g.alphabet_size, multisets, edges)


def lift(g: LabeledGraph, kind: str) -> LabeledGraph:
    """The lift of ``g`` named by ``kind``: ``sum:T``, ``max``, ``min``,
    ``comp`` or ``backcomp``."""
    if kind.startswith("sum:"):
        try:
            T = int(kind[len("sum:"):])
        except ValueError:
            raise ValueError(f"bad sum lift {kind!r}: expected sum:T") from None
        return sum_lift(g, T)
    # looked up at call time, so rebinding a builder's module name reaches here
    builders = {"max": max_lift, "min": min_lift, "comp": composition_lift,
                "backcomp": backward_composition_lift}
    if kind not in builders:
        raise ValueError(f"unknown lift kind {kind!r} "
                         "(expected sum:T, max, min, comp or backcomp)")
    return builders[kind](g)


def _has_perfect_matching(srcs, dsts, label, edge_set):
    """Kuhn's augmenting-path matching between multiset slots."""
    T = len(srcs)
    compat = [[(srcs[k], dsts[l], label) in edge_set for l in range(T)] for k in range(T)]
    match_of_dst = [-1] * T

    def augment(k, visited):
        for l in range(T):
            if compat[k][l] and not visited[l]:
                visited[l] = True
                if match_of_dst[l] < 0 or augment(match_of_dst[l], visited):
                    match_of_dst[l] = k
                    return True
        return False

    return all(augment(k, [False] * T) for k in range(T))


def max_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on nonempty subsets; edge (A, B, i) iff every b in B is reached
    from some a in A by an i-edge of ``g``."""
    return _max_lift(g)


def min_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on nonempty subsets; edge (A, B, i) iff every a in A reaches
    some b in B by an i-edge of ``g``."""
    return transpose(_max_lift(transpose(g)))


# public builders never call each other, so wrapping one sees only its own calls
def _max_lift(g):
    k = len(g.nodes)
    if k > POWERSET_NODE_LIMIT:
        raise ValueError(
            f"power-set lift supports at most {POWERSET_NODE_LIMIT} nodes, got {k}")
    masks = _label_successor_masks(g)
    subsets = [None] + [NodeId.subset([g.nodes[b] for b in range(k) if A >> b & 1])
                        for A in range(1, 1 << k)]
    edges = []
    for i in range(1, g.alphabet_size + 1):
        post = [0] * (1 << k)
        for A in range(1, 1 << k):
            low = A & -A
            post[A] = post[A ^ low] | masks[i][low.bit_length() - 1]
            B = post[A]
            while B:
                edges.append((subsets[A], subsets[B], i))
                B = (B - 1) & post[A]
    return make_graph(g.alphabet_size, subsets[1:], edges)


def composition_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on pairs ``s∘i``; each edge (a, b, i) of ``g`` spawns, for every
    mode j, the lifted edge (a∘j, b∘i, j).

    Warns when ``g`` is not a strongly connected edge-minimal path-complete
    graph; the construction still goes through, path-completeness of the
    result only needs path-completeness of ``g``.
    """
    _warn_if_not_minimal(g, "composition_lift")
    return _composition(g)


def backward_composition_lift(g: LabeledGraph) -> LabeledGraph:
    """Composition lift oriented for inverse dynamics: each edge (a, b, i)
    of ``g`` spawns, for every mode j, the lifted edge (a∘i, b∘j, j).

    The edge rule is chosen so that node functions composed with inverted
    dynamics satisfy exactly the original inequalities along lifted edges.
    """
    _warn_if_not_minimal(g, "backward_composition_lift")
    return transpose(_composition(transpose(g)))


def _composition(g):
    nodes = [NodeId.comp(s, i) for s in g.nodes for i in range(1, g.alphabet_size + 1)]
    edges = [(NodeId.comp(a, j), NodeId.comp(b, i), j)
             for a, b, i in g.edges for j in range(1, g.alphabet_size + 1)]
    return make_graph(g.alphabet_size, nodes, edges)


def _warn_if_not_minimal(g, name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sc, minimal = check_assumption_minimal(g)
    if not (sc and minimal and is_path_complete(g)):
        warnings.warn(
            f"{name}: input is not a strongly connected, edge-minimal "
            "path-complete graph; proceeding anyway")


def de_bruijn(alphabet_size: int, l: int) -> LabeledGraph:
    """De Bruijn graph of memory ``l - 1``: nodes are words of length
    ``l - 1`` over the alphabet, and each node shifts in a new letter j via
    an edge labeled j."""
    if not isinstance(alphabet_size, int) or alphabet_size < 1:
        raise ValueError("alphabet_size must be an integer >= 1")
    if not isinstance(l, int) or l < 1:
        raise ValueError("l must be an integer >= 1")
    words = list(itertools.product(range(1, alphabet_size + 1), repeat=l - 1))
    nodes = {w: NodeId.word(w) for w in words}
    edges = []
    for w in words:
        for j in range(1, alphabet_size + 1):
            b = (w + (j,))[1:] if l > 1 else ()
            edges.append((nodes[w], nodes[b], j))
    return make_graph(alphabet_size, list(nodes.values()), edges)
