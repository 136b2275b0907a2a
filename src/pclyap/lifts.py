"""Graph lifts: T-sum, max, min, composition, backward composition, De Bruijn.

Each lift maps path-complete graphs to path-complete graphs while changing
which Lyapunov inequalities the graph encodes.  Lifted nodes keep
structured identities (multisets, subsets, composition pairs, words) so
they stay traceable to the nodes they came from.

The T-sum lift works from the edge list: every multiset of T ``i``-labeled
edges joins the multiset of its sources to the multiset of its targets.
The max lift indexes subsets by bitmask and emits ``(A, B, i)`` for every
nonempty submask ``B`` of ``post_i(A) = post_i(A - {a}) | post_i({a})``,
``a`` the lowest node of ``A``.  Both do work that follows their output.
The primal/dual twins are transposes: ``min_lift(g)`` is
``transpose(max_lift(transpose(g)))``, and ``backward_composition_lift``
relates to ``composition_lift`` the same way.

Sizes are checked before anything is built: the subset lifts take at most
``POWERSET_NODE_LIMIT`` base nodes, and a T-sum lift or De Bruijn graph at
most ``LIFT_SIZE_LIMIT`` nodes plus candidate edges, that is
``C(|S|+T-1, T) + sum_i C(|E_i|+T-1, T)`` or ``M^(l-1) + M^l``.
"""

from __future__ import annotations

import itertools
import math
import warnings

from .graphs import (
    LabeledGraph,
    NodeId,
    _label_successor_masks,
    check_assumption_minimal,
    make_graph,
    transpose,
)

POWERSET_NODE_LIMIT = 12
LIFT_SIZE_LIMIT = 200_000


def sum_lift(g: LabeledGraph, T: int) -> LabeledGraph:
    """Lift whose nodes are all multisets of ``T`` nodes of ``g``.

    Every multiset of ``T`` ``i``-labeled edges of ``g`` gives the lifted
    edge, labeled ``i``, from the multiset of its sources to the multiset
    of its targets.
    """
    if type(T) is not int or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")
    by_label = [[(a, b) for a, b, j in g.edges if j == i]
                for i in range(1, g.alphabet_size + 1)]
    _check_size(f"sum:{T} lift", math.comb(len(g.nodes) + T - 1, T)
                + sum(math.comb(len(pairs) + T - 1, T) for pairs in by_label))
    multisets = {c: NodeId.multiset(c)
                 for c in itertools.combinations_with_replacement(sorted(g.nodes), T)}
    edges = []
    for i, pairs in enumerate(by_label, 1):
        for chosen in itertools.combinations_with_replacement(pairs, T):
            srcs, dsts = zip(*chosen)
            edges.append((multisets[tuple(sorted(srcs))], multisets[tuple(sorted(dsts))], i))
    return make_graph(g.alphabet_size, multisets.values(), edges)


def _check_size(what, size):
    if size > LIFT_SIZE_LIMIT:
        raise ValueError(f"{what} would have {size} nodes and candidate edges, "
                         f"beyond the limit of {LIFT_SIZE_LIMIT}")


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
    if not (sc and minimal):  # edge_minimal is False unless g is path-complete
        warnings.warn(
            f"{name}: input is not a strongly connected, edge-minimal "
            "path-complete graph; proceeding anyway")


def de_bruijn(alphabet_size: int, l: int) -> LabeledGraph:
    """De Bruijn graph of memory ``l - 1``: nodes are words of length
    ``l - 1`` over the alphabet, and each node shifts in a new letter j via
    an edge labeled j."""
    if type(alphabet_size) is not int or alphabet_size < 1:
        raise ValueError(f"alphabet_size must be an integer >= 1, got {alphabet_size!r}")
    if type(l) is not int or l < 1:
        raise ValueError(f"l must be an integer >= 1, got {l!r}")
    # past 64 letters the count is only a lower bound, already far beyond the limit
    _check_size(f"De Bruijn graph debruijn:{alphabet_size},{l}",
                alphabet_size ** (min(l, 65) - 1) * (alphabet_size + 1))
    words = list(itertools.product(range(1, alphabet_size + 1), repeat=l - 1))
    nodes = {w: NodeId.word(w) for w in words}
    edges = []
    for w in words:
        for j in range(1, alphabet_size + 1):
            b = (w + (j,))[1:] if l > 1 else ()
            edges.append((nodes[w], nodes[b], j))
    return make_graph(alphabet_size, list(nodes.values()), edges)
