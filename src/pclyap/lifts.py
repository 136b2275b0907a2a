"""Graph lifts: T-sum, max, min, composition, backward composition, De Bruijn.

Each lift maps path-complete graphs to path-complete graphs while changing
which Lyapunov inequalities the graph encodes.  Lifted nodes keep
structured identities (multisets, subsets, composition pairs, words) so
they stay traceable to the nodes they came from.

Lifts are built in index space: each builder emits its lifted nodes and
integer ``(src, dst, label)`` edge arrays over node positions, and the
graph constructor of :mod:`pclyap.graphs` sorts them once.  The T-sum lift
works from the edge list: every multiset of T ``i``-labeled edges joins
the multiset of its sources to the multiset of its targets.  The max lift
indexes subsets by bitmask, computes ``post_i(A)`` for every mask ``A`` by
doubling (one numpy step per base node) and emits ``(A, B, i)`` for every
nonempty submask ``B`` of ``post_i(A)``.  Both do work that follows their
output.  The primal/dual twins are transposes: ``min_lift(g)`` is
``transpose(max_lift(transpose(g)))``, and ``backward_composition_lift``
relates to ``composition_lift`` the same way; each twin runs its
builder on the reversed edge arrays and reverses the result before the
one sort.

Sizes are checked before any node or edge is built, as nodes plus
(candidate) edges against ``LIFT_SIZE_LIMIT``: ``C(|S|+T-1, T) +
sum_i C(|E_i|+T-1, T)`` for a T-sum lift, ``(|S| + |E|) M`` for the
composition lifts, ``M^(l-1) + M^l`` for a De Bruijn graph, and for the
max and min lifts first the ``2^|S| - 1`` nodes alone, then the exact
``(2^|S| - 1) + sum_i sum_A (2^|post_i(A)| - 1)``.  The T-sum and subset
lifts loop over the labels in use, not over the whole alphabet.
"""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np

from .graphs import (
    LabeledGraph,
    NodeId,
    _graph,
    check_assumption_minimal,
)

LIFT_SIZE_LIMIT = 200_000


def sum_lift(g: LabeledGraph, T: int) -> LabeledGraph:
    """Lift whose nodes are all multisets of ``T`` nodes of ``g``.

    Every multiset of ``T`` ``i``-labeled edges of ``g`` gives the lifted
    edge, labeled ``i``, from the multiset of its sources to the multiset
    of its targets.
    """
    if type(T) is not int or T < 1:
        raise ValueError(f"T must be an integer >= 1, got {T!r}")
    by_label = {}  # the (src, dst) pairs of each label in use
    for a, b, i in zip(*(column.tolist() for column in g._table)):
        by_label.setdefault(i, []).append((a, b))
    _check_size(f"sum:{T} lift", math.comb(len(g.nodes) + T - 1, T)
                + sum(math.comb(len(pairs) + T - 1, T) for pairs in by_label.values()))
    combos = itertools.combinations_with_replacement(range(len(g.nodes)), T)
    position = {c: k for k, c in enumerate(combos)}
    edges = []
    for i, pairs in by_label.items():
        for chosen in itertools.combinations_with_replacement(pairs, T):
            srcs, dsts = zip(*chosen)
            edges.append((position[tuple(sorted(srcs))], position[tuple(sorted(dsts))], i))
    nodes = [NodeId.multiset(map(g.nodes.__getitem__, c)) for c in position]
    return _graph(g.alphabet_size, nodes, *np.array(edges, np.intp).reshape(-1, 3).T)


def _check_size(what, size, counted="nodes and candidate edges"):
    if size > LIFT_SIZE_LIMIT:
        raise ValueError(f"{what} would have {size} {counted}, "
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
    src, dst, label = g._table
    nodes, A, B, label = _submask_edges("max lift", g, src, dst, label)
    return _graph(g.alphabet_size, nodes, A, B, label)


def min_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on nonempty subsets; edge (A, B, i) iff every a in A reaches
    some b in B by an i-edge of ``g``."""
    src, dst, label = g._table
    nodes, B, A, label = _submask_edges("min lift", g, dst, src, label)
    return _graph(g.alphabet_size, nodes, A, B, label)


# public builders never call each other, so wrapping one sees only its own calls
def _submask_edges(what, g, src, dst, label):
    """Subset nodes in mask order and the max-lift edges of the graph on
    ``g.nodes`` with edge arrays ``src, dst, label``: ``(A, B, i)`` as node
    positions ``mask - 1`` for every nonempty submask ``B`` of ``post_i(A)``."""
    k = len(g.nodes)
    _check_size(what, (1 << k) - 1, "nodes")
    labels, row = np.unique(label, return_inverse=True)  # the labels in use
    succ = np.zeros((labels.size, k), np.int64)  # succ[r, a]: labels[r]-successors of a
    np.bitwise_or.at(succ, (row, src), np.left_shift(1, dst))
    post = np.zeros((labels.size, 1 << k), np.int64)  # post[r, A] = post_labels[r](A)
    size = np.zeros(1 << k, np.int64)  # size[A] = |A|
    for b in range(k):  # the masks with top bit b from those below it
        post[:, 1 << b:2 << b] = post[:, :1 << b] | succ[:, b, None]
        size[1 << b:2 << b] = size[:1 << b] + 1
    _check_size(what, (1 << k) - 1 + int(np.sum(np.left_shift(1, size[post]) - 1)),
                "nodes and edges")
    owner = np.flatnonzero(post)  # r * 2^k + A, one row per nonempty post_i(A)
    full = post.ravel()[owner]
    sub = np.zeros(owner.size, np.int64)
    for b in range(k):  # each submask, without and with bit b of post_i(A)
        has = (full & 1 << b) != 0
        owner, full = np.concatenate((owner, owner[has])), np.concatenate((full, full[has]))
        sub = np.concatenate((sub, sub[has] | 1 << b))
    owner, sub = owner[sub != 0], sub[sub != 0]
    nodes = [NodeId.subset([g.nodes[b] for b in range(k) if A >> b & 1])
             for A in range(1, 1 << k)]
    row, A = np.divmod(owner, 1 << k)
    return nodes, A - 1, sub - 1, labels[row]


def composition_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on pairs ``s∘i``; each edge (a, b, i) of ``g`` spawns, for every
    mode j, the lifted edge (a∘j, b∘i, j).

    Warns when ``g`` is not a strongly connected edge-minimal path-complete
    graph; the construction still goes through, path-completeness of the
    result only needs path-completeness of ``g``.
    """
    src, dst, label = g._table
    nodes, a, b, j = _composition("comp lift", g, src, dst, label)
    _warn_if_not_minimal(g, "composition_lift")
    return _graph(g.alphabet_size, nodes, a, b, j)


def backward_composition_lift(g: LabeledGraph) -> LabeledGraph:
    """Composition lift oriented for inverse dynamics: each edge (a, b, i)
    of ``g`` spawns, for every mode j, the lifted edge (a∘i, b∘j, j).

    The edge rule is chosen so that node functions composed with inverted
    dynamics satisfy exactly the original inequalities along lifted edges.
    """
    src, dst, label = g._table
    nodes, b, a, j = _composition("backcomp lift", g, dst, src, label)
    _warn_if_not_minimal(g, "backward_composition_lift")
    return _graph(g.alphabet_size, nodes, a, b, j)


def _composition(what, g, src, dst, label):
    """Nodes ``s∘i`` at position ``s M + i - 1`` and, for each edge
    ``(a, b, i)`` of ``src, dst, label`` and every mode ``j``, the edge
    ``(a∘j, b∘i, j)``: ``|S| M`` nodes and ``|E| M`` edges, counted first."""
    M = g.alphabet_size
    _check_size(what, (len(g.nodes) + src.size) * M, "nodes and edges")
    nodes = [NodeId.comp(s, i) for s in g.nodes for i in range(1, M + 1)]
    j = np.tile(np.arange(1, M + 1), src.size)
    return (nodes, np.repeat(src * M, M) + j - 1, np.repeat(dst * M + label - 1, M), j)


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
    M = alphabet_size
    nodes = [NodeId.word(w) for w in itertools.product(range(1, M + 1), repeat=l - 1)]
    # edge e = w M + j - 1 shifts letter j into word w (base-M digits letter - 1),
    # which gives the word (w M + j - 1) mod M^(l-1) = e mod M^(l-1)
    e = np.arange(len(nodes) * M)
    return _graph(M, nodes, e // M, e % len(nodes), e % M + 1)
