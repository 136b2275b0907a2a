"""Graph lifts: T-sum, max, min, composition, backward composition, De Bruijn.

Each lift maps path-complete graphs to path-complete graphs while changing
which Lyapunov inequalities the graph encodes.  Lifted nodes keep
structured identities (multisets, subsets, composition pairs, words) so
they stay traceable to the nodes they came from.

Lifts are built in index space: one private builder, :func:`_lift_arrays`,
emits the lifted nodes and integer ``(src, dst, label)`` edge arrays over
node positions for every kind, and :func:`lift` hands them to the graph
constructor of :mod:`pclyap.graphs`, which sorts them once.  Every named
builder, :func:`sum_lift` included, goes through :func:`lift`, which always
builds and checks; it also keeps the last lift it built in a one-slot
memo, so that certificate transport (:func:`_lifted`) reads that graph
instead of building the same lift again.  The order in which the builders
emit nodes and edges is private to this module.  The T-sum lift
works from the edge list: every multiset of T ``i``-labeled edges joins
the multiset of its sources to the multiset of its targets.  The max lift
indexes subsets by bitmask, computes ``post_i(A)`` for every mask ``A`` by
doubling (one numpy step per base node) and emits ``(A, B, i)`` for every
nonempty submask ``B`` of ``post_i(A)``; it names the subsets by doubling
too.  Both do work that follows their output.  Transposition exchanges
the primal and dual templates, and ``_TWIN`` pairs each subset and
composition kind with its transposed twin: ``lift(g, K)`` is
``transpose(lift(transpose(g), _TWIN[K]))`` on the same nodes.  Only
``max`` and ``comp`` have builders; ``min`` and ``backcomp`` run their
twin's on the reversed edge arrays and swap the ends back.

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

from .graphs import LabeledGraph, NodeId, _check_count, _graph

LIFT_SIZE_LIMIT = 200_000


def sum_lift(g: LabeledGraph, T: int) -> LabeledGraph:
    """Lift whose nodes are all multisets of ``T`` nodes of ``g``.

    Every multiset of ``T`` ``i``-labeled edges of ``g`` gives the lifted
    edge, labeled ``i``, from the multiset of its sources to the multiset
    of its targets.
    """
    _check_count("T", T)
    return lift(g, f"sum:{T}")


def _sum_arrays(g, T):
    """Multiset nodes in the order of ``combinations_with_replacement`` over
    node positions, and the edges that the multisets of ``T`` equally
    labeled edges give, each once."""
    _check_count("T", T)
    by_label = {}  # the (src, dst) pairs of each label in use
    for a, b, i in zip(*(column.tolist() for column in g._table)):
        by_label.setdefault(i, []).append((a, b))
    _check_size(f"sum:{T} lift", math.comb(len(g.nodes) + T - 1, T)
                + sum(math.comb(len(pairs) + T - 1, T) for pairs in by_label.values()))
    combos = itertools.combinations_with_replacement(range(len(g.nodes)), T)
    position = {c: k for k, c in enumerate(combos)}
    edges = {}  # two multisets of edges may join the same nodes: keep the edge once
    for i, pairs in by_label.items():
        for chosen in itertools.combinations_with_replacement(pairs, T):
            srcs, dsts = zip(*chosen)
            edges[position[tuple(sorted(srcs))], position[tuple(sorted(dsts))], i] = None
    nodes = [NodeId.multiset(map(g.nodes.__getitem__, c)) for c in position]
    return (nodes, *np.array(list(edges), np.intp).reshape(-1, 3).T)


def _check_size(what, size, counted="nodes and candidate edges"):
    if size > LIFT_SIZE_LIMIT:
        raise ValueError(f"{what} would have {size} {counted}, "
                         f"beyond the limit of {LIFT_SIZE_LIMIT}")


def lift(g: LabeledGraph, kind: str) -> LabeledGraph:
    """The lift of ``g`` named by ``kind``: ``sum:T``, ``max``, ``min``,
    ``comp`` or ``backcomp`` (these two warn when ``g`` is not minimal).  The
    named builders call it.  It always builds the lift, size checks
    included, and on success keeps ``g``, the parsed kind and the lifted
    graph as the one lift that :func:`_lifted` remembers."""
    global _last
    nodes, *table = _lift_arrays(g, kind)
    if kind in _MINIMAL_INPUT:
        _warn_if_not_minimal(g, _MINIMAL_INPUT[kind])
    lifted = _graph(g.alphabet_size, nodes, *table)
    _last = g, _parse_kind(kind), lifted
    return lifted


_last = None  # (g, parsed kind, lifted graph) of the last lift() that succeeded


def _lifted(g: LabeledGraph, kind: str) -> LabeledGraph:
    """The lift of ``g`` named by ``kind``: the last one :func:`lift` built
    when it was of this graph (the same object or an equal one: graphs are
    immutable values) and kind, else one built and sorted now, with no
    minimality warning and not remembered.  The memo holds one lift, so at
    most ``LIFT_SIZE_LIMIT`` nodes and edges.  :func:`lift` replaces the
    slot whole and this reads it once, so threads may share it without a
    lock."""
    last = _last
    if last is not None and last[1] == _parse_kind(kind) and (last[0] is g or last[0] == g):
        return last[2]
    return _graph(g.alphabet_size, *_lift_arrays(g, kind))


_TWIN = {"min": "max", "max": "min", "backcomp": "comp", "comp": "backcomp"}
_COUNTS = {"sum": "sum:T", "debruijn": "debruijn:M,l"}  # the kinds that take counts
_MINIMAL_INPUT = {"comp": "composition_lift", "backcomp": "backward_composition_lift"}


def _parse_kind(kind: str) -> tuple:
    """``("sum", (T,))`` for ``sum:T``, ``("debruijn", (M, l))`` for
    ``debruijn:M,l`` and ``(kind, ())`` otherwise; a count is ASCII digits
    only, with no sign, space or underscore."""
    name, _, rest = kind.partition(":")
    if name not in _COUNTS:
        return kind, ()
    counts = rest.split(",")
    if (len(counts) != _COUNTS[name].count(",") + 1
            or not all(c.isascii() and c.isdigit() for c in counts)):
        raise ValueError(f"bad lift kind {kind!r}: expected {_COUNTS[name]}")
    return name, tuple(map(int, counts))


def _lift_arrays(g: LabeledGraph, kind: str) -> tuple:
    """The lift named by ``kind`` as built, before the graph constructor
    sorts it: ``(nodes, src, dst, label)``, edge ``e`` running from
    ``nodes[src[e]]`` to ``nodes[dst[e]]``.  The node order is the
    builder's, known only to this module: multisets in
    ``combinations_with_replacement`` order of node positions, subset ``A``
    (a bitmask over ``g.nodes``) at position ``A - 1``, and ``s∘i`` at
    ``s M + i - 1``.  Edges are distinct and unsorted."""
    name, counts = _parse_kind(kind)
    if name == "sum":
        return _sum_arrays(g, *counts)
    if name not in _TWIN:
        raise ValueError(f"unknown lift kind {kind!r} "
                         "(expected sum:T, max, min, comp or backcomp)")
    src, dst, label = g._table
    if name in _BUILDERS:
        return _BUILDERS[name](f"{name} lift", g, src, dst, label)
    nodes, dst, src, label = _BUILDERS[_TWIN[name]](f"{name} lift", g, dst, src, label)
    return nodes, src, dst, label


def max_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on nonempty subsets; edge (A, B, i) iff every b in B is reached
    from some a in A by an i-edge of ``g``."""
    return lift(g, "max")


def min_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on nonempty subsets; edge (A, B, i) iff every a in A reaches
    some b in B by an i-edge of ``g``."""
    return lift(g, "min")


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
    edges = int(np.sum(np.left_shift(1, size[post]) - 1))
    _check_size(what, (1 << k) - 1 + edges, "nodes and edges")
    rows = np.flatnonzero(post)  # r * 2^k + A, one row per nonempty post_i(A)
    owner, full, sub = np.zeros((3, rows.size + edges), np.int64)  # rows, then edges
    owner[:rows.size], full[:rows.size] = rows, post.ravel()[rows]
    end = rows.size
    for b in range(k):  # each submask so far, again with bit b of post_i(A)
        has = np.flatnonzero(full[:end] & 1 << b)
        new = slice(end, end + has.size)
        owner[new], full[new], sub[new] = owner[has], full[has], sub[has] | 1 << b
        end = new.stop
    owner, sub = owner[rows.size:], sub[rows.size:]  # the empty submasks come first
    members = [()]  # members[A]: the nodes of mask A, sorted since g.nodes is
    for s in g.nodes:
        members += [m + (s,) for m in members]
    nodes = [NodeId._sorted_subset(m) for m in members[1:]]
    row, A = np.divmod(owner, 1 << k)
    return nodes, A - 1, sub - 1, labels[row]


def composition_lift(g: LabeledGraph) -> LabeledGraph:
    """Lift on pairs ``s∘i``; each edge (a, b, i) of ``g`` spawns, for every
    mode j, the lifted edge (a∘j, b∘i, j).

    Warns when ``g`` is not a strongly connected edge-minimal path-complete
    graph; the construction still goes through, path-completeness of the
    result only needs path-completeness of ``g``.
    """
    return lift(g, "comp")


def backward_composition_lift(g: LabeledGraph) -> LabeledGraph:
    """Composition lift oriented for inverse dynamics: each edge (a, b, i)
    of ``g`` spawns, for every mode j, the lifted edge (a∘i, b∘j, j).

    The edge rule is chosen so that node functions composed with inverted
    dynamics satisfy exactly the original inequalities along lifted edges.
    """
    return lift(g, "backcomp")


def _composition(what, g, src, dst, label):
    """Nodes ``s∘i`` at position ``s M + i - 1`` and, for each edge
    ``(a, b, i)`` of ``src, dst, label`` and every mode ``j``, the edge
    ``(a∘j, b∘i, j)``: ``|S| M`` nodes and ``|E| M`` edges, counted first."""
    M = g.alphabet_size
    _check_size(what, (len(g.nodes) + src.size) * M, "nodes and edges")
    nodes = [NodeId.comp(s, i) for s in g.nodes for i in range(1, M + 1)]
    j = np.tile(np.arange(1, M + 1), src.size)
    return (nodes, np.repeat(src * M, M) + j - 1, np.repeat(dst * M + label - 1, M), j)


_BUILDERS = {"max": _submask_edges, "comp": _composition}


def _warn_if_not_minimal(g, name):
    """Warn when ``g`` is not strongly connected, edge-minimal and path-complete;
    the check itself never warns, so no warning filter is touched, and it
    reads the verdict kept on ``g``, so it searches once per graph."""
    sc, _, minimal = g._minimal
    if not (sc and minimal):  # edge_minimal is False unless g is path-complete
        warnings.warn(
            f"{name}: input is not a strongly connected, edge-minimal "
            "path-complete graph; proceeding anyway")


def de_bruijn(alphabet_size: int, l: int) -> LabeledGraph:
    """De Bruijn graph of memory ``l - 1``: nodes are words of length
    ``l - 1`` over the alphabet, and each node shifts in a new letter j via
    an edge labeled j."""
    _check_count("alphabet_size", alphabet_size)
    _check_count("l", l)
    # past 64 letters the count is only a lower bound, already far beyond the limit
    _check_size(f"De Bruijn graph debruijn:{alphabet_size},{l}",
                alphabet_size ** (min(l, 65) - 1) * (alphabet_size + 1))
    M = alphabet_size
    nodes = [NodeId.word(w) for w in itertools.product(range(1, M + 1), repeat=l - 1)]
    # edge e = w M + j - 1 shifts letter j into word w (base-M digits letter - 1),
    # which gives the word (w M + j - 1) mod M^(l-1) = e mod M^(l-1)
    e = np.arange(len(nodes) * M)
    return _graph(M, nodes, e // M, e % len(nodes), e % M + 1)
