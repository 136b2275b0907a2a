"""Labeled directed graphs over a finite mode alphabet.

Graphs here are the combinatorial side of path-complete Lyapunov analysis:
finitely many nodes, and edges carrying a mode label from ``1..M``.  The
module provides construction and validation, the path-completeness check,
completeness flags, transposition, strongly connected components,
minimality diagnostics and an exhaustive simulation-relation search.

Path-completeness is decided from the (node, label) degree counts first:
a complete graph (every node has an out-edge of every label) follows any
word forward from any node, and a co-complete one (every node has an
in-edge of every label) follows it backward, so both are path-complete.
Only a graph with neither flag runs the universality test by subset
construction, which is PSPACE-hard in general.  The counts are two
``bincount`` calls over the edges, made only when ``|E| >= |S| M`` (with
fewer edges neither flag can hold), so the work follows the edges, not
``|S| M``.  One core, :func:`_minimality`, decides edge-minimality from
the same flags, counted once, and never warns; ``check_assumption_minimal``
is its public view.  Its verdict is kept on the graph object the way the
``edges`` tuple is, so ``check_assumption_minimal`` and the composition
lifts of one graph search once between them.

Graphs are built in index space.  One private constructor, :func:`_graph`,
takes distinct nodes and integer ``(src, dst, label)`` arrays of node
positions; it sorts the nodes once and sorts and dedups the edges on the
integer key ``(rank_a N + rank_b) M + label - 1``, which orders them as
the ``(a, b, i)`` tuples would sort.  The integer table it keeps is the
only stored form of the edges: the path-completeness check, the lifts, the
certificate checks, the solver, equality, hashing and the simulation search
read it, and the public ``edges`` tuple of ``(a, b, i)`` triples is derived
from it on first read (serialisation and ``str``).  ``make_graph``,
``transpose``, ``induced_subgraph`` and every lift go through it;
``make_graph`` is the public builder.

A node knows its nesting (``NodeId.height``) when it is built, and one
nested more than ``MAX_NODE_DEPTH`` (64) levels is refused then, by the
lift that would build it; so every graph that is built, and written, can
be parsed back.  The parser checks its own recursion depth on entry.

All graph values are immutable after construction and every function is
pure, so everything is safe to share between threads.  The two values kept
on a graph (``edges`` and the minimality verdict) are functions of its
read-only edge table, stored in the graph's ``__dict__`` on first read
with no lock: two threads that compute one at once get equal values, and
a thread computing one graph's value never waits for another.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field

import numpy as np


_ATOM_FORBIDDEN = re.compile(r"[{}(),∘\s]")

COMP_SEP = "∘"  # the ring operator used in composed node names, e.g. "a∘1"
# word letters and composition labels are ASCII digits, as in "(1,2)" and "a∘1"
_WORD = re.compile(r"\(([0-9]+(?:,[0-9]+)*)?\)")
_LABEL = re.compile(COMP_SEP + r"([0-9]+)")
MAX_NODE_DEPTH = 64  # nesting a node may have; copy and pickle recurse per level
_KEY_LIMIT = np.iinfo(np.intp).max  # edge keys run below |S|^2 M


class NodeId(str):
    """Structured node identity: a ``str`` holding its canonical name.

    A node is an atom, a multiset or subset of nodes, a (node, label)
    composition pair, or a word of labels.  Children of collection
    variants are kept in canonical (lexicographic) order and subset
    children are deduplicated, so structurally equal nodes always render
    to the same string.  The node is that string, so identity, hashing and
    ordering are the string's (``NodeId.atom("a") == "a"``), while ``kind``
    and ``value`` keep lifted nodes traceable to their origin.

    ``NodeId(kind, value)`` checks ``value`` and puts it in canonical order
    (see :func:`_canonical`); the named constructors (``atom``, ``multiset``,
    ``subset``, ``comp``, ``word``) call it, so every node is checked once.
    Only :meth:`_sorted_subset`, which the max lift uses, trusts its input.

    ``height`` is the node's nesting: 0 for an atom or a word, one more
    than the base for a composition, and one more than the deepest child
    for a multiset or subset.  A node nested more than ``MAX_NODE_DEPTH``
    levels is refused with ``ValueError`` when it is built, so every node
    (and every graph that ``pclyap`` writes) parses back.
    """

    def __new__(cls, kind, value):
        value, name = _canonical(kind, value)
        if kind in ("multiset", "subset"):
            height = 1 + max(c.height for c in value)
        else:
            height = value[0].height + 1 if kind == "comp" else 0
        _check_depth(height)
        self = super().__new__(cls, name)
        self.kind, self.value, self.height = kind, value, height
        return self

    def __getnewargs__(self):  # copy and pickle rebuild nodes through __new__
        return self.kind, self.value

    @staticmethod
    def atom(name: str) -> "NodeId":
        return NodeId("atom", name)

    @staticmethod
    def multiset(children) -> "NodeId":
        return NodeId("multiset", children)

    @staticmethod
    def subset(children) -> "NodeId":
        return NodeId("subset", children)

    @staticmethod
    def _sorted_subset(kids: tuple, height: int | None = None) -> "NodeId":
        """The subset of ``kids``, a non-empty tuple of distinct NodeIds
        already in canonical order; trusted, so neither sorted nor checked,
        and rendered here as :func:`_canonical` renders a subset.  Its
        ``height``, one more than the deepest of ``kids``, is computed when
        not given; only the depth limit is checked."""
        if height is None:
            height = 1 + max(c.height for c in kids)
        _check_depth(height)
        self = str.__new__(NodeId, "{" + ",".join(kids) + "}")
        self.kind, self.value, self.height = "subset", kids, height
        return self

    @staticmethod
    def comp(base: "NodeId", label: int) -> "NodeId":
        return NodeId("comp", (base, label))

    @staticmethod
    def word(labels) -> "NodeId":
        return NodeId("word", labels)

    def __repr__(self):
        return f"NodeId({str.__repr__(self)})"


def _canonical(kind, value):
    """``(value, name)`` of a node of ``kind``: ``value`` checked and in
    canonical order, and the name it renders to.  An atom is a non-empty
    name without a reserved character; a multiset or subset a non-empty
    collection of NodeIds, sorted, a subset's deduplicated; a composition
    a ``(NodeId, label)`` pair; a word a sequence of letters.  Labels and
    letters are positive ``int``s.  Anything else raises ``ValueError``."""
    if kind == "atom":
        if not isinstance(value, str) or not value:
            raise ValueError("atom name must be a non-empty string")
        if _ATOM_FORBIDDEN.search(value):
            raise ValueError(f"atom name {value!r} contains a reserved character")
        value = str(value)
        return value, value
    if kind == "multiset":
        kids = tuple(sorted(value))
        if not kids or not all(isinstance(c, NodeId) for c in kids):
            raise ValueError("multiset children must be a non-empty NodeId collection")
        return kids, "{" + ",".join(kids) + "}"
    if kind == "subset":
        kids = []
        for c in sorted(value):
            if not isinstance(c, NodeId):
                raise ValueError("subset children must be NodeIds")
            if not kids or kids[-1] != c:
                kids.append(c)
        if not kids:
            raise ValueError("subset must be non-empty")
        return tuple(kids), "{" + ",".join(kids) + "}"
    if kind == "comp":
        if type(value) is not tuple or len(value) != 2:
            raise ValueError(f"composition value must be a (base, label) pair, got {value!r}")
        base, label = value
        if not isinstance(base, NodeId):
            raise ValueError("composition base must be a NodeId")
        if type(label) is not int or label < 1:
            raise ValueError(f"composition label must be a positive integer, got {label!r}")
        return value, f"{base}{COMP_SEP}{label}"
    if kind == "word":
        labs = tuple(value)
        if not all(type(x) is int and x >= 1 for x in labs):
            raise ValueError(f"word letters must be positive integers, got {labs!r}")
        return labs, "(" + ",".join(map(str, labs)) + ")"
    raise ValueError(f"unknown NodeId kind {kind!r}")


def parse_node_id(text: str) -> NodeId:
    """Parse the string form of a node back into a :class:`NodeId`.

    Brace collections parse as subsets when their members are distinct and
    as multisets otherwise; the two render identically, so round-tripping
    preserves graph identity.  Labels are ASCII digits without a leading
    zero, so each name has one spelling.  A non-string, or a
    name nested more than ``MAX_NODE_DEPTH`` levels, raises ``ValueError``.
    """
    if not isinstance(text, str):
        raise ValueError(f"node name must be a string, got {text!r}")
    node, rest = _parse_node(text.strip(), 0)
    if rest:
        raise ValueError(f"trailing characters in node name {text!r}")
    return node


def _parse_node(s, depth):
    """``(node, rest)`` for the node that starts ``s`` inside ``depth``
    braces; the depth check bounds the recursion, and the node's own
    check its nesting."""
    _check_depth(depth)
    if not s:
        raise ValueError("empty node name")
    if s[0] == "{":
        children, rest = [], s[1:]
        while True:
            child, rest = _parse_node(rest, depth + 1)
            children.append(child)
            if not rest:
                raise ValueError("unterminated '{' in node name")
            if rest[0] == ",":
                rest = rest[1:]
                continue
            if rest[0] == "}":
                rest = rest[1:]
                break
            raise ValueError(f"unexpected character {rest[0]!r} in node name")
        distinct = len(set(children)) == len(children)
        node = NodeId.subset(children) if distinct else NodeId.multiset(children)
    elif s[0] == "(":
        m = _WORD.match(s)
        if not m:
            raise ValueError(f"expected a word of ASCII digits in parentheses at {s!r}")
        letters = m[1].split(",") if m[1] else ()
        for letter in letters:
            _check_canonical("word letter", letter, s)
        node, rest = NodeId.word(map(int, letters)), s[m.end():]
    else:
        m = _ATOM_FORBIDDEN.search(s)
        end = m.start() if m else len(s)
        if end == 0:
            raise ValueError(f"cannot parse node name starting at {s!r}")
        node, rest = NodeId.atom(s[:end]), s[end:]
    while m := _LABEL.match(rest):
        _check_canonical("composition label", m[1], rest)
        node, rest = NodeId.comp(node, int(m[1])), rest[m.end():]
    return node, rest


def _check_canonical(what, digits, text):
    """Refuse a number spelled with a leading zero, such as the ``01`` of
    ``(01)``: it would load as another name, ``(1)``.  A lone ``0`` passes
    on, to be refused as not positive."""
    if len(digits) > 1 and digits[0] == "0":
        raise ValueError(f"{what} {digits!r} has a leading zero at {text!r}")


def _check_depth(levels):
    if levels > MAX_NODE_DEPTH:
        raise ValueError(f"node name is nested too deeply (more than {MAX_NODE_DEPTH} levels)")


class _remembered:
    """A method's value, computed on first read and stored under its name in
    the instance ``__dict__``, which then shadows this descriptor.  It takes
    no lock, where ``functools.cached_property`` before Python 3.12 holds
    one per property, shared by every instance."""

    def __init__(self, compute):
        self.compute, self.__doc__ = compute, compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Directed multigraph with edges labeled over ``1..alphabet_size``.

    Made only by :func:`_graph` (``make_graph`` is the public builder).
    The nodes are distinct and in canonical (sorted) order; the subset
    lifts name their nodes by relying on it.  ``_table`` is ``(src, dst,
    label)``: read-only integer arrays, entry ``e`` the node positions and
    label of edge ``e``, in the order of the ``(a, b, i)`` tuples.  It is
    the graph's only stored form of its edges; equality and hashing read
    it, and the ``edges`` tuple is derived from it on first read.
    """

    alphabet_size: int
    nodes: tuple
    _table: tuple

    def __post_init__(self):
        for column in self._table:
            column.setflags(write=False)

    def __reduce__(self):  # copies and pickles rebuild through __init__, which freezes the table
        return LabeledGraph, (self.alphabet_size, self.nodes, self._table)

    @_remembered
    def edges(self) -> tuple:
        src, dst, label = self._table
        at = self.nodes.__getitem__
        return tuple(zip(map(at, src.tolist()), map(at, dst.tolist()), label.tolist()))

    @_remembered
    def _minimal(self) -> tuple:
        """The :func:`_minimality` verdict of this graph, searched on first read."""
        return _minimality(self)

    def __eq__(self, other):
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (self.alphabet_size == other.alphabet_size and self.nodes == other.nodes
                and all(map(np.array_equal, self._table, other._table)))

    def __hash__(self):
        return hash((self.alphabet_size, self.nodes, *(column.tobytes() for column in self._table)))

    def __str__(self):
        edges = ", ".join(f"({a},{b},{i})" for a, b, i in self.edges)
        return f"LabeledGraph(M={self.alphabet_size}, |S|={len(self.nodes)}, E=[{edges}])"


def _graph(alphabet_size: int, nodes, src, dst, label) -> LabeledGraph:
    """The graph on the distinct ``nodes`` whose edge ``e`` runs from
    ``nodes[src[e]]`` to ``nodes[dst[e]]`` with label ``label[e]``: integer
    arrays of one length (``label`` may be a sequence of ints).

    Nodes are sorted once; edges are sorted and deduplicated on the key
    ``(rank_a N + rank_b) M + label - 1``, the order of their ``(a, b, i)``
    tuples, so the result equals the tuple-sorted graph.
    """
    n = len(nodes)
    if n * n * alphabet_size > _KEY_LIMIT:
        raise ValueError(f"{n} nodes over {alphabet_size} labels have more edge keys "
                         "than the integer edge table holds")
    label = np.asarray(label, np.intp)  # converted once the key space is known to fit
    order = sorted(range(n), key=nodes.__getitem__)
    node_tuple = tuple(map(nodes.__getitem__, order))
    if node_tuple != tuple(nodes):  # positions become ranks in the sorted order
        rank = np.empty(n, np.intp)
        rank[order] = np.arange(n)
        src, dst = rank[src], rank[dst]
    shape = (n, n, alphabet_size)
    key = np.ravel_multi_index((src, dst, label - 1), shape)
    key.sort()
    fresh = np.ones(key.size, bool)
    fresh[1:] = key[1:] != key[:-1]
    src, dst, label = np.unravel_index(key[fresh], shape)
    label += 1
    return LabeledGraph(alphabet_size, node_tuple, (src, dst, label))


def make_graph(alphabet_size: int, nodes, edges) -> LabeledGraph:
    """Build a validated graph with canonical node ordering.

    Duplicate edges collapse; a node that is not a :class:`NodeId`, an
    edge endpoint outside ``nodes``, a label outside ``1..alphabet_size`` or
    an empty node set raises ``ValueError``,
    as does an alphabet size or label that is not an ``int`` (a ``bool`` is
    not one here), or ``|S|^2 alphabet_size`` edge keys beyond the integer
    range of the edge table.
    """
    _check_count("alphabet_size", alphabet_size)
    position = {s: k for k, s in enumerate(dict.fromkeys(nodes))}
    if not position:
        raise ValueError("graph needs at least one node")
    for s in position:
        if not isinstance(s, NodeId):
            raise ValueError(f"node {s!r} is not a NodeId")
    src, dst, label = [], [], []
    for a, b, i in edges:
        if a not in position or b not in position:
            raise ValueError(f"edge ({a},{b},{i}) references an unknown node")
        if type(i) is not int:
            raise ValueError(f"edge label must be an integer, got {i!r}")
        if not 1 <= i <= alphabet_size:
            raise ValueError(f"edge label {i} outside 1..{alphabet_size}")
        src.append(position[a])
        dst.append(position[b])
        label.append(i)
    return _graph(alphabet_size, list(position), np.array(src, np.intp),
                  np.array(dst, np.intp), label)


def _check_count(name, x):
    """Refuse ``x`` unless it is an ``int`` (a ``bool`` is not one) >= 1."""
    if type(x) is not int or x < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {x!r}")


def common_lyapunov_graph(alphabet_size: int) -> LabeledGraph:
    """The one-node graph with a self-loop per mode."""
    a = NodeId.atom("a")
    return make_graph(alphabet_size, [a], [(a, a, i) for i in range(1, alphabet_size + 1)])


def transpose(g: LabeledGraph) -> LabeledGraph:
    """Reverse the direction of every edge, keeping labels."""
    src, dst, label = g._table
    return _graph(g.alphabet_size, g.nodes, dst, src, label)


def _label_successor_masks(g: LabeledGraph) -> dict:
    """Successor bitmasks of the labels in use, in label order:
    ``masks[i][k]`` is the OR of the destinations of node k's i-edges."""
    src, dst, label = (column.tolist() for column in g._table)
    masks = {i: [0] * len(g.nodes) for i in sorted(set(label))}
    bits = [1 << b for b in range(len(g.nodes))]
    for a, b, i in zip(src, dst, label):
        masks[i][a] |= bits[b]
    return masks


def is_path_complete(g: LabeledGraph) -> bool:
    """Whether every finite word over the alphabet labels some path in ``g``.

    A complete or co-complete graph is path-complete (see
    :func:`completeness_flags`), and that degree test runs first.  Only a
    graph with neither flag runs the subset construction from the full
    node set: a word has no path exactly when its letter-by-letter
    successor sets reach the empty set, so the graph is path-complete iff
    the empty set is unreachable (a label without an edge is a one-letter
    word without a path).  Visited subsets are memoized; the worst case is
    ``2^|S|`` states.  Either way the work follows the edges, not ``|S| M``.
    """
    return _path_complete(g, completeness_flags(g))


def _path_complete(g: LabeledGraph, flags) -> bool:
    """:func:`is_path_complete` given ``flags``, the graph's
    :func:`completeness_flags`."""
    if any(flags):
        return True
    masks = _label_successor_masks(g)
    return len(masks) == g.alphabet_size and _universal(masks, len(g.nodes))


def _universal(masks, n) -> bool:
    """Whether the subset construction over ``masks`` (one successor bitmask
    list per label) never reaches the empty set."""
    full = (1 << n) - 1
    seen = {full}
    stack = [full]
    while stack:
        q = stack.pop()
        for succ in masks.values():
            nxt, m = 0, q
            while m:
                low = m & -m
                nxt |= succ[low.bit_length() - 1]
                m ^= low
            if nxt == 0:
                return False
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def completeness_flags(g: LabeledGraph) -> tuple:
    """``(complete, co_complete)`` per node/label edge coverage.

    Complete means every (node, label) pair has an outgoing edge;
    co-complete means every pair has an incoming edge.  Both count the
    out- and in-degree of every pair, but only when the graph has at least
    ``|S| M`` edges: with fewer, some pair lacks an out-edge and some pair
    an in-edge, so the work follows the edges, not ``|S| M``.
    """
    src, dst, label = g._table
    pairs = len(g.nodes) * g.alphabet_size
    if src.size < pairs:
        return False, False
    key = label - 1
    return tuple(bool(np.bincount(ends * g.alphabet_size + key, minlength=pairs).all())
                 for ends in (src, dst))


def strongly_connected_components(g: LabeledGraph) -> list:
    """SCCs of the underlying digraph (labels ignored), topologically ordered.

    The returned partition lists components so that every edge of the
    condensation goes from an earlier component to a later one.
    """
    return [frozenset(map(g.nodes.__getitem__, c)) for c in index_sccs(len(g.nodes), *g._table[:2])]


def index_sccs(n, src, dst) -> list:
    """SCCs of the digraph on ``0..n-1`` with edges ``src[e] -> dst[e]``.

    The one builder of successor lists from edge arrays, in edge order.
    Iterative Tarjan from the lowest index up, the textbook recursion
    unrolled: each node on the walk keeps one iterator over its successor
    list, pushed once when the node is reached, so a returning child
    resumes its parent where it left off.  An unvisited node has index
    ``-1``, and a node whose component is emitted gets index ``n``, above
    every live index, so no on-stack flag is kept.  Components are lists
    of indices, each in the order the recursive algorithm pops them, in
    topological order (every edge between components goes from an earlier
    one to a later one).
    """
    succ = [[] for _ in range(n)]
    for a, b in zip(src.tolist(), dst.tolist()):
        succ[a].append(b)
    index = [-1] * n
    low = [0] * n
    stack, sccs = [], []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, walk = work[-1]
            for w in walk:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:  # on the stack, or an emitted node's n
                    low[v] = index[w]
            else:  # every successor seen: v returns to its parent
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        index[w] = n
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    sccs.reverse()  # Tarjan emits reverse topological order
    return sccs


def induced_subgraph(g: LabeledGraph, nodes) -> LabeledGraph:
    """Subgraph on ``nodes`` with every edge whose endpoints both lie inside.

    ``nodes`` must be a nonempty collection of nodes of ``g``.
    """
    keep = set(nodes)
    if not keep:
        raise ValueError("graph needs at least one node")
    inside = np.fromiter((s in keep for s in g.nodes), bool, len(g.nodes))
    if np.count_nonzero(inside) != len(keep):
        raise ValueError(f"nodes not in the graph: {sorted(keep.difference(g.nodes))}")
    src, dst, label = g._table
    on = inside[src] & inside[dst]
    position = np.cumsum(inside) - 1  # a kept node's position among the kept ones
    return _graph(g.alphabet_size, [s for s in g.nodes if s in keep],
                  position[src[on]], position[dst[on]], label[on])


def path_complete_components(g: LabeledGraph) -> list:
    """Induced subgraphs of the SCCs that are themselves path-complete."""
    out = []
    for comp in strongly_connected_components(g):
        sub = induced_subgraph(g, comp)
        if is_path_complete(sub):
            out.append(sub)
    return out


def check_assumption_minimal(g: LabeledGraph) -> tuple:
    """``(strongly_connected, edge_minimal)`` minimality diagnostics.

    ``edge_minimal`` holds when removing any single edge destroys
    path-completeness.  A graph that is not path-complete to begin with
    reports ``edge_minimal=False`` (with a warning), since the notion
    only makes sense for path-complete graphs.  :func:`_minimality` decides,
    once per graph object: the verdict is kept on ``g``, which is immutable,
    and read again by every later call and composition lift of ``g``.  The
    warning is emitted on every call.
    """
    sc, path_complete, minimal = g._minimal
    if not path_complete:
        warnings.warn("graph is not path-complete; edge minimality reported as False")
    return sc, minimal


def _minimality(g: LabeledGraph) -> tuple:
    """``(strongly_connected, path_complete, edge_minimal)``, without a warning.

    A complete (or co-complete) graph with more than ``|S| M`` edges has a
    pair with two out-edges (in-edges); dropping one keeps the graph
    complete (co-complete), hence path-complete, so it is not minimal and
    no successor mask is built.  Otherwise each edge is dropped in turn
    and the subset construction decides, one run per edge.
    """
    src, dst, _ = g._table
    sc = len(index_sccs(len(g.nodes), src, dst)) == 1
    flags = completeness_flags(g)
    if not _path_complete(g, flags):
        return sc, False, False
    if src.size > len(g.nodes) * g.alphabet_size and any(flags):
        return sc, True, False
    masks = _label_successor_masks(g)
    for a, b, i in zip(*(column.tolist() for column in g._table)):
        masks[i][a] ^= 1 << b  # drop the edge, test, restore
        complete = _universal(masks, len(g.nodes))
        masks[i][a] ^= 1 << b
        if complete:
            return sc, True, False
    return sc, True, True


@dataclass(frozen=True)
class SimulationMap:
    """Total node map witnessing that one graph simulates another.

    ``mapping[x]`` lives in the simulating graph; for every edge
    ``(a, b, i)`` of the simulated graph, ``(mapping[a], mapping[b], i)``
    is an edge of the simulating graph.
    """

    mapping: dict = field(hash=False)

    def __getitem__(self, node):
        return self.mapping[node]


def find_simulation(g: LabeledGraph, h: LabeledGraph):
    """Search for a map ``R`` from nodes of ``h`` into ``g`` preserving edges.

    Exhaustive backtracking, by a loop rather than recursion, in canonical
    node order: ``h`` nodes are assigned one at a time, candidates tried in
    canonical ``g`` order, and a partial map is abandoned as soon as an
    ``h`` edge with both endpoints assigned has no counterpart in ``g``.
    The first witness in that deterministic order is returned, or ``None``
    when no simulation map exists.
    """
    if g.alphabet_size != h.alphabet_size:
        raise ValueError("alphabet sizes differ")
    g_edges = set(zip(*(column.tolist() for column in g._table)))
    incident = [[] for _ in h.nodes]  # incident[k]: the h edges whose later end is node k
    for a, b, i in zip(*(column.tolist() for column in h._table)):
        incident[max(a, b)].append((a, b, i))
    image = [-1] * len(h.nodes)  # image[k]: the g position tried for h node k
    k = 0
    while 0 <= k < len(h.nodes):
        image[k] += 1
        if image[k] == len(g.nodes):  # no candidate left: back up one node
            image[k] = -1
            k -= 1
        elif all((image[a], image[b], i) in g_edges for a, b, i in incident[k]):
            k += 1
    return None if k < 0 else SimulationMap(dict(zip(h.nodes, map(g.nodes.__getitem__, image))))
