"""Shared test utilities: named graphs, random generators and oracles.

The demo system and the random path-complete graph and matrix set
generators live in :mod:`pclyap.examples`; they are re-exported here.
The graph oracles return a plain :class:`TupleGraph`, which never equals
a :class:`pclyap.LabeledGraph`: compare the two with :func:`same_graph`.
"""

import itertools
from collections import namedtuple

import numpy as np

from pclyap import (
    LabeledGraph,
    MatrixSet,
    NodeId,
    completeness_flags,
    dual_eval,
    make_graph,
    primal_eval,
    spectral_radius,
    verify_certificate,
)
from pclyap.examples import demo_graph, demo_matrices  # noqa: F401
from pclyap.examples import (  # noqa: F401
    random_filled_matrix_set,
    random_matrix_set,
    random_monomial_matrix_set,
    random_path_complete_graph,
)

A, B, C, D = (NodeId.atom(x) for x in "abcd")
P, Q, R = (NodeId.atom(x) for x in "pqr")


def branching_graph():
    """Three nodes, no self-loops, heavy branching through the middle node."""
    return make_graph(2, [P, Q, R],
                      [(P, Q, 1), (Q, P, 1), (Q, P, 2), (Q, R, 1), (Q, R, 2), (R, Q, 2)])


def loop_pair_graph():
    """Two nodes with loops (a,1) and (b,2) plus forward/backward switches."""
    return make_graph(2, [A, B], [(A, A, 1), (A, B, 1), (B, A, 2), (B, B, 2)])


def toggle_graph():
    """Self-loops on label 2, node exchange on label 1."""
    return make_graph(2, [A, B], [(A, A, 2), (A, B, 1), (B, A, 1), (B, B, 2)])


def memory_one_graph():
    """Records the last mode: loops (a,1), (b,2), switches (a,b,2), (b,a,1)."""
    return make_graph(2, [A, B], [(A, A, 1), (A, B, 2), (B, A, 1), (B, B, 2)])


def broadcast_matrices(n):
    """A_i = column i broadcast to every coordinate: A_i x = x_i * ones."""
    return MatrixSet.from_matrices([np.outer(np.ones(n), np.eye(n)[i]) for i in range(n)])


def edge_set(g):
    return {(str(a), str(b), i) for a, b, i in g.edges}


def find_isomorphism(g: LabeledGraph, h: LabeledGraph):
    """Exhaustive label-preserving node bijection search (small graphs only)."""
    if g.alphabet_size != h.alphabet_size or len(g.nodes) != len(h.nodes):
        return None
    if len(g.edges) != len(h.edges):
        return None
    h_edges = set(h.edges)
    for perm in itertools.permutations(h.nodes):
        mapping = dict(zip(g.nodes, perm))
        if all((mapping[a], mapping[b], i) in h_edges for a, b, i in g.edges):
            return mapping
    return None


def is_isomorphic(g, h):
    return find_isomorphism(g, h) is not None


def path_complete_by_word_enumeration(g: LabeledGraph, max_len: int) -> bool:
    """Independent oracle: try every word up to max_len by naive path search."""
    succ = {(s, i): set() for s in g.nodes for i in range(1, g.alphabet_size + 1)}
    for a, b, i in g.edges:
        succ[(a, i)].add(b)
    for length in range(1, max_len + 1):
        for word in itertools.product(range(1, g.alphabet_size + 1), repeat=length):
            current = set(g.nodes)
            for letter in word:
                current = set().union(*(succ[(s, letter)] for s in current)) if current else set()
                if not current:
                    break
            if not current:
                return False
    return True


TupleGraph = namedtuple("TupleGraph", "alphabet_size nodes edges")


def same_graph(g: LabeledGraph, oracle: TupleGraph) -> bool:
    """Whether the built graph ``g`` has the oracle's alphabet size, nodes
    and edge tuples, in the oracle's order."""
    return isinstance(g, LabeledGraph) and (g.alphabet_size, g.nodes, g.edges) == tuple(oracle)


def graph_by_tuples(alphabet_size, nodes, edges) -> TupleGraph:
    """Oracle for the graph constructor: the tuple-sorting ``make_graph``
    it replaced (without the input checks).  Nodes and ``(a, b, i)`` edge
    tuples are deduplicated and sorted as Python objects."""
    return TupleGraph(alphabet_size, tuple(sorted(set(nodes))), tuple(sorted(set(edges))))


def transpose_by_tuples(g) -> TupleGraph:
    """Oracle for :func:`pclyap.transpose`: reversed edge tuples, re-sorted."""
    return TupleGraph(g.alphabet_size, g.nodes, tuple(sorted((b, a, i) for a, b, i in g.edges)))


def de_bruijn_by_words(alphabet_size, l) -> TupleGraph:
    """Oracle for :func:`pclyap.de_bruijn`: every word shifts in every letter."""
    words = list(itertools.product(range(1, alphabet_size + 1), repeat=l - 1))
    nodes = {w: NodeId.word(w) for w in words}
    edges = [(nodes[w], nodes[(w + (j,))[1:] if l > 1 else ()], j)
             for w in words for j in range(1, alphabet_size + 1)]
    return graph_by_tuples(alphabet_size, nodes.values(), edges)


def max_lift_by_loop(g) -> TupleGraph:
    """Oracle for :func:`pclyap.max_lift`: the pure-Python submask loop it
    replaced, ``post_i(A) = post_i(A - {a}) | post_i({a})`` for the lowest
    node ``a`` of ``A``, and one edge tuple per nonempty submask."""
    k = len(g.nodes)
    idx = {s: position for position, s in enumerate(g.nodes)}
    masks = [[0] * k for _ in range(g.alphabet_size + 1)]
    for a, b, i in g.edges:
        masks[i][idx[a]] |= 1 << idx[b]
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
    return graph_by_tuples(g.alphabet_size, subsets[1:], edges)


def min_lift_by_loop(g: LabeledGraph) -> TupleGraph:
    return transpose_by_tuples(max_lift_by_loop(transpose_by_tuples(g)))


def composition_by_tuples(g) -> TupleGraph:
    """Oracle for :func:`pclyap.composition_lift`: (a∘j, b∘i, j) per edge
    (a, b, i) and mode j."""
    labels = range(1, g.alphabet_size + 1)
    return graph_by_tuples(g.alphabet_size, [NodeId.comp(s, i) for s in g.nodes for i in labels],
                           [(NodeId.comp(a, j), NodeId.comp(b, i), j)
                            for a, b, i in g.edges for j in labels])


def backward_composition_by_tuples(g: LabeledGraph) -> TupleGraph:
    return transpose_by_tuples(composition_by_tuples(transpose_by_tuples(g)))


def subset_lift_by_pairs(g: LabeledGraph, forall_side) -> TupleGraph:
    """Definitional oracle for the max lift (``forall_side="dst"``: every b
    in B has an i-predecessor in A) and the min lift (``"src"``: every a in
    A has an i-successor in B), scanning all pairs of nonempty subsets."""
    succ = {(a, i): set() for a in g.nodes for i in range(1, g.alphabet_size + 1)}
    pred = {(b, i): set() for b in g.nodes for i in range(1, g.alphabet_size + 1)}
    for a, b, i in g.edges:
        succ[(a, i)].add(b)
        pred[(b, i)].add(a)
    subsets = {frozenset(c): NodeId.subset(c) for r in range(1, len(g.nodes) + 1)
               for c in itertools.combinations(g.nodes, r)}
    edges = []
    for sa, na in subsets.items():
        for sb, nb in subsets.items():
            for i in range(1, g.alphabet_size + 1):
                if forall_side == "dst":
                    ok = all(pred[(b, i)] & sa for b in sb)
                else:
                    ok = all(succ[(a, i)] & sb for a in sa)
                if ok:
                    edges.append((na, nb, i))
    return graph_by_tuples(g.alphabet_size, subsets.values(), edges)


def edge_sides(flavor, A, v_a, v_b, gamma):
    """The two sides of the inequality ``lhs <= rhs`` of one edge (a, b, i):
    ``A^T v_b`` and ``gamma v_a`` (primal) or ``A v_a`` and ``gamma v_b`` (dual)."""
    if flavor == "primal":
        return A.T @ v_b, gamma * v_a
    return A @ v_a, gamma * v_b


def edge_residual(flavor, A, v_a, v_b, gamma):
    """Definitional oracle for one edge (a, b, i): the largest entry of
    ``A^T v_b - gamma v_a`` (primal) or ``A v_a - gamma v_b`` (dual)."""
    lhs, rhs = edge_sides(flavor, A, v_a, v_b, gamma)
    return float(np.max(lhs - rhs))


def residuals_edge_major(V, src, dst, mode, stack, gamma):
    """Oracle for ``copositive._residuals``: the edge-major formula it
    replaced, one ``(|E|, n)`` gather per side and the maximum over the
    trailing axis, from the same products ``W = V @ stack^T``."""
    W = V @ stack.transpose(0, 2, 1)
    return np.max(W[mode, src] - gamma * V[dst], axis=1)


def violations_by_edges(g, mats, cert, tol):
    """Per-edge loop oracle for ``verify_certificate``: ``((a, b, i), residual,
    scale)`` for every edge whose residual exceeds ``tol``, in edge order;
    ``scale`` is the largest entry on either side of the edge's inequality."""
    out = []
    for a, b, i in g.edges:
        lhs, rhs = edge_sides(cert.flavor, mats.matrices[i - 1], cert.vectors[a],
                              cert.vectors[b], cert.gamma)
        residual = float(np.max(lhs - rhs))
        if not residual <= tol:
            out.append(((a, b, i), residual, float(max(np.max(lhs), np.max(rhs)))))
    return out


def boundary_gamma(g, mats, flavor, vectors):
    """The least rate at which ``vectors`` satisfy every edge inequality of
    ``g``: the largest ratio ``lhs / rhs`` of the edge inequalities at rate 1."""
    ratios = [0.0]
    for a, b, i in g.edges:
        lhs, rhs = edge_sides(flavor, mats.matrices[i - 1], vectors[a], vectors[b], 1.0)
        ratios.append(float(np.max(lhs / rhs)))
    return max(ratios)


def sum_lift_by_matching(g: LabeledGraph, T: int) -> TupleGraph:
    """Definitional oracle for the T-sum lift: ``(abar, bbar, i)`` is an edge
    iff the two multisets can be matched one-to-one by ``i``-labeled edges
    of ``g`` (Kuhn's augmenting paths on every pair of multisets)."""
    edge_set = set(g.edges)

    def matched(srcs, dsts, label):
        match_of_dst = [-1] * T

        def augment(k, visited):
            for m in range(T):
                if (srcs[k], dsts[m], label) in edge_set and not visited[m]:
                    visited[m] = True
                    if match_of_dst[m] < 0 or augment(match_of_dst[m], visited):
                        match_of_dst[m] = k
                        return True
            return False

        return all(augment(k, [False] * T) for k in range(T))

    members = list(itertools.combinations_with_replacement(g.nodes, T))
    edges = [(NodeId.multiset(a), NodeId.multiset(b), i)
             for a in members for b in members
             for i in range(1, g.alphabet_size + 1) if matched(a, b, i)]
    return graph_by_tuples(g.alphabet_size, [NodeId.multiset(c) for c in members], edges)


def brute_force_bounds_by_products(mats: MatrixSet, K: int) -> tuple:
    """Oracle for :func:`pclyap.brute_force_bounds`: one product matrix and
    one :func:`pclyap.spectral_radius` call per word of length <= K."""
    lower, upper = 0.0, float("inf")
    products = [np.eye(mats.n)]
    for k in range(1, K + 1):
        products = [m @ P for P in products for m in mats.matrices]
        rho_max = max(spectral_radius(P) for P in products)
        norm_max = max(float(np.abs(P).sum(axis=1).max()) for P in products)
        lower = max(lower, rho_max ** (1.0 / k))
        upper = min(upper, norm_max ** (1.0 / k))
    return lower, upper


def common_function_check(g: LabeledGraph, mats: MatrixSet, cert, samples: int,
                          seed: int = 0, tol: float = 1e-9) -> bool:
    """Sampled oracle: the certificate induces one common function.

    A complete graph with a dual certificate yields the min of the node
    norms; a co-complete graph with a primal certificate yields the max.
    Checks ``V(A_i x) <= gamma V(x)`` on random nonnegative samples for
    every mode.
    """
    complete, co_complete = completeness_flags(g)
    if cert.flavor == "dual":
        if not complete:
            raise ValueError("min-of-duals needs a complete graph")
        combine, evaluate = min, dual_eval
    else:
        if not co_complete:
            raise ValueError("max-of-primals needs a co-complete graph")
        combine, evaluate = max, primal_eval
    if not verify_certificate(g, mats, cert, tol).ok:
        raise ValueError("certificate does not verify on the graph")

    def V(x):
        return combine(evaluate(cert.vectors[s], x) for s in g.nodes)

    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = rng.random(mats.n)
        vx = V(x)
        for A in mats.matrices:
            if V(A @ x) > cert.gamma * vx + tol:
                return False
    return True


def random_graph(rng, n_nodes, alphabet, density=0.35):
    nodes = [NodeId.atom(f"n{k}") for k in range(n_nodes)]
    edges = [(a, b, i) for a in nodes for b in nodes
             for i in range(1, alphabet + 1) if rng.random() < density]
    return make_graph(alphabet, nodes, edges)


SPARSE_MODE_KINDS = ("sparse", "zero-lines", "nilpotent", "zero")


def random_sparse_matrix_set(rng, n, size, first_kind=0):
    """Sparse and reducible nonnegative matrices.

    Mode j takes kind ``SPARSE_MODE_KINDS[(first_kind + j) % 4]``: random
    fill of 0.2-0.6 ("sparse"), the same with one row and one column
    zeroed ("zero-lines"), its strictly upper triangular part, a nilpotent
    mode ("nilpotent"), or all zeros ("zero").  Rescaled like
    :func:`random_matrix_set` unless every mode is zero.
    """
    mats = []
    for j in range(size):
        kind = SPARSE_MODE_KINDS[(first_kind + j) % len(SPARSE_MODE_KINDS)]
        fill = 0.2 + 0.4 * rng.random()
        m = rng.random((n, n)) * (rng.random((n, n)) < fill)
        if kind == "zero-lines":
            m[int(rng.integers(0, n)), :] = 0.0
            m[:, int(rng.integers(0, n))] = 0.0
        elif kind == "nilpotent":
            m = np.triu(m, 1)
        elif kind == "zero":
            m = np.zeros((n, n))
        mats.append(m)
    top = max(float(m.sum(axis=1).max()) for m in mats)
    if top > 0:
        target = 0.5 + 1.5 * rng.random()
        mats = [m * (target / top) for m in mats]
    return MatrixSet.from_matrices(mats)


def sparse_reducible_cases(rng, count, max_nodes=4):
    """``count`` pairs of a random path-complete graph and a sparse,
    reducible system over its alphabet (see
    :func:`random_sparse_matrix_set`); every tenth pair, the first
    included, has n = 1 and M = 3."""
    for k in range(count):
        g = random_path_complete_graph(rng, max_nodes=max_nodes, max_labels=3)
        n = int(rng.integers(1, 5))
        if k % 10 == 0:
            while g.alphabet_size != 3:
                g = random_path_complete_graph(rng, max_nodes=max_nodes, max_labels=3)
            n = 1
        yield g, random_sparse_matrix_set(rng, n, g.alphabet_size, first_kind=k)


def lp_feasible(g, mats, flavor, gamma):
    """Whether the graph LP at rate ``gamma`` has node vectors ``v >= 1``,
    decided by scipy's HiGHS with a 1e-10 feasibility tolerance."""
    from scipy.optimize import linprog

    n = mats.n
    idx = {s: position for position, s in enumerate(g.nodes)}
    rows = []
    for a, b, i in g.edges:
        A = mats.matrices[i - 1] if flavor == "dual" else mats.matrices[i - 1].T
        left, right = (idx[a], idx[b]) if flavor == "dual" else (idx[b], idx[a])
        for r in range(n):
            row = np.zeros(len(g.nodes) * n)
            row[left * n:(left + 1) * n] += A[r]
            row[right * n + r] -= gamma
            rows.append(row)
    res = linprog(np.zeros(len(g.nodes) * n), A_ub=np.array(rows),
                  b_ub=np.zeros(len(rows)), bounds=(1, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status not in (0, 2):
        raise RuntimeError(f"linprog status {res.status}: {res.message}")
    return res.status == 0


def golden_pair():
    """The modes ``[[1, 1], [0, 1]]`` and ``[[1, 0], [1, 1]]`` and their
    JSR, known in closed form: the golden ratio ``phi``, the square root of
    the spectral radius ``phi^2`` of their product (Jungers 2009)."""
    return (MatrixSet.from_matrices([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]]),
            (1 + 5 ** 0.5) / 2)


def upper_triangular_systems(rng, count):
    """``count`` systems of ``M <= 3`` nonnegative upper-triangular modes,
    ``n <= 4``, with about 70% of their upper-triangle entries nonzero, each
    with its JSR: the largest diagonal entry of any mode.  A block
    triangular family's JSR is the largest of its diagonal blocks'
    (Jungers 2009), and a 1x1 block's is its largest entry."""
    for _ in range(count):
        n, M = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        mats = MatrixSet(np.triu(random_filled_matrix_set(rng, n, M, 0.7).stack))
        yield mats, float(np.diagonal(mats.stack, axis1=1, axis2=2).max())


def family_by_content(g, mats, flavor):
    """The product family of ``g`` for ``flavor`` as the candidate rows
    sorted by ``(row, block)`` and then by content, one ``lexsort`` over
    every candidate, with equal rows of one key dropped: the family
    builder before the key-only ordering, kept as its oracle."""
    from pclyap.copositive import _edge_arrays
    from pclyap.feasibility import _Family

    src, dst, mode, stack = _edge_arrays(g, mats, flavor)
    n, size = mats.n, len(g.nodes) * mats.n
    row = (dst[:, None] * n + np.arange(n)).ravel()
    block = np.repeat(src, n)
    vals = stack[mode].reshape(-1, n)
    free = np.flatnonzero(np.bincount(row, minlength=size) == 0)
    if free.size:
        row = np.concatenate([row, free])
        block = np.concatenate([block, free // n])
        vals = np.concatenate([vals, np.zeros((free.size, n))])
    key = row * len(g.nodes) + block
    order = np.lexsort(tuple(vals.T[::-1]) + (key,))
    row, block, vals, key = row[order], block[order], vals[order], key[order]
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = (key[1:] != key[:-1]) | np.any(vals[1:] != vals[:-1], axis=1)
    row, block, vals = row[keep], block[keep], vals[keep]
    starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    return _Family(n, row, block, vals, starts)


def sccs_by_recursion(n, src, dst):
    """Tarjan's algorithm as the textbook states it (Tarjan, "Depth-first
    search and linear graph algorithms", 1972): recursive, roots taken from
    the lowest index up, edges followed in the order given.  Components come
    as lists in the order their nodes leave the stack, and the list of them
    is reversed into topological order."""
    succ = [[] for _ in range(n)]
    for a, b in zip(src.tolist(), dst.tolist()):
        succ[a].append(b)
    index, low, on_stack = {}, {}, set()
    stack, sccs = [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.append(w)
                if w == v:
                    break
            sccs.append(comp)

    for root in range(n):
        if root not in index:
            visit(root)
    return sccs[::-1]
