"""Independent oracles for the benchmark's correctness checks.

Nothing here imports ``pclyap``: graphs arrive as plain node counts and
integer edge arrays ``(src, dst, label)`` with 1-based labels, matrix sets
as float arrays of shape ``(M, n, n)``.  Each oracle has a self-test on a
case with a closed-form answer in :func:`self_test`.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Relative safety factors for float round-off in products of at most a few
# thousand small matrices; far below the 1e-8 gaps the checks must resolve.
LOWER_SAFETY = 1.0 - 1e-12
UPPER_SAFETY = 1.0 + 1e-12


def _products(mats, depth):
    """Yield (k, stack of all M^k products of length k) for k = 1..depth."""
    mats = np.asarray(mats, dtype=float)
    prods = mats
    for k in range(1, depth + 1):
        if k > 1:
            prods = np.einsum("mij,pjk->mpik", mats, prods).reshape(-1, *mats.shape[1:])
        yield k, prods


def collatz_wielandt(P):
    """A proven lower bound on the Perron root of a nonnegative matrix.

    For x >= 0, x != 0: if P x >= r x then rho(P) >= r.  The best r for one
    x is min over the support of (P x)_i / x_i.  Candidates for x are the
    cleaned leading eigenvector and a few power iterates of it, so defective
    products, where ``eigvals`` errs by about sqrt(eps), stay certified.
    """
    P = np.asarray(P, dtype=float)
    w, vecs = np.linalg.eig(P)
    x = np.abs(vecs[:, int(np.argmax(np.abs(w)))].real)
    x[x < 1e-12 * x.max()] = 0.0
    best = 0.0
    for _ in range(30):
        y = P @ x
        support = x > 0
        best = max(best, float((y[support] / x[support]).min()))
        top = y.max()
        if top == 0.0:
            break
        x = y / top
    return best


def product_bounds(mats, depth):
    """Bounds on the joint spectral radius from all products of length <= depth.

    Returns ``(proven_lower, estimate_lower, upper)``:
    * ``proven_lower``: max over k of the Collatz-Wielandt bound of the
      product with the largest estimated spectral radius, to the power 1/k.
    * ``estimate_lower``: max over k and products of |eigvals|^(1/k), the
      same quantity ``brute_force_bounds`` reports.
    * ``upper``: min over k of max ||P||_inf^(1/k).
    """
    proven, estimate, upper = 0.0, 0.0, math.inf
    for k, prods in _products(mats, depth):
        radii = np.abs(np.linalg.eigvals(prods)).max(axis=1)
        j = int(np.argmax(radii))
        estimate = max(estimate, float(radii[j]) ** (1.0 / k))
        proven = max(proven, collatz_wielandt(prods[j]) ** (1.0 / k))
        norm = float(np.abs(prods).sum(axis=2).max())
        upper = min(upper, norm ** (1.0 / k))
    return proven * LOWER_SAFETY, estimate, upper * UPPER_SAFETY


def edge_residuals(flavor, gamma, vectors, edges, mats):
    """Worst residual of each edge inequality, vectorised over all edges.

    ``vectors`` is (nodes, n) in node-index order.  Dual edge (a, b, i):
    A_i v_a - gamma v_b; primal: A_i^T v_b - gamma v_a.  An edge holds when
    its residual is <= the slack the caller allows.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    mats = np.asarray(mats, dtype=float)
    A = mats[edges[:, 2] - 1]
    src, dst = vectors[edges[:, 0]], vectors[edges[:, 1]]
    if flavor == "dual":
        res = np.einsum("eij,ej->ei", A, src) - gamma * dst
    elif flavor == "primal":
        res = np.einsum("eji,ej->ei", A, dst) - gamma * src
    else:
        raise ValueError(f"unknown flavor {flavor!r}")
    return res.max(axis=1)


def certificate_holds(flavor, gamma, vectors, edges, mats, slack=1e-9):
    vectors = np.asarray(vectors, dtype=float)
    if not np.all(vectors > 0):
        return False
    return bool(np.all(edge_residuals(flavor, gamma, vectors, edges, mats) <= slack))


def lp_feasible(num_nodes, edges, mats, flavor, gamma):
    """Whether the graph LP at rate ``gamma`` has a solution v >= 1.

    Decided by HiGHS with a primal feasibility tolerance of 1e-10, well
    under the 1e-7 margins the checks ask it to resolve.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    mats = np.asarray(mats, dtype=float)
    n = mats.shape[1]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    rows, cols, vals = [], [], []
    for e, (a, b, i) in enumerate(edges):
        A = mats[i - 1] if flavor == "dual" else mats[i - 1].T
        left, right = (a, b) if flavor == "dual" else (b, a)
        for r in range(n):
            row = e * n + r
            rows.extend([row] * n)
            cols.extend(range(left * n, left * n + n))
            vals.extend(A[r])
            rows.append(row)
            cols.append(right * n + r)
            vals.append(-gamma)
    G = coo_matrix((vals, (rows, cols)), shape=(len(edges) * n, num_nodes * n)).tocsr()
    res = linprog(np.zeros(num_nodes * n), A_ub=G, b_ub=np.zeros(G.shape[0]),
                  bounds=(1, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if res.status == 0:
        return True
    if res.status == 2:
        return False
    raise RuntimeError(f"linprog status {res.status}: {res.message}")


def _successors(num_nodes, alphabet, edges):
    """succ[i][a]: the i-successors of node a as a bitmask over node indices."""
    succ = [[0] * num_nodes for _ in range(alphabet + 1)]
    for a, b, i in edges:
        succ[i][a] |= 1 << b
    return succ


def _union(masks, subset):
    out = 0
    for k, m in enumerate(masks):
        if subset >> k & 1:
            out |= m
    return out


def subset_lift_rule(num_nodes, alphabet, edges, kind):
    """Closed-form edge count of the max or min lift, and its edge predicate.

    Max lift: (A, B, i) iff B is a subset of post_i(A), so the count is the
    sum over A and i of 2^|post_i(A)| - 1.  Min lift: (A, B, i) iff A is a
    subset of pre_i(B), the sum over B and i of 2^|pre_i(B)| - 1.  Subsets
    are bitmasks over node indices.
    """
    succ = _successors(num_nodes, alphabet, edges)
    count = 0
    for s in range(1, 1 << num_nodes):
        for i in range(1, alphabet + 1):
            reach = _union(succ[i], s) if kind == "max" else _pre_image(succ[i], s)
            count += (1 << bin(reach).count("1")) - 1

    def holds(A, B, i):
        if kind == "max":
            return B & ~_union(succ[i], A) == 0
        return A & ~_pre_image(succ[i], B) == 0

    return count, holds


def _pre_image(succ_masks, subset):
    return sum(1 << a for a, m in enumerate(succ_masks) if m & subset)


def sum2_edges(num_nodes, alphabet, edges):
    """Edges of the T=2 sum lift by brute force over multiset pairs."""
    eset = {tuple(e) for e in edges}
    pairs = list(itertools.combinations_with_replacement(range(num_nodes), 2))
    out = set()
    for (a1, a2), (b1, b2), i in itertools.product(pairs, pairs, range(1, alphabet + 1)):
        if ((a1, b1, i) in eset and (a2, b2, i) in eset) or \
           ((a1, b2, i) in eset and (a2, b1, i) in eset):
            out.add(((a1, a2), (b1, b2), i))
    return out


def comp_edges(alphabet, edges, backward):
    """Edges of the (backward) composition lift on pairs (s, i)."""
    out = set()
    for a, b, i in edges:
        for j in range(1, alphabet + 1):
            out.add(((a, i), (b, j), j) if backward else ((a, j), (b, i), j))
    return out


def path_complete_by_words(num_nodes, alphabet, edges):
    """Word enumeration: every word of length < 2^|S| must label a path.

    Depth-first over the word tree, carrying the set of path ends; a word
    with no path, if any exists, has one of length below 2^|S| because the
    sets of path ends take at most 2^|S| - 1 nonempty values.
    """
    succ = _successors(num_nodes, alphabet, edges)
    max_len = (1 << num_nodes) - 1
    stack = [((1 << num_nodes) - 1, 0)]
    while stack:
        ends, length = stack.pop()
        if length == max_len:
            continue
        for i in range(1, alphabet + 1):
            nxt = _union(succ[i], ends)
            if nxt == 0:
                return False
            stack.append((nxt, length + 1))
    return True


def completeness_flags(num_nodes, alphabet, edges):
    out_pairs = {(a, i) for a, _, i in edges}
    in_pairs = {(b, i) for _, b, i in edges}
    pairs = list(itertools.product(range(num_nodes), range(1, alphabet + 1)))
    return all(p in out_pairs for p in pairs), all(p in in_pairs for p in pairs)


def simulation_exists(g_nodes, g_edges, h_nodes, h_edges):
    """Exhaustive search over all maps from h's nodes into g's nodes."""
    g_set = {tuple(e) for e in g_edges}
    for image in itertools.product(range(g_nodes), repeat=h_nodes):
        if all((image[a], image[b], i) in g_set for a, b, i in h_edges):
            return True
    return False


def self_test():
    """Check every oracle on a case with a closed-form answer; raise on failure."""
    def expect(ok, what):
        if not ok:
            raise AssertionError(f"oracle self-test failed: {what}")

    diag = np.array([np.diag([0.5, 0.9, 0.2]), np.diag([0.7, 0.3, 0.8])])
    lo, est, hi = product_bounds(diag, 6)
    expect(abs(lo - 0.9) < 1e-9 and abs(est - 0.9) < 1e-9 and abs(hi - 0.9) < 1e-9,
           f"diagonal system JSR 0.9, got [{lo}, {hi}]")
    for n in (2, 3, 4):
        broadcast = np.array([np.outer(np.ones(n), np.eye(n)[i]) for i in range(n)])
        lo, _, hi = product_bounds(broadcast, 3)
        expect(abs(lo - 1) < 1e-9 and abs(hi - 1) < 1e-9, f"broadcast n={n} JSR 1")
        loops = [(0, 0, i) for i in range(1, n + 1)]
        for flavor, value in (("dual", 1.0), ("primal", float(n))):
            expect(lp_feasible(1, loops, broadcast, flavor, value + 1e-7)
                   and not lp_feasible(1, loops, broadcast, flavor, value - 1e-7),
                   f"broadcast n={n}, one-node graph: {flavor} LP value {value}")

    k, M = 3, 2
    complete = [(a, b, i) for a in range(k) for b in range(k) for i in range(1, M + 1)]
    full = (2 ** k - 1) ** 2 * M
    for kind in ("max", "min"):
        count, holds = subset_lift_rule(k, M, complete, kind)
        brute = sum(holds(A, B, i) for A in range(1, 2 ** k) for B in range(1, 2 ** k)
                    for i in range(1, M + 1))
        expect(count == brute == full, f"{kind} lift of K3 has {full} edges")
    expect(len(comp_edges(M, complete, False)) == len(complete) * M, "comp lift count")
    expect(len(sum2_edges(k, M, complete)) == (k * (k + 1) // 2) ** 2 * M, "sum:2 count")

    vecs = np.ones((1, 3))
    expect(certificate_holds("dual", 0.9, vecs, [(0, 0, 1), (0, 0, 2)], diag),
           "diagonal system, ones vector holds at 0.9")
    expect(not certificate_holds("dual", 0.89, vecs, [(0, 0, 1), (0, 0, 2)], diag),
           "diagonal system, ones vector fails at 0.89")
    skew = np.array([[[0.0, 2.0], [0.0, 0.0]]])
    pair = np.array([[1.0, 3.0], [1.0, 1.0]])
    expect(certificate_holds("primal", 1.0, pair, [(0, 1, 1)], skew)
           and not certificate_holds("dual", 1.0, pair, [(0, 1, 1)], skew),
           "one edge, primal A^T v_b <= v_a holds while dual A v_a <= v_b fails")

    expect(path_complete_by_words(k, M, complete), "complete graph is path-complete")
    expect(not path_complete_by_words(2, 2, [(0, 1, 1), (1, 0, 1), (1, 1, 2)]),
           "graph missing label 2 at node 0 after label 1 is not path-complete")
    expect(simulation_exists(1, [(0, 0, 1), (0, 0, 2)], 2, [(0, 1, 1), (1, 0, 2)]),
           "one-node complete graph simulates any graph")
    expect(not simulation_exists(2, [(0, 1, 1), (1, 0, 1)], 1, [(0, 0, 2)]),
           "no label-2 edge, no simulation")
