"""Seeded inputs for the workloads, built through the public ``pclyap`` API.

Every random draw comes from ``numpy.random.default_rng`` seeded by the
workload seed, so the same seed gives the same inputs.  Sizes are fixed
lists and only the entries and edges are random, so the amount of work per
round moves little from seed to seed.
"""

from __future__ import annotations

import numpy as np

DEMO_MATRICES = (
    ((0.2, 0.0, 0.0), (0.6, 0.6, 0.5), (0.6, 0.3, 0.2)),
    ((0.1, 0.2, 0.3), (0.2, 0.0, 0.5), (0.1, 0.6, 0.7)),
)
DEMO_EDGES = (("a", "b", 1), ("b", "a", 1), ("b", "c", 1), ("b", "d", 1),
              ("c", "d", 1), ("d", "d", 2), ("d", "c", 2), ("d", "a", 2))
DEMO_REDUCED_NODES = (("a", "c", "d"), ("b", "d"))  # strongly connected part of the max lift


def demo_system(pc):
    """The README's demo: (graph, reduced two-subset graph, matrix set)."""
    atoms = {x: pc.NodeId.atom(x) for x in "abcd"}
    graph = pc.make_graph(2, atoms.values(),
                          [(atoms[a], atoms[b], i) for a, b, i in DEMO_EDGES])
    reduced = pc.induced_subgraph(
        pc.max_lift(graph),
        [pc.NodeId.subset([atoms[x] for x in part]) for part in DEMO_REDUCED_NODES])
    return graph, reduced, pc.MatrixSet.from_matrices([np.array(m) for m in DEMO_MATRICES])


def random_system(pc, rng, n, fill, M=2):
    """M random nonnegative n x n matrices with about ``fill`` of entries nonzero,
    scaled so the largest row sum lies in [0.5, 2] (keeps bisection short)."""
    while True:
        mats = [rng.random((n, n)) * (rng.random((n, n)) < fill) for _ in range(M)]
        if all(m.any() for m in mats):
            break
    top = max(float(m.sum(axis=1).max()) for m in mats)
    target = 0.5 + 1.5 * rng.random()
    return pc.MatrixSet.from_matrices([m * (target / top) for m in mats])


def monomial_system(pc, rng, n, M=2):
    """Permutation times positive diagonal: invertible with a nonnegative
    inverse, so every lift, backward composition included, can transport."""
    mats = []
    for _ in range(M):
        m = np.zeros((n, n))
        for row, col in enumerate(rng.permutation(n)):
            m[row, col] = 0.2 + 1.5 * rng.random()
        mats.append(m)
    return pc.MatrixSet.from_matrices(mats)


def base_graph(pc, rng, k, M=2, free_degrees=False):
    """Strongly connected path-complete graph on k nodes.

    Every (node, label) pair gets one or two random successors, which makes
    the graph complete and hence path-complete; every other graph is
    transposed, which keeps path-completeness.  By default, for each label
    exactly k // 2 random nodes get two successors, so the edge count, and
    the size of the lifts, move little with the seed; ``free_degrees`` flips
    a coin for each pair instead.
    """
    nodes = [pc.NodeId.atom(f"n{j}") for j in range(k)]
    transposed = rng.random() < 0.5
    while True:
        edges = set()
        if free_degrees:
            for a in range(k):
                for i in range(1, M + 1):
                    for b in rng.choice(k, 1 + int(rng.random() < 0.5), replace=False):
                        edges.add((nodes[a], nodes[int(b)], i))
        else:
            for i in range(1, M + 1):
                doubled = set(rng.choice(k, k // 2, replace=False).tolist())
                for a in range(k):
                    for b in rng.choice(k, 2 if a in doubled else 1, replace=False):
                        edges.add((nodes[a], nodes[int(b)], i))
        g = pc.make_graph(M, nodes, edges)
        if len(pc.strongly_connected_components(g)) == 1:
            return pc.transpose(g) if transposed else g
