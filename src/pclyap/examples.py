"""The paper's demo system and seeded random instances.

The demo is two 3x3 positive modes with a 4-node path-complete graph; the
tracked ``data/*.json`` files are this demo, written by
``scripts/run_demo_analysis.py --dump-json``.  The random generators draw
from a ``numpy.random.Generator``, so a seed fixes the instance.  Neither
``pclyap`` itself nor its command line imports this module.
"""

from __future__ import annotations

import numpy as np

from .copositive import MatrixSet
from .graphs import (NodeId, _check_count, induced_subgraph, is_path_complete, make_graph,
                     strongly_connected_components, transpose)
from .lifts import max_lift


def demo_graph():
    """The four-node path-complete graph of the worked example."""
    a, b, c, d = (NodeId.atom(x) for x in "abcd")
    return make_graph(2, [a, b, c, d],
                      [(a, b, 1), (b, a, 1), (b, c, 1), (b, d, 1), (c, d, 1),
                       (d, d, 2), (d, c, 2), (d, a, 2)])


def demo_matrices():
    """The 3x3 positive switching system of the worked example."""
    return MatrixSet.from_matrices([
        np.array([[0.2, 0.0, 0.0], [0.6, 0.6, 0.5], [0.6, 0.3, 0.2]]),
        np.array([[0.1, 0.2, 0.3], [0.2, 0.0, 0.5], [0.1, 0.6, 0.7]]),
    ])


def demo_reduced_graph():
    """The strongly connected path-complete piece of the demo graph's max
    lift on the subsets ``{a,c,d}`` and ``{b,d}``."""
    a, b, c, d = (NodeId.atom(x) for x in "abcd")
    return induced_subgraph(max_lift(demo_graph()),
                            [NodeId.subset([a, c, d]), NodeId.subset([b, d])])


def random_path_complete_graph(rng, max_nodes=5, max_labels=3):
    """Random strongly connected path-complete graph.

    Mixes three families: complete graphs (one random successor set per
    node/label), their transposes (co-complete), and rejection-sampled
    dense graphs.  Strong connectivity is enforced by adding a random
    cycle through all nodes when missing.
    """
    n_nodes = int(rng.integers(1, max_nodes + 1))
    alphabet = int(rng.integers(1, max_labels + 1))
    nodes = [NodeId.atom(f"n{k}") for k in range(n_nodes)]
    style = rng.random()
    while True:
        if style < 0.8:
            edges = set()
            for s in nodes:
                for i in range(1, alphabet + 1):
                    succs = [t for t in nodes if rng.random() < 0.3]
                    if not succs:
                        succs = [nodes[int(rng.integers(0, n_nodes))]]
                    edges.update((s, t, i) for t in succs)
        else:
            edges = {(a, b, i) for a in nodes for b in nodes
                     for i in range(1, alphabet + 1) if rng.random() < 0.5}
        order = list(rng.permutation(n_nodes))
        for k in range(n_nodes):
            s, t = nodes[order[k]], nodes[order[(k + 1) % n_nodes]]
            edges.add((s, t, int(rng.integers(1, alphabet + 1))))
        g = make_graph(alphabet, nodes, edges)
        if len(strongly_connected_components(g)) == 1 and is_path_complete(g):
            if style >= 0.8 or rng.random() < 0.5:
                return g
            return transpose(g)


def random_matrix_set(rng, n=None, size=None):
    """Random nonnegative matrices, rescaled so the brute-force upper bound
    of length-1 products lands in [0.5, 2]."""
    n = n if n is not None else int(rng.integers(1, 5))
    size = size if size is not None else int(rng.integers(1, 4))
    mats = [rng.random((n, n)) for _ in range(size)]
    top = max(float(m.sum(axis=1).max()) for m in mats)
    target = 0.5 + 1.5 * rng.random()
    return MatrixSet.from_matrices([m * (target / top) for m in mats])


def random_filled_matrix_set(rng, n, size, fill):
    """``size`` random n x n modes with about ``fill`` of their entries
    nonzero, none all zero, each rescaled by its own draw in [0.5, 2] over
    the largest row sum of all modes.  Modes are redrawn until none is all
    zero, so ``n`` and ``size`` must be integers >= 1 and ``fill`` a number
    > 0, else ``ValueError`` before any draw."""
    _check_count("n", n)
    _check_count("size", size)
    if not fill > 0:  # NaN too: no draw would ever keep an entry
        raise ValueError(f"fill must be > 0, got {fill!r}")
    mats = [np.zeros((n, n))]
    while not all(m.any() for m in mats):
        mats = [rng.random((n, n)) * (rng.random((n, n)) < fill) for _ in range(size)]
    top = max(float(m.sum(axis=1).max()) for m in mats)
    return MatrixSet.from_matrices([m * ((0.5 + 1.5 * rng.random()) / top) for m in mats])


def random_monomial_matrix_set(rng, n=None, size=None):
    """Invertible nonnegative matrices with nonnegative inverses: a
    positive diagonal times a permutation matrix, the permutation drawn
    first."""
    n = n if n is not None else int(rng.integers(1, 5))
    size = size if size is not None else int(rng.integers(1, 4))
    return MatrixSet.from_matrices([np.eye(n)[rng.permutation(n)] * (0.2 + 1.5 * rng.random((n, 1)))
                                    for _ in range(size)])
