#!/usr/bin/env python3
"""Survey how max-lift subgraph extraction affects LP bounds.

The max lift of a graph always reproduces the graph's own dual-flavor LP
value (the lift embeds a copy of the graph and certificates transport the
other way), so the value gain comes from selecting a small path-complete
strongly connected induced subgraph of the lift.  This script scans all
induced subgraphs of the max lift with at most ``--piece-size`` nodes,
keeps the valid ones, and reports the best value found.  The built-in
demo system is analyzed first, then random systems: one CSV row each.
"""

import argparse
import itertools
import sys
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pclyap import (  # noqa: E402
    induced_subgraph,
    is_path_complete,
    max_lift,
    rho_bound,
    strongly_connected_components,
)
from pclyap.examples import (  # noqa: E402
    demo_graph,
    demo_matrices,
    random_matrix_set,
    random_path_complete_graph,
)


def best_lift_piece(graph, mats, piece_size, tol=1e-6):
    """Best dual LP value over small path-complete SC pieces of the max lift."""
    lifted = max_lift(graph)
    best_value, best_nodes = None, None
    for size in range(1, piece_size + 1):
        for combo in itertools.combinations(lifted.nodes, size):
            piece = induced_subgraph(lifted, combo)
            if len(strongly_connected_components(piece)) != 1:
                continue
            if not is_path_complete(piece):
                continue
            value = rho_bound(piece, mats, "dual", tol=tol).gamma
            if best_value is None or value < best_value:
                best_value, best_nodes = value, combo
    return best_value, best_nodes


def survey_row(label, graph, mats, piece_size):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = rho_bound(graph, mats, "dual", tol=1e-6).gamma
        best, nodes = best_lift_piece(graph, mats, piece_size)
    piece = "|".join(str(s) for s in nodes) if nodes else ""
    print(f"{label},{len(graph.nodes)},{graph.alphabet_size},{mats.n},"
          f"{base:.6f},{best:.6f},{base - best:.6f},{piece}")
    assert best <= base + 1e-5, "a valid lift piece must never be worse"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-nodes", type=int, default=3,
                        help="random graph size cap (4 gets slow: 15-node lifts)")
    parser.add_argument("--piece-size", type=int, default=2)
    args = parser.parse_args(argv)

    print("trial,nodes,labels,dim,base_value,best_piece_value,improvement,best_piece")
    survey_row("demo", demo_graph(), demo_matrices(), args.piece_size)

    rng = np.random.default_rng(args.seed)
    for trial in range(args.trials):
        graph = random_path_complete_graph(rng, max_nodes=args.max_nodes, max_labels=2)
        mats = random_matrix_set(rng, n=3, size=graph.alphabet_size)
        survey_row(str(trial), graph, mats, args.piece_size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
