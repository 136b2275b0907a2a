#!/usr/bin/env python3
"""Profile one round of lift building, transport and verification.

The round builds every lift kind (``sum:2``, ``max``, ``min``, ``comp``,
``backcomp``) of six seeded strongly connected path-complete base graphs
with 5, 6 and 7 nodes over two modes, checks each lift path-complete,
transports the base graph's primal and dual certificates onto it and
verifies them there, all through the public ``pclyap`` API.  Every pair
of kind and flavor but the two refused ones (primal ``max``, dual
``min``) is transported.  The mode matrices are monomial (a permutation
times a positive diagonal), so their inverses are nonnegative and the
inverting transports (primal ``backcomp``, dual ``comp``) go through.
Inputs and certificates are made before timing starts.  One round runs
with the public calls wrapped by a timer, and the seconds spent in each
phase are printed: lift build, path-completeness check, transport
(including its checks of both certificates) and verification of the
transported certificate on the lift.  A second round counts the runs of
the private lift builder ``lifts._lift_arrays``: a transport along the
lift just built reads that lift, so the count is the 30 lifts built.  A
third round runs under ``cProfile`` and the 25 entries with the most
internal time are printed.

    python scripts/profile_lifts.py
"""

import cProfile
import pstats
import sys
import time
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pclyap import (  # noqa: E402
    NodeId,
    backward_composition_lift,
    composition_lift,
    is_path_complete,
    lifts,
    make_graph,
    max_lift,
    min_lift,
    rho_bound,
    strongly_connected_components,
    sum_lift,
    transport_certificate,
    transpose,
    verify_certificate,
)
from pclyap.examples import random_monomial_matrix_set  # noqa: E402

SEED = 0
SIZES = (5, 6, 7) * 2
MODES = 2
DIM = 3
LIFTS = {"sum:2": lambda g: sum_lift(g, 2), "max": max_lift, "min": min_lift,
         "comp": composition_lift, "backcomp": backward_composition_lift}
REFUSED = {("max", "primal"), ("min", "dual")}  # transport_certificate refuses these


def base_graph(rng, k):
    """Strongly connected graph on k nodes with one or two successors per
    (node, mode) pair, so complete and hence path-complete; transposed (and
    so co-complete) on a coin flip."""
    nodes = [NodeId.atom(f"n{j}") for j in range(k)]
    while True:
        edges = {(nodes[a], nodes[int(b)], i) for a in range(k) for i in range(1, MODES + 1)
                 for b in rng.choice(k, 1 + int(rng.random() < 0.5), replace=False)}
        g = make_graph(MODES, nodes, edges)
        if len(strongly_connected_components(g)) == 1:
            return transpose(g) if rng.random() < 0.5 else g


PHASES = ("lift build", "path-completeness", "transport", "verification")


def one_round(cases, wrap=lambda _phase, fn: fn):
    """Every lift, check, transport and verification of ``cases``; each
    public call goes through ``wrap(phase, fn)``."""
    path_complete = wrap("path-completeness", is_path_complete)
    transport = wrap("transport", transport_certificate)
    verify = wrap("verification", verify_certificate)
    for g, mats, certs in cases:
        for kind, build in LIFTS.items():
            lifted = wrap("lift build", build)(g)
            if not path_complete(lifted):
                raise RuntimeError(f"{kind} lift is not path-complete")
            for flavor in (f for f in certs if (kind, f) not in REFUSED):
                moved = transport(certs[flavor], kind, g, mats)
                if not verify(lifted, mats, moved).ok:
                    raise RuntimeError(f"{flavor} certificate fails on the {kind} lift")


def phase_totals(cases) -> dict:
    """Seconds of one round spent in each phase, timed around the calls."""
    totals = dict.fromkeys(PHASES, 0.0)

    def wrap(phase, fn):
        def timed(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                totals[phase] += time.perf_counter() - start
        return timed

    one_round(cases, wrap)
    return totals


def builder_runs(cases) -> int:
    """Runs of the lift builder in one round, counted around it."""
    build, runs = lifts._lift_arrays, []

    def counted(*args):
        runs.append(args)
        return build(*args)
    lifts._lift_arrays = counted
    try:
        one_round(cases)
    finally:
        lifts._lift_arrays = build
    return len(runs)


def main():
    warnings.simplefilter("ignore")  # composition lifts of non-minimal bases warn
    rng = np.random.default_rng(SEED)
    cases = []
    for k in SIZES:
        g, mats = base_graph(rng, k), random_monomial_matrix_set(rng, DIM, MODES)
        cases.append((g, mats, {f: rho_bound(g, mats, f).certificate for f in ("primal", "dual")}))
    print("seconds per phase, one round without the profiler:")
    for phase, seconds in phase_totals(cases).items():
        print(f"  {phase:<18} {seconds:.4f} s")
    print(f"lift builder runs per round: {builder_runs(cases)}")
    profile = cProfile.Profile()
    profile.runcall(one_round, cases)
    pstats.Stats(profile).sort_stats("tottime").print_stats(25)


if __name__ == "__main__":
    main()
