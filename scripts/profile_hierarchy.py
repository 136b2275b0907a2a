#!/usr/bin/env python3
"""Profile one round of the De Bruijn hierarchy to level 4.

The round runs ``hierarchy(mats, l_max=4)`` through the public ``pclyap``
API on the demo system and on eight seeded two-mode systems, one for each
state dimension n in 3-6, dense and with about 35% of entries nonzero.
The dense systems come from ``pclyap.examples.random_matrix_set`` and
the sparse ones from ``random_filled_matrix_set``.  Inputs are
made before timing starts.  One round runs without the profiler and the
seconds of each system's ``hierarchy`` call are printed.  A second round
counts the policy evaluations of every level's solve (the entries of its
trace) and the runs of the dense policy matrix builder
``feasibility._matrix``: a solve builds a matrix only when the policy
changes, so there are fewer builds than evaluations.  Then ``ROUNDS``
rounds run with a ``perf_counter`` wrapper around each layer of the solve
(``LAYERS``: family building, components, Perron values, Howard solves,
greedy improvement, certification and De Bruijn graph building) and the
wall time per call of each layer is printed.  A wrapper adds about half a
microsecond per call, while a profiler's tracing multiplies the cost of
the Python-heavy layers (it reads ``index_sccs`` at several times its
untraced time).  A last round runs under ``cProfile`` and the 25
entries with the most internal time are printed.

    python scripts/profile_hierarchy.py
"""

import cProfile
import pstats
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pclyap import feasibility, hierarchy, jsr  # noqa: E402
from pclyap.examples import (  # noqa: E402
    demo_matrices,
    random_filled_matrix_set,
    random_matrix_set,
)

SEED = 0
DIMS = (3, 4, 5, 6)
SPARSE_FILL = 0.35
MODES = 2
L_MAX = 4
ROUNDS = 10
# (module, name) of each timed layer; the solve looks each one up by that name
LAYERS = ((feasibility, "_family"), (feasibility, "index_sccs"), (feasibility, "_perron"),
          (feasibility, "_howard_values"), (feasibility, "_improve"),
          (feasibility, "_certified"), (jsr, "de_bruijn"))


def corpus():
    """``(name, matrix set)`` for the demo and the seeded systems."""
    rng = np.random.default_rng(SEED)
    systems = [("demo", demo_matrices())]
    for n in DIMS:
        systems += [(f"dense n={n}", random_matrix_set(rng, n=n, size=MODES)),
                    (f"sparse n={n}", random_filled_matrix_set(rng, n, MODES, SPARSE_FILL))]
    return systems


def one_round(systems):
    for _, mats in systems:
        hierarchy(mats, l_max=L_MAX)


def counted_work(systems) -> list:
    """Policy evaluations and dense policy matrices built in one round,
    counted around ``jsr._rho_bound`` (the solve of each level) and
    ``feasibility._matrix``."""
    solve, build = jsr._rho_bound, feasibility._matrix
    counts = [0, 0]

    def counted_solve(*args):
        result = solve(*args)
        counts[0] += len(result.trace)
        return result

    def counted_build(*args):
        counts[1] += 1
        return build(*args)
    jsr._rho_bound, feasibility._matrix = counted_solve, counted_build
    try:
        one_round(systems)
    finally:
        jsr._rho_bound, feasibility._matrix = solve, build
    return counts


def layer_times(systems) -> list:
    """``(name, calls, seconds)`` per layer of ``LAYERS`` over ``ROUNDS``
    rounds, each call timed by a ``perf_counter`` wrapper."""
    totals = {name: [0, 0.0] for _, name in LAYERS}

    def timed(name, function):
        total = totals[name]

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                total[0] += 1
                total[1] += time.perf_counter() - start
        return wrapper
    originals = [(module, name, getattr(module, name)) for module, name in LAYERS]
    for module, name, function in originals:
        setattr(module, name, timed(name, function))
    try:
        for _ in range(ROUNDS):
            one_round(systems)
    finally:
        for module, name, function in originals:
            setattr(module, name, function)
    return [(name, calls, seconds) for name, (calls, seconds) in totals.items()]


def main():
    systems = corpus()
    print(f"seconds per system, hierarchy(l_max={L_MAX}), one round without the profiler:")
    for name, mats in systems:
        start = time.perf_counter()
        hierarchy(mats, l_max=L_MAX)
        print(f"  {name:<12} {time.perf_counter() - start:.4f} s")
    evaluations, builds = counted_work(systems)
    print(f"policy evaluations per round: {evaluations}")
    print(f"policy matrices built per round: {builds}")
    print(f"wall time per call by layer, perf_counter wrappers, {ROUNDS} rounds:")
    for name, calls, seconds in layer_times(systems):
        print(f"  {name:<15} {calls // ROUNDS:>5} calls/round "
              f"{seconds / calls * 1e6:>9.1f} us/call")
    profile = cProfile.Profile()
    profile.runcall(one_round, systems)
    pstats.Stats(profile).sort_stats("tottime").print_stats(25)


if __name__ == "__main__":
    main()
