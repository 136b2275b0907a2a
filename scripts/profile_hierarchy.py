#!/usr/bin/env python3
"""Profile one round of the De Bruijn hierarchy to level 4.

The round runs ``hierarchy(mats, l_max=4)`` through the public ``pclyap``
API on the demo system and on eight seeded two-mode systems, one for each
state dimension n in 3-6, dense and with about 35% of entries nonzero.
The dense systems come from ``pclyap.examples.random_matrix_set`` and
the sparse ones from ``random_filled_matrix_set``.  Inputs are
made before timing starts.  One round runs without the profiler and the
seconds of each system's ``hierarchy`` call are printed; a second round
runs under ``cProfile`` and the 25 entries with the most internal time are
printed.

    python scripts/profile_hierarchy.py
"""

import cProfile
import pstats
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pclyap import hierarchy  # noqa: E402
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


def main():
    systems = corpus()
    print(f"seconds per system, hierarchy(l_max={L_MAX}), one round without the profiler:")
    for name, mats in systems:
        start = time.perf_counter()
        hierarchy(mats, l_max=L_MAX)
        print(f"  {name:<12} {time.perf_counter() - start:.4f} s")
    profile = cProfile.Profile()
    profile.runcall(one_round, systems)
    pstats.Stats(profile).sort_stats("tottime").print_stats(25)


if __name__ == "__main__":
    main()
