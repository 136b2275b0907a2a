"""Joint spectral radius estimation.

Two independent routes are provided: brute-force bounds from finite
matrix products (spectral radii below, norms above), and the De Bruijn
hierarchy of graph LPs whose level-l value comes with the accuracy
guarantee ``rho_G / n^(1/l) <= rho(A) <= rho_G``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .copositive import DUAL, PRIMAL, Certificate, MatrixSet, dual_eval, primal_eval, verify_certificate
from .feasibility import DEFAULT_LP_TOL, _perron, rho_bound
from .graphs import LabeledGraph, completeness_flags, transpose
from .lifts import de_bruijn

PRODUCT_CAP = 10 ** 6


def spectral_radius(A) -> float:
    """Perron root of a square nonnegative matrix, computed from below.

    The value of :func:`pclyap.feasibility._perron`: the largest
    Collatz-Wielandt bound ``min (A x)_i / x_i`` over the strongly connected
    components of the nonzero pattern, each at its computed eigenvector.
    It never exceeds the spectral radius, so products' radii give sound
    JSR lower bounds.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(A < 0):
        raise ValueError("matrix must be nonnegative")
    return _perron(A)[0]


def brute_force_bounds(mats: MatrixSet, K: int) -> tuple:
    """Lower/upper bounds on the JSR from all products of length <= K.

    Lower: max over lengths k and products P of ``rho(P)^(1/k)`` (each
    such value never exceeds the JSR).  Upper: min over k of
    ``max_P ||P||_inf^(1/k)`` (valid for every k by submultiplicativity).
    """
    if type(K) is not int or K < 1:
        raise ValueError(f"K must be an integer >= 1, got {K!r}")
    if mats.size ** K > PRODUCT_CAP:
        raise ValueError(f"M^K = {mats.size ** K} exceeds the {PRODUCT_CAP} product cap")
    lower, upper = 0.0, math.inf
    products = [np.eye(mats.n)]
    for k in range(1, K + 1):
        products = [m @ P for P in products for m in mats.matrices]
        rho_max = max(spectral_radius(P) for P in products)
        norm_max = max(float(np.abs(P).sum(axis=1).max()) for P in products)
        lower = max(lower, rho_max ** (1.0 / k))
        upper = min(upper, norm_max ** (1.0 / k))
    return lower, upper


@dataclass(frozen=True)
class HierarchyStep:
    step: str        # "(2)" or "(2)d"
    kind: str        # dual | primal
    level: int
    graph_size: int
    rho_g: float
    lower: float
    upper: float


@dataclass(frozen=True, eq=False)
class HierarchyReport:
    """Level-by-level LP values and the running bracket around the JSR."""

    rows: tuple
    final_interval: tuple
    epsilon: float
    certified_unstable: bool  # lower bound above 1
    certified_stable: bool    # upper bound below 1

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "kind", "level", "rho_G", "lower", "upper"])
        for r in self.rows:
            writer.writerow([r.step, r.kind, r.level, repr(r.rho_g),
                             repr(r.lower), repr(r.upper)])
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "rows": [{"step": r.step, "kind": r.kind, "level": r.level,
                      "graph_size": r.graph_size, "rho_G": r.rho_g,
                      "lower": r.lower, "upper": r.upper} for r in self.rows],
            "final_interval": list(self.final_interval),
            "epsilon": self.epsilon,
            "certified_unstable": self.certified_unstable,
            "certified_stable": self.certified_stable,
        }


def hierarchy(mats: MatrixSet, epsilon: float = 1e-2, l_max: int = 8,
              lp_tol: float = DEFAULT_LP_TOL,
              max_graph_nodes: int = 4096) -> HierarchyReport:
    """Bracket the JSR with De Bruijn graph LPs of growing memory.

    Level l solves the dual-norm LP on the memory-(l-1) De Bruijn graph
    and the primal-norm LP on its transpose.  Each certified rate
    (``RhoBound.gamma``) is an upper bound on the JSR, and each
    ``RhoBound.lower``, which never exceeds the LP value, gives a lower
    bound once scaled by ``n^(-1/l)``.  Levels run until the bracket is
    tighter than ``epsilon`` (not NaN; 0 runs every level) or ``l_max``
    (an integer >= 1) is passed.
    """
    if type(l_max) is not int or l_max < 1:
        raise ValueError(f"l_max must be an integer >= 1, got {l_max!r}")
    if math.isnan(epsilon):
        raise ValueError("epsilon must not be NaN")
    n = mats.n
    M = mats.size
    lower, upper = 0.0, math.inf
    rows = []
    l = 1
    while l <= l_max and not upper - lower < epsilon:
        if M ** (l - 1) > max_graph_nodes:
            raise ValueError(
                f"De Bruijn graph at level {l} needs {M ** (l - 1)} nodes, "
                f"beyond the {max_graph_nodes} cap")
        db = de_bruijn(M, l)
        scale = n ** (-1.0 / l)
        for suffix, graph, flavor in (("", db, DUAL),
                                      ("d", transpose(db), PRIMAL)):
            result = rho_bound(graph, mats, flavor, tol=lp_tol)
            lower = max(lower, scale * result.lower)
            upper = min(upper, result.gamma)
            rows.append(HierarchyStep(f"({l}){suffix}", flavor, l,
                                      len(graph.nodes), result.gamma, lower, upper))
        l += 1
    return HierarchyReport(tuple(rows), (lower, upper), epsilon,
                           certified_unstable=lower > 1.0,
                           certified_stable=upper < 1.0)


def common_function_check(g: LabeledGraph, mats: MatrixSet, cert: Certificate,
                          samples: int, seed: int = 0, tol: float = 1e-9) -> bool:
    """Sample-check that the certificate induces a single common function.

    A complete graph with a dual certificate yields the min of the node
    norms; a co-complete graph with a primal certificate yields the max.
    Checks ``V(A_i x) <= gamma V(x)`` on random nonnegative samples for
    every mode.
    """
    complete, co_complete = completeness_flags(g)
    if cert.flavor == DUAL:
        if not complete:
            raise ValueError("min-of-duals needs a complete graph")
        combine, evaluate = min, dual_eval
    elif cert.flavor == PRIMAL:
        if not co_complete:
            raise ValueError("max-of-primals needs a co-complete graph")
        combine, evaluate = max, primal_eval
    else:
        raise ValueError(f"unknown flavor {cert.flavor!r}")
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
