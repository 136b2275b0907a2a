"""Graph LP values by certified policy iteration, and a fixed-rate oracle.

For a graph ``g``, matrices ``A_1..A_M`` and a norm flavor, the graph LP
value is the infimum of the rates ``gamma`` at which strictly positive node
vectors satisfy every edge decrease inequality (see
:mod:`pclyap.copositive`).  Stack the node vectors into one vector ``v`` of
length ``|S| n``.  The dual inequalities then read ``B v <= gamma v`` for
every matrix ``B`` of a *product family*: row ``(b, r)`` of ``B`` is chosen,
independently of the other rows, among the rows ``r`` of ``A_i`` placed in
block ``a``, one candidate per in-edge ``(a, b, i)``.  The primal family is
the same on reversed edges with ``A_i^T``.  For product families the LP
value equals the largest spectral radius over the family (Protasov,
"Spectral simplex method", 2016; Cvetkovic & Protasov, "The greedy strategy
for optimizing the Perron eigenvalue", 2022), so :func:`rho_bound` searches
*policies*, one chosen candidate per row, instead of solving LPs:

1. Greedy step: switch every row to a candidate that strictly raises
   ``(B v)_r`` at the Perron vector ``v`` of the current policy matrix,
   while the spectral radius rises.  The spectral radius of the final
   policy, ``lower``, is a lower bound on the LP value.
2. Certificate step: Howard policy iteration on
   ``gamma_h v = 1 + max_B B v`` with ``gamma_h = lower + tol/4``.  If
   every policy it meets has spectral radius below ``gamma_h``, it ends
   with a positive ``v`` satisfying ``B v <= gamma_h v - 1`` for the whole
   family, a certificate with a relative margin at
   ``gamma = lower + tol/2``.  A policy whose linear solve is not positive
   has spectral radius at least ``gamma_h``; it raises ``lower`` and the
   greedy step resumes from it.  This is how reducible families, where
   the greedy step can stall below the optimum, are handled.

The first greedy policy takes each row's best candidate at a start vector:
the all-ones vector (the largest row sums) for :func:`rho_bound`, or a
supplied nonnegative vector, such as the certificate of the De Bruijn level
below that :func:`pclyap.jsr.hierarchy` carries up.  Both steps read a
policy's strongly connected components, which are found once per policy
and call; the dense policy matrix is rebuilt for every evaluation.

:func:`feasible` decides a single rate with the phase-1 simplex of
:mod:`pclyap.simplex`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .copositive import (
    Certificate,
    MatrixSet,
    _edge_arrays,
    _reject_bool,
    verify_certificate,
)
from .graphs import LabeledGraph, index_sccs, is_path_complete
from .simplex import DEFAULT_MAX_ITER, phase_one

DEFAULT_LP_TOL = 1e-6
DEFAULT_POLICY_STEPS = 1000
GREEDY_GAIN = 1e-12  # relative gain a greedy row switch must bring
UNKNOWN_CAP = 12_288  # unknowns |S| n of one LP: demo De Bruijn level 13 (4,096 nodes, n = 3)


def _constraint_rows(g: LabeledGraph, mats: MatrixSet, flavor: str, gamma: float):
    """Rows of ``G u <= h`` over shifted variables ``u = v - 1 >= 0``.

    Each edge inequality ``A v_src - gamma v_dst <= 0`` of
    :func:`pclyap.copositive._edge_arrays` gives ``n`` rows.  Rows are
    sorted by ``h`` and then by their bytes, so identical constraint
    systems solve identically however the graph was oriented or ordered.
    """
    src, dst, mode, stack = _edge_arrays(g, mats, flavor)
    n = mats.n
    vals = stack[mode].reshape(-1, n)  # row e*n + r is row r of edge e's matrix
    rows = np.arange(vals.shape[0])
    G = np.zeros((rows.size, len(g.nodes) * n))
    G[rows[:, None], np.repeat(src * n, n)[:, None] + np.arange(n)] = vals
    G[rows, (dst[:, None] * n + np.arange(n)).ravel()] -= gamma
    h = gamma - vals.sum(axis=1)
    order = np.lexsort(tuple(G.view(np.uint8).T[::-1]) + (h,))
    return G[order], h[order]


def feasible(g: LabeledGraph, mats: MatrixSet, flavor: str, gamma: float,
             max_iter: int = DEFAULT_MAX_ITER):
    """Witness :class:`Certificate` at rate ``gamma``, or None if infeasible.

    Decided by a phase-1 simplex with Bland's rule; a hit pivot cap raises
    rather than being folded into an infeasible verdict.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    G, h = _constraint_rows(g, mats, flavor, gamma)
    u = phase_one(G, h, max_iter=max_iter)
    if u is None:
        return None
    n = mats.n
    vectors = {s: 1.0 + u[k * n:(k + 1) * n] for k, s in enumerate(g.nodes)}
    return Certificate(flavor, gamma, vectors)


@dataclass(frozen=True, eq=False)
class _Family:
    """Candidate rows of a product family, sorted by row and then content.

    Candidate ``c`` offers the entries ``vals[c]`` in node block
    ``block[c]`` to row ``row[c]``; ``starts[r]`` is the first candidate of
    row ``r``.  Every row has at least one candidate.
    """

    n: int
    row: np.ndarray
    block: np.ndarray
    vals: np.ndarray
    starts: np.ndarray


def _family(g: LabeledGraph, mats: MatrixSet, flavor: str) -> _Family:
    """The product family of ``g`` for ``flavor``.

    Sorting and deduplicating by content makes the primal family of ``g``
    and the dual family of ``transpose(g)`` on transposed matrices the
    same arrays, so both solve bit-identically.
    """
    src, dst, mode, stack = _edge_arrays(g, mats, flavor)
    n, size = mats.n, len(g.nodes) * mats.n
    row = (dst[:, None] * n + np.arange(n)).ravel()
    block = np.repeat(src, n)
    vals = stack[mode].reshape(-1, n)
    # an unknown no edge bounds is unconstrained: an all-zero row stands for it
    free = np.flatnonzero(np.bincount(row, minlength=size) == 0)
    row = np.concatenate([row, free])
    block = np.concatenate([block, free // n])
    vals = np.concatenate([vals, np.zeros((free.size, n))])
    order = np.lexsort(tuple(vals.T[::-1]) + (block, row))
    row, block, vals = row[order], block[order], vals[order]
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = ((row[1:] != row[:-1]) | (block[1:] != block[:-1])
                | np.any(vals[1:] != vals[:-1], axis=1))
    row, block, vals = row[keep], block[keep], vals[keep]
    starts = np.flatnonzero(np.r_[True, row[1:] != row[:-1]])
    return _Family(n, row, block, vals, starts)


def _matrix(fam: _Family, policy) -> np.ndarray:
    """Dense matrix of the policy (one candidate index per row)."""
    size = policy.size
    B = np.zeros((size, size))
    cols = fam.block[policy][:, None] * fam.n + np.arange(fam.n)
    B[np.arange(size)[:, None], cols] = fam.vals[policy]
    return B


def _improve(fam: _Family, policy, v, gain):
    """Switch each row to its best candidate at ``v`` where that raises
    ``(B v)_r`` by more than the relative ``gain``; None when no row
    improves.  Ties go to the first candidate in content order."""
    values = np.einsum("cj,cj->c", fam.vals, v.reshape(-1, fam.n)[fam.block])
    best = np.maximum.reduceat(values, fam.starts)
    better = best > values[policy] * (1 + gain)
    if not better.any():
        return None
    index = np.where(values == best[fam.row], np.arange(values.size), values.size)
    return np.where(better, np.minimum.reduceat(index, fam.starts), policy)


def _components(B) -> list:
    """Strongly connected components of the nonzero pattern of ``B`` in
    topological order: ``B[i, j] != 0`` only if ``j`` lies in the component
    of ``i`` or a later one."""
    succ = [[] for _ in B]
    for r, c in zip(*(k.tolist() for k in np.nonzero(B))):
        succ[r].append(c)
    return index_sccs(succ)


def _perron(B, comps=None):
    """Spectral radius of ``B`` from below, and a nonnegative vector ``x``
    with ``B x >= rho x``.

    Each strongly connected component of the nonzero pattern has a simple
    Perron root, so reducible or defective matrices do not blur it.  A
    component's value is the Collatz-Wielandt bound ``min (B x)_i / x_i``
    of its computed eigenvector, which never exceeds its spectral radius;
    ``x`` is the best component's eigenvector, zero elsewhere.  ``comps``,
    when given, are the components of ``B`` as :func:`_components` finds
    them.
    """
    rho, best = 0.0, np.zeros(len(B))
    for comp in _components(B) if comps is None else comps:
        if len(comp) == 1:
            mu, x = float(B[comp[0], comp[0]]), np.ones(1)
        else:
            sub = B[np.ix_(comp, comp)]
            w, vecs = np.linalg.eig(sub)
            x = np.abs(vecs[:, np.argmax(w.real)].real)
            support = x > 0
            mu = float(np.min((sub @ x)[support] / x[support]))
        if mu > rho:
            rho, best = mu, np.zeros(len(B))
            best[comp] = x
    return rho, best


def _howard_values(B, comps, gamma):
    """Solution of ``(gamma I - B) v = 1``, or None when it is not finite
    and positive: then ``rho(B) >= gamma``.

    Solved one strongly connected component of ``B`` (``comps``, as
    :func:`_components` finds them) at a time, later components first.
    Nilpotent and triangular parts thus become sums of nonnegative terms,
    which stay accurate across the many orders of magnitude their entries
    span.
    """
    v = np.zeros(len(B))
    for comp in reversed(comps):
        if len(comp) == 1:  # positive by construction; overflow is caught below
            i = comp[0]
            pivot = gamma - B[i, i]
            if pivot <= 0:
                return None
            v[i] = (1.0 + B[i] @ v) / pivot
            continue
        try:
            x = np.linalg.solve(gamma * np.eye(len(comp)) - B[np.ix_(comp, comp)],
                                1.0 + B[comp] @ v)
        except np.linalg.LinAlgError:
            return None
        if not np.all(x > 0):
            return None
        v[comp] = x
    return v if np.all(np.isfinite(v)) else None


@dataclass(frozen=True)
class RhoBound:
    """Certified rate, the lower bound it was derived from, the witness and
    the solve trace.

    ``gamma`` equals ``certificate.gamma`` and lies in
    ``[lower, lower + tol]``, where ``lower`` is the spectral radius of a
    matrix of the product family (so never above the LP value).
    """

    gamma: float
    lower: float
    certificate: Certificate
    # (("greedy", spectral radius of the policy) | ("howard", gamma_h), ...)
    # in step order; one entry per policy evaluated
    trace: tuple

    def __iter__(self):  # allows gamma, cert = rho_bound(...)
        return iter((self.gamma, self.certificate))


def rho_bound(g: LabeledGraph, mats: MatrixSet, flavor: str,
              tol: float = DEFAULT_LP_TOL) -> RhoBound:
    """Best decay rate achievable on ``g`` for the chosen norm flavor.

    Certified policy iteration (see the module docstring).  The returned
    ``gamma`` is at most ``tol`` above ``lower``, which never exceeds the LP
    value, and the certificate verifies at exactly ``gamma``; a certificate
    that does not is an error, as is running past ``DEFAULT_POLICY_STEPS``
    policy evaluations.  A ``tol`` too small for floating point to separate
    ``lower + tol/4`` from ``lower``, or a ``bool``, raises ``ValueError``.
    Families whose rows are all zero get ``gamma == 0.0``.  More than
    ``UNKNOWN_CAP`` unknowns ``|S| n`` raise ``ValueError`` before any work.
    Graphs that are not path-complete only earn a warning: the LP value is
    still well defined, it just certifies nothing about arbitrary switching.
    """
    return _rho_bound(g, mats, flavor, tol)


def _rho_bound(g, mats, flavor, tol, start=None) -> RhoBound:
    """:func:`rho_bound`, its greedy step started from the nonnegative
    vector ``start`` (length ``|S| n``, node blocks in ``g.nodes`` order)
    instead of the all-ones vector when one is given."""
    _reject_bool("tol", tol)
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if len(g.nodes) * mats.n > UNKNOWN_CAP:
        raise ValueError(f"the LP has |S| n = {len(g.nodes) * mats.n:,} unknowns, "
                         f"beyond the {UNKNOWN_CAP:,} unknown cap")
    fam = _family(g, mats, flavor)
    if not is_path_complete(g):
        warnings.warn("graph is not path-complete; the computed value does "
                      "not bound the joint spectral radius")
    size = fam.starts.size
    if not fam.vals.any():  # the all-ones vectors certify the rate 0
        return _certified(g, mats, flavor, 0.0, 0.0, np.ones(size), ())
    trace, sccs = [], {}

    def evaluate(policy):
        """The dense matrix of ``policy`` and its components, which are
        found once per policy (keyed by its candidate indices)."""
        if len(trace) >= DEFAULT_POLICY_STEPS:
            raise RuntimeError(f"policy iteration did not converge within "
                               f"{DEFAULT_POLICY_STEPS} policy evaluations")
        B, key = _matrix(fam, policy), policy.tobytes()
        if key not in sccs:
            sccs[key] = _components(B)
        return B, sccs[key]

    lower, policy = -np.inf, None
    # the largest row sums, or the best rows at the given start
    candidate = _improve(fam, fam.starts, np.ones(size) if start is None else start, 0.0)
    if candidate is None:
        candidate = fam.starts
    while True:
        begun = lower
        while candidate is not None:  # greedy step
            rho, x = _perron(*evaluate(candidate))
            trace.append(("greedy", rho))
            if rho <= lower:  # stalled
                break
            lower, policy = rho, candidate
            candidate = _improve(fam, policy, x, GREEDY_GAIN)
        if lower == begun:  # only rounding can hide a radius of at least lower + tol/4
            raise ValueError(f"tol={tol!r} is too small to resolve in floating point: "
                             f"a policy failed the certificate step at rate "
                             f"{lower + tol / 4!r}, but its spectral radius "
                             f"{rho!r} is not above {lower!r}")
        gamma_h = lower + tol / 4
        # Howard stops once no row gains more than a relative tol / (8 gamma_h):
        # then B v <= (gamma_h + tol/8) v for the whole family, still below
        # gamma, and solve round-off far under that gain cannot cycle it.
        gain = tol / (8 * gamma_h)
        candidate = policy
        while True:  # certificate step
            v = _howard_values(*evaluate(candidate), gamma_h)
            trace.append(("howard", gamma_h))
            if v is None:
                break  # rho(candidate) >= gamma_h: the greedy step resumes from it
            nxt = _improve(fam, candidate, v, gain)
            if nxt is None:
                return _certified(g, mats, flavor, lower, lower + tol / 2, v / v.min(),
                                  tuple(trace))
            candidate = nxt


def _certified(g, mats, flavor, lower, gamma, v, trace) -> RhoBound:
    cert = Certificate._of_rows(flavor, gamma, g.nodes, v.reshape(len(g.nodes), mats.n))
    report = verify_certificate(g, mats, cert)
    if not report.ok:
        worst = max(r for _, r in report.violations)
        raise RuntimeError(f"certificate at gamma={gamma!r} fails on "
                           f"{len(report.violations)} edge(s); worst residual {worst:.3e}")
    return RhoBound(gamma, lower, cert, trace)
