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
   the greedy step can stall below the optimum, are handled.  Where the
   resumed policy's Perron value still reads no higher than ``lower``, it
   is read again with one shifted inverse-iteration step per component
   (see :func:`_perron`); a value that still does not rise above ``lower``,
   by a gap ``tol/4`` wider than ``PERRON_ACCURACY`` relative, makes
   ``tol`` too small to resolve, and ``ValueError`` says so.

A family's candidates are ordered by the integer key ``row * |S| + block``
alone, with one stable sort.  Two candidates share a key only when
parallel edges offer one row the same block (the one node of De Bruijn
level 1 has every mode as a self-loop); then the family falls back on
ordering by key and then content, and keeps one of equal candidates.
Where no keys tie, the two orders are the same, so either way the arrays
are those of the content order.

The first greedy policy takes each row's best candidate at a start vector:
the all-ones vector (the largest row sums) for :func:`rho_bound`, or a
supplied nonnegative vector, such as the certificate of the De Bruijn level
below that :func:`pclyap.jsr.hierarchy` carries up.  Both steps read a
policy's strongly connected components, which are found once per policy
and call from its candidate entries, without scanning the dense matrix.
One call keeps the dense matrix of the last policy it evaluated, and
builds a new one only when the policy changes; the old one is dropped
first, so at most one is alive.

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
    _positive_matrix,
    _reject_bool,
    verify_certificate,
)
from .graphs import LabeledGraph, index_sccs, is_path_complete
from .simplex import DEFAULT_MAX_ITER, phase_one

DEFAULT_LP_TOL = 1e-6
DEFAULT_POLICY_STEPS = 1000
GREEDY_GAIN = 1e-12  # relative gain a greedy row switch must bring
PERRON_SHIFT = 1e-12  # relative shift of the inverse-iteration step that refines a Perron value
PERRON_ACCURACY = 1e-12  # relative error of a refined Perron value whose vector spans up to 1e17
UNKNOWN_CAP = 12_288  # unknowns |S| n of one LP: demo De Bruijn level 13 (4,096 nodes, n = 3)


def _check_unknowns(count: int, what: str):
    """Refuse an LP of more than ``UNKNOWN_CAP`` unknowns with
    ``ValueError``: the one test of the cap and its message, in which
    ``what`` names ``count``."""
    if count > UNKNOWN_CAP:
        raise ValueError(f"{what} = {count:,} unknowns, beyond the {UNKNOWN_CAP:,} unknown cap")


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
    """Candidate rows of a product family, sorted by row, block and then
    content.

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

    Candidates are ordered by their integer key ``row * |S| + block`` with
    one stable sort.  Only when two candidates share a key (a node with
    parallel edges, such as the one node of De Bruijn level 1) are they
    sorted by content as well and deduplicated; the two orders agree
    wherever the keys are distinct.  Sorting and deduplicating by content
    makes the primal family of ``g`` and the dual family of
    ``transpose(g)`` on transposed matrices the same arrays, so both solve
    bit-identically.
    """
    src, dst, mode, stack = _edge_arrays(g, mats, flavor)
    nodes = len(g.nodes)
    n, size = mats.n, nodes * mats.n
    row = (dst[:, None] * n + np.arange(n)).ravel()
    block = src.repeat(n)
    vals = stack.take(mode, 0).reshape(-1, n)
    # an unknown no edge bounds is unconstrained: an all-zero row stands for it
    free = (np.bincount(row, minlength=size) == 0).nonzero()[0]
    if free.size:
        row = np.concatenate((row, free))
        block = np.concatenate((block, free // n))
        vals = np.concatenate((vals, np.zeros((free.size, n))))
    key = row * nodes + block  # orders as (row, block)
    order = key.argsort(kind="stable")
    row, block, key = row.take(order), block.take(order), key.take(order)
    vals = vals.take(order, 0)
    if (key[1:] == key[:-1]).any():  # tied keys: order by content, keep one of equal rows
        order = np.lexsort(tuple(vals.T[::-1]) + (key,))
        row, block, vals, key = row[order], block[order], vals[order], key[order]
        keep = np.ones(row.size, dtype=bool)
        keep[1:] = (key[1:] != key[:-1]) | np.any(vals[1:] != vals[:-1], axis=1)
        row, block, vals = row[keep], block[keep], vals[keep]
    starts = np.concatenate(((True,), row[1:] != row[:-1])).nonzero()[0]
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
    values = np.einsum("cj,cj->c", fam.vals, v.reshape(-1, fam.n).take(fam.block, 0))
    best = np.maximum.reduceat(values, fam.starts)
    better = best > values.take(policy) * (1 + gain)
    if not better.any():
        return None
    index = np.where(values == best.take(fam.row), np.arange(values.size), values.size)
    return np.where(better, np.minimum.reduceat(index, fam.starts), policy)


def _components(B) -> list:
    """Strongly connected components of the nonzero pattern of ``B`` in
    topological order: ``B[i, j] != 0`` only if ``j`` lies in the component
    of ``i`` or a later one."""
    return index_sccs(len(B), *np.nonzero(B))


def _policy_components(fam: _Family, policy) -> list:
    """:func:`_components` of ``_matrix(fam, policy)``, read from the
    policy's candidate entries without forming the matrix: entry ``j`` of
    row ``r`` sits in column ``block * n + j``, so the edges come in the
    order ``np.nonzero`` gives them and the lists are the same."""
    r, j = fam.vals.take(policy, 0).nonzero()
    return index_sccs(policy.size, r, fam.block.take(policy.take(r)) * fam.n + j)


def _perron(B, comps=None, refine=False):
    """Spectral radius of ``B`` from below, and a nonnegative vector ``x``
    with ``B x >= rho x``.

    Each strongly connected component of the nonzero pattern has a simple
    Perron root, so reducible or defective matrices do not blur it.  A
    component's value is the Collatz-Wielandt bound ``min (B x)_i / x_i``
    of its computed eigenvector, which never exceeds its spectral radius;
    ``x`` is the best component's eigenvector, zero elsewhere.  ``comps``,
    when given, are the components of ``B`` as :func:`_components` finds
    them (:func:`_policy_components` reads the same lists from a policy).

    The eigenvector is accurate relative to its largest entry only, so
    where its entries span many decades the bound can read low.  With
    ``refine``, each component of several nodes also takes one shifted
    inverse-iteration step ``y = (lam (1 + PERRON_SHIFT) I - sub)^-1 x``,
    ``lam`` its largest eigenvalue modulus, and keeps the bound at ``|y|``
    where it is higher; the call then returns ``(rho, x, estimate)``, with
    ``estimate`` the largest eigenvalue modulus over the components.
    """
    rho, top, estimate, diagonal = 0.0, None, 0.0, B.diagonal().tolist()
    for comp in _components(B) if comps is None else comps:
        if len(comp) == 1:
            mu = lam = diagonal[comp[0]]
            x = 1.0
        else:
            sub = B.take(comp, 0).take(comp, 1)
            w, vecs = np.linalg.eig(sub)
            x = np.abs(vecs[:, w.real.argmax()].real)
            mu = _collatz_wielandt(sub, x)
            if refine:
                lam = float(np.abs(w).max())
                nu, y = _inverse_step(sub, x, lam)
                if nu > mu:
                    mu, x = nu, y
        if refine:
            estimate = max(estimate, lam)
        if mu > rho:
            rho, top = mu, (comp, x)
    best = np.zeros(len(B))
    if top is not None:
        best[top[0]] = top[1]
    return (rho, best, estimate) if refine else (rho, best)


def _collatz_wielandt(sub, x) -> float:
    """``min (sub x)_i / x_i`` over the support of ``x``."""
    support = x > 0
    return float(((sub @ x)[support] / x[support]).min())


def _inverse_step(sub, x, lam):
    """The Collatz-Wielandt bound at ``|y|``, ``y`` one shifted
    inverse-iteration step from ``x`` towards the Perron vector of the
    irreducible ``sub`` (largest eigenvalue modulus ``lam``), and ``|y|``
    scaled to a largest entry of 1; ``(0.0, x)`` when the step fails."""
    try:
        y = np.abs(np.linalg.solve(lam * (1 + PERRON_SHIFT) * np.eye(len(sub)) - sub, x))
    except np.linalg.LinAlgError:
        return 0.0, x
    top = y.max()
    if not 0 < top < np.inf:
        return 0.0, x
    y /= top
    return _collatz_wielandt(sub, y), y


def _howard_values(B, comps, gamma):
    """Solution of ``(gamma I - B) v = 1``, or None when a block is
    singular or the solution is not finite and positive: then
    ``rho(B) >= gamma``.

    Solved one strongly connected component of ``B`` (``comps``, as
    :func:`_components` or :func:`_policy_components` finds them) at a
    time, later components first.  Nilpotent and triangular parts thus
    become sums of nonnegative terms, which stay accurate across the many
    orders of magnitude their entries span.
    """
    v, diagonal = np.zeros(len(B)), B.diagonal().tolist()
    for comp in reversed(comps):
        if len(comp) == 1:  # positive by construction; overflow is caught below
            i = comp[0]
            pivot = gamma - diagonal[i]
            if pivot <= 0:
                return None
            v[i] = (1.0 + B[i].dot(v)) / pivot
            continue
        rows = B.take(comp, 0)
        try:
            x = np.linalg.solve(gamma * np.eye(len(comp)) - rows.take(comp, 1),
                                1.0 + rows @ v)
        except np.linalg.LinAlgError:
            return None
        if not (x > 0).all():
            return None
        v[comp] = x
    return v if np.isfinite(v).all() else None


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
    policy evaluations.  A ``bool`` ``tol`` raises ``ValueError``, and so
    does a ``tol`` too small to resolve: the certificate step refused a
    policy whose Perron value, even refined, is not above ``lower``, or
    ``tol/4`` is at most ``PERRON_ACCURACY * lower``, a gap the refined
    value cannot tell from its own error.
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
    _check_unknowns(len(g.nodes) * mats.n, "the LP has |S| n")
    fam = _family(g, mats, flavor)
    if not is_path_complete(g):
        warnings.warn("graph is not path-complete; the computed value does "
                      "not bound the joint spectral radius")
    size = fam.starts.size
    if not fam.vals.any():  # the all-ones vectors certify the rate 0
        return _certified(g, mats, flavor, 0.0, 0.0, np.ones(size), ())
    trace, sccs = [], {}
    held_key, held = None, None  # the last policy evaluated and its dense matrix

    def evaluate(policy):
        """The dense matrix of ``policy`` and its components.  Components
        are found once per policy (keyed by its candidate indices) from its
        candidate entries.  The matrix is built only when the policy differs
        from the last one evaluated, as the greedy step's last policy is the
        certificate step's first; the old matrix is dropped before the new
        one is built, so at most one is alive."""
        nonlocal held_key, held
        if len(trace) >= DEFAULT_POLICY_STEPS:
            raise RuntimeError(f"policy iteration did not converge within "
                               f"{DEFAULT_POLICY_STEPS} policy evaluations")
        key = policy.tobytes()
        if key != held_key:
            held = None  # drop the old matrix before building the new one
            held, held_key = _matrix(fam, policy), key
        if key not in sccs:
            sccs[key] = _policy_components(fam, policy)
        return held, sccs[key]

    lower, policy = -np.inf, None
    # the largest row sums, or the best rows at the given start
    candidate = _improve(fam, fam.starts, np.ones(size) if start is None else start, 0.0)
    if candidate is None:
        candidate = fam.starts
    while True:
        begun = lower
        while candidate is not None:  # greedy step
            rho, x = _perron(*evaluate(candidate))
            if rho <= lower == begun:  # the policy the certificate step refused reads low
                rho, x, estimate = _perron(*evaluate(candidate), refine=True)
                # the refined value settles the stall only if it rises above lower
                # and tol/4 exceeds the relative error PERRON_ACCURACY it may carry
                if not (rho > lower and tol / 4 > PERRON_ACCURACY * lower):
                    raise ValueError(
                        f"tol={tol!r} is too small to resolve in floating point: a policy "
                        f"failed the certificate step at rate {lower + tol / 4!r}, but its "
                        f"spectral radius reads {rho!r} (eigenvalue estimate {estimate!r}) "
                        f"against the lower bound {lower!r}")
            trace.append(("greedy", rho))
            if rho <= lower:  # stalled
                break
            lower, policy = rho, candidate
            candidate = _improve(fam, policy, x, GREEDY_GAIN)
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
    cert = Certificate._of_rows(flavor, gamma, g.nodes, _positive_matrix(v.reshape(-1, mats.n)))
    report = verify_certificate(g, mats, cert)
    if not report.ok:
        worst = max(r for _, r in report.violations)
        raise RuntimeError(f"certificate at gamma={gamma!r} fails on "
                           f"{len(report.violations)} edge(s); worst residual {worst:.3e}")
    return RhoBound(gamma, lower, cert, trace)
