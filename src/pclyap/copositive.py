"""Primal and dual copositive linear norms and their certificates.

A strictly positive vector ``v`` induces two norms on the nonnegative
orthant: the primal one ``x -> v.x`` and its dual ``x -> max_i x_i/v_i``.
A certificate attaches one such vector to every node of a path-complete
graph, together with a decay rate ``gamma``; :func:`verify_certificate`
checks, on every edge, the vector translation of the per-edge decrease
inequality

    (value at b)(A_i x) <= gamma * (value at a)(x)   for all x >= 0,

for an edge ``(a, b, i)``.  In vector form this reads:

    primal:  A_i^T v_b <= gamma * v_a      (componentwise)
    dual:    A_i   v_a <= gamma * v_b      (componentwise)

The dual case puts the source vector on the left because the weighted
max-norm inequality transposes the roles of the two weight vectors.

Besides certificates, the template API evaluates the two norms
(:func:`primal_eval`, :func:`dual_eval`) and combines weight vectors
(:func:`vee`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import lifts
from .graphs import LabeledGraph

PRIMAL = "primal"
DUAL = "dual"

POSITIVITY_FLOOR = 1e-12
DEFAULT_TOL = 1e-9


class TransportError(ValueError):
    """A transported certificate failed verification on the lifted graph."""


def _positive_rows(vectors) -> np.ndarray:
    """The vectors as the rows of one read-only ``(k, n)`` float array, a
    copy the caller cannot reach.  Every vector must be 1-D, of one
    dimension ``n >= 1``, with finite and strictly positive entries."""
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if len({r.shape for r in rows}) != 1:
        raise ValueError("certificate vectors must share one dimension")
    matrix = np.array(rows)
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise ValueError("expected a 1-D vector of dimension >= 1")
    if not np.all(np.isfinite(matrix) & (matrix > 0)):
        raise ValueError("vector entries must be finite and strictly positive")
    matrix.setflags(write=False)
    return matrix


def as_positive_vector(v) -> np.ndarray:
    """``v`` as a read-only strictly positive float vector (a copy)."""
    return _positive_rows([v])[0]


def _as_nonnegative_vector(x, dim):
    arr = np.asarray(x, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"dimension mismatch: expected {dim}, got {arr.shape}")
    if np.any(arr < 0):
        raise ValueError("vector must be componentwise nonnegative")
    return arr


@dataclass(frozen=True, eq=False)
class MatrixSet:
    """A switching system given by M nonnegative n-by-n matrices."""

    matrices: tuple

    @staticmethod
    def from_matrices(mats) -> "MatrixSet":
        arrs = []
        for m in mats:
            a = np.asarray(m, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("matrices must be square")
            if np.any(a < 0) or not np.all(np.isfinite(a)):
                raise ValueError("matrix entries must be finite and nonnegative")
            a = a.copy()
            a.setflags(write=False)
            arrs.append(a)
        if not arrs:
            raise ValueError("need at least one matrix")
        if len({a.shape for a in arrs}) != 1:
            raise ValueError("all matrices must share one size")
        return MatrixSet(tuple(arrs))

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.matrices)

    def transposed(self) -> "MatrixSet":
        return MatrixSet.from_matrices([m.T for m in self.matrices])


def primal_eval(v, x) -> float:
    """Primal norm v.x of a nonnegative point."""
    v = as_positive_vector(v)
    x = _as_nonnegative_vector(x, v.size)
    return float(v @ x)


def dual_eval(v, x) -> float:
    """Dual norm max_i x_i / v_i of a nonnegative point."""
    v = as_positive_vector(v)
    x = _as_nonnegative_vector(x, v.size)
    return float(np.max(x / v))


def vee(v, w) -> np.ndarray:
    """Componentwise minimum; the weight vector of max of dual norms and of
    infimal convolution of primal norms."""
    v = as_positive_vector(v)
    w = as_positive_vector(w)
    if v.size != w.size:
        raise ValueError("dimension mismatch")
    return as_positive_vector(np.minimum(v, w))


def _edge_arrays(g: LabeledGraph, mats: MatrixSet, flavor: str):
    """The edge inequalities of ``g`` as arrays ``src, dst, mode, stack``:
    edge ``e`` demands ``stack[mode[e]] @ v[src[e]] <= gamma v[dst[e]]``, with
    ``v`` indexed by node position.  Dual keeps the edge's ends and ``A_i``;
    primal swaps the ends and transposes the stack.
    """
    if flavor not in (PRIMAL, DUAL):
        raise ValueError(f"unknown flavor {flavor!r}")
    if mats.size != g.alphabet_size:
        raise ValueError("alphabet size of graph and matrix set differ")
    src, dst, label = g._table
    mode = label - 1
    stack = np.stack(mats.matrices)
    if flavor == DUAL:
        return src, dst, mode, stack
    return dst, src, mode, stack.transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class Certificate:
    """One strictly positive vector per graph node, plus a decay rate.

    ``gamma`` travels inside the certificate: the vectors are meaningless
    without the rate they were found at.
    """

    flavor: str
    gamma: float
    vectors: dict = field(hash=False)

    def __post_init__(self):
        if self.flavor not in (PRIMAL, DUAL):
            raise ValueError(f"flavor must be {PRIMAL!r} or {DUAL!r}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not self.vectors:
            raise ValueError("certificate needs at least one node vector")
        matrix = _positive_rows(self.vectors.values())  # (|S|, n)
        object.__setattr__(self, "vectors", MappingProxyType(dict(zip(self.vectors, matrix))))
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_row", {s: k for k, s in enumerate(self.vectors)})

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple  # ((src, dst, label), residual) per failing edge

    def __bool__(self):
        return self.ok


def verify_certificate(g: LabeledGraph, mats: MatrixSet, cert: Certificate,
                       tol=DEFAULT_TOL) -> VerificationReport:
    """Check the decrease predicate on every edge of ``g``.

    Requires a vector for every node, matching dimensions, and a matrix
    set whose size equals the graph alphabet.  An edge's residual is the
    largest entry of ``A v_src - gamma v_dst`` in the orientation of
    :func:`_edge_arrays`; it fails when that exceeds ``tol``.  Every
    product ``A_k v_s`` is formed once, as ``W = V @ stack^T`` of shape
    ``(M, |S|, n)`` (``M |S| n^2`` multiply-adds), and each edge gathers
    its row ``W[mode, src]``; violations are named only for failing edges.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if cert.dim != mats.n:
        raise ValueError("certificate dimension does not match matrices")
    rows = list(map(cert._row.get, g.nodes))
    if None in rows:
        missing = [s for s, k in zip(g.nodes, rows) if k is None]
        raise ValueError(f"certificate lacks vectors for nodes: {missing}")
    src, dst, mode, stack = _edge_arrays(g, mats, cert.flavor)
    V = cert._matrix[rows]
    W = V @ stack.transpose(0, 2, 1)  # W[k, s] = stack[k] @ V[s]
    residuals = np.max(W[mode, src] - cert.gamma * V[dst], axis=1)
    failing = np.flatnonzero(~(residuals <= tol))
    a, b, label = (column[failing].tolist() for column in g._table)
    violations = tuple(((g.nodes[x], g.nodes[y], i), r)
                       for x, y, i, r in zip(a, b, label, residuals[failing].tolist()))
    return VerificationReport(not violations, violations)


_SUPPORTED_TRANSPORTS = {
    ("sum", PRIMAL), ("sum", DUAL),
    ("max", DUAL),
    ("min", PRIMAL),
    ("comp", PRIMAL),
    ("backcomp", PRIMAL),
}


def transport_certificate(cert: Certificate, kind: str, g: LabeledGraph,
                          mats: MatrixSet) -> Certificate:
    """Carry a certificate of ``g`` to the lifted graph, at the same gamma.

    Node vectors on the lift:

    * ``sum:T`` (both flavors): a multiset node gets the sum of its
      members' vectors.
    * ``max`` (dual only) and ``min`` (primal only): a subset node gets the
      componentwise minimum of its members' vectors.
    * ``comp`` (primal only): node ``s∘i`` gets ``A_i^T v_s``.
    * ``backcomp`` (primal only): node ``s∘i`` gets ``A_i^{-T} v_s``; every
      mode matrix must be invertible.  The construction is only guaranteed
      when the inverses are again nonnegative maps of the orthant, so the
      result is re-verified and a :class:`TransportError` raised otherwise.

    Transported vectors must stay strictly positive (entries above 1e-12).
    Both certificates are checked by :func:`verify_certificate` at its
    default tolerance: the given one on ``g``, the returned one on the lift.
    """
    base = kind.split(":", 1)[0]
    if (base, cert.flavor) not in _SUPPORTED_TRANSPORTS:
        raise ValueError(f"transport of a {cert.flavor} certificate along "
                         f"{base!r} is not supported")
    if not verify_certificate(g, mats, cert).ok:
        raise ValueError("certificate does not verify on the source graph")

    lifted = lifts.lift(g, kind)
    V = cert._matrix
    if base in ("sum", "max", "min"):  # the sum or minimum over each node's members
        members = [[cert._row[c] for c in node.value] for node in lifted.nodes]
        starts = np.cumsum([0] + [len(m) for m in members[:-1]])
        combine = np.add if base == "sum" else np.minimum
        vectors = combine.reduceat(V[list(itertools.chain.from_iterable(members))], starts)
    else:  # node s∘i gets A_i^T v_s (comp) or A_i^{-T} v_s (backcomp)
        maps = [A.T for A in mats.matrices]
        if base == "backcomp":
            for k, A in enumerate(mats.matrices):
                try:
                    maps[k] = np.linalg.inv(A).T
                except np.linalg.LinAlgError as exc:
                    raise ValueError(f"mode matrix {k + 1} is singular") from exc
        vectors = np.array([maps[i - 1] @ V[cert._row[s]] for s, i in
                            (node.value for node in lifted.nodes)])
        low = np.flatnonzero(np.any(vectors < POSITIVITY_FLOOR, axis=1))
        if low.size:
            raise ValueError(f"transported vector at node {lifted.nodes[low[0]]} has an "
                             f"entry below {POSITIVITY_FLOOR}")

    out = Certificate(cert.flavor, cert.gamma, dict(zip(lifted.nodes, vectors)))
    check = verify_certificate(lifted, mats, out)
    if not check.ok:
        raise TransportError(
            f"transported certificate violates {len(check.violations)} lifted "
            f"edge(s); worst residual {max(r for _, r in check.violations):.3e}")
    return out

