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

Besides certificates and their transport along lifts
(:func:`transport_certificate`, which returns a certificate only once
:func:`verify_certificate` passes it on the lifted graph), the template
API evaluates the two norms (:func:`primal_eval`, :func:`dual_eval`) and
combines weight vectors (:func:`vee`).

Inside, a :class:`MatrixSet` is one checked, read-only ``(M, n, n)``
stack, which every consumer reads as it is.  One edge table,
:func:`_edge_arrays`, orients every edge inequality; apart from it only
transport's choice of rule and of its stack ``B`` read the flavor.  One
kernel, :func:`_residuals`, checks certificates: it forms every product
``A_k v_s`` once as ``V @ stack^T`` of shape ``(M, |S|, n)``, copies it
coordinate-major and gathers each edge's coordinates, ``M |S| n^2``
multiply-adds whatever the number of edges.  A certificate keeps the
report of its last check in one slot, so checking it again on the same
graph and matrix set objects runs no kernel.
"""

from __future__ import annotations

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
    return _positive_matrix(np.array(rows))


def _positive_matrix(matrix: np.ndarray) -> np.ndarray:
    """``matrix``, a float array the caller no longer writes, made read-only
    once it is checked to be ``(k, n)`` with ``n >= 1`` and finite, strictly
    positive entries."""
    if matrix.ndim != 2 or matrix.shape[1] < 1:
        raise ValueError("expected a 1-D vector of dimension >= 1")
    if not np.all(np.isfinite(matrix) & (matrix > 0)):
        raise ValueError("vector entries must be finite and strictly positive")
    matrix.setflags(write=False)
    return matrix


def _reject_bool(name, value):
    """A ``bool`` is a number to Python but never a meaningful tolerance or
    rate: refuse it as ``ValueError``, as the integer arguments do."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")


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
    """A switching system given by M nonnegative n-by-n matrices.

    The constructor is the one place that checks the modes: each must be
    square, at least 1x1, finite and nonnegative, there must be at least
    one, and all must share one size.  It copies them once into ``stack``,
    a read-only ``(M, n, n)`` float array, and keeps ``matrices`` as the
    tuple of its read-only views, so no caller can change a set's modes.
    """

    matrices: tuple
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arrs = []
        for m in self.matrices:
            a = np.asarray(m, dtype=float)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("matrices must be square")
            if not a.size:
                raise ValueError("matrices must be at least 1x1")
            if np.any(a < 0) or not np.all(np.isfinite(a)):
                raise ValueError("matrix entries must be finite and nonnegative")
            arrs.append(a)
        if not arrs:
            raise ValueError("need at least one matrix")
        if len({a.shape for a in arrs}) != 1:
            raise ValueError("all matrices must share one size")
        stack = np.array(arrs)
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    def __reduce__(self):  # copies and pickles rebuild through the checks, which freeze the stack
        return MatrixSet, (self.matrices,)

    @staticmethod
    def from_matrices(mats) -> "MatrixSet":
        return MatrixSet(tuple(mats))

    @property
    def n(self) -> int:
        return self.stack.shape[1]

    @property
    def size(self) -> int:
        return len(self.stack)

    def transposed(self) -> "MatrixSet":
        return MatrixSet(self.stack.transpose(0, 2, 1))


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
    ``v`` indexed by node position.  Dual keeps each edge's ends and
    ``A_i``; primal swaps the ends and transposes the stack."""
    if mats.size != g.alphabet_size:
        raise ValueError("alphabet size of graph and matrix set differ")
    if flavor not in (PRIMAL, DUAL):
        raise ValueError(f"unknown flavor {flavor!r}")
    src, dst, label = g._table
    if flavor == DUAL:
        return src, dst, label - 1, mats.stack
    return dst, src, label - 1, mats.stack.transpose(0, 2, 1)


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
        _reject_bool("gamma", self.gamma)
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not self.vectors:
            raise ValueError("certificate needs at least one node vector")
        self._store(list(self.vectors), _positive_rows(self.vectors.values()))

    def __reduce__(self):  # copies and pickles rebuild through the checks, which freeze vectors
        return Certificate, (self.flavor, self.gamma, dict(self.vectors))

    @classmethod
    def _of_rows(cls, flavor, gamma, nodes, matrix) -> "Certificate":
        """The certificate whose node ``nodes[k]`` has the vector ``matrix[k]``:
        ``flavor`` and ``gamma`` are known to be valid, ``nodes`` are
        distinct, and ``matrix``, which the caller checks with
        :func:`_positive_matrix`, is made read-only and kept."""
        matrix.setflags(write=False)
        cert = object.__new__(cls)
        object.__setattr__(cert, "flavor", flavor)
        object.__setattr__(cert, "gamma", gamma)
        cert._store(nodes, matrix)
        return cert

    def _store(self, nodes, matrix):
        """Keep the read-only ``(|S|, n)`` ``matrix`` and its rows as the
        vectors of ``nodes``, and ``nodes`` itself for :meth:`_rows`."""
        object.__setattr__(self, "vectors", MappingProxyType(dict(zip(nodes, matrix))))
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_row", {s: k for k, s in enumerate(nodes)})
        object.__setattr__(self, "_checked", None)  # (g, mats, tol, report): see verify_certificate

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def _rows(self, nodes) -> np.ndarray:
        """The vectors of the sequence ``nodes`` as the rows of one array, a
        copy unless ``nodes`` is the very sequence the certificate was built on."""
        if nodes is self._nodes:
            return self._matrix
        rows = list(map(self._row.get, nodes))
        if None in rows:
            missing = [s for s, k in zip(nodes, rows) if k is None]
            raise ValueError(f"certificate lacks vectors for nodes: {missing}")
        return self._matrix[rows]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple  # ((src, dst, label), residual) per failing edge

    def __bool__(self):
        return self.ok


def _residuals(V, src, dst, mode, stack, gamma) -> np.ndarray:
    """The residual of every edge inequality ``stack[mode[e]] @ V[src[e]] <=
    gamma V[dst[e]]``: the largest entry of the left side minus the right.

    Every product ``A_k v_s`` is formed once, as ``W = V @ stack^T`` of
    shape ``(M, |S|, n)`` (``M |S| n^2`` multiply-adds), and copied
    coordinate-major, so that one gather per side gives ``(n, |E|)`` arrays
    and the maximum runs over the short leading axis.  A constant number
    of numpy calls, whatever ``n``.
    """
    S, n = V.shape
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is a nan residual: it fails
        W = V @ stack.transpose(0, 2, 1)  # W[k, s] = stack[k] @ V[s]
        Wt = W.transpose(2, 0, 1).reshape(n, -1)  # a copy: Wt[:, k |S| + s] = W[k, s]
        R = Wt.take(mode * S + src, axis=1)
        R -= np.ascontiguousarray((gamma * V).T).take(dst, axis=1)  # in place: no third (n, |E|)
        return R.max(axis=0)


def verify_certificate(g: LabeledGraph, mats: MatrixSet, cert: Certificate,
                       tol=DEFAULT_TOL) -> VerificationReport:
    """Check the decrease predicate on every edge of ``g``.

    Requires a vector for every node, matching dimensions, and a matrix
    set whose size equals the graph alphabet.  An edge's residual is the
    largest entry of ``A v_src - gamma v_dst`` in the orientation of
    :func:`_edge_arrays`; it fails when that exceeds ``tol``.  All
    residuals come from one kernel, :func:`_residuals`, which forms every
    product ``A_k v_s`` once and gathers each edge's coordinates from it;
    violations are named only for failing edges.  A ``bool`` ``tol`` raises
    ``ValueError``.

    The certificate keeps its last report in one slot, keyed on the very
    graph and matrix set objects (``is``) and an equal ``tol``: a repeated
    check returns that report, the same object, and any other check runs the
    kernel and replaces the slot whole, so threads share it without a lock.
    The slot relies on the graph, the certificate's vectors and the modes of
    every :class:`MatrixSet` being read-only, as the lift memo of
    :mod:`pclyap.lifts` relies on graphs being immutable.
    """
    _reject_bool("tol", tol)
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if cert.dim != mats.n:
        raise ValueError("certificate dimension does not match matrices")
    checked = cert._checked
    if checked is not None and checked[0] is g and checked[1] is mats and checked[2] == tol:
        return checked[3]
    residuals = _residuals(cert._rows(g.nodes), *_edge_arrays(g, mats, cert.flavor), cert.gamma)
    failing = np.flatnonzero(~(residuals <= tol))
    a, b, label = (column[failing].tolist() for column in g._table)
    violations = tuple(((g.nodes[x], g.nodes[y], i), r)
                       for x, y, i, r in zip(a, b, label, residuals[failing].tolist()))
    report = VerificationReport(not violations, violations)
    object.__setattr__(cert, "_checked", (g, mats, tol, report))
    return report


def _composed(V, B) -> np.ndarray:
    """The composition rule's vectors: row ``s M + i - 1`` is ``B_i^T v_s``
    for row ``s`` of ``V`` and matrix ``i`` of the stack ``B``, the vector
    of node ``s∘i``.  Neither sign nor size is checked."""
    return (V @ B).transpose(1, 0, 2).reshape(-1, V.shape[1])  # (V @ B)[i, s] = B_i^T v_s


def transport_certificate(cert: Certificate, kind: str, g: LabeledGraph,
                          mats: MatrixSet) -> Certificate:
    """Carry a certificate of ``g`` to the lifted graph, at the same gamma.

    A dual certificate of ``g`` with modes ``A_i`` is a primal one of
    ``transpose(g)`` with modes ``A_i^T``, and a lift is the transpose of
    its twin's lift of ``transpose(g)`` (see :mod:`pclyap.lifts`; ``sum:T``
    is its own twin).  So a primal certificate moves by the rule of
    ``kind`` with ``B_i = A_i``, a dual one by the rule of the twin with
    ``B_i = A_i^T``, and the rules give these node vectors on the lift:

    * ``sum:T``: a multiset node gets the sum of its members' vectors.
    * ``min``: a subset node gets the componentwise minimum of its members'.
    * ``comp``: node ``s∘i`` gets ``B_i^T v_s``.
    * ``backcomp``: node ``s∘i`` gets ``B_i^{-T} v_s``; every mode matrix
      must be invertible, and the result holds only when the inverses are
      nonnegative maps of the orthant, else :class:`TransportError`.

    Each vector comes from the lifted node itself (its members, or its base
    node and label).  Both composition rules read :func:`_composed`, which
    also starts each level of :func:`pclyap.jsr.hierarchy`.

    There is no rule for ``max``: primal along ``max`` and dual along
    ``min`` raise ``ValueError``.

    Transported vectors of every kind must stay strictly positive (entries
    of at least ``POSITIVITY_FLOOR`` = 1e-12), or ``ValueError`` is raised.
    The given certificate is checked on ``g`` and the returned one on the
    lift, both by :func:`verify_certificate` at its default tolerance; a
    failure on the lift raises :class:`TransportError` with the number of
    failing edges and the worst residual.  The lift is the last one
    :func:`pclyap.lifts.lift` built, when it is of ``g`` and ``kind``, else
    it is built and sorted here.  The returned certificate is built on the
    lift's node tuple and keeps the report of its check on the lift (see
    :func:`verify_certificate`), so verifying it again on that lift object,
    with the same matrix set, returns that report without running the
    kernel.  Likewise the check on ``g`` runs no kernel when ``cert`` was
    last verified on ``g`` and ``mats`` at the default tolerance, as
    :func:`pclyap.rho_bound` leaves the certificates it returns.
    """
    name = lifts._parse_kind(kind)[0]
    rule = name if cert.flavor == PRIMAL else lifts._TWIN.get(name, name)
    if rule == "max":
        raise ValueError(f"transport of a {cert.flavor} certificate along "
                         f"{name!r} is not supported")
    if not verify_certificate(g, mats, cert).ok:
        raise ValueError("certificate does not verify on the source graph")

    lifted = lifts._lifted(g, kind)
    nodes = lifted.nodes
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite vectors are refused below
        if rule in ("sum", "min"):  # one reduction over each node's members, in canonical order
            starts = np.cumsum([0] + [len(node.value) for node in nodes[:-1]])
            members = cert._rows([c for node in nodes for c in node.value])
            vectors = (np.add if rule == "sum" else np.minimum).reduceat(members, starts)
        else:  # B_i = A_i (primal) or A_i^T (dual), in a writable C-ordered stack
            B = (mats.stack if cert.flavor == PRIMAL else mats.stack.transpose(0, 2, 1)).copy()
            if rule == "backcomp":
                for k, A in enumerate(B):
                    try:
                        B[k] = np.linalg.inv(A)
                    except np.linalg.LinAlgError as exc:
                        raise ValueError(f"mode matrix {k + 1} is singular") from exc
            position = {s: k for k, s in enumerate(g.nodes)}
            rows = [position[s] * mats.size + i - 1 for s, i in (node.value for node in nodes)]
            vectors = _composed(cert._rows(g.nodes), B)[rows]
    low = np.any(vectors < POSITIVITY_FLOOR, axis=1)
    if low.any():
        raise ValueError(f"transported vector at node {nodes[low.argmax()]} has an "
                         f"entry below {POSITIVITY_FLOOR}")
    moved = Certificate._of_rows(cert.flavor, cert.gamma, nodes, vectors)
    residuals = [r for _, r in verify_certificate(lifted, mats, moved).violations]
    if residuals:  # numpy's max, so that a NaN residual reads nan
        raise TransportError(f"transported certificate violates {len(residuals)} lifted "
                             f"edge(s); worst residual {np.max(residuals):.3e}")
    _positive_matrix(vectors)  # an infinite vector passes on a node with no edge out
    return moved
