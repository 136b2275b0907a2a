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
    ``v`` indexed by node position (see :func:`_oriented`)."""
    if mats.size != g.alphabet_size:
        raise ValueError("alphabet size of graph and matrix set differ")
    return _oriented(*g._table, mats, flavor)


def _oriented(src, dst, label, mats: MatrixSet, flavor: str):
    """The edges ``(src[e], dst[e], label[e])`` as inequalities ``src, dst,
    mode, stack`` in the form of :func:`_edge_arrays`.  Dual keeps the
    edge's ends and ``A_i``; primal swaps the ends and transposes the stack.
    """
    if flavor not in (PRIMAL, DUAL):
        raise ValueError(f"unknown flavor {flavor!r}")
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
        _reject_bool("gamma", self.gamma)
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not self.vectors:
            raise ValueError("certificate needs at least one node vector")
        self._store(list(self.vectors), _positive_rows(self.vectors.values()))

    @classmethod
    def _of_rows(cls, flavor, gamma, nodes, matrix) -> "Certificate":
        """The certificate whose node ``nodes[k]`` has the vector ``matrix[k]``:
        ``flavor`` and ``gamma`` are known to be valid, ``nodes`` are
        distinct, and ``matrix`` is checked as a whole and then kept."""
        cert = object.__new__(cls)
        object.__setattr__(cert, "flavor", flavor)
        object.__setattr__(cert, "gamma", gamma)
        cert._store(nodes, _positive_matrix(matrix))
        return cert

    def _store(self, nodes, matrix):
        """Keep the read-only ``(|S|, n)`` ``matrix`` and its rows as the
        vectors of ``nodes``."""
        object.__setattr__(self, "vectors", MappingProxyType(dict(zip(nodes, matrix))))
        object.__setattr__(self, "_matrix", matrix)
        object.__setattr__(self, "_row", {s: k for k, s in enumerate(nodes)})

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def _rows(self, nodes) -> np.ndarray:
        """The vectors of the sequence ``nodes`` as the rows of one array."""
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
    """
    _reject_bool("tol", tol)
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    if cert.dim != mats.n:
        raise ValueError("certificate dimension does not match matrices")
    residuals = _residuals(cert._rows(g.nodes), *_edge_arrays(g, mats, cert.flavor), cert.gamma)
    failing = np.flatnonzero(~(residuals <= tol))
    a, b, label = (column[failing].tolist() for column in g._table)
    violations = tuple(((g.nodes[x], g.nodes[y], i), r)
                       for x, y, i, r in zip(a, b, label, residuals[failing].tolist()))
    return VerificationReport(not violations, violations)


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

    Both composition rules come from one helper, :func:`_composed`, given
    the transposed stack of the one :func:`_oriented` call as ``B``; it also
    starts each level of :func:`pclyap.jsr.hierarchy`, without the floor check.

    There is no rule for ``max``: primal along ``max`` and dual along
    ``min`` raise ``ValueError``.

    Transported vectors of every kind must stay strictly positive (entries
    of at least ``POSITIVITY_FLOOR`` = 1e-12), or ``ValueError`` is raised.
    The given certificate is checked on ``g`` by :func:`verify_certificate`;
    the returned one is checked on the lift at the same default tolerance,
    through the same residual kernel, on the lift's nodes and edges as
    :func:`pclyap.lifts._lift_arrays` builds them, unsorted.  They are read
    from the last lift built (:func:`pclyap.lifts.lift` remembers one, so a
    ``lift(g, kind)`` just before costs no second build), else built here.
    Its vectors come in the lift's canonical node order.
    """
    name = lifts._parse_kind(kind)[0]
    rule = name if cert.flavor == PRIMAL else lifts._TWIN.get(name, name)
    if rule == "max":
        raise ValueError(f"transport of a {cert.flavor} certificate along "
                         f"{name!r} is not supported")
    if not verify_certificate(g, mats, cert).ok:
        raise ValueError("certificate does not verify on the source graph")

    nodes, *table = lifts._built(g, kind)
    edges = _oriented(*table, mats, cert.flavor)
    V = cert._rows(g.nodes)  # row k: node g.nodes[k]
    if rule == "sum":  # the sum over each multiset's members, in their canonical order
        starts = np.cumsum([0] + [len(node.value) for node in nodes[:-1]])
        vectors = np.add.reduceat(cert._rows([c for node in nodes for c in node.value]), starts)
    elif rule == "min":  # subset A - 1 gets min(v over A), grown bit by bit
        vectors = np.full((1 << len(g.nodes), V.shape[1]), np.inf)
        for b in range(len(g.nodes)):
            np.minimum(vectors[:1 << b], V[b], out=vectors[1 << b:2 << b])
        vectors = vectors[1:]
    else:
        B = edges[3].transpose(0, 2, 1).copy()  # B_i = A_i (primal) or A_i^T (dual)
        if rule == "backcomp":
            for k, A in enumerate(B):
                try:
                    B[k] = np.linalg.inv(A)
                except np.linalg.LinAlgError as exc:
                    raise ValueError(f"mode matrix {k + 1} is singular") from exc
        vectors = _composed(V, B)
    low = np.flatnonzero(np.any(vectors < POSITIVITY_FLOOR, axis=1))
    if low.size:
        raise ValueError(f"transported vector at node {min(nodes[p] for p in low)} has an "
                         f"entry below {POSITIVITY_FLOOR}")
    residuals = _residuals(vectors, *edges, cert.gamma)
    failing = residuals[~(residuals <= DEFAULT_TOL)]
    if failing.size:
        raise TransportError(
            f"transported certificate violates {failing.size} lifted "
            f"edge(s); worst residual {failing.max():.3e}")
    order = sorted(range(len(nodes)), key=nodes.__getitem__)
    return Certificate._of_rows(cert.flavor, cert.gamma, [nodes[p] for p in order],
                                vectors[order])
