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

from .copositive import DUAL, PRIMAL, MatrixSet, _composed, _reject_bool
from .feasibility import DEFAULT_LP_TOL, _check_unknowns, _perron, _rho_bound
from .graphs import _check_count
from .lifts import de_bruijn

PRODUCT_CAP = 10 ** 7  # work units of brute_force_bounds, one per product entry formed
_PER_PRODUCT = 8  # per-product arrays (exponents, norms, roots, temporaries), in entries
_PER_LENGTH = 500  # fixed cost of one length (about 125 us of batched calls), in entries
_EIG_CHUNK_ENTRIES = 2 ** 16  # matrix entries per batched eigen-solve
_CW_FLOOR = 1e-300  # positive floor of the Collatz-Wielandt test vectors
_REFINE_SLACK = 1e-8  # how far (relative) a batched eigenvalue modulus may read low
_SETTLED = 1e-12  # a Collatz-Wielandt value this close (relative) to the modulus needs no refinement
DEFAULT_EPSILON = 1e-2  # the bracket width at which hierarchy stops
DEFAULT_L_MAX = 8  # the last De Bruijn level hierarchy runs


def spectral_radius(A) -> float:
    """Perron root of a square nonnegative matrix, computed from below.

    The value of :func:`pclyap.feasibility._perron`: the largest
    Collatz-Wielandt bound ``min (A x)_i / x_i`` over the strongly connected
    components of the nonzero pattern, each at its computed eigenvector.
    It never exceeds the spectral radius, so products' radii give sound
    JSR lower bounds.  ``A`` is checked as a one-mode :class:`MatrixSet`.
    """
    return _perron(MatrixSet((A,)).stack[0])[0]


def _normalised(stack, exps):
    """``stack`` with each matrix divided by the power of two ``2**s`` that
    brings its inf-norm into [0.5, 1), ``exps + s``, and those inf-norms.

    Dividing by a power of two is exact, so the scaled matrices round the
    same way as unscaled ones that neither overflow nor underflow.
    """
    norms, shift = np.frexp(stack.sum(axis=2).max(axis=1))
    return np.ldexp(stack, -shift[:, None, None], out=stack), exps + shift, norms


def _root(mant, exps, k):
    """``(mant * 2**exps) ** (1/k)`` elementwise without forming
    ``mant * 2**exps``, which may overflow or underflow.

    With ``mant = m 2**e``, ``0.5 <= m < 1`` and ``exps + e = q k + r``,
    ``0 <= r < k``, the root is ``2**q * exp2((log2(m) + r) / k)``: the
    argument of ``exp2`` lies in [-1, 1) whatever the scale, so the root is
    within about 4 units of rounding of the exact one.
    """
    m, e = np.frexp(mant)
    q, r = np.divmod(exps + e, k)
    with np.errstate(divide="ignore", over="ignore"):  # log2(0) gives 0, too large inf
        return np.ldexp(np.exp2((np.log2(m) + r) / k), q)


def _products(mats: MatrixSet, K: int):
    """Yield ``(k, Q, exps, norms)`` for k = 1..K: the j-th product of
    length k is ``Q[j] * 2**exps[j]`` with inf-norm ``norms[j] * 2**exps[j]``.

    Product ``j * M + i`` of length k + 1 is ``A_i`` times product ``j``,
    and each length is one batched ``matmul`` of the previous stack.
    """
    _, shift = np.frexp(mats.stack.max(axis=(1, 2)))  # keeps the row sums below finite
    base, base_exps, norms = _normalised(np.ldexp(mats.stack, -shift[:, None, None]),
                                         shift.astype(np.int64))
    Q, exps = base, base_exps
    yield 1, Q, exps, norms
    for k in range(2, K + 1):
        Q, exps, norms = _normalised(np.matmul(base, Q[:, None]).reshape(-1, mats.n, mats.n),
                                     (exps[:, None] + base_exps).ravel())
        yield k, Q, exps, norms


def _radii(Q):
    """Batched spectral radii of the stack ``Q`` from below, and the largest
    eigenvalue moduli.

    The first value is the Collatz-Wielandt bound ``min (Q x)_i / x_i`` at
    ``x = |dominant eigenvector|`` clipped to a positive floor; it never
    exceeds the spectral radius, but reducible matrices can make it fall
    far below it.
    """
    w, vecs = np.linalg.eig(Q)
    top = np.argmax(w.real, axis=1)
    x = np.abs(np.take_along_axis(vecs, top[:, None, None], axis=2)[:, :, 0].real)
    x = np.maximum(x, _CW_FLOOR)
    return (np.matmul(Q, x[:, :, None])[:, :, 0] / x).min(axis=1), np.abs(w).max(axis=1)


def brute_force_bounds(mats: MatrixSet, K: int) -> tuple:
    """Lower/upper bounds on the JSR from all products of length <= K.

    Lower: max over lengths k and products P of ``rho(P)^(1/k)`` (each
    such value never exceeds the JSR).  Upper: min over k of
    ``max_P ||P||_inf^(1/k)`` (valid for every k by submultiplicativity).

    Each length is one stack of products, scaled by powers of two so that
    long products neither overflow nor underflow.  Radii are taken from
    below in batch, by the Collatz-Wielandt value at each product's
    clipped dominant eigenvector.  A product whose value falls short of
    its largest eigenvalue modulus, while that modulus reaches the running
    lower bound, is then re-evaluated one strongly connected component at
    a time, as :func:`spectral_radius` does: the clipped vector alone
    reads too low on reducible products.  Products whose value meets
    their modulus (stochastic or permutation modes, 1x1 systems) are
    settled in batch, however many tie at the top.  Each root is moved
    outward by ``n + 4`` ulps to cover the rounding of the products, the
    sums and the root, so ``lower <= upper``.

    The work is counted before any product is formed, one unit per matrix
    entry: ``(n^2 + 8) (M + ... + M^K)`` for the products and their
    per-product arrays, plus 500 per length.  More than ``PRODUCT_CAP``
    raises ``ValueError``, as does a bound that would read ``inf``.
    """
    _check_count("K", K)
    M, n = mats.size, mats.n
    work = None  # past 64 bits M^K alone exceeds the cap: skip building the big integer
    if K * math.log2(M) <= 64:
        products = K if M == 1 else (M ** (K + 1) - M) // (M - 1)  # M + ... + M^K
        work = (n * n + _PER_PRODUCT) * products + _PER_LENGTH * K
    if work is None or work > PRODUCT_CAP:
        count = "" if work is None else f" = {work:,}"
        raise ValueError(
            f"products of length 1 to {K} cost (n^2 + {_PER_PRODUCT}) (M + ... + M^K) "
            f"+ {_PER_LENGTH} K{count} work units with M = {M}, n = {n}, "
            f"beyond the {PRODUCT_CAP:,} unit cap")
    # Outward rounding.  k - 1 matmuls of nonnegative matrices leave each
    # product entry within a factor 1 +- (k - 1) n u of the exact one
    # (u = 2^-53); the row sums, or the Collatz-Wielandt ratios, add (n + 1) u.
    # The k-th root divides that by k, and _root adds at most 4 u: (n + 5) u
    # in all.  Moving the roots by (n + 4) ulps of 1, twice that, also covers
    # the rounding of the move.
    up, down = 1 + (n + 4) * 2.0 ** -52, 1 - (n + 4) * 2.0 ** -52
    lower, upper = 0.0, math.inf
    chunk = max(1, _EIG_CHUNK_ENTRIES // (n * n))
    for k, Q, exps, norms in _products(mats, K):
        upper = min(upper, float(_root(norms, exps, k).max()) * up)
        for s in range(0, len(Q), chunk):
            part, e = Q[s:s + chunk], exps[s:s + chunk]
            cw, top = _radii(part)
            lower = max(lower, float(_root(cw, e, k).max()) * down)
            reach = _root(top, e, k)
            short = np.flatnonzero(cw < top * (1 - _SETTLED))
            for j in short[np.argsort(-reach[short])]:
                if not reach[j] > lower * (1 - _REFINE_SLACK):
                    break
                lower = max(lower, float(_root(_perron(part[j])[0], e[j], k)) * down)
        if k == K and math.inf in (lower, upper):
            raise ValueError(f"products of length 1 to {K} bound the JSR beyond the "
                             f"float range: lower = {lower}, upper = {upper}")
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


def _word_rows(below, nodes, M):
    """For each of ``nodes``, the word ``s·i`` of a node ``s = below[k]``,
    its row ``k M + i - 1`` among the composed vectors of ``below`` (see
    :func:`pclyap.copositive._composed`): nodes are matched by name, not
    by position."""
    row = {s.value + (i,): k * M + i - 1 for k, s in enumerate(below) for i in range(1, M + 1)}
    return [row[s.value] for s in nodes]


def _start(cert, below, rows, B):
    """The start vector that ``cert``, a certificate on the nodes
    ``below``, gives the level above through the composition rule with
    the stack ``B``, in the node order ``rows`` of :func:`_word_rows`.  The
    vectors are first divided by the power of two that brings their
    largest entry into [0.5, 1), so composing cannot overflow; that
    exact scaling leaves the greedy step's row choices unchanged."""
    V = cert._rows(below)
    _, shift = np.frexp(V.max())
    return _composed(np.ldexp(V, -shift), B)[rows].ravel()


def hierarchy(mats: MatrixSet, epsilon: float = DEFAULT_EPSILON,
              l_max: int = DEFAULT_L_MAX) -> HierarchyReport:
    """Bracket the JSR with De Bruijn graph LPs of growing memory.

    Level l solves the dual-norm LP of the memory-(l-1) De Bruijn graph,
    built once, by :func:`rho_bound` at ``DEFAULT_LP_TOL``, with the modes
    ``A_i`` (row ``(l)``) and ``A_i^T`` (row ``(l)d``: the primal LP of the
    transpose with ``A_i``).  Each certified rate (``RhoBound.gamma``) is an
    upper bound on the JSR, and each ``RhoBound.lower``, which never exceeds
    the LP value, gives a lower bound once scaled by ``n^(-1/l)``.  Levels
    run until the bracket is tighter than ``epsilon`` (a number, not NaN or
    a ``bool``; 0 runs every level) or ``l_max`` (an integer >= 1) is
    passed.  If any level up to ``l_max`` has an LP of more than
    ``UNKNOWN_CAP`` unknowns (``M^(l-1) n``), the first such level raises
    ``ValueError`` before level 1 is built, even where ``epsilon`` would
    stop the run sooner.

    Each level starts from the level below.  Level l+1 is the backward
    composition lift of level l, with node ``s∘i`` the word ``s·i``.  So
    each row's level-l certificate, composed with its modes transposed as
    ``B`` (``A_i v_s`` for row ``(l)``, ``A_i^T v_s`` for ``(l)d``), is the
    vector that the greedy step of level l+1 starts from, in place of the
    all-ones vector; where positive, it certifies level l+1 at level l's rate.
    """
    _check_count("l_max", l_max)
    _reject_bool("epsilon", epsilon)
    if math.isnan(epsilon):
        raise ValueError("epsilon must not be NaN")
    n, M = mats.n, mats.size
    # up front: M >= 2 passes any cap below 2^63 by level 64, and M = 1 never grows
    for l in range(1, min(l_max, 64) + 1):
        _check_unknowns(M ** (l - 1) * n,
                        f"De Bruijn level {l} has M^(l-1) n = {M}^{l - 1} * {n}")
    lower, upper = 0.0, math.inf
    rows = []
    below, certs = None, {}  # the nodes of the level below, and each row's certificate
    mats_t = mats.transposed()
    # (suffix, kind, modes of the dual LP, composition stack B: those modes transposed)
    sides = (("", DUAL, mats, mats_t.stack), ("d", PRIMAL, mats_t, mats.stack))
    l = 1
    while l <= l_max and not upper - lower < epsilon:
        db = de_bruijn(M, l)
        scale = n ** (-1.0 / l)
        words = None if below is None else _word_rows(below, db.nodes, M)
        for suffix, kind, modes, B in sides:
            start = None if words is None else _start(certs[suffix], below, words, B)
            result = _rho_bound(db, modes, DUAL, DEFAULT_LP_TOL, start)
            certs[suffix] = result.certificate
            lower = max(lower, scale * result.lower)
            upper = min(upper, result.gamma)
            rows.append(HierarchyStep(f"({l}){suffix}", kind, l,
                                      len(db.nodes), result.gamma, lower, upper))
        below = db.nodes
        l += 1
    return HierarchyReport(tuple(rows), (lower, upper), epsilon,
                           certified_unstable=lower > 1.0,
                           certified_stable=upper < 1.0)
