import copy
import pickle
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pclyap import (
    Certificate,
    MatrixSet,
    NodeId,
    TransportError,
    common_lyapunov_graph,
    dual_eval,
    make_graph,
    max_lift,
    min_lift,
    primal_eval,
    rho_bound,
    sum_lift,
    transport_certificate,
    transpose,
    vee,
    verify_certificate,
)
from pclyap import copositive, graphs, lifts, serialize

import helpers
from helpers import A, B


st_dim = st.integers(1, 5)


def positive_vectors(n):
    return hnp.arrays(np.float64, n, elements=st.floats(0.1, 10.0))


def nonneg_vectors(n):
    return hnp.arrays(np.float64, n, elements=st.floats(0.0, 10.0))


# ------------------------------------------------------------- evaluations

def test_primal_eval_examples():
    assert primal_eval([1, 1], [2, 3]) == 5
    assert primal_eval([1, 2], [0, 0]) == 0
    assert primal_eval(np.array([2, 2]), [1, 1]) == 4  # scaling in v


def test_dual_eval_examples():
    assert dual_eval([1, 2], [2, 2]) == 2
    assert dual_eval([1, 2], [0, 0]) == 0
    assert dual_eval([2, 2], [1, 1]) == 0.5  # inverse scaling in v


def test_eval_validation():
    with pytest.raises(ValueError):
        primal_eval([1, 1], [1])
    with pytest.raises(ValueError):
        dual_eval([1, 1], [-1, 0])
    with pytest.raises(ValueError):
        dual_eval([0, 1], [1, 1])
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            primal_eval([bad, 1], [1, 1])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_eval_scaling_laws(data):
    n = data.draw(st_dim)
    v = data.draw(positive_vectors(n))
    x = data.draw(nonneg_vectors(n))
    lam = data.draw(st.floats(0.1, 10.0))
    assert primal_eval(lam * v, x) == pytest.approx(lam * primal_eval(v, x))
    assert dual_eval(lam * v, x) == pytest.approx(dual_eval(v, x) / lam)


def test_vee_examples():
    assert np.allclose(vee([1, 3], [2, 2]), [1, 2])
    v = np.array([0.5, 4.0])
    assert np.allclose(vee(v, v), v)
    with pytest.raises(ValueError):
        vee([1, 2], [1, 2, 3])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vee_is_max_of_duals(data):
    n = data.draw(st_dim)
    v = data.draw(positive_vectors(n))
    w = data.draw(positive_vectors(n))
    x = data.draw(nonneg_vectors(n))
    assert dual_eval(vee(v, w), x) == pytest.approx(
        max(dual_eval(v, x), dual_eval(w, x)))


def _rounding_close(a, b):
    """``a == b`` up to a few roundings: relative slack, plus an absolute
    one for subnormal coordinates, where one rounding can double a value."""
    return abs(a - b) <= 1e-12 * abs(b) + 1e-300


def _check_dual_split(v, w, x, y2, z2):
    # x lies in the sum of the two dual balls iff dual_eval(v+w, x) <= 1,
    # realized by the componentwise split x_i = v_i/(v_i+w_i) x_i + rest.
    # Checked in homogeneous form: scaling x onto the unit ball would divide
    # by dual_eval(v+w, x), which can round to a subnormal.
    s = dual_eval(v + w, x)
    y = v / (v + w) * x
    z = w / (v + w) * x
    assert np.allclose(y + z, x)
    assert _rounding_close(dual_eval(v, y), s)
    assert _rounding_close(dual_eval(w, z), s)
    # converse: any two ball members sum into the v+w ball, i.e.
    # dual_eval(v+w, y2/dy + z2/dz) <= 1, multiplied through by dy dz
    # (a zero norm leaves its vector unscaled, as 1 does)
    dy = dual_eval(v, y2) or 1.0
    dz = dual_eval(w, z2) or 1.0
    assert dual_eval(v + w, dz * y2 + dy * z2) <= dy * dz * (1 + 1e-12) + 1e-300


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_dual_unit_ball_of_sum_splits(data):
    n = data.draw(st_dim)
    v = data.draw(positive_vectors(n))
    w = data.draw(positive_vectors(n))
    x = data.draw(nonneg_vectors(n))
    _check_dual_split(v, w, x, data.draw(nonneg_vectors(n)), data.draw(nonneg_vectors(n)))


def test_dual_unit_ball_of_sum_splits_subnormal():
    # draws that broke the unit-ball scaling: s rounded to 5e-324
    tiny = np.array([5e-324])
    _check_dual_split(np.array([0.5]), np.array([0.25]), tiny, tiny, np.zeros(1))
    _check_dual_split(np.array([0.1875]), np.array([1.0]), tiny, tiny, tiny)


# --------------------------------------------------------------- one edge

ONE_EDGE = make_graph(1, [A, B], [(A, B, 1)])


def _one_edge(flavor, mat, v_a, v_b, gamma, tol=1e-9):
    """verify_certificate on the single edge (a, b, 1) with mode matrix ``mat``."""
    cert = Certificate(flavor, gamma, {A: v_a, B: v_b})
    return verify_certificate(ONE_EDGE, MatrixSet.from_matrices([mat]), cert, tol)


def test_edge_holds_scalar():
    assert _one_edge("dual", [[0.5]], [1.0], [1.0], 0.5).ok
    report = _one_edge("dual", [[0.5]], [1.0], [1.0], 0.4)
    assert not report.ok
    assert report.violations == (((A, B, 1), pytest.approx(0.1)),)


def test_edge_holds_broadcast_system():
    mats = helpers.broadcast_matrices(3)
    ones = np.ones(3)
    for m in mats.matrices:
        assert _one_edge("dual", m, ones, ones, 1.0).ok
        assert helpers.edge_residual("dual", m, ones, ones, 1.0) == 0.0


def test_edge_holds_validation():
    with pytest.raises(ValueError):
        _one_edge("dual", [[1.0]], [1.0], [1.0], -0.5)
    with pytest.raises(ValueError):
        _one_edge("nope", [[1.0]], [1.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        _one_edge("dual", [[1.0, 0.0]], [1.0], [1.0], 1.0)
    with pytest.raises(ValueError):  # matrix and vectors of different dimensions
        _one_edge("dual", [[1.0, 0.0], [0.0, 1.0]], [1.0], [1.0], 1.0)
    for flavor in ("dual", "primal"):  # a NaN tol would fail every edge
        with pytest.raises(ValueError):
            _one_edge(flavor, [[0.5]], [1.0], [1.0], 1.0, tol=np.nan)


def test_edge_holds_transpose_identity():
    # primal predicate on A equals dual predicate on A^T with vector roles swapped
    rng = np.random.default_rng(5)
    for _ in range(200):
        Amat = rng.random((3, 3))
        v_a, v_b = rng.random(3) + 0.1, rng.random(3) + 0.1
        gamma = float(rng.random() * 2)
        primal = _one_edge("primal", Amat, v_a, v_b, gamma)
        assert primal.ok == _one_edge("dual", Amat.T, v_b, v_a, gamma).ok
        assert primal.ok == (helpers.edge_residual("primal", Amat, v_a, v_b, gamma) <= 1e-9)


def test_edge_holds_matches_functional_inequality():
    # dual edge (a,b): A v_a <= g v_b  <=>  dual(v_b, Ax) <= g dual(v_a, x)
    rng = np.random.default_rng(6)
    for _ in range(50):
        Amat = rng.random((3, 3))
        v_a, v_b = rng.random(3) + 0.1, rng.random(3) + 0.1
        gamma = float(rng.random() * 2 + 0.2)
        holds = _one_edge("dual", Amat, v_a, v_b, gamma, tol=0.0).ok
        sampled = all(
            dual_eval(v_b, Amat @ x) <= gamma * dual_eval(v_a, x) + 1e-9
            for x in rng.random((200, 3)))
        witness_ok = dual_eval(v_b, Amat @ v_a) <= gamma + 1e-12
        assert holds == witness_ok
        assert holds == (helpers.edge_residual("dual", Amat, v_a, v_b, gamma) <= 0.0)
        if holds:
            assert sampled


# ----------------------------------------------------------- verification

def test_verify_broadcast_certificate():
    g0 = common_lyapunov_graph(3)
    mats = helpers.broadcast_matrices(3)
    cert = Certificate("dual", 1.0, {s: np.ones(3) for s in g0.nodes})
    assert verify_certificate(g0, mats, cert).ok


def test_verify_reports_violations():
    g0 = common_lyapunov_graph(1)
    mats = MatrixSet.from_matrices([np.array([[2.0]])])
    cert = Certificate("dual", 1.0, {g0.nodes[0]: np.array([1.0])})
    report = verify_certificate(g0, mats, cert)
    assert not report.ok
    assert len(report.violations) == 1
    ((edge, residual),) = report.violations
    assert residual == pytest.approx(1.0)


def test_verify_requires_all_nodes(demo_graph, demo_matrices):
    cert = Certificate("dual", 2.0, {A: np.ones(3)})
    with pytest.raises(ValueError):
        verify_certificate(demo_graph, demo_matrices, cert)


def test_verify_rejects_bad_tol(demo_graph, demo_matrices):
    cert = rho_bound(demo_graph, demo_matrices, "dual").certificate
    # a bool is not read as a number: True as 1.0 passed a certificate at half its rate
    for tol in (np.nan, -1e-9, True, np.True_, False):
        with pytest.raises(ValueError, match="tol"):
            verify_certificate(demo_graph, demo_matrices, cert, tol)


def _verification_corpus(rng):
    """Seeded (graph, matrices, certificate, tol) cases: both flavors, M = 1-3,
    self-loops, a label with no edges, edgeless graphs, n = 1, a node with no
    out-edges, and rates just under (failing) and just over (passing) the
    least rate the vectors certify."""
    for k in range(240):
        M, n = int(rng.integers(1, 4)), 1 if k % 5 == 0 else int(rng.integers(2, 5))
        if k % 12 == 0:
            g = make_graph(M, [NodeId.atom(f"n{j}") for j in range(int(rng.integers(1, 4)))], [])
        else:
            g = helpers.random_graph(rng, int(rng.integers(1, 6)), M,
                                     density=float(rng.uniform(0.1, 0.6)))
        if k % 12 == 6:  # the last label loses its edges
            M += 1
            g = make_graph(M, g.nodes, g.edges)
        if k % 7 == 3:  # a sink: edges in, none out
            sink = NodeId.atom("z")
            g = make_graph(M, g.nodes + (sink,), g.edges + ((g.nodes[0], sink, 1),))
        mats = helpers.random_matrix_set(rng, n=n, size=M)
        vectors = {s: 0.1 + rng.random(n) for s in g.nodes}
        gamma = 50.0 if k % 4 == 0 else float(rng.uniform(0.0, 3.0))
        flavor = ("primal", "dual")[k % 2]
        tol = (0.0, 1e-9, 1e-3)[k % 3]
        if k % 8 in (1, 2) and g.edges:
            boundary = helpers.boundary_gamma(g, mats, flavor, vectors)
            gamma, tol = boundary * (1 - 1e-12 if k % 8 == 1 else 1 + 1e-12), 0.0
        yield g, mats, Certificate(flavor, gamma, vectors), tol


def test_verify_matches_per_edge_oracle():
    # both sides form the products with BLAS, summing in different orders, so
    # residuals agree to 1e-15 of the largest term of their inequality
    verdicts, near = set(), 0
    for g, mats, cert, tol in _verification_corpus(np.random.default_rng(41)):
        expected = helpers.violations_by_edges(g, mats, cert, tol)
        report = verify_certificate(g, mats, cert, tol)
        assert report.ok == (not expected)
        assert [e for e, _ in report.violations] == [e for e, _, _ in expected]
        for (_, r), (_, want, scale) in zip(report.violations, expected):
            assert abs(r - want) <= 1e-15 * scale
            near += 0 < want <= 1e-9 * scale
        verdicts.add(report.ok)
    assert verdicts == {True, False} and near > 0


@st.composite
def residual_cases(draw):
    """A graph on 1-4 nodes over M = 1-3 labels, one node possibly a sink
    (edges in, none out), an n = 1-4 system, positive vectors and a
    flavor; the rate is the least one the vectors certify, when there are
    edges, so residuals sit at zero within rounding."""
    k, M, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    nodes = [NodeId.atom(f"n{j}") for j in range(k)]
    picks = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1), st.integers(1, M))
    edges = [(nodes[a], nodes[b], i) for a, b, i in draw(st.lists(picks, max_size=12))]
    if draw(st.booleans()):
        sink = NodeId.atom("z")
        edges.append((nodes[0], sink, 1))
        nodes.append(sink)
    g = make_graph(M, nodes, edges)
    entries = st.floats(0.0, 4.0)
    mats = MatrixSet.from_matrices(
        [draw(hnp.arrays(np.float64, (n, n), elements=entries)) for _ in range(M)])
    vectors = {s: draw(positive_vectors(n)) for s in g.nodes}
    flavor = draw(st.sampled_from(["primal", "dual"]))
    gamma = helpers.boundary_gamma(g, mats, flavor, vectors) if g.edges else 1.0
    return g, mats, Certificate(flavor, gamma, vectors)


@given(residual_cases())
@settings(max_examples=200, deadline=None)
def test_residual_kernel_matches_edge_major_formula(case):
    g, mats, cert = case
    arrays = copositive._edge_arrays(g, mats, cert.flavor)
    V = cert._matrix[[cert._row[s] for s in g.nodes]]
    got = copositive._residuals(V, *arrays, cert.gamma)
    want = helpers.residuals_edge_major(V, *arrays, cert.gamma)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    report = verify_certificate(g, mats, cert, tol=0)
    failing = np.flatnonzero(~(want <= 0))
    assert report.violations == tuple((g.edges[e], want[e]) for e in failing.tolist())


def test_demo_graph_witness_reverifies(demo_graph, demo_matrices):
    result = rho_bound(demo_graph, demo_matrices, "dual")
    assert verify_certificate(demo_graph, demo_matrices, result.certificate).ok


def test_certificate_validation():
    for gamma in (-1.0, True, np.True_):  # a bool gamma was kept as True
        with pytest.raises(ValueError):
            Certificate("dual", gamma, {A: np.ones(2)})
    with pytest.raises(ValueError):
        Certificate("dual", 1.0, {A: np.array([1.0, 0.0])})
    with pytest.raises(ValueError):
        Certificate("dual", 1.0, {A: np.ones(2), B: np.ones(3)})
    with pytest.raises(ValueError):
        Certificate("other", 1.0, {A: np.ones(2)})


def test_certificate_error_messages():
    for vectors, message in (({}, "at least one node vector"),
                             ({A: np.ones(2), B: np.ones(3)}, "share one dimension"),
                             ({A: np.ones(2), B: [1.0, np.inf]}, "finite"),
                             ({A: [np.nan, 1.0]}, "finite"),
                             ({A: np.ones(2), B: [1.0, 0.0]}, "strictly positive"),
                             ({A: [-1.0]}, "strictly positive"),
                             ({A: [[1.0, 2.0]]}, "1-D vector"),
                             ({A: []}, "1-D vector")):
        with pytest.raises(ValueError, match=message):
            Certificate("dual", 1.0, vectors)


def test_certificate_vectors_are_read_only_copies():
    v, w = np.array([1.0, 2.0]), [3.0, 4.0]
    cert = Certificate("primal", 1.0, {A: v, B: w})
    v[0], w[0] = 9.0, 9.0
    assert cert.vectors[A].tolist() == [1.0, 2.0] and cert.vectors[B].tolist() == [3.0, 4.0]
    assert list(cert.vectors) == [A, B] and cert.dim == 2
    with pytest.raises(ValueError):
        cert.vectors[A][0] = 5.0
    with pytest.raises(TypeError):
        cert.vectors[A] = np.ones(2)


def test_certificate_rows_of_its_own_node_tuple_are_its_matrix(demo_graph, demo_matrices):
    cert = rho_bound(demo_graph, demo_matrices, "dual").certificate  # built on demo_graph.nodes
    stored = cert._rows(demo_graph.nodes)
    assert stored is cert._matrix and not stored.flags.writeable
    equal = cert._rows(list(demo_graph.nodes))
    assert equal is not stored and equal.flags.writeable and np.array_equal(equal, stored)
    equal[0, 0] = 0.0  # a copy: the certificate keeps its vectors
    assert cert.vectors[demo_graph.nodes[0]][0] > 0
    with pytest.raises(ValueError, match="certificate lacks vectors for nodes"):
        cert._rows(demo_graph.nodes + (NodeId.atom("z"),))


def test_matrix_set_validation():
    bad_inputs = [
        [],
        [np.array([[1.0, 2.0]])],
        [np.array([[-0.1]])],
        [np.eye(2), np.eye(3)],
        [np.zeros((0, 0))],
        [np.array([[np.inf]])],
        [np.array([[1.0, np.nan], [0.0, 1.0]])],
        [[[1.0, 2.0]]],  # nested lists
        [[[0.5, -1.0], [0.0, 1.0]]],
        [[[1.0], [1.0, 2.0]]],
    ]
    for mats in bad_inputs:
        messages = []
        for build in (lambda m: MatrixSet(tuple(m)), MatrixSet.from_matrices):
            with pytest.raises(ValueError) as info:
                build(mats)
            messages.append(str(info.value))
        assert messages[0] == messages[1], mats


def test_matrix_set_keeps_its_own_copy_of_the_modes():
    modes = [np.array([[0.5, 0.2], [0.1, 0.4]]), np.array([[0.3, 0.0], [0.6, 0.2]])]
    before = [m.copy() for m in modes]
    mats = MatrixSet(tuple(modes))
    g = common_lyapunov_graph(2)
    cert = rho_bound(g, mats, "dual").certificate
    report = verify_certificate(g, mats, cert)
    assert report.ok
    modes[0][:] = 10.0  # the caller edits its own array in place
    for kept, original in zip(mats.matrices, before):
        assert np.array_equal(kept, original)
    assert verify_certificate(g, mats, cert) is report
    assert not verify_certificate(g, MatrixSet(tuple(modes)), cert).ok


def test_matrix_set_stack_is_read_only():
    mats = helpers.random_matrix_set(np.random.default_rng(3), n=3, size=2)
    assert mats.stack.shape == (2, 3, 3) and not mats.stack.flags.writeable
    for k, m in enumerate(mats.matrices):
        assert m.base is mats.stack and not m.flags.writeable
        assert np.array_equal(m, mats.stack[k])
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
    for copied in (pickle.loads(pickle.dumps(mats)), copy.deepcopy(mats)):
        assert not copied.stack.flags.writeable
        assert all(m.base is copied.stack for m in copied.matrices)
        assert copied.stack.tobytes() == mats.stack.tobytes()


def test_certificates_and_bounds_survive_copy_and_pickle(demo_graph, demo_matrices):
    bound = rho_bound(demo_graph, demo_matrices, "dual")
    kept = bound.certificate
    copiers = [copy.copy, copy.deepcopy] + [
        lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copier in copiers:
        copied = copier(bound)
        for cert in (copied.certificate, copier(kept)):
            assert (cert.flavor, cert.gamma) == (kept.flavor, kept.gamma) == ("dual", bound.gamma)
            assert list(cert.vectors) == list(kept.vectors)
            for s, v in cert.vectors.items():
                assert v.tobytes() == kept.vectors[s].tobytes() and not v.flags.writeable
            assert verify_certificate(demo_graph, demo_matrices, cert).ok
        assert (copied.gamma, copied.lower) == (bound.gamma, bound.lower)
        assert copied.trace == bound.trace


def test_matrix_set_transposed_is_the_transposed_stack():
    mats = helpers.random_matrix_set(np.random.default_rng(4), n=4, size=3)
    flipped = mats.transposed()
    assert flipped.stack.shape == mats.stack.shape
    assert flipped.stack.tobytes() == np.ascontiguousarray(mats.stack.transpose(0, 2, 1)).tobytes()
    assert not flipped.stack.flags.writeable


# -------------------------------------------------------------- transport

def _certified(g, mats, flavor):
    result = rho_bound(g, mats, flavor, tol=1e-7)
    return result.certificate


def test_transport_max_dual(toggle_graph):
    rng = np.random.default_rng(21)
    mats = helpers.random_matrix_set(rng, n=3, size=2)
    cert = _certified(toggle_graph, mats, "dual")
    moved = transport_certificate(cert, "max", toggle_graph, mats)
    assert moved.gamma == cert.gamma
    ab = NodeId.subset([A, B])
    assert np.allclose(moved.vectors[ab],
                       np.minimum(cert.vectors[A], cert.vectors[B]))
    assert verify_certificate(max_lift(toggle_graph), mats, moved).ok


def test_transport_min_primal(toggle_graph):
    rng = np.random.default_rng(22)
    mats = helpers.random_matrix_set(rng, n=3, size=2)
    cert = _certified(toggle_graph, mats, "primal")
    moved = transport_certificate(cert, "min", toggle_graph, mats)
    assert verify_certificate(min_lift(toggle_graph), mats, moved).ok


def test_transport_sum_identity(toggle_graph):
    rng = np.random.default_rng(23)
    mats = helpers.random_matrix_set(rng, n=2, size=2)
    cert = _certified(toggle_graph, mats, "dual")
    moved = transport_certificate(cert, "sum:1", toggle_graph, mats)
    for s in toggle_graph.nodes:
        assert np.allclose(moved.vectors[NodeId.multiset([s])], cert.vectors[s])


def test_transport_sum_adds_vectors(toggle_graph):
    rng = np.random.default_rng(24)
    mats = helpers.random_matrix_set(rng, n=2, size=2)
    for flavor in ("dual", "primal"):
        cert = _certified(toggle_graph, mats, flavor)
        moved = transport_certificate(cert, "sum:2", toggle_graph, mats)
        aa = NodeId.multiset([A, A])
        assert np.allclose(moved.vectors[aa], 2 * cert.vectors[A])
        assert verify_certificate(sum_lift(toggle_graph, 2), mats, moved).ok


def test_transport_comp_primal(toggle_graph):
    rng = np.random.default_rng(25)
    mats = helpers.random_matrix_set(rng, n=3, size=2)
    cert = _certified(toggle_graph, mats, "primal")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        moved = transport_certificate(cert, "comp", toggle_graph, mats)
    a1 = NodeId.comp(A, 1)
    assert np.allclose(moved.vectors[a1], mats.matrices[0].T @ cert.vectors[A])


def test_transport_backcomp_monomial(toggle_graph):
    rng = np.random.default_rng(26)
    mats = helpers.random_monomial_matrix_set(rng, n=3, size=2)
    cert = _certified(toggle_graph, mats, "primal")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        moved = transport_certificate(cert, "backcomp", toggle_graph, mats)
    assert moved.gamma == cert.gamma


def test_transport_backcomp_detects_invalid_lift():
    # invertible but non-monomial mode: the inverse leaves the orthant,
    # so the composed functions stop satisfying the lifted inequalities
    g0 = common_lyapunov_graph(1)
    mats = MatrixSet.from_matrices([np.array([[1.0, 1.0], [0.0, 1.0]])])
    cert = Certificate("primal", 2.0, {g0.nodes[0]: np.array([1.0, 1.1])})
    assert verify_certificate(g0, mats, cert).ok
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TransportError):
            transport_certificate(cert, "backcomp", g0, mats)


def test_transport_backcomp_rejects_singular():
    g0 = common_lyapunov_graph(1)
    mats = MatrixSet.from_matrices([np.zeros((2, 2))])
    cert = Certificate("primal", 1.0, {g0.nodes[0]: np.ones(2)})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            transport_certificate(cert, "backcomp", g0, mats)


def test_transport_comp_rejects_zero_column():
    g0 = common_lyapunov_graph(1)
    mats = MatrixSet.from_matrices([np.array([[1.0, 0.0], [1.0, 0.0]])])
    cert = Certificate("primal", 2.5, {g0.nodes[0]: np.ones(2)})
    assert verify_certificate(g0, mats, cert).ok
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            transport_certificate(cert, "comp", g0, mats)


def test_transport_unsupported_combinations(toggle_graph):
    rng = np.random.default_rng(27)
    mats = helpers.random_matrix_set(rng, n=2, size=2)
    dual_cert = _certified(toggle_graph, mats, "dual")
    primal_cert = _certified(toggle_graph, mats, "primal")
    with pytest.raises(ValueError):
        transport_certificate(dual_cert, "min", toggle_graph, mats)
    with pytest.raises(ValueError):
        transport_certificate(primal_cert, "max", toggle_graph, mats)
    with pytest.raises(ValueError):
        transport_certificate(dual_cert, "comp", toggle_graph, mats)
    with pytest.raises(ValueError):
        transport_certificate(dual_cert, "nonsense", toggle_graph, mats)


def test_transport_requires_valid_source_certificate(toggle_graph):
    mats = MatrixSet.from_matrices([np.eye(2) * 2, np.eye(2) * 2])
    bad = Certificate("dual", 0.5, {s: np.ones(2) for s in toggle_graph.nodes})
    with pytest.raises(ValueError):
        transport_certificate(bad, "max", toggle_graph, mats)


TRANSPORTS = [("sum:2", "primal"), ("sum:2", "dual"), ("max", "dual"), ("min", "primal"),
              ("comp", "primal"), ("comp", "dual"), ("backcomp", "primal"), ("backcomp", "dual")]
INVERTING = {("backcomp", "primal"), ("comp", "dual")}  # vectors through A_i^{-1}


@pytest.mark.parametrize("kind, flavor", TRANSPORTS)
def test_transported_certificate_bounds_the_lift_value(kind, flavor):
    # wherever the vectors pass the floor, the certificate holds on the lift,
    # so the lift's LP value is at most the base graph's
    rng = np.random.default_rng(100 + TRANSPORTS.index((kind, flavor)))
    moved_count = 0
    for trial in range(8):
        g = helpers.random_path_complete_graph(rng, max_nodes=4, max_labels=3)
        n, M = int(rng.integers(1, 4)), g.alphabet_size
        systems = ([helpers.random_monomial_matrix_set(rng, n, M)] if (kind, flavor) in INVERTING
                   else [helpers.random_matrix_set(rng, n, M),
                         helpers.random_sparse_matrix_set(rng, n, M, first_kind=trial)])
        for mats in systems:
            base = rho_bound(g, mats, flavor)
            try:
                moved = transport_certificate(base.certificate, kind, g, mats)
            except ValueError as exc:  # a TransportError fails here
                assert "has an entry below 1e-12" in str(exc)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                lifted = lifts.lift(g, kind)
            assert verify_certificate(lifted, mats, moved).ok
            assert rho_bound(lifted, mats, flavor).gamma <= base.gamma + 1e-6
            moved_count += 1
    assert moved_count >= 8


@pytest.mark.parametrize("kind, flavor, seed", [("max", "primal", 13), ("min", "dual", 40)])
def test_refused_transports_have_counterexamples(kind, flavor, seed):
    # the lift's LP value exceeds the base graph's, so no certificate of the
    # base carries over at the same rate: these two pairs stay refused
    rng = np.random.default_rng(seed)
    g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=2)
    mats = helpers.random_matrix_set(rng, int(rng.integers(1, 4)), g.alphabet_size)
    base = rho_bound(g, mats, flavor)
    assert rho_bound(lifts.lift(g, kind), mats, flavor).lower > base.gamma + 1e-3
    with pytest.raises(ValueError, match="is not supported"):
        transport_certificate(base.certificate, kind, g, mats)


def test_transport_along_composition_lifts_does_not_warn():
    # strongly connected but not edge-minimal: building the lift warns, moving
    # a certificate onto it does not
    g = make_graph(2, [A, B], [(A, A, 1), (A, A, 2), (A, B, 1), (B, A, 1), (B, B, 2)])
    mats = helpers.random_monomial_matrix_set(np.random.default_rng(28), n=2, size=2)
    for flavor in ("primal", "dual"):
        cert = _certified(g, mats, flavor)
        for kind in ("comp", "backcomp"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                moved = transport_certificate(cert, kind, g, mats)
            with pytest.warns(UserWarning, match="input is not a strongly connected"):
                lifted = lifts.lift(g, kind)
            assert verify_certificate(lifted, mats, moved).ok


@pytest.mark.parametrize("kind, flavor", TRANSPORTS)
def test_transport_floor_holds_for_every_kind(toggle_graph, kind, flavor):
    # identity modes: every transported entry is the scale, or twice it along sum:2
    mats = MatrixSet.from_matrices([np.eye(2), np.eye(2)])
    for scale in (1e-13, 1e-11):
        cert = Certificate(flavor, 1.0, {s: np.full(2, scale) for s in toggle_graph.nodes})
        assert verify_certificate(toggle_graph, mats, cert).ok
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if scale < copositive.POSITIVITY_FLOOR:
                with pytest.raises(ValueError, match="has an entry below 1e-12"):
                    transport_certificate(cert, kind, toggle_graph, mats)
            else:
                moved = transport_certificate(cert, kind, toggle_graph, mats)
                assert all(np.all(v >= scale) for v in moved.vectors.values())


@pytest.mark.parametrize("kind, flavor", TRANSPORTS)
def test_transport_never_sorts_a_graph(monkeypatch, demo_graph, kind, flavor):
    mats = helpers.random_monomial_matrix_set(np.random.default_rng(5), n=3, size=2)
    cert = _certified(demo_graph, mats, flavor)

    def sort(*args, **kwargs):
        raise AssertionError("sorted a graph")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lifted = lifts.lift(demo_graph, kind)
    with monkeypatch.context() as patch:  # a transport after its lift reads that lift
        patch.setattr(graphs, "_graph", sort)
        patch.setattr(lifts, "_graph", sort)
        moved = transport_certificate(cert, kind, demo_graph, mats)
    assert list(moved.vectors) == list(lifted.nodes)
    assert verify_certificate(lifted, mats, moved).ok


@pytest.mark.parametrize("kind, flavor", TRANSPORTS)
def test_transport_verifies_on_the_source_and_on_the_lift(monkeypatch, demo_graph, kind, flavor):
    mats = helpers.random_monomial_matrix_set(np.random.default_rng(5), n=3, size=2)
    cert = _certified(demo_graph, mats, flavor)
    verify, calls = copositive.verify_certificate, []

    def counted(g, mats, cert, *args):
        calls.append((g, cert))
        return verify(g, mats, cert, *args)
    monkeypatch.setattr(copositive, "verify_certificate", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lifted = lifts.lift(demo_graph, kind)
    for lift_before in (True, False):
        if not lift_before:
            monkeypatch.setattr(lifts, "_last", None)
        del calls[:]
        moved = transport_certificate(cert, kind, demo_graph, mats)
        assert len(calls) == 2 and calls[0][0] is demo_graph and calls[0][1] is cert
        assert calls[1][0] == lifted and calls[1][1] is moved
        assert (calls[1][0] is lifted) == lift_before  # else built here


@pytest.mark.parametrize("kind, flavor", sorted(INVERTING))
def test_transport_error_is_the_verification_on_the_lift(monkeypatch, toggle_graph, kind,
                                                         flavor):
    # the count and worst residual of the refusal are what verify_certificate
    # finds on lift(g, kind) for the vectors B_i^{-T} v_s of the rule
    rng = np.random.default_rng(1)
    mats = MatrixSet.from_matrices([np.eye(2) + 0.3 * rng.random((2, 2)) for _ in range(2)])
    cert = _certified(toggle_graph, mats, flavor)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lifted = lifts.lift(toggle_graph, kind)
    inverse = [np.linalg.inv(A if flavor == "dual" else A.T) for A in mats.matrices]
    moved = Certificate(flavor, cert.gamma, {
        node: inverse[i - 1] @ cert.vectors[s] for node in lifted.nodes for s, i in [node.value]})
    residuals = [r for _, r in verify_certificate(lifted, mats, moved).violations]
    assert residuals
    expected = (f"transported certificate violates {len(residuals)} lifted edge(s); "
                f"worst residual {max(residuals):.3e}")
    for lift_before in (True, False):
        if not lift_before:
            monkeypatch.setattr(lifts, "_last", None)
        with pytest.raises(TransportError) as info:
            transport_certificate(cert, kind, toggle_graph, mats)
        assert str(info.value) == expected


def test_transport_refuses_vectors_beyond_the_float_range():
    one = MatrixSet.from_matrices([[[0.5]]])
    loop = make_graph(1, [A], [(A, A, 1)])
    for flavor in ("primal", "dual"):  # the sum overflows: the lifted check reads nan
        cert = Certificate(flavor, 1.0, {A: [1e308]})
        with pytest.raises(TransportError, match=r"1 lifted edge\(s\); worst residual nan"):
            transport_certificate(cert, "sum:2", loop, one)
    # {b,b} has no edge out, so its infinite vector passes the lifted check
    tail = make_graph(1, [A, B], [(A, A, 1), (A, B, 1)])
    cert = Certificate("dual", 1.0, {A: [1.0], B: [1e308]})
    with pytest.raises(ValueError, match="vector entries must be finite") as info:
        transport_certificate(cert, "sum:2", tail, one)
    assert type(info.value) is ValueError


def test_verification_beyond_the_float_range_fails_without_a_warning():
    # 4e308 overflows, as does 3e308 on the right: inf - inf is a nan residual
    loop = make_graph(1, [A], [(A, A, 1)])
    cert = Certificate("primal", 3.0, {A: [1e308]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_certificate(loop, MatrixSet.from_matrices([[[4.0]]]), cert)
    assert not report.ok
    [(edge, residual)] = report.violations
    assert edge == (A, A, 1) and np.isnan(residual)


def _oracle_vectors(cert, lifted, combine):
    """The transported vectors one node at a time: ``combine`` (``np.min`` or
    ``np.sum``) over the member vectors, as transport computed them before."""
    return {node: combine([cert.vectors[c] for c in node.value], axis=0)
            for node in lifted.nodes}


def test_transported_vectors_match_per_node_oracle():
    rng = np.random.default_rng(27)
    checked = 0
    for k in range(12):
        g = helpers.random_path_complete_graph(rng, max_nodes=5, max_labels=2)
        mats = helpers.random_matrix_set(rng, n=int(rng.integers(1, 4)), size=g.alphabet_size)
        for kind, flavor, combine, builder in (
                ("max", "dual", np.min, max_lift), ("min", "primal", np.min, min_lift),
                ("sum:2", "primal", np.sum, lambda g: sum_lift(g, 2)),
                ("sum:2", "dual", np.sum, lambda g: sum_lift(g, 2)),
                ("sum:3", "dual", np.sum, lambda g: sum_lift(g, 3))):
            cert = _certified(g, mats, flavor)
            lifted = builder(g)
            moved = transport_certificate(cert, kind, g, mats)
            expected = _oracle_vectors(cert, lifted, combine)
            assert list(moved.vectors) == list(lifted.nodes)
            for node, vec in moved.vectors.items():
                if kind == "sum:3":
                    assert np.all(np.abs(vec - expected[node]) <= 1e-15 * expected[node])
                else:
                    assert np.array_equal(vec, expected[node]), (kind, node)
            assert verify_certificate(lifted, mats, moved).ok
            checked += 1
    assert checked == 60


# ------------------------------------------------------ remembered reports

@pytest.fixture
def kernel_runs(monkeypatch):
    """The number of node vectors of every run of the verification kernel."""
    runs, kernel = [], copositive._residuals

    def counted(V, *args):
        runs.append(len(V))
        return kernel(V, *args)
    monkeypatch.setattr(copositive, "_residuals", counted)
    return runs


def test_a_repeated_check_returns_the_remembered_report(kernel_runs, demo_graph, demo_matrices):
    cert = Certificate("dual", 2.0, {s: np.ones(3) for s in demo_graph.nodes})
    report = verify_certificate(demo_graph, demo_matrices, cert)
    assert verify_certificate(demo_graph, demo_matrices, cert) is report
    assert verify_certificate(demo_graph, demo_matrices, cert, copositive.DEFAULT_TOL) is report
    assert len(kernel_runs) == 1
    others = [  # another graph, an equal copy, another matrix set object, another tol
        (transpose(demo_graph), demo_matrices, copositive.DEFAULT_TOL),
        (serialize.graph_from_dict(serialize.graph_to_dict(demo_graph)), demo_matrices,
         copositive.DEFAULT_TOL),
        (demo_graph, MatrixSet.from_matrices(demo_matrices.matrices), copositive.DEFAULT_TOL),
        (demo_graph, demo_matrices, 1e-3)]
    for k, (g, mats, tol) in enumerate(others):
        other = verify_certificate(g, mats, cert, tol)
        assert other is not report and len(kernel_runs) == 2 + 2 * k
        assert verify_certificate(g, mats, cert, tol) is other
        again = verify_certificate(demo_graph, demo_matrices, cert)  # the slot was replaced
        assert again == report and again is not report and len(kernel_runs) == 3 + 2 * k
        report = again


def test_a_failing_report_is_remembered_with_its_violations(kernel_runs):
    mats = MatrixSet.from_matrices([[[0.5]]])
    cert = Certificate("dual", 0.4, {A: [1.0], B: [1.0]})
    report = verify_certificate(ONE_EDGE, mats, cert)
    assert report.violations == (((A, B, 1), pytest.approx(0.1)),)
    assert verify_certificate(ONE_EDGE, mats, cert) is report and not report.ok
    assert len(kernel_runs) == 1


def test_a_found_certificate_is_checked_once_on_its_graph_and_once_on_the_lift(kernel_runs,
                                                                               demo_graph):
    mats = helpers.random_monomial_matrix_set(np.random.default_rng(5), n=3, size=2)
    lifted = sum_lift(demo_graph, 2)
    cert = rho_bound(demo_graph, mats, "dual").certificate
    assert verify_certificate(demo_graph, mats, cert).ok
    moved = transport_certificate(cert, "sum:2", demo_graph, mats)
    assert verify_certificate(lifted, mats, moved).ok
    assert kernel_runs == [len(demo_graph.nodes), len(lifted.nodes)]


def test_threads_verifying_one_certificate_read_their_own_graphs_report(monkeypatch):
    # each graph fails on its own edge, and four threads check one certificate
    # on the two graphs in turn, each kernel run yielding to the others, so the
    # slot is replaced between most calls; a thread must still read the report
    # of the graph it asked about
    kernel = copositive._residuals

    def yielding(*args):
        time.sleep(0)
        return kernel(*args)
    monkeypatch.setattr(copositive, "_residuals", yielding)
    mats = MatrixSet.from_matrices([[[0.5]]])
    cert = Certificate("dual", 0.4, {A: [1.0], B: [1.0]})
    cases = [ONE_EDGE, make_graph(1, [A, B], [(A, A, 1)])]
    expected = [verify_certificate(g, mats, cert) for g in cases]
    assert expected[0] != expected[1]
    wrong, finished = [], []

    def work(k):
        for j in range(300):
            g = (k + j) % 2
            if verify_certificate(cases[g], mats, cert) != expected[g]:
                wrong.append(g)
        finished.append(k)  # not reached when a call raised
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and sorted(finished) == [0, 1, 2, 3]
