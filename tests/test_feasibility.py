import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from pclyap import (
    MatrixSet,
    common_lyapunov_graph,
    de_bruijn,
    feasibility,
    feasible,
    rho_bound,
    transpose,
    verify_certificate,
)
from pclyap.simplex import SimplexIterationLimit, phase_one

import helpers

# independently computed optima for the demo system, dual flavor
DEMO_GRAPH_DUAL_VALUE = 1.2736270512
DEMO_REDUCED_DUAL_VALUE = 1.2028870970  # two-subset piece of the max lift


# ----------------------------------------------------------------- simplex

def test_phase_one_simple_feasible():
    # x1 + x2 <= 1, -x1 <= -0.25  (so x1 >= 0.25)
    G = np.array([[1.0, 1.0], [-1.0, 0.0]])
    h = np.array([1.0, -0.25])
    x = phase_one(G, h)
    assert x is not None
    assert np.all(G @ x <= h + 1e-9) and np.all(x >= 0)


def test_phase_one_simple_infeasible():
    # x1 <= 1 and x1 >= 2
    G = np.array([[1.0], [-1.0]])
    h = np.array([1.0, -2.0])
    assert phase_one(G, h) is None


def test_phase_one_no_constraints():
    x = phase_one(np.zeros((0, 3)), np.zeros(0))
    assert np.allclose(x, 0)


def test_phase_one_iteration_cap():
    G = np.array([[1.0, 1.0], [-1.0, 0.0]])
    h = np.array([1.0, -0.25])
    with pytest.raises(SimplexIterationLimit):
        phase_one(G, h, max_iter=0)


def test_phase_one_agrees_with_reference_solver():
    rng = np.random.default_rng(42)
    for _ in range(120):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        G = rng.normal(size=(m, n))
        h = rng.normal(size=m)
        ours = phase_one(G, h)
        ref = linprog(np.zeros(n), A_ub=G, b_ub=h, bounds=[(0, None)] * n,
                      method="highs")
        assert (ours is not None) == (ref.status == 0)
        if ours is not None:
            assert np.all(G @ ours <= h + 1e-8)


# ---------------------------------------------------------------- feasible

def test_feasible_scalar_examples():
    g0 = common_lyapunov_graph(1)
    mats = MatrixSet.from_matrices([np.array([[0.5]])])
    cert = feasible(g0, mats, "dual", 0.6)
    assert cert is not None
    assert verify_certificate(g0, mats, cert).ok
    assert feasible(g0, mats, "dual", 0.4) is None


def test_feasible_broadcast_at_one():
    g0 = common_lyapunov_graph(3)
    cert = feasible(g0, helpers.broadcast_matrices(3), "dual", 1.0)
    assert cert is not None


def test_feasible_validation(demo_matrices):
    g0 = common_lyapunov_graph(3)  # wrong alphabet for a 2-matrix set
    with pytest.raises(ValueError):
        feasible(g0, demo_matrices, "dual", 1.0)
    with pytest.raises(ValueError):
        feasible(common_lyapunov_graph(2), demo_matrices, "dual", -1.0)
    with pytest.raises(ValueError):
        feasible(common_lyapunov_graph(2), demo_matrices, "nope", 1.0)


# --------------------------------------------------------------- rho_bound

def test_rho_bound_rejects_bad_tol(demo_matrices):
    # a bool is not read as a number: True as 1.0 gave the demo graph 1.7029, not 1.2736
    for tol in (0.0, -1e-6, float("nan"), float("inf"), True, np.True_):
        with pytest.raises(ValueError):
            rho_bound(common_lyapunov_graph(2), demo_matrices, "dual", tol=tol)


def test_rho_bound_scalar():
    mats = MatrixSet.from_matrices([np.array([[2.0]])])
    result = rho_bound(common_lyapunov_graph(1), mats, "dual", tol=1e-6)
    assert result.gamma == pytest.approx(2.0, abs=1e-5)


def test_rho_bound_zero_matrices():
    mats = MatrixSet.from_matrices([np.zeros((2, 2))])
    result = rho_bound(common_lyapunov_graph(1), mats, "dual")
    assert result.gamma == 0.0
    assert result.lower == 0.0


def test_rho_bound_nilpotent_family():
    # spectral radius 0 for every policy: the LP value is 0 but not attained
    mats = MatrixSet.from_matrices([np.triu(np.full((4, 4), 0.9), 1),
                                    np.triu(np.full((4, 4), 0.5), 1)])
    g = common_lyapunov_graph(2)
    for flavor in ("primal", "dual"):
        result = rho_bound(g, mats, flavor, tol=1e-6)
        assert result.lower == 0.0
        assert result.gamma == 0.5e-6
        assert verify_certificate(g, mats, result.certificate).ok


def test_rho_bound_iteration_cap(demo_graph, demo_matrices, monkeypatch):
    monkeypatch.setattr(feasibility, "DEFAULT_POLICY_STEPS", 1)
    with pytest.raises(RuntimeError, match="within 1 policy evaluations"):
        rho_bound(demo_graph, demo_matrices, "dual")


def test_rho_bound_unknown_cap(demo_graph, demo_matrices, monkeypatch):
    # |S| n = 4 * 3 = 12 unknowns: refused under a cap of 11 before the
    # product family (and its dense policy matrices) is built
    family = feasibility._family
    monkeypatch.setattr(feasibility, "UNKNOWN_CAP", 11)
    monkeypatch.setattr(feasibility, "_family", lambda *a: pytest.fail("family built"))
    with pytest.raises(ValueError, match=r"\|S\| n = 12 unknowns, beyond the 11 unknown cap"):
        rho_bound(demo_graph, demo_matrices, "dual")
    monkeypatch.setattr(feasibility, "UNKNOWN_CAP", 12)
    monkeypatch.setattr(feasibility, "_family", family)
    assert rho_bound(demo_graph, demo_matrices, "dual").gamma == pytest.approx(
        DEMO_GRAPH_DUAL_VALUE, abs=1e-5)


def test_rho_bound_finds_each_policys_components_once(monkeypatch, demo_matrices):
    # _perron and _howard_values share the components of a policy met twice
    calls, policies = [], set()
    sccs, matrix = feasibility.index_sccs, feasibility._matrix
    monkeypatch.setattr(feasibility, "index_sccs",
                        lambda n, src, dst: calls.append(1) or sccs(n, src, dst))
    monkeypatch.setattr(feasibility, "_matrix",
                        lambda fam, policy: policies.add(policy.tobytes()) or matrix(fam, policy))
    shared = 0
    for l in (1, 2, 3, 4):
        for flavor, g in (("dual", de_bruijn(2, l)), ("primal", transpose(de_bruijn(2, l)))):
            calls.clear()
            policies.clear()
            result = rho_bound(g, demo_matrices, flavor)
            assert len(calls) == len(policies) <= len(result.trace)
            shared += len(result.trace) - len(calls)
    assert shared > 0


def test_rho_bound_unpacks():
    mats = MatrixSet.from_matrices([np.array([[0.5]])])
    gamma, cert = rho_bound(common_lyapunov_graph(1), mats, "dual")
    assert gamma == pytest.approx(0.5, abs=1e-5)
    assert cert.flavor == "dual"


def test_rho_bound_demo_graph(demo_graph, demo_matrices):
    result = rho_bound(demo_graph, demo_matrices, "dual", tol=1e-6)
    assert result.gamma == pytest.approx(DEMO_GRAPH_DUAL_VALUE, abs=5e-6)


def test_rho_bound_demo_reduced_graph(demo_graph, demo_matrices):
    from pclyap import NodeId, induced_subgraph, max_lift
    a, b, c, d = (NodeId.atom(x) for x in "abcd")
    reduced = induced_subgraph(max_lift(demo_graph),
                               [NodeId.subset([a, c, d]), NodeId.subset([b, d])])
    result = rho_bound(reduced, demo_matrices, "dual", tol=1e-6)
    assert result.gamma == pytest.approx(DEMO_REDUCED_DUAL_VALUE, abs=5e-6)
    assert result.gamma < DEMO_GRAPH_DUAL_VALUE  # the lifted piece improves


def test_rho_bound_warns_for_non_path_complete():
    from pclyap import NodeId, make_graph
    a = NodeId.atom("a")
    g = make_graph(2, [a], [(a, a, 1)])
    mats = MatrixSet.from_matrices([np.eye(1), np.eye(1)])
    with pytest.warns(UserWarning):
        rho_bound(g, mats, "dual")


def test_rho_bound_monotone_feasibility():
    rng = np.random.default_rng(9)
    for _ in range(10):
        mats = helpers.random_matrix_set(rng, n=int(rng.integers(1, 4)),
                                         size=int(rng.integers(1, 3)))
        g = helpers.random_path_complete_graph(rng, max_nodes=3,
                                               max_labels=mats.size)
        if g.alphabet_size != mats.size:
            continue
        result = rho_bound(g, mats, "dual", tol=1e-6)
        assert feasible(g, mats, "dual", result.gamma + 0.01) is not None
        if result.gamma > 0.02:
            assert feasible(g, mats, "dual", result.gamma - 0.01) is None


def test_rho_bound_witness_soundness():
    rng = np.random.default_rng(10)
    for _ in range(10):
        mats = helpers.random_matrix_set(rng, n=2, size=2)
        g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=2)
        if g.alphabet_size != 2:
            continue
        for flavor in ("dual", "primal"):
            result = rho_bound(g, mats, flavor, tol=1e-6)
            cert = result.certificate
            report = verify_certificate(g, mats, cert, tol=1e-9)
            assert report.ok, report.violations
            assert cert.gamma == result.gamma


def test_primal_equals_dual_of_transposed_on_transposed_graph():
    # identical product families, identical policy-iteration traces
    rng = np.random.default_rng(12)
    for _ in range(8):
        mats = helpers.random_matrix_set(rng, n=2, size=2)
        g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=2)
        if g.alphabet_size != 2:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            r1 = rho_bound(g, mats, "primal", tol=1e-6)
            r2 = rho_bound(transpose(g), mats.transposed(), "dual", tol=1e-6)
        assert r1.gamma == r2.gamma
        assert r1.trace == r2.trace


def test_clf_graph_is_most_conservative():
    rng = np.random.default_rng(13)
    g0 = common_lyapunov_graph(2)
    for _ in range(8):
        mats = helpers.random_matrix_set(rng, n=2, size=2)
        g = helpers.random_path_complete_graph(rng, max_nodes=4, max_labels=2)
        if g.alphabet_size != 2:
            continue
        value = rho_bound(g, mats, "dual", tol=1e-6).gamma
        clf_value = rho_bound(g0, mats, "dual", tol=1e-6).gamma
        assert value <= clf_value + 1e-5


def test_rho_bound_sparse_reducible_corpus():
    # certified at exactly gamma, within tol of a policy's spectral radius,
    # not improvable by tol (linprog), and transposition-invariant
    tol = 1e-6
    rng = np.random.default_rng(2026)
    failures = []
    for k, (g, mats) in enumerate(helpers.sparse_reducible_cases(rng, 268)):
        results = {flavor: rho_bound(g, mats, flavor, tol=tol)
                   for flavor in ("primal", "dual")}
        for flavor, result in results.items():
            name = f"case {k} {flavor}"
            if result.certificate.gamma != result.gamma or not verify_certificate(
                    g, mats, result.certificate).ok:
                failures.append(f"{name}: certificate fails at gamma")
            if not result.lower <= result.gamma <= result.lower + tol:
                failures.append(f"{name}: gamma {result.gamma} vs lower {result.lower}")
            if helpers.lp_feasible(g, mats, flavor, result.gamma - tol):
                failures.append(f"{name}: LP feasible at gamma - tol")
        primal = results["primal"]
        twin = rho_bound(transpose(g), mats.transposed(), "dual", tol=tol)
        if ((primal.gamma, primal.lower, primal.trace) != (twin.gamma, twin.lower, twin.trace)
                or not all(np.array_equal(primal.certificate.vectors[s],
                                          twin.certificate.vectors[s]) for s in g.nodes)):
            failures.append(f"case {k}: primal differs from dual of the transpose")
    assert not failures, failures[:5]
