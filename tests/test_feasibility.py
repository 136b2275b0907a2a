import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linprog

from pclyap import (
    Certificate,
    MatrixSet,
    NodeId,
    VerificationReport,
    common_lyapunov_graph,
    de_bruijn,
    feasibility,
    feasible,
    hierarchy,
    jsr,
    make_graph,
    max_lift,
    min_lift,
    rho_bound,
    sum_lift,
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


def test_rho_bound_refuses_a_certificate_that_fails_its_check(demo_graph, demo_matrices,
                                                              monkeypatch):
    a, b = demo_graph.nodes[:2]
    failing = VerificationReport(False, (((a, b, 1), 0.25), ((b, a, 1), 0.5)))
    monkeypatch.setattr(feasibility, "verify_certificate", lambda *args: failing)
    with pytest.raises(RuntimeError, match=r"fails on 2 edge\(s\); worst residual 5\.000e-01"):
        rho_bound(demo_graph, demo_matrices, "dual")


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


def test_policy_components_match_those_of_the_dense_matrix(demo_matrices):
    # read from the candidate entries, the components of a policy are those
    # of the nonzero pattern of its dense matrix, list for list
    systems = [(de_bruijn(2, l), demo_matrices) for l in range(1, 7)]
    systems += helpers.sparse_reducible_cases(np.random.default_rng(77), 150)
    systems += _metamorphic_cases()[1]
    rng = np.random.default_rng(79)
    for g, mats in systems:
        for flavor in ("primal", "dual"):
            fam = feasibility._family(g, mats, flavor)
            counts = np.diff(np.r_[fam.starts, fam.row.size])
            for policy in [fam.starts] + [fam.starts + rng.integers(0, counts) for _ in range(3)]:
                assert (feasibility._policy_components(fam, policy)
                        == feasibility._components(feasibility._matrix(fam, policy)))


def _family_corpus():
    """Graphs with and without parallel edges, each with a seeded system:
    De Bruijn levels 1-5 for M = 2 and 3, seeded random path-complete
    graphs (again with all modes equal, so parallel edges offer equal
    rows), and the max, min and 2-sum lifts of three small graphs."""
    rng = np.random.default_rng(83)
    for M in (2, 3):
        for l in range(1, 6):
            yield de_bruijn(M, l), helpers.random_filled_matrix_set(rng, 2, M, 0.5)
    for _ in range(60):
        g = helpers.random_path_complete_graph(rng, max_nodes=5)
        mats = helpers.random_filled_matrix_set(rng, int(rng.integers(1, 4)), g.alphabet_size, 0.6)
        yield g, mats
        yield g, MatrixSet(np.repeat(mats.stack[:1], g.alphabet_size, axis=0))
    for base in (helpers.demo_graph(), helpers.toggle_graph(), helpers.branching_graph()):
        mats = helpers.random_filled_matrix_set(rng, 2, base.alphabet_size, 0.7)
        for lifted in (max_lift(base), min_lift(base), sum_lift(base, 2)):
            yield lifted, mats


def test_family_matches_the_content_sorted_oracle():
    # ordered by key alone where keys are distinct, and by key and content
    # where parallel edges tie them: the arrays of the old full lexsort
    kinds = {"tied": 0, "untied": 0, "deduplicated": 0}
    for g, mats in _family_corpus():
        pairs = [(a, b) for a, b, _ in g.edges]
        kinds["tied" if len(set(pairs)) < len(pairs) else "untied"] += 1
        for flavor in ("primal", "dual"):
            fam, oracle = feasibility._family(g, mats, flavor), helpers.family_by_content(
                g, mats, flavor)
            for name in ("row", "block", "vals", "starts"):
                got, want = getattr(fam, name), getattr(oracle, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
            kinds["deduplicated"] += fam.row.size < len(g.edges) * mats.n
    assert min(kinds.values()) >= 10, kinds


def test_rho_bound_keeps_one_policy_matrix_alive(demo_matrices):
    # 512 nodes, n = 3: one dense policy matrix of 1,536^2 floats is 18.9 MB;
    # a matrix built before the last one is dropped would double the peak
    g = de_bruijn(2, 10)
    size = len(g.nodes) * demo_matrices.n
    tracemalloc.start()
    try:
        rho_bound(g, demo_matrices, "dual")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * size * size * 8


def test_howard_values_refuses_a_singular_block():
    # gamma I - B = [[1, -1], [-1, 1]] is singular, so rho(B) >= gamma
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(np.eye(2) - B, np.ones(2))
    assert feasibility._howard_values(B, [[0, 1]], 1.0) is None


def _graded_chain(rng, n):
    """An irreducible ``n x n`` cycle: a dominant corner ``B[0, 0]``, weak
    subdiagonal links and one closing entry ``B[0, n - 1]``, so that its
    Perron vector falls geometrically along the chain."""
    B = np.diag(np.r_[rng.uniform(0.6, 0.9), rng.uniform(0.1, 0.5, n - 1)])
    B[np.arange(1, n), np.arange(n - 1)] = rng.uniform(0.02, 0.06, n - 1)
    B[0, n - 1] = rng.uniform(0.1, 1.0)
    return B


def test_perron_refinement_reaches_the_eigenvalue_on_graded_chains():
    # LAPACK's eigenvector is accurate only relative to its largest entry:
    # its small entries make the plain Collatz-Wielandt value read low, and
    # one shifted inverse-iteration step brings it within 1e-12
    rng = np.random.default_rng(37)
    plain_misses = 0
    for _ in range(100):
        B = _graded_chain(rng, int(rng.integers(13, 17)))
        comps = [list(range(len(B)))]
        top = np.abs(np.linalg.eigvals(B)).max()
        plain, _ = feasibility._perron(B, comps)
        refined, x, estimate = feasibility._perron(B, comps, refine=True)
        assert x.max() >= 1e10 * x.min() > 0
        assert abs(refined - top) <= 1e-12 * top
        assert estimate == pytest.approx(top, rel=1e-12)
        plain_misses += not abs(plain - top) <= 1e-12 * top
    assert plain_misses >= 50


def _stalling_system():
    """The seeded system whose dual De Bruijn level-10 LP meets a policy
    that the certificate step refuses while its plain Perron value reads
    1.6e-5 relative low: the refusal stalled the greedy step."""
    rng = np.random.default_rng(4)
    return [helpers.random_filled_matrix_set(rng, 5, 2, 0.4) for _ in range(40)][31]


def test_rho_bound_refines_a_perron_value_that_stalls_it():
    mats, g = _stalling_system(), de_bruijn(2, 10)
    result = rho_bound(g, mats, "dual")
    assert result.lower == pytest.approx(0.7460769917, abs=1e-10)
    assert result.gamma == result.lower + 0.5e-6
    assert verify_certificate(g, mats, result.certificate).ok


def test_hierarchy_runs_past_the_perron_stall(monkeypatch):
    solved, solve = [], jsr._rho_bound

    def recorded(g, modes, *rest):
        solved.append((g, modes, solve(g, modes, *rest)))
        return solved[-1][2]
    monkeypatch.setattr(jsr, "_rho_bound", recorded)
    report = hierarchy(_stalling_system(), l_max=10, epsilon=0)
    assert len(solved) == len(report.rows) == 20
    assert report.final_interval[1] == pytest.approx(0.7460775, abs=1e-7)
    for g, modes, result in solved:
        assert verify_certificate(g, modes, result.certificate).ok


def test_rho_bound_names_the_stalled_policys_values(demo_graph, demo_matrices):
    # a refined value within PERRON_ACCURACY of lower cannot tell a refusal
    # from rounding: tol is refused, and the message names what was read
    with pytest.raises(ValueError, match=r"tol=3e-15 is too small to resolve in floating "
                       r"point: .* reads 1\.20288709818\d* \(eigenvalue estimate "
                       r"1\.20288709818\d*\) against the lower bound 1\.20288709818"):
        rho_bound(demo_graph, demo_matrices, "dual", tol=3e-15)


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
        assert helpers.lp_feasible(g, mats, "dual", result.gamma + 0.01)
        if result.gamma > 0.02:
            assert not helpers.lp_feasible(g, mats, "dual", result.gamma - 0.01)


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


# the sha256 of 200 seeded results below, as the solver computed them when pinned
RHO_BOUND_DIGEST = "e5bbdd967570d00383c9f3c4fdd0e52e7ea539204b6604381d8606dcd151c7aa"


def test_rho_bound_results_are_pinned_to_the_bit():
    # gamma, lower, the trace and the certificate's bytes of 200 solves: a
    # solver change that moves any bit of any of them must re-pin on purpose
    cases = [(de_bruijn(2, l), helpers.demo_matrices()) for l in range(1, 7)]
    cases += helpers.sparse_reducible_cases(np.random.default_rng(2031), 94)
    digest, count = hashlib.sha256(), 0
    for g, mats in cases:
        for flavor in ("primal", "dual"):
            result = rho_bound(g, mats, flavor)
            digest.update(repr((result.gamma, result.lower, result.trace)).encode())
            digest.update(np.array([result.certificate.vectors[s] for s in g.nodes]).tobytes())
            count += 1
    assert count == 200
    assert digest.hexdigest() == RHO_BOUND_DIGEST


# ------------------------------------------------------ metamorphic relations

def _metamorphic_cases(count=100):
    """``count`` seeded random path-complete graphs, up to 5 nodes, each
    with random modes over its alphabet, and the generator for more draws."""
    rng = np.random.default_rng(78)
    cases = []
    for _ in range(count):
        g = helpers.random_path_complete_graph(rng, max_nodes=5)
        cases.append((g, helpers.random_matrix_set(rng, size=g.alphabet_size)))
    return rng, cases


def _metamorphic_corpora():
    """The corpus of :func:`_metamorphic_cases` and 150 sparse, reducible
    cases of :func:`helpers.sparse_reducible_cases`, each with the
    generator for more draws."""
    rng = np.random.default_rng(77)
    return [_metamorphic_cases(), (rng, list(helpers.sparse_reducible_cases(rng, 150)))]


def test_rho_bound_ignores_the_names_of_the_modes():
    # relabel the graph's edges by a permutation of the modes, and the
    # matrices with them: the same LP, solved to the same bits
    differ = []
    for c, (rng, cases) in enumerate(_metamorphic_corpora()):
        for k, (g, mats) in enumerate(cases):
            M = g.alphabet_size
            perm = rng.permutation(M)  # mode i becomes mode perm[i - 1] + 1
            relabelled = make_graph(M, g.nodes,
                                    [(a, b, int(perm[i - 1]) + 1) for a, b, i in g.edges])
            modes = MatrixSet(mats.stack[np.argsort(perm)])  # new mode perm[i] + 1 is old i + 1
            for flavor in ("primal", "dual"):
                old, new = rho_bound(g, mats, flavor), rho_bound(relabelled, modes, flavor)
                if (old.gamma, old.lower) != (new.gamma, new.lower):
                    differ.append((c, k, flavor, old.gamma, new.gamma, old.lower, new.lower))
    assert not differ, differ[:5]


def test_rho_bound_ignores_the_names_of_the_nodes():
    # rename the nodes so that their canonical order reverses: the same LP up
    # to the order of its unknowns, and its certificate maps back by name
    _, cases = _metamorphic_cases()
    failures = []
    for k, (g, mats) in enumerate(cases):
        name = {s: NodeId.atom(f"m{len(g.nodes) - j}") for j, s in enumerate(g.nodes)}
        renamed = make_graph(g.alphabet_size, list(name.values()),
                             [(name[a], name[b], i) for a, b, i in g.edges])
        assert renamed.nodes == tuple(reversed(name.values()))
        for flavor in ("primal", "dual"):
            old, new = rho_bound(g, mats, flavor), rho_bound(renamed, mats, flavor)
            if not abs(new.gamma - old.gamma) <= 1e-12 * old.gamma:
                failures.append(f"case {k} {flavor}: gamma {old.gamma} -> {new.gamma}")
            back = {s: new.certificate.vectors[name[s]] for s in g.nodes}
            if not verify_certificate(g, mats, Certificate(flavor, new.gamma, back)).ok:
                failures.append(f"case {k} {flavor}: renamed certificate fails")
    assert not failures, failures[:5]


def _similarities(rng, n):
    """``(T, T^-1)`` for a random coordinate permutation and a random
    diagonal of powers of two ``2^k``, ``k`` in [-20, 20]: both keep the
    modes ``T A T^-1`` nonnegative, and the diagonal scales exactly."""
    P = np.eye(n)[rng.permutation(n)]
    d = np.ldexp(1.0, rng.integers(-20, 21, n))
    return (P, P.T), (np.diag(d), np.diag(1 / d))


def test_rho_bound_is_invariant_under_similarity():
    # T A T^-1 has the same LP value; its certificate maps back to one of A
    # at the same rate: A (T^-1 v) <= gamma T^-1 v for a dual one, and
    # A^T (T^T v) <= gamma T^T v for a primal one
    failures = []
    for c, (rng, cases) in enumerate(_metamorphic_corpora()):
        for k, (g, mats) in enumerate(cases):
            for T, T_inv in _similarities(rng, mats.n):
                similar = MatrixSet(T @ mats.stack @ T_inv)
                for flavor in ("primal", "dual"):
                    old, new = rho_bound(g, mats, flavor), rho_bound(g, similar, flavor)
                    if not abs(new.gamma - old.gamma) <= 1e-12 * old.gamma:
                        failures.append(f"corpus {c} case {k} {flavor}: "
                                        f"gamma {old.gamma} -> {new.gamma}")
                    back = T.T if flavor == "primal" else T_inv
                    cert = Certificate(flavor, new.gamma, {s: back @ v for s, v in
                                                           new.certificate.vectors.items()})
                    if not verify_certificate(g, mats, cert).ok:
                        failures.append(f"corpus {c} case {k} {flavor}: mapped certificate fails")
    assert not failures, failures[:5]
