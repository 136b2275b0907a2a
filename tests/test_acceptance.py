"""Release acceptance checks.

Each test prints one PASS/FAIL line.  Expected constants and tolerances
are fixed up front; computed values come from the library under test,
with brute-force product bounds and word enumeration as independent
oracles where the check calls for one.
"""

import itertools
import time
import warnings

import numpy as np


from pclyap import (
    NodeId,
    backward_composition_lift,
    brute_force_bounds,
    common_lyapunov_graph,
    completeness_flags,
    composition_lift,
    hierarchy,
    induced_subgraph,
    is_path_complete,
    lifts,
    make_graph,
    max_lift,
    min_lift,
    rho_bound,
    strongly_connected_components,
    sum_lift,
    transport_certificate,
    verify_certificate,
)

import helpers


def _criterion(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _quiet_call(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fn(*args, **kwargs)


def test_criterion_1_demo_graph_dual_bound():
    g = helpers.demo_graph()
    mats = helpers.demo_matrices()
    start = time.perf_counter()
    value = rho_bound(g, mats, "dual", tol=1e-6).gamma
    elapsed = time.perf_counter() - start
    value_ok = abs(value - 1.3075) <= 2e-3
    time_ok = elapsed < 1.0
    _criterion(1, value_ok and time_ok,
               f"dual bound on the 4-node demo graph: computed {value:.6f}, "
               f"expected 1.3075 +/- 2e-3; runtime {elapsed:.3f}s (< 1s: {time_ok})")


def test_criterion_2_max_lift_component_improves():
    g = helpers.demo_graph()
    mats = helpers.demo_matrices()
    a, b, c, d = (NodeId.atom(x) for x in "abcd")
    reduced = induced_subgraph(max_lift(g),
                               [NodeId.subset([a, c, d]), NodeId.subset([b, d])])
    base = rho_bound(g, mats, "dual", tol=1e-6).gamma
    value = rho_bound(reduced, mats, "dual", tol=1e-6).gamma
    value_ok = abs(value - 1.2716) <= 2e-3
    order_ok = value <= base + 1e-9
    _criterion(2, value_ok and order_ok,
               f"two-subset component of the max lift: computed {value:.6f}, "
               f"expected 1.2716 +/- 2e-3; improves on the base graph "
               f"({value:.6f} <= {base:.6f}: {order_ok})")


def test_criterion_3_hierarchy_table():
    mats = helpers.demo_matrices()
    expected_rho = (1.445, 1.341, 1.445, 1.070, 1.410, 1.070, 1.402, 1.070)
    start = time.perf_counter()
    report = hierarchy(mats, epsilon=1e-2, l_max=4)
    elapsed = time.perf_counter() - start
    got_rho = [r.rho_g for r in report.rows]
    mismatches = [f"step {r.step}: computed {g:.4f} vs expected {e:.3f}"
                  for r, g, e in zip(report.rows, got_rho, expected_rho)
                  if abs(g - e) > 2e-3]
    final_lower = report.rows[-1].lower
    lo, hi = report.final_interval
    lower_ok = abs(final_lower - 1.065) <= 2e-3
    interval_ok = abs(lo - 1.065) <= 2e-3 and abs(hi - 1.070) <= 2e-3
    time_ok = elapsed < 30.0
    ok = not mismatches and lower_ok and interval_ok and time_ok
    detail = (f"8-step hierarchy in {elapsed:.2f}s (< 30s: {time_ok}); "
              f"final interval computed [{lo:.4f}, {hi:.4f}] vs expected "
              f"[1.065, 1.070] +/- 2e-3")
    if mismatches:
        detail += "; rho_G mismatches: " + "; ".join(mismatches)
    _criterion(3, ok, detail)


def test_criterion_4_broadcast_systems():
    failures = []
    for n in (2, 3, 4, 5):
        mats = helpers.broadcast_matrices(n)
        g0 = common_lyapunov_graph(n)
        rho_d = rho_bound(g0, mats, "dual", tol=1e-6).gamma
        rho_p = rho_bound(g0, mats, "primal", tol=1e-6).gamma
        if abs(rho_d - 1.0) > 1e-4:
            failures.append(f"n={n}: dual {rho_d:.6f} != 1")
        if abs(rho_p - n) > 1e-3:
            failures.append(f"n={n}: primal {rho_p:.6f} != {n}")
        swapped = mats.transposed()
        if abs(rho_bound(g0, swapped, "primal", tol=1e-6).gamma - 1.0) > 1e-4:
            failures.append(f"n={n}: transposed primal != 1")
        if abs(rho_bound(g0, swapped, "dual", tol=1e-6).gamma - n) > 1e-3:
            failures.append(f"n={n}: transposed dual != {n}")
    _criterion(4, not failures,
               "broadcast systems n=2..5: dual bound 1, primal bound n, "
               "roles swap under transposition" +
               ("" if not failures else "; failures: " + "; ".join(failures)))


def _embedding(kind, g):
    if kind == "sum":
        return {s: NodeId.multiset([s, s]) for s in g.nodes}
    return {s: NodeId.subset([s]) for s in g.nodes}


def test_criterion_5_lift_properties_on_random_corpus():
    rng = np.random.default_rng(2024)
    failures = []
    for trial in range(100):
        g = helpers.random_path_complete_graph(rng, max_nodes=5, max_labels=3)
        lifted = {
            "sum": sum_lift(g, 2),
            "max": max_lift(g),
            "min": min_lift(g),
            "comp": _quiet_call(composition_lift, g),
            "backcomp": _quiet_call(backward_composition_lift, g),
        }
        for kind, lift_graph in lifted.items():
            if not is_path_complete(lift_graph):
                failures.append(f"trial {trial}: {kind} lift not path-complete")
        for kind in ("sum", "max", "min"):
            embed = _embedding(kind, g)
            image = induced_subgraph(lifted[kind], list(embed.values()))
            expected = make_graph(g.alphabet_size, list(embed.values()),
                                  [(embed[a], embed[b], i) for a, b, i in g.edges])
            if image != expected:
                failures.append(f"trial {trial}: {kind} lift embedding mismatch")
                continue
            if not is_path_complete(image):
                failures.append(f"trial {trial}: {kind} embedded copy not PC")
            if len(strongly_connected_components(image)) != 1:
                failures.append(f"trial {trial}: {kind} embedded copy not SC")
        complete, co_complete = completeness_flags(g)
        full = NodeId.subset(g.nodes)
        if complete:
            loops = {(full, full, i) for i in range(1, g.alphabet_size + 1)}
            if not loops <= set(lifted["min"].edges):
                failures.append(f"trial {trial}: min lift misses full-set loops")
        if co_complete:
            loops = {(full, full, i) for i in range(1, g.alphabet_size + 1)}
            if not loops <= set(lifted["max"].edges):
                failures.append(f"trial {trial}: max lift misses full-set loops")
    _criterion(5, not failures,
               "100 random path-complete graphs (|S|<=5, M<=3): all lift "
               "outputs path-complete, canonical copies embed, full-set "
               "loops present for complete/co-complete inputs" +
               ("" if not failures else "; failures: " + "; ".join(failures[:5])))


def test_criterion_6_certificate_transport():
    rng = np.random.default_rng(77)
    failures = []
    for trial in range(100):
        M = int(rng.integers(1, 4))
        n = int(rng.integers(1, 5))
        mats = helpers.random_matrix_set(rng, n=n, size=M)
        g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=1)
        g = _with_alphabet(g, rng, M)
        dual_cert = rho_bound(g, mats, "dual", tol=1e-6).certificate
        primal_cert = rho_bound(g, mats, "primal", tol=1e-6).certificate
        cases = [
            (dual_cert, "sum:2", mats), (primal_cert, "sum:2", mats),
            (dual_cert, "max", mats), (primal_cert, "min", mats),
        ]
        if np.all([m.T @ primal_cert.vectors[s] > 1e-12
                   for m in mats.matrices for s in g.nodes]):
            cases.append((primal_cert, "comp", mats))
        if np.all([m @ dual_cert.vectors[s] > 1e-12
                   for m in mats.matrices for s in g.nodes]):
            cases.append((dual_cert, "backcomp", mats))
        mono = helpers.random_monomial_matrix_set(rng, n=n, size=M)
        for flavor, kind in (("primal", "backcomp"), ("dual", "comp")):
            cases.append((rho_bound(g, mono, flavor, tol=1e-6).certificate, kind, mono))
        for cert, kind, case_mats in cases:
            try:
                moved = _quiet_call(transport_certificate, cert, kind, g, case_mats)
            except ValueError as exc:
                failures.append(f"trial {trial} {cert.flavor}+{kind}: {exc}")
                continue
            if moved.gamma != cert.gamma:
                failures.append(f"trial {trial} {cert.flavor}+{kind}: gamma changed")
            lifted = _lift_for(kind, g)
            if not verify_certificate(lifted, case_mats, moved, tol=1e-9).ok:
                failures.append(f"trial {trial} {cert.flavor}+{kind}: verification")
    _criterion(6, not failures,
               "100 random systems (n<=4): transported certificates verify on "
               "the lifted graph at the same rate, slack 1e-9, for all eight "
               "supported flavor/lift pairs (the composition pairs where their "
               "vectors clear the floor, the inverting ones on monomial modes)" +
               ("" if not failures else "; failures: " + "; ".join(failures[:5])))


def _with_alphabet(g, rng, M):
    """Random strongly connected path-complete graph over exactly M labels."""
    while g.alphabet_size != M:
        g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=M)
    return g


def _lift_for(kind, g):
    return _quiet_call(lifts.lift, g, kind)


def test_criterion_7_oracle_consistency():
    rng = np.random.default_rng(4242)
    failures = []
    for trial in range(100):
        mats = helpers.random_matrix_set(rng)
        g0 = common_lyapunov_graph(mats.size)
        bf_lower, _ = brute_force_bounds(mats, 6)
        primal = rho_bound(g0, mats, "primal", tol=1e-6)
        dual = rho_bound(g0, mats, "dual", tol=1e-6)
        for name, value in (("primal", primal.gamma), ("dual", dual.gamma)):
            if bf_lower > value + 1e-6:
                failures.append(
                    f"trial {trial}: brute lower {bf_lower:.8f} above {name} "
                    f"bound {value:.8f}")
        if primal.gamma / mats.n > bf_lower + 2e-6:
            failures.append(
                f"trial {trial}: primal/n {primal.gamma / mats.n:.8f} above "
                f"brute lower {bf_lower:.8f}")
        twin = rho_bound(g0, mats.transposed(), "dual", tol=1e-6)
        if twin.gamma != primal.gamma or twin.trace != primal.trace:
            failures.append(f"trial {trial}: primal/dual-transposed mismatch")
    _criterion(7, not failures,
               "100 random systems: brute-force lower bound below every LP "
               "value (+1e-6), scaled primal bound below the depth-6 brute "
               "lower bound (+2e-6 bisection slack), and the primal value "
               "equals the dual value of the transposed set exactly" +
               ("" if not failures else "; failures: " + "; ".join(failures[:5])))


def _oracle_every_word_has_path(n_nodes, masks, max_len):
    """Independent word-enumeration oracle over successor bitmasks.

    Words sharing a prefix that reaches the same successor set at the same
    length have the same continuations, so each (subset, depth) state is
    expanded once.
    """
    full = (1 << n_nodes) - 1
    stack = [(full, 0)]
    seen = {(full, 0)}
    while stack:
        current, depth = stack.pop()
        if depth == max_len:
            continue
        for label_masks in masks:
            nxt, m = 0, current
            while m:
                low = m & -m
                nxt |= label_masks[low.bit_length() - 1]
                m ^= low
            if nxt == 0:
                return False
            if (nxt, depth + 1) not in seen:
                seen.add((nxt, depth + 1))
                stack.append((nxt, depth + 1))
    return True


def test_criterion_8_exhaustive_oracle_agreement():
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for n_nodes in (1, 2, 3):
        nodes = [NodeId.atom(f"n{k}") for k in range(n_nodes)]
        slots = [(a, b, i) for a in range(n_nodes) for b in range(n_nodes)
                 for i in (1, 2)]
        max_len = 2 ** n_nodes
        for picks in itertools.product((False, True), repeat=len(slots)):
            chosen = [slot for slot, take in zip(slots, picks) if take]
            g = make_graph(2, nodes, [(nodes[a], nodes[b], i) for a, b, i in chosen])
            masks = [[0] * n_nodes for _ in (1, 2)]
            for a, b, i in chosen:
                masks[i - 1][a] |= 1 << b
            expected = _oracle_every_word_has_path(n_nodes, masks, max_len)
            if is_path_complete(g) != expected:
                disagreements += 1
            checked += 1
    elapsed = time.perf_counter() - start
    _criterion(8, disagreements == 0,
               f"exhaustive agreement with word enumeration on all {checked} "
               f"graphs with |S|<=3, M=2 ({elapsed:.1f}s): "
               f"{disagreements} disagreements")
