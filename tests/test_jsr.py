import hashlib
import math
import warnings

import numpy as np
import pytest

from pclyap import (
    Certificate,
    MatrixSet,
    NodeId,
    backward_composition_lift,
    brute_force_bounds,
    common_lyapunov_graph,
    composition_lift,
    copositive,
    de_bruijn,
    feasibility,
    hierarchy,
    jsr,
    make_graph,
    max_lift,
    path_complete_components,
    rho_bound,
    spectral_radius,
    transport_certificate,
    transpose,
    verify_certificate,
)

import helpers

# frozen with an independent LP solver (bisection tolerance 1e-10)
DEMO_DUAL_CLF = 1.3409991733
DEMO_PRIMAL_CLF = 1.2754194716
DEMO_HIERARCHY_RHO_G = [1.3409991733, 1.2754194716, 1.0699135320, 1.0753861208,
                        1.0699135320, 1.0699135320, 1.0699135320, 1.0699135320]
# roots of the dominant 2x2 block of the first demo matrix
DEMO_A1_RADIUS = 0.8358898943540674
# rho(A_2) of the demo system, rounded from a 40-digit reference value
DEMO_A2_RADIUS = 1.0699135320037709


# --------------------------------------------------------- spectral radius

def test_spectral_radius_identity():
    assert spectral_radius(np.eye(3)) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_zero():
    assert spectral_radius(np.zeros((4, 4))) == 0.0


def test_spectral_radius_demo_matrix(demo_matrices):
    value = spectral_radius(demo_matrices.matrices[0])
    assert value == pytest.approx(DEMO_A1_RADIUS, abs=1e-7)


def test_spectral_radius_nilpotent():
    assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(0.0, abs=1e-7)


def test_spectral_radius_permutation():
    assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-7)


def test_spectral_radius_matches_eigvals():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        mat = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        want = max(abs(np.linalg.eigvals(mat)))
        assert spectral_radius(mat) == pytest.approx(want, abs=1e-6)


def _stress_matrices(rng, count):
    """Sparse, upper-triangular and ``kron(I, Jordan)`` matrices, n <= 6."""
    for k in range(count):
        n = int(rng.integers(1, 7))
        if k % 3 == 0:
            m = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.2, 0.6))
        elif k % 3 == 1:
            m = np.triu(rng.random((n, n)))
        else:
            size = int(rng.integers(1, 4))
            jordan = rng.random() * np.eye(size) + np.eye(size, k=1)
            m = np.kron(np.eye(int(rng.integers(1, 3))), jordan)
        yield m * rng.uniform(0.1, 2.0)


def test_spectral_radius_never_above_eigvals():
    # brute_force_bounds takes its JSR lower bound from batched
    # Collatz-Wielandt values and spectral_radius's per-component value, so
    # neither may read above the Perron root, defective matrices included
    rng = np.random.default_rng(5)
    by_n = {}
    for m in _stress_matrices(rng, 300):
        by_n.setdefault(len(m), []).append(m)
        want = max(abs(np.linalg.eigvals(m)))
        for got in (spectral_radius(m), brute_force_bounds(MatrixSet.from_matrices([m]), 1)[0]):
            assert got <= want * (1 + 1e-12), m
            assert abs(got - want) <= 1e-9 * want, m
    for stack in map(np.array, by_n.values()):
        cw, top = jsr._radii(stack)
        want = np.abs(np.linalg.eigvals(stack)).max(axis=1)
        assert np.all(cw <= want * (1 + 1e-12))
        assert np.all(top == pytest.approx(want, rel=1e-6, abs=1e-6))


def test_spectral_radius_validation():
    with pytest.raises(ValueError):
        spectral_radius(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        spectral_radius(np.array([[-1.0]]))
    for bad in ([[np.nan]], [[2.0, 0.0], [0.0, np.nan]], [[np.inf]],
                [[1.0, np.nan], [0.5, 1.0]]):
        with pytest.raises(ValueError, match="finite"):
            spectral_radius(np.array(bad))


# ------------------------------------------------------------- brute force

def test_brute_force_scalar():
    mats = MatrixSet.from_matrices([np.array([[2.0]])])
    assert brute_force_bounds(mats, 3) == pytest.approx((2.0, 2.0))


def test_brute_force_shift_pair():
    mats = MatrixSet.from_matrices([np.array([[0.0, 1.0], [0.0, 0.0]]),
                                    np.array([[0.0, 0.0], [1.0, 0.0]])])
    lower, upper = brute_force_bounds(mats, 2)
    assert lower == pytest.approx(1.0, abs=1e-7)
    assert upper == pytest.approx(1.0, abs=1e-7)


def test_brute_force_demo(demo_matrices):
    lower, upper = brute_force_bounds(demo_matrices, 8)
    assert 1.0 <= lower <= 1.07
    assert lower <= upper


def test_brute_force_demo_lower_bound_not_above_rho(demo_matrices):
    lower, _ = brute_force_bounds(demo_matrices, 1)
    assert DEMO_A2_RADIUS - 1e-12 <= lower <= DEMO_A2_RADIUS + 1e-14


def test_brute_force_validation(demo_matrices):
    with pytest.raises(ValueError):
        brute_force_bounds(demo_matrices, 0)
    with pytest.raises(ValueError):
        brute_force_bounds(demo_matrices, 25)  # 2^25 products > cap
    for K in (True, 2.0):  # a bool is not an integer here
        with pytest.raises(ValueError):
            brute_force_bounds(demo_matrices, K)


def test_brute_force_cap_counts_stored_entries(demo_matrices, monkeypatch):
    def unreachable(*args):
        raise AssertionError("products formed before the cap check")

    one = MatrixSet.from_matrices([np.array([[0.5]])])
    pair = MatrixSet.from_matrices([np.array([[0.5]]), np.array([[0.7]])])
    wide = MatrixSet.from_matrices([np.eye(100)] * 2)
    # admitted at the default cap: the demo to K = 18, (9 + 8) (2^19 - 2) + 500 * 18
    # = 8,921,862 units; 19,646 lengths of one scalar; 2^20 - 2 scalar products
    monkeypatch.setattr(jsr, "_products", lambda mats, K: iter(()))
    for mats, K in ((demo_matrices, 18), (one, 19_646), (pair, 19), (wide, 8)):
        assert brute_force_bounds(mats, K) == (0.0, math.inf)
    monkeypatch.setattr(jsr, "_products", unreachable)
    for mats, K in ((demo_matrices, 19), (one, 19_647), (one, 10 ** 7), (pair, 20),
                    (wide, 9), (demo_matrices, 10 ** 9)):
        with pytest.raises(ValueError, match="unit cap"):
            brute_force_bounds(mats, K)
    # demo, K = 3: (3^2 + 8) (2 + 4 + 8) + 500 * 3 = 1,738 units
    monkeypatch.setattr(jsr, "PRODUCT_CAP", 1737)
    with pytest.raises(ValueError, match=r"\(n\^2 \+ 8\) \(M \+ \.\.\. \+ M\^K\) \+ 500 K "
                                         r"= 1,738 work units with M = 2, n = 3, "
                                         r"beyond the 1,737 unit cap"):
        brute_force_bounds(demo_matrices, 3)
    monkeypatch.undo()
    monkeypatch.setattr(jsr, "PRODUCT_CAP", 1738)
    assert brute_force_bounds(demo_matrices, 3)[1] > 0


def test_brute_force_bracket_is_not_inverted():
    # the products of one scalar are its powers; rounded to nearest, their
    # roots put the upper bound an ulp below the lower one here
    a = 0.880724727199539
    lower, upper = brute_force_bounds(MatrixSet.from_matrices([np.array([[a]])]), 5)
    assert lower <= a <= upper
    rng = np.random.default_rng(5)
    for _ in range(200):
        n, M = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        mats = MatrixSet.from_matrices([rng.random((n, n)) for _ in range(M)])
        lower, upper = brute_force_bounds(mats, 5)
        assert lower <= upper, (mats.matrices, lower, upper)
        if n == 1:  # the JSR of scalars is the largest one
            assert lower <= max(float(A[0, 0]) for A in mats.matrices) <= upper


def test_brute_force_returns_python_floats(demo_matrices):
    for mats in (demo_matrices, MatrixSet.from_matrices([np.zeros((2, 2))])):
        lower, upper = brute_force_bounds(mats, 3)
        assert type(lower) is float and type(upper) is float


@pytest.mark.parametrize("matrix, value", [
    ([[1e200]], 1e200),
    ([[1e-200, 0.0], [0.0, 1e-200]], 1e-200),
    ([[1e200, 1e200], [1e200, 1e200]], 2e200),
], ids=["huge-scalar", "tiny-diagonal", "huge-ones"])
def test_brute_force_scale_safe(matrix, value):
    # the products overflow or underflow float64 unless carried scaled
    lower, upper = brute_force_bounds(MatrixSet.from_matrices([np.array(matrix)]), 3)
    assert lower == pytest.approx(value, rel=1e-12, abs=0)
    assert upper == pytest.approx(value, rel=1e-12, abs=0)


def test_brute_force_refuses_bounds_beyond_the_float_range():
    # the JSR 2e308 is finite, but no float is at or above it
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        with pytest.raises(ValueError, match="beyond the float range: lower = inf, upper = inf"):
            brute_force_bounds(MatrixSet.from_matrices([np.full((2, 2), 1e308)]), 1)
        # the norm overflows at length 1 only: the bounds are those of length 2
        lower, upper = brute_force_bounds(MatrixSet.from_matrices([[[1e308, 1e308], [0, 0]]]), 2)
    assert lower == pytest.approx(1e308, rel=1e-12, abs=0)
    assert upper == pytest.approx(math.sqrt(2) * 1e308, rel=1e-12, abs=0)


def _oracle_corpus(rng):
    """Dense, 35% and 20% fill systems, n 2-6, M 2-3, then sparse and
    reducible ones with zero and nilpotent modes."""
    for t in range(24):
        n, M = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        fill = (1.0, 0.35, 0.2)[t % 3]
        yield MatrixSet.from_matrices(
            [rng.random((n, n)) * (rng.random((n, n)) < fill) for _ in range(M)])
    for t in range(8):
        yield helpers.random_sparse_matrix_set(rng, int(rng.integers(1, 6)),
                                               int(rng.integers(2, 4)), first_kind=t)


def _stochastic(rng, n):
    m = rng.random((n, n))
    return m / m.sum(axis=1, keepdims=True)


def test_brute_force_settles_ties_in_batch(monkeypatch):
    # every product of these families has radius 1 (or 0.5), so all of them
    # tie at the top; their Collatz-Wielandt values meet their eigenvalue
    # moduli, and none may cost a per-product refinement
    rng = np.random.default_rng(8)
    families = [
        [_stochastic(rng, 3) for _ in range(3)],
        [np.eye(4)[[1, 0, 3, 2]], _stochastic(rng, 4)],
        [np.eye(3)[[1, 2, 0]], np.eye(3)[[0, 2, 1]]],
        [np.array([[0.5]])] * 2,
    ]
    systems = [MatrixSet.from_matrices(f) for f in families]
    wants = [helpers.brute_force_bounds_by_products(mats, 7) for mats in systems]
    calls = []
    perron = jsr._perron
    monkeypatch.setattr(jsr, "_perron", lambda A: calls.append(A) or perron(A))
    for mats, want in zip(systems, wants):
        got = brute_force_bounds(mats, 7)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w, (got, want)
    # exact roots, moved outward by n + 4 = 5 ulps
    assert brute_force_bounds(systems[3], 16) == (0.5 * (1 - 5 * 2.0 ** -52),
                                                  0.5 * (1 + 5 * 2.0 ** -52))
    assert calls == []


def test_brute_force_matches_product_oracle():
    rng = np.random.default_rng(41)
    clipped_short = 0
    for mats in _oracle_corpus(rng):
        K = 4 if mats.size == 3 else 6
        got = brute_force_bounds(mats, K)
        want = helpers.brute_force_bounds_by_products(mats, K)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * w, (got, want)
        clipped = max(float(jsr._root(jsr._radii(Q)[0], exps, k).max())
                      for k, Q, exps, _ in jsr._products(mats, K))
        clipped_short += clipped < want[0] * (1 - 1e-12)
    # the corpus needs the per-component refinement: the clipped
    # eigenvector alone reads too low on some systems
    assert clipped_short >= 3


# --------------------------------------------------------------- hierarchy

def test_hierarchy_scalar_converges_at_level_one():
    mats = MatrixSet.from_matrices([np.array([[0.5]])])
    report = hierarchy(mats, epsilon=1e-2, l_max=8)
    assert len(report.rows) == 2  # both steps of level 1, then the gap closes
    lo, hi = report.final_interval
    assert lo == pytest.approx(0.5, abs=1e-5)
    assert hi == pytest.approx(0.5, abs=1e-5)
    assert report.certified_stable and not report.certified_unstable


def test_hierarchy_broadcast_upper_bound_is_one():
    report = hierarchy(helpers.broadcast_matrices(3), epsilon=1e-3, l_max=2)
    assert report.rows[0].rho_g == pytest.approx(1.0, abs=1e-5)
    assert report.rows[0].upper == pytest.approx(1.0, abs=1e-5)


def test_hierarchy_demo_table(demo_matrices):
    report = hierarchy(demo_matrices, epsilon=1e-2, l_max=4)
    assert [r.step for r in report.rows] == [
        "(1)", "(1)d", "(2)", "(2)d", "(3)", "(3)d", "(4)", "(4)d"]
    assert [r.kind for r in report.rows] == ["dual", "primal"] * 4
    assert [r.graph_size for r in report.rows] == [1, 1, 2, 2, 4, 4, 8, 8]
    for row, want in zip(report.rows, DEMO_HIERARCHY_RHO_G):
        assert row.rho_g == pytest.approx(want, abs=5e-6), row.step
    lo, hi = report.final_interval
    assert lo == pytest.approx(DEMO_HIERARCHY_RHO_G[2] / 3 ** 0.25, abs=1e-5)
    assert hi == pytest.approx(DEMO_HIERARCHY_RHO_G[2], abs=1e-5)
    # bracket columns are monotone and ordered
    lows = [r.lower for r in report.rows]
    highs = [r.upper for r in report.rows]
    assert lows == sorted(lows)
    assert highs == sorted(highs, reverse=True)
    assert all(lo_ <= hi_ for lo_, hi_ in zip(lows, highs))


def test_hierarchy_brackets_contain_brute_force_lower(demo_matrices):
    report = hierarchy(demo_matrices, epsilon=1e-2, l_max=3)
    bf_lower, _ = brute_force_bounds(demo_matrices, 6)
    assert report.final_interval[0] <= bf_lower + 1e-6
    assert bf_lower <= report.final_interval[1] + 1e-6


def test_hierarchy_csv_shape(demo_matrices):
    report = hierarchy(demo_matrices, epsilon=1e-2, l_max=2)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "step,kind,level,rho_G,lower,upper"
    assert len(lines) == 5


def test_hierarchy_to_level_12_is_pinned(demo_matrices):
    # every digit the CSV prints of the demo levels 1-12, where the CLI pins stop at 4
    csv = hierarchy(demo_matrices, l_max=12, epsilon=0).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest()[:16] == "96c68c583aa47643", csv


def test_hierarchy_node_cap(demo_matrices, monkeypatch):
    # the cap counts unknowns M^(l-1) n and is checked for every level up to
    # l_max before level 1's graph is built; a stand-in that stops at the
    # first graph keeps the admitted runs cheap
    built = []

    def first_graph(M, l):
        built.append(l)
        raise LookupError("stand-in")

    monkeypatch.setattr(jsr, "de_bruijn", first_graph)
    with pytest.raises(LookupError):
        hierarchy(demo_matrices, epsilon=0.0, l_max=13)  # 12,288 unknowns
    assert built == [1]
    built.clear()
    with pytest.raises(ValueError, match=r"level 14 has M\^\(l-1\) n = 2\^13 \* 3 = "
                                         r"24,576 unknowns, beyond the 12,288 unknown cap"):
        hierarchy(demo_matrices, epsilon=0.0, l_max=14)
    assert built == []
    rng = np.random.default_rng(0)
    wide = MatrixSet.from_matrices([rng.random((10, 10)) for _ in range(2)])
    with pytest.raises(LookupError):
        hierarchy(wide, epsilon=0.0, l_max=11)  # 10,240 unknowns
    with pytest.raises(ValueError, match="20,480 unknowns"):
        hierarchy(wide, epsilon=0.0, l_max=12)
    assert built == [1]


def test_hierarchy_refuses_an_over_cap_l_max_at_once(demo_matrices, monkeypatch):
    # whatever epsilon would do (10.0 stops the demo after level 1 when l_max
    # is admitted), and with no graph built; one mode never grows past level
    # 1's unknowns, so its words' 64-letter limit admits l_max = 65 and no more
    one = MatrixSet.from_matrices([[[0.5]]])
    assert len(hierarchy(one, l_max=65).rows) == 2
    for l_max in (66, 10 ** 9):
        with pytest.raises(ValueError, match="debruijn:1,66 would have words of 65 letters"):
            hierarchy(one, l_max=l_max)
    built = []
    monkeypatch.setattr(jsr, "de_bruijn", lambda M, l: built.append(l))
    for eps in (0.0, 10.0):
        with pytest.raises(ValueError, match="De Bruijn level 14 has"):
            hierarchy(demo_matrices, epsilon=eps, l_max=10 ** 9)
    four = helpers.random_matrix_set(np.random.default_rng(7), n=3, size=4)
    with pytest.raises(ValueError, match=r"level 8 has M\^\(l-1\) n = 4\^7 \* 3 = 49,152 "):
        hierarchy(four)  # at the default l_max
    assert built == []


def test_hierarchy_checks_every_level_graph_before_any_lp(monkeypatch):
    # level 3 of 100 modes is past the graph-size limit: refused before level 1
    solves = []
    monkeypatch.setattr(jsr, "_rho_bound", lambda *args: solves.append(args))
    scalars = MatrixSet.from_matrices([[[x]] for x in np.linspace(0.1, 0.9, 100)])
    with pytest.raises(ValueError, match="debruijn:100,3 would have 1010000 nodes and "
                                         "candidate edges, beyond the limit of 200000"):
        hierarchy(scalars, l_max=3)
    assert solves == []


def test_hierarchy_stopping_rules(demo_matrices):
    report = hierarchy(demo_matrices, epsilon=10.0, l_max=8)
    assert len(report.rows) == 2  # huge margin stops after the first level
    report = hierarchy(demo_matrices, epsilon=0.0, l_max=2)
    assert len(report.rows) == 4  # no epsilon rule: every level up to l_max
    # l_max is checked before every level, so it must allow at least one; a
    # bool epsilon is no number (True as 1.0 stopped the demo after level 1)
    for eps, l_max in ((0.0, 0), (1e-2, 0), (10.0, -1), (1e-2, 1.5), (1e-2, True),
                       (True, 4), (np.True_, 4)):
        with pytest.raises(ValueError):
            hierarchy(demo_matrices, epsilon=eps, l_max=l_max)


# ------------------------------------ each level starts from the level below

def _word(node):
    """The word ``s·i`` of the composition node ``s∘i`` over a word ``s``."""
    s, i = node.value
    return NodeId.word(s.value + (i,))


def _by_words(g):
    return make_graph(g.alphabet_size, map(_word, g.nodes),
                      [(_word(a), _word(b), i) for a, b, i in g.edges])


def _stack(mats, flavor):
    """The composition stack ``B`` of ``flavor``: ``A_i`` primal, ``A_i^T`` dual."""
    return np.stack((mats if flavor == "primal" else mats.transposed()).matrices)


@pytest.mark.parametrize("M, levels", [(2, (1, 2, 3, 4)), (3, (1, 2, 3)), (10, (1, 2))])
def test_composed_vectors_follow_the_word_map(M, levels):
    # level l+1 is the backcomp lift of level l (dual side) and the comp lift
    # of its transpose (primal side) under s∘i -> s·i, and the start vectors
    # are the transported certificate's, renamed; a dense system keeps every
    # transported vector above the floor
    mats = helpers.random_matrix_set(np.random.default_rng(M), n=2, size=M)
    for l in levels:
        db, up = de_bruijn(M, l), de_bruijn(M, l + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # De Bruijn graphs above level 1 are not minimal
            assert _by_words(backward_composition_lift(db)) == up
            assert _by_words(composition_lift(transpose(db))) == transpose(up)
        rows = jsr._word_rows(db.nodes, up.nodes, M)
        if M == 10 and l == 2:  # "(1,10)" sorts before "(1,2)": names, not positions
            assert rows != sorted(rows)
        for flavor, kind, graph in (("dual", "backcomp", db), ("primal", "comp", transpose(db))):
            cert = rho_bound(graph, mats, flavor).certificate
            moved = {_word(s): v for s, v in
                     transport_certificate(cert, kind, graph, mats).vectors.items()}
            V = np.array([cert.vectors[s] for s in db.nodes])
            composed = copositive._composed(V, _stack(mats, flavor))[rows]
            assert np.array_equal(composed, np.array([moved[s] for s in up.nodes]))


def test_start_vector_cannot_overflow():
    # the certificate is scaled by a power of two before it is composed:
    # exactly, so the rows the greedy step picks do not change
    mats = MatrixSet.from_matrices([np.full((2, 2), 4.0), np.eye(2)])
    db, up = de_bruijn(2, 1), de_bruijn(2, 2)
    rows = jsr._word_rows(db.nodes, up.nodes, 2)
    for big in (3.0, 1e308):
        V = np.array([[1.0, big]])
        start = jsr._start(Certificate("dual", 9.0, {db.nodes[0]: V[0]}), db.nodes, rows,
                           _stack(mats, "dual"))
        assert np.all(np.isfinite(start)) and 0.5 <= start.max() < 8.0
        shift = np.frexp(big)[1]
        assert np.array_equal(start, copositive._composed(np.ldexp(V, -shift),
                                                          _stack(mats, "dual"))[rows].ravel())
    with np.errstate(over="ignore"):
        assert np.isinf(copositive._composed(V, _stack(mats, "dual"))).any()  # unscaled, it overflows


def test_level_below_certifies_the_next_level():
    # the composed vectors of level l's certificate meet every inequality of
    # level l+1 at gamma_l; where they also clear the positivity floor they
    # certify level l+1 there, so its LP value is at most gamma_l.  Systems:
    # tier-1 dense and sparse/reducible ones (which never clear the floor:
    # each has a mode with a zero row), and half-filled ones
    rng = np.random.default_rng(33)
    systems = [("dense", helpers.random_matrix_set(rng, n=int(rng.integers(1, 4)),
                                                   size=int(rng.integers(2, 4))))
               for _ in range(6)]
    systems += [("reducible", helpers.random_sparse_matrix_set(
        rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)), first_kind=k)) for k in range(8)]
    systems += [("fill", helpers.random_filled_matrix_set(rng, int(rng.integers(3, 7)), 2,
                                                          0.5)) for _ in range(4)]
    certified = dict.fromkeys(("dense", "reducible", "fill"), 0)
    for k, (kind, mats) in enumerate(systems):
        M = mats.size
        for l in (1, 2, 3):
            db, up = de_bruijn(M, l), de_bruijn(M, l + 1)
            rows = jsr._word_rows(db.nodes, up.nodes, M)
            for flavor, here, there in (("dual", db, up),
                                        ("primal", transpose(db), transpose(up))):
                result = rho_bound(here, mats, flavor)
                V = np.array([result.certificate.vectors[s] for s in db.nodes])
                composed = copositive._composed(V, _stack(mats, flavor))[rows]
                residuals = copositive._residuals(
                    composed, *copositive._edge_arrays(there, mats, flavor), result.gamma)
                assert residuals.max() <= 1e-12 * max(1.0, composed.max()), (k, l, flavor)
                if composed.min() < copositive.POSITIVITY_FLOOR:
                    continue
                cert = Certificate(flavor, result.gamma, dict(zip(up.nodes, composed)))
                assert verify_certificate(there, mats, cert).ok, (k, l, flavor)
                assert rho_bound(there, mats, flavor).lower <= result.gamma, (k, l, flavor)
                certified[kind] += 1
    assert certified["dense"] == 36 and certified["fill"] > 0, certified


def _bench_like_corpus():
    """The demo and one M = 2 system for each n in 3-6, dense and with about
    35% of entries nonzero."""
    rng = np.random.default_rng(0)
    systems = [helpers.demo_matrices()]
    for n in (3, 4, 5, 6):
        systems += [helpers.random_matrix_set(rng, n=n, size=2),
                    helpers.random_filled_matrix_set(rng, n, 2, 0.35)]
    return systems


def _hierarchy_solves(monkeypatch, mats, warm):
    """The report of ``hierarchy(mats, epsilon=0, l_max=4)`` and every
    ``RhoBound`` it made, its levels started from the level below or, when
    not ``warm``, from the all-ones vector."""
    solves, solve = [], feasibility._rho_bound

    def recorded(g, m, flavor, tol, start=None):
        solves.append(solve(g, m, flavor, tol, start if warm else None))
        return solves[-1]

    monkeypatch.setattr(jsr, "_rho_bound", recorded)
    return hierarchy(mats, epsilon=0.0, l_max=4), solves


def test_primal_row_is_the_transposed_primal_solve(monkeypatch):
    # row (l)d solves the dual LP of the transposed modes on the De Bruijn
    # graph itself; the primal LP of its transpose, from the same start,
    # gives the same rates, trace and vectors bit for bit
    rng = np.random.default_rng(21)
    systems = _bench_like_corpus() + [helpers.random_sparse_matrix_set(
        rng, int(rng.integers(2, 5)), int(rng.integers(2, 4)), first_kind=k) for k in range(4)]
    checked = 0
    for k, mats in enumerate(systems):
        calls, solve = [], feasibility._rho_bound

        def recorded(g, m, flavor, tol, start=None):
            calls.append((g, flavor, start, solve(g, m, flavor, tol, start)))
            return calls[-1][-1]

        monkeypatch.setattr(jsr, "_rho_bound", recorded)
        report = hierarchy(mats, epsilon=0.0, l_max=4)
        assert [r.kind for r in report.rows] == ["dual", "primal"] * 4
        for row, (g, flavor, start, got) in zip(report.rows, calls, strict=True):
            assert flavor == "dual" and g == de_bruijn(mats.size, row.level), (k, row.step)
            if row.kind == "dual":
                continue
            want = feasibility._rho_bound(transpose(g), mats, "primal",
                                          feasibility.DEFAULT_LP_TOL, start)
            assert (got.gamma, got.lower, got.trace) == (want.gamma, want.lower, want.trace)
            assert got.certificate.vectors.keys() == want.certificate.vectors.keys()
            for s, v in want.certificate.vectors.items():
                assert np.array_equal(got.certificate.vectors[s], v), (k, row.step, s)
            checked += 1
    assert checked == 4 * len(systems) == 52


def test_starting_from_the_level_below_saves_evaluations(monkeypatch):
    evaluations = {True: 0, False: 0}
    for k, mats in enumerate(_bench_like_corpus()):
        (warm, warm_solves), (cold, cold_solves) = (
            _hierarchy_solves(monkeypatch, mats, w) for w in (True, False))
        for w, solves in ((True, warm_solves), (False, cold_solves)):
            evaluations[w] += sum(len(r.trace) for r in solves)
        if k == 0:  # the demo: bit-identical
            assert warm.to_dict() == cold.to_dict()
        for a, b in zip(warm_solves, cold_solves, strict=True):
            assert a.gamma == pytest.approx(b.gamma, rel=1e-12, abs=0), k
            assert a.lower == pytest.approx(b.lower, rel=1e-12, abs=0), k
    assert evaluations[True] <= 0.75 * evaluations[False], evaluations


# ------------------------------------- common function check (test oracle)

def test_common_function_on_clf():
    g0 = common_lyapunov_graph(1)
    mats = MatrixSet.from_matrices([np.array([[0.5]])])
    cert = Certificate("dual", 0.5, {g0.nodes[0]: np.array([1.0])})
    assert helpers.common_function_check(g0, mats, cert, samples=50)


def test_common_function_broadcast():
    g0 = common_lyapunov_graph(3)
    mats = helpers.broadcast_matrices(3)
    cert = Certificate("dual", 1.0, {g0.nodes[0]: np.ones(3)})
    assert helpers.common_function_check(g0, mats, cert, samples=200)


def test_common_function_min_of_duals_on_de_bruijn(demo_matrices):
    g = de_bruijn(2, 3)
    result = rho_bound(g, demo_matrices, "dual", tol=1e-6)
    assert helpers.common_function_check(g, demo_matrices, result.certificate, samples=1000)


def test_common_function_max_of_primals(demo_matrices):
    g = transpose(de_bruijn(2, 3))  # co-complete
    result = rho_bound(g, demo_matrices, "primal", tol=1e-6)
    assert helpers.common_function_check(g, demo_matrices, result.certificate, samples=1000)


def test_common_function_shape_mismatch(demo_matrices):
    g = transpose(de_bruijn(2, 2))  # co-complete, not complete
    result = rho_bound(g, demo_matrices, "primal")
    with pytest.raises(ValueError):
        # dual flavor demands a complete graph
        dual_cert = Certificate("dual", 2.0,
                                {s: np.ones(3) for s in g.nodes})
        helpers.common_function_check(g, demo_matrices, dual_cert, samples=10)


# ------------------------------------------------------ cross-route checks

def test_clf_values_for_demo(demo_matrices):
    g0 = common_lyapunov_graph(2)
    assert rho_bound(g0, demo_matrices, "dual").gamma == pytest.approx(
        DEMO_DUAL_CLF, abs=5e-6)
    assert rho_bound(g0, demo_matrices, "primal").gamma == pytest.approx(
        DEMO_PRIMAL_CLF, abs=5e-6)


def test_sandwich_against_brute_force():
    rng = np.random.default_rng(14)
    g0_cache = {}
    for _ in range(12):
        mats = helpers.random_matrix_set(rng)
        g0 = g0_cache.setdefault(mats.size, common_lyapunov_graph(mats.size))
        value = rho_bound(g0, mats, "primal", tol=1e-6).gamma
        bf_lower, bf_upper = brute_force_bounds(mats, 5)
        assert value / mats.n <= bf_lower + 1e-6
        assert bf_lower <= value + 1e-6


def test_max_lift_components_improve_dual_bound(demo_graph, demo_matrices):
    base = rho_bound(demo_graph, demo_matrices, "dual", tol=1e-6).gamma
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for comp in path_complete_components(max_lift(demo_graph)):
            value = rho_bound(comp, demo_matrices, "dual", tol=1e-6).gamma
            assert value <= base + 1e-5


def test_max_lift_components_improve_on_random_instances():
    rng = np.random.default_rng(15)
    for _ in range(5):
        g = helpers.random_path_complete_graph(rng, max_nodes=3, max_labels=2)
        mats = helpers.random_matrix_set(rng, n=2, size=g.alphabet_size)
        base = rho_bound(g, mats, "dual", tol=1e-6).gamma
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for comp in path_complete_components(max_lift(g)):
                value = rho_bound(comp, mats, "dual", tol=1e-6).gamma
                assert value <= base + 1e-5


def _levels(mats):
    """The last hierarchy level run on ``mats``: 4 for up to two modes, else 3."""
    return 4 if mats.size <= 2 else 3


def test_hierarchy_is_invariant_under_diagonal_similarity():
    # D A D^-1 with D = diag(2^k), k in [-20, 20], scales exactly and keeps
    # every De Bruijn LP value and every lower bound
    rng = np.random.default_rng(80)
    for k in range(40):
        mats = helpers.random_matrix_set(rng)
        d = np.ldexp(1.0, rng.integers(-20, 21, mats.n))
        scaled = MatrixSet(d[:, None] * mats.stack / d)
        rows = zip(hierarchy(mats, epsilon=0, l_max=_levels(mats)).rows,
                   hierarchy(scaled, epsilon=0, l_max=_levels(mats)).rows, strict=True)
        for old, new in rows:
            assert new.rho_g == pytest.approx(old.rho_g, rel=1e-12, abs=0), (k, old.step)
            assert new.lower == pytest.approx(old.lower, rel=1e-12, abs=0), (k, old.step)


def test_hierarchy_and_products_bracket_the_golden_ratio():
    mats, phi = helpers.golden_pair()
    rows = hierarchy(mats, epsilon=0, l_max=8).rows
    assert all(r.lower <= phi <= r.upper for r in rows)
    assert all(abs(r.rho_g - phi) <= feasibility.DEFAULT_LP_TOL for r in rows if r.level >= 2)
    lower, upper = brute_force_bounds(mats, 8)
    assert lower <= phi <= upper


def test_hierarchy_and_products_bracket_triangular_families():
    # the JSR of nonnegative upper-triangular modes is their largest diagonal entry
    systems = helpers.upper_triangular_systems(np.random.default_rng(14), 30)
    for k, (mats, radius) in enumerate(systems):
        report = hierarchy(mats, epsilon=0, l_max=_levels(mats))
        assert all(r.lower <= radius <= r.upper for r in report.rows), k
        assert report.final_interval[1] - radius <= feasibility.DEFAULT_LP_TOL, k
        lower, upper = brute_force_bounds(mats, 6)
        assert lower <= radius <= upper, k


def test_hierarchy_upper_bound_not_below_product_lower_bound(demo_matrices):
    # rho(A_2) = 1.0699135321 is a proven JSR lower bound; a certified upper
    # bound can never fall below it
    report = hierarchy(demo_matrices, l_max=3)
    assert report.final_interval[1] >= brute_force_bounds(demo_matrices, 2)[0]
