"""The four workloads: a fixed list of operations and a check for each.

An operation runs one public ``pclyap`` call (or one CLI subprocess) and
returns its output; the check compares that output, outside the timing,
with the oracles in :mod:`oracles`.  Calls go through ``pc.<name>`` at run
time so that the traced run sees its wrappers.  A check returns a list of
failure messages; an operation with any counts as failed.

``hierarchy`` and ``compare`` draw their systems from a fixed corpus seed,
not from ``--seed``: the program fails some of those operations (see
README.md, "Failed operations"), and which ones depends on the drawn
systems, so only a fixed corpus fails the same operations in every run.
``lifts`` draws its base graphs, which set its amount of work, from the
same corpus seed and its mode matrices from ``--seed``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import inputs
import oracles

PRODUCT_DEPTH = 10      # products behind every proven JSR lower bound
LP_TOL = 1e-6           # the library's default bisection tolerance
SLACK = 1e-9            # per-edge slack of the numpy certificate check

CORPUS_SEED = 0         # systems of hierarchy and compare, base graphs of lifts

HIER_LMAX = 4
HIER_LP_LEVELS = 2      # levels whose rows are re-solved with linprog
HIER_SYSTEMS = [(n, fill) for n in (3, 4, 5, 6) for fill in (1.0, 0.35)]

LIFT_SIZES = (5, 6, 7) * 2
LIFT_FLAVORS = {"sum:2": ("primal", "dual"), "max": ("dual",), "min": ("primal",),
                "comp": ("primal",), "backcomp": ("primal",)}

COMPARE_SIZES = (3, 4) * 2
COMPARE_BOUNDS = (("base", "primal"), ("base", "dual"), ("sum:2", "primal"),
                  ("sum:2", "dual"), ("max", "dual"), ("min", "primal"),
                  ("comp", "primal"))


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, dict], list]   # (output, kept outputs of the round)
    keep_output: bool = False                # a later check of the round reads it


def build(name, pc, seed, root, traced_cli=None):
    """The operation list of workload ``name``.  ``traced_cli(subcommand)``,
    when given, returns the trace file for the next traced CLI child."""
    if name == "cli":
        return cli_ops(pc, seed, root, traced_cli)
    return {"hierarchy": hierarchy_ops, "lifts": lift_ops, "compare": compare_ops}[name](pc, seed)


def lift(pc, g, kind):
    builders = {"sum:2": lambda: pc.sum_lift(g, 2), "max": lambda: pc.max_lift(g),
                "min": lambda: pc.min_lift(g), "comp": lambda: pc.composition_lift(g),
                "backcomp": lambda: pc.backward_composition_lift(g)}
    return builders[kind]()


# ------------------------------------------------------------ plain views

class Plain:
    """A graph as node names, an index and an (E, 3) integer edge array."""

    def __init__(self, g):
        self.names = [str(s) for s in g.nodes]
        self.index = {name: k for k, name in enumerate(self.names)}
        self.alphabet = g.alphabet_size
        self.edges = np.array([(self.index[str(a)], self.index[str(b)], i)
                               for a, b, i in g.edges], dtype=np.int64).reshape(-1, 3)


def _members(name):
    """'{n0,n3}' -> ('n0', 'n3'); 'n2∘1' -> ('n2', 1)."""
    if name.startswith("{"):
        return tuple(name[1:-1].split(","))
    base, label = name.rsplit("∘", 1)
    return base, int(label)


def _vectors(cert, names):
    by_name = {str(s): v for s, v in cert.vectors.items()}
    return np.array([by_name[s] for s in names])


def _mats(m):
    return np.array(m.matrices)


def _de_bruijn(M, level):
    words = [()]
    for _ in range(level - 1):
        words = [w + (j,) for w in words for j in range(1, M + 1)]
    index = {w: k for k, w in enumerate(words)}
    edges = [(index[w], index[(w + (j,))[1:] if level > 1 else ()], j)
             for w in words for j in range(1, M + 1)]
    return len(words), edges


def _below(value, proven, what):
    """A reported upper bound under a proven JSR lower bound is wrong."""
    if value < proven:
        return [f"{what} {value!r} is below the proven JSR lower bound {proven!r} "
                f"by {proven - value:.3e}"]
    return []


# -------------------------------------------------------------- hierarchy

def hierarchy_ops(pc, seed):
    del seed
    rng = np.random.default_rng(CORPUS_SEED)
    systems = [("demo", inputs.demo_system(pc)[2])]
    for k, (n, fill) in enumerate(HIER_SYSTEMS):
        kind = "dense" if fill == 1.0 else "sparse"
        systems.append((f"{kind}-n{n}-{k}", inputs.random_system(pc, rng, n, fill)))
    return [Op(f"hierarchy:{name}", lambda mats=mats: pc.hierarchy(mats, l_max=HIER_LMAX),
               _hierarchy_check(_mats(mats)))
            for name, mats in systems]


def _hierarchy_check(mats):
    bounds = functools.cache(lambda: oracles.product_bounds(mats, PRODUCT_DEPTH))

    @functools.cache
    def lp_within_tol(level, flavor, value):
        """Feasible at value + tol and infeasible at value - tol (linprog)."""
        count, edges = _de_bruijn(mats.shape[0], level)
        if flavor == "primal":
            edges = [(b, a, i) for a, b, i in edges]
        return (oracles.lp_feasible(count, edges, mats, flavor, value + LP_TOL)
                and not oracles.lp_feasible(count, edges, mats, flavor, value - LP_TOL))

    def check(report, _kept):
        proven, _, upper = bounds()
        lower, up = report.final_interval
        failures = _below(up, proven, "upper")
        if lower > upper:
            failures.append(f"lower {lower!r} exceeds the product-norm bound {upper!r}")
        failures += [f"row {row.step} value {row.rho_g!r} is not within {LP_TOL} of "
                     f"the linprog LP value"
                     for row in report.rows
                     if row.level <= HIER_LP_LEVELS
                     and not lp_within_tol(row.level, row.kind, row.rho_g)]
        return failures

    return check


# ------------------------------------------------------------------ lifts

def lift_ops(pc, seed):
    """Base graphs from the corpus seed, mode matrices (and so the certificates
    being transported) from ``seed``: the graphs set the amount of work, which
    then does not move with the seed."""
    graph_rng, rng = np.random.default_rng(CORPUS_SEED), np.random.default_rng(seed)
    ops = []
    for k, size in enumerate(LIFT_SIZES):
        g = inputs.base_graph(pc, graph_rng, size)
        mats = inputs.monomial_system(pc, rng, 3)
        certs = {f: pc.rho_bound(g, mats, f).certificate for f in ("primal", "dual")}
        for kind, flavors in LIFT_FLAVORS.items():
            def run(g=g, mats=mats, kind=kind, flavors=flavors, certs=certs):
                lifted = lift(pc, g, kind)
                moved = [pc.transport_certificate(certs[f], kind, g, mats) for f in flavors]
                return (lifted, pc.is_path_complete(lifted), moved,
                        [pc.verify_certificate(lifted, mats, m).ok for m in moved])
            ops.append(Op(f"lift:{kind}:g{k}-{size}", run,
                          _lift_check(Plain(g), _mats(mats), kind, certs)))
    return ops


def _lift_check(base, mats, kind, certs):
    k, M = len(base.names), base.alphabet
    edges = [tuple(e) for e in base.edges.tolist()]

    def expected():
        if kind in ("max", "min"):
            count, holds = oracles.subset_lift_rule(k, M, edges, kind)
            return 2 ** k - 1, count, holds
        if kind == "sum:2":
            return k * (k + 1) // 2, oracles.sum2_edges(k, M, edges), None
        return k * M, oracles.comp_edges(M, edges, kind == "backcomp"), None

    expected = functools.cache(expected)

    def key(name):
        parts = _members(name)
        if kind in ("max", "min"):
            return sum(1 << base.index[p] for p in parts)
        if kind == "sum:2":
            return tuple(sorted(base.index[p] for p in parts))
        return base.index[parts[0]], parts[1]

    def check(out, _kept):
        lifted, complete, moved, verified = out
        plain = Plain(lifted)
        keys = [key(s) for s in plain.names]
        lifted_edges = {(keys[a], keys[b], i) for a, b, i in plain.edges.tolist()}
        nodes, rule, holds = expected()
        failures = []
        if len(keys) != nodes or len(set(keys)) != nodes:
            failures.append(f"{len(keys)} nodes, expected {nodes}")
        if holds is not None:
            if len(lifted_edges) != rule:
                failures.append(f"{len(lifted_edges)} edges, closed form {rule}")
            if not all(holds(A, B, i) for A, B, i in lifted_edges):
                failures.append("an edge breaks the subset rule")
        elif lifted_edges != rule:
            failures.append(f"edge set differs from the construction "
                            f"({len(lifted_edges)} vs {len(rule)} edges)")
        if kind in ("sum:2", "max", "min"):
            copy = (lambda a: (a, a)) if kind == "sum:2" else (lambda a: 1 << a)
            if not all((copy(a), copy(b), i) in lifted_edges for a, b, i in edges):
                failures.append("the base graph does not embed in the lift")
        if not complete:
            failures.append("lift reported not path-complete")
        for flavor, cert, ok in zip(LIFT_FLAVORS[kind], moved, verified):
            if cert.gamma != certs[flavor].gamma or cert.flavor != flavor:
                failures.append(f"{flavor} transport changed gamma or flavor")
            if not ok or not oracles.certificate_holds(
                    flavor, cert.gamma, _vectors(cert, plain.names), plain.edges, mats, SLACK):
                failures.append(f"{flavor} transported certificate fails on the lift")
        return failures

    return check


# ---------------------------------------------------------------- compare

def compare_ops(pc, seed):
    del seed
    rng = np.random.default_rng(CORPUS_SEED)
    ops = []
    for k, n in enumerate(COMPARE_SIZES):
        g = inputs.base_graph(pc, rng, 3, free_degrees=True)
        mats = inputs.random_system(pc, rng, n, 1.0)
        bounds = functools.cache(
            lambda m=_mats(mats): oracles.product_bounds(m, PRODUCT_DEPTH))
        graphs = {"base": g}
        for kind, flavor in COMPARE_BOUNDS:
            if kind not in graphs:
                graphs[kind] = lift(pc, g, kind)
            graph = graphs[kind]
            ops.append(Op(f"compare:p{k}:{kind}:{flavor}",
                          lambda graph=graph, mats=mats, flavor=flavor:
                              pc.rho_bound(graph, mats, flavor, tol=LP_TOL),
                          _compare_check(Plain(graph), _mats(mats), flavor,
                                         f"compare:p{k}:base:{flavor}", bounds),
                          keep_output=kind == "base"))
    return ops


def _compare_check(graph, mats, flavor, base_op, bounds):
    def check(result, kept):
        proven = bounds()[0]
        cert = result.certificate
        failures = _below(result.gamma, proven, "value")
        if cert.flavor != flavor or not oracles.certificate_holds(
                flavor, cert.gamma, _vectors(cert, graph.names), graph.edges, mats, SLACK):
            failures.append("certificate fails the numpy edge check at its gamma")
        base = kept.get(base_op)
        if base is not None and result.gamma > base.certificate.gamma + LP_TOL:
            failures.append(f"lift value {result.gamma!r} above the base graph's "
                            f"certified {base.certificate.gamma!r}")
        if oracles.lp_feasible(len(graph.names), graph.edges, mats, flavor,
                               result.gamma - LP_TOL):
            failures.append("linprog finds the LP feasible at value - tol")
        return failures

    return check


# -------------------------------------------------------------------- cli

def cli_ops(pc, seed, root, traced_cli):
    """The README's commands on the demo inputs; the seed is not used."""
    del seed
    graph, reduced, mats = inputs.demo_system(pc)
    docs = {"demo_graph.json": pc.serialize.graph_to_dict(graph),
            "demo_reduced_graph.json": pc.serialize.graph_to_dict(reduced),
            "demo_matrices.json": pc.serialize.matrix_set_to_dict(mats)}
    (root / "bench" / ".work").mkdir(parents=True, exist_ok=True)
    for name, doc in docs.items():
        (root / "bench" / ".work" / name).write_text(pc.serialize.dumps(doc))
    G, R, A = (f"bench/.work/{name}" for name in docs)

    g, h, m = Plain(graph), Plain(reduced), _mats(mats)
    bounds = functools.cache(lambda depth: oracles.product_bounds(m, depth))
    commands = [
        (["check", G], _cli_graph_check(g)),
        (["bound", G, A, "--flavor", "dual", "--format", "json"], _cli_bound_check(g, m, bounds)),
        (["bound", R, A, "--flavor", "dual", "--format", "json"], _cli_bound_check(h, m, bounds)),
        (["hierarchy", A, "--lmax", "4"], _cli_hierarchy_check(bounds)),
        (["oracle", A, "--depth", "8"], _cli_oracle_check(bounds, 8)),
        (["lift", G, "--kind", "max", "--format", "json"], _cli_lift_check(g)),
        (["simulate", G, R], _cli_simulate_check(g, h)),
        (["oracle", A, "--depth", "12"], _cli_oracle_check(bounds, 12)),
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    ops = []
    for argv, check in commands:
        def run(argv=argv):
            if traced_cli is None:
                cmd = [sys.executable, "-m", "pclyap.cli", *argv]
            else:
                cmd = [sys.executable, str(root / "bench" / "trace_cli.py"),
                       str(traced_cli(argv[0])), *argv]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=120)
            return proc.returncode, proc.stdout.decode(), proc.stderr.decode()
        name = " ".join(a.removeprefix("bench/.work/") for a in argv)
        ops.append(Op(f"cli:{name}", run, _expect_code(check)))
    return ops


def _expect_code(check):
    def wrapped(out, _kept):
        code, stdout, stderr = out
        try:
            return check(code, stdout)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"unparseable output (exit {code}): {exc}; stderr: {stderr[-300:]}"]
    return wrapped


def _cli_graph_check(g):
    @functools.cache
    def oracle():
        edges = g.edges.tolist()
        words = oracles.path_complete_by_words(len(g.names), g.alphabet, edges)
        complete, co_complete = oracles.completeness_flags(len(g.names), g.alphabet, edges)
        return words, {"path-complete": words, "complete": complete, "co-complete": co_complete}

    def check(code, stdout):
        words, want = oracle()
        got = dict(line.split(": ", 1) for line in stdout.splitlines())
        want_code = 0 if words else 1
        failures = [f"exit {code}, expected {want_code}"] if code != want_code else []
        failures += [f"{key}: {got[key]}, oracle says {val}"
                     for key, val in want.items() if got[key] != str(val).lower()]
        return failures
    return check


def _cli_bound_check(g, mats, bounds):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        report = json.loads(stdout)
        cert = report["certificate"]
        vectors = np.array([cert["vectors"][s] for s in g.names])
        failures = _below(report["gamma"], bounds(PRODUCT_DEPTH)[0], "gamma")
        if not oracles.certificate_holds(cert["flavor"], cert["gamma"], vectors,
                                         g.edges, mats, SLACK):
            failures.append("certificate fails the numpy edge check")
        return failures
    return check


def _cli_hierarchy_check(bounds):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        proven, _, upper = bounds(PRODUCT_DEPTH)
        failures = []
        for row in csv.DictReader(io.StringIO(stdout)):
            if float(row["lower"]) > upper:
                failures.append(f"row {row['step']} lower above the product-norm bound")
            failures += _below(float(row["upper"]), proven, f"row {row['step']} upper")
        return failures
    return check


def _cli_oracle_check(bounds, depth):
    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        got = dict(line.split(" = ") for line in stdout.splitlines())
        _, estimate, upper = bounds(depth)
        failures = []
        for key, want in (("lower", estimate), ("upper", upper)):
            printed = float(got[key])
            half_digit = 0.5 * 10 ** (np.floor(np.log10(abs(printed))) - 5)
            if abs(printed - want) > half_digit + 1e-9:
                failures.append(f"{key} printed {got[key]}, oracle {want!r}")
        return failures
    return check


def _cli_lift_check(g):
    k, M = len(g.names), g.alphabet
    rule = functools.cache(lambda: oracles.subset_lift_rule(k, M, g.edges.tolist(), "max"))

    def check(code, stdout):
        if code != 0:
            return [f"exit {code}"]
        count, holds = rule()
        lifted = json.loads(stdout)["graph"]
        masks = {s: sum(1 << g.index[p] for p in _members(s)) for s in lifted["nodes"]}
        edges = {(masks[a], masks[b], i) for a, b, i in lifted["edges"]}
        failures = []
        if len(masks) != 2 ** k - 1 or len(set(masks.values())) != 2 ** k - 1:
            failures.append(f"{len(masks)} nodes, expected {2 ** k - 1}")
        if len(edges) != count or not all(holds(A, B, i) for A, B, i in edges):
            failures.append(f"{len(edges)} edges, closed form {count}")
        return failures
    return check


def _cli_simulate_check(g, h):
    def check(code, stdout):
        exists = oracles.simulation_exists(len(g.names), g.edges.tolist(),
                                           len(h.names), h.edges.tolist())
        want = 0 if exists else 1
        failures = [f"exit {code}, expected {want}"] if code != want else []
        if json.loads(stdout)["simulates"] != exists:
            failures.append(f"simulates disagrees with the exhaustive search ({exists})")
        return failures
    return check
