"""Command-line front end.

Subcommands:

* ``check <graph.json>``: path-completeness, completeness flags, SCCs,
  minimality.  Exit 1 when the graph is not path-complete.
* ``lift <graph.json> --kind {sum:T,max,min,comp,backcomp,debruijn:M,l}``:
  print the lifted graph as JSON (``debruijn`` ignores the input graph).
* ``simulate <g.json> <h.json>``: search a simulation of h by g; exit 1
  when none exists.
* ``bound <graph.json> <matrices.json> --flavor {primal,dual} [--tol]``.
* ``hierarchy <matrices.json> [--eps] [--lmax]``: CSV by default.
* ``oracle <matrices.json> --depth K``: brute-force product bounds.

Each subcommand returns its exit code, its JSON report (``--format json``
prints it, with a ``"kind"`` key) and its text body, which the other
formats print: text floats carry 6 significant digits, ``lift`` text is
the lifted graph as JSON, and ``simulate`` text is the report's JSON
without ``"kind"``.  The parser alone knows which formats a subcommand
accepts.

Library warnings (a graph that is not path-complete, a composition lift
of a graph that is not minimal) print as one ``warning: <message>`` line
each on stderr.  Exit codes: 0 success, 1 negative analysis result, 2
input error.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import jsr, lifts, serialize
from .feasibility import DEFAULT_LP_TOL, rho_bound
from .graphs import (
    check_assumption_minimal,
    completeness_flags,
    find_simulation,
    strongly_connected_components,
)

TEXT, JSON, CSV = "text", "json", "csv"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _yn(flag) -> str:
    return "true" if flag else "false"


def _load_graph(path):
    return serialize.graph_from_dict(serialize.load_json(path))


def _load_matrices(path):
    return serialize.matrix_set_from_dict(serialize.load_json(path))


def _cmd_check(args):
    g = _load_graph(args.graph)
    complete, co_complete = completeness_flags(g)
    sc, minimal = check_assumption_minimal(g)
    pc = g._minimal[1]  # the verdict it kept: path-completeness is decided once
    sccs = [sorted(comp) for comp in strongly_connected_components(g)]
    report = {
        "kind": "check",
        "path_complete": pc,
        "complete": complete,
        "co_complete": co_complete,
        "sccs": sccs,
        "strongly_connected": sc,
        "edge_minimal": minimal,
    }
    text = (f"path-complete: {_yn(pc)}\ncomplete: {_yn(complete)}\n"
            f"co-complete: {_yn(co_complete)}\n"
            f"sccs: {'; '.join(','.join(c) for c in sccs)}\n"
            f"strongly-connected: {_yn(sc)}\nedge-minimal: {_yn(minimal)}\n")
    return (0 if pc else 1), report, text


def _cmd_lift(args):
    name, counts = lifts._parse_kind(args.kind)
    if name == "debruijn":
        lifted = lifts.de_bruijn(*counts)
    else:
        lifted = lifts.lift(_load_graph(args.graph), args.kind)
    graph = serialize.graph_to_dict(lifted)
    return 0, {"kind": "lift", "graph": graph}, serialize.dumps(graph)


def _cmd_simulate(args):
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    witness = find_simulation(g, h)
    found = {
        "simulates": witness is not None,
        "map": witness.mapping if witness else {},
    }
    report = {"kind": "simulation", **found}
    return (0 if witness is not None else 1), report, serialize.dumps(found)


def _cmd_bound(args):
    g = _load_graph(args.graph)
    mats = _load_matrices(args.matrices)
    result = rho_bound(g, mats, args.flavor, tol=args.tol)
    report = {
        "kind": "bound",
        "flavor": args.flavor,
        "gamma": result.gamma,
        "certificate": serialize.certificate_to_dict(result.certificate),
    }
    return 0, report, f"rho[{args.flavor},G](A) = {_fmt(result.gamma)}\n"


def _cmd_hierarchy(args):
    result = jsr.hierarchy(_load_matrices(args.matrices), epsilon=args.eps, l_max=args.lmax)
    if args.format == CSV:
        text = result.to_csv()
    else:
        lo, hi = result.final_interval
        text = "".join(f"{r.step:>5}  {r.kind:>6}  rho_G={_fmt(r.rho_g)}  "
                       f"lower={_fmt(r.lower)}  upper={_fmt(r.upper)}\n" for r in result.rows)
        text += f"final interval: [{_fmt(lo)}, {_fmt(hi)}]\n"
    return 0, {"kind": "hierarchy", **result.to_dict()}, text


def _cmd_oracle(args):
    lower, upper = jsr.brute_force_bounds(_load_matrices(args.matrices), args.depth)
    report = {"kind": "oracle", "lower": lower, "upper": upper, "depth": args.depth}
    return 0, report, f"lower = {_fmt(lower)}\nupper = {_fmt(upper)}\n"


def build_parser():
    parser = argparse.ArgumentParser(prog="pclyap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="analyze a labeled graph")
    p.add_argument("graph")
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("lift", help="apply a graph lift")
    p.add_argument("graph")
    p.add_argument("--kind", required=True,
                   help="sum:T | max | min | comp | backcomp | debruijn:M,l")
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_lift)

    p = sub.add_parser("simulate", help="search a simulation of h by g")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("bound", help="LP bound on the JSR for one graph")
    p.add_argument("graph")
    p.add_argument("matrices")
    p.add_argument("--flavor", choices=["primal", "dual"], required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_LP_TOL)
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("hierarchy", help="De Bruijn LP hierarchy")
    p.add_argument("matrices")
    p.add_argument("--eps", type=float, default=jsr.DEFAULT_EPSILON)
    p.add_argument("--lmax", type=int, default=jsr.DEFAULT_L_MAX)
    p.add_argument("--format", choices=[TEXT, JSON, CSV], default=CSV)
    p.set_defaults(run=_cmd_hierarchy)

    p = sub.add_parser("oracle", help="brute-force product bounds")
    p.add_argument("matrices")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_oracle)

    return parser


def dispatch(argv) -> int:
    """Parse arguments and run one subcommand, reporting on stdout; each
    library warning becomes one ``warning:`` line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report, text = args.run(args)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        sys.stdout.buffer.write((serialize.dumps(report) if args.format == JSON
                                 else text).encode())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.flush()
    return code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
