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

Exit codes: 0 success, 1 negative analysis result, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsr, lifts, serialize
from .feasibility import rho_bound
from .graphs import (
    check_assumption_minimal,
    completeness_flags,
    find_simulation,
    is_path_complete,
    strongly_connected_components,
)

TEXT, JSON, CSV = "text", "json", "csv"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def render_report(report, fmt: str = TEXT) -> bytes:
    """Deterministic serialization of a report object.

    Text prints floats with 6 significant digits; JSON keeps full
    precision.  Raises ``ValueError`` for unsupported kind/format pairs.
    """
    kind = report.get("kind")
    if fmt == JSON:
        return serialize.dumps(report).encode()
    if kind == "check":
        if fmt != TEXT:
            raise ValueError(f"format {fmt!r} unsupported for check reports")

        def yn(flag):
            return "true" if flag else "false"

        lines = [
            f"path-complete: {yn(report['path_complete'])}",
            f"complete: {yn(report['complete'])}",
            f"co-complete: {yn(report['co_complete'])}",
            "sccs: " + "; ".join(",".join(c) for c in report["sccs"]),
            f"strongly-connected: {yn(report['strongly_connected'])}",
            f"edge-minimal: {yn(report['edge_minimal'])}",
        ]
        return ("\n".join(lines) + "\n").encode()
    if kind == "lift":
        if fmt != TEXT:
            raise ValueError(f"format {fmt!r} unsupported for lift reports")
        return serialize.dumps(report["graph"]).encode()
    if kind == "simulation":
        if fmt != TEXT:
            raise ValueError(f"format {fmt!r} unsupported for simulation reports")
        return serialize.dumps({"simulates": report["simulates"],
                                "map": report["map"]}).encode()
    if kind == "bound":
        if fmt != TEXT:
            raise ValueError(f"format {fmt!r} unsupported for bound reports")
        return (f"rho[{report['flavor']},G](A) = {_fmt(report['gamma'])}\n").encode()
    if kind == "hierarchy":
        if fmt == CSV:
            return report["csv"].encode()
        if fmt == TEXT:
            lines = [f"{r['step']:>5}  {r['kind']:>6}  rho_G={_fmt(r['rho_G'])}  "
                     f"lower={_fmt(r['lower'])}  upper={_fmt(r['upper'])}"
                     for r in report["rows"]]
            lo, hi = report["final_interval"]
            lines.append(f"final interval: [{_fmt(lo)}, {_fmt(hi)}]")
            return ("\n".join(lines) + "\n").encode()
        raise ValueError(f"format {fmt!r} unsupported for hierarchy reports")
    if kind == "oracle":
        if fmt != TEXT:
            raise ValueError(f"format {fmt!r} unsupported for oracle reports")
        return (f"lower = {_fmt(report['lower'])}\n"
                f"upper = {_fmt(report['upper'])}\n").encode()
    raise ValueError(f"unknown report kind {kind!r}")


def _load_graph(path):
    return serialize.graph_from_dict(serialize.load_json(path))


def _load_matrices(path):
    return serialize.matrix_set_from_dict(serialize.load_json(path))


def _cmd_check(args, out):
    g = _load_graph(args.graph)
    pc = is_path_complete(g)
    complete, co_complete = completeness_flags(g)
    sc, minimal = check_assumption_minimal(g)
    report = {
        "kind": "check",
        "path_complete": pc,
        "complete": complete,
        "co_complete": co_complete,
        "sccs": [sorted(comp) for comp in strongly_connected_components(g)],
        "strongly_connected": sc,
        "edge_minimal": minimal,
    }
    out.write(render_report(report, args.format))
    return 0 if pc else 1


def _cmd_lift(args, out):
    kind = args.kind
    if kind.startswith("debruijn:"):
        try:
            m_str, l_str = kind.split(":", 1)[1].split(",")
            M, l = int(m_str), int(l_str)
        except ValueError:
            raise ValueError(f"bad debruijn argument {kind!r}: expected debruijn:M,l") from None
        lifted = lifts.de_bruijn(M, l)
    else:
        lifted = lifts.lift(_load_graph(args.graph), kind)
    report = {"kind": "lift", "graph": serialize.graph_to_dict(lifted)}
    out.write(render_report(report, args.format))
    return 0


def _cmd_simulate(args, out):
    g = _load_graph(args.g)
    h = _load_graph(args.h)
    witness = find_simulation(g, h)
    report = {
        "kind": "simulation",
        "simulates": witness is not None,
        "map": witness.mapping if witness else {},
    }
    out.write(render_report(report, args.format))
    return 0 if witness is not None else 1


def _cmd_bound(args, out):
    g = _load_graph(args.graph)
    mats = _load_matrices(args.matrices)
    result = rho_bound(g, mats, args.flavor, tol=args.tol)
    report = {
        "kind": "bound",
        "flavor": args.flavor,
        "gamma": result.gamma,
        "certificate": serialize.certificate_to_dict(result.certificate),
    }
    out.write(render_report(report, args.format))
    return 0


def _cmd_hierarchy(args, out):
    mats = _load_matrices(args.matrices)
    report_obj = jsr.hierarchy(mats, epsilon=args.eps, l_max=args.lmax)
    report = report_obj.to_dict()
    report["kind"] = "hierarchy"
    if args.format == CSV:
        report["csv"] = report_obj.to_csv()
    out.write(render_report(report, args.format))
    return 0


def _cmd_oracle(args, out):
    mats = _load_matrices(args.matrices)
    lower, upper = jsr.brute_force_bounds(mats, args.depth)
    report = {"kind": "oracle", "lower": lower, "upper": upper, "depth": args.depth}
    out.write(render_report(report, args.format))
    return 0


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
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_bound)

    p = sub.add_parser("hierarchy", help="De Bruijn LP hierarchy")
    p.add_argument("matrices")
    p.add_argument("--eps", type=float, default=1e-2)
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--format", choices=[TEXT, JSON, CSV], default=CSV)
    p.set_defaults(run=_cmd_hierarchy)

    p = sub.add_parser("oracle", help="brute-force product bounds")
    p.add_argument("matrices")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--format", choices=[TEXT, JSON], default=TEXT)
    p.set_defaults(run=_cmd_oracle)

    return parser


def dispatch(argv) -> int:
    """Parse arguments and run one subcommand, reporting on stdout."""
    parser = build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout.buffer
    try:
        code = args.run(args, out)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.flush()
    return code


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
