#!/usr/bin/env python3
"""Benchmark for pclyap: run one workload and print its metrics.

    python3 bench/run.py --workload {hierarchy,lifts,compare,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The workload's fixed list of operations is
repeated in whole rounds, one operation after another in this process (the
``cli`` workload runs one subprocess at a time), until ``--seconds`` have
passed.  Every output is checked against the oracles in ``oracles.py``,
outside the timing.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("hierarchy", "lifts", "compare", "cli")
SETUP_PROBES = 3
STARTUP_PROBES = 3


def setup(workload, seed, traced_cli=None):
    """Import pclyap, generate the inputs and run the first operation once."""
    sys.path.insert(0, str(ROOT / "src"))
    warnings.simplefilter("ignore")   # lift minimality and path-completeness notices
    import pclyap
    import workloads

    ops = workloads.build(workload, pclyap, seed, ROOT, traced_cli)
    ops[0].run()
    return ops


def probe(args):
    """Wall time of a fresh interpreter running ``args`` to completion."""
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], cwd=ROOT, check=True, capture_output=True,
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    return time.perf_counter() - start


def run_rounds(ops, seconds):
    """Whole rounds of ``ops`` until ``seconds`` have passed; returns the tally."""
    tally = {"rounds": [], "op_times": {}, "attempted": 0, "failed": 0,
             "failures": {}, "outcomes": {}}
    start = time.perf_counter()
    while not tally["rounds"] or time.perf_counter() - start < seconds:
        kept, round_time = {}, 0.0
        for op in ops:
            began = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                elapsed = time.perf_counter() - began
                failures = [f"raised {type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - began
                if op.keep_output:
                    kept[op.name] = out
                try:
                    failures = op.check(out, kept)
                except Exception as exc:  # output the check could not read
                    failures = [f"check raised {type(exc).__name__}: {exc}"]
            round_time += elapsed
            tally["op_times"].setdefault(op.name, []).append(elapsed)
            tally["attempted"] += 1
            tally["failed"] += bool(failures)
            tally["outcomes"].setdefault(op.name, set()).add(bool(failures))
            if failures:
                tally["failures"].setdefault(op.name, failures)
        tally["rounds"].append(round_time)
    return tally


def layer_metrics(tracer, rounds, startup, dispatch, traced_wall):
    """Per-layer metrics, per round unless the name says otherwise."""
    t, c, x = tracer.total, tracer.calls, tracer.extra
    per = {
        "simplex.phase_one_s": t["simplex.phase_one"],
        "simplex.calls": c["simplex.phase_one"],
        "feasibility.rho_bound_s": t["feasibility.rho_bound"],
        "feasibility.probes": c["feasibility.feasible"],
        "feasibility.self_s": t["feasibility.rho_bound"] - t["simplex.phase_one"],
        "lifts.sum_s": t["lifts.sum_lift"],
        "lifts.max_s": t["lifts.max_lift"],
        "lifts.min_s": t["lifts.min_lift"],
        "lifts.comp_s": t["lifts.composition_lift"],
        "lifts.backcomp_s": t["lifts.backward_composition_lift"],
        "lifts.de_bruijn_s": t["lifts.de_bruijn"],
        "lifts.edges_built": x["lifts.edges_built"],
        "copositive.verify_s": t["copositive.verify_certificate"],
        "copositive.verify_edges": x["copositive.verify_edges"],
        "copositive.transport_self_s": tracer.self_time["copositive.transport_certificate"],
        "graphs.make_graph_s": t["graphs.make_graph"],
        "graphs.is_path_complete_s": t["graphs.is_path_complete"],
        "graphs.is_path_complete_calls": c["graphs.is_path_complete"],
        "graphs.check_assumption_minimal_s": t["graphs.check_assumption_minimal"],
        "jsr.hierarchy_s": t["jsr.hierarchy"],
        "jsr.levels_run": x["jsr.levels_run"],
        "jsr.brute_force_bounds_s": t["jsr.brute_force_bounds"],
        "jsr.spectral_radius_calls": c["jsr.spectral_radius"],
        "jsr.spectral_radius_s": t["jsr.spectral_radius"],
        "serialize.load_s": t["serialize.load_json"],
        "serialize.dumps_s": t["serialize.dumps"],
        **{f"cli.dispatch.{cmd}_s": dispatch.get(cmd, 0.0)
           for cmd in ("check", "bound", "hierarchy", "oracle", "lift", "simulate")},
    }
    out = {name: (value / rounds, "count" if not name.endswith("_s") else "s")
           for name, value in per.items()}
    out["simplex.tableau_mb"] = (x["simplex.tableau_bytes"] / 2 ** 20, "MB-computed")
    out["cli.startup_s"] = (startup, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pclyap" / "__init__.py").is_file():
        print(f"error: no pclyap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0

    import oracles
    oracles.self_test()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    setup_times = [probe([str(BENCH / "run.py"), "--setup-probe", *common])
                   for _ in range(SETUP_PROBES)]

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = traced_cli = None
    pending = []   # (subcommand, trace file) of each traced CLI child

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

        def traced_cli(command):
            path = out_dir / f"cli-trace-{len(pending)}.json"
            pending.append((command, path))
            return path
    ops = setup(args.workload, args.seed, traced_cli)
    if tracer is not None:
        tracer.install()
        pending.clear()   # the warm-up's trace is not counted

    tally = run_rounds(ops, args.seconds)
    rounds = len(tally["rounds"])
    wall = statistics.median(tally["rounds"])
    consistent = all(len(seen) == 1 for seen in tally["outcomes"].values())
    for name, failures in tally["failures"].items():
        print(f"FAILED {name}: {'; '.join(failures)}")
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} "
          f"ops_per_round={len(ops)} round_s={[round(t, 3) for t in tally['rounds']]}")

    if tracer is None:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {"wall_s": (wall, "s"),
                   "op_p50_s": (statistics.median(
                       t for times in tally["op_times"].values() for t in times), "s"),
                   "setup_s": (statistics.median(setup_times), "s"),
                   "peak_rss_mb": (rss_kb / 1024, "MB")}
    else:
        dispatch = {}
        for command, path in pending:
            data = json.loads(path.read_text())
            tracer.merge(data)
            dispatch[command] = dispatch.get(command, 0.0) + data["total"].get("cli.dispatch", 0.0)
        startup = statistics.median(probe(["-c", "import pclyap.cli"])
                                    for _ in range(STARTUP_PROBES))
        metrics = layer_metrics(tracer, rounds, startup, dispatch, wall)
    result = {"correct": consistent, "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  round_s=tally["rounds"], setup_probes_s=setup_times,
                  op_s=tally["op_times"],
                  failures=tally["failures"],
                  spans=tracer.to_dict() if tracer is not None else None)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
