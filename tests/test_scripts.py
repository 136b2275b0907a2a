"""The example scripts run, and the demo data files are the demo of
:mod:`pclyap.examples`, which the scripts and the tests share: the check
below fails as soon as ``data/*.json`` drifts from it.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_FILES = ("demo_graph.json", "demo_matrices.json", "demo_reduced_graph.json")


def _run_script(name, *args):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scripts_run_and_reproduce_demo_data(tmp_path):
    _run_script("run_demo_analysis.py", "--lmax", "1", "--dump-json", str(tmp_path))
    _run_script("lift_survey.py", "--trials", "1")
    for name in DEMO_FILES:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name


def test_profile_lifts_prints_the_top_entries():
    out = _run_script("profile_lifts.py")
    assert "Ordered by: internal time" in out and "due to restriction <25>" in out
    assert "pclyap/lifts.py" in out.replace("\\", "/")
    totals = re.findall(r"^  (\S.*?) +(\d+\.\d{6}) s$", out, re.MULTILINE)
    assert [phase for phase, _ in totals] == ["lift build", "path-completeness",
                                              "transport", "verification"]
    assert all(float(seconds) > 0 for _, seconds in totals)
    assert out.index("seconds per phase") < out.index("Ordered by: internal time")
    cold = re.findall(r"^transports with no lift before them: (\d+\.\d{4}) s per round$",
                      out, re.MULTILINE)
    assert len(cold) == 1 and float(cold[0]) > 0
    # one kernel run per transport, on its lift: its check of the base
    # certificate and the verification after it read remembered reports
    assert re.findall(r"^lift builder runs per round: (\d+)$", out, re.MULTILINE) == ["30"]
    assert re.findall(r"^verification kernel runs per round: (\d+)$", out,
                      re.MULTILINE) == ["48"]


def test_profile_hierarchy_prints_the_top_entries():
    out = _run_script("profile_hierarchy.py")
    assert "Ordered by: internal time" in out and "due to restriction <25>" in out
    assert "pclyap/feasibility.py" in out.replace("\\", "/")
    totals = re.findall(r"^  (\S.*?) +(\d+\.\d{4}) s$", out, re.MULTILINE)
    assert [name for name, _ in totals] == ["demo"] + [f"{kind} n={n}" for n in (3, 4, 5, 6)
                                                      for kind in ("dense", "sparse")]
    assert all(float(seconds) > 0 for _, seconds in totals)
    assert out.index("seconds per system") < out.index("Ordered by: internal time")
    # the greedy step's last policy is the certificate step's first: its matrix is kept
    evaluations = re.findall(r"^policy evaluations per round: (\d+)$", out, re.MULTILINE)
    builds = re.findall(r"^policy matrices built per round: (\d+)$", out, re.MULTILINE)
    assert len(evaluations) == len(builds) == 1
    assert 0 < int(builds[0]) < int(evaluations[0])
    # every layer is timed by a wrapper under its own name; one round solves
    # 72 LPs, two per level 1-4 of each of the 9 systems, on 36 graphs
    layers = re.findall(r"^  (\S+) +(\d+) calls/round +(\d+\.\d) us/call$", out, re.MULTILINE)
    assert [name for name, _, _ in layers] == ["_family", "index_sccs", "_perron",
                                               "_howard_values", "_improve", "_certified",
                                               "de_bruijn"]
    calls = {name: int(count) for name, count, _ in layers}
    assert calls["_family"] == calls["_certified"] == 72 and calls["de_bruijn"] == 36
    assert all(count > 0 for count in calls.values())
    assert all(float(us) > 0 for _, _, us in layers)
    assert (out.index("policy matrices built per round") < out.index("wall time per call by layer")
            < out.index("Ordered by: internal time"))
