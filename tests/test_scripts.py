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
    totals = re.findall(r"^  (\S.*?) +(\d+\.\d{4}) s$", out, re.MULTILINE)
    assert [phase for phase, _ in totals] == ["lift build", "path-completeness",
                                              "transport", "verification"]
    assert all(float(seconds) > 0 for _, seconds in totals)
    assert out.index("seconds per phase") < out.index("Ordered by: internal time")


def test_profile_hierarchy_prints_the_top_entries():
    out = _run_script("profile_hierarchy.py")
    assert "Ordered by: internal time" in out and "due to restriction <25>" in out
    assert "pclyap/feasibility.py" in out.replace("\\", "/")
    totals = re.findall(r"^  (\S.*?) +(\d+\.\d{4}) s$", out, re.MULTILINE)
    assert [name for name, _ in totals] == ["demo"] + [f"{kind} n={n}" for n in (3, 4, 5, 6)
                                                      for kind in ("dense", "sparse")]
    assert all(float(seconds) > 0 for _, seconds in totals)
    assert out.index("seconds per system") < out.index("Ordered by: internal time")
