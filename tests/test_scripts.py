"""The example scripts run, and the demo system has one definition in effect.

The demo system is written down in ``tests/helpers.py``, in
``scripts/run_demo_analysis.py`` and in the tracked ``data/*.json``; the
check below fails as soon as one of them drifts from the others.
"""

import subprocess
import sys
from pathlib import Path

from pclyap import serialize

import helpers

ROOT = Path(__file__).resolve().parent.parent
DEMO_FILES = ("demo_graph.json", "demo_matrices.json", "demo_reduced_graph.json")


def _run_script(name, *args):
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_scripts_run_and_reproduce_demo_data(tmp_path):
    _run_script("run_demo_analysis.py", "--lmax", "1", "--dump-json", str(tmp_path))
    _run_script("lift_survey.py", "--trials", "1")
    for name in DEMO_FILES:
        assert (tmp_path / name).read_bytes() == (ROOT / "data" / name).read_bytes(), name
    assert (serialize.dumps(serialize.graph_to_dict(helpers.demo_graph()))
            == (ROOT / "data" / "demo_graph.json").read_text())
    assert (serialize.dumps(serialize.matrix_set_to_dict(helpers.demo_matrices()))
            == (ROOT / "data" / "demo_matrices.json").read_text())
