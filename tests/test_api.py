"""The public API and the layering between library, scripts and tests.

The exported names are pinned so that every API change is a deliberate
edit here.  Library and scripts never reach into ``tests/``, and the
example instances of :mod:`pclyap.examples` stay out of the command line's
start-up, and refuse inputs they could never draw.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pclyap
from pclyap.examples import random_filled_matrix_set

ROOT = Path(__file__).resolve().parent.parent

PUBLIC_API = [
    "Certificate", "HierarchyReport", "HierarchyStep", "LabeledGraph", "MatrixSet",
    "NodeId", "RhoBound", "SimplexIterationLimit", "SimulationMap", "TransportError",
    "VerificationReport", "backward_composition_lift", "brute_force_bounds",
    "check_assumption_minimal", "common_lyapunov_graph", "completeness_flags",
    "composition_lift", "de_bruijn", "dual_eval", "feasible", "find_simulation",
    "hierarchy", "induced_subgraph", "is_path_complete", "make_graph", "max_lift",
    "min_lift", "parse_node_id", "path_complete_components", "primal_eval", "rho_bound",
    "serialize", "spectral_radius", "strongly_connected_components", "sum_lift",
    "transport_certificate", "transpose", "vee", "verify_certificate",
]

# an import of the test package or its modules, or "tests" on a sys.path line
TEST_REFERENCE = re.compile(
    r"^\s*(from|import)\s+(tests|helpers|conftest)\b|sys\.path.*\btests\b", re.M)


def test_public_api_is_pinned():
    assert sorted(pclyap.__all__) == PUBLIC_API
    assert all(hasattr(pclyap, name) for name in PUBLIC_API)


def test_library_and_scripts_do_not_use_tests():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert files
    offenders = [f"{path.relative_to(ROOT)}: {m.group(0).strip()}" for path in files
                 for m in TEST_REFERENCE.finditer(path.read_text(encoding="utf-8"))]
    assert offenders == []
    # the pattern catches what it is for
    assert TEST_REFERENCE.search('sys.path.insert(0, str(ROOT / "tests"))')
    assert TEST_REFERENCE.search("import helpers  # noqa")


def test_cli_start_up_leaves_examples_unloaded():
    code = ("import sys, pclyap.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('pclyap')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = done.stdout.strip()
    assert "'pclyap.cli'" in loaded
    assert "pclyap.examples" not in loaded


@pytest.mark.parametrize("n, size, fill", [
    (2, 2, 0.0), (2, 2, -0.5), (2, 2, float("nan")), (0, 2, 0.5), (2, 0, 0.5),
    (-1, 2, 0.5), (2.0, 2, 0.5), (2, True, 0.5), (np.int64(2), 2, 0.5)])
def test_random_filled_matrix_set_refuses_inputs_it_could_never_draw(n, size, fill):
    # every draw would be all zero, and redrawn forever
    with pytest.raises(ValueError):
        random_filled_matrix_set(np.random.default_rng(1), n, size, fill)


def test_random_filled_matrix_set_draws_are_pinned():
    draws = b"".join(random_filled_matrix_set(np.random.default_rng(seed), 4, 2, 0.35)
                     .stack.tobytes() for seed in range(5))
    assert hashlib.sha256(draws).hexdigest() == (
        "5c9ee6bda2cead3ecd68b49c67636598afee2d7e8ad9bafed20bf5588d3f730f")
