"""Run one ``pclyap`` CLI command with the tracer installed.

Usage: ``python3 bench/trace_cli.py TRACE_JSON <pclyap arguments...>`` with
``PYTHONPATH=src``.  Output and exit code are the command's own; the
tracer's totals are written to TRACE_JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import pclyap.cli

    tracer = Tracer()
    tracer.install()
    try:
        return pclyap.cli.main(argv)
    finally:
        Path(trace_path).write_text(json.dumps(tracer.to_dict()))


if __name__ == "__main__":
    sys.exit(main())
