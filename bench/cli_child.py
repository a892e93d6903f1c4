"""Run the heomspectra CLI with the tracer installed, then dump its spans.

Usage: ``python3 bench/cli_child.py SPANS_JSON [CLI arguments ...]``.  The
traced ``cli_sweep`` round runs the CLI through this script so that spans
are recorded in the process doing the work; the exit status is the CLI's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import heomspectra.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_file, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        status = heomspectra.cli.main(cli_args)
    finally:
        tracer.uninstall()
        Path(spans_file).write_text(json.dumps({"lu_traced": tracer.lu_traced, "spans": tracer.spans}))
    return status


if __name__ == "__main__":
    sys.exit(main())
