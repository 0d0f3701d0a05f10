"""Runs ``credal.cli`` traced, for the cli workload's traced run.

    python3 perfbench/clishim.py STATS_JSON CLI_ARGS...

Times the import of ``credal.cli``, installs the tracer, runs
``credal.cli.main`` with CLI_ARGS and writes the tracer's totals to
STATS_JSON. Output and exit code are the cli's own.
"""

import sys
import time

T_START = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    import credal.cli

    import_s = time.perf_counter() - T_START
    import tracer

    tr = tracer.Tracer()
    tr.install()
    try:
        code = credal.cli.main(argv[1:])
    finally:
        tr.uninstall()
        tr.busy["cli.import"] = import_s
        Path(argv[0]).write_text(json.dumps(tr.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
