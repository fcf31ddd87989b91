"""Run one `pseudo` command with per-layer tracing installed.

    python3 perfbench/cli_shim.py SUBCOMMAND ARGS...

Behaves like ``python -m pseudo``: same stdout and exit code.  After the
command it writes one stderr line, ``PERFBENCH_TRACE {json}``, with the
time taken to import pseudo.cli, the per-name call counts, self times,
exact counters and error counts, and the spans.  Timed benchmark runs use
plain ``python -m pseudo``; this shim serves the traced run only.
"""

import json
import sys
from time import perf_counter

from tracer import TRACE_MARK, Tracer


def main() -> int:
    started = perf_counter()
    import pseudo.cli

    import_s = perf_counter() - started
    tracer = Tracer()
    tracer.install()
    try:
        code = pseudo.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["spans"] = tracer.spans
    sys.stderr.write(TRACE_MARK + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
