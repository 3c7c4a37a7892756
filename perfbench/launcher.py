"""Run one spherecov CLI command in a fresh process with tracing on.

Usage: python launcher.py SPANS_JSON SPAWN_NS ARG...

SPAWN_NS is the parent's monotonic clock reading just before it started this
process. The launcher records the bare interpreter start-up (spawn to the
first statement here) and `import spherecov.cli` as spans, installs the span
wrappers, calls `spherecov.cli.main(ARG...)` and writes its spans to
SPANS_JSON. Stdout, stderr and the exit code are the CLI's own.
"""

import time

_FIRST_STATEMENT_NS = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

import sys  # noqa: E402


def main() -> int:
    spans_path, spawn_ns, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import_start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    import spherecov.cli

    import_end = time.clock_gettime_ns(time.CLOCK_MONOTONIC)

    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.add("cli.python_startup", spawn_ns, _FIRST_STATEMENT_NS)
    tracer.add("cli.import", import_start, import_end)
    tracer.install()
    tracer.active = True
    try:
        return spherecov.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.rows(), fh)


if __name__ == "__main__":
    sys.exit(main())
