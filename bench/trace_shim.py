"""Run one stepdrive CLI request with module spans recorded.

Usage: python bench/trace_shim.py SPANS_OUT ARG...

Behaves like `python -m stepdrive.cli ARG...` (same stdout, same exit
code) but records a span around `import stepdrive.cli`, one around
`cli.main(argv)` named `cli.cmd`, and one around every call to the
functions in `tracing.TARGETS`.  The spans are written to SPANS_OUT when
the request ends.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    before = len(sys.modules)
    sid = tracer.open("import")
    import stepdrive.cli

    tracer.close(sid)
    modules = len(sys.modules) - before
    tracer.install()
    sid = tracer.open("cli.cmd")
    try:
        code = stepdrive.cli.main(argv)
    finally:
        tracer.close(sid)
        sys.stdout.flush()
        tracer.dump(out, {"import.modules": modules})
    return code


if __name__ == "__main__":
    sys.exit(main())
