"""Run the analysis daemon with the benchmark's layer tracing installed.

Usage: ``python perfbench/serve_traced.py TRACE_OUT [repro.serve args]``.
This is ``python -m repro.serve`` with the wrappers of ``tracing.py``
around its public entry points and a timing cube backend under every
analysis; when the daemon exits (SIGTERM drains it), the span aggregates
are written to TRACE_OUT as JSON.
"""

import json
import sys

from tracing import Patches, TimingBackend, Tracer


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    Patches(tracer).install(backend=TimingBackend(tracer))
    from repro.serve.__main__ import main as serve_main

    code = serve_main(argv)
    with open(trace_out, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
