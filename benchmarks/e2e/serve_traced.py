"""Start ``repro-lid serve`` with every layer wrapped (traced runs only).

``python3 serve_traced.py SRC TRACE_DIR [serve flags...]`` installs the
wrappers of ``trace.py`` before calling ``repro.cli.main(["serve",
...])``.  Pool workers are forked from this process, so they inherit
the wrappers; each appends its spans to ``TRACE_DIR/spans-<pid>.jsonl``
when a top-level ``execute_manifest`` ends.  The server's own spans are
written when it exits (SIGINT).
"""

from __future__ import annotations

import os
import sys


def main() -> int:
    src, trace_dir, serve_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import trace

    tracer = trace.Tracer(flush_dir=trace_dir)
    trace.install(tracer)
    trace.propagate_requests_to_threads()
    os.register_at_fork(after_in_child=tracer.reset)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve"] + serve_args)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
