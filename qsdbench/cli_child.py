"""Run one ``qsd`` command with spans around its layers.

Used by the traced ``cli`` workload in place of ``python -m qsd``:
``python cli_child.py <subcommand> [args...]``.  The command's stdout is
left untouched; the spans go to stderr as one line starting with
``SPANS_MARK``, after anything the command itself wrote there.
"""

import json
import sys
import time

SPANS_MARK = "#qsdbench-spans "

if __name__ == "__main__":
    start = time.perf_counter()
    import qsd.cli

    import tracing

    tracer = tracing.Tracer()
    tracer.spans.append(["cli.import", start, time.perf_counter(), None, None, {}])
    restore = tracing.instrument(tracer, {"serialize.dumps": [("qsd.cli", "dumps")]})
    index = tracer.begin("cli.main")
    code = 1
    try:
        code = qsd.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        tracer.end(index)
        restore()
        sys.stdout.flush()
        print(SPANS_MARK + json.dumps(tracer.spans), file=sys.stderr, flush=True)
    sys.exit(code)
