"""Run the finecert CLI with its modules wrapped by the span tracer.

    python perfbench/traced_cli.py <finecert arguments>

Behaves like ``python -m finecert <arguments>``: same stdout and exit
status. After the command it writes the operation's span summary (see
spans.fold_spans), plus a ``cli.import`` span for ``import finecert.cli``,
as the last stderr line after the spans.MARKER prefix.
"""

import json
import sys
import time

import spans

start = time.perf_counter()
import finecert  # noqa: E402  (timed as the cli.import span)
import finecert.cli  # noqa: E402

import_s = time.perf_counter() - start

tracer = spans.Tracer(finecert)
tracer.install()
tracer.begin_op()
try:
    code = finecert.cli.main(sys.argv[1:])
except SystemExit as exc:  # argparse usage errors
    code = exc.code
finally:
    sys.stdout.flush()
    summary = tracer.end_op()
    tracer.uninstall()
    summary["calls"][spans.IMPORT_KEY] += 1
    summary["self_s"][spans.IMPORT_KEY] += import_s
    summary["incl_s"][spans.IMPORT_KEY] += import_s
    sys.stderr.write(spans.MARKER + json.dumps(summary) + "\n")
sys.exit(code)
