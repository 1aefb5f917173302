"""Run ``osl`` in this fresh interpreter, as the ``osl`` console script does.

Usage: python3 child.py STAMP_FILE TRACE_FILE|- OSL_ARGS...

Imports ``oseledets.cli``, writes the ``time.perf_counter()`` reading
taken just before ``main`` is called to STAMP_FILE (a system-wide
monotonic clock on Linux, so the parent can subtract its spawn time),
and exits with ``main(OSL_ARGS)``.  With a TRACE_FILE, the layers are
wrapped by ``spans.install`` first and their spans are written there
after ``main`` returns.
"""

import sys
import time

t_start = time.perf_counter()
stamp_path, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
import oseledets.cli  # noqa: E402

t_imported = time.perf_counter()
tracer = None
if trace_path != "-":
    import spans

    tracer = spans.install()
t_main = time.perf_counter()
with open(stamp_path, "w") as fh:
    fh.write(repr(t_main))
code = oseledets.cli.main(argv)
if tracer is not None:
    tracer.dump(trace_path, import_s=t_imported - t_start)
sys.exit(code)
