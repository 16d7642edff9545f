"""One traced CLI job in a fresh process: ``python3 perfbench/child.py ARGS``.

Behaves like ``python -m g2satake.cli ARGS`` (same output, exit code and
traceback), with the layer wrappers of ``tracing`` installed.  The spans
go to the file named by PERFBENCH_SPANS, tagged with PERFBENCH_JOB.
"""

import os
import sys

import tracing
from g2satake import cli

recorder = tracing.Recorder()
recorder.install()
recorder.job = int(os.environ["PERFBENCH_JOB"])
try:
    code = cli.run(sys.argv[1:])
finally:
    tracing.dump(recorder.spans, os.environ["PERFBENCH_SPANS"])
sys.exit(code)
