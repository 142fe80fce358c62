"""Run one CLI command with the span tracer installed (traced cli-cold jobs).

    PERFBENCH_TRACE_OUT=stats.json python3 perfbench/cli_child.py <cli args>

Imports the CLI as ``python -m blanchfield.cli`` would, installs the
tracer, runs ``blanchfield.cli.main`` and dumps the aggregates and the
command's wall time to the file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

import blanchfield.cli as cli

import spans

tracer = spans.Tracer(max_spans=0)
tracer.install()
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
command_s = time.perf_counter() - t0
tracer.uninstall()
doc = dict(tracer.dump_stats(), command_s=command_s)
with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
    json.dump(doc, fh)
sys.exit(code)
