"""One workload process: import the lab, run one config through cli.run, time it.

    python3 benchmark/child.py CONFIG OUT_DIR RESULT SPAWN_TIME TRACE

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so setup_s covers interpreter start and the package imports.
TRACE is "-" for an untraced run, or the path the spans are written to.
"""

import json
import os
import sys
import time

config, out_dir, result_path, spawn, trace_path = sys.argv[1:6]
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from enstrophy_lab import cli  # noqa: E402

setup_s = time.monotonic() - float(spawn)
recorder = None
if trace_path != "-":
    import tracer  # the benchmark directory is sys.path[0]

    recorder = tracer.install()
t0 = time.perf_counter()
code = cli.run(config, out_dir=out_dir)
wall_s = time.perf_counter() - t0
if recorder is not None:
    recorder.dump(trace_path)
with open(result_path, "w") as fh:
    json.dump({"setup_s": setup_s, "wall_s": wall_s, "exit_code": code}, fh)
