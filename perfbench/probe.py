"""Time one set-up of a workload in a fresh interpreter; print the seconds.

    python3 perfbench/probe.py <workload module> <seed>

The clock starts after the benchmark's own modules are loaded and stops
before the first call, so it covers importing qarith and building the
workload's rings, root systems and process-wide tables.  Nothing here
imports argparse or any other module that qarith alone would load.
"""

import importlib
import os
import sys
import time

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    module = importlib.import_module("perfbench." + sys.argv[1])
    plan = module.plan(int(sys.argv[2]))
    start = time.perf_counter()
    import qarith

    module.setup(qarith, plan)
    print(repr(time.perf_counter() - start))
