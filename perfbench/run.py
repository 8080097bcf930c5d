"""Benchmark for qarith: one workload per run, a JSON result as the last line.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

Run it from anywhere in a checkout; it loads qarith from the checkout's src/.
With ``--trace 0`` it reports the end-to-end metrics: set-up time (median of
fresh interpreters started between passes, see probe.py) and, over passes of
the seeded call list, the median pass time, per-call p50/p90 and the peak
resident memory.
With ``--trace 1`` it reports the per-layer metrics of tracer.py, taken from
traced passes that follow untraced ones, and the tracing overhead.  Every
output is checked; a call that raises or returns a wrong value counts as
failed.  The full record of the run goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = {"symbolic": "symbolic", "finite": "finite", "cli-mix": "climix"}
SETUP_SAMPLES = 15
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run


def log(msg):
    print(msg, file=sys.stderr)


def setup_sample(module_name, seed):
    """Set-up seconds of one fresh interpreter (probe.py)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), module_name, str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def layer_unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qarith", "__init__.py")):
        log(f"qarith sources not found: {SRC} has no qarith package")
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import core
    from perfbench.tracer import Tracer

    module_name = WORKLOADS[args.workload]
    module = importlib.import_module("perfbench." + module_name)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    metrics = {}

    import qarith

    env = module.setup(qarith, module.plan(args.seed))
    start = time.perf_counter()
    if args.trace:
        attempted, plain = core.run_passes(module, env, args.seconds * UNTRACED_SHARE, log)
        tracer = Tracer()
        tracer.install(qarith)
        try:
            left = args.seconds - (time.perf_counter() - start)
            more, traced = core.run_passes(module, env, left, log, tracer)
        finally:
            tracer.uninstall()
        attempted += more
        records = plain + traced
        for name in traced[0].layers:
            values = [r.layers[name] for r in traced]
            unit = layer_unit(name)
            if unit != "ms":  # counts and their ratios repeat from pass to pass
                if len(set(values)) > 1:
                    log(f"warning: {name} differs between traced passes: {values}")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        overhead = statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain)
        metrics["trace.overhead"] = (overhead, "ratio")
        record["traced_layers"] = [r.layers for r in traced]
    else:
        # set-up probes run between passes, spread over the run, so that their
        # median sees the same machine as the passes do
        samples = []

        def probe(share):
            while len(samples) < math.ceil(SETUP_SAMPLES * share):
                samples.append(setup_sample(module_name, args.seed))

        attempted, records = core.run_passes(module, env, args.seconds, log, between=probe)
        probe(1.0)
        record["setup_samples"] = samples
        metrics["setup_s"] = (statistics.median(samples), "s")
        metrics.update(core.end_to_end(records))
    record["passes"] = [
        {"seconds": r.seconds, "traced": r.layers is not None, "calls": len(r.latencies),
         "p50_ms": 1000 * core.percentile(r.latencies, 0.5), "p90_ms": 1000 * core.percentile(r.latencies, 0.9),
         "failures": r.failures}
        for r in records
    ]
    record["latencies"] = [r.latencies for r in records]
    result = {
        "correct": all(r.wrong == 0 for r in records),
        "attempted": attempted,
        "failed": sum(r.failures for r in records),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
