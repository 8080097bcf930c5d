"""The measurement loop shared by the three workloads.

A workload module provides

* ``plan(seed, quick=False)``: the seeded call list as plain data;
* ``setup(qarith, plan)``: rings, root systems and warm process-wide tables,
  the work that ``setup_s`` times;
* ``bind(env)``: one pass's calls, with fresh ``QContext``s, as ``Call``s.

A pass runs its calls one after another in one thread (a closed loop with one
client) and times each; the checks run after the pass, outside the timed
region.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from collections import namedtuple

# fn(*args) is the timed call; check(result, results) returns None when the
# result is right, else a description of what is wrong.  ``results`` holds the
# whole pass, so a check may compare two calls.
Call = namedtuple("Call", "label fn args check")


# one pass: its wall time, per-call latencies, failed calls (raised or wrong),
# wrong outputs, and the per-layer metrics when traced (else None)
PassRecord = namedtuple("PassRecord", "seconds latencies failures wrong layers")


def percentile(values, q):
    """Linear-interpolated q-quantile (0 < q < 1) of a list of at least two values."""
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[round(q * 100) - 1]


def run_pass(calls):
    clock = time.perf_counter
    results = [None] * len(calls)
    latencies = [0.0] * len(calls)
    raised = {}
    start = clock()
    for i, call in enumerate(calls):
        t0 = clock()
        try:
            results[i] = call.fn(*call.args)
        except Exception as exc:  # a failed call is counted, the pass goes on
            raised[i] = f"{type(exc).__name__}: {exc}"
        latencies[i] = clock() - t0
    seconds = clock() - start
    return seconds, latencies, results, raised


def check_pass(calls, results, raised, log):
    failures = wrong = 0
    for i, call in enumerate(calls):
        if i in raised:
            failures += 1
            log(f"call {i} {call.label} raised {raised[i]}")
            continue
        try:
            problem = call.check(results[i], results)
        except Exception as exc:  # a malformed output is a wrong output
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures += 1
            wrong += 1
            log(f"call {i} {call.label}: {problem}")
    return failures, wrong


def one_pass(module, env, log, tracer=None):
    calls = module.bind(env)
    gc.collect()
    before = tracer.snapshot() if tracer else None
    seconds, latencies, results, raised = run_pass(calls)
    layers = None
    if tracer:
        from .tracer import layer_metrics

        counts, self_s = tracer.snapshot()
        counts.subtract(before[0])
        layers = layer_metrics(counts, {k: v - before[1].get(k, 0.0) for k, v in self_s.items()})
    failures, wrong = check_pass(calls, results, raised, log)
    return len(calls), PassRecord(seconds, latencies, failures, wrong, layers)


def run_passes(module, env, seconds, log, tracer=None, between=None):
    """Passes until ``seconds`` have gone by, at least one; returns (calls, records).

    ``between(share)``, if given, runs after each pass with the share of
    ``seconds`` used so far.
    """
    records, attempted = [], 0
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        n, rec = one_pass(module, env, log, tracer)
        attempted += n
        records.append(rec)
        if between:
            between(min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0)
    return attempted, records


def end_to_end(records):
    """The untraced metrics other than setup_s.

    pass_s is the median over passes.  Every pass runs the same calls, so
    each call's latency is taken as its mean over the passes, and the
    percentiles are over those per-call means.  Other tenants' load switches
    the processor between two speeds about a factor of two apart; a call's
    median or fastest time over some ten passes jumps between them, while its
    mean moves smoothly with the share of the run that was slowed.
    """
    per_call = [statistics.fmean(column) for column in zip(*(r.latencies for r in records))]
    return {
        "pass_s": (statistics.median(r.seconds for r in records), "s"),
        "call_p50_ms": (1000 * percentile(per_call, 0.5), "ms"),
        "call_p90_ms": (1000 * percentile(per_call, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
