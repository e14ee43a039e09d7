"""One benchmark worker: a fresh interpreter that runs one workload at jobs=1.

run.py starts it with PYTHONPATH pointing at the checkout's src/.  It prints
"ready" once dyckmaps is imported (at the top, with the workloads) and the
inputs are built; run.py times set-up up to that line.  Then, unless
--setup-only, it runs timed passes for --seconds and prints one JSON line
with the raw measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import numpy

from spans import NULL, Tracer, derive, overhead_frac, write_spans
from workloads import WORKLOADS

MIN_PASSES = 3
REF_LOOPS = 1_000_000


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop, a gauge of the host's current
    speed; run.py scales the end-to-end metrics by it."""
    start = perf_counter()
    total = 0
    for i in range(REF_LOOPS):
        total += i & 7
    return perf_counter() - start


def _untraced(wl, seconds: float) -> dict:
    """Timed passes until the next one would overrun `seconds`."""
    times, firsts, refs = [], [], []
    attempted = failed = 0
    start = perf_counter()
    while True:
        refs.append(reference_s())
        t0 = perf_counter()
        out, first_s = wl.run(NULL)
        times.append(perf_counter() - t0)
        firsts.extend(first_s)
        a, f = wl.check(out)
        attempted, failed = attempted + a, failed + f
        spent = perf_counter() - start
        if len(times) >= MIN_PASSES and spent + statistics.median(times) > seconds:
            break
    refs.append(reference_s())
    return {"passes_s": times, "first_output_s": firsts, "reference_s": refs,
            "attempted": attempted, "failed": failed}


def _traced(wl, seed: int, seconds: float, spans_path: str) -> dict:
    """Untraced and traced passes in alternating order, each traced pass
    followed by its replays; then a small probe of every other workload, so
    that each per-layer metric is defined."""
    tracer = Tracer("main")
    times = {False: [], True: []}
    attempted = failed = 0
    start = perf_counter()
    while True:
        order = (False, True) if len(times[True]) % 2 == 0 else (True, False)
        for traced in order:
            t0 = perf_counter()
            out, _ = wl.run(tracer if traced else NULL)
            times[traced].append(perf_counter() - t0)
            a, f = wl.check(out)
            attempted, failed = attempted + a, failed + f
            if traced:
                wl.replay(tracer, out)
        spent = perf_counter() - start
        if spent * (len(times[True]) + 1) / len(times[True]) > seconds:
            break
    metrics = derive(tracer, len(times[True]))
    metrics["trace.overhead_frac"] = overhead_frac(times[True], times[False])
    tracers = [tracer]
    for name, cls in WORKLOADS.items():
        if name == wl.name:
            continue
        probe = cls(seed, "probe")
        ptr = Tracer("probe")
        out, _ = probe.run(ptr)
        a, f = probe.check(out)
        attempted, failed = attempted + a, failed + f
        probe.replay(ptr, out)
        tracers.append(ptr)
        for key, value in derive(ptr, 1).items():
            metrics.setdefault(key, value)
    write_spans(spans_path, tracers)
    return {"per_layer": metrics, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=os.devnull)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"reference_s": [reference_s()]}), flush=True)
        return 0
    if args.trace:
        result = _traced(wl, args.seed, args.seconds, args.spans_out)
    else:
        result = _untraced(wl, args.seconds)
    result.update(
        words_per_pass=wl.words,
        steps_per_pass=wl.steps,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
