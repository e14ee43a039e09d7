"""The dyckmaps benchmark.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; it needs no install, the workers
import dyckmaps from src/.  Each run starts worker processes one at a time
(never more than one, so never more than nproc), each a fresh interpreter
at jobs=1:

* --trace 0: SETUPS - 1 set-up-only workers, then one measuring worker.  Prints
  the end-to-end metrics listed in BENCHMARK.json: words_per_s and
  steps_per_s as the work of all passes over their total wall time,
  first_output_ms as the mean over passes, peak_rss_mb of the measuring
  worker, setup_s as the median set-up time over all workers.  Times are
  scaled to the host's reference speed (REFERENCE_S).
* --trace 1: one worker that alternates untraced and traced passes and
  prints the per-layer metrics listed in BENCHMARK.json.  Spans are written
  to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give a stamp (git sha and
dirty flag, nproc, Python and numpy versions, CPU model, load average at
start) and failed_frac.

--steady K repeats the run K times with seeds seed..seed+K-1 and prints, per
metric, the median, the quartiles, (q3-q1)/median and (max-min)/median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 5  # set-up samples per untraced run, the measuring worker included
# Time of worker.reference_s() on the host the benchmark was tuned on (2-core
# Intel Xeon, Python 3.11.7).  End-to-end times are scaled by this over the
# time the reference took in the same worker, which cancels the host's drift
# in speed (see README.md); the unscaled values are printed in the stamp.
REFERENCE_S = 0.04
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def _spawn(args: argparse.Namespace, deadline: float, *extra: str) -> tuple:
    """Run one worker; returns (set-up seconds, its parsed last line)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed no result: {' '.join(cmd)}")
    return setup_s, json.loads(lines[-1])


def _stamp(worker: dict) -> dict:
    def git(*cmd):
        try:
            done = subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": bool(status) if sha else None,
            "nproc": os.cpu_count(), "python": worker["python"],
            "numpy": worker["numpy"], "cpu_model": cpu}


def run_once(args: argparse.Namespace, spec: dict) -> tuple:
    """One run of the benchmark; returns (result object, stamp)."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    load = os.getloadavg()
    setups = []
    slowdown = raw = None
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.json"
        _, res = _spawn(args, deadline, "--spans-out", str(spans_path))
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        # (set-up seconds, host slowdown measured right after set-up)
        for _ in range(SETUPS - 1):
            setup_s, ref = _spawn(args, deadline, "--setup-only")
            setups.append((setup_s, ref["reference_s"][0] / REFERENCE_S))
        setup_s, res = _spawn(args, deadline)
        setups.append((setup_s, res["reference_s"][0] / REFERENCE_S))
        # Means, not medians, over the passes of a run: the host alternates
        # between a fast and a slow state for stretches of seconds, and a
        # median reports whichever state held most of the run, while a mean
        # weights each by its share of the run.
        passes = res["passes_s"]
        slowdown = statistics.fmean(res["reference_s"]) / REFERENCE_S
        raw = {
            "words_per_s": res["words_per_pass"] * len(passes) / sum(passes),
            "steps_per_s": res["steps_per_pass"] * len(passes) / sum(passes),
            "first_output_ms": 1000 * statistics.fmean(res["first_output_s"]),
            "setup_s": statistics.median(s for s, _ in setups),
        }
        values = {
            "words_per_s": raw["words_per_s"] * slowdown,
            "steps_per_s": raw["steps_per_s"] * slowdown,
            "first_output_ms": raw["first_output_ms"] / slowdown,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(s / f for s, f in setups),
        }
        wanted = spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    stamp = dict(_stamp(res), workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace, loadavg_start=load,
                 passes_s=res.get("passes_s", []),
                 first_output_s=res.get("first_output_s", []),
                 setups_s=[s for s, _ in setups],
                 host_slowdown=slowdown, unscaled=raw,
                 failed_frac=res["failed"] / res["attempted"],
                 wall_s=perf_counter() - start)
    return result, stamp


def _spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med,
            "range_frac": (max(values) - min(values)) / med, "values": values}


def steady(args: argparse.Namespace, spec: dict, runs: int) -> dict:
    """Repeat the run with successive seeds; spread of each metric."""
    per_metric = {}
    correct = True
    for i in range(runs):
        run_args = argparse.Namespace(**dict(vars(args), seed=args.seed + i))
        result, stamp = run_once(run_args, spec)
        print(json.dumps({"stamp": stamp, "result": result}), flush=True)
        correct = correct and result["correct"]
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return {"workload": args.workload, "runs": runs, "correct": correct,
            "metrics": {name: _spread(v) for name, v in per_metric.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="repeat K times (K >= 2) and print the spread of each metric")
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "dyckmaps" / "__init__.py").is_file():
            raise BenchError(f"no dyckmaps sources under {ROOT / 'src'}")
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.steady:
            if args.steady < 2:
                raise BenchError("--steady needs at least 2 runs")
            print(json.dumps(steady(args, spec, args.steady)))
            return 0
        result, stamp = run_once(args, spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"stamp": stamp}))
    print(f"failed_frac {stamp['failed_frac']:.6g} ({result['failed']} of {result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
