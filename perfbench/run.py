"""driftlens pipeline benchmark: one workload, one seed, one result line.

Generates the workload's version pair from --seed, runs the workload in a
worker process for --seconds, checks the outputs, and prints a
human-readable report followed by one JSON line holding the end_to_end
metrics of BENCHMARK.json with --trace 0, or its per_layer metrics with
--trace 1. Exits 1 when an output check fails or the worker fails (the
result line then says correct: false) and 2, printing no result, when the
checkout has no driftlens sources.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from synth import write_pair  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Printed with the end-to-end metrics but listed per layer, so not gated: wall time
# follows the speed a shared host lends the core, and the LLM cost is zero on the
# baseline workload.
UNGATED = ("run_s", "failed_share", "llm_calls_per_record", "prompt_kchars_per_record",
           "call_p50_ms", "call_p95_ms")


def run_worker(workload: str, data: Path, args, env: dict) -> str | None:
    """Run the worker to its end; returns why it failed, or None."""
    # the worker measures for --seconds, then finishes its last run and checks
    timeout = 2 * args.seconds + 60
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--data", str(data),
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env)
    try:
        code = worker.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"worker still running after {timeout:g} s"
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
    return f"worker exited with code {code}" if code else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception so the finally blocks stop the worker and clean up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "driftlens" / "__init__.py").is_file():
        print(f"error: no driftlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_tmp"
    data = scratch / f"{workload.name}-{args.seed}-{time.time_ns()}"
    # a fixed hash seed keeps set and dict layouts, and so timings, alike across runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    result = None
    try:
        write_pair(workload.corpus, args.seed, data)
        error = run_worker(workload.name, data, args, env)
        if error is None:
            result = json.loads((data / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(data, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    if result is None:
        print(f"CHECK FAILED: {error}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    untraced = result.get("untraced", {})
    traced = result.get("traced", {})
    measured = {}
    if untraced.get("setup_s"):
        measured["setup_s"] = statistics.median(untraced["setup_s"])
    if untraced:
        # run_s is the fastest repetition: the work is deterministic, and on a shared
        # host other tenants only ever add time, in phases lasting seconds
        measured["run_s"] = min(untraced["run_s"])
        measured["run_cpu_ref"] = statistics.median(untraced["run_cpu_ref"])
        measured["peak_rss_mb"] = untraced["peak_rss_mb"]
        measured.update((k, untraced[k]) for k in UNGATED[1:])
    if traced and untraced:
        measured.update(traced["layers"])
        measured["trace_overhead_share"] = min(traced["run_s"]) / measured["run_s"] - 1.0

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}: {why}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("digests " + json.dumps(result.get("digests", {}), sort_keys=True))
    if untraced:
        print(f"  runs timed {len(untraced['run_s'])}, median run_s "
              f"{statistics.median(untraced['run_s']):.6g} s, calls timed "
              f"{untraced['calls_timed']}")
    if untraced.get("endpoint_peak_in_flight"):
        print(f"  endpoint in flight: peak {untraced['endpoint_peak_in_flight']}, "
              f"mean {untraced['endpoint_mean_in_flight']:.3f}, cap {result['env']['nproc']}; "
              f"last run: {untraced['endpoint_requests']} requests, "
              f"{untraced['endpoint_rejections']} rejected with 429")
    if traced:
        print("  stage share of traced run_s (wall time inside the stage's entry point):")
        for name, share in traced["shares"].items():
            mark = "  <- stressed" if name == workload.stressed else ""
            print(f"    {name:<26} {share:8.3f}{mark}")
        opened = [n for n in workload.bypassed if traced["span_calls"].get(n)]
        stressed = traced["shares"][workload.stressed]
        verdict = "as designed" if stressed > 0.5 and not opened else "differs from design"
        print(f"  traffic {verdict}: {workload.stressed} takes {stressed:.2f} of run_s; "
              f"never opened: {', '.join(n for n in workload.bypassed if n not in opened)}"
              + (f"; opened: {', '.join(opened)}" if opened else ""))
    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    for name in [m["name"] for m in shown] + ([] if args.trace else list(UNGATED)):
        if name in measured:
            print(f"  {name:<32} {measured[name]:>12.6g} {units[name]}")

    failures = list(result["failures"])
    missing = [m["name"] for m in shown if m["name"] not in measured]
    if missing and untraced:
        failures.append(f"metrics not measured: {missing}")
    for failure in failures:
        print("CHECK FAILED: " + failure)
    failed = result["failed_runs"]
    correct = failed == 0 and not failures and bool(untraced)
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in shown if m["name"] in measured}
    print(json.dumps({"correct": correct, "attempted": max(result["runs"], 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
