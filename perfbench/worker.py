"""Run one workload's pipeline repeatedly in a process of its own.

run.py generates the corpus and starts this script; it imports driftlens
from the checkout's src/, runs pipeline.run once to warm up and check the
outputs, then repeats it untraced until the time is up, timing fresh
imports of driftlens.cli in between (with --trace 1 a traced run follows
each untraced one instead), and writes DIR/result.json.

Usage: python3 perfbench/worker.py --workload NAME --data DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from driftlens import context, debate, diffing, kernels, pipeline  # noqa: E402
from driftlens.llm import HttpChatClient, RetryPolicy, ScriptedChatClient  # noqa: E402

import fakes  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import TRANSITION_SUBSETS, WORKLOADS  # noqa: E402

ARTIFACTS = ("matches.csv", "records.csv", "predictions.csv")
SETUP_SAMPLES = 10
MIN_REPS = 3  # untraced runs timed even when --seconds is shorter
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import driftlens.cli; "
                 "print(time.perf_counter() - t)")
# iterations of the reference loop: about 20 ms of one core on a 2-core x86 host
REFERENCE_LOOP = 200_000
# The fake endpoint answers in about 20 ms; with the default 0.5 s backoff base,
# sleeping after a 429 would outweigh all the calls, so the base is about one call.
ENDPOINT_RETRY = RetryPolicy(base_delay=0.025)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "kernels_backend": kernels.BACKEND, "nproc": nproc(), "seed": seed}


def time_import() -> float:
    """Seconds a fresh interpreter takes to import driftlens.cli: every CLI call pays it."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=os.environ,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def reference_cpu_s() -> float:
    """CPU seconds of a fixed pure-Python loop, the unit of run_cpu_ref.

    Timed next to each run, it slows down with the run when other tenants of
    a shared host take the core's speed, so the ratio of the two holds still.
    """
    start = time.process_time()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.process_time() - start


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


class CallMeter:
    """Times every client.complete call (entry to return), sizes its prompt and
    times backoff sleeps; also the peak and mean number of calls in flight."""

    def __init__(self):
        self.calls: list[tuple[float, float]] = []
        self.prompt_chars = 0
        self.backoff_s = 0.0
        self._in_flight = 0
        self.peak_in_flight = 0
        self._lock = threading.Lock()

    def attach(self, client) -> None:
        inner = client.complete

        def complete(req):
            with self._lock:
                self._in_flight += 1
                self.peak_in_flight = max(self.peak_in_flight, self._in_flight)
                self.prompt_chars += len(req.system) + sum(len(t) for _, t in req.user_turns)
            start = time.perf_counter()
            try:
                return inner(req)
            finally:
                end = time.perf_counter()
                with self._lock:
                    self._in_flight -= 1
                    self.calls.append((start, end))

        client.complete = complete

    def sleep(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        with self._lock:
            self.backoff_s += time.perf_counter() - start

    @property
    def mean_in_flight(self) -> float:
        """Summed call time over the wall time from the first call to the last return."""
        if not self.calls:
            return 0.0
        wall = max(e for _, e in self.calls) - min(s for s, _ in self.calls)
        busy = sum(e - s for s, e in self.calls)
        return busy / wall if wall > 0 else 1.0


class TimedGate:
    """Stands in for HttpChatClient's in-flight semaphore and times the wait."""

    def __init__(self, inner: threading.Semaphore):
        self.inner = inner
        self.wait_s = 0.0
        self._lock = threading.Lock()

    def __enter__(self):
        start = time.perf_counter()
        self.inner.acquire()
        with self._lock:
            self.wait_s += time.perf_counter() - start
        return self

    def __exit__(self, *exc):
        self.inner.release()
        return False


class Bench:
    def __init__(self, workload, data: Path):
        self.workload = workload
        self.truth = json.loads((data / "truth.json").read_text(encoding="utf-8"))
        self.out_dir = data / "out"
        self.config = pipeline.RunConfig(
            dataset="synth", old_csv=str(data / "old.csv"), new_csv=str(data / "new.csv"),
            out_dir=str(self.out_dir), **workload.config)
        if workload.client == "endpoint":
            self.config.max_in_flight = nproc()
        if workload.client == "none":
            self.evaluated = [row["new_path"] for row in self.truth]
        else:
            self.evaluated = [row["new_path"] for row in self.truth
                              if row["subset"] in TRANSITION_SUBSETS]
        self.plan = fakes.ReplyPlan(self.evaluated)
        self.failures: list[str] = []
        self.runs = 0
        self.failed_runs = 0
        self.reference_digests: dict[str, str] | None = None

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    # -- one run ---------------------------------------------------------

    def make_client(self, meter: CallMeter):
        kind = self.workload.client
        endpoint = None
        if kind == "none":
            return None, None
        if kind == "stub":
            tag = "debate" if self.config.debate else self.config.method
            client = ScriptedChatClient(self.plan.stub_script(tag))
        else:
            endpoint = fakes.FakeEndpoint(self.plan)
            client = HttpChatClient(base_url="http://fake-endpoint.invalid/v1", api_key="bench",
                                    retry_policy=ENDPOINT_RETRY, max_in_flight=nproc(),
                                    transport=endpoint, sleep=meter.sleep)
        meter.attach(client)
        return client, endpoint

    def run_once(self, tracer: Tracer | None = None):
        """One pipeline.run; returns (seconds, cpu_seconds, meter, client, endpoint, gate),
        None on error. CPU seconds count every thread of the process."""
        gc.collect()
        meter = CallMeter()
        client, endpoint = self.make_client(meter)
        gate = None
        if tracer is not None and client is not None:
            tracer.wrap(client, "complete", "llm.complete")
            if isinstance(client, HttpChatClient):
                gate = client._gate = TimedGate(client._gate)
        self.runs += 1
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            pipeline.run(self.config, client=client)
        except Exception as exc:  # a failed run is counted and reported, not fatal
            self.failed_runs += 1
            self.fail(f"pipeline.run raised {type(exc).__name__}: {exc}")
            return None
        elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        ok = self.check_repeatable(endpoint)
        if not ok:
            self.failed_runs += 1
        return elapsed, cpu, meter, client, endpoint, gate

    def check_repeatable(self, endpoint) -> bool:
        found = digests(self.out_dir)
        ok = True
        if self.reference_digests is None:
            self.reference_digests = found
        elif found != self.reference_digests:
            self.fail(f"artifacts differ between runs: {found} vs {self.reference_digests}")
            ok = False
        if endpoint is not None and endpoint.peak_in_flight > nproc():
            self.fail(f"endpoint saw {endpoint.peak_in_flight} calls in flight, cap {nproc()}")
            ok = False
        return ok

    # -- output checks -----------------------------------------------------

    def check_outputs(self) -> bool:
        """Records and matches equal the ground truth; one correct prediction per record."""
        before = len(self.failures)
        keys = ("new_path", "old_path", "match_kind", "subset", "old_label", "new_label")
        records = [{k: row[k] for k in keys} for row in _read_csv(self.out_dir / "records.csv")]
        truth = [{k: str(row[k]) for k in keys} for row in self.truth]
        if records != truth:
            wrong = [t["new_path"] for r, t in zip(records, truth) if r != t]
            self.fail(f"records.csv differs from ground truth ({len(records)} rows vs "
                      f"{len(truth)}; first mismatches {wrong[:3]})")
        matches = _read_csv(self.out_dir / "matches.csv")
        if [{k: m[k] for k in keys[:4]} for m in matches] != [
                {k: t[k] for k in keys[:4]} for t in truth]:
            self.fail("matches.csv differs from ground truth")

        rows = _read_csv(self.out_dir / "predictions.csv")
        counts = Counter(row["record_id"] for row in rows)
        if set(counts) != set(self.evaluated) or any(n != 1 for n in counts.values()):
            self.fail(f"predictions.csv has {len(rows)} rows for {len(self.evaluated)} "
                      "evaluated records, or duplicate / unknown ids")
        by_id = {t["new_path"]: t for t in truth}
        debate_run = bool(self.config.debate)
        for row in rows:
            rid = row["record_id"]
            if rid not in by_id:
                continue
            if self.workload.client == "none":
                old = by_id[rid]["old_label"]
                want = (old if old != "" else "0", "exact")
            else:
                want = self.plan.expected_prediction(rid, debate_run)
            got = (row["pred_label"], row["parse_path"])
            if got != want:
                self.fail(f"prediction for {rid} is {got}, expected {want}")
                break
        return len(self.failures) == before

    def failed_share(self) -> float:
        rows = _read_csv(self.out_dir / "predictions.csv")
        usable = {row["record_id"] for row in rows if row["pred_label"] != ""}
        missing = sum(1 for rid in self.evaluated if rid not in usable)
        return missing / len(self.evaluated)

    # -- measurement -----------------------------------------------------

    def measure(self, seconds: float, trace: bool) -> dict:
        """Repeat untraced runs until the time is up; with trace, a traced run after each.

        Alternating the two keeps slow phases of a shared host from landing
        on one side only, which would skew the tracing overhead. Untraced,
        SETUP_SAMPLES import timings are spread over the same window between
        runs, for the same reason.
        """
        times, cpu_ref, latencies, peaks, means, setup = [], [], [], [], [], []
        calls = chars = 0
        tracer, counts, captured = Tracer(), Counter(), []
        traced_times, per_rep, shares = [], [], []
        start = time.perf_counter()
        deadline = start + seconds
        while len(times) < MIN_REPS or time.perf_counter() < deadline:
            if not trace and time.perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
                setup.append(time_import())
            reference = reference_cpu_s()
            outcome = self.run_once()
            if outcome is None:
                break
            reference = (reference + reference_cpu_s()) / 2
            elapsed, cpu, meter, _, endpoint, _ = outcome
            cpu_ref.append(cpu / reference)
            if endpoint is not None:
                peaks.append(endpoint.peak_in_flight)
                means.append(endpoint.mean_in_flight)
            times.append(elapsed)
            latencies.extend(e - s for s, e in meter.calls)
            calls += len(meter.calls)
            chars += meter.prompt_chars
            if not trace:
                continue
            tracer.clear()
            counts.clear()
            captured.clear()
            install_spans(tracer, counts, captured)
            try:
                outcome = self.run_once(tracer)
            finally:
                tracer.restore()
            if outcome is None:
                break
            elapsed, _, meter, client, _, gate = outcome
            traced_times.append(elapsed)
            per_rep.append(layer_metrics(tracer, counts, meter, client, gate))
            shares.append(stage_shares(tracer, elapsed))

        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(time_import())
        records = len(self.evaluated) * max(len(times), 1)
        result = {"untraced": {
            "setup_s": setup,
            "run_s": times,
            "run_cpu_ref": cpu_ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_share": self.failed_share(),
            "llm_calls_per_record": calls / records,
            "prompt_kchars_per_record": chars / 1000.0 / records,
            "call_p50_ms": 1000.0 * statistics.median(latencies) if latencies else 0.0,
            "call_p95_ms": (1000.0 * statistics.quantiles(latencies, n=20)[-1]
                            if len(latencies) >= 2 else 0.0),
            "calls_timed": len(latencies),
        }}
        if peaks:
            result["untraced"].update(
                endpoint_peak_in_flight=max(peaks),
                endpoint_mean_in_flight=statistics.median(means),
                endpoint_requests=endpoint.requests, endpoint_rejections=endpoint.rejections)
        if per_rep:
            if not self.check_round_trip(captured):
                self.failed_runs += 1
            layers = {k: statistics.median(rep[k] for rep in per_rep) for k in per_rep[0]}
            layers["kernels.lcs_cells"], layers["kernels.lcs_over_budget"] = lcs_cells(captured)
            result["traced"] = {
                "run_s": traced_times, "layers": layers,
                "shares": {k: statistics.median(s[k] for s in shares) for k in shares[0]},
                "span_calls": {k: v["count"] for k, v in tracer.totals().items()}}
        return result

    def check_round_trip(self, captured) -> bool:
        """apply_unified(old, cs.unified) == new for every diff the last traced run made."""
        for old, new, cs in captured:
            if diffing.apply_unified(old, cs.unified) != new:
                self.fail("apply_unified(old, diff(old, new).unified) != new")
                return False
        return True


def install_spans(tracer: Tracer, counts: Counter, captured: list) -> None:
    """Wrap each layer's public functions where the pipeline calls them."""

    def count(key, fn):
        return lambda args, kwargs, result: counts.update({key: fn(args, result)})

    tracer.wrap(pipeline, "load_version", "corpus.load_version", lambda a, k, r: counts.update(
        {"files": len(r), "bytes": os.path.getsize(a[0])}))
    tracer.wrap(pipeline, "match_files", "matching.match_files", lambda a, k, r: counts.update({
        "pending": sum(1 for p in a[1].paths if p not in a[0]),
        "candidates": sum(1 for p in a[0].paths if p not in a[1])}))
    tracer.wrap(pipeline, "partition", "matching.partition")
    tracer.wrap(kernels, "dice_batch", "kernels.dice_batch",
                count("dice_pairs", lambda a, r: len(a[2]) - 1))
    tracer.wrap(kernels, "lcs_pairs", "kernels.lcs_pairs")

    def on_diff(args, kwargs, cs):
        captured.append((args[0], args[1], cs))
        counts["changed_lines"] += len(cs.added) + len(cs.removed)

    tracer.wrap(pipeline, "diff", "diffing.diff", on_diff)
    tracer.wrap(pipeline, "extract_context", "context.extract_context",
                count("truncated", lambda a, r: int(r.truncated)))
    tracer.wrap(context, "extract_methods", "context.extract_methods")
    tracer.wrap(context, "build_call_graph", "context.build_call_graph",
                count("edges", lambda a, r: len(r.edges)))
    tracer.wrap(context, "mask_source", "context.mask_source")
    prompt_chars = count("prompt_chars", lambda a, r: len(r.system) + len(r.user))
    tracer.wrap(pipeline, "build_method_prompt", "prompting.build_method_prompt", prompt_chars)
    tracer.wrap(debate, "build_role_prompt", "prompting.build_role_prompt", prompt_chars)

    def on_parse(args, kwargs, result):
        counts["parse_" + result.parse_path] += 1

    tracer.wrap(pipeline, "parse_prediction", "llm.parse_prediction", on_parse)
    tracer.wrap(debate, "parse_prediction", "llm.parse_prediction", on_parse)
    tracer.wrap(pipeline, "run_debate", "debate.run_debate",
                count("judge_reasks", lambda a, r: r.judge_attempts - 1))
    tracer.wrap(pipeline, "predict_naive", "baselines.predict_naive")
    for name in ("evaluate_predictions", "render_text", "report_csv_rows"):
        tracer.wrap(pipeline, name, "metrics." + name)
    for name in ("write_matches_csv", "write_records_csv", "write_predictions_csv",
                 "save_transcript", "write_manifest"):
        tracer.wrap(pipeline, name, "pipeline.write")


def layer_metrics(tracer: Tracer, counts: Counter, meter: CallMeter, client,
                  gate) -> dict[str, float]:
    t = tracer.totals()

    def self_s(name):
        return t[name]["self"] if name in t else 0.0

    def total_s(name):
        return t[name]["total"] if name in t else 0.0

    def calls(name):
        return t[name]["count"] if name in t else 0

    n_calls = len(meter.calls)
    attempts = client.stats.attempts if client is not None else 0
    n_extract = calls("context.extract_context")
    n_debates = calls("debate.run_debate")
    return {
        "corpus.load_s": self_s("corpus.load_version"),
        "corpus.files": counts["files"],
        "corpus.mbytes": counts["bytes"] / 1e6,
        "matching.match_s": self_s("matching.match_files"),
        "matching.pending_files": counts["pending"],
        "matching.candidates": counts["candidates"],
        "matching.partition_s": self_s("matching.partition"),
        "kernels.dice_s": total_s("kernels.dice_batch"),
        "kernels.dice_pairs": counts["dice_pairs"],
        "kernels.lcs_s": total_s("kernels.lcs_pairs"),
        "diffing.diff_s": self_s("diffing.diff"),
        "diffing.records": calls("diffing.diff"),
        "diffing.changed_lines": counts["changed_lines"],
        "context.extract_s": self_s("context.extract_context"),
        "context.mask_calls": calls("context.mask_source"),
        "context.mask_s": total_s("context.mask_source"),
        "context.methods_s": self_s("context.extract_methods"),
        "context.call_graph_s": self_s("context.build_call_graph"),
        "context.edges": counts["edges"],
        "context.truncated_share": counts["truncated"] / n_extract if n_extract else 0.0,
        "prompting.build_s": (total_s("prompting.build_method_prompt")
                              + total_s("prompting.build_role_prompt")),
        "prompting.prompt_kchars": counts["prompt_chars"] / 1000.0,
        "llm.calls": n_calls,
        "llm.attempts": attempts,
        "llm.retry_share": (attempts - n_calls) / attempts if attempts else 0.0,
        "llm.gate_wait_s": gate.wait_s if gate is not None else 0.0,
        "llm.backoff_s": meter.backoff_s,
        "llm.parse_json": counts["parse_json"],
        "llm.parse_marker": counts["parse_marker"],
        "llm.parse_regex_fallback": counts["parse_regex_fallback"],
        "llm.parse_failed": counts["parse_failed"],
        "debate.debate_s": self_s("debate.run_debate"),
        "debate.calls_per_record": n_calls / n_debates if n_debates else 0.0,
        "debate.judge_reasks": counts["judge_reasks"],
        "baselines.predict_s": total_s("baselines.predict_naive"),
        "metrics.evaluate_s": sum(total_s("metrics." + n) for n in (
            "evaluate_predictions", "render_text", "report_csv_rows")),
        "pipeline.write_s": total_s("pipeline.write"),
        "pipeline.inflight_peak": meter.peak_in_flight,
        "pipeline.inflight_mean": meter.mean_in_flight,
    }


def stage_shares(tracer: Tracer, run_s: float) -> dict[str, float]:
    """Share of run_s spent inside each stage's entry point (wall time covered)."""
    names = ("corpus.load_version", "matching.match_files", "matching.partition",
             "diffing.diff", "context.extract_context", "llm.complete", "pipeline.write")
    return {name: tracer.covered(name) / run_s for name in names}


def lcs_cells(captured) -> tuple[int, int]:
    """LCS table cells after common prefix/suffix stripping, and middles over budget."""
    cells = over = 0
    for old, new, _ in captured:
        a, b = diffing.split_keepends(old), diffing.split_keepends(new)
        n, m = len(a), len(b)
        prefix = 0
        while prefix < min(n, m) and a[prefix] == b[prefix]:
            prefix += 1
        suffix = 0
        while suffix < min(n, m) - prefix and a[n - 1 - suffix] == b[m - 1 - suffix]:
            suffix += 1
        mid_a, mid_b = n - prefix - suffix, m - prefix - suffix
        if mid_a and mid_b:
            size = (mid_a + 1) * (mid_b + 1)
            if size > kernels.LCS_CELL_BUDGET:
                over += 1
            else:
                cells += size
    return cells, over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = Bench(WORKLOADS[args.workload], Path(args.data))
    result = {"env": environment(args.seed)}
    if bench.run_once() is not None:   # warm-up, not timed
        if not bench.check_outputs():
            bench.failed_runs += 1
        result["digests"] = dict(bench.reference_digests)
        result.update(bench.measure(args.seconds, bool(args.trace)))
    result.update(runs=bench.runs, failed_runs=bench.failed_runs, failures=bench.failures)
    (Path(args.data) / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
