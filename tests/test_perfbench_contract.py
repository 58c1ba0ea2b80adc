"""The names perfbench wraps or reads in driftlens still exist and mean the same.

perfbench/worker.py patches layer functions where the pipeline calls them
and reads module constants, so renaming one of them breaks the benchmark;
these tests make such a rename fail the test suite instead. A wrapped
function that is called a different number of times, or with other
arguments, silently changes what a per-layer metric counts, so the Dice
and load spans are checked on a real run too.
"""

import dataclasses
import importlib
from collections import Counter
from pathlib import Path

from driftlens import diffing, kernels, pipeline
from driftlens.llm import ScriptedChatClient

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_worker_installs_and_restores_every_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    dice_batch = kernels.dice_batch
    tracer = worker.Tracer()
    try:
        worker.install_spans(tracer, Counter(), [])
    finally:
        tracer.restore()
    assert kernels.dice_batch is dice_batch
    assert isinstance(kernels.BACKEND, str)
    assert kernels.LCS_CELL_BUDGET > 0


def test_dice_span_opens_once_per_pending_file(tmp_path, monkeypatch):
    """kernels.dice_s and dice_pairs stay per-query measures of the Dice kernel."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["rename-baseline"]
    paths = synth.write_pair(dataclasses.replace(workload.corpus, files=150), 3, tmp_path)
    config = pipeline.RunConfig(old_csv=str(paths["old"]), new_csv=str(paths["new"]),
                                out_dir=str(tmp_path / "out"), **workload.config)
    tracer, counts = worker.Tracer(), Counter()
    try:
        worker.install_spans(tracer, counts, [])
        pipeline.run(config)
    finally:
        tracer.restore()
    dice_spans = [span for span in tracer.spans if span.name == "kernels.dice_batch"]
    assert counts["pending"] > 10 and counts["candidates"] > 10
    assert len(dice_spans) == counts["pending"]
    assert counts["dice_pairs"] == counts["pending"] * counts["candidates"]


def test_write_span_opens_once_per_artifact_writer(tmp_path, monkeypatch):
    """pipeline.write_s times each artifact writer of a baseline run, once each."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["rename-baseline"]
    paths = synth.write_pair(dataclasses.replace(workload.corpus, files=150), 3, tmp_path)
    config = pipeline.RunConfig(old_csv=str(paths["old"]), new_csv=str(paths["new"]),
                                out_dir=str(tmp_path / "out"), **workload.config)
    writers = ("write_matches_csv", "write_records_csv", "write_predictions_csv",
               "write_manifest")
    tracer = worker.Tracer()
    try:
        worker.install_spans(tracer, Counter(), [])
        for name in writers:  # outside perfbench's span, so each call encloses its span
            tracer.wrap(pipeline, name, name)
        pipeline.run(config)
    finally:
        tracer.restore()
    write_spans = [span for span in tracer.spans if span.name == "pipeline.write"]
    assert len(write_spans) == len(writers)
    for name in writers:
        (call,) = [span for span in tracer.spans if span.name == name]
        assert sum(call.start <= span.start and span.end <= call.end
                   for span in write_spans) == 1, name


def test_load_span_opens_twice_per_run(tmp_path, monkeypatch):
    """corpus.load_s, files and mbytes stay measures of loading the two snapshots.

    The same run feeds the reads only a traced run makes of the captured
    diffs: the round-trip check and the LCS cell count.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["churn-m5"]
    paths = synth.write_pair(dataclasses.replace(workload.corpus, files=8), 3, tmp_path)
    config = pipeline.RunConfig(old_csv=str(paths["old"]), new_csv=str(paths["new"]),
                                out_dir=str(tmp_path / "out"), **workload.config)
    files = sum(len(pipeline.load_version(paths[side])) for side in ("old", "new"))
    tracer, counts, captured = worker.Tracer(), Counter(), []
    try:
        worker.install_spans(tracer, counts, captured)
        pipeline.run(config)
    finally:
        tracer.restore()
    load_spans = [span for span in tracer.spans if span.name == "corpus.load_version"]
    assert len(load_spans) == 2
    assert counts["files"] == files
    assert counts["bytes"] == sum(Path(paths[side]).stat().st_size for side in ("old", "new"))
    assert captured
    for old, new, cs in captured:
        assert diffing.apply_unified(old, cs.unified) == new
    cells, over_budget = worker.lcs_cells(captured)
    assert cells > 0 and over_budget == 0


def test_debate_spans_read_what_the_debate_layers_return(tmp_path, monkeypatch):
    """A traced context-debate run: the spans read the context bundle, the
    call graph, the role prompts, the verdict parse and the transcript, and
    every diff and context is built before the first call. Each context
    extraction holds one masking, one method scan and one call graph, so
    context.mask_s, methods_s and call_graph_s time one of each per record."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["context-debate"]
    paths = synth.write_pair(dataclasses.replace(workload.corpus, files=3), 3, tmp_path)
    config = pipeline.RunConfig(old_csv=str(paths["old"]), new_csv=str(paths["new"]),
                                out_dir=str(tmp_path / "out"), **workload.config)
    client, meter = ScriptedChatClient(), worker.CallMeter()
    meter.attach(client)
    tracer, counts = worker.Tracer(), Counter()
    try:
        worker.install_spans(tracer, counts, [])
        tracer.wrap(client, "complete", "llm.complete")
        pipeline.run(config, client=client)
    finally:
        tracer.restore()
    layers = worker.layer_metrics(tracer, counts, meter, client, None)
    assert layers["context.edges"] > 0
    assert layers["debate.calls_per_record"] >= 4
    assert layers["llm.parse_marker"] == layers["diffing.records"] > 0
    extracts = [span for span in tracer.spans if span.name == "context.extract_context"]
    assert len(extracts) == layers["diffing.records"]
    for outer in extracts:
        inner = Counter(span.name for span in tracer.spans
                        if span is not outer and outer.start <= span.start
                        and span.end <= outer.end)
        assert inner == {"context.mask_source": 1, "context.extract_methods": 1,
                         "context.build_call_graph": 1}
    prepared = [span.end for span in tracer.spans
                if span.name in ("diffing.diff", "context.extract_context")]
    assert prepared and max(prepared) <= min(
        span.start for span in tracer.spans if span.name == "llm.complete")
