"""The benchmark's workloads: a corpus shape, a predictor and a client each.

Each workload drives one layer of the pipeline and bypasses the others, so
an optimisation of one layer has a workload that exercises it and others
that must stay unchanged; BENCHMARK.json says why each one exists. Sizes
keep one pipeline.run under a second on a 2-core x86 host, so a run repeats
it dozens of times and its medians settle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from synth import SynthParams

TRANSITION_SUBSETS = ("B00", "B10", "D01", "D11")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: SynthParams
    config: dict = field(default_factory=dict)   # RunConfig fields
    client: str = "none"                         # none | stub | endpoint
    stressed: str = ""                           # span meant to take most of run_s
    bypassed: tuple = ()                         # spans the workload must never open


# ~90-line files, the size of a typical PROMISE file
_SMALL = dict(methods=6, lines_per_method=10, calls_per_method=2)
# ~900-line files with ~60 methods that call each other
_LARGE = dict(methods=60, lines_per_method=9, calls_per_method=3)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="rename-baseline",
        corpus=SynthParams(files=600, edit_rate=0.3, rename_rate=0.25,
                           add_remove_rate=0.05, **_SMALL),
        config={"baseline": "label_persistent"},
        stressed="matching.match_files",
        bypassed=("diffing.diff", "context.extract_context", "prompting.build_method_prompt",
                  "prompting.build_role_prompt", "llm.complete"),
    ),
    Workload(
        name="context-debate",
        corpus=SynthParams(files=10, edit_rate=0.6, **_LARGE),
        config={"debate": True, "rounds": 1, "stub": True},
        client="stub",
        stressed="context.extract_context",
        bypassed=("kernels.dice_batch",),
    ),
    Workload(
        name="churn-m5",
        corpus=SynthParams(files=40, edit_rate=0.6, edit_shape="spread", **_LARGE),
        config={"method": "M5", "stub": True},
        client="stub",
        stressed="diffing.diff",
        bypassed=("context.extract_context", "kernels.dice_batch"),
    ),
    Workload(
        name="endpoint-m5",
        corpus=SynthParams(files=80, edit_rate=0.6, **_SMALL),
        config={"method": "M5"},
        client="endpoint",
        stressed="llm.complete",
        bypassed=("context.extract_context", "kernels.dice_batch"),
    ),
)}
