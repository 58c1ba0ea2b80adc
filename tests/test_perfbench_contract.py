"""The names perfbench wraps or reads in driftlens still exist.

perfbench/worker.py patches layer functions where the pipeline calls them
and reads module constants, so renaming one of them breaks the benchmark;
this test makes such a rename fail the test suite instead.
"""

import importlib
from collections import Counter
from pathlib import Path

from driftlens import kernels

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
