"""Deterministic reference predictors that expose label-persistence bias."""

from __future__ import annotations

BASELINE_KINDS = ("label_persistent", "all_benign")


def predict_naive(records, kind: str) -> dict[str, int]:
    """Predict each record's new label without looking at any source code.

    label_persistent: common files keep their old label, added files are
    benign. all_benign: everything is benign.
    """
    if kind not in BASELINE_KINDS:
        raise ValueError(f"kind must be one of {BASELINE_KINDS}, got {kind!r}")
    preds: dict[str, int] = {}
    for record in records:
        if kind == "all_benign" or record.old_file is None:
            preds[record.record_id] = 0
        else:
            preds[record.record_id] = record.old_file.label
    return preds
