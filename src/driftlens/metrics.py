"""Standard and change-aware evaluation metrics.

Every metric scores 0/1 predictions against 0/1 labels, and anything else is
a ValueError. Macro precision/recall/F1 use the 0/0 -> 0 convention per
class. AUC is the Mann-Whitney statistic of the predictions (ties get half
credit), which on 0/1 predictions is the balanced accuracy; it is decided
exactly from the confusion counts. Change-aware metrics report
per-subset accuracies and their harmonic means HMB (benign-prior subsets
B00/D01) and HMD (defective-prior subsets B10/D11); empty subsets are
reported as absent rather than zero.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .matching import SUBSET_ORDER

CHANGED_SUBSETS = frozenset({"B10", "D01"})
UNCHANGED_SUBSETS = frozenset({"B00", "D11"})


class ConfusionCounts(namedtuple("ConfusionCounts", "tp fp tn fn")):
    """Binary confusion counts with defective (1) as the positive class."""

    __slots__ = ()

    def __new__(cls, tp: int, fp: int, tn: int, fn: int):
        if min(tp, fp, tn, fn) < 0:
            raise ValueError("confusion counts must be nonnegative")
        return super().__new__(cls, tp, fp, tn, fn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_labels(cls, labels, preds) -> "ConfusionCounts":
        if len(labels) != len(preds):
            raise ValueError(f"{len(labels)} labels against {len(preds)} predictions")
        pairs = Counter(zip(preds, labels))
        counts = cls(tp=pairs[1, 1], fp=pairs[1, 0], tn=pairs[0, 0], fn=pairs[0, 1])
        if counts.total != len(labels):
            raise ValueError("labels and predictions must be 0 or 1; "
                             f"{len(labels) - counts.total} pair(s) are not")
        return counts


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return precision, recall, _safe_div(2 * precision * recall, precision + recall)


def macro_prf(labels, preds) -> tuple[float, float, float]:
    """Macro-averaged precision/recall/F1 over the two classes of binary labels.

    Class 0 reads the defective-class counts mirrored: its tp, fp and fn are
    the tn, fn and fp of the same confusion matrix.
    """
    if len(labels) == 0 or len(labels) != len(preds):
        raise ValueError("labels and preds must be equal-length and nonempty")
    cc = ConfusionCounts.from_labels(labels, preds)
    benign = _prf(cc.tn, cc.fn, cc.fp)
    defective = _prf(cc.tp, cc.fp, cc.fn)
    return tuple((b + d) / 2 for b, d in zip(benign, defective))


def auc_fpr_mcc(labels, preds) -> tuple[float, float, float]:
    """AUC, false positive rate and Matthews correlation of 0/1 predictions.

    The AUC counts each (defective, benign) pair ranked right as 1 and each
    tie as 1/2: (2*tp*tn + tp*fp + tn*fn) / (2*P*N), one correctly rounded
    division of integers. A metric whose denominator is 0 (a class absent) is
    0.0.
    """
    if len(labels) == 0 or len(labels) != len(preds):
        raise ValueError("labels and preds must be equal-length and nonempty")
    cc = ConfusionCounts.from_labels(labels, preds)
    pos, neg = cc.tp + cc.fn, cc.tn + cc.fp
    auc = _safe_div(2 * cc.tp * cc.tn + cc.tp * cc.fp + cc.tn * cc.fn, 2 * pos * neg)
    fpr = _safe_div(cc.fp, neg)
    mcc_den = math.sqrt(float(cc.tp + cc.fp) * float(pos) * float(neg) * float(cc.tn + cc.fn))
    mcc = _safe_div(cc.tp * cc.tn - cc.fp * cc.fn, mcc_den)
    return auc, fpr, mcc


def harmonic_mean(a: float | None, b: float | None) -> float | None:
    """Harmonic mean with the absent-subset rule.

    Both sides absent -> absent; one absent -> it counts as zero; a zero sum
    -> zero.
    """
    if a is None and b is None:
        return None
    a = a if a is not None else 0.0
    b = b if b is not None else 0.0
    return _safe_div(2.0 * a * b, a + b)


class EvaluationReport(namedtuple("EvaluationReport", "method subset_accuracy hmb hmd populations "
                                  "auc fpr mcc counts excluded")):
    """One method's metrics over its prediction rows.

    subset_accuracy maps each transition subset to its accuracy or None;
    populations maps total, changed and unchanged to (P, R, F1) or None;
    counts maps each subset to its number of evaluated rows.
    """

    __slots__ = ()


def evaluate_predictions(rows) -> EvaluationReport:
    """Full report over prediction rows: anything with method, subset, new_label and
    pred_label.

    The report's method is the rows' one method, and "" when there is no
    row; rows of more than one method are a ValueError. Rows whose
    pred_label is None are excluded (and counted). Every transition subset
    is counted, and one with no evaluated rows reports accuracy None; other
    subsets are counted where they occur.
    """
    methods = {r.method for r in rows}
    if len(methods) > 1:
        raise ValueError(f"rows of more than one method: {sorted(methods)}")
    evaluated = [r for r in rows if r.pred_label is not None]
    counts = dict.fromkeys(SUBSET_ORDER, 0)
    hits = Counter()
    for r in evaluated:
        counts[r.subset] = counts.get(r.subset, 0) + 1
        hits[r.subset] += r.pred_label == r.new_label
    accuracy = {s: hits[s] / counts[s] if counts[s] else None for s in SUBSET_ORDER}

    populations: dict[str, tuple | None] = {}
    for name, keep in (("total", None), ("changed", CHANGED_SUBSETS),
                       ("unchanged", UNCHANGED_SUBSETS)):
        members = [r for r in evaluated if keep is None or r.subset in keep]
        populations[name] = macro_prf([r.new_label for r in members],
                                      [r.pred_label for r in members]) if members else None

    if evaluated:
        auc, fpr, mcc = auc_fpr_mcc([r.new_label for r in evaluated],
                                    [r.pred_label for r in evaluated])
    else:
        auc = fpr = mcc = 0.0
    return EvaluationReport(
        method=methods.pop() if methods else "",
        subset_accuracy=accuracy,
        hmb=harmonic_mean(accuracy["B00"], accuracy["D01"]),
        hmd=harmonic_mean(accuracy["B10"], accuracy["D11"]),
        populations=populations,
        auc=auc,
        fpr=fpr,
        mcc=mcc,
        counts=counts,
        excluded=len(rows) - len(evaluated),
    )


def _fmt(value, width=9, digits=4):
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:{width}.{digits}f}"


def render_text(report: EvaluationReport) -> str:
    """Aligned report table: subset accuracies, harmonic means, F1s, standard metrics."""
    lines = []
    header = (f"{'method':<22}{'B00':>9}{'D01':>9}{'D11':>9}{'B10':>9}"
              f"{'HMB':>9}{'HMD':>9}{'Changed':>9}{'Unchangd':>9}{'Total':>9}")
    lines.append(header)
    acc = report.subset_accuracy
    pops = report.populations
    f1 = lambda name: pops[name][2] if pops.get(name) else None
    lines.append(
        f"{report.method:<22}"
        + _fmt(acc.get("B00")) + _fmt(acc.get("D01")) + _fmt(acc.get("D11"))
        + _fmt(acc.get("B10")) + _fmt(report.hmb) + _fmt(report.hmd)
        + _fmt(f1("changed")) + _fmt(f1("unchanged")) + _fmt(f1("total")))
    total = pops.get("total")
    if total:
        lines.append("")
        lines.append(f"{'':<22}{'Prec':>9}{'Rec':>9}{'F1':>9}{'AUC':>9}{'FPR':>9}{'MCC':>9}")
        lines.append(f"{'standard (total)':<22}" + _fmt(total[0]) + _fmt(total[1])
                     + _fmt(total[2]) + _fmt(report.auc) + _fmt(report.fpr) + _fmt(report.mcc))
    lines.append("")
    count_bits = [f"{k}={v}" for k, v in sorted(report.counts.items())]
    lines.append("counts: " + " ".join(count_bits) + f" excluded={report.excluded}")
    return "\n".join(lines)


def report_csv_rows(report: EvaluationReport) -> list[list]:
    """Machine-readable key/value rows for the report CSV."""
    rows = [["metric", "value"]]
    rows.append(["method", report.method])
    for subset in SUBSET_ORDER:
        rows.append([f"acc_{subset}", report.subset_accuracy.get(subset)])
    rows.append(["hmb", report.hmb])
    rows.append(["hmd", report.hmd])
    for name in ("total", "changed", "unchanged"):
        prf = report.populations.get(name)
        for idx, metric in enumerate(("precision", "recall", "f1")):
            rows.append([f"{name}_{metric}", prf[idx] if prf else None])
    rows.append(["auc", report.auc])
    rows.append(["fpr", report.fpr])
    rows.append(["mcc", report.mcc])
    for key, value in sorted(report.counts.items()):
        rows.append([f"count_{key}", value])
    rows.append(["excluded", report.excluded])
    return rows
