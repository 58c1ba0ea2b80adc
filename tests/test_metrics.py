import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlens.corpus import VersionedFile
from driftlens.matching import EvolutionRecord
from driftlens.baselines import predict_naive
from driftlens.metrics import (
    ConfusionCounts,
    auc_fpr_mcc,
    evaluate_predictions,
    harmonic_mean,
    macro_prf,
    render_text,
    report_csv_rows,
)
from driftlens.pipeline import PredictionRow, baseline_rows


# ---------------------------------------------------------------------------
# independent oracles: the textbook definitions, counted pair by pair
# ---------------------------------------------------------------------------

def oracle_prf(labels, preds):
    per_class = []
    for cls in (0, 1):
        tp = fp = fn = 0
        for l, p in zip(labels, preds):
            if p == cls and l == cls:
                tp += 1
            elif p == cls and l != cls:
                fp += 1
            elif p != cls and l == cls:
                fn += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    return tuple(sum(pc[k] for pc in per_class) / 2 for k in range(3))


def oracle_auc(labels, scores):
    pos = [s for l, s in zip(labels, scores) if l == 1]
    neg = [s for l, s in zip(labels, scores) if l == 0]
    if not pos or not neg:
        return 0.0
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def rank_sum_auc(labels, scores):
    # The Mann-Whitney AUC as a rank sum: a stable sort of the scores, each
    # run of tied scores at its average 1-based rank, and the positives'
    # rank sum less its least possible value, over the pair count.
    order = sorted(range(len(scores)), key=scores.__getitem__)
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = (i + j) / 2.0 + 1.0
        i = j + 1
    pos, neg = labels.count(1), labels.count(0)
    if not pos or not neg:
        return 0.0
    rank_sum = sum(r for l, r in zip(labels, ranks) if l == 1)
    return (rank_sum - pos * (pos + 1) / 2.0) / (pos * neg)


def oracle_fpr_mcc(labels, preds):
    tp = sum(1 for l, p in zip(labels, preds) if l == 1 and p == 1)
    fp = sum(1 for l, p in zip(labels, preds) if l == 0 and p == 1)
    tn = sum(1 for l, p in zip(labels, preds) if l == 0 and p == 0)
    fn = sum(1 for l, p in zip(labels, preds) if l == 1 and p == 0)
    fpr = fp / (fp + tn) if fp + tn else 0.0
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / den if den else 0.0
    return fpr, mcc


def reference_auc_fpr_mcc(labels, preds):
    return (rank_sum_auc(labels, preds), *oracle_fpr_mcc(labels, preds))


def as_hex(values):
    return tuple(float.hex(v) for v in values)


binary_pairs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1,
                        max_size=80)


class TestBitExactReferences:
    @settings(max_examples=500, deadline=None)
    @given(binary_pairs)
    def test_macro_prf_equals_oracle(self, pairs):
        labels, preds = [l for l, _ in pairs], [p for _, p in pairs]
        assert as_hex(macro_prf(labels, preds)) == as_hex(oracle_prf(labels, preds))

    @settings(max_examples=400, deadline=None)
    @given(binary_pairs)
    def test_auc_fpr_mcc_equals_rank_sum(self, pairs):
        labels, preds = [l for l, _ in pairs], [p for _, p in pairs]
        got = auc_fpr_mcc(labels, preds)
        assert all(type(v) is float for v in got)
        assert as_hex(got) == as_hex(reference_auc_fpr_mcc(labels, preds))


def test_confusion_counts_reject_unequal_lengths():
    with pytest.raises(ValueError):
        ConfusionCounts.from_labels([1, 0, 1], [1])  # a broadcast would count tp=2, fp=1
    with pytest.raises(ValueError):
        ConfusionCounts.from_labels([1], [1, 1])
    assert ConfusionCounts.from_labels([], []) == ConfusionCounts(0, 0, 0, 0)


@pytest.mark.parametrize("labels, preds", [([1, 2], [1, 1]), ([1, 0], [1, 0.5]),
                                           ([0, 1], [None, 1]), ([-1, 1], [0, 1])])
def test_labels_and_predictions_outside_0_1_rejected(labels, preds):
    # from_labels used to drop such pairs: ([1, 2], [1, 1]) counted one pair
    for score in (ConfusionCounts.from_labels, macro_prf, auc_fpr_mcc):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            score(labels, preds)


def rank_sum_on_counts(tp, fp, tn, fn):
    """reference_auc_fpr_mcc over the vectors of one confusion matrix, from its counts.

    Predictions 0 and 1 form two ties, which a stable sort ranks as 0-based
    runs [0, n0) and [n0, n0 + n1), each at its average 1-based rank.
    """
    n0, n1 = tn + fn, tp + fp
    rank0 = (0 + (n0 - 1)) / 2.0 + 1.0
    rank1 = (n0 + (n0 + n1 - 1)) / 2.0 + 1.0
    pos, neg = tp + fn, tn + fp
    auc = (fn * rank0 + tp * rank1 - pos * (pos + 1) / 2.0) / (pos * neg) if pos * neg else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    mcc = (tp * tn - fp * fn) / den if den else 0.0
    return auc, fpr, mcc


def vectors_with_counts(tp, fp, tn, fn):
    """0/1 labels and predictions whose confusion matrix is (tp, fp, tn, fn)."""
    return [1] * tp + [0] * fp + [0] * tn + [1] * fn, [1] * (tp + fp) + [0] * (tn + fn)


def test_auc_fpr_mcc_equals_rank_sum_on_every_small_confusion_matrix():
    grid = [m for m in itertools.product(range(23), repeat=4) if any(m)]
    assert len(grid) == 279_840
    for k in range(0, len(grid), 4099):  # spot checks: the closed form is the reference
        assert as_hex(reference_auc_fpr_mcc(*vectors_with_counts(*grid[k]))) == \
            as_hex(rank_sum_on_counts(*grid[k]))
    for counts in grid:
        assert as_hex(auc_fpr_mcc(*vectors_with_counts(*counts))) == \
            as_hex(rank_sum_on_counts(*counts)), counts


def row(record_id, subset, new_label, pred_label, old_label=None):
    return PredictionRow(record_id, subset, old_label, new_label, pred_label, None,
                         "json", "demo")


def rec(record_id, subset, old_label, new_label):
    old = None
    if subset != "added":
        source = "old body\n" if subset != "unchanged_source" else "same\n"
        old = VersionedFile(path=record_id, source=source, label=old_label, version_id="v1")
    new_source = "same\n" if subset == "unchanged_source" else "new body\n"
    new = VersionedFile(path=record_id, source=new_source, label=new_label, version_id="v2")
    kind = "none" if subset == "added" else "path"
    return EvolutionRecord(new_file=new, old_file=old, match_kind=kind, subset=subset)


class TestMacroPRF:
    def test_all_correct_both_classes(self):
        assert macro_prf([0, 1, 0, 1], [0, 1, 0, 1]) == (1.0, 1.0, 1.0)

    def test_hand_computed_counts(self):
        # tp=2 fp=1 fn=1 tn=6 over the defective class
        labels = [1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
        preds = [1, 1, 0, 1, 0, 0, 0, 0, 0, 0]
        assert ConfusionCounts.from_labels(labels, preds) == ConfusionCounts(2, 1, 6, 1)
        _, _, f1 = macro_prf(labels, preds)
        assert f1 == pytest.approx(0.7619, abs=5e-5)

    def test_absent_class_uses_zero_convention(self):
        p, r, f1 = macro_prf([0, 0], [0, 0])
        assert (p, r, f1) == (0.5, 0.5, 0.5)  # defective class contributes zeros

    def test_oracle_agreement_500_vectors(self):
        rng = random.Random(123)
        for _ in range(500):
            n = rng.randrange(1, 13)
            labels = [rng.randint(0, 1) for _ in range(n)]
            preds = [rng.randint(0, 1) for _ in range(n)]
            got = macro_prf(labels, preds)
            want = oracle_prf(labels, preds)
            assert got == pytest.approx(want, abs=1e-12)


class TestAucFprMcc:
    def test_perfect_separation(self):
        auc, _, _ = auc_fpr_mcc([0, 0, 1, 1], [0, 0, 1, 1])
        assert auc == 1.0

    def test_binary_auc_equals_balanced_accuracy(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randrange(2, 20)
            labels = [rng.randint(0, 1) for _ in range(n)]
            preds = [rng.randint(0, 1) for _ in range(n)]
            if len(set(labels)) < 2:
                continue
            auc, _, _ = auc_fpr_mcc(labels, preds)
            tpr = sum(1 for l, p in zip(labels, preds) if l == 1 and p == 1) / labels.count(1)
            tnr = sum(1 for l, p in zip(labels, preds) if l == 0 and p == 0) / labels.count(0)
            assert auc == pytest.approx((tpr + tnr) / 2, abs=1e-12)

    def test_oracle_agreement(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randrange(1, 14)
            labels = [rng.randint(0, 1) for _ in range(n)]
            preds = [rng.randint(0, 1) for _ in range(n)]
            auc, fpr, mcc = auc_fpr_mcc(labels, preds)
            assert auc == pytest.approx(oracle_auc(labels, preds), abs=1e-12)
            want_fpr, want_mcc = oracle_fpr_mcc(labels, preds)
            assert fpr == pytest.approx(want_fpr, abs=1e-12)
            assert mcc == pytest.approx(want_mcc, abs=1e-12)

    def test_degenerate_population(self):
        auc, fpr, mcc = auc_fpr_mcc([1, 1], [1, 0])
        assert auc == 0.0 and fpr == 0.0 and mcc == 0.0


class TestHarmonicMeans:
    def test_reference_spot_values(self):
        assert harmonic_mean(0.71, 0.52) == pytest.approx(0.60, abs=0.005)
        assert harmonic_mean(0.18, 0.80) == pytest.approx(0.29, abs=0.01)

    def test_zero_annihilates(self):
        assert harmonic_mean(0.9, 0.0) == 0.0

    def test_symmetry_and_min_bound(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b = rng.random(), rng.random()
            assert harmonic_mean(a, b) == pytest.approx(harmonic_mean(b, a), abs=1e-15)
            assert harmonic_mean(a, b) <= 2 * min(a, b) + 1e-15

    def test_absent_subset_rule(self):
        assert harmonic_mean(None, None) is None
        assert harmonic_mean(0.8, None) == 0.0
        assert harmonic_mean(None, 0.8) == 0.0


class TestSubsetMetrics:
    def make_rows(self, preds):
        truth = {"b00_hit": ("B00", 0), "b00_miss": ("B00", 0), "b10": ("B10", 0),
                 "d01": ("D01", 1), "d11": ("D11", 1)}
        return [row(rid, subset, label, preds[rid]) for rid, (subset, label) in truth.items()
                if rid in preds]

    def test_accuracies_and_hms(self):
        rows = self.make_rows({"b00_hit": 0, "b00_miss": 1, "b10": 1, "d01": 1, "d11": 1})
        report = evaluate_predictions(rows)
        assert report.subset_accuracy["B00"] == 0.5
        assert report.subset_accuracy["B10"] == 0.0
        assert report.subset_accuracy["D01"] == 1.0
        assert report.subset_accuracy["D11"] == 1.0
        assert report.hmb == pytest.approx(2 * 0.5 * 1.0 / 1.5)
        assert report.hmd == 0.0

    def test_excluded_records_counted(self):
        rows = self.make_rows({"b00_hit": 0, "b00_miss": None, "b10": 1, "d01": None, "d11": 1})
        report = evaluate_predictions(rows)
        assert report.excluded == 2
        assert report.subset_accuracy["D01"] is None
        assert report.counts == {"B00": 1, "B10": 1, "D11": 1, "D01": 0}

    def test_empty_subset_absent_not_zero(self):
        rows = [row("b00", "B00", 0, 0), row("d11", "D11", 1, 1)]
        report = evaluate_predictions(rows)
        assert report.subset_accuracy["B10"] is None
        assert report.subset_accuracy["D01"] is None
        assert report.hmb == 0.0  # partner B00 exists
        assert report.hmd == pytest.approx(0.0)  # D11 exists, B10 absent

    def test_changed_unchanged_populations(self):
        rows = self.make_rows(dict.fromkeys(("b00_hit", "b00_miss", "b10", "d01", "d11"), 0))
        report = evaluate_predictions(rows)
        assert report.populations["changed"] is not None
        assert report.populations["unchanged"] is not None


class TestNaiveBaselineProperties:
    def test_persistence_exact_on_subsets(self):
        records = [
            rec("a", "B00", 0, 0), rec("b", "B10", 1, 0),
            rec("c", "D01", 0, 1), rec("d", "D11", 1, 1),
        ]
        report = evaluate_predictions(baseline_rows(records, "label_persistent"))
        assert report.subset_accuracy["B00"] == 1.0
        assert report.subset_accuracy["D11"] == 1.0
        assert report.subset_accuracy["B10"] == 0.0
        assert report.subset_accuracy["D01"] == 0.0
        assert report.hmb == 0.0 and report.hmd == 0.0

    def test_added_predicted_benign(self):
        records = [rec("new", "added", None, 1), rec("keep", "D11", 1, 1)]
        preds = predict_naive(records, "label_persistent")
        assert preds["new"] == 0
        assert preds["keep"] == 1

    def test_all_benign_constant(self):
        records = [rec("a", "D11", 1, 1), rec("b", "added", None, 0)]
        preds = predict_naive(records, "all_benign")
        assert set(preds.values()) == {0}

    def test_synthetic_persistence_bound(self):
        # flip labels with probability eps; persistence accuracy >= 1-eps-3*sigma
        rng = random.Random(99)
        n = 1000
        for eps in (0.05, 0.15):
            records = []
            for i in range(n):
                old_label = rng.randint(0, 1)
                flip = rng.random() < eps
                new_label = 1 - old_label if flip else old_label
                subset = {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}[
                    (old_label, new_label)]
                records.append(rec(f"f{i}", subset, old_label, new_label))
            preds = predict_naive(records, "label_persistent")
            accuracy = sum(
                1 for r in records if preds[r.record_id] == r.new_file.label) / n
            sigma = (eps * (1 - eps) / n) ** 0.5
            assert accuracy >= 1 - eps - 3 * sigma


class TestReportRendering:
    def test_text_and_csv(self):
        rows = [row("a", "B00", 0, 0), row("b", "D01", 1, 0), row("s", "unchanged_source", 0, 0)]
        report = evaluate_predictions(rows)
        text = render_text(report)
        assert "demo" in text
        assert "HMB" in text and "HMD" in text
        assert text.endswith("counts: B00=1 B10=0 D01=1 D11=0 unchanged_source=1 excluded=0")
        rows = report_csv_rows(report)
        keys = [row[0] for row in rows]
        assert "acc_B00" in keys and "hmb" in keys and "total_f1" in keys
        assert keys[-1] == "excluded"
        assert report.counts["unchanged_source"] == 1

    def test_method_is_the_rows_one_method(self):
        assert evaluate_predictions([]).method == ""
        other = PredictionRow("b", "D01", None, 1, 1, None, "json", "other")
        with pytest.raises(ValueError, match="more than one method"):
            evaluate_predictions([row("a", "B00", 0, 0), other])

    def test_report_values_in_unit_range(self):
        report = evaluate_predictions([row("a", "B00", 0, 0), row("b", "D01", 1, 1)])
        for subset, value in report.subset_accuracy.items():
            if value is not None:
                assert 0.0 <= value <= 1.0
        for prf in report.populations.values():
            if prf:
                assert all(0.0 <= v <= 1.0 for v in prf)
