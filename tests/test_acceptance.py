"""Acceptance suite: one test per criterion, each tagged A1..A9.

A1/A2 need the released PROMISE lucene CSVs (point DRIFTLENS_PROMISE_DIR at
a directory holding them, or drop them under data/promise/); they skip when
the files are absent. A9's live half needs endpoint credentials. Everything
else runs offline. Run with `pytest tests/test_acceptance.py -s` to see one
PASS line per criterion.
"""

import os
import random
import time
from pathlib import Path

import pytest

from driftlens import pipeline
from driftlens.context import extract_context
from driftlens.corpus import VersionedFile, VersionSet, load_version
from driftlens.debate import DebateConfig, run_debate
from driftlens.diffing import apply_unified, diff
from driftlens.llm import ScriptedChatClient, parse_prediction
from driftlens.matching import MatchParams, match_files, partition
from driftlens.metrics import auc_fpr_mcc, evaluate_predictions, harmonic_mean, macro_prf
from driftlens.pipeline import RunConfig
from driftlens.prompting import PREV_LABEL_MARKER, build_role_prompt


def ok(criterion: str, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS — {message}")


# ---------------------------------------------------------------------------
# A1/A2: PROMISE lucene reproduction (skipped without the released files)
# ---------------------------------------------------------------------------

def find_promise_pair():
    root = Path(os.environ.get("DRIFTLENS_PROMISE_DIR",
                               Path(__file__).resolve().parents[1] / "data" / "promise"))
    if not root.is_dir():
        return None
    old = sorted(root.glob("*lucene*2.9*.csv")) or sorted(root.glob("*2.9.0*.csv"))
    new = sorted(root.glob("*lucene*3.0*.csv")) or sorted(root.glob("*3.0.0*.csv"))
    if old and new:
        return old[0], new[0]
    return None


promise_pair = find_promise_pair()
needs_promise = pytest.mark.skipif(
    promise_pair is None,
    reason="PROMISE lucene CSVs not found (set DRIFTLENS_PROMISE_DIR)")


@needs_promise
def test_a1_naive_baseline_reproduction():
    started = time.monotonic()
    old_set = load_version(promise_pair[0], dataset_name="lucene")
    new_set = load_version(promise_pair[1], dataset_name="lucene")
    assert old_set.defective_fraction() * 100 == pytest.approx(8.41, abs=0.1)
    assert new_set.defective_fraction() * 100 == pytest.approx(5.61, abs=0.1)
    matches = match_files(old_set, new_set, MatchParams(0.7, 1.0))
    records, _ = partition(old_set, new_set, matches)
    report = evaluate_predictions(pipeline.baseline_rows(records, "label_persistent"),
                                  method="label_persistent")
    elapsed = time.monotonic() - started

    precision, recall, f1 = report.populations["total"]
    expected = {"precision": 0.6995, "recall": 0.7939, "f1": 0.7353,
                "auc": 0.7939, "fpr": 0.0523, "mcc": 0.4842}
    got = {"precision": precision, "recall": recall, "f1": f1,
           "auc": report.auc, "fpr": report.fpr, "mcc": report.mcc}
    for name, want in expected.items():
        assert got[name] == pytest.approx(want, abs=0.02), (name, got[name], want)
    assert elapsed < 60.0
    ok("A1", f"lucene naive row reproduced within ±0.02 in {elapsed:.1f}s: "
             + " ".join(f"{k}={v:.4f}" for k, v in got.items()))


@needs_promise
def test_a2_partition_reproduction():
    old_set = load_version(promise_pair[0], dataset_name="lucene")
    new_set = load_version(promise_pair[1], dataset_name="lucene")
    matches = match_files(old_set, new_set, MatchParams(0.7, 1.0))
    _, stats = partition(old_set, new_set, matches)
    expected = {"pct_same_source": 24.01, "pct_b00": 64.32, "pct_b10": 4.86,
                "pct_d11": 3.37, "pct_d01": 1.87, "pct_removed": 3.89, "pct_added": 1.57}
    for name, want in expected.items():
        assert getattr(stats, name) == pytest.approx(want, abs=2.0), (name, getattr(stats, name))
    assert stats.total() == pytest.approx(100.0, abs=0.01)
    ok("A2", "lucene partition percentages within ±2pp and summing to 100")


# ---------------------------------------------------------------------------
# A3: HMB/HMD spot checks on reference subset accuracies
# ---------------------------------------------------------------------------

def test_a3_hmb_hmd_spot_checks():
    hmb = harmonic_mean(0.71, 0.52)
    hmd = harmonic_mean(0.18, 0.80)
    assert hmb == pytest.approx(0.60, abs=0.005)
    assert hmd == pytest.approx(0.29, abs=0.01)
    ok("A3", f"HMB={hmb:.4f} (0.60±0.005), HMD={hmd:.4f} (0.29±0.01, prints as 0.30)")


# ---------------------------------------------------------------------------
# A4: matching property suite over seeded synthetic corpora
# ---------------------------------------------------------------------------

def synth_corpus(rng, trial):
    new_lines = [f"t{trial} shared {i}" for i in range(60)]
    kept = rng.sample(new_lines, 45)  # predecessor retains 75% of the lines
    pred_lines = kept + [f"t{trial} pred {i}" for i in range(15)]
    decoys = []
    for d in range(rng.randint(12, 20)):
        overlap = rng.randint(0, 12)  # Dice vs new file <= 0.2
        decoy_lines = rng.sample(new_lines, overlap) \
            + [f"t{trial} decoy {d} {i}" for i in range(60 - overlap)]
        decoys.append(VersionedFile(path=f"old/Decoy{d}.java",
                                    source="\n".join(decoy_lines) + "\n",
                                    label=0, version_id="v1"))
    predecessor = VersionedFile(path="old/Pred.java", source="\n".join(pred_lines) + "\n",
                                label=0, version_id="v1")
    new_file = VersionedFile(path="new/Moved.java", source="\n".join(new_lines) + "\n",
                             label=0, version_id="v2")
    return predecessor, decoys, new_file


def test_a4_matching_property_suite():
    started = time.monotonic()
    rng = random.Random(20260809)
    params = MatchParams(threshold=0.5, gap_multiplier=1.0)
    trials = 1000
    recovered = 0
    false_matches = 0
    for trial in range(trials):
        predecessor, decoys, new_file = synth_corpus(rng, trial)
        new_set = VersionSet("v2", "synth", (new_file,))
        with_pred = VersionSet("v1", "synth", tuple([predecessor] + decoys))
        if match_files(with_pred, new_set, params)["new/Moved.java"] == "old/Pred.java":
            recovered += 1
        without_pred = VersionSet("v1", "synth", tuple(decoys))
        if match_files(without_pred, new_set, params)["new/Moved.java"] is not None:
            false_matches += 1
    elapsed = time.monotonic() - started
    assert recovered / trials >= 0.99
    assert false_matches / trials <= 0.01
    assert elapsed < 120.0
    ok("A4", f"recovery {recovered}/{trials}, false matches {false_matches}/{trials} "
             f"in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A5: diff round-trip and the single-line loop-fix patch
# ---------------------------------------------------------------------------

DEFECTIVE_JAVA = """public class DefectExample {
    public static int calculateSum(int[] arr) {
        int total = 0;
        // Defective loop condition
        for (int i = 0; i <= arr.length; i++) {
            total += arr[i];
        }
        return total;
    }

    public static void main(String[] args) {
        int[] numbers = {1, 2, 3, 4, 5};
        System.out.println(calculateSum(numbers));
    }
}
"""
CORRECTED_JAVA = DEFECTIVE_JAVA.replace(
    "        // Defective loop condition\n"
    "        for (int i = 0; i <= arr.length; i++) {\n",
    "        // Corrected loop condition\n"
    "        for (int i = 0; i < arr.length; i++) {\n",
)


def test_a5_diff_round_trip_and_defect_example():
    rng = random.Random(55)
    alphabet = ["int x = 0;", "x += 1;", "", "return x;", "}", "{", "\tcall();", "// note"]
    for _ in range(1000):
        n_old, n_new = rng.randrange(0, 50), rng.randrange(0, 50)
        old = "\n".join(rng.choice(alphabet) for _ in range(n_old))
        new = "\n".join(rng.choice(alphabet) for _ in range(n_new))
        if old and rng.random() < 0.8:
            old += "\n"
        if new and rng.random() < 0.8:
            new += "\n"
        cs = diff(old, new, context_lines=rng.choice([0, 1, 3]))
        assert apply_unified(old, cs.unified) == new

    cs = diff(DEFECTIVE_JAVA, CORRECTED_JAVA, context_lines=3, path="DefectExample.java")
    lines = cs.unified.splitlines()
    assert lines[0] == "--- a/DefectExample.java"
    assert lines[1] == "+++ b/DefectExample.java"
    assert sum(1 for ln in lines if ln.startswith("@@")) == 1
    body = lines[3:]
    assert body[body.index("-        // Defective loop condition") + 1] == \
        "-        for (int i = 0; i <= arr.length; i++) {"
    assert body[body.index("+        // Corrected loop condition") + 1] == \
        "+        for (int i = 0; i < arr.length; i++) {"
    assert apply_unified(DEFECTIVE_JAVA, cs.unified) == CORRECTED_JAVA
    ok("A5", "1000 random round-trips exact; DefectExample patch reproduced hunk-for-hunk")


# ---------------------------------------------------------------------------
# A6: context expansion vs a brute-force BFS oracle on 20 known call graphs
# ---------------------------------------------------------------------------

def java_from_graph(edges, n_methods):
    lines = ["public class Fixture {"]
    call_targets = {i: [] for i in range(n_methods)}
    for a, b in edges:
        call_targets[a].append(b)
    for i in range(n_methods):
        lines.append(f"    public void m{i}() {{")
        lines.append(f"        int v{i} = {i};")
        lines.extend(f"        m{t}();" for t in call_targets[i])
        lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bfs_oracle(edges, seeds, depth):
    neighbors = {}
    for a, b in edges:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    visited = set(seeds)
    frontier = set(seeds)
    for _ in range(depth):
        frontier = {n for m in frontier for n in neighbors.get(m, ())} - visited
        if not frontier:
            break
        visited |= frontier
    return visited


def test_a6_context_oracle():
    rng = random.Random(606)
    fixtures = []
    for _ in range(20):
        n_methods = rng.randint(5, 10)
        n_edges = rng.randint(n_methods - 1, 2 * n_methods)
        edges = set()
        while len(edges) < n_edges:
            a, b = rng.randrange(n_methods), rng.randrange(n_methods)
            if a != b:
                edges.add((a, b))
        seed = rng.randrange(n_methods)
        fixtures.append((sorted(edges), n_methods, seed))

    for edges, n_methods, seed in fixtures:
        source = java_from_graph(edges, n_methods)
        edited = source.replace(f"int v{seed} = {seed};", f"int v{seed} = {seed} + 1;")
        cs = diff(source, edited)
        name_edges = [(f"m{a}", f"m{b}") for a, b in edges]
        for depth in (0, 1, 2, 3):
            bundle = extract_context(cs, edited, depth=depth, max_lines=10_000)
            expected = bfs_oracle(name_edges, {f"m{seed}"}, depth)
            assert set(bundle.included_methods) == expected, (edges, seed, depth)
        for budget in (0, 100, 400, 600):
            bundle = extract_context(cs, edited, depth=3, max_lines=budget)
            assert bundle.line_count <= budget
    ok("A6", "20 fixtures match the BFS oracle at depths 0-3; budgets 0/100/400/600 hold")


# ---------------------------------------------------------------------------
# A7: debate protocol suite (offline stub mode)
# ---------------------------------------------------------------------------

def random_record(rng, index):
    body_old = f"        int value = {rng.randrange(100)};"
    body_new = f"        int value = {rng.randrange(100, 200)};"
    template = ("public class R%d {\n    public int get() {\n%s\n        return value;\n"
                "    }\n}\n")
    old_label, new_label = rng.randint(0, 1), rng.randint(0, 1)
    old = VersionedFile(path=f"R{index}.java", source=template % (index, body_old),
                        label=old_label, version_id="v1")
    new = VersionedFile(path=f"R{index}.java", source=template % (index, body_new),
                        label=new_label, version_id="v2")
    subset = {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}[
        (old_label, new_label)]
    from driftlens.matching import EvolutionRecord

    return EvolutionRecord(new_file=new, old_file=old, match_kind="path", subset=subset)


def test_a7_debate_protocol_suite():
    rng = random.Random(707)
    record = random_record(rng, 0)
    cs = diff(record.old_file.source, record.new_file.source)
    ctx = extract_context(cs, record.new_file.source, depth=2, max_lines=200)

    for rounds, expected in ((1, 4), (2, 6), (3, 8)):
        transcript = run_debate(record, cs, ctx, DebateConfig(rounds=rounds),
                                ScriptedChatClient())
        assert len(transcript.messages) == expected

    for index in range(200):
        rec = random_record(rng, index)
        rcs = diff(rec.old_file.source, rec.new_file.source)
        rctx = extract_context(rcs, rec.new_file.source, depth=1, max_lines=100)
        analyzer = build_role_prompt("analyzer", rec, rcs, rctx)
        history = [("analyzer", 0, "summary"), ("proposer", 1, "keep it")]
        skeptic = build_role_prompt("skeptic", rec, rcs, rctx, history=history, round_no=1)
        judge = build_role_prompt(
            "judge", rec, rcs, rctx,
            history=history + [("skeptic", 1, "doubt it")], round_no=2)
        for prompt in (analyzer.user, skeptic.user):
            assert PREV_LABEL_MARKER not in prompt
            assert "[SRC1] →" not in prompt
        assert judge.user.count(PREV_LABEL_MARKER) == 1

    formats = [
        '{"explanation": "e", "prediction": "Defective"}',
        "### Final Prediction: BENIGN\n### Confidence: 90",
        "After consideration the file seems Benign.",
        "no verdict of any kind ###",
    ]
    expected_paths = ["json", "marker", "regex_fallback", "failed"]
    for raw, path in zip(formats, expected_paths):
        parsed = parse_prediction(raw, "judge_markers")
        assert parsed.parse_path == path
        assert (parsed.label is None) == (path == "failed")
    ok("A7", "schedules 4/6/8 for R=1..3; hygiene holds on 200 records; judge parsing total")


# ---------------------------------------------------------------------------
# A8: metric oracle agreement to 1e-12
# ---------------------------------------------------------------------------

def oracle_confusion_metrics(labels, preds):
    per_class = []
    for cls in (0, 1):
        tp = sum(1 for l, p in zip(labels, preds) if p == cls and l == cls)
        fp = sum(1 for l, p in zip(labels, preds) if p == cls and l != cls)
        fn = sum(1 for l, p in zip(labels, preds) if p != cls and l == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1))
    macro = tuple(sum(pc[k] for pc in per_class) / 2 for k in range(3))
    tp = sum(1 for l, p in zip(labels, preds) if l == 1 and p == 1)
    fp = sum(1 for l, p in zip(labels, preds) if l == 0 and p == 1)
    tn = sum(1 for l, p in zip(labels, preds) if l == 0 and p == 0)
    fn = sum(1 for l, p in zip(labels, preds) if l == 1 and p == 0)
    pos = [p for l, p in zip(labels, preds) if l == 1]
    neg = [p for l, p in zip(labels, preds) if l == 0]
    if pos and neg:
        auc = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg) \
            / (len(pos) * len(neg))
    else:
        auc = 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    den = ((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) ** 0.5
    mcc = (tp * tn - fp * fn) / den if den else 0.0
    return macro, auc, fpr, mcc


def test_a8_metric_oracle():
    rng = random.Random(808)
    for _ in range(500):
        n = rng.randrange(1, 13)
        labels = [rng.randint(0, 1) for _ in range(n)]
        preds = [rng.randint(0, 1) for _ in range(n)]
        macro_want, auc_want, fpr_want, mcc_want = oracle_confusion_metrics(labels, preds)
        macro_got = macro_prf(labels, preds)
        auc_got, fpr_got, mcc_got = auc_fpr_mcc(labels, preds)
        for got, want in zip(macro_got, macro_want):
            assert abs(got - want) <= 1e-12
        assert abs(auc_got - auc_want) <= 1e-12
        assert abs(fpr_got - fpr_want) <= 1e-12
        assert abs(mcc_got - mcc_want) <= 1e-12
        if 0 < sum(labels) < n:
            tpr = sum(1 for l, p in zip(labels, preds) if l == 1 and p == 1) / sum(labels)
            tnr = sum(1 for l, p in zip(labels, preds) if l == 0 and p == 0) \
                / (n - sum(labels))
            assert abs(auc_got - (tpr + tnr) / 2) <= 1e-12
    ok("A8", "macro P/R/F1, AUC, FPR, MCC match the brute-force oracle on 500 vectors")


# ---------------------------------------------------------------------------
# A9: end-to-end harness; live numbers are not targets
# ---------------------------------------------------------------------------

def small_corpus(tmp_path):
    from snapshot_csv import write_version

    def java_file(path, body, label, version):
        name = path.split("/")[-1].removesuffix(".java")
        source = (f"public class {name} {{\n    public int work(int a) {{\n"
                  f"        {body}\n    }}\n}}\n")
        return VersionedFile(path=path, source=source, label=label, version_id=version)

    old = [java_file(f"pkg/F{i}.java", f"return a + {i};", i % 2, "v1") for i in range(12)]
    new = [java_file(f"pkg/F{i}.java", f"return a * {i};", (i + 1) % 2, "v2") for i in range(12)]
    old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
    write_version(VersionSet("v1", "tiny", tuple(old)), old_csv)
    write_version(VersionSet("v2", "tiny", tuple(new)), new_csv)
    return old_csv, new_csv


def check_report_well_formed(report, max_records):
    evaluated = sum(v for k, v in report.counts.items() if k != "union")
    assert evaluated <= max_records
    for value in report.subset_accuracy.values():
        assert value is None or 0.0 <= value <= 1.0
    assert report.populations["total"] is not None


def test_a9_offline_harness_end_to_end(tmp_path):
    old_csv, new_csv = small_corpus(tmp_path)
    config = RunConfig(dataset="tiny", old_csv=str(old_csv), new_csv=str(new_csv),
                       method="M5", stub=True, caps="B00=3,B10=3,D01=3,D11=1",
                       out_dir=str(tmp_path / "stub_run"))
    report, artifacts = pipeline.run(config)
    check_report_well_formed(report, 10)
    assert artifacts["report_txt"].exists() and artifacts["manifest"].exists()
    ok("A9", "offline stub run on <=10 records produced a well-formed report "
             "(live tables are explicitly not acceptance targets)")


@pytest.mark.skipif(not os.environ.get("DRIFTLENS_API_KEY"),
                    reason="live endpoint credentials not supplied")
def test_a9_live_run_when_credentialed(tmp_path):
    old_csv, new_csv = small_corpus(tmp_path)
    config = RunConfig(dataset="tiny", old_csv=str(old_csv), new_csv=str(new_csv),
                       method="M5", stub=False, caps="B00=3,B10=3,D01=3,D11=1",
                       model=os.environ.get("DRIFTLENS_LIVE_MODEL", "gpt-5-mini"),
                       out_dir=str(tmp_path / "live_run"))
    report, _ = pipeline.run(config)
    check_report_well_formed(report, 10)
    ok("A9-live", "live end-to-end run on <=10 records produced a well-formed report")
