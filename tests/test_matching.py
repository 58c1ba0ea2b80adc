import dataclasses
import importlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlens import kernels
from driftlens.corpus import VersionedFile, VersionSet, load_version, normalize_lines
from driftlens.matching import (
    EvolutionRecord,
    MatchParams,
    _gap_test_accept,
    dice_similarity,
    match_files,
    partition,
    similarity_lines,
)
from test_kernels import score_profile

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def vf(path, source, label=0, version="v"):
    return VersionedFile(path=path, source=source, label=label, version_id=version)


def vset(files, version="v"):
    return VersionSet(version_id=version, dataset_name="t", files=tuple(files))


def lines_file(path, lines, label=0, version="v"):
    return vf(path, "\n".join(lines) + "\n", label, version)


class TestDiceSimilarity:
    def test_identical_files(self):
        a = lines_file("A", ["x", "y", "z"])
        assert dice_similarity(a, a) == 1.0

    def test_direct_formula(self):
        a = lines_file("A", ["a", "b", "c"])
        b = lines_file("B", ["b", "c", "d"])
        assert dice_similarity(a, b) == pytest.approx(2 * 2 / 6)

    def test_disjoint(self):
        a = lines_file("A", ["a", "b"])
        b = lines_file("B", ["c", "d"])
        assert dice_similarity(a, b) == 0.0

    def test_both_empty(self):
        assert dice_similarity(vf("A", ""), vf("B", "")) == 1.0

    def test_trailing_whitespace_trimmed_only(self):
        a = lines_file("A", ["  keep indent  "])
        b = lines_file("B", ["  keep indent"])
        assert dice_similarity(a, b) == 1.0
        c = lines_file("C", ["keep indent"])
        assert dice_similarity(a, c) == 0.0

    def test_duplicate_lines_counted_once(self):
        a = lines_file("A", ["x", "x", "y"])
        b = lines_file("B", ["x", "y"])
        assert dice_similarity(a, b) == 1.0
        assert similarity_lines(a.source) == {"x", "y"}


def reference_similarity_lines(source):
    # The set over normalize_lines that similarity_lines replaced with one split.
    return {ln.rstrip() for ln in normalize_lines(source)}


@given(st.text(alphabet="ab \t\r\n\x0b\x1c\u3000", max_size=40))
@example("")
@example("\n")
@example("a\r\n\r\n")
@example("a \r")
@settings(max_examples=500, deadline=None)
def test_similarity_lines_equals_normalized_set(source):
    assert similarity_lines(source) == reference_similarity_lines(source)


def fraction_gap_test_accept(scores, params):
    # The acceptance rule in exact rational arithmetic: the top gap against
    # the gap mean plus c times the population standard deviation, with both
    # sides squared to keep the square root out.
    if scores[0] < params.threshold:
        return False
    if len(scores) == 1:
        return True
    exact = [Fraction(s) for s in scores]
    gaps = [a - b for a, b in zip(exact, exact[1:])]
    mu = sum(gaps) / len(gaps)
    variance = sum((g - mu) ** 2 for g in gaps) / len(gaps)
    lead = gaps[0] - mu
    return lead >= 0 and lead * lead >= Fraction(params.gap_multiplier) ** 2 * variance


# Dice-valued scores 2k/d over small denominators, so gaps repeat and tie,
# and any float in [0, 1] down to the smallest score a file can produce
score_lists = st.one_of(
    st.lists(st.builds(lambda k, d: 2.0 * min(k, d) / (2 * d) if d else 1.0,
                       st.integers(0, 40), st.integers(0, 40)),
             min_size=1, max_size=300),
    st.lists(st.one_of(st.just(0.0), st.floats(2.0 ** -969, 1.0)), min_size=1, max_size=50))


GAP_EXAMPLES = [
    ([1.0, 2 / 7, 0.1], 0.7, 1),   # top gap equals mean + sigma; floats rounded it below
    ([0.5], 0.3, 1),               # one candidate: the threshold alone
    ([0.0, 0.0, 0.0], 0.0, 1),     # all gaps zero
    ([1.0, 1.0], 0.7, 1),          # tied at the top, nothing below
    ([1.0, 1.0, 0.25], 0.7, 1),    # tied at the top above a lower score
]


def gap_examples(*extra):
    def decorate(test):
        for args in GAP_EXAMPLES:
            test = example(*args, *extra)(test)
        return test
    return decorate


@given(score_lists, st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.sampled_from([0.0, 0.5, 1, 2.5]))
@gap_examples()
@settings(max_examples=500, deadline=None)
def test_gap_test_equals_fraction_oracle(scores, threshold, gap_multiplier):
    ranked = sorted(scores, reverse=True)
    params = MatchParams(threshold, gap_multiplier)
    assert _gap_test_accept(score_profile(ranked), params) == (
        fraction_gap_test_accept(ranked, params))


@given(score_lists, st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.sampled_from([0.0, 0.5, 1, 2.5]),
       st.randoms(use_true_random=False))
@gap_examples(random.Random(0))
@settings(max_examples=500, deadline=None)
def test_gap_test_on_shuffled_scores_equals_fraction_oracle(scores, threshold, gap_multiplier,
                                                             rng):
    # match_files hands the gap test a query's scores in candidate order
    ranked = sorted(scores, reverse=True)
    params = MatchParams(threshold, gap_multiplier)
    expected = fraction_gap_test_accept(ranked, params)
    shuffled = list(scores)
    rng.shuffle(shuffled)
    assert _gap_test_accept(score_profile(shuffled), params) == expected
    assert _gap_test_accept(score_profile(ranked[::-1]), params) == expected  # tied top last


# lines that differ only in trailing blanks or a carriage return, which
# similarity_lines trims, plus lines that repeat within one file
LINE_POOL = ["int x;", "int x; ", "int x;\r", "return x;", "return x;\t", "}", "  }", "",
             "y++;", "z--;"]
PATH_POOL = [f"p/F{i}.java" for i in range(8)]


@st.composite
def version_sets(draw, version):
    files = []
    for path in draw(st.lists(st.sampled_from(PATH_POOL), min_size=1, max_size=6, unique=True)):
        lines = draw(st.lists(st.sampled_from(LINE_POOL), max_size=8))
        end = draw(st.sampled_from(["", "\n"]))
        files.append(vf(path, "\n".join(lines) + end, draw(st.integers(0, 1)), version))
    return vset(files, version)


def exact_text_match_files(old_set, new_set, params):
    # Every pending x candidate pair scored by dice_similarity on line text,
    # ranked by a stable sort and decided by the rational gap test; returns
    # the matches and each accepted score.
    matches = {f.path: f.path if f.path in old_set else None for f in new_set.files}
    pending = sorted((f for f in new_set.files if matches[f.path] is None), key=lambda f: f.path)
    candidates = sorted((f for f in old_set.files if f.path not in new_set),
                        key=lambda f: f.path)
    accepted = []
    for f in pending:
        ranked = sorted(((dice_similarity(c, f), c.path) for c in candidates),
                        key=lambda t: -t[0])
        if ranked and fraction_gap_test_accept([s for s, _ in ranked], params):
            accepted.append((ranked[0][0], f.path, ranked[0][1]))
    taken, scores = set(), {}
    for score, new_path, old_path in sorted(accepted, key=lambda t: (-t[0], t[1])):
        if old_path not in taken:
            taken.add(old_path)
            matches[new_path] = old_path
            scores[new_path] = score
    return matches, scores


@given(version_sets("v1"), version_sets("v2"), st.sampled_from([0.0, 0.3, 0.7]),
       st.sampled_from([0.0, 0.5, 1.0]))
@example(vset([lines_file("p/F0.java", ["int x;", "}"])], "v1"),
         vset([lines_file("p/F1.java", ["int x; ", "}\r"])], "v2"), 0.7, 1.0)
@settings(max_examples=300, deadline=None)
def test_match_files_equals_exact_text_reference(old_set, new_set, threshold, gap_multiplier):
    params = MatchParams(threshold, gap_multiplier)
    expected, scores = exact_text_match_files(old_set, new_set, params)
    kept = {}
    matches = match_files(old_set, new_set, params, scores=kept)
    assert matches == expected
    assert kept == scores  # bit for bit: the score the greedy pass kept
    records, _ = partition(old_set, new_set, matches)
    similar = {r.record_id: r.similarity for r in records if r.match_kind == "similarity"}
    assert similar == scores  # bit for bit: one equality relation, one formula
    assert partition(old_set, new_set, matches, kept)[0] == records


@pytest.mark.parametrize("seed", [3, 29])
def test_match_files_equals_reference_on_synthetic_pair(tmp_path, monkeypatch, seed):
    """A rename-baseline-shaped pair: same matches as the exact-text path, true records."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    shape = dataclasses.replace(workloads.WORKLOADS["rename-baseline"].corpus, files=150)
    paths = synth.write_pair(shape, seed, tmp_path)
    old_set, new_set = load_version(paths["old"]), load_version(paths["new"])
    scores = {}
    matches = match_files(old_set, new_set, scores=scores)
    assert (matches, scores) == exact_text_match_files(old_set, new_set, MatchParams())
    assert sum(1 for new, old in matches.items() if old not in (None, new)) > 10

    records, _ = partition(old_set, new_set, matches)
    assert partition(old_set, new_set, matches, scores)[0] == records
    truth = json.loads(paths["truth"].read_text(encoding="utf-8"))
    got = [{"new_path": r.new_file.path, "old_path": r.old_file.path if r.old_file else "",
            "match_kind": r.match_kind, "subset": r.subset,
            "old_label": r.old_file.label if r.old_file else "", "new_label": r.new_file.label}
           for r in records]
    assert got == truth


class TestMatchFiles:
    def test_path_match_wins_regardless_of_content(self):
        old = vset([lines_file("Same.java", ["completely", "different"])], "v1")
        new = vset([lines_file("Same.java", ["nothing", "shared"])], "v2")
        matches = match_files(old, new)
        assert matches == {"Same.java": "Same.java"}

    def test_single_candidate_skips_gap_test(self):
        old = vset([lines_file("Old.java", ["a", "b", "c", "d"])], "v1")
        new = vset([lines_file("New.java", ["a", "b", "c", "e"])], "v2")
        matches = match_files(old, new, MatchParams(threshold=0.7))
        assert matches["New.java"] == "Old.java"

    def test_single_candidate_below_threshold(self):
        old = vset([lines_file("Old.java", ["p", "q"])], "v1")
        new = vset([lines_file("New.java", ["x", "y"])], "v2")
        assert match_files(old, new)["New.java"] is None

    def test_predecessor_recovered_among_decoys(self):
        # synthetic fixture: predecessor keeps 80% of lines, 20 decoys <= 10%
        rng = random.Random(42)
        new_lines = [f"shared line {i}" for i in range(50)]
        pred = lines_file("old/Pred.java", new_lines[:40] + [f"pred only {i}" for i in range(10)])
        decoys = [
            lines_file(f"old/Decoy{d}.java",
                       rng.sample(new_lines, 5) + [f"decoy {d} line {i}" for i in range(45)])
            for d in range(20)
        ]
        old = vset([pred] + decoys, "v1")
        new = vset([lines_file("new/Moved.java", new_lines)], "v2")

        # brute-force oracle: all-pairs Dice plus the acceptance rule by hand
        newf = new.files[0]
        ranked = sorted(((dice_similarity(f, newf), f.path) for f in old.files), reverse=True)
        scores = [s for s, _ in ranked]
        gaps = [scores[i] - scores[i + 1] for i in range(len(scores) - 1)]
        mu = sum(gaps) / len(gaps)
        sigma = (sum((g - mu) ** 2 for g in gaps) / len(gaps)) ** 0.5
        assert scores[0] >= 0.7 and (scores[0] - scores[1]) >= mu + 1.0 * sigma
        assert ranked[0][1] == "old/Pred.java"

        matches = match_files(old, new, MatchParams(threshold=0.7, gap_multiplier=1.0))
        assert matches["new/Moved.java"] == "old/Pred.java"

    def test_one_to_one_enforced(self):
        shared = [f"line {i}" for i in range(20)]
        old = vset([lines_file("old/Orig.java", shared)], "v1")
        new = vset([
            lines_file("new/CloseCopy.java", shared[:18] + ["a", "b"]),
            lines_file("new/FarCopy.java", shared[:15] + ["c", "d", "e", "f", "g"]),
        ], "v2")
        matches = match_files(old, new, MatchParams(threshold=0.5))
        matched_to_orig = [p for p, o in matches.items() if o == "old/Orig.java"]
        assert matched_to_orig == ["new/CloseCopy.java"]
        assert matches["new/FarCopy.java"] is None

    def test_exact_copy_accepted_when_top_gap_equals_mean_plus_sigma(self):
        # scores 1, 2/7 and 1/10: with c = 1 and two gaps, mean + sigma is the
        # larger gap, which the top gap equals exactly
        old = vset([
            lines_file("old/A.java", ["a", "b", "c", "d"]),
            lines_file("old/B.java", ["a", "e", "f"]),
            lines_file("old/C.java", ["a"] + [f"c only {i}" for i in range(15)]),
        ], "v1")
        new = vset([lines_file("new/A.java", ["a", "b", "c", "d"])], "v2")
        assert match_files(old, new) == {"new/A.java": "old/A.java"}

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 1, 0), (1, 2, 0)])
    def test_score_tied_by_every_candidate_goes_to_the_first_path(self, order):
        # all three score 6/8: A holds the rare line x but lacks the common
        # line c, B and C share exactly the common lines. Every gap is zero,
        # so the gap test accepts, and the first path wins in any row order.
        files = [
            lines_file("old/A.java", ["a", "b", "x", "d"]),
            lines_file("old/B.java", ["a", "b", "c", "e"]),
            lines_file("old/C.java", ["a", "b", "c", "f"]),
        ]
        old = vset([files[k] for k in order], "v1")
        new = vset([lines_file("new/Q.java", ["a", "b", "c", "x"])], "v2")
        kept = {}
        assert match_files(old, new, scores=kept) == {"new/Q.java": "old/A.java"}
        assert kept == {"new/Q.java": 0.75}

    def test_path_matched_old_file_not_a_similarity_candidate(self):
        # a renamed file must not steal a still-present file's identity
        content = [f"line {i}" for i in range(30)]
        old = vset([lines_file("Keep.java", content)], "v1")
        new = vset([
            lines_file("Keep.java", content),
            lines_file("Renamed.java", content),
        ], "v2")
        matches = match_files(old, new, MatchParams(threshold=0.5))
        assert matches["Keep.java"] == "Keep.java"
        assert matches["Renamed.java"] is None


class TestPartition:
    def test_identical_version_sets(self):
        files = [lines_file("A.java", ["a"]), lines_file("B.java", ["b"], label=1)]
        old = vset(files, "v1")
        new = vset([lines_file("A.java", ["a"]), lines_file("B.java", ["b"], label=1)], "v2")
        records, stats = partition(old, new, match_files(old, new))
        assert stats.pct_same_source == 100.0
        assert stats.pct_b00 == stats.pct_removed == stats.pct_added == 0.0
        assert all(r.subset == "unchanged_source" for r in records)

    def test_toy_corpus_exhaustive(self):
        # 3-file toy: one label flip 0->1, one deletion, one same-source
        old = vset([
            lines_file("flip.java", ["v1 body"], label=0),
            lines_file("gone.java", ["deleted"], label=0),
            lines_file("same.java", ["stable"], label=0),
        ], "v1")
        new = vset([
            lines_file("flip.java", ["v2 body"], label=1),
            lines_file("same.java", ["stable"], label=0),
        ], "v2")
        records, stats = partition(old, new, match_files(old, new))
        by_path = {r.record_id: r for r in records}
        assert by_path["flip.java"].subset == "D01"
        assert by_path["same.java"].subset == "unchanged_source"
        assert stats.counts["removed"] == 1
        assert stats.counts["D01"] == 1
        assert stats.counts["same_source"] == 1
        assert stats.total() == pytest.approx(100.0, abs=1e-9)

    def test_every_new_file_has_one_record(self):
        old = vset([lines_file(f"f{i}.java", [f"l{i}"]) for i in range(5)], "v1")
        new = vset([lines_file(f"f{i}.java", [f"l{i}"]) for i in range(2, 8)], "v2")
        records, stats = partition(old, new, match_files(old, new))
        assert sorted(r.record_id for r in records) == sorted(new.paths)
        old_matched = [r.old_file.path for r in records if r.old_file]
        assert len(old_matched) == len(set(old_matched))
        assert stats.total() == pytest.approx(100.0, abs=1e-9)

    def test_subset_coding(self):
        pairs = {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}
        for (old_label, new_label), subset in pairs.items():
            old = vset([lines_file("f.java", ["one"], label=old_label)], "v1")
            new = vset([lines_file("f.java", ["two"], label=new_label)], "v2")
            records, _ = partition(old, new, match_files(old, new))
            assert records[0].subset == subset
            assert records[0].old_file.label == old_label
            assert records[0].new_file.label == new_label


class TestInvariants:
    def test_match_params_validation(self):
        with pytest.raises(ValueError):
            MatchParams(threshold=1.5)
        with pytest.raises(ValueError):
            MatchParams(gap_multiplier=-0.1)
        with pytest.raises(ValueError):
            MatchParams(gap_multiplier=math.nan)
        with pytest.raises(ValueError):
            MatchParams(gap_multiplier=math.inf)
        with pytest.raises(ValueError):
            MatchParams(threshold=math.nan)

    def test_added_record_requires_no_old_file(self):
        with pytest.raises(ValueError):
            EvolutionRecord(vf("n", "x"), vf("o", "y"), "path", "added")

    def test_transition_subset_requires_source_change(self):
        with pytest.raises(ValueError):
            EvolutionRecord(vf("n", "x"), vf("o", "x"), "path", "B00")
