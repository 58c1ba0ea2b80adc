import difflib
import hashlib
import importlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlens import kernels
from driftlens.diffing import (
    ChangeSet,
    _scan_hunks,
    apply_unified,
    diff,
    render_difference_list,
    split_keepends,
)
from driftlens.errors import DataError

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

# Hand-derived oracle: changed old lines are 4-5, three lines of context on
# each side gives a single hunk covering lines 1-8 of both versions.
EXPECTED_PATCH = """--- a/DefectExample.java
+++ b/DefectExample.java
@@ -1,8 +1,8 @@
 public class DefectExample {
     public static int calculateSum(int[] arr) {
         int total = 0;
-        // Defective loop condition
-        for (int i = 0; i <= arr.length; i++) {
+        // Corrected loop condition
+        for (int i = 0; i < arr.length; i++) {
             total += arr[i];
         }
         return total;
"""


def test_identical_texts_empty_changeset():
    cs = diff("a\nb\n", "a\nb\n")
    assert cs.is_empty
    assert cs.unified == ""
    assert cs.changed_new_lines == ()


def test_empty_iff_identical():
    cs = diff("a\nb", "a\nb\n")  # differ only in trailing newline
    assert not cs.is_empty


def test_three_line_replacement():
    cs = diff("a\nb\nc", "a\nx\nc")
    assert cs.removed == ((2, "b"),)
    assert cs.added == ((2, "x"),)
    assert cs.changed_new_lines == (2,)


def test_defect_example_patch_reproduced():
    cs = diff(DEFECTIVE_JAVA, CORRECTED_JAVA, context_lines=3, path="DefectExample.java")
    assert cs.unified == EXPECTED_PATCH
    assert cs.unified.count("@@") == 2  # one hunk
    assert apply_unified(DEFECTIVE_JAVA, cs.unified) == CORRECTED_JAVA


def random_text(rng, alphabet, max_lines=40):
    n = rng.randrange(0, max_lines)
    body = "\n".join(rng.choice(alphabet) for _ in range(n))
    if body and rng.random() < 0.8:
        body += "\n"
    return body


@pytest.mark.parametrize("seed", [0, 1])
def test_round_trip_random_pairs(seed):
    rng = random.Random(seed)
    alphabet = ["x = 1;", "y += 2;", "", "return x;", "}", "{", "  indented"]
    for _ in range(500):
        old = random_text(rng, alphabet)
        new = random_text(rng, alphabet)
        context = rng.choice([0, 1, 3])
        cs = diff(old, new, context_lines=context)
        assert apply_unified(old, cs.unified) == new


def parse_unified(unified):
    # An oracle for rendering: the (added, removed) line lists read back
    # from a unified diff text by the hunk scanner apply_unified uses.
    added = []
    removed = []
    for old_start, old_count, new_start, new_count, body in _scan_hunks(unified):
        old_ln = old_start if old_count else old_start + 1
        new_ln = new_start if new_count else new_start + 1
        for tag, text, _ in body:
            if tag == " ":
                old_ln += 1
                new_ln += 1
            elif tag == "-":
                removed.append((old_ln, text))
                old_ln += 1
            else:
                added.append((new_ln, text))
                new_ln += 1
    return tuple(added), tuple(removed)


def test_unified_parses_back_to_same_multisets():
    rng = random.Random(3)
    alphabet = ["alpha", "beta", "gamma", ""]
    for _ in range(200):
        old = random_text(rng, alphabet, 20)
        new = random_text(rng, alphabet, 20)
        cs = diff(old, new, context_lines=rng.choice([0, 2, 3]))
        added, removed = parse_unified(cs.unified)
        assert sorted(added) == sorted(cs.added)
        assert sorted(removed) == sorted(cs.removed)


def test_symmetry_under_swap():
    rng = random.Random(5)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(300):
        old = random_text(rng, alphabet, 15)
        new = random_text(rng, alphabet, 15)
        fwd = diff(old, new)
        rev = diff(new, old)
        assert sorted(fwd.added) == sorted(rev.removed)
        assert sorted(fwd.removed) == sorted(rev.added)


@given(st.text(alphabet="ab\n", max_size=60), st.text(alphabet="ab\n", max_size=60))
@settings(max_examples=150, deadline=None)
def test_round_trip_hypothesis(old, new):
    cs = diff(old, new)
    assert apply_unified(old, cs.unified) == new


def test_minimality_bound():
    rng = random.Random(9)
    alphabet = ["p", "q", "r"]
    for _ in range(100):
        old = random_text(rng, alphabet, 12)
        new = random_text(rng, alphabet, 12)
        cs = diff(old, new)
        assert len(cs.added) + len(cs.removed) <= \
            len(split_keepends(old)) + len(split_keepends(new))


def reference_split_keepends(source):
    # The str.split body that split_keepends replaced with StringIO.readlines.
    if not source:
        return []
    parts = source.split("\n")
    last = parts.pop()
    pieces = [p + "\n" for p in parts]
    if last != "":
        pieces.append(last)
    return pieces


# every line boundary str.splitlines knows, of which only "\n" may split
@given(st.lists(st.sampled_from(["a", "b", " ", "\n", "\r", "\r\n", "\x0b", "\x1c", "\x85",
                                 "\u2028", "\u2029", "\x0c", "\x1e"])).map("".join))
@example("")
@example("a\r\nb\rc\u2028d\n")
@settings(max_examples=500, deadline=None)
def test_split_keepends_splits_on_newline_only(source):
    assert split_keepends(source) == reference_split_keepends(source)


# two line lists over 1-4 symbols around an optional shared prefix and
# suffix, the shape of test_kernels' line_pairs
line_pairs = st.integers(1, 4).flatmap(lambda size: st.tuples(
    *[st.lists(st.sampled_from("abcd"[:size]), max_size=max_size)
      for max_size in (8, 44, 44, 8)])).map(
    lambda parts: (parts[0] + parts[1] + parts[3], parts[0] + parts[2] + parts[3]))


class KernelBlocks(difflib.SequenceMatcher):
    # stdlib's matcher over the kernel's alignment, so get_grouped_opcodes
    # groups exactly the matching blocks diff() renders
    def __init__(self, a, b):
        super().__init__(None, a, b, autojunk=False)
        self.matching_blocks = kernels.lcs_pairs(a, b) + [(len(a), len(b), 0)]


def reference_unified(old, new, context, path):
    # An oracle for hunk grouping: stdlib's get_grouped_opcodes rendered
    # with stdlib's range format and the no-newline marker.
    a, b = split_keepends(old), split_keepends(new)
    out = []

    def emit(prefix, pieces):
        for piece in pieces:
            out.append(prefix + piece.removesuffix("\n"))
            if not piece.endswith("\n"):
                out.append("\\ No newline at end of file")

    for group in KernelBlocks(a, b).get_grouped_opcodes(context):
        i1, i2, j1, j2 = group[0][1], group[-1][2], group[0][3], group[-1][4]
        out.append(f"@@ -{difflib._format_range_unified(i1, i2)} "
                   f"+{difflib._format_range_unified(j1, j2)} @@")
        for tag, a1, a2, b1, b2 in group:
            if tag == "equal":
                emit(" ", a[a1:a2])
            else:
                emit("-", a[a1:a2])
                emit("+", b[b1:b2])
    return f"--- a/{path}\n+++ b/{path}\n" + "\n".join(out) + "\n" if out else ""


def text_of(lines, final_newline):
    return "\n".join(lines) + ("\n" if lines and final_newline else "")


@given(line_pairs, st.booleans(), st.booleans(), st.integers(0, 5))
@example(([], []), True, True, 3)
@example((["a"], []), False, True, 0)
@example(([], ["a", "b"]), True, False, 1)
@example((["a", "b"], ["a", "b"]), True, False, 2)
@example((["a"] * 10, ["a"] * 39), False, False, 3)
@settings(max_examples=500, deadline=None)
def test_unified_equals_difflib_grouping_of_kernel_blocks(pair, old_ends, new_ends, context):
    old, new = text_of(pair[0], old_ends), text_of(pair[1], new_ends)
    assert diff(old, new, context, "p").unified == reference_unified(old, new, context, "p")


def test_changed_new_lines_match_added():
    cs = diff("a\nb\nc\n", "a\nB\nc\nd\n")
    assert cs.changed_new_lines == tuple(sorted(n for n, _ in cs.added))


@pytest.mark.parametrize("old, new, lines", [
    ("a\nb\nc\n", "b\nc\n", (1,)),                 # at the start: the line after
    ("a\nb\nc\n", "a\nc\n", (1, 2)),               # inside: the lines on both sides
    ("a\nb\nc\n", "a\nb\n", (2,)),                 # at the end: the line before
    ("a\nb\n", "", ()),                              # nothing is left to anchor on
    ("a\nb\nc\nd\ne\n", "a\nc\ne\n", (1, 2, 3)),  # shared anchors appear once
    ("a\nb\nc\nd\n", "a\nc\nD\n", (1, 2, 3)),       # with the added line 3
])
def test_pure_deletions_anchor_on_the_new_lines_around_them(old, new, lines):
    assert diff(old, new).changed_new_lines == lines


def test_no_trailing_newline_marker():
    cs = diff("a\nend", "a\nend\n")
    assert "\\ No newline at end of file" in cs.unified
    assert apply_unified("a\nend", cs.unified) == "a\nend\n"


@pytest.mark.parametrize("patch", [
    "@@ -0,0 +0,0 @@\n\\ No newline at end of file\n",
    "@@ -1 +1 @@\n\\ No newline at end of file\n-a\n+b\n",
])
def test_stray_no_newline_marker_is_a_data_error(patch):
    with pytest.raises(DataError, match="stray no-newline marker"):
        parse_unified(patch)
    with pytest.raises(DataError, match="stray no-newline marker"):
        apply_unified("a\n", patch)


def test_render_difference_list_empty():
    cs = diff("same\n", "same\n")
    assert render_difference_list(cs) == ""


def test_render_difference_list_single_addition():
    cs = ChangeSet(added=((5, "x"),), removed=(), unified="", changed_new_lines=(5,))
    assert render_difference_list(cs) == "+ 5: x"


def test_render_difference_list_ordering():
    # enumeration of the ordering rule: by line number, removals first at ties
    cs = ChangeSet(
        added=((4, "new4"),),
        removed=((2, "old2"), (4, "old4")),
        unified="",
        changed_new_lines=(4,),
    )
    assert render_difference_list(cs).split("\n") == [
        "- 2: old2",
        "- 4: old4",
        "+ 4: new4",
    ]


def test_zero_context_diff():
    cs = diff("a\nb\nc\n", "a\nx\nc\n", context_lines=0)
    assert "@@ -2 +2 @@" in cs.unified
    assert apply_unified("a\nb\nc\n", cs.unified) == "a\nx\nc\n"


def test_insert_into_empty():
    cs = diff("", "hello\n")
    assert cs.added == ((1, "hello"),)
    assert apply_unified("", cs.unified) == "hello\n"
    cs = diff("hello\n", "")
    assert cs.removed == ((1, "hello"),)
    assert apply_unified("hello\n", cs.unified) == ""


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("workload, files, digest", [
    ("churn-m5", 24, "a56f0dce149b9ed96669c9cb7af44e97260bb0fad7fee89760112d3342de1636"),
    ("context-debate", 6, "2382e13504356669184a791269076a92ee02e92c16554f6c111a781e8d88e0fc"),
    ("endpoint-m5", 48, "dc49aa0e9940c0fe02bde90f5995fbb78be7a61622b577e050320259c3f69c74"),
])
def test_unified_diffs_of_perfbench_pairs_are_unchanged(monkeypatch, workload, files, digest):
    # perfbench digests no diff text, so this pins the unified diffs of the
    # path-stable changed files of three workloads at seed 11
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    old_rows, new_rows, _ = synth.generate(workloads.WORKLOADS[workload].corpus, 11)
    old = {path: source for path, _, source in old_rows}
    sha = hashlib.sha256()
    changed = 0
    for path, _, source in sorted(new_rows):
        if path in old and old[path] != source:
            sha.update(diff(old[path], source, 3, path).unified.encode("utf-8"))
            changed += 1
    assert changed == files
    assert sha.hexdigest() == digest
