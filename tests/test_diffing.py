import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlens.diffing import (
    ChangeSet,
    apply_unified,
    diff,
    parse_unified,
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


def test_changed_new_lines_match_added():
    cs = diff("a\nb\nc\n", "a\nB\nc\nd\n")
    assert cs.changed_new_lines == tuple(sorted(n for n, _ in cs.added))


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
