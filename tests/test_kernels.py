import itertools
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlens import kernels


def lcs_table(a, b):
    # Textbook DP, independent of the kernel implementation: table[i][j] is
    # the LCS length of a[:i] and b[:j].
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table


def random_lines(rng, n, alphabet):
    return [rng.choice(alphabet) for _ in range(n)]


def expand(blocks):
    # the matched index pairs (i, j) that matching blocks stand for
    for i, j, size in blocks:
        for t in range(size):
            yield i + t, j + t


def test_pairs_are_a_valid_common_subsequence():
    rng = random.Random(7)
    alphabet = [f"line {c}" for c in "abcdefg"]
    for _ in range(200):
        a = random_lines(rng, rng.randrange(0, 25), alphabet)
        b = random_lines(rng, rng.randrange(0, 25), alphabet)
        pairs = list(expand(kernels.lcs_pairs(a, b)))
        assert all(a[i] == b[j] for i, j in pairs)
        assert all(i1 < i2 and j1 < j2 for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]))
        assert len(pairs) == lcs_table(a, b)[-1][-1]


def test_identical_and_empty_inputs():
    assert kernels.lcs_pairs([], []) == []
    assert kernels.lcs_pairs(["x"], []) == []
    assert kernels.lcs_pairs([], ["x"]) == []
    assert kernels.lcs_pairs(["a", "b"], ["a", "b"]) == [(0, 0, 2)]


def dice_profile(query, sets):
    index, offsets = kernels.pack_line_sets(sets)
    return kernels.dice_batch(query, index, offsets, kernels.size_groups(offsets))


def test_dice_batch_conventions():
    assert dice_profile(set(), [set(), {"a", "b"}]) == {1.0: (1, 0), 0.0: (1, 1)}
    assert dice_profile({"b", "c", "d"}, [{"a", "b", "c"}]) == {2 * 2 / 6: (1, 0)}
    assert kernels.pack_line_sets([]) == (({}, {}), [0])
    assert kernels.dice_batch({"a"}, ({}, {}), [0], {}) == {}


def test_common_lines_post_the_candidates_that_lack_them():
    index, offsets = kernels.pack_line_sets([{"}", "a"}, {"}", "b"}, {"}"}, {"b"}])
    assert offsets == [0, 2, 4, 5, 6]
    # "a" has one holder; "}" is held by 3 of 4, "b" by 2 of 4
    assert index == ({"a": 0}, {"}": [4, ~3], "b": [1, 3]})
    groups = kernels.size_groups(offsets)
    assert list(groups.items()) == [(1, ((2, 2), [2, 3])), (2, ((2, 0), [0, 1]))]  # smallest first
    assert kernels.dice_batch({"}", "b"}, index, offsets, groups) == {
        0.5: (1, 0), 1.0: (1, 1), 2 / 3: (2, 2)}


def reference_dense_dice(query, sets):
    # The Dice definition, one score per candidate from its own line set:
    # 2|A & B| / (|A| + |B|), and 1.0 when both sets are empty. It reads no index.
    size = len(query)
    scores = []
    for s in sets:
        denom = size + len(s)
        scores.append(2.0 * len(query & s) / denom if denom else 1.0)
    return scores


def score_profile(scores):
    # the (count, first index) of each distinct score of a row, the form in
    # which kernels.dice_batch returns a query's scores
    return {s: (scores.count(s), scores.index(s)) for s in scores}


def keyed_by_bytes(profile):
    # scores as their eight bytes, so that equal keys are bit-identical floats
    return {struct.pack("<d", s): entry for s, entry in profile.items()}


# lines from a small pool, so with a few candidates many lines are held by
# more than half of them and take the complement path of the index
line_sets = st.sets(st.sampled_from("abcdefgh"), max_size=8)


@given(line_sets, st.lists(line_sets, max_size=12))
@example({"a", "b"}, [{"a", "b"}, {"a", "b", "c"}, {"a", "b"}, {"a", "d"}])  # best untouched
@example({"z"}, [{"a"}, {"a", "b"}, {"c", "d", "e"}])  # base 0: every size scores 0
@example({"a"}, [{"a"}, {"b"}, {"c", "d"}])  # base 0, the first set touched
@example({"a", "b"}, [{"a", "b"}, {"a", "c"}, {"a", "d"}])  # one size, first member touched
@example({"a", "b"}, [{"a", "b"}, {"a", "b"}, {"a", "c", "d"}])  # every set of a size touched
@example(set(), [set(), set(), {"a"}])  # empty query and empty candidates score 1.0
@example(set(), [])
@example({"a", "b"}, [set("abcdef"), {"a", "x"}])  # 0.5 tie: touched first, then untouched
@example({"a", "b"}, [{"a", "x"}, set("abcdef")])  # 0.5 tie: untouched first, then touched
@example({"a"}, [{"a", "b"}, {"c"}, {"a"}, {"d"}])  # candidate 0 first holds a line 2 holds
@example({"a", "c"}, [{"a"}, {"b"}, {"a", "c"}, {"b"}])  # "a" held by exactly n/2: holder list
@example({"a", "c"}, [{"a"}, {"b"}, {"a", "c"}, {"a"}])  # "a" held by n/2 + 1: complement
@example({"a"}, [set(), set()])  # empty candidate sets against a non-empty query
@example(set(), [set(), set()])
@settings(max_examples=400, deadline=None)
def test_dice_profile_equals_dense_row(query, sets):
    index, offsets = kernels.pack_line_sets(sets)
    profile = kernels.dice_batch(query, index, offsets, kernels.size_groups(offsets))
    assert all(type(score) is float for score in profile)
    expected = score_profile(reference_dense_dice(query, sets))
    assert keyed_by_bytes(profile) == keyed_by_bytes(expected)


@given(line_sets, st.lists(line_sets, max_size=8))
@example(set(), [])
@example(set(), [set(), {"a"}])
@example({"a", "b"}, [set()] * 3)
@example({"a", "z"}, [{"a"}, {"a", "b"}, {"a", "c"}])  # "a" held by all three
@example({"a", "b"}, [{"a"}, {"a"}, {"b"}, {"c"}])     # held by exactly half
@example({"a"}, [{"a"}])
@settings(max_examples=400, deadline=None)
def test_dice_batch_equals_per_candidate_loop(query, sets):
    index, offsets = kernels.pack_line_sets(sets)
    assert offsets == list(itertools.accumulate(map(len, sets), initial=0))
    profile = kernels.dice_batch(query, index, offsets, kernels.size_groups(offsets))
    expected = score_profile(reference_dense_dice(query, sets))
    assert keyed_by_bytes(profile) == keyed_by_bytes(expected)


def reference_lcs_pairs(a_lines, b_lines):
    # The matched index pairs of the DP table's walk-back, after the same
    # prefix/suffix stripping and cell budget as lcs_pairs. From (n, m) it
    # takes equal lines as a match, else steps to the larger neighbour; on a
    # tie it drops the a line when its line_hash64 is not above the b line's.
    n, m = len(a_lines), len(b_lines)
    prefix = 0
    while prefix < n and prefix < m and a_lines[prefix] == b_lines[prefix]:
        prefix += 1
    suffix = 0
    while (suffix < n - prefix and suffix < m - prefix
           and a_lines[n - 1 - suffix] == b_lines[m - 1 - suffix]):
        suffix += 1
    mid_a = a_lines[prefix : n - suffix]
    mid_b = b_lines[prefix : m - suffix]
    middle = []
    if mid_a and mid_b and (len(mid_a) + 1) * (len(mid_b) + 1) <= kernels.LCS_CELL_BUDGET:
        table = lcs_table(mid_a, mid_b)
        i, j = len(mid_a), len(mid_b)
        while i > 0 and j > 0:
            up, left = table[i - 1][j], table[i][j - 1]
            if mid_a[i - 1] == mid_b[j - 1]:
                middle.append((prefix + i - 1, prefix + j - 1))
                i -= 1
                j -= 1
            elif up > left or (up == left and kernels.line_hash64(mid_a[i - 1])
                               <= kernels.line_hash64(mid_b[j - 1])):
                i -= 1
            else:
                j -= 1
    return ([(k, k) for k in range(prefix)] + middle[::-1]
            + [(n - suffix + k, m - suffix + k) for k in range(suffix)])


# lines from alphabets of 1-4 symbols, so up/left ties are common, with an
# optional shared prefix and suffix around the two middles; 0-60 lines each
line_pairs = st.integers(1, 4).flatmap(lambda size: st.tuples(
    *[st.lists(st.sampled_from("abcd"[:size]), max_size=max_size)
      for max_size in (8, 44, 44, 8)])).map(
    lambda parts: (parts[0] + parts[1] + parts[3], parts[0] + parts[2] + parts[3]))

DISTINCT = [f"line {k}" for k in range(40)]


@given(line_pairs)
@example(([], []))
@example(([], ["a", "b"]))
@example((["a", "b", "a"], []))
@example((["a", "b", "a", "c"], ["a", "b", "a", "c"]))
@example((DISTINCT[:25], DISTINCT[15:]))
@settings(max_examples=500, deadline=None)
def test_lcs_pairs_equals_int32_table(pair):
    a, b = pair
    assert list(expand(kernels.lcs_pairs(a, b))) == reference_lcs_pairs(a, b)


@given(line_pairs)
@settings(max_examples=500, deadline=None)
def test_lcs_pairs_mirror_under_swap(pair):
    a, b = pair
    assert kernels.lcs_pairs(b, a) == [(j, i, k) for i, j, k in kernels.lcs_pairs(a, b)]


@given(line_pairs)
@example((["a", "b", "x", "c"], ["a", "b", "c"]))  # prefix, then a middle, then suffix
@example((["x", "a", "y"], ["a"]))
@settings(max_examples=500, deadline=None)
def test_blocks_are_nonempty_increasing_and_never_adjacent(pair):
    a, b = pair
    blocks = kernels.lcs_pairs(a, b)
    assert all(size > 0 for _, _, size in blocks)
    for (i1, j1, k1), (i2, j2, _) in zip(blocks, blocks[1:]):
        assert i1 + k1 <= i2 and j1 + k1 <= j2
        assert (i1 + k1, j1 + k1) != (i2, j2)


def test_cell_budget_degrades_to_replace_block(monkeypatch):
    monkeypatch.setattr(kernels, "LCS_CELL_BUDGET", 4)
    a = ["p", "x1", "y1", "z1", "s"]
    b = ["p", "x2", "y1", "z2", "s"]
    blocks = kernels.lcs_pairs(a, b)
    # prefix and suffix still align; the oversized middle yields no matches
    assert blocks == [(0, 0, 1), (4, 4, 1)]


def test_cell_budget_boundary(monkeypatch):
    a = ["p", "x1", "y1", "z1", "w", "s"]
    b = ["p", "y1", "x2", "w", "q", "s"]
    cells = (4 + 1) * (4 + 1)  # the middles after stripping "p" and "s"
    monkeypatch.setattr(kernels, "LCS_CELL_BUDGET", cells)
    assert kernels.lcs_pairs(a, b) == [(0, 0, 1), (2, 1, 1), (4, 3, 1), (5, 5, 1)]
    monkeypatch.setattr(kernels, "LCS_CELL_BUDGET", cells - 1)
    assert kernels.lcs_pairs(a, b) == [(0, 0, 1), (5, 5, 1)]


def test_line_hash_is_stable():
    assert kernels.line_hash64("total += arr[i];") == kernels.line_hash64("total += arr[i];")
    assert kernels.line_hash64("a") != kernels.line_hash64("b")
    # the walk-back's tie-break reads these values, so they must not drift
    assert kernels.line_hash64("total += arr[i];") == -792749621354166822
    assert kernels.line_hash64("}") == -7017959200759399115


@st.composite
def edited_copies(draw):
    # a base list and a copy with up to 6 inserts, deletes or replaces of up
    # to 8 lines, over 1-6 symbols so lines repeat; either side comes first
    symbols = "abcdef"[: draw(st.integers(1, 6))]
    base = draw(st.lists(st.sampled_from(symbols), max_size=200))
    edited = list(base)
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("insert", "delete", "replace")))
        at = draw(st.integers(0, len(edited)))
        size = draw(st.integers(1, 8))
        if kind != "insert":
            del edited[at : at + size]
        if kind != "delete":
            edited[at:at] = draw(st.lists(st.sampled_from(symbols), min_size=size, max_size=size))
    return (base, edited) if draw(st.booleans()) else (edited, base)


EDGE_PAIRS = [
    (["a"], ["b"]),
    (["a"], ["b", "a", "b"]),
    (["a", "b", "a"], ["b"]),
    (["x"] * 60 + ["a"], ["a", "y"]),          # n >> m
    (["p", "q"], ["q"] + ["x"] * 60 + ["p"]),  # m >> n
    (["a", "b"], ["c", "d", "e", "f", "g"]),    # frontiers run past the grid's edge
    (["a", "b", "c", "d", "e"], ["e", "f"]),
]


@given(edited_copies())
@settings(max_examples=300, deadline=None)
def test_lcs_pairs_of_edited_copies_equal_int32_table(pair):
    a, b = pair
    blocks = kernels.lcs_pairs(a, b)
    assert list(expand(blocks)) == reference_lcs_pairs(a, b)
    assert kernels.lcs_pairs(b, a) == [(j, i, k) for i, j, k in blocks]


@given(st.one_of(edited_copies(), line_pairs))
@settings(max_examples=400, deadline=None)
def test_frontier_walk_back_equals_rows_walk_back(pair):
    a, b = pair
    frontier = kernels._frontier(a, b)  # no budget: the pass always reaches (n, m)
    assert kernels._walk_back(a, b, frontier) == kernels._walk_back(a, b, kernels._step_rows(a, b))


@pytest.mark.parametrize("pair", EDGE_PAIRS)
def test_one_sided_and_edge_pairs(pair):
    a, b = pair
    blocks = kernels.lcs_pairs(a, b)
    assert list(expand(blocks)) == reference_lcs_pairs(a, b)
    assert kernels.lcs_pairs(b, a) == [(j, i, k) for i, j, k in blocks]
    frontier = kernels._frontier(a, b)
    assert kernels._walk_back(a, b, frontier) == kernels._walk_back(a, b, kernels._step_rows(a, b))


@given(st.lists(st.sampled_from("ab"), max_size=30), st.lists(st.sampled_from("ab"), max_size=30),
       st.data())
@settings(max_examples=300, deadline=None)
def test_common_run_equals_line_loop(a, b, data):
    i = data.draw(st.integers(0, len(a)))
    j = data.draw(st.integers(0, len(b)))
    most = data.draw(st.integers(0, min(len(a) - i, len(b) - j)))
    k = 0
    while k < most and a[i + k] == b[j + k]:
        k += 1
    assert kernels._common_run(a, i, b, j, most) == k
    most = data.draw(st.integers(0, min(i, j)))
    k = 0
    while k < most and a[i - 1 - k] == b[j - 1 - k]:
        k += 1
    assert kernels._common_run(a, i, b, j, most, back=True) == k


def _fail(*args):
    raise AssertionError("the bit-parallel rows were not needed")


def test_small_distance_middle_skips_the_rows(monkeypatch):
    # a ~900-line file edited at its first and last line leaves the whole
    # file as the middle; its distance is 4, so the frontier fills the cells
    a = ["}\n" if k % 7 == 0 else f"line {k}\n" for k in range(900)]
    b = ["first\n", *a[1:450], "inserted\n", *a[450:-1], "last\n"]
    monkeypatch.setattr(kernels, "_step_rows", _fail)
    blocks = kernels.lcs_pairs(a, b)
    assert blocks == [(1, 1, 449), (450, 451, 449)]
    assert list(expand(blocks)) == reference_lcs_pairs(a, b)


@pytest.mark.parametrize("pair", [
    ([f"a{k}" for k in range(40)], [f"b{k}" for k in range(40)]),  # distance 80
    (["x"] * 50 + ["a", "z"], ["a", "y"]),                          # |n - m| alone is too far
])
def test_large_distance_middle_falls_back_to_rows(monkeypatch, pair):
    a, b = pair
    calls = []
    step_rows = kernels._step_rows
    monkeypatch.setattr(kernels, "_step_rows", lambda *ab: calls.append(ab) or step_rows(*ab))
    assert list(expand(kernels.lcs_pairs(a, b))) == reference_lcs_pairs(a, b)
    assert calls == [(a, b)]
