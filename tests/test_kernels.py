import random
import struct
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlens import kernels


def brute_force_lcs_len(a, b):
    # Textbook DP, independent of the kernel implementation.
    n, m = len(a), len(b)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[n][m]


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
        assert len(pairs) == brute_force_lcs_len(a, b)


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
    assert kernels.pack_line_sets([]) == ({}, [0])
    assert kernels.dice_batch({"a"}, {}, [0], {}) == {}


def test_common_lines_post_the_candidates_that_lack_them():
    index, offsets = kernels.pack_line_sets([{"}", "a"}, {"}", "b"}, {"}"}, {"b"}])
    assert offsets == [0, 2, 4, 5, 6]
    assert index == {"}": [4, ~3], "a": [0], "b": [1, 3]}  # "}" is held by 3 of 4
    groups = kernels.size_groups(offsets)
    assert list(groups.items()) == [(1, ((2, 2), [2, 3])), (2, ((2, 0), [0, 1]))]  # smallest first
    assert kernels.dice_batch({"}", "b"}, index, offsets, groups) == {
        0.5: (1, 0), 1.0: (1, 1), 2 / 3: (2, 2)}


def reference_dense_dice(query, index, offsets):
    # The dense loop that the score profile replaced: every candidate's
    # shared-line count from the posting hits, then one score per candidate.
    n = len(offsets) - 1
    hits = Counter(chain.from_iterable(filter(None, map(index.get, query))))
    shared = [hits.pop(n, 0)] * n
    for t, count in hits.items():
        if t >= 0:
            shared[t] += count
        else:
            shared[~t] -= count
    size = len(query)
    scores = []
    for inter, lo, hi in zip(shared, offsets, offsets[1:]):
        denom = size + hi - lo
        scores.append(2.0 * inter / denom if denom else 1.0)
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
@settings(max_examples=400, deadline=None)
def test_dice_profile_equals_dense_row(query, sets):
    index, offsets = kernels.pack_line_sets(sets)
    profile = kernels.dice_batch(query, index, offsets, kernels.size_groups(offsets))
    assert all(type(score) is float for score in profile)
    expected = score_profile(reference_dense_dice(query, index, offsets))
    assert keyed_by_bytes(profile) == keyed_by_bytes(expected)


def reference_pack_line_sets(sets):
    # The CSR (flat, offsets) pair of int64 line-id arrays that the inverted
    # index replaced.
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], dtype=np.int64, out=offsets[1:])
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
    return flat, offsets


def reference_member_dice_batch(query, flat, offsets):
    # The member-table gather over dense line ids that the inverted index
    # replaced: the query's ids are marked, then read back at every
    # candidate id.
    member = np.zeros(1 + max(query.max(initial=-1), flat.max(initial=-1)), dtype=bool)
    member[query] = True
    inter = np.diff(np.searchsorted(np.flatnonzero(member[flat]), offsets))
    denom = len(query) + np.diff(offsets)
    return np.divide(2.0 * inter, denom, out=np.ones(len(offsets) - 1), where=denom > 0)


def reference_hashed_line_set(lines):
    # A file's line set as match_files scored it before lines were interned
    # by text: the distinct line_hash64 values, sorted.
    hashes = {kernels.line_hash64(ln) for ln in lines}
    arr = np.fromiter(hashes, dtype=np.int64, count=len(hashes))
    arr.sort()
    return arr


def reference_dice_batch(query, flat, offsets):
    # The searchsorted pass over raw sorted hashes that dice_batch replaced
    # with a member table over dense ids.
    pos = np.searchsorted(query, flat)
    hit = pos < len(query)
    hit[hit] = query[pos[hit]] == flat[hit]
    hits = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(hit, out=hits[1:])
    inter = hits[offsets[1:]] - hits[offsets[:-1]]
    denom = len(query) + np.diff(offsets)
    return np.divide(2.0 * inter, denom, out=np.ones(len(offsets) - 1), where=denom > 0)


def reference_dice(query, flat, offsets):
    # The per-candidate loop that came before both: searches each segment
    # (sorted) for the query's values, with both empty-set cases by hand.
    count = len(offsets) - 1
    out = np.empty(count, dtype=np.float64)
    nq = len(query)
    for t in range(count):
        seg = flat[offsets[t] : offsets[t + 1]]
        denom = nq + len(seg)
        if denom == 0:
            out[t] = 1.0
            continue
        if nq == 0 or len(seg) == 0:
            out[t] = 0.0
            continue
        idx = np.searchsorted(seg, query)
        np.clip(idx, 0, len(seg) - 1, out=idx)
        inter = int(np.count_nonzero(seg[idx] == query))
        out[t] = 2.0 * inter / denom
    return out


def as_id_array(lines, ids):
    # a line set as the sorted array of its interned ids
    return np.array(sorted(ids.setdefault(ln, len(ids)) for ln in lines), dtype=np.int64)


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
    scores = reference_dense_dice(query, index, offsets)
    ids = {}
    flat, ref_offsets = reference_pack_line_sets([as_id_array(s, ids) for s in sets])
    ref_query = as_id_array(query, ids)
    assert offsets == ref_offsets.tolist()
    got = np.array(scores, dtype=np.float64).tobytes()
    expected = reference_dice(ref_query, flat, ref_offsets)
    assert got == expected.tobytes()
    assert got == reference_member_dice_batch(ref_query, flat, ref_offsets).tobytes()
    profile = kernels.dice_batch(query, index, offsets, kernels.size_groups(offsets))
    assert keyed_by_bytes(profile) == keyed_by_bytes(score_profile(expected.tolist()))


def _lcs_table(a, b):
    n, m = len(a), len(b)
    table = np.zeros((n + 1, m + 1), dtype=np.int32)
    if m == 0:
        return table
    for i in range(1, n + 1):
        prev = table[i - 1]
        # L[i][j] = max(up, diag-candidate, L[i][j-1]); the last term is a
        # running maximum because LCS rows are nondecreasing.
        t = np.maximum(prev[1:], np.where(b == a[i - 1], prev[:-1] + 1, 0))
        np.maximum.accumulate(t, out=t)
        table[i, 1:] = t
    return table


def _backtrack(table, a, b, a_tb, b_tb):
    pairs = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        else:
            up = table[i - 1, j]
            left = table[i, j - 1]
            if up > left:
                i -= 1
            elif left > up:
                j -= 1
            elif a_tb[i - 1] <= b_tb[j - 1]:
                i -= 1
            else:
                j -= 1
    pairs.reverse()
    return pairs


def reference_lcs_pairs(a_lines, b_lines):
    # The full int32 table and its backtrack that lcs_pairs replaced with
    # bit-parallel rows; same prefix/suffix stripping and cell budget.
    n, m = len(a_lines), len(b_lines)
    prefix = 0
    while prefix < n and prefix < m and a_lines[prefix] == b_lines[prefix]:
        prefix += 1
    suffix = 0
    while (suffix < n - prefix and suffix < m - prefix
           and a_lines[n - 1 - suffix] == b_lines[m - 1 - suffix]):
        suffix += 1
    pairs = [(k, k) for k in range(prefix)]
    mid_a = a_lines[prefix : n - suffix]
    mid_b = b_lines[prefix : m - suffix]
    if mid_a and mid_b and (len(mid_a) + 1) * (len(mid_b) + 1) <= kernels.LCS_CELL_BUDGET:
        interned = {}
        a_ids = np.array([interned.setdefault(ln, len(interned)) for ln in mid_a], dtype=np.int64)
        b_ids = np.array([interned.setdefault(ln, len(interned)) for ln in mid_b], dtype=np.int64)
        a_tb = np.array([kernels.line_hash64(ln) for ln in mid_a], dtype=np.int64)
        b_tb = np.array([kernels.line_hash64(ln) for ln in mid_b], dtype=np.int64)
        table = _lcs_table(a_ids, b_ids)
        pairs.extend((i + prefix, j + prefix)
                     for i, j in _backtrack(table, a_ids, b_ids, a_tb, b_tb))
    pairs.extend((n - suffix + k, m - suffix + k) for k in range(suffix))
    return pairs


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
