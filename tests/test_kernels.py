import random

import numpy as np
import pytest

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


def test_pairs_are_a_valid_common_subsequence():
    rng = random.Random(7)
    alphabet = [f"line {c}" for c in "abcdefg"]
    for _ in range(200):
        a = random_lines(rng, rng.randrange(0, 25), alphabet)
        b = random_lines(rng, rng.randrange(0, 25), alphabet)
        pairs = kernels.lcs_pairs(a, b)
        assert all(a[i] == b[j] for i, j in pairs)
        assert all(p1 < p2 for p1, p2 in zip(pairs, pairs[1:]))  # strictly increasing in both
        assert len(pairs) == brute_force_lcs_len(a, b)


def test_identical_and_empty_inputs():
    assert kernels.lcs_pairs([], []) == []
    assert kernels.lcs_pairs(["x"], []) == []
    assert kernels.lcs_pairs([], ["x"]) == []
    assert kernels.lcs_pairs(["a", "b"], ["a", "b"]) == [(0, 0), (1, 1)]


def test_dice_batch_conventions():
    empty = np.empty(0, dtype=np.int64)
    flat, offsets = kernels.pack_line_sets([empty, np.array([1, 2], dtype=np.int64)])
    scores = kernels.dice_batch(empty, flat, offsets)
    assert scores[0] == 1.0  # both empty
    assert scores[1] == 0.0  # one empty
    flat, offsets = kernels.pack_line_sets([np.array([1, 2, 3], dtype=np.int64)])
    scores = kernels.dice_batch(np.array([2, 3, 4], dtype=np.int64), flat, offsets)
    assert scores[0] == pytest.approx(2 * 2 / 6)


def test_cell_budget_degrades_to_replace_block(monkeypatch):
    monkeypatch.setattr(kernels, "LCS_CELL_BUDGET", 4)
    a = ["p", "x1", "y1", "z1", "s"]
    b = ["p", "x2", "y1", "z2", "s"]
    pairs = kernels.lcs_pairs(a, b)
    # prefix and suffix still align; the oversized middle yields no matches
    assert pairs == [(0, 0), (4, 4)]


def test_line_hash_is_stable():
    assert kernels.line_hash64("total += arr[i];") == kernels.line_hash64("total += arr[i];")
    assert kernels.line_hash64("a") != kernels.line_hash64("b")
