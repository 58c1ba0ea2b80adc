"""Hot numeric kernels: LCS alignment tables and batched Dice similarity.

Both kernels are row- or segment-vectorised numpy.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

# Full-table LCS memory guard: middles larger than this many cells (after
# common prefix/suffix stripping) are treated as one opaque replace block
# instead of being aligned line-by-line. 16M cells = 64 MB of int32.
LCS_CELL_BUDGET = 16_000_000

# Name of the kernel implementation, reported in benchmark environment lines.
BACKEND = "numpy"


def line_hash64(line: str) -> int:
    """Stable 64-bit content hash of one line (process-independent)."""
    digest = hashlib.blake2b(line.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


def hashed_line_set(lines: Sequence[str]) -> np.ndarray:
    """Sorted array of distinct 64-bit line hashes, ready for dice_batch."""
    hashes = {line_hash64(ln) for ln in lines}
    arr = np.fromiter(hashes, dtype=np.int64, count=len(hashes))
    arr.sort()
    return arr


def pack_line_sets(sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate hashed line sets into a CSR-style (flat, offsets) pair."""
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], dtype=np.int64, out=offsets[1:])
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
    return flat, offsets


def _lcs_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def dice_batch(query: np.ndarray, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Dice similarity of one hashed line set against many, 2|A∩B|/(|A|+|B|).

    `query` must be sorted; every set holds distinct hashes. Two empty sets
    score 1.0, and an empty set against a non-empty one scores 0.0.
    """
    pos = np.searchsorted(query, flat)
    hit = pos < len(query)
    hit[hit] = query[pos[hit]] == flat[hit]
    hits = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(hit, out=hits[1:])
    inter = hits[offsets[1:]] - hits[offsets[:-1]]
    denom = len(query) + np.diff(offsets)
    return np.divide(2.0 * inter, denom, out=np.ones(len(offsets) - 1), where=denom > 0)


def _backtrack(table: np.ndarray, a: np.ndarray, b: np.ndarray,
               a_tb: np.ndarray, b_tb: np.ndarray) -> list[tuple[int, int]]:
    """Recover one LCS alignment from a filled table.

    Ties between the up/left moves are broken by comparing content hashes of
    the two candidate lines, which makes the chosen alignment covariant under
    swapping the inputs (diff(a,b) and diff(b,a) pick mirrored paths).
    """
    pairs: list[tuple[int, int]] = []
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


def lcs_pairs(a_lines: Sequence[str], b_lines: Sequence[str]) -> list[tuple[int, int]]:
    """Indices (i, j) of one longest common subsequence of two line lists.

    Common prefix and suffix are matched directly; the remaining middle is
    aligned with a full LCS table. Middles over LCS_CELL_BUDGET
    cells get no interior matches (rendered as one replace block), which keeps
    memory bounded on pathological pairs.
    """
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
    if mid_a and mid_b and (len(mid_a) + 1) * (len(mid_b) + 1) <= LCS_CELL_BUDGET:
        interned: dict[str, int] = {}
        a_ids = np.fromiter((interned.setdefault(ln, len(interned)) for ln in mid_a),
                            dtype=np.int64, count=len(mid_a))
        b_ids = np.fromiter((interned.setdefault(ln, len(interned)) for ln in mid_b),
                            dtype=np.int64, count=len(mid_b))
        a_tb = np.fromiter((line_hash64(ln) for ln in mid_a), dtype=np.int64, count=len(mid_a))
        b_tb = np.fromiter((line_hash64(ln) for ln in mid_b), dtype=np.int64, count=len(mid_b))
        table = _lcs_table(a_ids, b_ids)
        pairs.extend((i + prefix, j + prefix) for i, j in _backtrack(table, a_ids, b_ids, a_tb, b_tb))
    for k in range(suffix):
        pairs.append((n - suffix + k, m - suffix + k))
    return pairs
