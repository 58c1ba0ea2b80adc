"""Hot kernels: bit-parallel LCS alignment and batched Dice similarity.

LCS keeps each row of the table as one Python-int bitset, 64 cells per
machine word: the complement V of the row's step bits, which Hyyrö's
recurrence updates. The walk-back reads table cells from V, emits one
matching block per diagonal run, and uses line_hash64 only to break ties.
Dice scores one query's line set against every candidate through an
inverted index keyed by line text, so equal keys mean equal text: one
Counter over the posting lists of the query's lines counts each candidate's
shared lines (the ScanCount merge of Li, Lu & Lu, ICDE 2008).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import chain
from typing import Collection, Iterable, Sequence

# LCS size guard: middles larger than this many cells (after common
# prefix/suffix stripping) are treated as one opaque replace block instead of
# being aligned line-by-line. The kept row bits take (n+1)*m bits, 2 MB at
# this budget; the value stays so that output on over-budget middles is
# unchanged.
LCS_CELL_BUDGET = 16_000_000

# Name of the kernel implementation, reported in benchmark environment lines.
BACKEND = "python"


def line_hash64(line: str) -> int:
    """Stable 64-bit content hash of one line (process-independent)."""
    digest = hashlib.blake2b(line.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little", signed=True)


def pack_line_sets(sets: Iterable[Collection[str]]) -> tuple[dict[str, list[int]], list[int]]:
    """Inverted index of candidate line sets, and offsets[t+1] - offsets[t] = |set t|.

    With n candidates, a line held by at most half of them posts the
    candidates t that hold it. A line held by more posts the shared base key
    n and then ~t for each candidate t that lacks it, so the common lines of
    a file (braces, blank lines, imports) cost no more than the rare ones.
    The sets are read once, in order, so they may be made one at a time.
    """
    offsets = [0]
    index: dict[str, list[int]] = {}
    for t, lines in enumerate(sets):
        offsets.append(offsets[t] + len(lines))
        for line in lines:
            index.setdefault(line, []).append(t)
    n = len(offsets) - 1
    lacking = [~t for t in range(n)]
    for line, holders in index.items():
        if 2 * len(holders) > n:
            held = set(holders)
            index[line] = [n, *(lacking[t] for t in range(n) if t not in held)]
    return index, offsets


def dice_batch(query: Collection[str], index: dict[str, list[int]],
               offsets: Sequence[int]) -> list[float]:
    """Dice similarity of one line set against every indexed set, 2|A∩B|/(|A|+|B|).

    The query holds distinct lines. One Counter over their posting lists
    gives hits[n], the query's common lines, which every candidate shares
    but for the hits[~t] that candidate t lacks, and hits[t], the rare lines
    it holds. Two empty sets score 1.0, and an empty set against a non-empty
    one scores 0.0.
    """
    n = len(offsets) - 1
    hits = Counter(chain.from_iterable(filter(None, map(index.get, query))))
    # dict methods only: Counter's missing-key lookup is a Python call per read
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


def _bitmask(positions: list[int], width: int) -> int:
    """The int with bit j set for each j in positions, all below width."""
    # one byte write per position; OR-ing 1 << j into an int costs O(width)
    # each, which is quadratic on a long run of one repeated line
    mark = bytearray((width + 7) >> 3)
    for j in positions:
        mark[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(mark, "little")


def _step_rows(a: Sequence[str], b: Sequence[str]) -> list[int]:
    """Rows 0..len(a) of the LCS table L of a and b, as bitsets V.

    Bit j of row i is clear where L[i][j+1] - L[i][j] == 1, so L[i][j] is j
    minus the popcount of the row's low j bits. Each row follows from the
    last by Hyyrö's recurrence V' = (V + (V & M)) | (V & ~M), with M the
    positions in b of the row's line of a (Allison & Dix 1986; Hyyrö 2004).
    """
    shared = set(a)  # only lines of a are ever looked up
    spots: dict[str, list[int]] = {}
    for j, line in enumerate(b):
        if line in shared:
            spots.setdefault(line, []).append(j)
    match = {line: 1 << js[0] if len(js) == 1 else _bitmask(js, len(b))
             for line, js in spots.items()}
    full = (1 << len(b)) - 1
    v = full
    rows = [v]
    for line in a:
        u = v & match.get(line, 0)
        v = ((v + u) | (v - u)) & full
        rows.append(v)
    return rows


def _walk_back(a: Sequence[str], b: Sequence[str],
               rows: list[int]) -> list[tuple[int, int, int]]:
    """Recover one LCS alignment of a and b from their rows, as matching blocks.

    A block (i, j, k) matches a[i:i+k] to b[j:j+k]. Each is one maximal
    diagonal run of the walk, so blocks are never adjacent.

    Ties between the up/left moves are broken by comparing content hashes of
    the two candidate lines, which makes the chosen alignment covariant under
    swapping the inputs (diff(a,b) and diff(b,a) pick mirrored paths).
    """
    blocks: list[tuple[int, int, int]] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            k = 1
            while k < i and k < j and a[i - 1 - k] == b[j - 1 - k]:
                k += 1
            i -= k
            j -= k
            blocks.append((i, j, k))
            continue
        # L[i-1][j] against L[i][j-1], each j minus a popcount of V
        up = j - (rows[i - 1] & ((1 << j) - 1)).bit_count()
        left = j - 1 - (rows[i] & ((1 << (j - 1)) - 1)).bit_count()
        if up > left or (up == left and line_hash64(a[i - 1]) <= line_hash64(b[j - 1])):
            i -= 1
        else:
            j -= 1
    blocks.reverse()
    return blocks


def lcs_pairs(a_lines: Sequence[str], b_lines: Sequence[str]) -> list[tuple[int, int, int]]:
    """Matching blocks (i, j, k) of one longest common subsequence of two line lists.

    A block matches a_lines[i:i+k] to b_lines[j:j+k]; blocks have k > 0 and
    increase strictly in i and j, the shape of difflib's get_matching_blocks
    without its sentinel. They are never adjacent: walk-back runs are
    maximal, and a middle block that touched the prefix or suffix would have
    lengthened it. Expanded, they are the LCS index pairs (i, j) the
    function is named for; the name stays because the benchmark times the
    LCS kernel under it.

    Common prefix and suffix are matched directly, one block each; the
    remaining middle is aligned with bit-parallel LCS rows. Middles over
    LCS_CELL_BUDGET cells get no interior matches (rendered as one replace
    block), which keeps memory bounded on pathological pairs.
    """
    n, m = len(a_lines), len(b_lines)
    prefix = 0
    while prefix < n and prefix < m and a_lines[prefix] == b_lines[prefix]:
        prefix += 1
    suffix = 0
    while (suffix < n - prefix and suffix < m - prefix
           and a_lines[n - 1 - suffix] == b_lines[m - 1 - suffix]):
        suffix += 1

    blocks = [(0, 0, prefix)] if prefix else []
    mid_a = a_lines[prefix : n - suffix]
    mid_b = b_lines[prefix : m - suffix]
    if mid_a and mid_b and (len(mid_a) + 1) * (len(mid_b) + 1) <= LCS_CELL_BUDGET:
        rows = _step_rows(mid_a, mid_b)
        blocks.extend((i + prefix, j + prefix, k) for i, j, k in _walk_back(mid_a, mid_b, rows))
    if suffix:
        blocks.append((n - suffix, m - suffix, suffix))
    return blocks
