"""Hot kernels: LCS alignment and batched Dice similarity.

LCS strips the common prefix and suffix, then fills the walk-back's table
cells for the middle in one of two ways. Myers' forward pass keeps, for
each edit distance d, how far each diagonal reaches; its work grows with
d, so it serves middles that changed little. Otherwise Hyyrö's
bit-parallel recurrence keeps each row as one Python-int bitset, 64 cells
per machine word. One walk-back reads either table, emits one matching
block per diagonal run, and uses line_hash64 only to break ties, so both
give the same blocks. Every common run is found by galloping slice
compares. Dice scores one query's line set against every candidate through
an inverted index keyed by line text, so equal keys mean equal text: one
Counter over the posting lists of the query's lines counts the shared lines
of each candidate they touch (the ScanCount merge of Li, Lu & Lu, ICDE
2008). Every untouched candidate shares the same lines, so its score
depends on its size alone: the result is a score profile, each distinct
score with its count and first candidate, made in time proportional to the
posting hits and the distinct candidate sizes.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import Counter
from itertools import chain, count
from math import isqrt
from typing import Callable, Collection, Iterable, Sequence

# LCS size guard: middles larger than this many cells (after common
# prefix/suffix stripping) are treated as one opaque replace block instead of
# being aligned line-by-line, whichever way their cells would be filled. It
# is checked before Myers' pass, so a middle over it gets no matches even
# when it changed little. The row bits of the fallback take (n+1)*m bits,
# 2 MB at this budget; the value stays so that output on over-budget middles
# is unchanged.
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


def size_groups(offsets: Sequence[int]) -> dict[int, tuple[tuple[int, int], list[int]]]:
    """The indexed sets by set size, smallest first: ((count, first), indices) per size.

    The indices of a size ascend, so first is the least of them.
    """
    members: dict[int, list[int]] = {}
    for t, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        members.setdefault(hi - lo, []).append(t)
    return {width: ((len(ts), ts[0]), ts) for width, ts in sorted(members.items())}


def dice_batch(query: Collection[str], index: dict[str, list[int]], offsets: Sequence[int],
               groups: dict[int, tuple[tuple[int, int], list[int]]]) -> dict[float, tuple[int, int]]:
    """The score profile of one line set against every indexed set, Dice 2|A∩B|/(|A|+|B|).

    The profile maps each distinct score to (count, first): how many
    indexed sets score it, and the least index of one that does. groups is
    size_groups(offsets). The query holds distinct lines. One Counter over
    their posting lists gives hits[n], the query's common lines, which every
    candidate shares but for the hits[~t] that candidate t lacks, and
    hits[t], the rare lines it holds. A candidate no posting names shares
    hits[n] lines exactly, so its score follows from its size: the profile
    starts as one entry per size, made in one pass that does a division per
    size where a dense row did one per candidate, and only the candidates
    the hits touched are moved out of their size's entry and scored one by
    one. The sizes ascend, so their scores descend and a sort of the
    profile finds them in order. Without common lines every untouched set
    scores 0.0, whatever its size, so the profile starts as one entry. Two
    empty sets score 1.0, and an empty set against a non-empty one scores
    0.0.
    """
    n = len(offsets) - 1
    hits = Counter(chain.from_iterable(filter(None, map(index.get, query))))
    # dict methods only: Counter's missing-key lookup is a Python call per read
    base = hits.pop(n, 0)
    shared: dict[int, int] = {}
    for t, count in hits.items():
        if t >= 0:
            shared[t] = shared.get(t, base) + count
        else:
            shared[~t] = shared.get(~t, base) - count
    size = len(query)
    if base:
        # 2b/d and 2b/(d+1) differ by more than rounding for any d below 2^52
        # lines, so each size has its own untouched score
        profile = {2.0 * base / (size + width): head for width, (head, _) in groups.items()}
    elif size:  # no common line: every untouched set scores 0.0, whatever its size
        profile = {0.0: (n, 0)} if n else {}
    else:  # the empty query touches nothing: 1.0 against an empty set, else 0.0
        profile = {}
        for width, (head, _) in groups.items():
            score = 0.0 if width else 1.0
            seen = profile.get(score)
            profile[score] = (seen[0] + head[0], min(seen[1], head[1])) if seen else head
        return profile
    stale = []  # the sizes whose first set was touched
    scored = []
    for t, inter in shared.items():
        width = offsets[t + 1] - offsets[t]
        denom = size + width
        untouched = 2.0 * base / denom
        left, first = profile[untouched]
        profile[untouched] = (left - 1, first)
        if first == t:
            stale.append(width)
        scored.append((2.0 * inter / denom, t))
    for width in stale:
        untouched = 2.0 * base / (size + width)
        left = profile[untouched][0]
        if left:
            pool = groups[width][1] if base else range(n)  # the sets with this untouched score
            profile[untouched] = (left, next(t for t in pool if t not in shared))
        else:
            del profile[untouched]
    for score, t in scored:
        seen = profile.get(score)
        profile[score] = (seen[0] + 1, min(seen[1], t)) if seen else (1, t)
    return profile


def _bitmask(positions: list[int], width: int) -> int:
    """The int with bit j set for each j in positions, all below width."""
    # one byte write per position; OR-ing 1 << j into an int costs O(width)
    # each, which is quadratic on a long run of one repeated line
    mark = bytearray((width + 7) >> 3)
    for j in positions:
        mark[j >> 3] |= 1 << (j & 7)
    return int.from_bytes(mark, "little")


def _common_run(a: Sequence[str], i: int, b: Sequence[str], j: int, most: int,
                back: bool = False) -> int:
    """The largest k <= most with a[i:i+k] == b[j:j+k], or a[i-k:i] == b[j-k:j] if back.

    Gallops: compares slices of doubling length until one differs, then
    bisects that one, so a run of k lines takes O(log k) steps here and
    O(k) line compares inside list equality. a and b must be of one type:
    a list slice never equals a tuple slice.
    """
    lo, hi, step = 0, most + 1, 1  # the run is at least lo and less than hi
    while hi - lo > 1:
        width = hi - lo
        mid = lo + (step if 2 * step <= width else width >> 1)
        if back:
            same = a[i - mid : i - lo] == b[j - mid : j - lo]
        else:
            same = a[i + lo : i + mid] == b[j + lo : j + mid]
        if same:
            lo = mid
            step += step
        else:
            hi = mid
    return lo


def _step_rows(a: Sequence[str], b: Sequence[str]) -> Callable[[int, int], int]:
    """The LCS table L of a and b as a cell reader L(i, j), from bitset rows V.

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
    return lambda i, j: j - (rows[i] & ((1 << j) - 1)).bit_count()


def _frontier(a: Sequence[str], b: Sequence[str],
              budget: int | None = None) -> Callable[[int, int], int] | None:
    """The LCS table L of a and b as a cell reader L(i, j), from Myers' forward pass.

    Round d takes the furthest-reaching path with d non-diagonal steps on
    each diagonal k = i - j, -d <= k <= d, and follows its snake (Myers,
    Algorithmica 1986). The pass stops at the round that reaches (n, m); it
    returns None instead once the diagonals evaluated, d + 1 per round,
    would exceed the budget, which it does at once if round |n - m|, the
    least final round, would. Diagonals run past the grid's edge, where no
    line matches, which changes no cell inside it.

    The distance D(i, j) = i + j - 2 L[i][j] never decreases along a
    diagonal, so it is the t-th d, from |k| in steps of 2, where t counts
    the frontiers on k that fall short of i; then L[i][j] = min(i, j) - t.
    A cell the pass never reached has every frontier short, so it reads
    as the next d: right for the cells the walk-back reads, on an optimal
    path with D at most the last round, and their neighbours, one more.
    """
    n, m = len(a), len(b)
    if budget is None:
        budget = (n + m + 1) * (n + m + 2) // 2  # round n + m always reaches (n, m)
    gap = abs(n - m)
    if (gap + 1) * (gap + 2) // 2 > budget:
        return None
    v = [0] * (2 * isqrt(2 * budget) + 3)  # the furthest x on diagonal k; k < 0 from the end
    reach: list[list[int]] = [[] for _ in v]  # every round's furthest x on diagonal k
    work = 0
    for d in count():
        work += d + 1
        if work > budget:
            return None
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[k - 1] < v[k + 1]):
                x = v[k + 1]
            else:
                x = v[k - 1] + 1
            y = x - k
            if x < n and y < m and a[x] == b[y]:
                x += 1 + _common_run(a, x + 1, b, y + 1, min(n - x, m - y) - 1)
            v[k] = x
            reach[k].append(x)
            if x >= n and x - k >= m:
                return lambda i, j: min(i, j) - bisect_left(reach[i - j], i)


def _walk_back(a: Sequence[str], b: Sequence[str],
               lcs: Callable[[int, int], int]) -> list[tuple[int, int, int]]:
    """Recover one LCS alignment of a and b from their table's cells, as matching blocks.

    A block (i, j, k) matches a[i:i+k] to b[j:j+k]. Each is one maximal
    diagonal run of the walk, so blocks are never adjacent. The alignment
    depends only on the cell values, never on which reader filled them.

    Ties between the up/left moves are broken by comparing content hashes of
    the two candidate lines, which makes the chosen alignment covariant under
    swapping the inputs (diff(a,b) and diff(b,a) pick mirrored paths).
    """
    blocks: list[tuple[int, int, int]] = []
    i, j = len(a), len(b)
    while i > 0 and j > 0:
        if a[i - 1] == b[j - 1]:
            k = 1 + _common_run(a, i - 1, b, j - 1, min(i, j) - 1, back=True)
            i -= k
            j -= k
            blocks.append((i, j, k))
            continue
        up = lcs(i - 1, j)
        left = lcs(i, j - 1)
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

    Common prefix and suffix are matched directly, one block each. The
    remaining middle's table is read from Myers' forward pass while that
    costs no more diagonals than the middle has lines of a_lines, and from
    bit-parallel LCS rows otherwise; the same walk-back picks the blocks.
    Middles over LCS_CELL_BUDGET cells get no interior matches (rendered as
    one replace block), which keeps memory bounded on pathological pairs.
    """
    n, m = len(a_lines), len(b_lines)
    prefix = _common_run(a_lines, 0, b_lines, 0, min(n, m))
    suffix = _common_run(a_lines, n, b_lines, m, min(n, m) - prefix, back=True)

    blocks = [(0, 0, prefix)] if prefix else []
    mid_a = a_lines[prefix : n - suffix]
    mid_b = b_lines[prefix : m - suffix]
    if mid_a and mid_b and (len(mid_a) + 1) * (len(mid_b) + 1) <= LCS_CELL_BUDGET:
        lcs = _frontier(mid_a, mid_b, len(mid_a)) or _step_rows(mid_a, mid_b)
        blocks.extend((i + prefix, j + prefix, k) for i, j, k in _walk_back(mid_a, mid_b, lcs))
    if suffix:
        blocks.append((n - suffix, m - suffix, suffix))
    return blocks
