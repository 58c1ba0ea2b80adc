"""Line-level diffs between matched file versions and unified-diff rendering.

The alignment is a longest-common-subsequence line diff: kernels.lcs_pairs
returns its matching blocks, and the changes are the gaps between matching
blocks, each a tuple (i1, i2, j1, j2) meaning a[i1:i2] became b[j1:j2].
Lines are compared with their terminators so that a missing final newline
is a real change; rendering emits the conventional backslash marker for it
and apply_unified reproduces the new text byte-for-byte.
"""

from __future__ import annotations

import io
import re
from collections import namedtuple

from . import kernels
from .errors import DataError

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file"
DEFAULT_CONTEXT_LINES = 3


class ChangeSet(namedtuple("ChangeSet", "added removed unified changed_new_lines")):
    """Added/removed lines plus the rendered unified diff for one file pair.

    added and removed hold (line number, text) pairs, numbered in the new
    and the old file; changed_new_lines holds the added lines and the new
    lines around each deletion.
    """

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed


def split_keepends(source: str) -> list[str]:
    """Split on "\\n" keeping terminators; a final piece may lack one."""
    return io.StringIO(source, newline="\n").readlines()


def _display(piece: str) -> str:
    return piece[:-1] if piece.endswith("\n") else piece


def _gaps(blocks, n, m):
    """The changes (i1, i2, j1, j2), a[i1:i2] became b[j1:j2], between matching blocks."""
    gaps = []
    i = j = 0
    for ai, bj, size in blocks + [(n, m, 0)]:
        if i < ai or j < bj:
            gaps.append((i, ai, j, bj))
        i, j = ai + size, bj + size
    return gaps


def _format_range(start: int, stop: int) -> str:
    beginning = start + 1
    length = stop - start
    if length == 1:
        return f"{beginning}"
    if not length:
        beginning -= 1  # empty ranges report the line just before
    return f"{beginning},{length}"


def _emit(out: list[str], prefix: str, pieces) -> None:
    for piece in pieces:
        out.append(prefix + _display(piece))
        if not piece.endswith("\n"):
            out.append(_NO_NEWLINE)


def _render_unified(a, b, gaps, context, path):
    """One hunk per run of gaps at most 2·context equal lines apart.

    A hunk opens with up to `context` equal lines before its first gap and
    closes with up to `context` after its last, as difflib groups opcodes.
    """
    lines: list[str] = []
    first = 0  # index of the open hunk's first gap
    for k, (_, i2, _, j2) in enumerate(gaps):
        last = k + 1 == len(gaps)
        after = (len(a) if last else gaps[k + 1][0]) - i2
        if not last and after <= 2 * context:
            continue
        i1, _, j1, _ = gaps[first]
        lead = min(context, i1)  # a later hunk starts over 2·context past the one before
        trail = min(context, after)
        lines.append(f"@@ -{_format_range(i1 - lead, i2 + trail)} "
                     f"+{_format_range(j1 - lead, j2 + trail)} @@")
        at = i1 - lead
        for g1, g2, h1, h2 in gaps[first:k + 1]:
            _emit(lines, " ", a[at:g1])
            _emit(lines, "-", a[g1:g2])
            _emit(lines, "+", b[h1:h2])
            at = g2
        _emit(lines, " ", a[at:i2 + trail])
        first = k + 1
    return f"--- a/{path}\n+++ b/{path}\n" + "\n".join(lines) + "\n" if lines else ""


def diff(old_source: str, new_source: str, context_lines: int = DEFAULT_CONTEXT_LINES,
         path: str = "file") -> ChangeSet:
    """LCS line diff of two texts rendered as a standard unified diff."""
    if context_lines < 0:
        raise ValueError("context_lines must be >= 0")
    a = split_keepends(old_source)
    b = split_keepends(new_source)
    gaps = _gaps(kernels.lcs_pairs(a, b), len(a), len(b))

    added = []
    removed = []
    anchors = []
    for i1, i2, j1, j2 in gaps:
        removed.extend((i + 1, _display(a[i])) for i in range(i1, i2))
        added.extend((j + 1, _display(b[j])) for j in range(j1, j2))
        if j1 == j2:  # a pure deletion adds no line, so anchor it on the new lines around it
            anchors.extend(range(max(j1, 1), min(j1 + 1, len(b)) + 1))
    unified = _render_unified(a, b, gaps, context_lines, path)
    return ChangeSet(
        added=tuple(added),
        removed=tuple(removed),
        unified=unified,
        changed_new_lines=tuple(sorted({n for n, _ in added}.union(anchors))),
    )


def render_difference_list(cs: ChangeSet) -> str:
    """Human-readable change listing: `- old_no: text` / `+ new_no: text`.

    Entries are ordered by line number with removals before additions at
    equal numbers.
    """
    entries = [(n, 0, f"- {n}: {text}") for n, text in cs.removed]
    entries += [(n, 1, f"+ {n}: {text}") for n, text in cs.added]
    entries.sort(key=lambda e: (e[0], e[1]))
    return "\n".join(e[2] for e in entries)


def _fold_marker(body: list) -> None:
    """Fold a no-newline marker into the hunk entry before it."""
    if not body:
        raise DataError("stray no-newline marker in patch")
    tag, text, _ = body[-1]
    body[-1] = (tag, text, False)


def _scan_hunks(unified: str):
    """Yield (old_start, old_count, new_start, new_count, body) per hunk.

    Body entries are (tag, text, has_newline) with the backslash marker
    already folded into the preceding entry.
    """
    lines = unified.split("\n")
    pos = 0
    while pos < len(lines):
        line = lines[pos]
        m = _HUNK_RE.match(line)
        if not m:
            pos += 1  # file headers or trailing blank
            continue
        old_start = int(m.group(1))
        old_count = int(m.group(2)) if m.group(2) is not None else 1
        new_start = int(m.group(3))
        new_count = int(m.group(4)) if m.group(4) is not None else 1
        pos += 1
        body = []
        seen_old = seen_new = 0
        while pos < len(lines) and (seen_old < old_count or seen_new < new_count):
            entry = lines[pos]
            pos += 1
            if entry.startswith("\\"):
                _fold_marker(body)
                continue
            if not entry:
                entry = " "  # blank context line
            tag, text = entry[0], entry[1:]
            if tag == " ":
                seen_old += 1
                seen_new += 1
            elif tag == "-":
                seen_old += 1
            elif tag == "+":
                seen_new += 1
            else:
                raise DataError(f"unexpected patch line: {entry!r}")
            body.append((tag, text, True))
        if pos < len(lines) and lines[pos].startswith("\\"):
            _fold_marker(body)
            pos += 1
        yield old_start, old_count, new_start, new_count, body


def apply_unified(old_source: str, unified: str) -> str:
    """Apply a unified diff produced by diff() to the old text."""
    if not unified:
        return old_source
    pieces = split_keepends(old_source)
    out: list[str] = []
    cursor = 0
    for old_start, old_count, _, _, body in _scan_hunks(unified):
        target = old_start - 1 if old_count else old_start
        if target < cursor:
            raise DataError("hunks out of order")
        out.extend(pieces[cursor:target])
        cursor = target
        for tag, text, has_nl in body:
            expected = text + ("\n" if has_nl else "")
            if tag in (" ", "-"):
                if cursor >= len(pieces) or pieces[cursor] != expected:
                    got = pieces[cursor] if cursor < len(pieces) else "<eof>"
                    raise DataError(f"patch context mismatch at old line {cursor + 1}: "
                                    f"expected {expected!r}, got {got!r}")
                if tag == " ":
                    out.append(expected)
                cursor += 1
            else:
                out.append(expected)
    out.extend(pieces[cursor:])
    return "".join(out)
