"""Line-level diffs between matched file versions and unified-diff rendering.

The alignment is a longest-common-subsequence line diff: kernels.lcs_pairs
returns its matching blocks, each block becomes one equal opcode, and each
gap between blocks one replace, delete or insert. Lines are compared with
their terminators so that a missing final newline is a real change;
rendering emits the conventional backslash marker for it and apply_unified
reproduces the new text byte-for-byte.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass

from . import kernels
from .errors import DataError

_HUNK_RE = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_NO_NEWLINE = "\\ No newline at end of file"


@dataclass(frozen=True)
class ChangeSet:
    """Added/removed lines plus the rendered unified diff for one file pair."""

    added: tuple[tuple[int, str], ...]     # (new-file line number, text)
    removed: tuple[tuple[int, str], ...]   # (old-file line number, text)
    unified: str
    changed_new_lines: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed


def split_keepends(source: str) -> list[str]:
    """Split on "\\n" keeping terminators; a final piece may lack one."""
    return io.StringIO(source, newline="\n").readlines()


def _display(piece: str) -> str:
    return piece[:-1] if piece.endswith("\n") else piece


def _opcodes(blocks, n, m):
    """difflib-style opcodes (tag, i1, i2, j1, j2) from non-adjacent matching blocks."""
    ops = []
    i = j = 0
    for ai, bj, size in blocks + [(n, m, 0)]:
        if i < ai and j < bj:
            ops.append(("replace", i, ai, j, bj))
        elif i < ai:
            ops.append(("delete", i, ai, j, bj))
        elif j < bj:
            ops.append(("insert", i, ai, j, bj))
        if size:
            ops.append(("equal", ai, ai + size, bj, bj + size))
        i, j = ai + size, bj + size
    return ops


def _grouped(ops, context):
    """Group opcodes into hunks with at most `context` equal lines around them."""
    if not ops:
        return
    ops = list(ops)
    if ops[0][0] == "equal":
        tag, i1, i2, j1, j2 = ops[0]
        ops[0] = (tag, max(i1, i2 - context), i2, max(j1, j2 - context), j2)
    if ops[-1][0] == "equal":
        tag, i1, i2, j1, j2 = ops[-1]
        ops[-1] = (tag, i1, min(i2, i1 + context), j1, min(j2, j1 + context))

    group = []
    for tag, i1, i2, j1, j2 in ops:
        if tag == "equal" and i2 - i1 > 2 * context:
            group.append((tag, i1, min(i2, i1 + context), j1, min(j2, j1 + context)))
            yield group
            group = [(tag, max(i1, i2 - context), i2, max(j1, j2 - context), j2)]
        else:
            group.append((tag, i1, i2, j1, j2))
    if group and not (len(group) == 1 and group[0][0] == "equal"):
        yield group


def _format_range(start: int, stop: int) -> str:
    beginning = start + 1
    length = stop - start
    if length == 1:
        return f"{beginning}"
    if not length:
        beginning -= 1  # empty ranges report the line just before
    return f"{beginning},{length}"


def _emit(out: list[str], prefix: str, piece: str) -> None:
    out.append(prefix + _display(piece))
    if not piece.endswith("\n"):
        out.append(_NO_NEWLINE)


def _render_unified(a, b, ops, context, path):
    lines: list[str] = []
    for group in _grouped(ops, context):
        if not lines:
            lines.append(f"--- a/{path}")
            lines.append(f"+++ b/{path}")
        i1, i2 = group[0][1], group[-1][2]
        j1, j2 = group[0][3], group[-1][4]
        lines.append(f"@@ -{_format_range(i1, i2)} +{_format_range(j1, j2)} @@")
        for tag, a1, a2, b1, b2 in group:
            if tag == "equal":
                for piece in a[a1:a2]:
                    _emit(lines, " ", piece)
                continue
            for piece in a[a1:a2]:
                _emit(lines, "-", piece)
            for piece in b[b1:b2]:
                _emit(lines, "+", piece)
    return "\n".join(lines) + "\n" if lines else ""


def diff(old_source: str, new_source: str, context_lines: int = 3,
         path: str = "file") -> ChangeSet:
    """LCS line diff of two texts rendered as a standard unified diff."""
    if context_lines < 0:
        raise ValueError("context_lines must be >= 0")
    a = split_keepends(old_source)
    b = split_keepends(new_source)
    ops = _opcodes(kernels.lcs_pairs(a, b), len(a), len(b))

    added = []
    removed = []
    for tag, i1, i2, j1, j2 in ops:
        if tag in ("replace", "delete"):
            removed.extend((i + 1, _display(a[i])) for i in range(i1, i2))
        if tag in ("replace", "insert"):
            added.extend((j + 1, _display(b[j])) for j in range(j1, j2))
    unified = _render_unified(a, b, ops, context_lines, path)
    return ChangeSet(
        added=tuple(added),
        removed=tuple(removed),
        unified=unified,
        changed_new_lines=tuple(n for n, _ in added),  # opcodes run in ascending j
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


def parse_unified(unified: str) -> tuple[tuple[tuple[int, str], ...], tuple[tuple[int, str], ...]]:
    """Recover (added, removed) line lists from a unified diff text."""
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
