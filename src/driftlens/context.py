"""Diff-anchored file-local context extraction.

Each source is masked once: one regex finds every comment and string/char
literal, and one substitution blanks them with offsets kept. The offsets of
each bracket character, found by `str.find`, pair every `(` and `{` of the
masked text with its closer. Methods are located by two signature regexes
anchored on line starts; a signature's parameter list and body extents are
then partner lookups, and each span keeps its masked body. A same-file,
name-based call graph counts the `name(` tokens of each masked body in a
single scan of the reversed body, which jumps from one `(` to the next. The
scanning patterns do not backtrack: a run is possessive (`*+`, `++`)
wherever the item after it cannot start with what it consumed, and only the
signature modifiers give text back, as `public static Foo(` needs. Context
expansion walks callers and callees outward from the methods touching
changed lines, one wave per depth unit, and renders the visited bodies
until the line budget is spent.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate, count
from operator import add

RAW_WINDOW = 3  # lines kept around changed lines that fall outside any method

_MODIFIERS = ("public", "protected", "private", "static", "final", "abstract",
              "synchronized", "native", "strictfp", "default")
_CONTROL_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "catch", "return", "new", "else", "do",
    "try", "synchronized", "super", "this", "throw", "assert", "case",
    "instanceof", "break", "continue", "yield",
})

# The signature regexes scan "\n" + masked text, so a match starts at a
# line start and ends at the "(" opening its parameter list. Each "*+" or
# "++" below is exact: the item after it cannot start with a character it
# consumed. Only the modifier run backtracks: `public static Foo(` matches
# `static` as the return type.
_SIG_RE = re.compile(
    r"\n[ \t]*+"                                       # indent, then a word char
    r"((?:(?:" + "|".join(_MODIFIERS) + r")\s++)*)"    # modifiers, each then a word char
    r"([\w$][\w$.<>\[\], \t?&]*?)[ \t]++"             # return type, same line only
    r"([A-Za-z_$][\w$]*+)[ \t]*+\("                    # name, then blanks, then "("
)
# A constructor's name opens with a capital and every modifier with a small
# letter, so giving a modifier back leaves no name to match: "++" is exact.
_CTOR_RE = re.compile(
    r"\n[ \t]*+"
    r"((?:(?:public|protected|private|static|final|synchronized)\s++)++)"
    r"([A-Z][\w$]*+)\s*+\("
)
# Comments and literals, leftmost first. A literal captures its body and
# pairs each backslash with the next character; an unterminated comment or
# literal runs to the end of the text. A block comment takes runs of
# non-stars and stars not before "/", so it stops at its first "*/". Every
# run is followed by a character it excludes or by an optional tail, so no
# run is retried shorter.
_MASKED_RE = re.compile(
    r"//[^\n]*+"
    r"|/\*[^*]*+(?:\*(?!/)[^*]*+)*+(?:\*/)?+"
    r'|"([^"\\]*+(?:\\.?[^"\\]*+)*+)"?'
    r"|'([^'\\]*+(?:\\.?[^'\\]*+)*+)'?",
    re.DOTALL,
)
_NOT_NEWLINE_RE = re.compile(r"[^\n]+")
_LITERAL_BODY_RE = re.compile(r"\\.?|[^\\\n]+", re.DOTALL)
_BODY_OR_END_RE = re.compile(r"[{;]")
# A call is a name, blanks, then "(". Scanning the reversed body, the
# pattern leads with the literal "(", so the scan jumps from one "(" to the
# next instead of trying every letter. The blanks and the name are taken
# whole, so the name is the maximal run of word characters before the "(",
# and it is kept only if its first character (the last one taken) may start
# an identifier. Each match's name reads backwards.
_REVERSED_CALL_RE = re.compile(r"\(\s*+([\w$]++)(?<=[A-Za-z_$])")


class MethodSpan(namedtuple("MethodSpan", "name start_line end_line body masked_body")):
    """One detected method: its name, declaration line, and body extent.

    start_line and end_line are 1-based and inclusive; masked_body is the
    same lines of the masked source.
    """

    __slots__ = ()


class CallGraph(namedtuple("CallGraph", "nodes edges")):
    """Same-file caller->callee edges over method names."""

    __slots__ = ()


class ContextBundle(namedtuple("ContextBundle",
                               "snippet included_methods kept_methods truncated")):
    """Expanded context snippet plus the ordered method set behind it.

    `included_methods` is every method the expansion visited, whatever the
    budget; `kept_methods` is those of them whose first line is in the
    snippet, in the same order.
    """

    __slots__ = ()

    @property
    def line_count(self) -> int:
        return 0 if not self.snippet else self.snippet.count("\n") + 1


def _spaces(m: re.Match) -> str:
    return " " * len(m[0])


def _blank(m: re.Match) -> str:
    text = m[0]
    if m.lastindex is None:  # a comment: its newlines survive
        if "\n" not in text:
            return " " * len(text)
        return _NOT_NEWLINE_RE.sub(_spaces, text)
    body = m[m.lastindex]    # a literal keeps its quotes; escape pairs blank as one
    tail = text[1 + len(body):]
    if "\n" not in body:
        return text[0] + " " * len(body) + tail
    return text[0] + _LITERAL_BODY_RE.sub(_spaces, body) + tail


def mask_source(source: str) -> str:
    """Blank out string/char literals and comments, preserving offsets.

    Unterminated comments and literals run to the end of the text. Newlines
    survive, except one escaped by a backslash inside a literal.
    """
    return _MASKED_RE.sub(_blank, source)


def _offsets(text: str, ch: str) -> list[int]:
    """Every offset of `ch` in `text`, ascending."""
    found: list[int] = []
    at = text.find(ch)
    while at >= 0:
        found.append(at)
        at = text.find(ch, at + 1)
    return found


def _pair(opens: list[int], closes: list[int], partner: dict[int, int]) -> None:
    """Pair each closer with the latest unpaired opener before it."""
    stack: list[int] = []
    i, n = 0, len(opens)
    for close in closes:
        while i < n and opens[i] < close:
            stack.append(opens[i])
            i += 1
        if stack:
            partner[stack.pop()] = close


def _partners(masked: str) -> dict[int, int]:
    """Offset of each balanced `(` or `{` mapped to the offset of its closer.

    Parentheses and braces are paired independently. A closer with no open
    partner is skipped, and an opener never closed has no entry.
    """
    partner: dict[int, int] = {}
    _pair(_offsets(masked, "("), _offsets(masked, ")"), partner)
    _pair(_offsets(masked, "{"), _offsets(masked, "}"), partner)
    return partner


def extract_methods(source: str) -> list[MethodSpan]:
    """Best-effort detection of Java method declarations and their extents.

    Spans come sorted by start line, then end line.
    """
    if not source:
        return []
    masked = mask_source(source)
    lines = source.split("\n")
    # offsets of each line start, then one past the end; masking keeps every
    # offset but may blank a newline, so both texts are cut by source lines
    line_starts = list(map(add, accumulate(map(len, lines), initial=0), count()))

    partner = _partners(masked)
    # a match in text starts at its line's start in masked offsets, and
    # its "(" sits at m.end() - 2 in masked offsets
    text = "\n" + masked

    spans: list[MethodSpan] = []
    claimed: set[tuple[int, int]] = set()
    for pattern, name_group in ((_SIG_RE, 3), (_CTOR_RE, 2)):
        for m in pattern.finditer(text):
            name = m.group(name_group)
            if name in _CONTROL_KEYWORDS:
                continue
            if pattern is _SIG_RE:
                head = m.group(2).split()
                if any(tok in _CONTROL_KEYWORDS for tok in head):
                    continue
            close = partner.get(m.end() - 2)
            if close is None:
                continue
            # skip whitespace and a throws clause; require a body
            tail = _BODY_OR_END_RE.search(masked, close + 1)
            if tail is None or tail[0] == ";":
                continue
            end = partner.get(tail.start())
            if end is None:
                continue
            start_line = bisect_right(line_starts, m.start())
            end_line = bisect_right(line_starts, end)
            if (start_line, end_line) in claimed:
                continue
            claimed.add((start_line, end_line))
            spans.append(MethodSpan(
                name=name,
                start_line=start_line,
                end_line=end_line,
                body=source[line_starts[start_line - 1]:line_starts[end_line] - 1],
                masked_body=masked[line_starts[start_line - 1]:line_starts[end_line] - 1],
            ))
    spans.sort(key=lambda s: (s.start_line, s.end_line))
    return spans


def build_call_graph(methods: list[MethodSpan]) -> CallGraph:
    """Name-based caller->callee edges among same-file methods.

    An edge m->n exists when n's name followed by "(" appears in m's masked
    body more often than n is declared inside m's span; overloads collapse
    to one node. Edges are ordered by caller span, then callee node.
    """
    rank = {name: i for i, name in enumerate(dict.fromkeys(s.name for s in methods))}
    by_start = sorted(methods, key=lambda s: s.start_line)
    starts = [s.start_line for s in by_start]
    edges: dict[tuple[str, str], None] = {}
    for span in methods:
        found = [name[::-1] for name in _REVERSED_CALL_RE.findall(span.masked_body[::-1])]
        callees = rank.keys() & found
        # only a name declared inside the span, usually its own, needs counts
        declared = [s.name for s in by_start[bisect_left(starts, span.start_line):
                                             bisect_right(starts, span.end_line)]]
        for name in callees.intersection(declared):
            if found.count(name) <= declared.count(name):
                callees.discard(name)
        for name in sorted(callees, key=rank.__getitem__):
            edges[(span.name, name)] = None
    return CallGraph(nodes=tuple(rank), edges=tuple(edges))


def _merge_windows(windows: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(windows):
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def extract_context(cs, source: str, depth: int, max_lines: int) -> ContextBundle:
    """Expand changed lines through the call graph into a bounded snippet.

    Seeds are the methods overlapping the change's new-file lines; each
    depth unit adds one breadth-first wave of callers and callees. Changed
    lines outside any method contribute a small raw window, rendered right
    after the seeds. The rendered snippet is cut to whole lines, earlier
    (closer to the change) blocks surviving first; rendering stops once the
    cut is certain.
    """
    if depth < 0 or max_lines < 0:
        raise ValueError("depth and max_lines must be >= 0")
    methods = extract_methods(source)
    graph = build_call_graph(methods)
    spans_by_name: dict[str, list[MethodSpan]] = {}
    for span in methods:
        spans_by_name.setdefault(span.name, []).append(span)
    neighbours: dict[str, set[str]] = {name: set() for name in graph.nodes}
    for caller, callee in graph.edges:
        neighbours[caller].add(callee)
        neighbours[callee].add(caller)
    first_line = {name: spans[0].start_line for name, spans in spans_by_name.items()}

    # One sweep over the changed lines in ascending order. `methods` is
    # sorted by start line, so the spans holding the current line, kept in
    # `methods` order, are those already started and not yet ended.
    seeds: dict[str, None] = {}
    outside: list[int] = []
    active: list[MethodSpan] = []
    started = 0
    for line in sorted(set(cs.changed_new_lines)):
        while started < len(methods) and methods[started].start_line <= line:
            active.append(methods[started])
            started += 1
        active = [span for span in active if span.end_line >= line]
        if active:
            seeds.update(dict.fromkeys(span.name for span in active))
        else:
            outside.append(line)

    order = list(seeds)
    seen = set(seeds)
    frontier = list(seeds)
    for _ in range(depth):
        nxt: list[str] = []
        for name in frontier:
            for nb in sorted(neighbours[name], key=first_line.__getitem__):
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
                    nxt.append(nb)
        if not nxt:
            break
        frontier = nxt

    # (method name or None for a raw window, text) in render order: the
    # seeds, then the windows around changed lines outside every method, as
    # close to the change as the seeds, then each wave
    blocks = [(name, span.body) for name in seeds for span in spans_by_name[name]]
    if outside:
        src_lines = source.split("\n")
        windows = [(max(1, ln - RAW_WINDOW), min(len(src_lines), ln + RAW_WINDOW))
                   for ln in outside]
        blocks += [(None, "\n".join(src_lines[lo - 1:hi])) for lo, hi in _merge_windows(windows)]
    blocks += [(name, span.body) for name in order[len(seeds):] for span in spans_by_name[name]]

    parts: list[str] = []
    kept: dict[str, None] = {}
    for name, text in blocks:
        if len(parts) > max_lines:  # the cut is certain; later blocks cannot show
            break
        if parts:
            parts.append("")
        if name is not None and len(parts) < max_lines:
            kept[name] = None
        parts.extend(text.split("\n"))

    return ContextBundle(
        snippet="\n".join(parts[:max_lines]),
        included_methods=tuple(order),
        kept_methods=tuple(kept),
        truncated=len(parts) > max_lines,
    )
