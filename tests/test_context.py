import importlib
import random
import re
import time
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftlens import context
from driftlens.context import (
    _CONTROL_KEYWORDS,
    _CTOR_RE,
    _MODIFIERS,
    _REVERSED_CALL_RE,
    _SIG_RE,
    CallGraph,
    ContextBundle,
    MethodSpan,
    _brace_partners,
    _paren_closer,
    build_call_graph,
    extract_context,
    extract_methods,
    mask_source,
)
from driftlens.corpus import load_version
from driftlens.diffing import ChangeSet, diff
from driftlens.matching import SUBSETS, match_files, partition

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

DEFECT_EXAMPLE = """public class DefectExample {
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


def java_chain(edges, n_methods, filler=None):
    """Generate a Java class where method mi calls exactly its edge targets."""
    lines = ["public class Chain {"]
    calls = {i: [] for i in range(n_methods)}
    for a, b in edges:
        calls[a].append(b)
    for i in range(n_methods):
        lines.append(f"    public void m{i}() {{")
        lines.append(f"        int v{i} = {i};")
        if filler:
            lines.extend(f"        // filler {i} {k}" for k in range(filler))
        for target in calls[i]:
            lines.append(f"        m{target}();")
        lines.append("    }")
        lines.append("")
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_mask(source):
    """The per-character masker that mask_source must equal."""
    out = list(source)
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if ch == "/" and nxt == "/":
            while i < n and source[i] != "\n":
                out[i] = " "
                i += 1
        elif ch == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (source[i] == "*" and i + 1 < n and source[i + 1] == "/"):
                if source[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif ch in ('"', "'"):
            quote = ch
            i += 1
            while i < n and source[i] != quote:
                if source[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if source[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def reference_call_graph(methods, source):
    """(nodes, edges) by one call regex per method name over the masked source."""
    names = list(dict.fromkeys(span.name for span in methods))
    masked_lines = reference_mask(source).split("\n")
    edges = []
    for span in methods:
        body = "\n".join(masked_lines[span.start_line - 1:span.end_line])
        for name in names:
            calls = len(re.findall(rf"(?<![\w$]){re.escape(name)}\s*\(", body))
            declared = sum(1 for other in methods if other.name == name
                           and span.start_line <= other.start_line <= span.end_line)
            if calls > declared and (span.name, name) not in edges:
                edges.append((span.name, name))
    return tuple(names), tuple(edges)


class TestMasking:
    def test_string_braces_masked(self):
        masked = mask_source('String s = "}{";')
        assert "}" not in masked.replace('String s = "', "")[:2]
        assert masked.startswith("String s = ")
        assert '"  "' in masked

    def test_comments_masked_preserving_newlines(self):
        src = "a // } brace\n/* {\n} */\nb"
        masked = mask_source(src)
        assert masked.count("\n") == src.count("\n")
        assert "{" not in masked and "}" not in masked

    def test_escaped_quote_in_string(self):
        masked = mask_source(r'x = "a\"}";')
        assert "}" not in masked

    def test_unterminated_and_escaped_edges(self):
        assert mask_source('a "b\\\nc') == 'a "    '
        assert mask_source("x /* {\n}") == "x     \n "
        assert mask_source("'\\") == "' "

    @given(st.text(alphabet="/*\"'\\\n{}()a", max_size=80))
    @example("/*/ a")
    @example("a /**/ b")
    @example("/* ** */ a")
    @example("/** a **/ b")
    @example("/* *")
    @example('"a\\')
    @example('"a\\\\')
    @example("'a\\")
    @example("'\\'")
    @example("'\\\\' a")
    @settings(max_examples=600, deadline=None)
    def test_equals_reference_masker(self, source):
        assert mask_source(source) == reference_mask(source)


class TestExtractMethods:
    def test_defect_example_two_methods(self):
        methods = extract_methods(DEFECT_EXAMPLE)
        assert [m.name for m in methods] == ["calculateSum", "main"]
        calc = methods[0]
        assert calc.start_line == 2
        assert calc.end_line == 9
        assert calc.body.startswith("    public static int calculateSum")
        assert calc.body.endswith("}")
        assert calc.body.split("\n")[0] == "    public static int calculateSum(int[] arr) {"

    def test_empty_source(self):
        assert extract_methods("") == []

    def test_string_literal_brace_does_not_break_span(self):
        # expected span computed by manual brace matching: lines 2-5
        src = (
            "public class X {\n"
            "    public String render() {\n"
            '        String close = "}";\n'
            "        return close;\n"
            "    }\n"
            "}\n"
        )
        methods = extract_methods(src)
        assert len(methods) == 1
        assert (methods[0].start_line, methods[0].end_line) == (2, 5)

    def test_control_keywords_excluded(self):
        src = (
            "public class X {\n"
            "    public void go() {\n"
            "        if (ready()) {\n"
            "            for (int i = 0; i < 3; i++) { work(i); }\n"
            "        }\n"
            "        while (busy()) { spin(); }\n"
            "    }\n"
            "}\n"
        )
        methods = extract_methods(src)
        assert [m.name for m in methods] == ["go"]

    def test_abstract_declaration_skipped(self):
        src = (
            "public abstract class X {\n"
            "    public abstract int stub(int a);\n"
            "    public int real() {\n"
            "        return 1;\n"
            "    }\n"
            "}\n"
        )
        assert [m.name for m in extract_methods(src)] == ["real"]

    def test_constructor_detected(self):
        src = (
            "public class Widget {\n"
            "    public Widget(int size) {\n"
            "        this.size = size;\n"
            "    }\n"
            "}\n"
        )
        methods = extract_methods(src)
        assert [m.name for m in methods] == ["Widget"]

    def test_no_partial_overlaps(self):
        methods = extract_methods(java_chain([(0, 1), (1, 2)], 3))
        spans = [(m.start_line, m.end_line) for m in methods]
        for a in spans:
            for b in spans:
                if a == b:
                    continue
                nested = (a[0] <= b[0] and b[1] <= a[1]) or (b[0] <= a[0] and a[1] <= b[1])
                disjoint = a[1] < b[0] or b[1] < a[0]
                assert nested or disjoint


KITCHEN_SINK = """package com.example.app;

import java.util.List;
import java.util.Map;

@SuppressWarnings("unchecked")
public class KitchenSink implements Runnable {
    private static final String CLOSER = "}";
    private int counter = 0;

    public KitchenSink(int counter) {
        this.counter = counter;
    }

    @Override
    public void run() {
        /* braces in comments } { should not matter */
        helper(counter);
    }

    public Map<String, List<Integer>> index(List<String> keys) throws IllegalStateException {
        if (keys == null) {
            throw new IllegalStateException("no keys");
        }
        for (String key : keys) {
            helper(key.length());
        }
        return null;
    }

    private void helper(int amount) {
        counter += amount;
        new Thread(new Runnable() {
            public void run() {
                // anonymous class body
            }
        }).start();
    }

    abstract static class Inner {
        abstract int stub(int a);

        int real() {
            return 1;
        }
    }
}
"""


class TestKitchenSink:
    def test_extraction_is_sane_on_messy_java(self):
        methods = extract_methods(KITCHEN_SINK)
        names = {m.name for m in methods}
        assert {"KitchenSink", "run", "index", "helper", "real"} <= names
        assert "stub" not in names  # abstract, no body
        assert "if" not in names and "for" not in names and "catch" not in names
        for m in methods:
            assert m.start_line <= m.end_line
            assert m.body.rstrip().endswith("}")

    def test_graph_edges_on_messy_java(self):
        methods = extract_methods(KITCHEN_SINK)
        graph = build_call_graph(methods)
        assert ("run", "helper") in graph.edges
        assert ("index", "helper") in graph.edges
        assert ("helper", "run") not in graph.edges  # nested decl is not a call
        # the string literal "}" and comment braces must not corrupt spans:
        helper = next(m for m in methods if m.name == "helper")
        assert "new Thread" in helper.body

    def test_context_from_change_in_messy_java(self):
        edited = KITCHEN_SINK.replace("counter += amount;", "counter += amount * 2;")
        cs = diff(KITCHEN_SINK, edited)
        bundle = extract_context(cs, edited, depth=1, max_lines=400)
        assert bundle.included_methods[0] == "helper"
        assert {"run", "index"} <= set(bundle.included_methods)


class TestCallGraph:
    def test_defect_example_edge(self):
        methods = extract_methods(DEFECT_EXAMPLE)
        graph = build_call_graph(methods)
        assert ("main", "calculateSum") in graph.edges
        assert ("calculateSum", "main") not in graph.edges
        assert ("calculateSum", "calculateSum") not in graph.edges  # decl is not a call

    def test_no_mutual_mention_no_edges(self):
        src = java_chain([], 2)
        graph = build_call_graph(extract_methods(src))
        assert graph.edges == ()

    def test_chain_with_overload_collapse(self):
        src = (
            "public class X {\n"
            "    public void a() { b(1); }\n"
            "    public void b(int x) { c(); }\n"
            "    public void b(String s) { c(); }\n"
            "    public void c() { int k = 0; }\n"
            "}\n"
        )
        methods = extract_methods(src)
        graph = build_call_graph(methods)
        assert set(graph.nodes) == {"a", "b", "c"}
        assert set(graph.edges) == {("a", "b"), ("b", "c")}

    def test_recursion_self_loop(self):
        src = (
            "public class X {\n"
            "    public int fact(int n) {\n"
            "        return n <= 1 ? 1 : n * fact(n - 1);\n"
            "    }\n"
            "}\n"
        )
        graph = build_call_graph(extract_methods(src))
        assert ("fact", "fact") in graph.edges

    def test_call_inside_string_ignored(self):
        src = (
            "public class X {\n"
            '    public void a() { log("b()"); }\n'
            "    public void b() { int k = 0; }\n"
            "}\n"
        )
        graph = build_call_graph(extract_methods(src))
        assert ("a", "b") not in graph.edges

    def test_escaped_newline_in_literal_keeps_bodies_aligned(self):
        src = (
            "public class X {\n"
            '    String s = "a\\\n'
            'b";\n'
            "    public void a() {\n"
            "        int k = 0;\n"
            "    }\n"
            "    public void b() {\n"
            "        c();\n"
            "    }\n"
            "    public void c() {\n"
            "        int k = 0;\n"
            "    }\n"
            "}\n"
        )
        methods = extract_methods(src)
        assert [m.name for m in methods] == ["a", "b", "c"]
        assert [m.masked_body for m in methods] == [mask_source(m.body) for m in methods]
        assert build_call_graph(methods).edges == (("b", "c"),)


DECOYS = ('log("m{}()");', "// m{}() in a comment", "/* m{}( */", "char c = '('; // m{}(",
          'String s = "\\"m{}(";', "m{} (0);")


@st.composite
def chain_with_decoys(draw):
    """A java_chain source with call names hidden in literals and comments."""
    n = draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    src = java_chain(draw(st.lists(pair, max_size=10)), n)
    for (i, j), decoy in draw(st.lists(st.tuples(pair, st.sampled_from(DECOYS)), max_size=8)):
        src = src.replace(f"int v{i} = {i};", f"int v{i} = {i}; " + decoy.format(j), 1)
    return src


@given(chain_with_decoys())
@settings(max_examples=200, deadline=None)
def test_call_graph_equals_per_name_rule(src):
    methods = extract_methods(src)
    graph = build_call_graph(methods)
    assert (graph.nodes, graph.edges) == reference_call_graph(methods, src)


def change_in_method(source, method_name):
    """ChangeSet for an edit to the first body line of the named method."""
    methods = extract_methods(source)
    span = next(m for m in methods if m.name == method_name)
    lines = source.split("\n")
    lines[span.start_line] = lines[span.start_line] + " // edited"
    return diff(source, "\n".join(lines)), "\n".join(lines)


class TestExtractContext:
    def test_depth_zero_is_exactly_the_method(self):
        src = java_chain([(0, 1), (1, 2)], 3)
        cs, new_src = change_in_method(src, "m1")
        bundle = extract_context(cs, new_src, depth=0, max_lines=400)
        assert bundle.included_methods == ("m1",)
        span = next(m for m in extract_methods(new_src) if m.name == "m1")
        assert bundle.snippet == span.body
        assert not bundle.truncated

    def test_chain_depth_one(self):
        src = java_chain([(0, 1), (1, 2)], 3)  # m0 -> m1 -> m2
        cs, new_src = change_in_method(src, "m1")
        bundle = extract_context(cs, new_src, depth=1, max_lines=400)
        assert set(bundle.included_methods) == {"m0", "m1", "m2"}
        assert bundle.included_methods[0] == "m1"  # seed first

    def test_monotone_in_depth(self):
        src = java_chain([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        cs, new_src = change_in_method(src, "m2")
        previous = set()
        for depth in range(4):
            bundle = extract_context(cs, new_src, depth=depth, max_lines=1000)
            current = set(bundle.included_methods)
            assert previous <= current
            previous = current

    def test_budget_zero(self):
        src = java_chain([(0, 1)], 2)
        cs, new_src = change_in_method(src, "m0")
        bundle = extract_context(cs, new_src, depth=1, max_lines=0)
        assert bundle.snippet == ""
        assert bundle.truncated
        assert bundle.line_count == 0

    def test_budget_respected_and_earlier_methods_survive(self):
        src = java_chain([(0, 1), (1, 2)], 3, filler=10)
        cs, new_src = change_in_method(src, "m1")
        full = extract_context(cs, new_src, depth=2, max_lines=10_000)
        cut = extract_context(cs, new_src, depth=2, max_lines=5)
        assert cut.line_count <= 5
        assert cut.truncated
        assert full.snippet.startswith(cut.snippet)
        assert cut.included_methods == full.included_methods  # set is budget-independent
        assert full.kept_methods == full.included_methods
        assert cut.kept_methods == ("m1",)  # the seed's 13 lines fill the budget

    def test_change_outside_methods_survives_the_cut(self):
        # the raw window follows the seeds, so waves of callers cannot push it out
        src = java_chain([(0, j) for j in range(1, 60)], 60, filler=5)
        lines = src.split("\n")
        m1 = next(m for m in extract_methods(src) if m.name == "m1")
        lines[m1.start_line] += " // edited"
        assert lines[-2] == "}"  # the class's closing brace
        lines[-2] = "} // closed"
        new_src = "\n".join(lines)
        cs = diff(src, new_src)
        full = extract_context(cs, new_src, depth=3, max_lines=100_000)
        cut = extract_context(cs, new_src, depth=3, max_lines=400)
        assert cut.truncated and "} // closed" in cut.snippet
        assert full.snippet.startswith(cut.snippet)
        assert cut.included_methods == full.included_methods

    def test_change_outside_methods_gets_raw_window(self):
        src = "import java.util.List;\n\npublic class X {\n    public void a() { int q = 1; }\n}\n"
        new = src.replace("import java.util.List;", "import java.util.ArrayList;")
        cs = diff(src, new)
        bundle = extract_context(cs, new, depth=1, max_lines=50)
        assert "import java.util.ArrayList;" in bundle.snippet
        assert bundle.included_methods == ()

    def test_deletion_only_change_seeds_its_enclosing_method(self):
        src = java_chain([(0, 1), (1, 2)], 3, filler=2)
        new = src.replace("        // filler 1 0\n", "")
        cs = diff(src, new)
        assert cs.added == () and cs.removed == ((11, "        // filler 1 0"),)
        bundle = extract_context(cs, new, depth=0, max_lines=400)
        assert bundle.included_methods == ("m1",)

    def test_determinism(self):
        src = java_chain([(0, 2), (1, 2), (2, 3), (3, 0)], 4)
        cs, new_src = change_in_method(src, "m2")
        a = extract_context(cs, new_src, depth=3, max_lines=100)
        b = extract_context(cs, new_src, depth=3, max_lines=100)
        assert a == b

    def test_depth_used_stops_at_exhaustion(self):
        src = java_chain([(0, 1)], 2)
        cs, new_src = change_in_method(src, "m0")
        bundle = extract_context(cs, new_src, depth=3, max_lines=400)
        assert bundle.included_methods == ("m0", "m1")
        # graph exhausted after one wave: further depth adds nothing
        assert bundle == extract_context(cs, new_src, depth=1, max_lines=400)

    def test_rejects_negative_budget(self):
        src = java_chain([], 1)
        cs, new_src = change_in_method(src, "m0")
        with pytest.raises(ValueError):
            extract_context(cs, new_src, depth=-1, max_lines=10)

    def test_seeds_precede_all_non_seed_methods(self):
        src = java_chain([(0, 1), (2, 1), (3, 2), (4, 0)], 5)
        methods = extract_methods(src)
        # edit a line in both m1 and m3
        lines = src.split("\n")
        for name in ("m1", "m3"):
            span = next(m for m in methods if m.name == name)
            lines[span.start_line] = lines[span.start_line] + " // touched"
        new_src = "\n".join(lines)
        cs = diff(src, new_src)
        bundle = extract_context(cs, new_src, depth=3, max_lines=2000)
        included = list(bundle.included_methods)
        assert set(included[:2]) == {"m1", "m3"}  # both seeds first, in span order
        assert included[0] == "m1"


# The bracket walk, signature regexes, call rule, method extraction and call
# graph that the one-pass versions replaced; they stay as oracles.
REF_SIG_RE = re.compile(
    r"(?m)^[ \t]*"
    r"((?:(?:" + "|".join(_MODIFIERS) + r")\s+)*)"
    r"([\w$][\w$.<>\[\], \t?&]*?)[ \t]+"
    r"([A-Za-z_$][\w$]*)[ \t]*\("
)
REF_CTOR_RE = re.compile(
    r"(?m)^[ \t]*"
    r"((?:(?:public|protected|private|static|final|synchronized)\s+)+)"
    r"([A-Z][\w$]*)\s*\("
)
REF_CALL_RE = re.compile(r"(?<![\w$])([A-Za-z_$][\w$]*)\s*\(")
REF_BODY_OR_END_RE = re.compile(r"[{;]")


def reference_closing(masked, pos, opener, closer):
    """Offset of the closer that balances the opener at `pos`, or -1."""
    depth = 0
    for i in range(pos, len(masked)):
        if masked[i] == opener:
            depth += 1
        elif masked[i] == closer:
            depth -= 1
            if depth == 0:
                return i
    return -1


def reference_extract_methods(source):
    """Method spans found by per-signature bracket walks."""
    if not source:
        return []
    masked = mask_source(source)
    lines = source.split("\n")
    line_starts = [0]
    for ln in lines:
        line_starts.append(line_starts[-1] + len(ln) + 1)
    spans = []
    claimed = set()
    for pattern, name_group in ((REF_SIG_RE, 3), (REF_CTOR_RE, 2)):
        for m in pattern.finditer(masked):
            name = m.group(name_group)
            if name in _CONTROL_KEYWORDS:
                continue
            if pattern is REF_SIG_RE and any(tok in _CONTROL_KEYWORDS
                                             for tok in m.group(2).split()):
                continue
            close = reference_closing(masked, m.end() - 1, "(", ")")
            if close < 0:
                continue
            tail = REF_BODY_OR_END_RE.search(masked, close + 1)
            if tail is None or tail[0] == ";":
                continue
            end = reference_closing(masked, tail.start(), "{", "}")
            if end < 0:
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


def reference_build_call_graph(methods):
    """Call graph that filters every method against every span."""
    rank = {name: i for i, name in enumerate(dict.fromkeys(s.name for s in methods))}
    edges = {}
    for span in methods:
        calls = Counter(REF_CALL_RE.findall(span.masked_body))
        calls.subtract(s.name for s in methods
                       if span.start_line <= s.start_line <= span.end_line)
        callees = [name for name, n in calls.items() if n > 0 and name in rank]
        for name in sorted(callees, key=rank.__getitem__):
            edges[(span.name, name)] = None
    return CallGraph(nodes=tuple(rank), edges=tuple(edges))


SIGNATURE_HEADS = ("\npublic static int foo(", "\n  private Foo(", "\n\tvoid bar (", "\nFoo(",
                   "\n    synchronized List<T> baz$(", "\n  int[] é9(", "\n    if (",
                   "\nnew Foo(", "\n  public\n  static Foo(", "\nreturn x(", "foo(")
SIGNATURE_TAILS = (") {", ")\n{", ") throws X {", "int a, int b) {", ");", ")", "(", "{")
BODY_CHUNKS = ("\n", "    ", "\t", "public ", "static ", "final ", "int ", "return ", "foo(1);",
               "bar (x);", "Foo();", "baz$();", "é9();", "(", ")", "{", "}", ";", ", ", "9",
               "$", "é", "x", '"a(}"', "'{'", '"\\\n"', "// c(\n", "/* } { */", "/* ",
               "/** a **/", "\tfoo\t(")
SIGNATURE_ENDS = ("\n}", "}", "\n}\n", "}}", "")


@st.composite
def java_like(draw):
    """Signature-shaped sources with noise, unbalanced brackets and literals."""
    parts = []
    for _ in range(draw(st.integers(0, 5))):
        parts.extend(draw(st.lists(st.sampled_from(BODY_CHUNKS), max_size=3)))
        parts.append(draw(st.sampled_from(SIGNATURE_HEADS)))
        parts.append(draw(st.sampled_from(SIGNATURE_TAILS)))
        for chunk in draw(st.lists(st.sampled_from(BODY_CHUNKS + SIGNATURE_HEADS), max_size=8)):
            parts.append(chunk if chunk not in SIGNATURE_HEADS else chunk + ") {")
        parts.append(draw(st.sampled_from(SIGNATURE_ENDS)))
    return "".join(parts)


def fields(spans):
    return [(s.name, s.start_line, s.end_line, s.body, s.masked_body)
            for s in spans]


def reversed_call_matches(text):
    """(name, name start, "(" offset) of each call the reversed scan finds, ascending."""
    n = len(text)
    found = [(m[1][::-1], n - m.end(1), n - 1 - m.start())
             for m in _REVERSED_CALL_RE.finditer(text[::-1])]
    return found[::-1]


def lookbehind_call_matches(text):
    return [(m[1], m.start(), m.end() - 1) for m in REF_CALL_RE.finditer(text)]


class TestOnePassOracles:
    @given(st.text(alphabet="(){}a\n", max_size=80))
    @example(")(")
    @example("}{")
    @example("({)}")
    @example("(((")
    @settings(max_examples=600, deadline=None)
    def test_partners_equal_bracket_walk(self, text):
        expected = {}
        for pos, ch in enumerate(text):
            if ch == "{":
                close = reference_closing(text, pos, "{", "}")
                if close >= 0:
                    expected[pos] = close
        assert _brace_partners(text) == expected

    @given(st.text(alphabet="(){}a\n", max_size=80), st.randoms())
    @example(")(", random.Random(0))
    @example("}{", random.Random(0))
    @example("({)}", random.Random(0))
    @example("(((", random.Random(0))
    @settings(max_examples=600, deadline=None)
    def test_paren_closer_equals_bracket_walk(self, text, rng):
        # every "(" asked once, in a random order, so later asks meet the
        # pairs and the unclosed runs that earlier scans memoised
        opens = [pos for pos, ch in enumerate(text) if ch == "("]
        rng.shuffle(opens)
        close = _paren_closer(text)
        for pos in opens:
            assert close(pos) == reference_closing(text, pos, "(", ")"), pos

    @given(java_like())
    @example("void foo\t(x) {}")
    @example("public Foo\n() {}")
    @example("int $a$() {}\n$a$(")
    @example("int 9a() {}\n9a(")
    @example("public static Foo() {}")
    @example("public\n  static\tFoo (")
    @example("int foo")
    @example("public Foo")
    @settings(max_examples=300, deadline=None)
    def test_signature_patterns_equal_line_anchored_originals(self, source):
        masked = mask_source(source)
        for new, old in ((_SIG_RE, REF_SIG_RE), (_CTOR_RE, REF_CTOR_RE)):
            # the new patterns scan "\n" + masked: starts agree, ends shift by one
            got = [(m.start(), m.end() - 1, m.groups()) for m in new.finditer("\n" + masked)]
            want = [(m.start(), m.end(), m.groups()) for m in old.finditer(masked)]
            assert got == want

    @given(java_like())
    @example("foo\t(")
    @example("public Foo\n(")
    @example("$a$(")
    @example("9a(")
    @example("x(1); foo")
    @example("é9(")
    @example("x (  y(")
    @example("a.b(")
    @example("((")
    @example("foo\n(")
    @example("go(x)")
    @settings(max_examples=300, deadline=None)
    def test_call_pattern_equals_lookbehind_original(self, source):
        masked = mask_source(source)
        assert reversed_call_matches(masked) == lookbehind_call_matches(masked)

    @given(st.text(alphabet="aZ9_$é. \t\n(", max_size=40))
    @settings(max_examples=400, deadline=None)
    def test_call_pattern_equals_lookbehind_original_on_any_text(self, text):
        assert reversed_call_matches(text) == lookbehind_call_matches(text)

    def test_call_and_bracket_scans_run_in_linear_time(self):
        # a scan that retried every "(" or every letter would take seconds here
        texts = ["(" * 200_000, "a" * 200_000 + "(", "( " * 100_000]
        started = time.perf_counter()
        found = [len(_REVERSED_CALL_RE.findall(text[::-1])) for text in texts]
        paired = [len(_brace_partners(text.replace("(", "{"))) for text in texts]
        assert time.perf_counter() - started < 1.0
        assert found == [0, 1, 0]
        assert paired == [0, 0, 0]

        # and so would a closer that rescanned what earlier asks had scanned:
        # each text's "(" are asked last to first, so every ask meets the pairs
        # and unclosed runs memoised before it; past the last pair of the last
        # text, a closer that found the next "(" afresh after each jump would
        # scan the blank tail once per pair
        paren_texts = ["(" * 200_000, "(" * 200_000 + ")", "()" * 100_000,
                       "(" * 100_000 + ")" * 100_000, "(" * 20_000 + ")" * 20_000 + " " * 2_000_000]
        started = time.perf_counter()
        closed = []
        for text in paren_texts:
            close = _paren_closer(text)
            closed.append(sum(close(pos) >= 0 for pos in reversed(range(len(text)))
                              if text[pos] == "("))
        methods = extract_methods("class A {\n" + "  void f(\n" * 20_000 + ")")
        assert time.perf_counter() - started < 1.0
        assert closed == [0, 1, 100_000, 100_000, 20_000]
        assert methods == []

    @given(java_like())
    @settings(max_examples=400, deadline=None)
    def test_extract_methods_equals_reference(self, source):
        assert fields(extract_methods(source)) == fields(reference_extract_methods(source))

    @given(java_like(), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_call_graph_equals_reference_on_any_span_order(self, source, rng):
        methods = extract_methods(source)
        shuffled = rng.sample(methods, len(methods))
        for spans in (methods, shuffled, shuffled[: len(shuffled) // 2]):
            assert build_call_graph(spans) == reference_build_call_graph(spans)


def test_context_equals_reference_on_synthetic_pair(tmp_path, monkeypatch):
    """Every changed file of a context-debate pair, at depth 0-3 and two budgets."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    paths = synth.write_pair(workloads.WORKLOADS["context-debate"].corpus, 5, tmp_path)
    old_set, new_set = load_version(paths["old"]), load_version(paths["new"])
    records, _ = partition(old_set, new_set, match_files(old_set, new_set))
    changed = [r for r in records if r.subset in SUBSETS]
    assert changed
    cases = [(diff(r.old_file.source, r.new_file.source, path=r.record_id), r.new_file.source)
             for r in changed]
    got = [extract_context(cs, src, depth, budget)
           for cs, src in cases for depth in range(4) for budget in (400, 60)]
    monkeypatch.setattr(context, "extract_methods", reference_extract_methods)
    monkeypatch.setattr(context, "build_call_graph", reference_build_call_graph)
    want = [extract_context(cs, src, depth, budget)
            for cs, src in cases for depth in range(4) for budget in (400, 60)]
    assert got == want
    assert any(bundle.truncated for bundle in got)


def reference_extract_context(cs, source, depth, max_lines):
    """The rule extract_context must equal: seeds found by testing every span
    against every changed line, then the whole snippet rendered (seeds, raw
    windows, waves) and cut."""
    methods = extract_methods(source)
    graph = build_call_graph(methods)
    spans_by_name = {}
    for span in methods:
        spans_by_name.setdefault(span.name, []).append(span)
    neighbours = {name: set() for name in graph.nodes}
    for caller, callee in graph.edges:
        neighbours[caller].add(callee)
        neighbours[callee].add(caller)
    first_line = {name: spans[0].start_line for name, spans in spans_by_name.items()}
    seeds, outside = [], []
    for line in sorted(set(cs.changed_new_lines)):
        hits = [s for s in methods if s.start_line <= line <= s.end_line]
        if hits:
            for span in hits:
                if span.name not in seeds:
                    seeds.append(span.name)
        else:
            outside.append(line)
    order, seen, frontier, waves = list(seeds), set(seeds), list(seeds), 0
    while frontier and waves < depth:
        nxt = []
        for name in frontier:
            for nb in sorted(neighbours[name], key=first_line.__getitem__):
                if nb not in seen:
                    seen.add(nb)
                    order.append(nb)
                    nxt.append(nb)
        if not nxt:
            break
        frontier = nxt
        waves += 1
    parts, first_rendered = [], {}

    def render(names):
        for name in names:
            for span in spans_by_name[name]:
                if parts:
                    parts.append("")
                first_rendered.setdefault(name, len(parts))
                parts.extend(span.body.split("\n"))

    render(seeds)
    if outside:
        src_lines = source.split("\n")
        windows = sorted((max(1, ln - 3), min(len(src_lines), ln + 3)) for ln in outside)
        merged = []
        for lo, hi in windows:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        for lo, hi in merged:
            if parts:
                parts.append("")
            parts.extend(src_lines[lo - 1:hi])
    render(order[len(seeds):])
    return ContextBundle(
        snippet="\n".join(parts[:max_lines]),
        included_methods=tuple(order),
        kept_methods=tuple(name for name in order if first_rendered[name] < max_lines),
        truncated=len(parts) > max_lines,
    )


def changed_lines(lines):
    return ChangeSet(added=(), removed=(), unified="", changed_new_lines=tuple(lines))


@st.composite
def java_like_change(draw):
    source = draw(java_like())
    n_lines = source.count("\n") + 1
    lines = draw(st.lists(st.integers(1, n_lines), max_size=n_lines + 2))
    return source, changed_lines(lines)


@given(java_like_change(), st.integers(0, 3), st.integers(0, 40))
@settings(max_examples=300, deadline=None)
def test_context_equals_scan_every_span_rule(change, depth, budget):
    source, cs = change
    assert (extract_context(cs, source, depth, budget)
            == reference_extract_context(cs, source, depth, budget))


def test_seed_lookup_runs_in_linear_time():
    # testing every span against every changed line took 1.9 s here
    source = java_chain([], 3000)
    cs = changed_lines(range(1, source.count("\n") + 2))
    started = time.perf_counter()
    bundle = extract_context(cs, source, depth=0, max_lines=400)
    assert time.perf_counter() - started < 0.5
    assert len(bundle.included_methods) == 3000
    assert bundle.kept_methods == tuple(f"m{i}" for i in range(100))  # 4 lines each
