import csv
import dataclasses
import importlib
import io
import itertools
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlens import corpus
from driftlens.corpus import (
    VersionedFile,
    VersionSet,
    _csv_rows,
    _split_rows,
    load_version,
    normalize_lines,
)
from driftlens.errors import ConfigurationError, DataError
from snapshot_csv import write_version

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_single_row_zero_bug(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", "class A {}"]])
    vset = load_version(p)
    assert len(vset) == 1
    assert vset.files[0].label == 0
    assert vset.files[0].source == "class A {}"
    assert vset.version_id == "v"


def test_bug_counts_threshold():
    # brute-force the thresholding rule row by row
    counts = [0, 1, 3]
    expected = [1 if c > 0 else 0 for c in counts]
    assert expected == [0, 1, 1]


def test_bug_counts_threshold_through_loader(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"],
              [["A.java", "0", "a"], ["B.java", "1", "b"], ["C.java", "3", "c"]])
    vset = load_version(p)
    assert [f.label for f in vset.files] == [0, 1, 1]


def test_fallback_column_names(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["File", "Bug", "SRC"], [["A.java", "2", "x"]])
    vset = load_version(p)
    assert vset.files[0].label == 1


def test_missing_column_names_the_column(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", "x"]])
    with pytest.raises(ConfigurationError, match="defects"):
        load_version(p, label_column="defects")


def test_duplicate_paths_listed(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", "x"], ["A.java", "1", "y"]])
    with pytest.raises(DataError, match="A.java"):
        load_version(p)


@pytest.mark.parametrize("count", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_bug_count_reports_row(tmp_path, count):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", "x"], ["B.java", count, "y"]])
    with pytest.raises(DataError, match="row 3"):
        load_version(p)


def test_unparseable_label_reports_row(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", "x"], ["B.java", "maybe", "y"]])
    with pytest.raises(DataError, match="row 3"):
        load_version(p)


def test_source_preserved_verbatim(tmp_path):
    source = 'int x = 0;\r\n// "quoted, with comma"\n\ttabbed\n'
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", source]])
    vset = load_version(p)
    assert vset.files[0].source == source


@given(st.lists(
    st.tuples(
        st.integers(0, 10**6),
        st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
                max_size=200),
    ),
    min_size=1, max_size=20,
))
@settings(max_examples=40, deadline=None)
def test_round_trip_preserves_triples(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    files = tuple(
        VersionedFile(path=f"f{i}.java", source=src, label=1 if bug > 0 else 0, version_id="v")
        for i, (bug, src) in enumerate(rows)
    )
    vset = VersionSet(version_id="v", dataset_name="d", files=files)
    out = tmp / "out.csv"
    write_version(vset, out)
    reloaded = load_version(out, version_id="v")
    assert [(f.path, f.label, f.source) for f in reloaded.files] == \
           [(f.path, f.label, f.source) for f in vset.files]


@pytest.mark.parametrize("source,expected", [
    ("a\r\nb\n", ["a", "b"]),
    ("", []),
    ("x\n\ny", ["x", "", "y"]),
    ("one", ["one"]),
    ("a\n\n", ["a", ""]),
    ("  indented \n", ["  indented "]),
])
def test_normalize_lines(source, expected):
    assert normalize_lines(source) == expected


def test_version_set_lookup(tmp_path):
    p = tmp_path / "v.csv"
    write_csv(p, ["name", "bug", "src"], [["A.java", "0", "x"], ["b.java", "1", "y"]])
    vset = load_version(p, dataset_name="demo")
    assert "A.java" in vset
    assert "a.java" not in vset  # paths are case-sensitive
    assert vset.get("b.java").label == 1
    assert vset.defective_fraction() == pytest.approx(0.5)


# --- _csv_rows against csv.reader ---------------------------------------------------


@contextmanager
def _csv_field_limit(limit):
    previous = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(previous)


def reference_load_version(csv_path, version_id="v"):
    """load_version as it read snapshots through csv.reader, as (path, source, label)."""
    with open(csv_path, newline="", encoding="utf-8", errors="replace") as fh, \
            _csv_field_limit(2**31 - 1):
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path} is empty") from None
        path_col = corpus._pick_column(header, None, corpus.PATH_COLUMNS, "path")
        label_col = corpus._pick_column(header, None, corpus.LABEL_COLUMNS, "label")
        source_col = corpus._pick_column(header, None, corpus.SOURCE_COLUMNS, "source")
        idx = {name: header.index(name) for name in (path_col, label_col, source_col)}
        files = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise DataError(f"row {row_number} has {len(row)} fields, expected {len(header)}")
            files.append(VersionedFile(
                path=row[idx[path_col]],
                source=row[idx[source_col]],
                label=corpus._parse_label(row[idx[label_col]], row_number),
                version_id=version_id,
            ))
    vset = VersionSet(version_id=version_id, dataset_name="", files=tuple(files))
    return [(f.path, f.source, f.label) for f in vset.files]


def loaded(csv_path, previous=None):
    return [(f.path, f.source, f.label)
            for f in load_version(csv_path, version_id="v", previous=previous).files]


def outcome(load, csv_path):
    """What a loader returns, or the type and message of what it raises."""
    try:
        return load(csv_path)
    except (ConfigurationError, DataError) as exc:
        return type(exc), str(exc)


def rows_of(text):
    return list(_csv_rows(io.StringIO(text, newline="")))


def reader_rows(text):
    return list(csv.reader(io.StringIO(text, newline="")))


@pytest.mark.parametrize("block", [1, 2, 3])
def test_csv_rows_equal_csv_reader_on_every_short_string(monkeypatch, block):
    monkeypatch.setattr(corpus, "_BLOCK", block)
    for size in range(7):
        for chars in itertools.product('a,"\r\n', repeat=size):
            text = "".join(chars)
            assert rows_of(text) == reader_rows(text), (block, text)


_TOKENS = ["a", "0", "1", ",", '"', "\r", "\n", " ", "\u00e9", "\u20ac", "\U0001f600"]
_TOKENS = [t.encode() for t in _TOKENS] + [b"\xff", b"\xe2\x82", b"\xc3", b"A,0,", b",1,\"",
                                           b"\x00"]


@given(st.lists(st.sampled_from(_TOKENS), max_size=60), st.sampled_from([1, 2, 3, 7, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_load_version_equals_csv_reader_loader(tmp_path_factory, tokens, block):
    path = tmp_path_factory.mktemp("oracle") / "v.csv"
    path.write_bytes(b"name,bug,src\r\n" + b"".join(tokens))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_BLOCK", block)
        with open(path, newline="", encoding="utf-8", errors="replace") as fh:
            rows = list(_csv_rows(fh))
        with open(path, newline="", encoding="utf-8", errors="replace") as fh:
            assert rows == list(csv.reader(fh))
        assert outcome(loaded, path) == outcome(reference_load_version, path)


def _no_reader_rows(buf, fh):
    raise AssertionError(f"text csv.writer wrote went to the csv.reader fallback: {buf!r}")


_WRITER_FIELDS = st.text(alphabet=['a', '"', ',', '\r', '\n', '\u00e9', '\U0001f600'], max_size=8)


@given(st.lists(st.lists(_WRITER_FIELDS, min_size=1, max_size=4), max_size=8),
       st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]),
       st.sampled_from(["\r\n", "\n", "\r"]),
       st.sampled_from([1, 2, 3, 7, 1 << 16]))
@settings(max_examples=300, deadline=None)
def test_csv_rows_split_what_csv_writer_writes(rows, quoting, terminator, block):
    out = io.StringIO(newline="")
    csv.writer(out, quoting=quoting, lineterminator=terminator).writerows(rows)
    text = out.getvalue()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_BLOCK", block)
        mp.setattr(corpus, "_reader_rows", _no_reader_rows)
        assert rows_of(text) == reader_rows(text)


@given(st.text(alphabet=['a', ',', '"', '\r', '\n', '\u20ac'], max_size=30))
@settings(max_examples=500, deadline=None)
def test_split_rows_carries_the_pieces_after_its_complete_rows(text):
    split = _split_rows(text.split('"'), False)
    if split is not None:
        rows, rest = split
        carried = '"'.join(rest)
        assert text.endswith(carried)
        head = text[:len(text) - len(carried)]
        # the complete rows end at a line end, and a CR the block ends with
        # may start a CRLF, so it is carried
        assert not head or head[-1] == "\n" or (
            head[-1] == "\r" and carried and carried[0] != "\n")
        assert rows == reader_rows(head)
    split = _split_rows(text.split('"'), True)
    if split is not None:
        assert split == (reader_rows(text), [])


class _CountedReads(io.StringIO):
    def __init__(self, text):
        super().__init__(text, newline="")
        self.sizes = []

    def read(self, size=-1):
        self.sizes.append(size)
        return super().read(size)

    def readline(self, size=-1):
        line = super().readline(size)
        self.sizes.append(len(line))
        return line


@pytest.mark.parametrize("text", ["a\r\nb\r\n", "a,b\r\n\r\nc", '"a\r\n"\r\nb'])
def test_crlf_split_across_a_block_edge_is_one_line_end(monkeypatch, text):
    monkeypatch.setattr(corpus, "_BLOCK", text.index("\r") + 1)
    assert rows_of(text) == reader_rows(text)


def test_quoted_field_over_many_blocks_reads_in_linear_time(monkeypatch):
    monkeypatch.setattr(corpus, "_BLOCK", 4)
    source = 'say ""hi"",\r\n' * 500
    text = f'name,bug,src\nA.java,0,"{source}"\nB.java,1,b\n'
    fh = _CountedReads(text)
    assert list(_csv_rows(fh)) == reader_rows(text)
    assert reader_rows(text)[1][2] == source.replace('""', '"')
    # each read at least doubles the text carried over, so the long row costs
    # logarithmically many reads and linearly many characters
    assert len(fh.sizes) <= (len(text) // 4).bit_length() + 4
    assert sum(fh.sizes) <= 2 * len(text)


def test_irregular_quoting_over_many_blocks_reads_in_linear_time(monkeypatch):
    monkeypatch.setattr(corpus, "_BLOCK", 4)
    # text after a closing quote, then a quote inside an unquoted field
    stray = ('A.java,0,"x"tail\r\n', 'B.java,1,a"b\r\n')
    lines = ["name,bug,src\r\n", *(stray[i % 2] for i in range(500)),
             'C.java,0,"say ""hi"",\r\n"\r\n', "D.java,1,d\r\n"]
    text = "".join(lines)
    fh = _CountedReads(text)
    assert list(_csv_rows(fh)) == reader_rows(text)
    assert sum(fh.sizes) <= 2 * len(text)
    # each row costs reads logarithmic in its length, and none carries the
    # text of a later row: a stray quote does not make the rest of the file one row
    assert len(fh.sizes) <= sum((len(line) // 4).bit_length() + 2 for line in lines)
    assert max(fh.sizes) <= max(map(len, lines))


@pytest.mark.parametrize("block", [1, 5, 1 << 16])
def test_unclosed_quote_runs_to_end_of_file(tmp_path, monkeypatch, block):
    monkeypatch.setattr(corpus, "_BLOCK", block)
    p = tmp_path / "v.csv"
    p.write_text('name,bug,src\nA.java,0,"never\r\nclosed, "" still', encoding="utf-8")
    assert loaded(p) == reference_load_version(p) == [("A.java", 'never\r\nclosed, " still', 0)]


_HUGE = "x" * 200_000  # over csv.reader's default field limit of 131,072 characters


@pytest.mark.parametrize("rows,expected", [
    (f'B.java,1,"{_HUGE}"\r\nC.java,0,{_HUGE}yz\r\n',
     [("A.java", "qtail", 0), ("B.java", _HUGE, 1), ("C.java", _HUGE + "yz", 0)]),
    (f'B.java,1,"{_HUGE}"\r\nC.java,{_HUGE}\r\n', (DataError, "row 4 has 2 fields, expected 3")),
])
def test_oversized_field_after_an_irregular_quote(tmp_path, rows, expected):
    p = tmp_path / "v.csv"
    p.write_text(f'name,bug,src\r\nA.java,0,"q"tail\r\n{rows}', encoding="utf-8")
    limit = csv.field_size_limit()
    assert outcome(loaded, p) == outcome(reference_load_version, p) == expected
    assert csv.field_size_limit() == limit


def test_load_version_shares_only_unchanged_same_path_sources_with_previous(tmp_path):
    def snapshot(vid, sources):
        files = tuple(VersionedFile(path, source, label, vid)
                      for path, (source, label) in sources.items())
        write_version(VersionSet(vid, "", files), tmp_path / f"{vid}.csv")
        return tmp_path / f"{vid}.csv"

    old_csv = snapshot("old", {"Kept.java": ("class Kept {}\n", 0),
                               "Edited.java": ("class Edited {}\n", 1),
                               "a/Moved.java": ("class Moved {}\n", 0)})
    new_csv = snapshot("new", {"Kept.java": ("class Kept {}\n", 1),
                               "Edited.java": ("class Edited { int x; }\n", 1),
                               "b/Moved.java": ("class Moved {}\n", 0),
                               "Added.java": ("class Added {}\n", 0)})
    old = load_version(old_csv)
    new = load_version(new_csv, previous=old)
    assert new.files == load_version(new_csv).files
    shared = [(f.path, g.path) for f in new.files for g in old.files if f.source is g.source]
    assert shared == [("Kept.java", "Kept.java")]


def test_load_version_equals_csv_reader_loader_on_benchmark_pairs(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    synth = importlib.import_module("synth")
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        params = dataclasses.replace(workload.corpus, files=min(workload.corpus.files, 150))
        paths = synth.write_pair(params, 3, tmp_path / name)
        for side in ("old", "new"):
            assert loaded(paths[side]) == reference_load_version(paths[side]), (name, side)
        old_set = load_version(paths["old"])
        assert loaded(paths["new"], old_set) == reference_load_version(paths["new"]), name


# a \r\n and a "" pair split by the real block edge, and a 4-byte character whose
# bytes straddle it, inside a quoted field; a row's \r\n line end after a quoted
# field split by it; a closing quote and its comma split by it; the two quotes of a
# "" that opens a field's value split by it; and an unquoted row's \r\n, so that
# at shift -1 the block ends just after the \n and nothing outside quotes is left
_EDGE_CASES = [("\r\n", "quoted"), ('""', "quoted"), ("\U0001f600", "quoted"),
               ("\r\n", "line end"), ('",', "closing"), ('""', "opening"),
               ("\r\n", "row end")]
# the text before the filler, between the filler and the piece, and after the piece
_EDGE_TEXTS = {
    "quoted": ('name,bug,src\r\nA.java,0,"', "", 'x"\r\nB.java,1,"b"""\r\n'),
    "line end": ('name,bug,src\r\nA.java,0,"', '"', "B.java,1,b\r\n"),
    "closing": ('name,src,bug\r\nA.java,"', "", '0\r\nB.java,"b",1\r\n'),
    "opening": ('name,bug,src\r\nA.java,0,"', '"\r\nB.java,1,"', 'x"\r\n'),
    "row end": ('name,bug,src\r\nA.java,0,"', 'x"\r\nB.java,1,b', '"C.java",0,"c"\r\n'),
}


@pytest.mark.parametrize("piece,where", _EDGE_CASES)
@pytest.mark.parametrize("shift", [-2, -1, 0, 1])
def test_load_version_equals_csv_reader_loader_at_the_real_block_edge(tmp_path, piece, where,
                                                                      shift):
    head, middle, tail = _EDGE_TEXTS[where]
    at = corpus._BLOCK - 1 + shift  # the character index the piece starts at
    filler_size = at - len(head) - len(middle)
    filler = ("int x = 1;\n" * (filler_size // 11 + 1))[:filler_size]
    text = f"{head}{filler}{middle}{piece}{tail}"
    assert text[at:at + len(piece)] == piece and len(head + filler + middle) == at
    p = tmp_path / "v.csv"
    p.write_bytes(text.encode("utf-8"))
    assert len(text) > corpus._BLOCK
    got = loaded(p)
    assert got == reference_load_version(p)
    if where == "quoted":
        assert got[0][1].endswith(piece.replace('""', '"') + "x")
    if where == "opening":
        assert got[1][1] == '"x'


def _quote_run_texts():
    for k in range(1, 41):
        run = '"' * k
        yield f'"{run}ab",x\r\n'       # at the start of a quoted field
        yield f'"a{run}b",x\r\n'       # inside it
        yield f'"ab{run}",x\r\n'       # at its end
        yield f'y,"{run}a{run}"\n"{run}"\r\n'  # at both ends; quotes only


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
def test_csv_rows_equal_csv_reader_on_quote_runs(monkeypatch, block):
    monkeypatch.setattr(corpus, "_BLOCK", block)
    for text in _quote_run_texts():
        assert rows_of(text) == reader_rows(text), (block, text)


@pytest.mark.parametrize("header", ["name,bug,src", '"name","bug","src"'])
def test_byte_order_mark_is_skipped_at_the_start_of_the_file_only(tmp_path, header):
    body = f'{header}\r\nA.java,0,"\ufeffclass A {{}}"\r\nB.java,1,b\ufeff\r\n'.encode()
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(body)
    marked.write_bytes(b"\xef\xbb\xbf" + body)
    assert loaded(marked) == loaded(plain) == [("A.java", "\ufeffclass A {}", 0),
                                               ("B.java", "b\ufeff", 1)]


@pytest.mark.parametrize("content", [b"\xef", b"\xef\xbb"])
def test_a_file_of_a_truncated_byte_order_mark_is_empty(tmp_path, content):
    path = tmp_path / "v.csv"
    path.write_bytes(content)
    with pytest.raises(DataError, match="is empty"):
        load_version(path)
