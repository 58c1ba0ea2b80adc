import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlens.corpus import (
    VersionedFile,
    VersionSet,
    load_version,
    normalize_lines,
    write_version,
)
from driftlens.errors import ConfigurationError, DataError


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
