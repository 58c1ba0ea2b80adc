"""PROMISE-style version snapshot ingestion.

Each snapshot is a CSV with one row per source file carrying a path, a raw
bug count, and the full file contents. Loading normalizes nothing beyond
CSV unescaping and UTF-8 decoding; line-level views are produced lazily by
consumers via normalize_lines.

Snapshots are read by _csv_rows, which yields the rows csv.reader yields for
the default dialect, reading _BLOCK characters at a time. Each block is
split on the quote, and the row cut by its end is carried to the next block
as its pieces, so each character is split once. For the quoting csv.writer
writes, the pieces at even places lie outside quotes and those at odd places
inside, so a quoted field is its odd pieces joined with one quote, and only
the non-empty even pieces hold separators. csv.reader also accepts quoting
csv.writer never writes, a quote inside an unquoted field or text after a
closing quote, where that split no longer tells inside from outside. From
the first block with such a quote on, csv.reader itself reads the rest of
the file, read whole into a StringIO that cuts lines as newline="" does; no
snapshot that csv.writer wrote reaches it. The file is opened with
newline="\n": like newline="", it leaves every line end as it is in the
file, which the CSV grammar needs, and unlike newline="" it sends no decoded
block through a universal-newline pass. One byte-order mark at the start of
the file is skipped.

Most files persist unchanged from one snapshot to the next, so a later
snapshot loaded with the earlier one as `previous` reuses the earlier one's
source string for each path whose text is unchanged. It does so in the row
loop, as each row is read, so the copy just parsed is freed with its block
before the heap grows.
"""

from __future__ import annotations

import csv
import io
import math
import re
import threading
from collections import namedtuple
from itertools import compress, islice
from pathlib import Path

from .errors import ConfigurationError, DataError

PATH_COLUMNS = ("name", "File")
LABEL_COLUMNS = ("bug", "Bug")
SOURCE_COLUMNS = ("src", "SRC")

# Characters per read; a row longer than a block is read with larger reads.
_BLOCK = 1 << 16
# In a block's outline, where a quote stands for a whole quoted field: a quote with
# text other than a separator on either side, which csv.writer never writes. The
# leading quote lets the search jump from quote to quote.
_STRAY_QUOTE = re.compile(r'"(?:(?![,\r\n]|\Z)|(?<=[^,\r\n]"))')
# csv.field_size_limit while _reader_rows parses, and the lock that keeps two
# parses from restoring each other's limit.
_NO_FIELD_LIMIT = 2**31 - 1
_FIELD_LIMIT_LOCK = threading.Lock()


def _split_rows(pieces: list[str], final: bool) -> tuple[list[list[str]], list[str]] | None:
    """The complete rows of a block already split on the quote, and the pieces
    after them; None for quoting csv.writer never writes.

    When every quote opens a field, closes one or is one of a "" pair,
    splitting on the quote puts the text outside quotes at even places and
    the text inside at odd ones. A "" is an empty outside piece between two
    inside ones, so only the first outside piece and the non-empty ones (the
    bounds) hold separators, and the inside pieces between two bounds are
    one quoted field. The outline, the bounds joined with one quote per
    quoted field, then splits into lines and fields like CSV without quotes.
    """
    outside, inside = pieces[::2], pieces[1::2]
    bounds = [0, *compress(range(1, len(outside)), islice(outside, 1, None))]
    outline = '"'.join(map(outside.__getitem__, bounds))
    if bounds[-1] < len(inside):
        outline += '"'  # a quoted field after the last bound, closed or not
    if _STRAY_QUOTE.search(outline):
        return None
    if final:
        cut = len(outline)
    else:
        # the complete rows end at the last line end followed by a character of
        # the block, so a CR at its end is read again with the LF that may follow
        cut = max(outline.rfind("\n"), outline.rfind("\r", 0, len(outline) - 1)) + 1
        if not cut:
            return [], pieces
    fields = outline.count('"', 0, cut)
    rest = []
    if not final:
        # the cut lies in the bound after the last complete quoted field
        last = bounds[fields]
        head = cut - outline.rfind('"', 0, cut) - 1
        rest = [outside[last][head:], *pieces[2 * last + 1:]]
    stops = [*bounds[1:], len(inside)]  # where each quoted field's inside pieces end
    values = iter(['"'.join(inside[b:e]) for b, e in zip(bounds[:fields], stops)])
    lines = outline[:cut].replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return [[next(values) if f == '"' else f for f in line.split(",")] if line else []
            for line in lines], rest


def _reader_rows(buf: str, fh) -> list[list[str]]:
    """The rows csv.reader reads from buf, which starts at a row, and the rest of fh.

    A StringIO made with newline="" cuts lines where a file opened with
    newline="" would, after a lone carriage return too. The field size limit
    is lifted only while the list is built.
    """
    text = io.StringIO(buf + fh.read(), newline="")
    with _FIELD_LIMIT_LOCK:
        previous = csv.field_size_limit(_NO_FIELD_LIMIT)
        try:
            return list(csv.reader(text))
        finally:
            csv.field_size_limit(previous)


def _csv_rows(fh):
    """Yield the rows csv.reader(fh) yields for a text file read untranslated.

    fh must return the file's characters as they are: a file opened with
    newline="\n" or newline="", or a StringIO made with either.

    From the first block with a quote inside an unquoted field or text after
    a closing quote on, csv.reader reads the rest of the file (_reader_rows),
    which is read whole, and its rows are all built before the first is
    yielded; load_version and read_predictions_csv keep every row anyway.
    csv.field_size_limit is lifted while it parses, and csv.reader in other
    threads sees the lifted limit during that window. A quote left open at
    the end of the file needs no fallback: like csv.reader, the split runs
    its field to the end. A block that ends in a carriage return (which may
    start a CRLF) carries its last line too. Each read is at least as long
    as the text carried over, so a field spanning many blocks is still read
    in linear time, and until the fallback memory stays bounded by a block
    and the longest row.
    """
    rest = [""]
    while True:
        chunk = fh.read(max(_BLOCK, sum(map(len, rest)) + len(rest) - 1))
        final = not chunk
        # the carried pieces, the last one continued by the chunk's first
        pieces = chunk.split('"')
        pieces[0] = rest[-1] + pieces[0]
        pieces[:0] = rest[:-1]
        split = _split_rows(pieces, final)
        if split is None:
            yield from _reader_rows('"'.join(pieces), fh)
            return
        rows, rest = split
        yield from rows
        if final:
            return


class VersionedFile(namedtuple("VersionedFile", "path source label version_id")):
    """One source file in one project version with its binary defect label."""

    __slots__ = ()

    def __new__(cls, path: str, source: str, label: int, version_id: str):
        if not path:
            raise DataError("file path must be non-empty")
        if label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {label!r} for {path}")
        return super().__new__(cls, path, source, label, version_id)


class VersionSet:
    """An immutable collection of files from one version, unique by path."""

    __slots__ = ("version_id", "dataset_name", "files", "_by_path")

    def __init__(self, version_id: str, dataset_name: str, files: tuple[VersionedFile, ...]):
        if not files:
            raise DataError(f"version set {version_id!r} has no files")
        by_path = {}
        duplicates = []
        for f in files:
            if f.path in by_path:
                duplicates.append(f.path)
            by_path[f.path] = f
        if duplicates:
            raise DataError(f"duplicate paths in {version_id!r}: {sorted(set(duplicates))}")
        for name, value in zip(self.__slots__, (version_id, dataset_name, files, by_path)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return len(self.files)

    def __contains__(self, path: str) -> bool:
        return path in self._by_path

    def get(self, path: str) -> VersionedFile:
        return self._by_path[path]

    @property
    def paths(self) -> tuple[str, ...]:
        return tuple(f.path for f in self.files)

    def defective_fraction(self) -> float:
        return sum(f.label for f in self.files) / len(self.files)


def _pick_column(header: list[str], explicit: str | None, candidates: tuple[str, ...],
                 role: str) -> str:
    if explicit is not None:
        if explicit not in header:
            raise ConfigurationError(f"{role} column {explicit!r} not in CSV header {header}")
        return explicit
    for cand in candidates:
        if cand in header:
            return cand
    raise ConfigurationError(
        f"no {role} column found; tried {candidates}, header is {header}")


def _parse_label(raw: str, row_number: int) -> int:
    text = raw.strip()
    try:
        count = float(text)
    except ValueError:
        raise DataError(f"unparseable label {raw!r} at row {row_number}") from None
    if not math.isfinite(count):
        raise DataError(f"non-finite bug count {raw!r} at row {row_number}")
    if count < 0:
        raise DataError(f"negative bug count {raw!r} at row {row_number}")
    return 1 if count > 0 else 0


def load_version(csv_path: str | Path, label_column: str | None = None,
                 source_column: str | None = None, path_column: str | None = None,
                 version_id: str | None = None, dataset_name: str = "",
                 previous: VersionSet | None = None) -> VersionSet:
    """Load one labeled snapshot CSV into a VersionSet.

    Bug counts threshold at >0 -> defective. Source text is kept exactly as
    stored (after CSV unescaping); invalid UTF-8 bytes are replaced. A
    byte-order mark at the start of the file is skipped.

    A file whose path is in `previous` with equal source takes that file's
    source string, so text unchanged since the earlier snapshot is held once.
    The row loop shares it as each row is read: the copy just parsed is freed
    with its block, before the heap grows, and later rows reuse its memory.
    """
    csv_path = Path(csv_path)
    if not csv_path.is_file():
        raise ConfigurationError(f"dataset file not found: {csv_path}")
    vid = version_id if version_id is not None else csv_path.stem

    with open(csv_path, newline="\n", encoding="utf-8-sig", errors="replace") as fh:
        reader = _csv_rows(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path} is empty") from None
        path_col = _pick_column(header, path_column, PATH_COLUMNS, "path")
        label_col = _pick_column(header, label_column, LABEL_COLUMNS, "label")
        source_col = _pick_column(header, source_column, SOURCE_COLUMNS, "source")
        idx = {name: header.index(name) for name in (path_col, label_col, source_col)}

        earlier = previous._by_path if previous is not None else {}
        files = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise DataError(f"row {row_number} has {len(row)} fields, expected {len(header)}")
            path, source = row[idx[path_col]], row[idx[source_col]]
            old = earlier.get(path)
            if old is not None and old.source == source:
                source = old.source
            files.append(VersionedFile(
                path=path,
                source=source,
                label=_parse_label(row[idx[label_col]], row_number),
                version_id=vid,
            ))
    return VersionSet(version_id=vid, dataset_name=dataset_name, files=tuple(files))


def normalize_lines(source: str) -> list[str]:
    """Split on line feeds, stripping one trailing carriage return per line."""
    if not source:
        return []
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [ln[:-1] if ln.endswith("\r") else ln for ln in lines]
