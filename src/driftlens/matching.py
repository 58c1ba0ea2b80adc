"""Cross-version file matching and evolution partitioning.

New-version files are matched to predecessors by exact path first; the
remainder is matched by Dice similarity over distinct normalized lines with
a separation test on the score gaps: the best candidate is accepted when its
score s1 >= T and the top gap is at least the mean gap plus c times the
population standard deviation of the gaps, decided exactly over a query's
distinct scores (see MatchParams). Lines are compared by their exact text,
the relation dice_similarity uses: the candidates' line sets are indexed by
line text once per run, and each query is scored against that index (see
kernels) into a score profile: each distinct score with the number of
candidates that have it and the first one that does. The candidates are
grouped by line-set size once per call too, so a query costs its posting
hits plus one division per distinct size where a dense row took one per
candidate. The first candidate with the best score is the accepted one, so
ties resolve by path order. Matched corpora are then partitioned into
removed/added/same-source files and the four status-transition subsets;
match_files can hand partition the score it kept for each similarity match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Mapping

from . import kernels
from .corpus import VersionedFile, VersionSet

SUBSET_ORDER = ("B00", "B10", "D11", "D01")
SUBSETS = frozenset(SUBSET_ORDER)


@dataclass(frozen=True)
class MatchParams:
    """Similarity acceptance parameters: score threshold T and gap multiplier c.

    The best-scoring candidate s1 is accepted when s1 >= T and, with two or
    more candidates, the top gap s1 - s2 of the descending scores is at least
    the mean gap plus c times the population standard deviation of the gaps.
    The gap test is decided exactly over the scores, with no rounding. T is
    compared as the given float; that agrees with reading 0.7 as 7/10 for
    any pair below about 10^14 lines, because a Dice score 2k/d other than
    7/10 lies at least 1/(10d) from it.
    """

    threshold: float = 0.7
    gap_multiplier: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0,1], got {self.threshold}")
        if not 0.0 <= self.gap_multiplier < math.inf:  # also rejects NaN
            raise ValueError(f"gap_multiplier must be finite and >= 0, got {self.gap_multiplier}")


@dataclass(frozen=True)
class EvolutionRecord:
    """One new-version file with its matched predecessor and subset tag."""

    new_file: VersionedFile
    old_file: VersionedFile | None
    match_kind: str                 # "path" | "similarity" | "none"
    subset: str                     # B00/B10/D01/D11/unchanged_source/added
    similarity: float | None = None

    def __post_init__(self):
        if (self.subset == "added") != (self.old_file is None):
            raise ValueError("subset 'added' must coincide with a missing old file")
        if self.subset in SUBSETS and self.old_file.source == self.new_file.source:
            raise ValueError("transition subsets require changed source")

    @property
    def record_id(self) -> str:
        return self.new_file.path


@dataclass(frozen=True)
class PartitionStats:
    """Partition percentages over the union of old and new file events."""

    pct_removed: float
    pct_added: float
    pct_same_source: float
    pct_b00: float
    pct_b10: float
    pct_d11: float
    pct_d01: float
    counts: dict = field(default_factory=dict)

    def as_row(self) -> tuple[float, ...]:
        """Column order of the partition table: R, A, d=0, B00, B10, D11, D01."""
        return (self.pct_removed, self.pct_added, self.pct_same_source,
                self.pct_b00, self.pct_b10, self.pct_d11, self.pct_d01)

    def total(self) -> float:
        return sum(self.as_row())


def similarity_lines(source: str) -> set[str]:
    """Distinct lines used for Dice similarity (trailing whitespace trimmed).

    The lines of normalize_lines, trimmed: rstrip also removes the one
    trailing carriage return that normalize_lines strips.
    """
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    return set(map(str.rstrip, lines))


def dice_similarity(old: VersionedFile, new: VersionedFile) -> float:
    """2|L1∩L2| / (|L1|+|L2|) over distinct normalized lines; both empty -> 1."""
    l1 = similarity_lines(old.source)
    l2 = similarity_lines(new.source)
    denom = len(l1) + len(l2)
    if denom == 0:
        return 1.0
    return 2.0 * len(l1 & l2) / denom


def _gap_test_accept(profile: Mapping[float, tuple[int, int]], params: MatchParams) -> bool:
    """The MatchParams acceptance rule on one query's score profile.

    The profile maps each distinct score to (count, first), as
    kernels.dice_batch returns it; only the counts are read. With a single
    candidate only the threshold applies. The gap test is decided exactly:
    every score in [0, 1] is a whole multiple of the ulp of the smallest
    nonzero score, so the scores scale to integers without rounding. With m
    gaps g summing to A (= s1 - sn) and c = p/q, the rule
    g1 >= A/m + c·sqrt(m·Σg² - A²)/m holds exactly when L = m·g1 - A >= 0
    and (q·L)² >= p²·(m·Σg² - A²). A nonzero score below 2^-969 would
    overflow the scaled float, but it needs a file of about 2^969 lines, so
    it has no code path.

    Only the distinct scores are scaled. Equal neighbours of the descending
    scores leave a zero gap, which adds nothing to A or Σg², so the sums
    over the distinct scores are the sums over all of them; m still counts
    every gap, one fewer than the candidates, and g1 is zero when s1 is
    tied.
    """
    s1 = max(profile)
    if s1 < params.threshold:
        return False
    m = sum(map(itemgetter(0), profile.values())) - 1
    if not m:
        return True
    distinct = sorted(profile, reverse=True)
    unit = math.ulp(min(filter(None, distinct), default=1.0))
    ints = [int(s / unit) for s in distinct]
    gaps = [a - b for a, b in zip(ints, ints[1:])]
    total = ints[0] - ints[-1]
    top = gaps[0] if profile[s1][0] == 1 else 0  # s1 is unique, so a second value exists
    lead = m * top - total
    p, q = params.gap_multiplier.as_integer_ratio()
    return lead >= 0 and (q * lead) ** 2 >= p * p * (m * sum(g * g for g in gaps) - total * total)


def match_files(old_set: VersionSet, new_set: VersionSet,
                params: MatchParams = MatchParams(),
                scores: dict[str, float] | None = None) -> dict[str, str | None]:
    """Map every new path to its matched old path (or None).

    Exact-path matches win outright. Remaining new files score against old
    files that were not path-matched; a query's first best-scoring candidate
    is accepted when it passes the threshold and gap test, and accepted
    candidates are made one-to-one greedily in descending similarity order.
    When scores is given, it receives each similarity match's Dice score by
    new path, the value dice_similarity returns for that pair.
    """
    matches: dict[str, str | None] = {}
    for f in new_set.files:
        matches[f.path] = f.path if f.path in old_set else None

    pending = [f for f in new_set.files if matches[f.path] is None]
    candidates = [f for f in old_set.files if f.path not in new_set]
    if not pending or not candidates:
        return matches

    candidates.sort(key=lambda f: f.path)
    index, offsets = kernels.pack_line_sets(similarity_lines(f.source) for f in candidates)
    groups = kernels.size_groups(offsets)

    accepted: list[tuple[float, str, str]] = []
    for f in sorted(pending, key=lambda f: f.path):
        profile = kernels.dice_batch(similarity_lines(f.source), index, offsets, groups)
        if _gap_test_accept(profile, params):
            best = max(profile)
            accepted.append((best, f.path, candidates[profile[best][1]].path))

    taken: set[str] = set()
    for score, new_path, old_path in sorted(accepted, key=lambda t: (-t[0], t[1])):
        if old_path in taken:
            continue  # best predecessor already claimed by a closer file
        taken.add(old_path)
        matches[new_path] = old_path
        if scores is not None:
            scores[new_path] = score
    return matches


def _subset_for(old: VersionedFile, new: VersionedFile) -> str:
    if old.source == new.source:
        return "unchanged_source"
    return {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}[(old.label, new.label)]


def partition(old_set: VersionSet, new_set: VersionSet, matches: dict[str, str | None],
              scores: dict[str, float] | None = None,
              ) -> tuple[list[EvolutionRecord], PartitionStats]:
    """Turn a match map into evolution records plus partition statistics.

    A similarity match's score is read from scores, as match_files filled
    it, or computed with dice_similarity when scores is None.
    """
    records = []
    matched_old: set[str] = set()
    for f in new_set.files:
        old_path = matches.get(f.path)
        if old_path is None:
            records.append(EvolutionRecord(f, None, "none", "added"))
            continue
        old = old_set.get(old_path)
        matched_old.add(old_path)
        kind = "path" if old_path == f.path else "similarity"
        score = None
        if kind == "similarity":
            score = dice_similarity(old, f) if scores is None else scores[f.path]
        records.append(EvolutionRecord(f, old, kind, _subset_for(old, f), score))

    removed = len(old_set) - len(matched_old)
    tallies = {name: 0 for name in SUBSET_ORDER}
    same = added = 0
    for rec in records:
        if rec.subset == "added":
            added += 1
        elif rec.subset == "unchanged_source":
            same += 1
        else:
            tallies[rec.subset] += 1

    union = len(new_set) + removed
    pct = lambda n: 100.0 * n / union
    stats = PartitionStats(
        pct_removed=pct(removed),
        pct_added=pct(added),
        pct_same_source=pct(same),
        pct_b00=pct(tallies["B00"]),
        pct_b10=pct(tallies["B10"]),
        pct_d11=pct(tallies["D11"]),
        pct_d01=pct(tallies["D01"]),
        counts={"removed": removed, "added": added, "same_source": same,
                **tallies, "union": union},
    )
    return records, stats
