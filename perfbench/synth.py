"""Deterministic Java-like version-pair generator.

Writes two PROMISE-style snapshot CSVs (columns name, bug, src) and a
ground-truth file holding the true match and subset of every new-version
file. The same seed and parameters give byte-identical files. Every count
(renamed, added, removed, edited, flipped files) is an exact share of the
corpus, so different seeds give workloads of the same size.

Usage: write_pair(SynthParams(files=200, ...), seed, out_dir)
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFECT_RATE = 0.2  # share of old (and of added) files labelled defective

_VERBS = ("compute", "apply", "merge", "scan", "resolve", "update", "build", "check",
          "collect", "encode", "flush", "index", "load", "parse", "score", "visit")
_NOUNS = ("Total", "Range", "Block", "Token", "Entry", "Field", "Query", "Segment",
          "Buffer", "Term", "Doc", "Filter", "Weight", "Norm", "Slice", "Cache")


@dataclass(frozen=True)
class SynthParams:
    """Shape of one generated version pair; rates are exact shares of the corpus."""

    files: int = 200                # files in the old version
    methods: int = 12               # methods per file
    lines_per_method: int = 6       # statement lines per method body
    calls_per_method: int = 2       # same-file calls made by each method
    edit_rate: float = 0.6          # share of path-stable survivors whose source changes
    edit_shape: str = "local"       # local: inside one method; spread: first and last line
    rename_rate: float = 0.0        # share of survivors moved to a new path, lightly edited
    add_remove_rate: float = 0.0    # share of files removed, and the same count added
    label_flip_rate: float = 0.2    # share of changed files whose defect label flips


class _FileModel:
    """One generated class: its package, name and per-method statement lists."""

    def __init__(self, rng: random.Random, file_id: int, params: SynthParams):
        self.file_id = file_id
        self.package = f"p{rng.randrange(40)}"
        self.cls = f"{rng.choice(_NOUNS)}{rng.choice(_VERBS).capitalize()}{file_id}"
        self.field = f"state{rng.randrange(10**6)}"
        self.names = [f"{rng.choice(_VERBS)}{rng.choice(_NOUNS)}{j}"
                      for j in range(params.methods)]
        self.methods = [self._body(rng, j, params) for j in range(params.methods)]
        self.header_note = ""
        self.footer_note = ""

    def _body(self, rng: random.Random, j: int, params: SynthParams) -> list[str]:
        others = [k for k in range(len(self.names)) if k != j]
        callees = rng.sample(others, min(params.calls_per_method, len(others)))
        call_at = set(rng.sample(range(params.lines_per_method),
                                 min(len(callees), params.lines_per_method)))
        lines = []
        for pos in range(params.lines_per_method):
            c = rng.randrange(1, 10**5)
            if pos in call_at:
                callee = self.names[callees.pop()]
                lines.append(f"        acc = {callee}(acc ^ {c}, b) + {self.field};")
                continue
            kind = pos % 4
            if kind == 0:
                lines.append(f"        acc = acc * {c} + b;")
            elif kind == 1:
                # a literal with a call-like name inside: masking must hide it
                lines.append(f'        String tag{pos} = "{self.names[j]}(" + acc + ") #{c}";')
            elif kind == 2:
                lines.append(f"        // retry the {c} boundary (see {self.names[j]})")
            else:
                lines.append(f"        if (acc > {c}) {{ acc -= b + {c % 97}; }}")
        return lines

    def path(self, package: str | None = None) -> str:
        return f"src/main/java/org/synth/{package or self.package}/{self.cls}.java"

    def render(self, package: str | None = None) -> str:
        out = [f"package org.synth.{package or self.package};{self.header_note}",
               "",
               "import java.util.List;",
               "import java.util.Map;",
               "",
               "/**",
               f" * Generated class {self.cls}.",
               " */",
               f"public class {self.cls} {{",
               f"    private int {self.field} = {self.file_id};",
               ""]
        for name, body in zip(self.names, self.methods):
            out.append(f"    /** Step {name} of {self.cls}. */")
            out.append(f"    public int {name}(int a, int b) {{")
            out.append("        int acc = a;")
            out.extend(body)
            out.append("        return acc;")
            out.append("    }")
            out.append("")
        out.append(f"}}{self.footer_note}")
        return "\n".join(out) + "\n"

    def edit_local(self, rng: random.Random) -> None:
        """Rewrite one or two statements inside one method."""
        body = self.methods[rng.randrange(len(self.methods))]
        for pos in rng.sample(range(len(body)), min(2, len(body))):
            # no generated line carries this comment, so the edit always changes text
            body[pos] = f"        acc = acc - {rng.randrange(1, 10**4)} * b; // changed"

    def edit_spread(self, rng: random.Random) -> None:
        """Touch the first and the last line of the file."""
        rev = rng.randrange(2, 100)
        self.header_note = f" // rev {rev}"
        self.footer_note = f" // end {self.cls} rev {rev}"


def generate(params: SynthParams, seed: int):
    """Return (old_rows, new_rows, truth_rows) for one version pair.

    Rows are (path, label, source); truth rows are dicts with the columns
    of the pipeline's records.csv apart from similarity.
    """
    rng = random.Random(seed)
    models = [_FileModel(rng, i, params) for i in range(params.files)]
    labels = {i: 0 for i in range(params.files)}
    for i in rng.sample(range(params.files), round(DEFECT_RATE * params.files)):
        labels[i] = 1
    old_rows = [(m.path(), labels[m.file_id], m.render()) for m in models]

    ids = list(range(params.files))
    rng.shuffle(ids)
    n_removed = round(params.add_remove_rate * params.files)
    survivors = sorted(ids[n_removed:])  # the first n_removed ids leave the project
    renamed = set(rng.sample(survivors, round(params.rename_rate * len(survivors))))
    stable = [i for i in survivors if i not in renamed]
    edited = set(rng.sample(stable, round(params.edit_rate * len(stable))))
    changed = sorted(renamed | edited)
    flipped = set(rng.sample(changed, round(params.label_flip_rate * len(changed))))

    new_rows, truth = [], []
    taken_paths = {row[0] for row in old_rows}
    for i in survivors:
        m = models[i]
        old_path = m.path()
        package = None
        if i in renamed:
            package = f"moved{rng.randrange(10**6)}"
            while m.path(package) in taken_paths:
                package = f"moved{rng.randrange(10**6)}"
            m.edit_local(rng)
        elif i in edited and params.edit_shape == "spread":
            m.edit_spread(rng)
        elif i in edited:
            m.edit_local(rng)
        new_label = 1 - labels[i] if i in flipped else labels[i]
        path = m.path(package)
        taken_paths.add(path)
        new_rows.append((path, new_label, m.render(package)))
        if i in changed:
            subset = {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}[
                (labels[i], new_label)]
        else:
            subset = "unchanged_source"
        truth.append({"new_path": path, "old_path": old_path,
                      "match_kind": "similarity" if i in renamed else "path",
                      "subset": subset, "old_label": labels[i], "new_label": new_label})

    defective_added = set(rng.sample(range(n_removed), round(DEFECT_RATE * n_removed)))
    for k in range(n_removed):  # as many files are added as were removed
        m = _FileModel(rng, params.files + k, params)
        label = int(k in defective_added)
        new_rows.append((m.path(), label, m.render()))
        truth.append({"new_path": m.path(), "old_path": "", "match_kind": "none",
                      "subset": "added", "old_label": "", "new_label": label})
    return old_rows, new_rows, truth


def _write_csv(rows, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "bug", "src"])
        writer.writerows(rows)


def write_pair(params: SynthParams, seed: int, out_dir: str | Path) -> dict[str, Path]:
    """Generate one pair into out_dir: old.csv, new.csv and truth.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    old_rows, new_rows, truth = generate(params, seed)
    paths = {"old": out_dir / "old.csv", "new": out_dir / "new.csv",
             "truth": out_dir / "truth.json"}
    _write_csv(old_rows, paths["old"])
    _write_csv(new_rows, paths["new"])
    paths["truth"].write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return paths
