"""Write version snapshots as the PROMISE-style CSVs that corpus.load_version reads."""

import csv
from pathlib import Path

from driftlens.corpus import VersionSet


def write_version(vset: VersionSet, csv_path: str | Path) -> None:
    """Serialize a VersionSet to CSV (round-trips path/label/source)."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "bug", "src"])
        for f in vset.files:
            writer.writerow([f.path, f.label, f.source])
