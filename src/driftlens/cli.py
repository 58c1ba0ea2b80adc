"""driftlens command line: match, partition, diff, context, prompt, baseline,
predict, debate, evaluate, and run."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__, pipeline
from .baselines import BASELINE_KINDS
from .errors import ConfigurationError, DriftlensError
from .matching import match_files, partition
from .metrics import evaluate_predictions, render_text
from .prompting import METHOD_IDS, build_method_prompt, build_role_prompt

# Flags spelled differently from the RunConfig field they set. A
# (subcommand, field) key applies to that subcommand only.
_SPELLINGS = {
    "old_csv": ("--old",),
    "new_csv": ("--new",),
    "threshold": ("-T", "--threshold"),
    "gap_multiplier": ("-c", "--gap-multiplier"),
    ("diff", "diff_context"): ("--context",),
}

_HELP = {
    "dataset": "dataset name for reports",
    "old_csv": "old-version CSV",
    "new_csv": "new-version CSV",
    "method": "M0..M8 (prompt also takes analyzer)",
    "roles": "analyzer=...,proposer=...,skeptic=...,judge=...",
    "stub": "offline scripted agents",
    "caps": "per-subset caps, e.g. B00=100",
}

INPUT_FIELDS = ("old_csv", "new_csv")
DATASET_FIELDS = ("dataset", *INPUT_FIELDS, "path_column", "label_column", "source_column",
                  "threshold", "gap_multiplier")
LLM_RUN_FIELDS = ("model", "base_url", "stub", "seed", "caps", "out_dir", "diff_context",
                  "depth", "max_lines", "max_in_flight")


def _command(sub, name: str, fn, help_text: str, field_names, required=(), overrides=False):
    """Add a subcommand with one flag per RunConfig field in `field_names`.

    Each flag takes its type and default from RunConfig; bools are
    store_true. With `overrides`, an absent flag sets nothing, so only the
    flags given on the command line override a loaded config.
    """
    parser = sub.add_parser(name, help=help_text)
    defaults = pipeline.RunConfig()
    for field_name in field_names:
        flags = (_SPELLINGS.get((name, field_name)) or _SPELLINGS.get(field_name)
                 or ("--" + field_name.replace("_", "-"),))
        kind = pipeline.FIELD_TYPES[field_name]
        kwargs = {"action": "store_true"} if kind is bool else {"type": kind}
        parser.add_argument(
            *flags, dest=field_name, required=field_name in required,
            default=argparse.SUPPRESS if overrides else getattr(defaults, field_name),
            help=_HELP.get(field_name), **kwargs)
    parser.set_defaults(fn=fn)
    return parser


def _given(args) -> dict:
    """The RunConfig fields set by the subcommand's flags and defaults."""
    return {name: value for name, value in vars(args).items() if name in pipeline.FIELD_TYPES}


def _partitioned(args):
    config = pipeline.RunConfig(**_given(args))
    config.check_ranges()  # before loading, so bad values fail fast
    old_set, new_set = pipeline.load_sets(config)
    scores: dict[str, float] = {}
    matches = match_files(old_set, new_set, config.match_params(), scores=scores)
    records, stats = partition(old_set, new_set, matches, scores=scores)
    return config, old_set, records, stats


def _load_record(args):
    """The config, old version and the matched record named by --record."""
    config, old_set, records, _ = _partitioned(args)
    for record in records:
        if record.record_id == args.record:
            if record.old_file is None:
                raise DriftlensError(f"{args.record} is an added file; it has no change")
            return config, old_set, record
    raise DriftlensError(f"no record for path {args.record!r}")


def cmd_match(args) -> int:
    _, _, records, _ = _partitioned(args)
    pipeline.write_matches_csv(records, args.out)
    print(f"wrote {args.out} ({len(records)} records)")
    return 0


def cmd_partition(args) -> int:
    config, _, _, stats = _partitioned(args)
    name = config.dataset or Path(config.new_csv).stem
    print(f"{'dataset':<16}{'R':>8}{'A':>8}{'d=0':>8}{'B00':>8}{'B10':>8}{'D11':>8}{'D01':>8}")
    print(f"{name:<16}" + "".join(f"{pct:>8.2f}" for pct in stats.as_row()))
    print(f"sum = {stats.total():.2f} over {stats.counts['union']} file events")
    return 0


def cmd_diff(args) -> int:
    config, _, record = _load_record(args)
    cs, _ = pipeline.record_materials(record, config, need_context=False)
    sys.stdout.write(cs.unified)
    return 0


def cmd_context(args) -> int:
    config, _, record = _load_record(args)
    _, ctx = pipeline.record_materials(record, config, need_context=True)
    print(ctx.snippet)
    if ctx.truncated:
        print(f"# truncated to {config.max_lines} lines: {len(ctx.kept_methods)} of "
              f"{len(ctx.included_methods)} visited methods start inside", file=sys.stderr)
    return 0


def cmd_prompt(args) -> int:
    if args.method not in (*METHOD_IDS, "analyzer"):  # before loading, so it fails fast
        raise ConfigurationError(f"unknown method {args.method!r}")
    config, old_set, record = _load_record(args)
    cs, ctx = pipeline.record_materials(record, config, need_context=True)
    if config.method == "analyzer":
        bundle = build_role_prompt(config.method, record, cs, ctx)
    else:
        bundle = build_method_prompt(config.method, record, cs, ctx=ctx,
                                     exemplars=pipeline.method_exemplars(config, old_set))
    print("=== system ===")
    print(bundle.system)
    print("=== user ===")
    print(bundle.user)
    return 0


def _claim_outputs(*paths: str) -> None:
    """Check that every output path can be opened for writing before any is written.

    Each path is opened for appending, which creates a missing file but
    leaves an existing one as it is. If one cannot be opened, the files
    this call created are removed before the error is raised, so a path
    that cannot be written leaves no output of the command behind.
    """
    made = []
    try:
        for path in paths:
            fresh = not os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if fresh:
                made.append(path)
    except OSError:
        for path in made:
            os.remove(path)
        raise


def cmd_baseline(args) -> int:
    _, _, records, _ = _partitioned(args)
    kind = args.kind.replace("-", "_")
    rows = pipeline.baseline_rows(records, kind)
    _claim_outputs(*filter(None, (args.out, args.records_out)))
    pipeline.write_predictions_csv(rows, args.out)
    if args.records_out:
        pipeline.write_records_csv(records, args.records_out)
    report = evaluate_predictions(rows)
    print(render_text(report))
    print(f"wrote {args.out}")
    return 0


def _run_and_print(config: pipeline.RunConfig) -> int:
    report, artifacts = pipeline.run(config)
    print(render_text(report))
    print(f"artifacts in {artifacts['out_dir']}")
    return 0


def cmd_predict(args) -> int:
    """predict and debate: a full run configured entirely by flags."""
    return _run_and_print(pipeline.RunConfig(**_given(args)))


def cmd_run(args) -> int:
    return _run_and_print(pipeline.load_config(args.config).replace(**_given(args)))


def cmd_evaluate(args) -> int:
    rows = pipeline.read_predictions_csv(args.preds)
    report = evaluate_predictions(rows)
    print(render_text(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlens",
        description="Change-aware file-level defect prediction pipeline")
    parser.add_argument("--version", action="version", version=f"driftlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "match", cmd_match, "match new files to old-version predecessors",
                 DATASET_FIELDS, INPUT_FIELDS)
    p.add_argument("--out", default="matches.csv")

    _command(sub, "partition", cmd_partition, "print the file-evolution partition table",
             DATASET_FIELDS, INPUT_FIELDS)

    p = _command(sub, "diff", cmd_diff, "print the unified diff for one matched record",
                 (*DATASET_FIELDS, "diff_context"), INPUT_FIELDS)
    p.add_argument("--record", required=True)

    p = _command(sub, "context", cmd_context, "print the expanded context snippet for one record",
                 (*DATASET_FIELDS, "depth", "max_lines"), INPUT_FIELDS)
    p.add_argument("--record", required=True)

    p = _command(sub, "prompt", cmd_prompt, "render a prompt bundle for audit",
                 (*DATASET_FIELDS, "method", "depth", "max_lines"), (*INPUT_FIELDS, "method"))
    p.add_argument("--record", required=True)

    p = _command(sub, "baseline", cmd_baseline, "emit naive predictions and report",
                 DATASET_FIELDS, INPUT_FIELDS)
    p.add_argument("--kind", default="label-persistent",
                   choices=[s for k in BASELINE_KINDS for s in (k.replace("_", "-"), k)])
    p.add_argument("--out", default="preds.csv")
    p.add_argument("--records-out", default="", help="also write the records CSV here")

    _command(sub, "predict", cmd_predict, "run one M0-M8 method over changed files",
             (*DATASET_FIELDS, "method", *LLM_RUN_FIELDS), (*INPUT_FIELDS, "method"))

    p = _command(sub, "debate", cmd_predict, "run the multi-agent debate over changed files",
                 (*DATASET_FIELDS, "rounds", "roles", *LLM_RUN_FIELDS), INPUT_FIELDS)
    p.set_defaults(debate=True)

    p = sub.add_parser("evaluate", help="recompute a run's report from its predictions.csv")
    p.add_argument("--preds", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = _command(sub, "run", cmd_run, "full pipeline from a flat key=value config file",
                 ("out_dir", "method", "baseline", "debate", "stub", "seed", "caps"),
                 overrides=True)
    p.add_argument("--config", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DriftlensError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
