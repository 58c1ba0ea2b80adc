"""End-to-end run wiring: corpus -> matching -> diff/context -> predictor -> metrics.

A run is described by a flat key=value config (RunConfig), selects exactly
one predictor (a naive baseline, one of M0-M8, or the debate), and persists
matches, records, predictions, transcripts, the evaluation report, and a
manifest that reproduces the run byte-for-byte in stub mode. The report is
a function of predictions.csv alone; the run's wall time is a comment line
of the manifest.

M0-M8 runs prepare, then dispatch: every record's diff, context and prompt
are built in one sequential pass before the first endpoint call, and the
finished requests are then sent on up to max_in_flight threads, the calling
one included. The debate builds each record's prompts as its replies come
in, so its records are dispatched the same way with their preparation inside.
"""

from __future__ import annotations

import csv
import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .baselines import BASELINE_KINDS, predict_naive
from .context import extract_context
from .corpus import _csv_rows, load_version, normalize_lines
from .debate import DebateConfig, run_debate, save_transcript
from .diffing import DEFAULT_CONTEXT_LINES, diff
from .errors import ConfigurationError, DataError, PipelineStageError
from .llm import (DEFAULT_MAX_IN_FLIGHT, ChatRequest, HttpChatClient, ScriptedChatClient,
                  parse_prediction)
from .matching import SUBSETS, MatchParams, match_files, partition
from .metrics import evaluate_predictions, render_text, report_csv_rows
from .prompting import METHOD_IDS, REQUIRED_INPUTS, ROLES, build_method_prompt


_MATCH_DEFAULTS = MatchParams()
_DEBATE_DEFAULTS = DebateConfig()


class _Fields:
    """Equality and repr over the attributes that _FIELDS names, in order."""

    __slots__ = ()
    _FIELDS = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values())) + ")"


class RunConfig(_Fields):
    """One run's settings, one field per key of the flat config format.

    The annotated class attributes below are the fields, in manifest order,
    with their defaults; an instance holds only the fields given to it or
    set on it. Fields are passed by keyword.
    """

    dataset: str = ""
    old_csv: str = ""
    new_csv: str = ""
    path_column: str = ""
    label_column: str = ""
    source_column: str = ""
    threshold: float = _MATCH_DEFAULTS.threshold
    gap_multiplier: float = _MATCH_DEFAULTS.gap_multiplier
    diff_context: int = DEFAULT_CONTEXT_LINES
    depth: int = _DEBATE_DEFAULTS.depth
    max_lines: int = _DEBATE_DEFAULTS.max_lines
    baseline: str = ""            # label_persistent | all_benign
    method: str = ""              # M0..M8
    debate: bool = False
    rounds: int = _DEBATE_DEFAULTS.rounds
    roles: str = ""               # analyzer=a,proposer=b,skeptic=c,judge=d
    model: str = "gpt-5-mini"
    base_url: str = ""
    stub: bool = False
    caps: str = ""                # e.g. B00=100,D01=50
    seed: int = 42
    out_dir: str = "runs/latest"
    max_in_flight: int = DEFAULT_MAX_IN_FLIGHT
    exemplar_count: int = 3

    def __init__(self, **fields):
        unknown = fields.keys() - FIELD_TYPES
        if unknown:
            raise TypeError(f"RunConfig has no field(s) {sorted(unknown)}")
        vars(self).update(fields)

    def replace(self, **changes) -> RunConfig:
        """A new config with this one's fields, `changes` applied on top."""
        return RunConfig(**{**vars(self), **changes})

    def selector(self) -> str:
        chosen = [name for name, active in (
            ("baseline", bool(self.baseline)),
            ("method", bool(self.method)),
            ("debate", self.debate),
        ) if active]
        if len(chosen) != 1:
            raise ConfigurationError(
                f"exactly one of baseline/method/debate must be set, got {chosen or 'none'}")
        return chosen[0]

    def validate(self) -> None:
        """Reject a config that cannot run, before any input is loaded."""
        self.selector()
        if self.baseline and self.baseline not in BASELINE_KINDS:
            raise ConfigurationError(f"unknown baseline {self.baseline!r}")
        if self.method and self.method not in METHOD_IDS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        self.check_ranges()
        if self.debate:
            try:
                self.debate_config()
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from exc
        self.role_models()
        self.subset_caps()

    def check_ranges(self) -> None:
        """Reject a numeric field out of range, for the method's inputs and matching too."""
        if self.max_in_flight < 1:
            raise ConfigurationError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        if self.diff_context < 0:
            raise ConfigurationError(f"diff_context must be >= 0, got {self.diff_context}")
        if self.depth < 0 or self.max_lines < 0:
            raise ConfigurationError(
                f"depth and max_lines must be >= 0, got {self.depth} and {self.max_lines}")
        if self.exemplar_count < 0:
            raise ConfigurationError(f"exemplar_count must be >= 0, got {self.exemplar_count}")
        who, needs = self.method, REQUIRED_INPUTS.get(self.method, ())
        if self.debate:
            who, needs = "the debate", [name for role in ROLES for name in REQUIRED_INPUTS[role]]
        if "exemplars" in needs and self.exemplar_count < 1:
            raise ConfigurationError(f"{who} needs exemplar_count >= 1, got {self.exemplar_count}")
        if "local_context" in needs and self.max_lines < 1:
            raise ConfigurationError(f"{who} needs max_lines >= 1, got {self.max_lines}")
        self.match_params()

    def match_params(self) -> MatchParams:
        """The matching parameters; a bad threshold or multiplier is a ConfigurationError."""
        try:
            return MatchParams(threshold=self.threshold, gap_multiplier=self.gap_multiplier)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc

    def role_models(self) -> dict:
        models = dict(DebateConfig().role_models)
        if self.roles:
            for item in self.roles.split(","):
                role, _, model = item.partition("=")
                if role.strip() not in ROLES or not model.strip():
                    raise ConfigurationError(f"bad roles entry {item!r}; roles are {ROLES}")
                models[role.strip()] = model.strip()
        return models

    def debate_config(self) -> DebateConfig:
        return DebateConfig(rounds=self.rounds, role_models=self.role_models(),
                            depth=self.depth, max_lines=self.max_lines)

    def subset_caps(self) -> dict[str, int]:
        caps: dict[str, int] = {}
        if self.caps:
            for item in self.caps.split(","):
                subset, _, limit = item.partition("=")
                if subset.strip() not in SUBSETS or not limit.strip().isdecimal():
                    raise ConfigurationError(f"bad caps entry {item!r}")
                caps[subset.strip()] = int(limit)
        return caps


# every field's default is of its annotated type, so no annotation is evaluated
FIELD_TYPES = {name: type(getattr(RunConfig, name)) for name in RunConfig.__annotations__}
RunConfig._FIELDS = tuple(FIELD_TYPES)


def _coerce(key: str, raw: str, lineno: int):
    kind = FIELD_TYPES[key]
    value = raw.strip()
    if kind is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
    else:
        try:
            return kind(value)
        except ValueError:
            pass
    raise ConfigurationError(f"bad {kind.__name__} value {value!r} for {key!r} at line {lineno}")


def config_from_lines(lines) -> RunConfig:
    """Parse the flat key=value config format (# starts a comment)."""
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigurationError(f"config line {lineno} is not key=value: {line!r}")
        key = key.strip()
        if key not in FIELD_TYPES:
            raise ConfigurationError(f"unknown config key {key!r} at line {lineno}")
        values[key] = _coerce(key, raw, lineno)
    return RunConfig(**values)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc.strerror}") from exc
    return config_from_lines(text.splitlines())


def config_lines(config: RunConfig) -> list[str]:
    out = []
    for name in FIELD_TYPES:
        value = getattr(config, name)
        rendered = str(value).lower() if isinstance(value, bool) else str(value)
        out.append(f"{name} = {rendered}")
    return out


def write_manifest(config: RunConfig, path: str | Path, elapsed_seconds: float) -> None:
    """Write config as a config file; the run's wall time goes in a comment line."""
    lines = [f"# driftlens manifest (tool version {__version__})",
             "# re-run with: driftlens run --config <this file>",
             f"# elapsed_seconds: {elapsed_seconds:.3f}"]
    lines.extend(config_lines(config))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_client(config: RunConfig, transport=None):
    if config.stub:
        return ScriptedChatClient()
    return HttpChatClient(base_url=config.base_url or None,
                          max_in_flight=config.max_in_flight, transport=transport)


def load_sets(config: RunConfig):
    columns = {"path_column": config.path_column or None,
               "label_column": config.label_column or None,
               "source_column": config.source_column or None}
    return (load_version(config.old_csv, dataset_name=config.dataset, **columns),
            load_version(config.new_csv, dataset_name=config.dataset, **columns))


def sample_records(records, caps: dict[str, int], seed: int):
    """Transition-subset records, capped per subset with seeded sampling."""
    population = [r for r in records if r.subset in SUBSETS]
    if not caps:
        return population
    keep: set[str] = set()
    rng = random.Random(seed)
    for subset in sorted(SUBSETS):
        members = sorted((r.record_id for r in population if r.subset == subset))
        cap = caps.get(subset)
        if cap is not None and len(members) > cap:
            members = rng.sample(members, cap)
        keep.update(members)
    return [r for r in population if r.record_id in keep]


def pick_exemplars(old_set, count: int, seed: int) -> list[str]:
    """Short snippets from the old version's defective files (seeded)."""
    defective = sorted((f for f in old_set.files if f.label == 1), key=lambda f: f.path)
    if not defective:
        return []
    rng = random.Random(seed)
    chosen = defective if len(defective) <= count else rng.sample(defective, count)
    snippets = []
    for f in sorted(chosen, key=lambda x: x.path):
        lines = [ln for ln in normalize_lines(f.source) if ln.strip()]
        snippets.append("\n".join(lines[:5]))
    return snippets


def method_exemplars(config: RunConfig, old_set) -> list[str] | None:
    """The exemplars config.method's prompt shows, or None when it shows none.

    Raises ConfigurationError when the prompt shows exemplars and the old
    version has no defective file to take them from.
    """
    if "exemplars" not in REQUIRED_INPUTS.get(config.method, ()):
        return None
    exemplars = pick_exemplars(old_set, config.exemplar_count, config.seed)
    if not exemplars:
        raise ConfigurationError(f"{config.method} shows defective examples, "
                                 f"but {config.old_csv} has no defective file")
    return exemplars


def record_materials(record, config: RunConfig, need_context: bool):
    cs = diff(record.old_file.source, record.new_file.source,
              context_lines=config.diff_context, path=record.record_id)
    ctx = None
    if need_context:
        ctx = extract_context(cs, record.new_file.source,
                              depth=config.depth, max_lines=config.max_lines)
    return cs, ctx


PREDICTION_COLUMNS = ("record_id", "subset", "old_label", "new_label",
                      "pred_label", "confidence", "parse_path", "method")


class PredictionRow(_Fields):
    """One line of predictions.csv; old_label, pred_label and confidence may be None.

    Slots rather than a namedtuple: the writer and the report read every
    field of every row, and a slot reads several times faster.
    """

    __slots__ = _FIELDS = PREDICTION_COLUMNS

    def __init__(self, record_id: str, subset: str, old_label: int | None, new_label: int,
                 pred_label: int | None, confidence: float | None, parse_path: str,
                 method: str):
        self.record_id = record_id
        self.subset = subset
        self.old_label = old_label
        self.new_label = new_label
        self.pred_label = pred_label
        self.confidence = confidence
        self.parse_path = parse_path
        self.method = method


def predict_with_method(records, config: RunConfig, client, exemplars) -> list[PredictionRow]:
    need_context = "local_context" in REQUIRED_INPUTS[config.method]

    def request(record) -> ChatRequest:
        cs, ctx = record_materials(record, config, need_context)
        bundle = build_method_prompt(config.method, record, cs, ctx=ctx, exemplars=exemplars)
        return ChatRequest.single_turn(config.model, bundle.system, bundle.user,
                                       tag=config.method, record_id=record.record_id)

    def one(item) -> PredictionRow:
        record, req = item
        parsed = parse_prediction(client.complete(req), "json_shape")
        return PredictionRow(record.record_id, record.subset, record.old_file.label,
                             record.new_file.label, parsed.label, parsed.confidence,
                             parsed.parse_path, config.method)

    # every request is built before the first call, so no diff or context waits on one
    prepared = [(record, request(record)) for record in records]
    return _map_records(one, prepared, config, client)


def predict_with_debate(records, config: RunConfig, client,
                        transcripts_dir: Path) -> list[PredictionRow]:
    cfg = config.debate_config()

    def one(record) -> PredictionRow:
        cs, ctx = record_materials(record, config, need_context=True)
        transcript = run_debate(record, cs, ctx, cfg, client)
        save_transcript(transcript, transcripts_dir)
        verdict = transcript.verdict
        return PredictionRow(record.record_id, record.subset, record.old_file.label,
                             record.new_file.label, verdict.label, verdict.confidence,
                             verdict.parse_path, "debate")

    return _map_records(one, records, config, client)


def _map_records(fn, items: list, config: RunConfig, client) -> list[PredictionRow]:
    """fn over items, in input order, on the calling thread and up to
    max_in_flight - 1 more, but never more threads than items.

    Each thread takes the next item from one shared iterator. Once an item
    has failed no thread takes another, and when all have stopped the
    exception of the earliest failed item is raised.
    """
    # a stub run stays on one thread, so scripted replies are consumed in order
    width = 1 if isinstance(client, ScriptedChatClient) else config.max_in_flight
    rows: list = [None] * len(items)
    errors: dict[int, BaseException] = {}
    pending = iter(enumerate(items))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                taken = None if errors else next(pending, None)
            if taken is None:
                return
            index, item = taken
            try:
                rows[index] = fn(item)
            except BaseException as exc:
                with lock:
                    errors[index] = exc
                return

    threads = [threading.Thread(target=work) for _ in range(min(width, len(items)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return rows


def baseline_rows(records, kind: str) -> list[PredictionRow]:
    preds = predict_naive(records, kind)
    return [PredictionRow(r.record_id, r.subset,
                          r.old_file.label if r.old_file else None,
                          r.new_file.label, preds[r.record_id], None, "exact", kind)
            for r in records]


RECORD_COLUMNS = ("new_path", "old_path", "match_kind", "similarity",
                  "subset", "old_label", "new_label")


def _write_record_rows(records, path: str | Path, width: int) -> None:
    """Write the first `width` RECORD_COLUMNS of each evolution record."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_COLUMNS[:width])
        for r in records:
            writer.writerow([
                r.new_file.path,
                r.old_file.path if r.old_file else "",
                r.match_kind,
                f"{r.similarity:.6f}" if r.similarity is not None else "",
                r.subset,
                r.old_file.label if r.old_file else "",
                r.new_file.label,
            ][:width])


def write_records_csv(records, path: str | Path) -> None:
    _write_record_rows(records, path, len(RECORD_COLUMNS))


def write_matches_csv(records, path: str | Path) -> None:
    """The match columns of records.csv: everything but the labels."""
    _write_record_rows(records, path, 5)


def write_predictions_csv(rows: list[PredictionRow], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_COLUMNS)
        for row in rows:
            writer.writerow([
                row.record_id, row.subset,
                "" if row.old_label is None else row.old_label,
                row.new_label,
                "" if row.pred_label is None else row.pred_label,
                "" if row.confidence is None else f"{row.confidence:.4f}",
                row.parse_path, row.method,
            ])


def _optional(kind, raw: str):
    return None if raw == "" else kind(raw)


def read_predictions_csv(path: str | Path) -> list[PredictionRow]:
    """The rows write_predictions_csv wrote for one run, in file order.

    Raises ConfigurationError for an unreadable file or a missing column and
    DataError for text that is not UTF-8, a malformed row, a label other
    than 0/1, a repeated record_id, or rows of more than one method. The
    line named in a message counts records, the header being line 1; for a
    file that write_predictions_csv wrote, that is the line the record is on.
    """
    try:
        fh = open(path, newline="\n", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigurationError(f"cannot read predictions {path}: {exc.strerror}") from exc
    with fh:
        try:
            rows = _prediction_rows(path, _csv_rows(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from exc
    methods = sorted({row.method for row in rows})
    if len(methods) > 1:
        raise DataError(f"{path} mixes the predictions of methods {methods}")
    return rows


def _prediction_rows(path: str | Path, reader) -> list[PredictionRow]:
    rows: list[PredictionRow] = []
    seen: set[str] = set()
    header = next(reader, [])
    missing = [name for name in PREDICTION_COLUMNS if name not in header]
    if missing:
        raise ConfigurationError(f"{path} lacks column(s) {', '.join(missing)}")
    for line, cells in enumerate(reader, start=2):
        where = f"{path} line {line}"
        if len(cells) != len(header):
            raise DataError(f"{where} has {len(cells)} fields, expected {len(header)}")
        cell = dict(zip(header, cells))
        try:
            row = PredictionRow(
                cell["record_id"], cell["subset"], _optional(int, cell["old_label"]),
                int(cell["new_label"]), _optional(int, cell["pred_label"]),
                _optional(float, cell["confidence"]), cell["parse_path"], cell["method"])
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        if {row.old_label, row.new_label, row.pred_label} - {None, 0, 1}:
            raise DataError(f"{where}: labels must be 0 or 1")
        if row.record_id in seen:
            raise DataError(f"{where} repeats record_id {row.record_id!r}")
        seen.add(row.record_id)
        rows.append(row)
    return rows


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def run(config: RunConfig, client=None):
    """Execute a full configured run; returns (report, artifact paths)."""
    config.validate()
    out_dir = Path(config.out_dir)
    artifacts = {"out_dir": out_dir}
    started = time.monotonic()

    with _stage("load"):
        old_set, new_set = load_sets(config)
    exemplars = method_exemplars(config, old_set)  # before any artifact is written

    with _stage("match"):
        scores: dict[str, float] = {}
        matches = match_files(old_set, new_set, config.match_params(), scores=scores)

    with _stage("partition"):
        records, stats = partition(old_set, new_set, matches, scores=scores)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_matches_csv(records, out_dir / "matches.csv")
        write_records_csv(records, out_dir / "records.csv")
        artifacts["matches"] = out_dir / "matches.csv"
        artifacts["records"] = out_dir / "records.csv"
        artifacts["stats"] = stats

    selector = config.selector()
    with _stage("predict"):
        if selector == "baseline":
            rows = baseline_rows(records, config.baseline)
        else:
            sampled = sample_records(records, config.subset_caps(), config.seed)
            if client is None:
                client = make_client(config)
            if selector == "method":
                rows = predict_with_method(sampled, config, client, exemplars)
            else:
                transcripts_dir = out_dir / "transcripts"
                rows = predict_with_debate(sampled, config, client, transcripts_dir)
                artifacts["transcripts"] = transcripts_dir
        write_predictions_csv(rows, out_dir / "predictions.csv")
        artifacts["predictions"] = out_dir / "predictions.csv"

    with _stage("evaluate"):
        report = evaluate_predictions(rows)
        (out_dir / "report.txt").write_text(render_text(report) + "\n", encoding="utf-8")
        with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(report_csv_rows(report))
        artifacts["report_txt"] = out_dir / "report.txt"
        artifacts["report_csv"] = out_dir / "report.csv"

    with _stage("manifest"):
        write_manifest(config, out_dir / "manifest.txt", time.monotonic() - started)
        artifacts["manifest"] = out_dir / "manifest.txt"

    return report, artifacts
