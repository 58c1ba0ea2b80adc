"""The value types' contract: construction by keyword and by position, the
defaults, a fresh mutable default per instance, the validation messages,
immutability, equality, hashing and repr, and RunConfig's field order, which
is the manifest's line order."""

import math

import pytest

from driftlens.context import CallGraph, ContextBundle, MethodSpan
from driftlens.corpus import VersionedFile, VersionSet
from driftlens.debate import DEFAULT_ROLE_MODELS, DebateConfig, DebateTranscript
from driftlens.diffing import ChangeSet
from driftlens.errors import DataError
from driftlens.llm import CallStats, ChatRequest, ParsedPrediction, RetryPolicy
from driftlens.matching import EvolutionRecord, MatchParams, PartitionStats
from driftlens.metrics import ConfusionCounts, EvaluationReport
from driftlens.pipeline import PredictionRow, RunConfig, config_lines
from driftlens.prompting import PromptBundle

OLD = VersionedFile("A.java", "a\n", 0, "v1")
NEW = VersionedFile("A.java", "b\n", 1, "v2")
VERDICT = ParsedPrediction(1, 0.5, "marker")
PERCENTS = {"pct_removed": 10.0, "pct_added": 20.0, "pct_same_source": 30.0, "pct_b00": 15.0,
            "pct_b10": 10.0, "pct_d11": 10.0, "pct_d01": 5.0}

# every value type with a value for each of its fields, in field order
RECORDS = [
    (VersionedFile, {"path": "A.java", "source": "a\n", "label": 0, "version_id": "v1"}),
    (ChangeSet, {"added": ((1, "b"),), "removed": ((1, "a"),), "unified": "@@ -1 +1 @@",
                 "changed_new_lines": (1,)}),
    (MethodSpan, {"name": "f", "start_line": 2, "end_line": 4, "body": "int f() {}",
                  "masked_body": "int f() {}"}),
    (CallGraph, {"nodes": ("f", "g"), "edges": (("f", "g"),)}),
    (ContextBundle, {"snippet": "int f() {}", "included_methods": ("f", "g"),
                     "kept_methods": ("f",), "truncated": True}),
    (PromptBundle, {"system": "sys", "user": "usr"}),
    (MatchParams, {"threshold": 0.5, "gap_multiplier": 2.0}),
    (EvolutionRecord, {"new_file": NEW, "old_file": OLD, "match_kind": "similarity",
                       "subset": "D01", "similarity": 0.75}),
    (PartitionStats, {**PERCENTS, "counts": {"union": 10}}),
    (ConfusionCounts, {"tp": 1, "fp": 2, "tn": 3, "fn": 4}),
    (EvaluationReport, {"method": "M5", "subset_accuracy": {"B00": 1.0}, "hmb": 0.5,
                        "hmd": None, "populations": {"total": (1.0, 1.0, 1.0)}, "auc": 0.5,
                        "fpr": 0.25, "mcc": 0.0, "counts": {"B00": 1}, "excluded": 2}),
    (ChatRequest, {"model": "m", "system": "sys", "user_turns": (("user", "u"),),
                   "temperature": 0.5, "tag": "M5", "record_id": "A.java"}),
    (ParsedPrediction, {"label": 1, "confidence": 0.5, "parse_path": "marker"}),
    (RetryPolicy, {"max_attempts": 2, "base_delay": 0.1, "multiplier": 3.0, "max_delay": 1.0}),
    (DebateConfig, {"rounds": 2, "role_models": dict(DEFAULT_ROLE_MODELS), "depth": 1,
                    "max_lines": 50, "temperature": 0.2}),
    (DebateTranscript, {"record_id": "A.java", "messages": (("judge", 2, "reply"),),
                        "verdict": VERDICT, "config": DebateConfig(), "judge_attempts": 2}),
    (PredictionRow, {"record_id": "A.java", "subset": "D01", "old_label": 0, "new_label": 1,
                     "pred_label": None, "confidence": None, "parse_path": "failed",
                     "method": "M5"}),
]
FROZEN = [(cls, values) for cls, values in RECORDS if cls is not PredictionRow]

# each type with defaults: the fields it needs, then the defaults of the rest
DEFAULTS = [
    (MatchParams, {}, {"threshold": 0.7, "gap_multiplier": 1.0}),
    (EvolutionRecord, {"new_file": NEW, "old_file": OLD, "match_kind": "path", "subset": "D01"},
     {"similarity": None}),
    (PartitionStats, PERCENTS, {"counts": {}}),
    (ChatRequest, {"model": "m", "system": "sys", "user_turns": ()},
     {"temperature": 0.0, "tag": "", "record_id": ""}),
    (ParsedPrediction, {"label": None}, {"confidence": None, "parse_path": "failed"}),
    (RetryPolicy, {}, {"max_attempts": 4, "base_delay": 0.5, "multiplier": 2.0,
                       "max_delay": 30.0}),
    (DebateConfig, {}, {"rounds": 1, "role_models": DEFAULT_ROLE_MODELS, "depth": 3,
                        "max_lines": 400, "temperature": 0.0}),
    (DebateTranscript, {"record_id": "A.java", "messages": (), "verdict": VERDICT,
                        "config": DebateConfig()}, {"judge_attempts": 1}),
]

VALIDATIONS = [
    (lambda: VersionedFile("", "a\n", 0, "v1"), DataError, "file path must be non-empty"),
    (lambda: VersionedFile("A.java", "a\n", 2, "v1"), DataError,
     "label must be 0 or 1, got 2 for A.java"),
    (lambda: VersionSet("v1", "d", ()), DataError, "version set 'v1' has no files"),
    (lambda: VersionSet("v1", "d", (OLD, OLD)), DataError, "duplicate paths in 'v1': ['A.java']"),
    (lambda: MatchParams(threshold=1.5), ValueError, "threshold must be in [0,1], got 1.5"),
    (lambda: MatchParams(gap_multiplier=math.nan), ValueError,
     "gap_multiplier must be finite and >= 0, got nan"),
    (lambda: MatchParams(0.7, -1.0), ValueError, "gap_multiplier must be finite and >= 0, got -1.0"),
    (lambda: EvolutionRecord(NEW, None, "none", "B00"), ValueError,
     "subset 'added' must coincide with a missing old file"),
    (lambda: EvolutionRecord(NEW, OLD, "path", "added"), ValueError,
     "subset 'added' must coincide with a missing old file"),
    (lambda: EvolutionRecord(NEW, NEW, "path", "D11"), ValueError,
     "transition subsets require changed source"),
    (lambda: ConfusionCounts(1, -1, 0, 0), ValueError, "confusion counts must be nonnegative"),
    (lambda: ParsedPrediction(1), ValueError, "failed parses must not carry a label"),
    (lambda: DebateConfig(rounds=0), ValueError, "rounds must be >= 1"),
    (lambda: DebateConfig(role_models={"judge": "m"}), ValueError,
     "role_models missing assignments for ['analyzer', 'proposer', 'skeptic']"),
]

RUN_CONFIG_FIELDS = (
    "dataset", "old_csv", "new_csv", "path_column", "label_column", "source_column",
    "threshold", "gap_multiplier", "diff_context", "depth", "max_lines", "baseline", "method",
    "debate", "rounds", "roles", "model", "base_url", "stub", "caps", "seed", "out_dir",
    "max_in_flight", "exemplar_count",
)


def _name(param):
    return param.__name__ if isinstance(param, type) else None


@pytest.mark.parametrize("cls, values", RECORDS, ids=_name)
def test_keyword_and_positional_construction_agree(cls, values):
    by_name, by_place = cls(**values), cls(*values.values())
    assert by_name == by_place
    assert [getattr(by_name, name) for name in values] == list(values.values())
    assert repr(by_name) == (f"{cls.__name__}("
                             + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")")


@pytest.mark.parametrize("cls, needed, defaults", DEFAULTS, ids=_name)
def test_defaults(cls, needed, defaults):
    for made in (cls(**needed), cls(*needed.values())):
        assert {name: getattr(made, name) for name in defaults} == defaults


def test_mutable_defaults_are_fresh_per_instance():
    first, second = DebateConfig(), DebateConfig()
    assert first.role_models is not second.role_models
    assert first.role_models is not DEFAULT_ROLE_MODELS
    first.role_models["judge"] = "other"
    assert second.role_models == DebateConfig().role_models == DEFAULT_ROLE_MODELS

    first, second = PartitionStats(**PERCENTS), PartitionStats(**PERCENTS)
    first.counts["union"] = 1
    assert second.counts == PartitionStats(**PERCENTS).counts == {}


@pytest.mark.parametrize("make, error, message", VALIDATIONS)
def test_validation_messages(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert str(raised.value) == message


@pytest.mark.parametrize("cls, values", FROZEN, ids=_name)
def test_frozen_types_reject_assignment(cls, values):
    made = cls(**values)
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(made, first, values[first])
    with pytest.raises(AttributeError):
        made.extra = 1


@pytest.mark.parametrize("cls, values", FROZEN, ids=_name)
def test_equal_values_make_equal_records_with_equal_hashes(cls, values):
    made = cls(**values)
    assert made == cls(**values)
    try:
        hash(tuple(values.values()))
    except TypeError:  # a dict field: unhashable
        with pytest.raises(TypeError):
            hash(made)
    else:
        assert hash(made) == hash(cls(**values))


def test_version_set_is_frozen():
    vset = VersionSet("v1", "d", (OLD,))
    assert (vset.version_id, vset.dataset_name, vset.files) == ("v1", "d", (OLD,))
    with pytest.raises(AttributeError):
        vset.files = ()
    with pytest.raises(AttributeError):
        vset.extra = 1


def test_call_stats_count_up_from_zero():
    stats = CallStats()
    stats.calls += 2
    stats.attempts += 3
    assert (stats.calls, stats.attempts, stats.prompt_tokens, stats.completion_tokens) == (
        2, 3, 0, 0)


def test_run_config_keeps_the_manifest_field_order():
    names = [line.partition(" = ")[0] for line in config_lines(RunConfig())]
    assert names == list(RUN_CONFIG_FIELDS)


def test_run_config_is_mutable_and_compares_by_value():
    config = RunConfig(seed=7)
    assert config.seed == 7 and config.out_dir == RunConfig().out_dir
    config.max_in_flight = 2
    assert config == RunConfig(seed=7, max_in_flight=2)
    assert config != RunConfig(seed=7)
    with pytest.raises(TypeError):
        RunConfig(bogus=1)
