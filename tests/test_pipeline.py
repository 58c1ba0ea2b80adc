import argparse
import csv
import inspect
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import typing
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlens import pipeline
from driftlens.cli import build_parser, main as cli_main
from driftlens.corpus import VersionedFile, VersionSet
from driftlens.debate import DebateConfig
from driftlens.diffing import diff
from driftlens.errors import ConfigurationError, PipelineStageError
from driftlens.llm import HttpChatClient, ScriptedChatClient
from driftlens.matching import MatchParams
from driftlens.metrics import render_text
from driftlens.pipeline import PredictionRow, RunConfig, config_from_lines, config_lines
from snapshot_csv import write_version


def java_file(path, body_line, label=0, version="v"):
    source = (
        f"public class {path.split('/')[-1].removesuffix('.java')} {{\n"
        "    public int work(int a) {\n"
        f"        {body_line}\n"
        "    }\n"
        "}\n"
    )
    return VersionedFile(path=path, source=source, label=label, version_id=version)


@pytest.fixture
def corpus(tmp_path):
    """Small two-version corpus with one of each evolution subset."""
    old_files = [
        java_file("pkg/Same.java", "return a;", 0, "v1"),
        java_file("pkg/B00.java", "return a + 1;", 0, "v1"),
        java_file("pkg/B10.java", "return a / 0;", 1, "v1"),
        java_file("pkg/D01.java", "return a - 1;", 0, "v1"),
        java_file("pkg/D11.java", "return 1 / 0;", 1, "v1"),
        java_file("pkg/Gone.java", "return 7;", 0, "v1"),
    ]
    new_files = [
        java_file("pkg/Same.java", "return a;", 0, "v2"),
        java_file("pkg/B00.java", "return a + 2;", 0, "v2"),
        java_file("pkg/B10.java", "return a / 2;", 0, "v2"),
        java_file("pkg/D01.java", "return a - 2;", 1, "v2"),
        java_file("pkg/D11.java", "return 2 / 0;", 1, "v2"),
        java_file("pkg/Fresh.java", "return 9;", 0, "v2"),
    ]
    old_csv = tmp_path / "old.csv"
    new_csv = tmp_path / "new.csv"
    write_version(VersionSet("v1", "demo", tuple(old_files)), old_csv)
    write_version(VersionSet("v2", "demo", tuple(new_files)), new_csv)
    return old_csv, new_csv


@pytest.fixture
def thread_starts(monkeypatch):
    """Every thread started through threading.Thread while the test runs."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    return started


def base_config(corpus, tmp_path, **overrides):
    old_csv, new_csv = corpus
    config = RunConfig(dataset="demo", old_csv=str(old_csv), new_csv=str(new_csv),
                       out_dir=str(tmp_path / "out"), stub=True)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestConfig:
    def test_selector_exclusivity(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, method="M5", debate=True)
        with pytest.raises(ConfigurationError):
            config.selector()
        config = base_config(corpus, tmp_path)
        with pytest.raises(ConfigurationError):
            config.selector()

    def test_round_trip_through_lines(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, method="M5", caps="B00=100",
                             roles="judge=other-model")
        parsed = config_from_lines(config_lines(config))
        assert parsed == config

    def test_field_types_are_the_annotations(self):
        """FIELD_TYPES reads each default's type, which must be the field's annotated type."""
        assert pipeline.FIELD_TYPES == typing.get_type_hints(RunConfig)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_lines(["bogus = 1"])

    def test_comments_and_blanks_ignored(self):
        config = config_from_lines(["# a comment", "", "seed = 7"])
        assert config.seed == 7

    def test_caps_parsing(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, caps="B00=2,D01=1")
        assert config.subset_caps() == {"B00": 2, "D01": 1}
        config = base_config(corpus, tmp_path, caps="what")
        with pytest.raises(ConfigurationError):
            config.subset_caps()


class TestBaselineRun:
    def test_label_persistent_full_corpus(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, baseline="label_persistent")
        report, artifacts = pipeline.run(config)
        assert report.subset_accuracy["B00"] == 1.0
        assert report.subset_accuracy["D11"] == 1.0
        assert report.subset_accuracy["B10"] == 0.0
        assert report.subset_accuracy["D01"] == 0.0
        assert report.hmb == 0.0 and report.hmd == 0.0
        assert report.counts["unchanged_source"] == 1
        assert report.counts["added"] == 1
        for name in ("matches", "records", "predictions", "report_txt", "report_csv",
                     "manifest"):
            assert artifacts[name].exists()

    def test_stats_sum_to_100(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, baseline="all_benign")
        _, artifacts = pipeline.run(config)
        assert artifacts["stats"].total() == pytest.approx(100.0, abs=1e-9)


class TestMethodRun:
    def test_stub_all_benign_arithmetic(self, corpus, tmp_path):
        # constant-Benign stub: prior-benign subsets score on 0-labels only
        config = base_config(corpus, tmp_path, method="M5")
        report, _ = pipeline.run(config)
        assert report.subset_accuracy["B00"] == 1.0
        assert report.subset_accuracy["B10"] == 1.0
        assert report.subset_accuracy["D01"] == 0.0
        assert report.subset_accuracy["D11"] == 0.0
        assert report.counts["B00"] == 1
        # changed-source population only
        assert "unchanged_source" not in report.counts
        assert "added" not in report.counts

    def test_population_contract_changed_source_only(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, method="M0")
        _, artifacts = pipeline.run(config)
        with open(artifacts["predictions"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(row["subset"] for row in rows) == ["B00", "B10", "D01", "D11"]

    def test_caps_reduce_population(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, method="M5", caps="B00=0")
        report, _ = pipeline.run(config)
        assert report.counts["B00"] == 0
        assert report.counts["D11"] == 1

    def test_m7_uses_exemplars_from_old_defective(self, corpus, tmp_path):
        seen = []

        class SpyClient(ScriptedChatClient):
            def complete(self, req):
                seen.append(req.user_turns[0][1])
                return super().complete(req)

        config = base_config(corpus, tmp_path, method="M7")
        pipeline.run(config, client=SpyClient())
        assert all("[Defective Examples]" in prompt for prompt in seen)

    def test_manifest_reruns_byte_identical(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, method="M5")
        _, artifacts = pipeline.run(config)
        first = artifacts["predictions"].read_bytes()
        assert cli_main(["run", "--config", str(artifacts["manifest"]),
                         "--out-dir", str(tmp_path / "out2")]) == 0
        assert (tmp_path / "out2" / "predictions.csv").read_bytes() == first

    def test_m6_over_a_deletion_only_change_writes_predictions(self, tmp_path):
        # the change adds no line, so [Local Context] is built around the deleted one
        old = java_file("pkg/Del.java", "int b = a;\n        return b;", 0, "v1")
        new = java_file("pkg/Del.java", "return b;", 1, "v2")
        old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
        write_version(VersionSet("v1", "demo", (old,)), old_csv)
        write_version(VersionSet("v2", "demo", (new,)), new_csv)
        config = RunConfig(old_csv=str(old_csv), new_csv=str(new_csv), method="M6", stub=True,
                           out_dir=str(tmp_path / "out"))
        report, artifacts = pipeline.run(config)
        assert report.counts["D01"] == 1
        with open(artifacts["predictions"], newline="") as fh:
            assert [row["record_id"] for row in csv.DictReader(fh)] == ["pkg/Del.java"]

    @pytest.mark.parametrize("method", ["M0", "M1", "M6"])
    def test_an_empty_source_file_renders_as_an_empty_block(self, tmp_path, method):
        # one file emptied, one grown from an empty file: both are transition
        # records whose [SRC1], [SRC2] or [Local Context] block is empty
        old_files = (java_file("pkg/Emptied.java", "return 1;", 0, "v1"),
                     VersionedFile("pkg/Grown.java", "", 1, "v1"),
                     java_file("pkg/Same.java", "return a;", 0, "v1"))
        new_files = (VersionedFile("pkg/Emptied.java", "", 1, "v2"),
                     java_file("pkg/Grown.java", "return 2;", 0, "v2"),
                     java_file("pkg/Same.java", "return a;", 0, "v2"))
        old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
        write_version(VersionSet("v1", "demo", old_files), old_csv)
        write_version(VersionSet("v2", "demo", new_files), new_csv)
        config = RunConfig(old_csv=str(old_csv), new_csv=str(new_csv), method=method, stub=True,
                           out_dir=str(tmp_path / "out"))
        report, artifacts = pipeline.run(config)
        assert (report.counts["D01"], report.counts["B10"]) == (1, 1)
        for name in ("matches", "records", "predictions", "report_txt", "report_csv", "manifest"):
            assert artifacts[name].is_file(), name
        with open(artifacts["predictions"], newline="") as fh:
            assert sorted(row["record_id"] for row in csv.DictReader(fh)) == [
                "pkg/Emptied.java", "pkg/Grown.java"]

    def test_stub_mode_zero_network(self, corpus, tmp_path):
        calls = []

        def transport(url, headers, payload, timeout):
            calls.append(url)
            return 200, {"choices": [{"message": {"content": "Benign"}}]}

        config = base_config(corpus, tmp_path, method="M5")
        # a transport-wired http client exists but stub mode must never use it
        http_client = HttpChatClient(base_url="https://x", api_key="k", transport=transport)
        assert config.stub
        pipeline.run(config, client=pipeline.make_client(config, transport=transport))
        assert calls == []
        assert http_client.stats.calls == 0

    def test_live_mode_uses_transport(self, corpus, tmp_path):
        calls = []

        def transport(url, headers, payload, timeout):
            calls.append(payload["messages"][1]["content"][:20])
            return 200, {"choices": [{"message": {"content":
                '{"explanation": "e", "prediction": "Defective"}'}}]}

        config = base_config(corpus, tmp_path, method="M5", stub=False, max_in_flight=1)
        client = pipeline.make_client(config, transport=transport)
        report, _ = pipeline.run(config, client=client)
        assert len(calls) == 4
        assert report.subset_accuracy["D01"] == 1.0

    def test_threaded_live_run_equals_sequential(self, corpus, tmp_path, thread_starts):
        """max_in_flight > 1 dispatches records on that many threads, or one per record
        when there are fewer: same predictions, and exactly that many calls overlap."""
        lock = threading.Lock()
        calls = {"in_flight": 0, "peak": 0}

        def transport(url, headers, payload, timeout):
            with lock:
                calls["in_flight"] += 1
                calls["peak"] = max(calls["peak"], calls["in_flight"])
                if calls["in_flight"] >= expected:
                    filled.set()
            filled.wait(timeout=5)  # the first calls wait until `expected` of them overlap
            with lock:
                calls["in_flight"] -= 1
            prompt = payload["messages"][1]["content"]
            return verdict("Defective" if len(prompt) % 2 else "Benign")

        outputs = []
        for width in (1, 2, 3, 5):  # the corpus has 4 transition records
            expected, filled = min(width, 4), threading.Event()
            config = base_config(corpus, tmp_path, method="M5", stub=False, max_in_flight=width,
                                 out_dir=str(tmp_path / f"out{width}"))
            _, artifacts = pipeline.run(config, client=pipeline.make_client(config, transport))
            outputs.append(artifacts["predictions"].read_bytes())
            assert calls["peak"] == expected, width
            assert len(thread_starts) == expected - 1, width  # the calling thread is one
            calls["peak"] = 0
            thread_starts.clear()
        assert outputs.count(outputs[0]) == len(outputs)
        rows = csv.DictReader(outputs[0].decode().splitlines())
        assert {row["pred_label"] for row in rows} == {"0", "1"}  # replies differ per record


def verdict(label="Benign"):
    """A 200 reply whose JSON predicts label."""
    return 200, {"choices": [{"message": {"content":
        f'{{"explanation": "e", "prediction": "{label}"}}'}}]}


def record_of(payload) -> str:
    """The record id a method prompt names in its unified diff's header."""
    return re.search(r"^\+\+\+ b/(\S+)$", payload["messages"][1]["content"], re.M)[1]


@pytest.fixture
def six_records(tmp_path):
    """Six edited files, each a B00 record; records come in path order, C0 to C5."""
    old = tuple(java_file(f"pkg/C{i}.java", "return a;", 0, "v1") for i in range(6))
    new = tuple(java_file(f"pkg/C{i}.java", f"return a + {i};", 0, "v2") for i in range(6))
    old_csv, new_csv = tmp_path / "six_old.csv", tmp_path / "six_new.csv"
    write_version(VersionSet("v1", "demo", old), old_csv)
    write_version(VersionSet("v2", "demo", new), new_csv)
    return old_csv, new_csv


SIX_IDS = [f"pkg/C{i}.java" for i in range(6)]


class TestDispatch:
    """A live M0-M8 run builds every request first, then dispatches them on threads."""

    def run_live(self, corpus, tmp_path, transport, width=2, **overrides):
        config = base_config(corpus, tmp_path, method="M5", stub=False, max_in_flight=width,
                             **overrides)
        return pipeline.run(config, client=pipeline.make_client(config, transport))

    def test_every_request_is_built_before_the_first_call(self, six_records, tmp_path,
                                                          monkeypatch):
        log = []
        build = pipeline.build_method_prompt

        def logged_build(method_id, record, *args, **kwargs):
            log.append(("build", record.record_id))
            return build(method_id, record, *args, **kwargs)

        def transport(url, headers, payload, timeout):
            log.append(("call", record_of(payload)))
            return verdict()

        monkeypatch.setattr(pipeline, "build_method_prompt", logged_build)
        self.run_live(six_records, tmp_path, transport)
        assert log[:6] == [("build", rid) for rid in SIX_IDS]
        assert sorted(rid for kind, rid in log[6:] if kind == "call") == SIX_IDS
        assert len(log) == 12

    def test_a_failed_prompt_build_sends_nothing(self, six_records, tmp_path, monkeypatch):
        built, calls = [], []
        build = pipeline.build_method_prompt

        def failing_build(method_id, record, *args, **kwargs):
            built.append(record.record_id)
            if record.record_id == SIX_IDS[-1]:
                raise ValueError("cannot render this record")
            return build(method_id, record, *args, **kwargs)

        def transport(url, headers, payload, timeout):
            calls.append(record_of(payload))
            return verdict()

        monkeypatch.setattr(pipeline, "build_method_prompt", failing_build)
        with pytest.raises(PipelineStageError) as info:
            self.run_live(six_records, tmp_path, transport)
        assert info.value.stage == "predict"
        assert isinstance(info.value.__cause__, ValueError)
        assert built == SIX_IDS and calls == []

    @pytest.mark.parametrize("k", [1, 3])
    def test_a_rejected_call_stops_dispatch(self, six_records, tmp_path, k):
        lock = threading.Lock()
        calls = []

        def transport(url, headers, payload, timeout):
            with lock:
                calls.append(record_of(payload))
                n = len(calls)
            if n == k:
                return 400, {"error": "bad request"}
            time.sleep(0.05)  # long next to the failed call, so its error lands first
            return verdict()

        with pytest.raises(PipelineStageError) as info:
            self.run_live(six_records, tmp_path, transport)
        assert info.value.__cause__.status == 400
        assert k <= len(calls) <= k + 1

    def test_the_earliest_failed_record_is_the_error_raised(self, six_records, tmp_path):
        later_failed = threading.Event()

        def transport(url, headers, payload, timeout):
            rid = record_of(payload)
            if rid == SIX_IDS[2]:
                later_failed.set()
                return 404, {"error": "not found"}
            if rid == SIX_IDS[1]:  # fails only after the later record has failed
                later_failed.wait(timeout=5)
                time.sleep(0.05)
                return 400, {"error": "bad request"}
            return verdict()

        with pytest.raises(PipelineStageError) as info:
            self.run_live(six_records, tmp_path, transport)
        assert later_failed.is_set()
        assert info.value.__cause__.status == 400

    def test_a_live_run_with_no_record_makes_no_call_and_starts_no_thread(
            self, corpus, tmp_path, thread_starts):
        calls = []

        def transport(url, headers, payload, timeout):
            calls.append(payload)
            return verdict()

        report, artifacts = self.run_live(corpus, tmp_path, transport, width=4,
                                          caps="B00=0,B10=0,D01=0,D11=0")
        assert calls == [] and thread_starts == []
        assert sum(report.counts.values()) == 0
        assert artifacts["predictions"].read_text(encoding="utf-8").count("\n") == 1

    def test_a_threaded_live_run_loads_no_pool_and_no_logging(self, corpus, tmp_path):
        """Records go out on plain threads: neither concurrent.futures nor the logging
        it imports is loaded. -S keeps site's own imports out of the probe."""
        probe = textwrap.dedent("""\
            import sys, threading
            from driftlens import pipeline

            old_csv, new_csv, out_dir = sys.argv[1:]
            lock, both, in_flight = threading.Lock(), threading.Event(), [0]

            def transport(url, headers, payload, timeout):
                with lock:
                    in_flight[0] += 1
                    if in_flight[0] == 2:
                        both.set()
                if not both.wait(timeout=5):
                    raise RuntimeError("two calls never overlapped")
                with lock:
                    in_flight[0] -= 1
                return 200, {"choices": [{"message": {"content": '{"prediction": "Benign"}'}}]}

            config = pipeline.RunConfig(old_csv=old_csv, new_csv=new_csv, method="M5",
                                        max_in_flight=2, out_dir=out_dir)
            pipeline.run(config, client=pipeline.make_client(config, transport))
            print([m for m in ("concurrent.futures", "logging") if m in sys.modules])
            """)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        old_csv, new_csv = corpus
        done = subprocess.run([sys.executable, "-S", "-c", probe, str(old_csv), str(new_csv),
                               str(tmp_path / "out")], env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestDebateRun:
    def test_debate_writes_transcripts(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, debate=True, rounds=2)
        report, artifacts = pipeline.run(config)
        transcripts = sorted(artifacts["transcripts"].glob("*.json"))
        assert len(transcripts) == 4
        assert report.method == "debate"

    def test_failed_judge_excluded_with_flag(self, corpus, tmp_path):
        client = ScriptedChatClient({("judge", None): "never a verdict"})
        config = base_config(corpus, tmp_path, debate=True)
        report, artifacts = pipeline.run(config, client=client)
        assert report.excluded == 4
        with open(artifacts["predictions"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["parse_path"] == "failed" and row["pred_label"] == "" for row in rows)


class TestVersionPairAtScale:
    """Synthetic corpus with the same shape as a real version pair.

    Old version: 1368 files (115 defective); new version: 1337 (75
    defective). Evolution counts: same-source 321 (3 defective), B00 860,
    B10 65, D11 45, D01 25, added 21 (2 defective), removed 52 (2
    defective). The expected label-persistent metrics are frozen from
    confusion-matrix arithmetic over those counts: tp=48 fp=65 tn=1197
    fn=27.
    """

    def build(self, tmp_path):
        old, new = [], []

        def pair(i, old_label, new_label, changed):
            path = f"src/C{i}.java"
            base = f"class C{i} {{\n    int f() {{ return {i}; }}\n}}\n"
            edited = base.replace("return", "return 1 +") if changed else base
            old.append(VersionedFile(path=path, source=base, label=old_label,
                                     version_id="v1"))
            new.append(VersionedFile(path=path, source=edited, label=new_label,
                                     version_id="v2"))

        i = 0
        for k in range(321):
            label = 1 if k < 3 else 0
            pair(i, label, label, changed=False)
            i += 1
        for _ in range(860):
            pair(i, 0, 0, changed=True)
            i += 1
        for _ in range(65):
            pair(i, 1, 0, changed=True)
            i += 1
        for _ in range(45):
            pair(i, 1, 1, changed=True)
            i += 1
        for _ in range(25):
            pair(i, 0, 1, changed=True)
            i += 1
        for k in range(52):
            old.append(VersionedFile(path=f"src/R{k}.java",
                                     source=f"// removed only {k}\n",
                                     label=1 if k < 2 else 0, version_id="v1"))
        for k in range(21):
            new.append(VersionedFile(path=f"src/A{k}.java",
                                     source=f"// added only {k}\n",
                                     label=1 if k < 2 else 0, version_id="v2"))
        old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
        write_version(VersionSet("v1", "shaped", tuple(old)), old_csv)
        write_version(VersionSet("v2", "shaped", tuple(new)), new_csv)
        return old_csv, new_csv

    def test_full_run_matches_confusion_arithmetic(self, tmp_path):
        old_csv, new_csv = self.build(tmp_path)
        config = RunConfig(dataset="shaped", old_csv=str(old_csv), new_csv=str(new_csv),
                           baseline="label_persistent", out_dir=str(tmp_path / "out"))
        report, artifacts = pipeline.run(config)

        stats = artifacts["stats"]
        assert stats.counts == {"removed": 52, "added": 21, "same_source": 321,
                                "B00": 860, "B10": 65, "D11": 45, "D01": 25,
                                "union": 1389}
        assert stats.total() == pytest.approx(100.0, abs=1e-9)

        tp, fp, tn, fn = 48, 65, 1197, 27
        p1, r1 = tp / (tp + fp), tp / (tp + fn)
        p0, r0 = tn / (tn + fn), tn / (tn + fp)
        f1_1 = 2 * tp / (2 * tp + fp + fn)
        f1_0 = 2 * tn / (2 * tn + fn + fp)
        expected_p = (p0 + p1) / 2
        expected_r = (r0 + r1) / 2
        expected_f1 = (f1_0 + f1_1) / 2
        expected_mcc = (tp * tn - fp * fn) / (
            (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)) ** 0.5

        precision, recall, f1 = report.populations["total"]
        assert precision == pytest.approx(expected_p, abs=1e-12)
        assert recall == pytest.approx(expected_r, abs=1e-12)
        assert f1 == pytest.approx(expected_f1, abs=1e-12)
        assert report.auc == pytest.approx(expected_r, abs=1e-12)  # binary preds
        assert report.fpr == pytest.approx(fp / (fp + tn), abs=1e-12)
        assert report.mcc == pytest.approx(expected_mcc, abs=1e-12)

        # the shaped corpus lands near the reference lucene row
        assert f1 == pytest.approx(0.7353, abs=0.02)
        assert report.mcc == pytest.approx(0.4842, abs=0.02)
        assert report.fpr == pytest.approx(0.0523, abs=0.02)


class TestStageErrors:
    def test_missing_csv_names_stage(self, tmp_path):
        config = RunConfig(old_csv=str(tmp_path / "nope.csv"), new_csv=str(tmp_path / "nope.csv"),
                           baseline="all_benign", out_dir=str(tmp_path / "out"))
        with pytest.raises(PipelineStageError) as err:
            pipeline.run(config)
        assert err.value.stage == "load"
        assert not (tmp_path / "out").exists()


labels = st.sampled_from([None, 0, 1])
cells = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
prediction_rows = st.builds(
    PredictionRow, record_id=cells, subset=cells, old_label=labels,
    new_label=st.sampled_from([0, 1]), pred_label=labels,
    confidence=st.one_of(st.none(), st.integers(0, 10_000).map(lambda k: k / 10_000)),
    parse_path=cells, method=st.just("M5"))


class TestArtifactReaders:
    def test_predictions_csv_round_trip(self, corpus, tmp_path):
        config = base_config(corpus, tmp_path, baseline="label_persistent")
        report, artifacts = pipeline.run(config)
        rows = pipeline.read_predictions_csv(artifacts["predictions"])
        subsets = sorted(row.subset for row in rows)
        assert subsets == sorted(["unchanged_source", "B00", "B10", "D01", "D11", "added"])
        assert pipeline.evaluate_predictions(rows) == report

    @settings(max_examples=200, deadline=None)
    @given(st.lists(prediction_rows, max_size=8, unique_by=lambda row: row.record_id))
    def test_read_inverts_write(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("preds") / "predictions.csv"
        pipeline.write_predictions_csv(rows, path)
        assert pipeline.read_predictions_csv(path) == rows


    def test_read_skips_a_byte_order_mark_at_the_start_of_the_file_only(self, tmp_path):
        rows = [PredictionRow("\ufeffA.java", "B00", 0, 1, 1, 0.5, "json", "M5"),
                PredictionRow("B.java", "added", None, 0, None, None, "failed\ufeff", "M5")]
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        pipeline.write_predictions_csv(rows, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert pipeline.read_predictions_csv(marked) == pipeline.read_predictions_csv(plain) == rows

    @pytest.mark.parametrize("content", [b"\xef", b"\xef\xbb"])
    def test_read_rejects_a_file_of_a_truncated_byte_order_mark(self, tmp_path, content):
        path = tmp_path / "predictions.csv"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError, match=r"lacks column\(s\)"):
            pipeline.read_predictions_csv(path)

    def test_read_matches_csv_reader_on_crlf_and_escaped_record_ids(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_bytes(
            b"record_id,subset,old_label,new_label,pred_label,confidence,parse_path,method\r\n"
            b'"pkg/""A"",1.java",B00,0,1,1,0.5000,json,M5\r\n'
            b'"b,""\r\nc""",added,,0,,,"regex, fallback",M5\r\n')
        with open(path, newline="", encoding="utf-8") as fh:
            cells = list(csv.reader(fh))[1:]
        expected = [PredictionRow(c[0], c[1], int(c[2]) if c[2] else None, int(c[3]),
                                  int(c[4]) if c[4] else None, float(c[5]) if c[5] else None,
                                  c[6], c[7]) for c in cells]
        assert pipeline.read_predictions_csv(path) == expected
        assert [row.record_id for row in expected] == ['pkg/"A",1.java', 'b,"\r\nc"']


def assert_evaluate_prints_run_report(config, capsys, client=None):
    """Run config; `driftlens evaluate` on its predictions.csv must print its
    report.txt byte for byte, and its manifest must hold the wall time in a
    comment line and load back as config."""
    report, artifacts = pipeline.run(config, client=client)
    report_txt = artifacts["report_txt"].read_bytes()
    assert report_txt == (render_text(report) + "\n").encode("utf-8")
    capsys.readouterr()
    assert cli_main(["evaluate", "--preds", str(artifacts["predictions"])]) == 0
    assert capsys.readouterr().out.encode("utf-8") == report_txt
    manifest = artifacts["manifest"].read_text(encoding="utf-8").splitlines()
    assert re.fullmatch(r"# elapsed_seconds: \d+\.\d{3}", manifest[2])
    assert pipeline.load_config(artifacts["manifest"]) == config
    return report


def test_test_modules_import_without_numpy():
    """Every tests/test_*.py module imports with numpy blocked.

    This covers module imports only: a test body may still load numpy, as
    the tests of test_perfbench_contract.py do when they load
    perfbench/worker.py. The block is a finder that fails every numpy
    import; a None entry in sys.modules would break hypothesis itself, which
    reads sys.modules["numpy"].ndarray whenever the key is present.
    """
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH")])))
    names = sorted(path.stem for path in tests.glob("test_*.py"))
    probe = textwrap.dedent(f"""\
        import importlib, sys

        class NoNumpy:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] == "numpy":
                    raise ModuleNotFoundError(f"numpy is blocked: {{name}}")

        sys.meta_path.insert(0, NoNumpy())
        for name in {names!r}:
            try:
                importlib.import_module(name)
            except Exception as exc:
                print(name, repr(exc))
        """)
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout == ""
    assert "test_kernels" in names and "test_pipeline" in names


class TestCli:
    def test_cli_import_loads_no_numpy(self):
        """Every driftlens call pays for what `import driftlens.cli` loads, and
        every run for what `import driftlens.pipeline` loads.

        numpy and the thread pool (concurrent.futures, which loads logging) are
        never needed; hashlib (OpenSSL), typing and the HTTP transport's
        modules (urllib.request, http.client, ssl) load only when a run needs
        them. The value types generate no code at import, so neither
        dataclasses nor inspect loads, nor what they pull in (ast, dis,
        tokenize). -S keeps site from importing modules of its own (a .pth
        file may import typing) before the probe looks.
        """
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        unused = ("numpy", "concurrent.futures", "logging", "hashlib", "_hashlib", "typing",
                  "urllib.request", "http.client", "ssl", "requests", "string",
                  "dataclasses", "inspect", "ast", "dis", "tokenize")
        for module in ("driftlens.cli", "driftlens.pipeline"):
            probe = f"import sys, {module}; print([m for m in {unused!r} if m in sys.modules])"
            done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                                  capture_output=True, text=True, timeout=60, check=True)
            assert done.stdout.strip() == "[]", module

    def test_match_and_partition(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        out = tmp_path / "matches.csv"
        assert cli_main(["match", "--old", str(old_csv), "--new", str(new_csv),
                         "-T", "0.7", "-c", "1.0", "--out", str(out)]) == 0
        assert out.exists()
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["new_path", "old_path", "match_kind", "similarity", "subset"]

        assert cli_main(["partition", "--old", str(old_csv), "--new", str(new_csv),
                         "--dataset", "demo"]) == 0
        printed = capsys.readouterr().out
        assert "B00" in printed and "demo" in printed

    def test_diff_and_context_and_prompt(self, corpus, capsys):
        old_csv, new_csv = corpus
        assert cli_main(["diff", "--old", str(old_csv), "--new", str(new_csv),
                         "--record", "pkg/B10.java"]) == 0
        out = capsys.readouterr().out
        assert "-        return a / 0;" in out
        assert "+        return a / 2;" in out

        assert cli_main(["context", "--old", str(old_csv), "--new", str(new_csv),
                         "--record", "pkg/B10.java", "--depth", "3",
                         "--max-lines", "600"]) == 0
        captured = capsys.readouterr()
        assert "public int work" in captured.out and captured.err == ""
        for budget, kept in (("2", 1), ("0", 0)):
            assert cli_main(["context", "--old", str(old_csv), "--new", str(new_csv),
                             "--record", "pkg/B10.java", "--max-lines", budget]) == 0
            assert capsys.readouterr().err == (f"# truncated to {budget} lines: {kept} of 1 "
                                               "visited methods start inside\n")

        assert cli_main(["prompt", "--old", str(old_csv), "--new", str(new_csv),
                         "--record", "pkg/B10.java", "--method", "M5"]) == 0
        out = capsys.readouterr().out
        assert "[SRC1] → Defective" in out
        assert "=== system ===" in out

    def test_baseline_cli(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        out = tmp_path / "preds.csv"
        records_out = tmp_path / "records.csv"
        assert cli_main(["baseline", "--old", str(old_csv), "--new", str(new_csv),
                         "--kind", "label-persistent", "--out", str(out),
                         "--records-out", str(records_out)]) == 0
        assert out.exists()
        assert "label_persistent" in capsys.readouterr().out
        assert records_out.exists()
        assert cli_main(["evaluate", "--preds", str(out)]) == 0
        assert "HMB" in capsys.readouterr().out

    def test_predict_stub_and_evaluate(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        out_dir = tmp_path / "run1"
        assert cli_main(["predict", "--old", str(old_csv), "--new", str(new_csv),
                         "--method", "M5", "--stub", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["evaluate", "--preds", str(out_dir / "predictions.csv")]) == 0
        assert "HMB" in capsys.readouterr().out

    def test_evaluate_reproduces_run_report(self, corpus, tmp_path, capsys):
        client = ScriptedChatClient({
            ("M5", "pkg/B00.java"): "no verdict in this reply",
            ("M5", "pkg/D01.java"): '{"prediction": "Defective", "confidence": 0.8125}'})
        report = assert_evaluate_prints_run_report(base_config(corpus, tmp_path, method="M5"),
                                                   capsys, client)
        assert report.excluded == 1

    @pytest.mark.parametrize("selector", [{"baseline": "label_persistent"}, {"debate": True}],
                             ids=["label_persistent", "debate"])
    def test_evaluate_reproduces_baseline_and_debate_reports(self, corpus, tmp_path, capsys,
                                                             selector):
        assert_evaluate_prints_run_report(base_config(corpus, tmp_path, **selector), capsys)

    @pytest.mark.parametrize("selector", [{"method": "M5"}, {"debate": True}],
                             ids=["M5", "debate"])
    def test_evaluate_reproduces_an_empty_run_report(self, corpus, tmp_path, capsys, selector):
        # caps that leave no record: predictions.csv holds only its header, so no row
        # names the method, and the run's report must not name one either
        config = base_config(corpus, tmp_path, caps="B00=0,B10=0,D01=0,D11=0", **selector)
        report = assert_evaluate_prints_run_report(config, capsys)
        assert report.method == "" and sum(report.counts.values()) == 0

    def test_evaluate_reads_a_predictions_file_with_a_byte_order_mark(self, corpus, tmp_path,
                                                                      capsys):
        config = base_config(corpus, tmp_path, baseline="label_persistent")
        _, artifacts = pipeline.run(config)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(artifacts["predictions"]).read_bytes())
        assert cli_main(["evaluate", "--preds", str(artifacts["predictions"])]) == 0
        plain = capsys.readouterr()
        assert cli_main(["evaluate", "--preds", str(marked)]) == 0
        assert capsys.readouterr() == plain

    def test_debate_stub_cli(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        out_dir = tmp_path / "run2"
        assert cli_main(["debate", "--old", str(old_csv), "--new", str(new_csv),
                         "--rounds", "1", "--stub", "--out-dir", str(out_dir),
                         "--roles", "judge=custom-judge"]) == 0
        assert (out_dir / "transcripts").exists()

    def test_run_from_config_file(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        config_path = tmp_path / "run.conf"
        config_path.write_text(
            "\n".join([
                "# demo run",
                f"old_csv = {old_csv}",
                f"new_csv = {new_csv}",
                "dataset = demo",
                "method = M5",
                "stub = true",
                f"out_dir = {tmp_path / 'run3'}",
            ]) + "\n")
        assert cli_main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "run3" / "manifest.txt").exists()

    def test_run_flags_override_config_file(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        config_path = tmp_path / "c.conf"
        config_path.write_text(f"old_csv = {old_csv}\nnew_csv = {new_csv}\n"
                               f"dataset = demo\nmethod = M2\nout_dir = {tmp_path / 'x'}\n")
        out_dir = tmp_path / "D"
        assert cli_main(["run", "--config", str(config_path), "--method", "M5", "--seed", "7",
                         "--caps", "B00=1", "--stub", "--out-dir", str(out_dir)]) == 0
        manifest = pipeline.load_config(out_dir / "manifest.txt")
        assert manifest == RunConfig(dataset="demo", old_csv=str(old_csv), new_csv=str(new_csv),
                                     method="M5", seed=7, caps="B00=1", stub=True,
                                     out_dir=str(out_dir))

    @pytest.mark.parametrize("bad", [("--threshold", "2"), ("--gap-multiplier", "-1"),
                                     ("--gap-multiplier", "nan"), ("--gap-multiplier", "inf")])
    def test_bad_match_params_rejected_before_loading(self, tmp_path, capsys, bad):
        # the inputs do not exist: the error must name the parameter, not the file
        inputs = ["--old", str(tmp_path / "old.csv"), "--new", str(tmp_path / "new.csv"), *bad]
        record = ["--record", "pkg/B10.java"]
        for argv in (["match", *inputs, "--out", str(tmp_path / "m.csv")],
                     ["partition", *inputs],
                     ["diff", *inputs, *record],
                     ["context", *inputs, *record],
                     ["prompt", *inputs, *record, "--method", "M5"],
                     ["baseline", *inputs, "--out", str(tmp_path / "p.csv")],
                     ["predict", *inputs, "--method", "M5", "--stub"],
                     ["debate", *inputs, "--stub"]):
            assert cli_main([*argv, "--out-dir", str(tmp_path / "o")]
                            if argv[0] in ("predict", "debate") else argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error:") and bad[0][2:].replace("-", "_") in err, argv
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [["diff", "--context", "-1"], ["context", "--depth", "-2"],
                                      ["context", "--max-lines", "-5"],
                                      ["prompt", "--method", "M5", "--max-lines", "-1"]])
    def test_bad_diff_and_context_flags_rejected_before_loading(self, tmp_path, capsys, argv):
        # the inputs do not exist: the error must name the flag's field, not the file
        assert cli_main([*argv, "--old", str(tmp_path / "old.csv"), "--new",
                         str(tmp_path / "new.csv"), "--record", "pkg/B10.java"]) == 2
        err = capsys.readouterr().err
        field = {"--context": "diff_context"}.get(argv[-2], argv[-2][2:].replace("-", "_"))
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("command", ["match", "baseline", "predict"])
    def test_unwritable_output_path_is_an_error(self, corpus, tmp_path, capsys, command):
        old_csv, new_csv = corpus
        a_file = tmp_path / "a_file"
        a_file.write_text("", encoding="utf-8")
        inputs = ["--old", str(old_csv), "--new", str(new_csv)]
        argv = {"match": ["match", *inputs, "--out", str(tmp_path / "missing" / "m.csv")],
                "baseline": ["baseline", *inputs, "--out", str(tmp_path / "missing" / "p.csv")],
                "predict": ["predict", *inputs, "--method", "M5", "--stub",
                            "--out-dir", str(a_file / "x")]}[command]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("bad", ["out", "records_out"])
    def test_baseline_writes_no_output_when_one_path_cannot_be_written(self, corpus, tmp_path,
                                                                       capsys, bad):
        old_csv, new_csv = corpus
        outs = tmp_path / "outs"
        outs.mkdir()
        kept = outs / "kept.csv"
        kept.write_text("untouched\n", encoding="utf-8")
        paths = {"out": outs / "p.csv", "records_out": kept}
        paths[bad] = outs / "missing" / "x.csv"
        assert cli_main(["baseline", "--old", str(old_csv), "--new", str(new_csv),
                         "--out", str(paths["out"]),
                         "--records-out", str(paths["records_out"])]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in outs.iterdir()] == ["kept.csv"]
        assert kept.read_text(encoding="utf-8") == "untouched\n"

    def test_m7_without_a_defective_old_file_writes_nothing(self, tmp_path, capsys):
        old_csv, new_csv = tmp_path / "old.csv", tmp_path / "new.csv"
        write_version(VersionSet("v1", "demo", (java_file("A.java", "return a;", 0, "v1"),
                                                java_file("B.java", "return 1;", 0, "v1"))),
                      old_csv)
        write_version(VersionSet("v2", "demo", (java_file("A.java", "return a;", 1, "v2"),
                                                java_file("B.java", "return 2;", 0, "v2"))),
                      new_csv)
        out_dir = tmp_path / "out"
        assert cli_main(["predict", "--old", str(old_csv), "--new", str(new_csv),
                         "--method", "M7", "--stub", "--out-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: M7 ") and str(old_csv) in err
        assert not out_dir.exists()

    def test_prompt_rejects_an_unknown_method_before_loading(self, tmp_path, capsys):
        # the inputs do not exist: the error must name the method, not the file
        assert cli_main(["prompt", "--old", str(tmp_path / "old.csv"), "--new",
                         str(tmp_path / "new.csv"), "--record", "pkg/B10.java",
                         "--method", "M9"]) == 2
        assert capsys.readouterr().err == "error: unknown method 'M9'\n"

    def test_flag_defaults_match_run_config(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        defaults = RunConfig()
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                if (action.dest in pipeline.FIELD_TYPES and not action.required
                        and action.default is not argparse.SUPPRESS):
                    assert action.default == getattr(defaults, action.dest), (command, action.dest)

    def test_run_config_defaults_match_layer_defaults(self):
        def default(fn, name):
            return inspect.signature(fn).parameters[name].default

        config, match, debate = RunConfig(), MatchParams(), DebateConfig()
        assert (config.threshold, config.gap_multiplier) == (match.threshold,
                                                             match.gap_multiplier)
        assert (config.rounds, config.depth, config.max_lines) == (debate.rounds, debate.depth,
                                                                   debate.max_lines)
        assert config.diff_context == default(diff, "context_lines")
        assert config.max_in_flight == default(HttpChatClient, "max_in_flight")

    def test_cli_error_path(self, corpus, tmp_path, capsys):
        old_csv, new_csv = corpus
        inputs = ["--old", str(old_csv), "--new", str(new_csv)]
        bad_seed = tmp_path / "bad_seed.conf"
        bad_seed.write_text(f"old_csv = {old_csv}\nnew_csv = {new_csv}\nbaseline = all_benign\n"
                            "seed = abc\n", encoding="utf-8")
        header = "record_id,subset,old_label,new_label,pred_label,confidence,parse_path,method\n"
        bad_preds = {
            "no_method_column": header.replace(",method", "") + "a,B00,0,0,0,,json\n",
            "bad_label": header + "a,B00,0,yes,0,,json,M5\n",
            "repeated_id": header + "a,B00,0,0,0,,json,M5\na,B00,0,0,1,,json,M5\n",
            "two_methods": header + "a,B00,0,0,0,,json,M5\nb,B00,0,0,1,,json,M6\n",
        }
        evaluate = [["evaluate", "--preds", str(tmp_path / "missing.csv")]]
        for name, text in bad_preds.items():
            (tmp_path / f"{name}.csv").write_text(text, encoding="utf-8")
            evaluate.append(["evaluate", "--preds", str(tmp_path / f"{name}.csv")])
        (tmp_path / "bad_utf8.csv").write_bytes(header.encode() + b"a\xff,B00,0,0,0,,json,M5\n")
        evaluate.append(["evaluate", "--preds", str(tmp_path / "bad_utf8.csv")])
        for argv in (["diff", *inputs, "--record", "missing.java"],
                     ["context", *inputs, "--record", "pkg/Fresh.java"],  # an added file
                     ["prompt", *inputs, "--record", "pkg/Fresh.java", "--method", "M5"],
                     ["run", "--config", str(tmp_path / "missing.conf")],
                     ["run", "--config", str(bad_seed)],
                     ["debate", *inputs, "--stub", "--roles", "judg=x"],
                     ["debate", *inputs, "--stub", "--roles", "judge= "],
                     ["predict", *inputs, "--stub", "--method", "M5", "--caps", "B00=\u00b2"],
                     ["predict", *inputs, "--method", "M5", "--stub", "--max-in-flight", "0"],
                     *evaluate):
            assert cli_main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err
        # bad run values are rejected before loading, so nothing is written
        no_exemplars = tmp_path / "no_exemplars.conf"
        no_exemplars.write_text(f"old_csv = {old_csv}\nnew_csv = {new_csv}\nmethod = M7\n"
                                "stub = true\nexemplar_count = -1\n", encoding="utf-8")
        zero_exemplars = tmp_path / "zero_exemplars.conf"
        zero_exemplars.write_text(no_exemplars.read_text().replace("= -1", "= 0"),
                                  encoding="utf-8")
        m5 = ["predict", *inputs, "--stub", "--method", "M5"]
        for k, argv in enumerate(([*m5, "--diff-context", "-1"], [*m5, "-T", "2"],
                                  ["debate", *inputs, "--stub", "--rounds", "0"],
                                  ["run", "--config", str(no_exemplars)],
                                  ["run", "--config", str(zero_exemplars)],
                                  ["predict", *inputs, "--stub", "--method", "M6",
                                   "--max-lines", "0"],
                                  ["debate", *inputs, "--stub", "--max-lines", "0"],
                                  ["prompt", *inputs, "--record", "pkg/B10.java",
                                   "--method", "analyzer", "--max-lines", "0"])):
            out_dir = tmp_path / f"rejected{k}"
            assert cli_main(argv if argv[0] == "prompt"
                            else [*argv, "--out-dir", str(out_dir)]) == 2, argv
            assert "error:" in capsys.readouterr().err
            assert not (out_dir / "matches.csv").exists(), argv
