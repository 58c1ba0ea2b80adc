import json

import pytest

from driftlens.context import extract_context
from driftlens.corpus import VersionedFile
from driftlens.debate import (
    DebateConfig,
    DebateTransportFailure,
    run_debate,
    save_transcript,
)
from driftlens.diffing import diff
from driftlens.errors import TransportError
from driftlens.llm import ScriptedChatClient
from driftlens.matching import EvolutionRecord
from driftlens.prompting import PREV_LABEL_MARKER

OLD = "public class T {\n    public int f() {\n        return 0;\n    }\n}\n"
NEW = OLD.replace("return 0;", "return 1;")


def make_record(old_label=1, new_label=1, path="T.java"):
    old = VersionedFile(path=path, source=OLD, label=old_label, version_id="v1")
    new = VersionedFile(path=path, source=NEW, label=new_label, version_id="v2")
    subset = {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}[(old_label, new_label)]
    return EvolutionRecord(new_file=new, old_file=old, match_kind="path", subset=subset)


def materials(record):
    cs = diff(OLD, NEW, path=record.record_id)
    ctx = extract_context(cs, NEW, depth=1, max_lines=200)
    return cs, ctx


@pytest.mark.parametrize("rounds,expected_len", [(1, 4), (2, 6), (3, 8)])
def test_schedule_lengths(rounds, expected_len):
    record = make_record()
    cs, ctx = materials(record)
    cfg = DebateConfig(rounds=rounds)
    transcript = run_debate(record, cs, ctx, cfg, ScriptedChatClient())
    assert len(transcript.messages) == expected_len
    roles = [role for role, _, _ in transcript.messages]
    expected = ["analyzer"] + ["proposer", "skeptic"] * rounds + ["judge"]
    assert roles == expected
    rounds_seen = [k for _, k, _ in transcript.messages]
    assert rounds_seen == [0] + [r for r in range(1, rounds + 1) for _ in (0, 1)] + [rounds + 1]


def test_verdict_comes_from_judge():
    record = make_record()
    cs, ctx = materials(record)
    client = ScriptedChatClient({
        ("judge", "T.java"): "### Final Prediction: DEFECTIVE\n### Confidence: 75",
    })
    transcript = run_debate(record, cs, ctx, DebateConfig(rounds=1), client)
    assert transcript.verdict.label == 1
    assert transcript.verdict.confidence == pytest.approx(0.75)
    assert transcript.verdict.parse_path == "marker"
    assert transcript.judge_attempts == 1


def test_proposer_round2_sees_skeptic_round1():
    record = make_record()
    cs, ctx = materials(record)
    seen = {}

    class SpyClient(ScriptedChatClient):
        def complete(self, req):
            seen.setdefault(req.tag, []).append(req.user_turns[0][1])
            return super().complete(req)

    client = SpyClient({("skeptic", None): "SKEPTIC-ROUND-ONE-REBUTTAL"})
    run_debate(record, cs, ctx, DebateConfig(rounds=2), client)
    assert "SKEPTIC-ROUND-ONE-REBUTTAL" in seen["proposer"][1]
    assert "SKEPTIC-ROUND-ONE-REBUTTAL" not in seen["proposer"][0]


def test_information_hygiene_in_issued_prompts():
    record = make_record(old_label=1)
    cs, ctx = materials(record)
    prompts = {}

    class SpyClient(ScriptedChatClient):
        def complete(self, req):
            prompts.setdefault(req.tag, []).append(req.user_turns[0][1])
            return super().complete(req)

    run_debate(record, cs, ctx, DebateConfig(rounds=2), SpyClient())
    for tag in ("analyzer", "proposer", "skeptic"):
        for prompt in prompts[tag]:
            assert PREV_LABEL_MARKER not in prompt
    judge_prompt = prompts["judge"][0]
    assert judge_prompt.count(PREV_LABEL_MARKER) == 1


def test_judge_reask_once_then_flagged():
    record = make_record()
    cs, ctx = materials(record)
    client = ScriptedChatClient({("judge", None): ["gibberish without verdict", "more gibberish"]})
    transcript = run_debate(record, cs, ctx, DebateConfig(rounds=1), client)
    assert transcript.judge_attempts == 2
    assert transcript.verdict.parse_path == "failed"
    assert transcript.verdict.label is None
    assert len(transcript.messages) == 4  # schedule length unchanged by the re-ask


def test_judge_reask_includes_failed_reply():
    record = make_record()
    cs, ctx = materials(record)
    prompts = []

    class SpyClient(ScriptedChatClient):
        def complete(self, req):
            if req.tag == "judge":
                prompts.append(req.user_turns[0][1])
            return super().complete(req)

    client = SpyClient({("judge", None): [
        "THIS-REPLY-DOES-NOT-PARSE", "### Final Prediction: BENIGN\n### Confidence: 60"]})
    transcript = run_debate(record, cs, ctx, DebateConfig(rounds=1), client)
    assert transcript.verdict.label == 0
    assert len(prompts) == 2
    assert "THIS-REPLY-DOES-NOT-PARSE" in prompts[1]


def test_determinism_with_stub_agents():
    record = make_record()
    cs, ctx = materials(record)
    a = run_debate(record, cs, ctx, DebateConfig(rounds=2), ScriptedChatClient())
    b = run_debate(record, cs, ctx, DebateConfig(rounds=2), ScriptedChatClient())
    assert a.to_json() == b.to_json()


def test_transport_error_carries_partial_transcript():
    record = make_record()
    cs, ctx = materials(record)

    class FailingClient(ScriptedChatClient):
        def complete(self, req):
            if req.tag == "skeptic":
                raise TransportError("boom", 503)
            return super().complete(req)

    with pytest.raises(DebateTransportFailure) as err:
        run_debate(record, cs, ctx, DebateConfig(rounds=1), FailingClient())
    assert [role for role, _, _ in err.value.partial_messages] == ["analyzer", "proposer"]


def test_empty_changeset_rejected():
    record = make_record()
    cs = diff(OLD, OLD)
    ctx = extract_context(cs, OLD, depth=1, max_lines=100)
    with pytest.raises(ValueError):
        run_debate(record, cs, ctx, DebateConfig(), ScriptedChatClient())


def test_config_validation():
    with pytest.raises(ValueError):
        DebateConfig(rounds=0)
    with pytest.raises(ValueError):
        DebateConfig(role_models={"analyzer": "m"})


def test_transcript_persistence(tmp_path):
    record = make_record(path="dir/T.java")
    cs, ctx = materials(record)
    transcript = run_debate(record, cs, ctx, DebateConfig(rounds=1), ScriptedChatClient())
    path = save_transcript(transcript, tmp_path / "transcripts")
    assert path.name == "dir%2FT.java.json"
    payload = json.loads(path.read_text())
    assert payload["record_id"] == "dir/T.java"
    assert len(payload["messages"]) == 4
    assert payload["config"]["rounds"] == 1
    assert payload["verdict"]["parse_path"] in ("marker", "json", "regex_fallback", "failed")


def test_transcripts_of_colliding_ids_are_kept_apart(tmp_path):
    # ids that a "/" -> "__" mapping, or a second percent-encoding, would merge
    paths = []
    for record_id in ("a/b.java", "a__b.java", "a%2Fb.java"):
        record = make_record(path=record_id)
        cs, ctx = materials(record)
        transcript = run_debate(record, cs, ctx, DebateConfig(rounds=1), ScriptedChatClient())
        paths.append(save_transcript(transcript, tmp_path))
    assert len(set(paths)) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
    assert [json.loads(p.read_text())["record_id"] for p in paths] == [
        "a/b.java", "a__b.java", "a%2Fb.java"]
