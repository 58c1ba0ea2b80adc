import re

import pytest

from driftlens.context import extract_context
from driftlens.corpus import VersionedFile
from driftlens.diffing import diff
from driftlens.errors import ConfigurationError, OrchestrationError
from driftlens.matching import EvolutionRecord
from driftlens.prompting import (
    JSON_INSTRUCTION,
    JUDGE_CONTRACT,
    METHOD_IDS,
    PREV_LABEL_MARKER,
    REQUIRED_INPUTS,
    ROLES,
    SYSTEM_PROMPT,
    build_method_prompt,
    build_role_prompt,
)

OLD_SRC = (
    "public class Acc {\n"
    "    public int add(int a, int b) {\n"
    "        return a - b;\n"
    "    }\n"
    "}\n"
)
NEW_SRC = OLD_SRC.replace("return a - b;", "return a + b;")


def make_record(old_label=1, new_label=0):
    old = VersionedFile(path="Acc.java", source=OLD_SRC, label=old_label, version_id="v1")
    new = VersionedFile(path="Acc.java", source=NEW_SRC, label=new_label, version_id="v2")
    subset = {(0, 0): "B00", (1, 0): "B10", (0, 1): "D01", (1, 1): "D11"}[(old_label, new_label)]
    return EvolutionRecord(new_file=new, old_file=old, match_kind="path", subset=subset)


@pytest.fixture
def materials():
    record = make_record()
    cs = diff(OLD_SRC, NEW_SRC, path=record.record_id)
    ctx = extract_context(cs, NEW_SRC, depth=1, max_lines=100)
    return record, cs, ctx


def test_m0_contains_only_src2(materials):
    record, cs, ctx = materials
    bundle = build_method_prompt("M0", record, cs)
    assert "[SRC2]" in bundle.user
    assert NEW_SRC in bundle.user
    assert "What is the status of this file?" in bundle.user
    assert "[SRC1]" not in bundle.user
    assert "[Differences]" not in bundle.user
    assert "[Unified diff]" not in bundle.user
    assert bundle.system == SYSTEM_PROMPT


def test_m5_benign_prior_header(materials):
    _, cs, ctx = materials
    record = make_record(old_label=0, new_label=1)
    bundle = build_method_prompt("M5", record, cs)
    assert "[SRC1] → Benign" in bundle.user
    assert "[Differences]" in bundle.user
    assert "[Unified diff]" in bundle.user
    # no source bodies in the diff-only method
    assert OLD_SRC not in bundle.user
    assert NEW_SRC not in bundle.user


def test_m4_excludes_src2_body(materials):
    record, cs, ctx = materials
    bundle = build_method_prompt("M4", record, cs)
    assert OLD_SRC in bundle.user
    assert NEW_SRC not in bundle.user


def test_m6_requires_context(materials):
    record, cs, ctx = materials
    bundle = build_method_prompt("M6", record, cs, ctx=ctx)
    assert "[Local Context]" in bundle.user
    assert ctx.snippet in bundle.user
    with pytest.raises(ConfigurationError, match=r"\[Local Context\]"):
        build_method_prompt("M6", record, cs, ctx=None)


def test_m7_zero_exemplars_names_block(materials):
    record, cs, ctx = materials
    with pytest.raises(ConfigurationError, match=r"\[Defective Examples\]"):
        build_method_prompt("M7", record, cs, exemplars=[])
    bundle = build_method_prompt("M7", record, cs, exemplars=["int x = 1 / 0;"])
    assert "[Defective Examples]" in bundle.user
    assert "int x = 1 / 0;" in bundle.user


def test_m8_semantic_repair_checklist(materials):
    record, cs, ctx = materials
    bundle = build_method_prompt("M8", record, cs)
    assert "fix an existing defect" in bundle.user
    assert "introduce a new defect" in bundle.user


# What the paper lets each predictor see, in template order. The Analyzer,
# Proposer and Skeptic never see the previous label; the Judge does.
PAPER_INPUTS = {
    "M0": ("src2",),
    "M1": ("prev", "src1", "src2"),
    "M2": ("prev", "src1", "src2", "differences"),
    "M3": ("prev", "src1", "src2", "differences", "unified"),
    "M4": ("prev", "src1", "differences", "unified"),
    "M5": ("prev", "differences", "unified"),
    "M6": ("prev", "local_context", "differences"),
    "M7": ("prev", "differences", "unified", "exemplars"),
    "M8": ("prev", "differences", "unified"),
    "analyzer": ("unified", "local_context"),
    "proposer": ("unified", "local_context", "history"),
    "skeptic": ("unified", "local_context", "history"),
    "judge": ("unified", "local_context", "prev", "history"),
}

BLOCK_MARKERS = {
    "prev": "\n[SRC1] → ",
    "src1": "\n[SRC1]\n",
    "src2": "\n[SRC2]\n",
    "differences": "\n[Differences]\n",
    "unified": "\n[Unified diff]\n",
    "local_context": "\n[Local Context]\n",
    "exemplars": "\n[Defective Examples]\n",
    "history": "\n[Debate so far]\n",
}
# the debate roles title the label and the context differently
ROLE_MARKERS = {**BLOCK_MARKERS, "prev": f"\n{PREV_LABEL_MARKER} ",
                "local_context": "\n[Expanded Context]\n"}

DEBATE = [("analyzer", 0, "m1"), ("proposer", 1, "m2"), ("skeptic", 1, "m3")]
ROLE_TURNS = {"analyzer": (0, 0), "proposer": (1, 1), "skeptic": (2, 1), "judge": (3, 2)}


def build_prompt(prompt_id, record, cs, ctx, exemplars):
    """Any of the 13 prompts; a role at the turn of the sample debate it takes."""
    if prompt_id in ROLES:
        messages, round_no = ROLE_TURNS[prompt_id]
        return build_role_prompt(prompt_id, record, cs, ctx,
                                 history=DEBATE[:messages], round_no=round_no)
    return build_method_prompt(prompt_id, record, cs, ctx=ctx, exemplars=exemplars)


def test_required_inputs_are_the_papers():
    assert REQUIRED_INPUTS == PAPER_INPUTS
    assert (*METHOD_IDS, *ROLES) == tuple(REQUIRED_INPUTS) == tuple(PAPER_INPUTS)


def test_every_prompt_has_required_blocks_and_no_excluded_ones(materials):
    record, cs, ctx = materials
    for prompt_id, required in PAPER_INPUTS.items():
        bundle = build_prompt(prompt_id, record, cs, ctx, ["bad line"])
        markers = ROLE_MARKERS if prompt_id in ROLES else BLOCK_MARKERS
        user = "\n" + bundle.user  # so a block at the start still matches
        for input_name, marker in markers.items():
            if input_name in required:
                assert marker in user, (prompt_id, input_name)
            else:
                assert marker not in user, (prompt_id, input_name)


def test_missing_input_error_names_a_block_its_prompt_shows(materials):
    record, cs, ctx = materials
    absent = {"local_context": {"ctx": None}, "exemplars": {"exemplars": []}}
    cases = [(prompt_id, name) for prompt_id, inputs in REQUIRED_INPUTS.items()
             for name in inputs if name in absent]
    assert [prompt_id for prompt_id, _ in cases] == ["M6", "M7", *ROLES]
    given = {"ctx": ctx, "exemplars": ["bad line"]}
    for prompt_id, name in cases:
        shown = build_prompt(prompt_id, record, cs, **given).user.split("\n")
        with pytest.raises(ConfigurationError) as err:
            build_prompt(prompt_id, record, cs, **{**given, **absent[name]})
        title = re.fullmatch(rf"{prompt_id} requires (\[.*\])", str(err.value))
        assert title and title[1] in shown, (prompt_id, str(err.value))


def test_all_methods_render_without_placeholder_residue(materials):
    record, cs, ctx = materials
    for method_id in METHOD_IDS:
        bundle = build_method_prompt(method_id, record, cs, ctx=ctx, exemplars=["bad line"])
        assert "\\textless" not in bundle.user
        for residue in ("{prev}", "{src1}", "{src2}", "{differences}", "{unified}",
                        "{local_context}", "{exemplars}"):
            assert residue not in bundle.user, (method_id, residue)
        assert bundle.user.endswith(JSON_INSTRUCTION)


def test_method_prompts_deterministic(materials):
    record, cs, ctx = materials
    a = build_method_prompt("M3", record, cs)
    b = build_method_prompt("M3", record, cs)
    assert a.user == b.user and a.system == b.system


def test_unknown_method_rejected(materials):
    record, cs, ctx = materials
    with pytest.raises(ConfigurationError):
        build_method_prompt("M9", record, cs)


class TestRolePrompts:
    def test_analyzer_never_mentions_previous_label(self, materials):
        record, cs, ctx = materials
        bundle = build_role_prompt("analyzer", record, cs, ctx, history=(), round_no=0)
        assert PREV_LABEL_MARKER not in bundle.user
        assert "[SRC1]" not in bundle.user
        assert "plausible benign and defective interpretations" in bundle.user
        assert "Do not assign a label" in bundle.user

    def test_analyzer_rejects_history(self, materials):
        record, cs, ctx = materials
        with pytest.raises(OrchestrationError):
            build_role_prompt("analyzer", record, cs, ctx,
                              history=[("analyzer", 0, "x")], round_no=0)

    def test_proposer_round1_embeds_analyzer(self, materials):
        record, cs, ctx = materials
        history = [("analyzer", 0, "the change flips an operator")]
        bundle = build_role_prompt("proposer", record, cs, ctx, history=history, round_no=1)
        assert "the change flips an operator" in bundle.user
        assert PREV_LABEL_MARKER not in bundle.user

    def test_skeptic_gets_proposer_verbatim_but_no_label(self, materials):
        record, cs, ctx = materials
        history = [("analyzer", 0, "summary"), ("proposer", 1, "claim: keep the status")]
        bundle = build_role_prompt("skeptic", record, cs, ctx, history=history, round_no=1)
        assert "claim: keep the status" in bundle.user
        assert PREV_LABEL_MARKER not in bundle.user

    def test_judge_embeds_label_once_and_history_in_order(self, materials):
        record, cs, ctx = materials
        history = [("analyzer", 0, "m1"), ("proposer", 1, "m2"), ("skeptic", 1, "m3")]
        bundle = build_role_prompt("judge", record, cs, ctx, history=history, round_no=2)
        assert bundle.user.count(PREV_LABEL_MARKER) == 1
        assert f"{PREV_LABEL_MARKER} Defective" in bundle.user
        assert bundle.user.index("m1") < bundle.user.index("m2") < bundle.user.index("m3")
        assert JUDGE_CONTRACT in bundle.user

    def test_role_without_context_names_the_block(self, materials):
        record, cs, _ = materials
        with pytest.raises(ConfigurationError, match=r"analyzer requires \[Expanded Context\]"):
            build_role_prompt("analyzer", record, cs, None)

    def test_judge_requires_history(self, materials):
        record, cs, ctx = materials
        with pytest.raises(OrchestrationError):
            build_role_prompt("judge", record, cs, ctx, history=(), round_no=1)

    def test_role_round_mismatch(self, materials):
        record, cs, ctx = materials
        with pytest.raises(OrchestrationError):
            build_role_prompt("proposer", record, cs, ctx, history=(), round_no=1)
        with pytest.raises(OrchestrationError):
            build_role_prompt("skeptic", record, cs, ctx,
                              history=[("analyzer", 0, "x")], round_no=1)
