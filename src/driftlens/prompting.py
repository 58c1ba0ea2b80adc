"""Prompt construction for single-shot methods M0-M8 and the debate roles.

Every method prompt shares one fixed system prompt and ends with the JSON
output instruction; the judge role instead carries the marker-based output
contract. The previous defect label is parameterized (the benign-prior
subsets need it), and it appears only where a role is entitled to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError, OrchestrationError

METHOD_IDS = tuple(f"M{i}" for i in range(9))
ROLES = ("analyzer", "proposer", "skeptic", "judge")

LABEL_WORDS = {0: "Benign", 1: "Defective"}
PREV_LABEL_MARKER = "Previous label:"

SYSTEM_PROMPT = """You are an expert software engineer and code reviewer.
Your task is to analyze source code and code changes to determine whether a file is Defective or Benign.
Carefully reason about correctness, logic, and potential defects based only on the provided information.
Do not assume missing context or speculate beyond the given input.
Return only the final classification when asked."""

JSON_INSTRUCTION = """Respond with a JSON object of this exact shape:
{
  "explanation": "Explanation in English",
  "prediction": "Defective" or "Benign"
}"""

JUDGE_CONTRACT = """Conclude your response with exactly these two lines:
### Final Prediction: <BENIGN or DEFECTIVE>
### Confidence: <confidence_percentage>"""

# Inputs each method consumes; prompts must contain these blocks and no others.
REQUIRED_INPUTS = {
    "M0": frozenset({"src2"}),
    "M1": frozenset({"src1", "src2", "prev_label"}),
    "M2": frozenset({"src1", "src2", "differences", "prev_label"}),
    "M3": frozenset({"src1", "src2", "differences", "unified", "prev_label"}),
    "M4": frozenset({"src1", "differences", "unified", "prev_label"}),
    "M5": frozenset({"differences", "unified", "prev_label"}),
    "M6": frozenset({"local_context", "differences", "prev_label"}),
    "M7": frozenset({"differences", "unified", "exemplars", "prev_label"}),
    "M8": frozenset({"differences", "unified", "prev_label"}),
}

BLOCK_NAMES = {
    "src1": "[SRC1]",
    "src2": "[SRC2]",
    "differences": "[Differences]",
    "unified": "[Unified diff]",
    "local_context": "[Local Context]",
    "exemplars": "[Defective Examples]",
    "prev_label": "previous label",
}

METHOD_TEMPLATES = {
    "M0": """You are given a source code file without any previous version. Decide if it is Defective or Benign.

[SRC2]
{src2}

Question: What is the status of this file? (Defective or Benign)""",
    "M1": """You are given SRC1 (known to be {prev}) and SRC2 code. Compare the two versions and decide if SRC2 is Defective or Benign.

[SRC1] → [{prev}]
[SRC2] → [???]

[SRC1]
{src1}

[SRC2]
{src2}

Think step by step and decide whether SRC2 is Defective or Benign.""",
    "M2": """You are given SRC1 (known to be {prev}) and SRC2, along with the exact differences (added/removed/changed lines). Use these to decide the status of SRC2.

[SRC1] → [{prev}]
[SRC2] → [???]

[SRC1]
{src1}

[SRC2]
{src2}

[Differences]
{differences}

Review the differences and reason carefully. Is SRC2 Defective or Benign?""",
    "M3": """You are given SRC1 (known to be {prev}), SRC2, the differences, and a unified diff (like a patch). Use all this information to determine if SRC2 is Defective or Benign.

[SRC1] → [{prev}]
[SRC2] → [???]

[SRC1]
{src1}

[SRC2]
{src2}

[Differences]
{differences}

[Unified diff]
{unified}

Use all provided information to conclude whether SRC2 is Defective or Benign.""",
    "M4": """You are only given SRC1 (known to be {prev}) and the differences/unified diff. Based on how the code has changed, predict if the new SRC2 is Defective or Benign, even though SRC2 code is hidden.

[SRC1] → [{prev}]
[SRC2] → [???]

[SRC1]
{src1}

[Differences]
{differences}

[Unified diff]
{unified}

Based only on the observed changes, predict whether the unseen SRC2 would be Defective or Benign.""",
    "M5": """You are given only the differences and the unified diff. You also know that SRC1 was {prev}. Determine if SRC2 remains {prev} or changes status.

[SRC1] → {prev}
[SRC2] → ???

[Differences]
{differences}

[Unified diff]
{unified}

Use this information to infer the status of SRC2.""",
    "M6": """You are given only the locally relevant code changes with a few lines of context around them. SRC1 is known to be {prev}. Based only on these local modifications, predict whether the updated SRC2 is Defective or Benign.

[SRC1] → [{prev}]
[SRC2] → [???]

[Local Context]
{local_context}

[Differences]
{differences}

Considering only the local code context and changes, predict if SRC2 is Defective or Benign.""",
    "M7": """You are given the differences and unified diff. SRC1 was {prev}. Judge whether these changes are likely to change SRC2's status or keep it {prev}. Some example defective code lines are also provided.

[SRC1] → [{prev}]
[SRC2] → [???]

[Differences]
{differences}

[Unified diff]
{unified}

[Defective Examples]
{exemplars}

Compare the diffs and examples of defective code. Does SRC2 appear Defective or Benign?""",
    "M8": """You are given the differences, unified diff, and status of SRC1 (known to be {prev}). Analyze the changes and determine whether SRC2 is Defective or Benign:
- Do the modifications fix an existing defect?
- Do they introduce a new defect?
- Or leave the code unchanged?

[SRC1] → [{prev}]
[SRC2] → [???]

[Differences]
{differences}

[Unified diff]
{unified}

Think step by step and decide the final status of SRC2.""",
}

_ROLE_PREAMBLE = {
    "analyzer": """You are the Analyzer in a structured code review debate over whether a changed source file is Defective or Benign.
Examine the code change and its expanded file-local context. Summarize what the change does, then list plausible benign and defective interpretations of it.
Do not assign a label and do not state a final verdict.""",
    "proposer": """You are the Proposer in a structured code review debate over whether a changed source file is Defective or Benign.
Based on the evidence and the debate so far, state whether the updated file should keep or change its previous defect status, and support the claim with specific evidence from the change.""",
    "skeptic": """You are the Skeptic in a structured code review debate over whether a changed source file is Defective or Benign.
Challenge the Proposer's claim: point out weaknesses, alternative explanations, or missed cases in the arguments made so far.""",
    "judge": """You are the Judge in a structured code review debate over whether a changed source file is Defective or Benign.
Weigh the arguments exchanged by the other roles and decide the final status of the updated file, with a confidence score.""",
}

_ANALYZER_TAIL = """Respond with:
1. A concise summary of the change.
2. Plausible benign interpretations.
3. Plausible defective interpretations."""


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


def _require(method_id: str, name: str, value) -> None:
    # Only an absent input is missing: an empty file renders as an empty block.
    if value is None:
        raise ConfigurationError(f"{method_id} requires {BLOCK_NAMES[name]}")


def _render_exemplars(exemplars) -> str:
    blocks = []
    for i, snippet in enumerate(exemplars, start=1):
        blocks.append(f"Example {i}:\n{snippet}")
    return "\n\n".join(blocks)


def build_method_prompt(method_id: str, record, cs, ctx=None,
                        exemplars: list[str] | None = None) -> PromptBundle:
    """Render one M0-M8 prompt from a record's materials.

    The literal previous-label slot of the templates is filled with the
    record's actual old label. Raises ConfigurationError naming the missing
    block when a required input is absent.
    """
    required = REQUIRED_INPUTS.get(method_id)
    if required is None:
        raise ConfigurationError(f"unknown method {method_id!r}; expected one of {METHOD_IDS}")
    values = {}
    if "prev_label" in required:
        if record.old_file is None:
            raise ConfigurationError(f"{method_id} requires {BLOCK_NAMES['prev_label']}")
        values["prev"] = LABEL_WORDS[record.old_file.label]
    if "src1" in required:
        _require(method_id, "src1", record.old_file)
        values["src1"] = record.old_file.source
    if "src2" in required:
        _require(method_id, "src2", record.new_file.source)
        values["src2"] = record.new_file.source
    if "differences" in required:
        from .diffing import render_difference_list

        _require(method_id, "differences", cs)
        values["differences"] = render_difference_list(cs)
    if "unified" in required:
        _require(method_id, "unified", cs)
        values["unified"] = cs.unified
    if "local_context" in required:
        _require(method_id, "local_context", ctx)
        values["local_context"] = ctx.snippet
    if "exemplars" in required:
        _require(method_id, "exemplars", exemplars or None)
        values["exemplars"] = _render_exemplars(exemplars)

    user = METHOD_TEMPLATES[method_id].format(**values) + "\n\n" + JSON_INSTRUCTION
    return PromptBundle(system=SYSTEM_PROMPT, user=user)


def _render_history(history) -> str:
    blocks = []
    for role, round_no, text in history:
        blocks.append(f"--- {role.capitalize()} (round {round_no}) ---\n{text}")
    return "\n\n".join(blocks)


def build_role_prompt(role: str, record, cs, ctx, history=(), round_no: int = 0) -> PromptBundle:
    """Render a debate-role prompt with that role's information access.

    Analyzer and Skeptic never see the previous label; the Judge sees it in
    one designated slot along with the full history.
    """
    if role not in ROLES:
        raise ConfigurationError(f"unknown role {role!r}; expected one of {ROLES}")
    history = list(history)
    if role == "analyzer" and (history or round_no != 0):
        raise OrchestrationError("analyzer runs once at round 0 with no history")
    if role == "proposer" and (round_no < 1 or len(history) != 2 * round_no - 1):
        raise OrchestrationError(
            f"proposer at round {round_no} expects {2 * round_no - 1} prior messages, "
            f"got {len(history)}")
    if role == "skeptic" and (round_no < 1 or len(history) != 2 * round_no):
        raise OrchestrationError(
            f"skeptic at round {round_no} expects {2 * round_no} prior messages, "
            f"got {len(history)}")
    if role == "judge" and len(history) < 3:
        raise OrchestrationError("judge requires the full debate history")

    sections = [_ROLE_PREAMBLE[role], f"[Unified diff]\n{cs.unified}"]
    sections.append(f"[Expanded Context]\n{ctx.snippet if ctx else ''}")
    if role == "judge":
        if record.old_file is None:
            raise OrchestrationError("judge requires a record with a previous label")
        sections.append(f"{PREV_LABEL_MARKER} {LABEL_WORDS[record.old_file.label]}")
    if role != "analyzer":
        sections.append(f"[Debate so far]\n{_render_history(history)}")
    if role == "analyzer":
        sections.append(_ANALYZER_TAIL)
    elif role == "judge":
        sections.append(JUDGE_CONTRACT)
    else:
        sections.append(JSON_INSTRUCTION)

    return PromptBundle(system=SYSTEM_PROMPT, user="\n\n".join(sections))
