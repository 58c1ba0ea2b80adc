"""Prompt construction for single-shot methods M0-M8 and the debate roles.

Every prompt is a template, and its fields are its inputs: REQUIRED_INPUTS
is read off the templates, so what each method or role may see is written
down once, in its text. One renderer fills the fields from a record's
materials and appends the prompt's tail: the JSON output instruction, the
judge's marker contract or the analyzer's answer list, kept out of the
templates because they hold braces. All prompts share one system prompt.
The previous defect label is the field {prev}; of the roles, only the
judge's template has it, once, after PREV_LABEL_MARKER.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .diffing import render_difference_list
from .errors import ConfigurationError, OrchestrationError

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

_EVIDENCE = "\n\n[Unified diff]\n{unified}\n\n[Expanded Context]\n{local_context}"
_HISTORY = "\n\n[Debate so far]\n{history}"

ROLE_TEMPLATES = {
    "analyzer": """You are the Analyzer in a structured code review debate over whether a changed source file is Defective or Benign.
Examine the code change and its expanded file-local context. Summarize what the change does, then list plausible benign and defective interpretations of it.
Do not assign a label and do not state a final verdict.""" + _EVIDENCE,
    "proposer": """You are the Proposer in a structured code review debate over whether a changed source file is Defective or Benign.
Based on the evidence and the debate so far, state whether the updated file should keep or change its previous defect status, and support the claim with specific evidence from the change.""" + _EVIDENCE + _HISTORY,
    "skeptic": """You are the Skeptic in a structured code review debate over whether a changed source file is Defective or Benign.
Challenge the Proposer's claim: point out weaknesses, alternative explanations, or missed cases in the arguments made so far.""" + _EVIDENCE + _HISTORY,
    "judge": """You are the Judge in a structured code review debate over whether a changed source file is Defective or Benign.
Weigh the arguments exchanged by the other roles and decide the final status of the updated file, with a confidence score.""" + _EVIDENCE + f"\n\n{PREV_LABEL_MARKER} {{prev}}" + _HISTORY,
}

_ANALYZER_TAIL = """Respond with:
1. A concise summary of the change.
2. Plausible benign interpretations.
3. Plausible defective interpretations."""

# What follows each prompt's rendered template; every other prompt ends with JSON_INSTRUCTION.
_TAILS = {"analyzer": _ANALYZER_TAIL, "judge": JUDGE_CONTRACT}

_TEMPLATES = {**METHOD_TEMPLATES, **ROLE_TEMPLATES}
METHOD_IDS = tuple(METHOD_TEMPLATES)
ROLES = tuple(ROLE_TEMPLATES)

# Each prompt's inputs are its template's fields, in the order they first appear.
REQUIRED_INPUTS = {prompt_id: tuple(dict.fromkeys(re.findall(r"\{(\w+)\}", template)))
                   for prompt_id, template in _TEMPLATES.items()}

_RENDER = {
    "prev": lambda old: LABEL_WORDS[old.label],
    "src1": lambda old: old.source,
    "src2": lambda source: source,
    "differences": render_difference_list,
    "unified": lambda cs: cs.unified,
    "local_context": lambda ctx: ctx.snippet,
    "exemplars": lambda snippets: "\n\n".join(
        f"Example {i}:\n{snippet}" for i, snippet in enumerate(snippets, start=1)),
    "history": lambda history: "\n\n".join(
        f"--- {role.capitalize()} (round {round_no}) ---\n{text}"
        for role, round_no, text in history),
}


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


def _render(prompt_id: str, record, cs, ctx, exemplars, history) -> PromptBundle:
    """Fill prompt_id's template from the inputs its fields name, then add its tail.

    An input of None (or no exemplars) is absent and raises ConfigurationError
    naming its block by the title line above its field, or the field itself
    in braces when it has none; an empty file is present and renders as an
    empty block.
    """
    inputs = {"prev": record.old_file, "src1": record.old_file, "src2": record.new_file.source,
              "differences": cs, "unified": cs, "local_context": ctx,
              "exemplars": exemplars or None, "history": history}
    template = _TEMPLATES[prompt_id]
    values = {}
    for name in REQUIRED_INPUTS[prompt_id]:
        if inputs[name] is None:
            title = re.search(rf"^(\[.*\])\n\{{{name}\}}$", template, re.M)
            block = title[1] if title else f"{{{name}}}"
            raise ConfigurationError(f"{prompt_id} requires {block}")
        values[name] = _RENDER[name](inputs[name])
    body = template.format(**values)
    return PromptBundle(system=SYSTEM_PROMPT,
                        user=f"{body}\n\n{_TAILS.get(prompt_id, JSON_INSTRUCTION)}")


def build_method_prompt(method_id: str, record, cs, ctx=None,
                        exemplars: list[str] | None = None) -> PromptBundle:
    """Render one M0-M8 prompt from a record's materials.

    The previous-label field of the templates is filled with the record's
    actual old label. Raises ConfigurationError naming the missing block
    when a required input is absent.
    """
    if method_id not in METHOD_TEMPLATES:
        raise ConfigurationError(f"unknown method {method_id!r}; expected one of {METHOD_IDS}")
    return _render(method_id, record, cs, ctx, exemplars, ())


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
    if role == "judge" and record.old_file is None:
        raise OrchestrationError("judge requires a record with a previous label")
    return _render(role, record, cs, ctx, None, history)
