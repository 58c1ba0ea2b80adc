"""Multi-agent debate orchestration: Analyzer -> (Proposer <-> Skeptic) x R -> Judge.

Within one debate the message flow is strictly sequential; different records
may be debated concurrently. A transcript records the full exchange and the
judge's parsed verdict; a failed verdict parse triggers exactly one re-ask
with a stricter format reminder before the record is flagged.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from urllib.parse import quote

from .errors import DriftlensError, TransportError
from .llm import ChatRequest, ParsedPrediction, parse_prediction
from .prompting import JUDGE_CONTRACT, ROLES, build_role_prompt

DEFAULT_ROLE_MODELS = {
    "analyzer": "gemini-2.5-flash-lite",
    "proposer": "gpt-5-mini",
    "skeptic": "codestral-2501",
    "judge": "deepseek-v3.1",
}


@dataclass(frozen=True)
class DebateConfig:
    rounds: int = 1
    role_models: dict = field(default_factory=lambda: dict(DEFAULT_ROLE_MODELS))
    depth: int = 3
    max_lines: int = 400
    temperature: float = 0.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        missing = [r for r in ROLES if r not in self.role_models]
        if missing:
            raise ValueError(f"role_models missing assignments for {missing}")


@dataclass(frozen=True)
class DebateTranscript:
    record_id: str
    messages: tuple[tuple[str, int, str], ...]   # (role, round, text)
    verdict: ParsedPrediction
    config: DebateConfig
    judge_attempts: int = 1

    def to_json(self) -> str:
        return json.dumps({
            "record_id": self.record_id,
            "config": asdict(self.config),
            "messages": [{"role": r, "round": k, "text": t} for r, k, t in self.messages],
            "verdict": {
                "label": self.verdict.label,
                "confidence": self.verdict.confidence,
                "parse_path": self.verdict.parse_path,
            },
            "judge_attempts": self.judge_attempts,
        }, indent=2)


class DebateTransportFailure(DriftlensError):
    """Transport error mid-debate; exposes whatever messages were exchanged."""

    def __init__(self, record_id: str, partial: list[tuple[str, int, str]],
                 cause: TransportError):
        super().__init__(f"debate for {record_id} aborted: {cause}")
        self.partial_messages = tuple(partial)


_REASK_REMINDER = (
    "Your previous reply could not be parsed.\n"
    "Repeat your decision, and this time follow the output format exactly.\n\n"
    + JUDGE_CONTRACT
)


def run_debate(record, cs, ctx, cfg: DebateConfig, client) -> DebateTranscript:
    """Execute the role schedule for one record and parse the judge's verdict."""
    if cs.is_empty:
        raise ValueError(f"record {record.record_id} has an empty change set")

    messages: list[tuple[str, int, str]] = []

    def ask(role: str, round_no: int, suffix: str = "") -> str:
        bundle = build_role_prompt(role, record, cs, ctx, history=messages, round_no=round_no)
        request = ChatRequest.single_turn(
            cfg.role_models[role], bundle.system, bundle.user + suffix,
            tag=role, record_id=record.record_id, temperature=cfg.temperature)
        try:
            return client.complete(request)
        except TransportError as exc:
            raise DebateTransportFailure(record.record_id, messages, exc) from exc

    messages.append(("analyzer", 0, ask("analyzer", 0)))
    for round_no in range(1, cfg.rounds + 1):
        messages.append(("proposer", round_no, ask("proposer", round_no)))
        messages.append(("skeptic", round_no, ask("skeptic", round_no)))

    judge_round = cfg.rounds + 1
    reply = ask("judge", judge_round)
    verdict = parse_prediction(reply, "judge_markers")
    attempts = 1
    if verdict.parse_path == "failed":
        reply = ask("judge", judge_round,
                    "\n\n[Previous unparseable reply]\n" + reply + "\n\n" + _REASK_REMINDER)
        verdict = parse_prediction(reply, "judge_markers")
        attempts = 2
    messages.append(("judge", judge_round, reply))

    return DebateTranscript(
        record_id=record.record_id,
        messages=tuple(messages),
        verdict=verdict,
        config=cfg,
        judge_attempts=attempts,
    )


def save_transcript(transcript: DebateTranscript, out_dir: str | Path) -> Path:
    """Write the transcript to out_dir, one file per record id.

    The file name percent-encodes the record id (every "/" and "%" too), so
    distinct ids never share a file.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{quote(transcript.record_id, safe='')}.json"
    path.write_text(transcript.to_json(), encoding="utf-8")
    return path
