"""Chat-completions client (OpenAI-compatible wire format) and output parsing.

Two client flavors share one interface: HttpChatClient posts to a real
endpoint with bounded retries and an in-flight cap, through urllib.request
from the standard library unless a transport is injected; ScriptedChatClient
replays canned replies keyed by (tag, record id) and never touches the
network. Parsing of model replies is total: every text yields a
ParsedPrediction whose parse_path records how the label was obtained.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import namedtuple

from .errors import ConfigurationError, TransportError

DEFAULT_BASE_URL = "https://api.llm7.io/v1"
BASE_URL_ENV = "DRIFTLENS_BASE_URL"
API_KEY_ENV = "DRIFTLENS_API_KEY"
DEFAULT_MAX_IN_FLIGHT = 4

# "\s*(?:\*+\s*)?" reads what "\s*\**\s*" reads without quadratic backtracking
_MARKER_RE = re.compile(r"###\s*Final Prediction\s*:\s*(?:\*+\s*)?(BENIGN|DEFECTIVE)",
                        re.IGNORECASE)
_CONFIDENCE_RE = re.compile(r"###\s*Confidence\s*:\s*(?:\*+\s*)?([0-9]+(?:\.[0-9]+)?)[ \t]*(%?)",
                            re.IGNORECASE)
_BRACE_RE = re.compile(r"[{}]")
_DECODER = json.JSONDecoder()
_TOKEN_RE = re.compile(r"\b(defective|benign)\b", re.IGNORECASE)


class ChatRequest(namedtuple("ChatRequest", "model system user_turns temperature tag record_id",
                             defaults=(0.0, "", ""))):
    """One chat completion to ask for.

    user_turns holds (role, text) pairs; tag is the method id or debate
    role, used by the stub and logs.
    """

    __slots__ = ()

    @classmethod
    def single_turn(cls, model: str, system: str, user: str, *, tag: str = "",
                    record_id: str = "", temperature: float = 0.0) -> "ChatRequest":
        return cls(model=model, system=system, user_turns=(("user", user),),
                   temperature=temperature, tag=tag, record_id=record_id)


class ParsedPrediction(namedtuple("ParsedPrediction", "label confidence parse_path")):
    """A reply's label and confidence, each None when absent.

    parse_path is json, marker, regex_fallback or failed.
    """

    __slots__ = ()

    def __new__(cls, label: int | None, confidence: float | None = None,
                parse_path: str = "failed"):
        if parse_path == "failed" and label is not None:
            raise ValueError("failed parses must not carry a label")
        return super().__new__(cls, label, confidence, parse_path)


class RetryPolicy(namedtuple("RetryPolicy", "max_attempts base_delay multiplier max_delay",
                             defaults=(4, 0.5, 2.0, 30.0))):
    __slots__ = ()

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * self.multiplier ** attempt, self.max_delay)


class CallStats:
    """A client's running totals: completed calls, attempts and reported tokens."""

    __slots__ = ("calls", "attempts", "prompt_tokens", "completion_tokens")

    def __init__(self):
        self.calls = self.attempts = self.prompt_tokens = self.completion_tokens = 0


def _urllib_transport(url, headers, payload, timeout):
    """POST payload as JSON; the reply's (status, body), an error status included.

    A body that is not JSON comes back as {"raw": text}. A failure to connect,
    send or read, a timeout and a URL without a scheme raise TransportError.
    HTTPS checks certificates against the system trust store.
    """
    import http.client
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8")
    try:
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                status, raw = resp.status, resp.read()
        except urllib.error.HTTPError as exc:  # 4xx and 5xx come with a body
            with exc:
                status, raw = exc.code, exc.read()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise TransportError(f"request failed: {exc}") from exc
    text = raw.decode("utf-8", errors="replace")
    try:
        body = json.loads(text)
    except ValueError:
        body = {"raw": text}
    return status, body


def _reply_content(body) -> str:
    """The first choice's message text of a 200 reply body."""
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):  # a body that is not an object lands here too
        content = None
    if not isinstance(content, str):
        raise TransportError(f"malformed response body: {body!r}", 200)
    return content


def _token_count(value) -> int:
    """A usage token count; one that is not a number counts 0."""
    try:
        return int(value or 0)
    except (TypeError, ValueError, OverflowError):
        return 0


class HttpChatClient:
    """POSTs chat requests to <base>/chat/completions with bearer auth.

    Transient statuses (429 and 5xx) are retried with exponential backoff up
    to the policy's attempt budget; authentication failures raise
    immediately. At most `max_in_flight` requests run concurrently.
    """

    RETRYABLE = frozenset({429, 500, 502, 503, 504})

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 retry_policy: RetryPolicy = RetryPolicy(),
                 max_in_flight: int = DEFAULT_MAX_IN_FLIGHT, timeout: float = 120.0,
                 transport=None, sleep=time.sleep):
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        base = base_url or os.environ.get(BASE_URL_ENV) or DEFAULT_BASE_URL
        base = base.rstrip("/")
        if not base.endswith("/v1"):
            base = base + "/v1"
        self.url = base + "/chat/completions"
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.retry_policy = retry_policy
        self.timeout = timeout
        self.transport = transport or _urllib_transport
        self.sleep = sleep
        self.stats = CallStats()
        self._gate = threading.Semaphore(max_in_flight)
        self._lock = threading.Lock()

    def complete(self, req: ChatRequest) -> str:
        messages = [{"role": "system", "content": req.system}]
        messages += [{"role": role, "content": text} for role, text in req.user_turns]
        payload = {"model": req.model, "messages": messages, "temperature": req.temperature}
        headers = {"Authorization": f"Bearer {self.api_key}", "Content-Type": "application/json"}

        last_status = None
        with self._gate:
            for attempt in range(self.retry_policy.max_attempts):
                try:
                    status, body = self.transport(self.url, headers, payload, self.timeout)
                except TransportError:
                    if attempt + 1 >= self.retry_policy.max_attempts:
                        raise
                    self.sleep(self.retry_policy.delay(attempt))
                    continue
                if status in (401, 403):
                    raise ConfigurationError(f"authentication failed (HTTP {status})")
                if status == 200:
                    content = _reply_content(body)
                    self._record(attempt + 1, body)
                    return content
                last_status = status
                if status not in self.RETRYABLE:
                    raise TransportError(f"endpoint returned HTTP {status}", status)
                if attempt + 1 < self.retry_policy.max_attempts:
                    self.sleep(self.retry_policy.delay(attempt))
        raise TransportError(
            f"retries exhausted after {self.retry_policy.max_attempts} attempts "
            f"(last status {last_status})", last_status)

    def _record(self, attempts, body):
        with self._lock:
            self.stats.calls += 1
            self.stats.attempts += attempts
            usage = body.get("usage")
            if not isinstance(usage, dict):
                usage = {}
            self.stats.prompt_tokens += _token_count(usage.get("prompt_tokens"))
            self.stats.completion_tokens += _token_count(usage.get("completion_tokens"))


DEFAULT_SCRIPTS = {
    "judge": "### Final Prediction: BENIGN\n### Confidence: 50",
    "analyzer": ("Summary: the change adjusts existing logic.\n"
                 "Benign readings: routine refactoring.\n"
                 "Defective readings: a boundary case may be mishandled."),
    "proposer": '{"explanation": "The change looks routine.", "prediction": "Benign"}',
    "skeptic": '{"explanation": "The claim ignores edge cases.", "prediction": "Defective"}',
}
DEFAULT_METHOD_SCRIPT = '{"explanation": "No defect indicators found.", "prediction": "Benign"}'


class ScriptedChatClient:
    """Deterministic offline stand-in for HttpChatClient.

    Replies are looked up by (tag, record_id), then (tag, None), then the
    built-in defaults. A list value is consumed one reply per call. No
    network operation ever happens.
    """

    def __init__(self, script: dict | None = None):
        # lists are consumed per call, so copy them to leave the caller's script intact
        self.script = {key: list(value) if isinstance(value, list) else value
                       for key, value in (script or {}).items()}
        self.stats = CallStats()
        self._lock = threading.Lock()

    def complete(self, req: ChatRequest) -> str:
        with self._lock:
            self.stats.calls += 1
            self.stats.attempts += 1
            for key in ((req.tag, req.record_id), (req.tag, None)):
                if key in self.script:
                    value = self.script[key]
                    if isinstance(value, list):
                        return value.pop(0) if len(value) > 1 else value[0]
                    return value
            return DEFAULT_SCRIPTS.get(req.tag, DEFAULT_METHOD_SCRIPT)


def _find_json_object(raw: str) -> dict | None:
    try:
        obj = json.loads(raw)
        return obj if isinstance(obj, dict) else None
    except (ValueError, RecursionError):
        pass
    # fall back to brace-balanced spans (fenced or embedded JSON), paired in
    # one pass and tried by start; the first brace left open ends the search
    starts: list[int] = []
    open_braces: list[int] = []
    close_of: dict[int, int] = {}
    for m in _BRACE_RE.finditer(raw):
        if m[0] == "{":
            starts.append(m.start())
            open_braces.append(m.start())
        elif open_braces:
            close_of[open_braces.pop()] = m.start()
    for start in starts:
        if start not in close_of:
            return None
        try:
            obj, stop = _DECODER.raw_decode(raw, start)
        except (ValueError, RecursionError):
            continue
        # the span alone parses exactly when parsing from its start ends at its close
        if stop == close_of[start] + 1 and isinstance(obj, dict):
            return obj
    return None


def _label_from_word(word: str) -> int:
    return 1 if word.lower() == "defective" else 0


def _parse_json_shape(raw: str) -> ParsedPrediction | None:
    obj = _find_json_object(raw)
    if obj is None:
        return None
    prediction = obj.get("prediction")
    if not isinstance(prediction, str) or prediction.strip().lower() not in ("defective", "benign"):
        return None
    return ParsedPrediction(label=_label_from_word(prediction.strip()), parse_path="json")


def _parse_markers(raw: str) -> ParsedPrediction | None:
    m = _MARKER_RE.search(raw)
    if not m:
        return None
    confidence = None
    cm = _CONFIDENCE_RE.search(raw)
    if cm:
        # "85%" is a percent; without the sign a value above 1 is taken as one too
        value = float(cm.group(1))
        confidence = value / 100.0 if cm.group(2) or value > 1.0 else value
        confidence = max(0.0, min(1.0, confidence))
    return ParsedPrediction(label=_label_from_word(m.group(1)), confidence=confidence,
                            parse_path="marker")


def _parse_fallback(raw: str) -> ParsedPrediction | None:
    tokens = _TOKEN_RE.findall(raw)
    if not tokens:
        return None
    # conclusions end LLM answers, so the last mention wins
    return ParsedPrediction(label=_label_from_word(tokens[-1]), parse_path="regex_fallback")


def parse_prediction(raw: str, expect: str = "json_shape") -> ParsedPrediction:
    """Parse a model reply into a prediction; never raises on content.

    `expect` orders the structured parsers ("json_shape" or "judge_markers");
    the token-scan fallback runs last, and a total miss yields
    parse_path="failed" with no label.
    """
    if expect not in ("json_shape", "judge_markers"):
        raise ConfigurationError(f"unknown expectation {expect!r}")
    if expect == "json_shape":
        structured = _parse_json_shape(raw) or _parse_markers(raw)
    else:
        structured = _parse_markers(raw) or _parse_json_shape(raw)
    if structured is not None:
        return structured
    fallback = _parse_fallback(raw)
    if fallback is not None:
        return fallback
    return ParsedPrediction(label=None, parse_path="failed")
