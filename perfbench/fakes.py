"""Deterministic model replies and an in-process fake chat endpoint.

A ReplyPlan fixes, for one set of evaluated records, which reply each record
gets, its label and whether its first endpoint request is rejected. Kinds go
to records by the rank of a hash of the record id, in exact counts, and
every kind goes to at least one record, so every seed exercises every parse
path (json, marker, regex_fallback, failed) and the judge re-ask, and costs
the same number of calls. The scripted stub client and the fake endpoint
read the same plan, so the benchmark knows the parse path and label each
prediction must carry.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time

# share of records per kind, in percent
_METHOD_MIX = (("json", 70), ("marker", 15), ("regex_fallback", 10), ("failed", 5))
# judge replies: parsed at once, parsed after the one re-ask, never parsed
_JUDGE_MIX = (("marker", 85), ("reask", 10), ("failed", 5))
_LABEL_MIX = ((1, 30), (0, 70))
# the first request of these records is rejected with 429
_RETRY_MIX = ((True, 10), (False, 90))

_UNPARSEABLE = "I cannot reach a conclusion from the material given."
_DIFF_PATH_RE = re.compile(r"(?m)^--- a/(.+)$")

BASE_LATENCY_S = 0.020    # fake endpoint time per call ...
LATENCY_PER_CHAR_S = 2e-6  # ... plus this much per prompt character


def _counts(n: int, mix) -> list[int]:
    """Each kind's share of n records, by largest remainder; at least one of each
    kind when n allows it."""
    exact = [n * share / 100 for _, share in mix]
    counts = [int(x) for x in exact]
    for i in sorted(range(len(mix)), key=lambda i: counts[i] - exact[i])[:n - sum(counts)]:
        counts[i] += 1
    if n >= len(mix):
        for i in range(len(mix)):
            if counts[i] == 0:
                counts[i] = 1
                counts[counts.index(max(counts))] -= 1
    return counts


def _assign(record_ids, tag: str, mix) -> dict:
    """Map each record to a kind: records ranked by hash, kinds in exact counts."""
    ranked = sorted(record_ids, key=lambda rid: hashlib.sha256(
        f"{tag}\x1f{rid}".encode("utf-8")).digest())
    kinds = [kind for (kind, _), n in zip(mix, _counts(len(ranked), mix)) for _ in range(n)]
    return dict(zip(ranked, kinds))


def _word(label: int) -> str:
    return "Defective" if label else "Benign"


class ReplyPlan:
    """The scripted behaviour of the model for one set of evaluated records."""

    def __init__(self, record_ids):
        record_ids = list(record_ids)
        self.method = _assign(record_ids, "method", _METHOD_MIX)
        self.judge = _assign(record_ids, "judge", _JUDGE_MIX)
        self.label = _assign(record_ids, "label", _LABEL_MIX)
        self.rejected = frozenset(
            rid for rid, hit in _assign(record_ids, "429", _RETRY_MIX).items() if hit)

    def method_reply(self, record_id: str) -> str:
        """The reply a single-shot method prompt for this record receives."""
        kind = self.method[record_id]
        word = _word(self.label[record_id])
        if kind == "json":
            return json.dumps({"explanation": "The edit keeps the invariants.",
                               "prediction": word})
        if kind == "marker":
            return f"### Final Prediction: {word.upper()}\n### Confidence: 70"
        if kind == "regex_fallback":
            return f"Weighing the edit, the new file looks {word.lower()} overall."
        return _UNPARSEABLE

    def judge_replies(self, record_id: str) -> list[str]:
        """Replies to the judge, one per ask; the stub repeats the last one."""
        good = (f"### Final Prediction: {_word(self.label[record_id]).upper()}\n"
                "### Confidence: 60")
        return {"marker": [good], "reask": [_UNPARSEABLE, good],
                "failed": [_UNPARSEABLE]}[self.judge[record_id]]

    def expected_prediction(self, record_id: str, debate: bool) -> tuple[str, str]:
        """(pred_label, parse_path) as predictions.csv must show them."""
        if debate:
            path = "failed" if self.judge[record_id] == "failed" else "marker"
        else:
            path = self.method[record_id]
        return ("" if path == "failed" else str(self.label[record_id])), path

    def stub_script(self, tag: str) -> dict:
        """A ScriptedChatClient script; list values are consumed, so build one per run."""
        if tag == "debate":
            return {("judge", rid): self.judge_replies(rid) for rid in self.judge}
        return {(tag, rid): self.method_reply(rid) for rid in self.method}


class FakeEndpoint:
    """Transport for HttpChatClient that answers like a chat-completions server.

    Latency is a fixed cost plus a per-character cost of the prompt. The
    first request for each record the plan rejects gets a 429; a set of
    rejected records makes that happen once whatever the thread interleaving. The
    endpoint records requests, rejections and its own in-flight calls: the
    peak and the time-weighted mean between the first arrival and the last
    departure.
    """

    def __init__(self, plan: ReplyPlan):
        self._plan = plan
        self._lock = threading.Lock()
        self._rejected: set[str] = set()
        self.requests = 0
        self.rejections = 0
        self.in_flight = 0
        self.peak_in_flight = 0
        self._area = 0.0
        self._first = None
        self._last = None

    def _enter(self) -> None:
        with self._lock:
            now = time.perf_counter()
            if self._first is None:
                self._first = self._last = now
            self._area += self.in_flight * (now - self._last)
            self._last = now
            self.in_flight += 1
            self.requests += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)

    def _exit(self) -> None:
        with self._lock:
            now = time.perf_counter()
            self._area += self.in_flight * (now - self._last)
            self._last = now
            self.in_flight -= 1

    @property
    def mean_in_flight(self) -> float:
        if self._first is None or self._last == self._first:
            return 0.0
        return self._area / (self._last - self._first)

    def __call__(self, url, headers, payload, timeout):
        prompt = "".join(m["content"] for m in payload["messages"])
        found = _DIFF_PATH_RE.search(payload["messages"][-1]["content"])
        record_id = found.group(1) if found else ""
        self._enter()
        try:
            time.sleep(BASE_LATENCY_S + LATENCY_PER_CHAR_S * len(prompt))
            with self._lock:
                reject = (record_id in self._plan.rejected
                          and record_id not in self._rejected)
                if reject:
                    self._rejected.add(record_id)
                    self.rejections += 1
            if reject:
                return 429, {"error": {"message": "rate limited"}}
            reply = self._plan.method_reply(record_id)
            return 200, {
                "choices": [{"message": {"role": "assistant", "content": reply}}],
                "usage": {"prompt_tokens": len(prompt) // 4,
                          "completion_tokens": len(reply) // 4},
            }
        finally:
            self._exit()
