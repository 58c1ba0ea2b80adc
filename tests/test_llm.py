import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from driftlens.errors import ConfigurationError, TransportError
from driftlens.llm import (
    ChatRequest,
    HttpChatClient,
    ParsedPrediction,
    RetryPolicy,
    ScriptedChatClient,
    _urllib_transport,
    parse_prediction,
)


def req(text="hello", tag="M5", record_id="A.java"):
    return ChatRequest.single_turn("test-model", "system prompt", text,
                                   tag=tag, record_id=record_id)


class FakeTransport:
    """Scripted (status, body) responses plus a call recorder."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, headers, payload, timeout):
        self.calls.append((url, headers, payload))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_body(text="X"):
    return {"choices": [{"message": {"content": text}}],
            "usage": {"prompt_tokens": 10, "completion_tokens": 5}}


class TestHttpClient:
    def test_success_passthrough(self):
        transport = FakeTransport([(200, ok_body("the answer"))])
        client = HttpChatClient(base_url="https://api.example.com", api_key="k",
                                transport=transport, sleep=lambda s: None)
        assert client.complete(req()) == "the answer"
        url, headers, payload = transport.calls[0]
        assert url == "https://api.example.com/v1/chat/completions"
        assert headers["Authorization"] == "Bearer k"
        assert payload["temperature"] == 0.0
        assert payload["messages"][0] == {"role": "system", "content": "system prompt"}
        assert client.stats.prompt_tokens == 10

    def test_base_url_with_v1_not_doubled(self):
        transport = FakeTransport([(200, ok_body())])
        client = HttpChatClient(base_url="https://api.llm7.io/v1", api_key="k",
                                transport=transport, sleep=lambda s: None)
        client.complete(req())
        assert transport.calls[0][0] == "https://api.llm7.io/v1/chat/completions"

    def test_rate_limit_retries_then_succeeds(self):
        transport = FakeTransport([(429, {}), (429, {}), (200, ok_body("ok"))])
        delays = []
        client = HttpChatClient(base_url="https://x", api_key="k", transport=transport,
                                retry_policy=RetryPolicy(max_attempts=4, base_delay=0.5),
                                sleep=delays.append)
        assert client.complete(req()) == "ok"
        assert len(transport.calls) == 3
        assert delays == [0.5, 1.0]  # exponential backoff schedule
        assert client.stats.attempts == 3

    def test_retries_exhausted_carries_last_status(self):
        transport = FakeTransport([(503, {})] * 3)
        client = HttpChatClient(base_url="https://x", api_key="k", transport=transport,
                                retry_policy=RetryPolicy(max_attempts=3),
                                sleep=lambda s: None)
        with pytest.raises(TransportError) as err:
            client.complete(req())
        assert err.value.status == 503

    def test_auth_failure_no_retries(self):
        transport = FakeTransport([(401, {})])
        client = HttpChatClient(base_url="https://x", api_key="bad", transport=transport,
                                sleep=lambda s: None)
        with pytest.raises(ConfigurationError):
            client.complete(req())
        assert len(transport.calls) == 1

    def test_non_retryable_4xx_fails_fast(self):
        transport = FakeTransport([(400, {"error": "bad request"})])
        client = HttpChatClient(base_url="https://x", api_key="k", transport=transport,
                                sleep=lambda s: None)
        with pytest.raises(TransportError) as err:
            client.complete(req())
        assert err.value.status == 400
        assert len(transport.calls) == 1

    @pytest.mark.parametrize("body", [
        [ok_body()],
        "X",
        {"choices": []},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": ["X"]}}]},
        {"choices": [{"message": "X"}]},
    ])
    def test_malformed_reply_body_is_a_transport_error(self, body):
        transport = FakeTransport([(200, body)])
        client = HttpChatClient(base_url="https://x", api_key="k", transport=transport,
                                sleep=lambda s: None)
        with pytest.raises(TransportError, match="malformed response body") as exc:
            client.complete(req())
        assert exc.value.status == 200
        assert len(transport.calls) == 1
        assert client.stats.calls == 0

    @pytest.mark.parametrize("usage, tokens", [
        ([10, 5], (0, 0)),
        ("n/a", (0, 0)),
        ({"prompt_tokens": "n/a", "completion_tokens": 5}, (0, 5)),
        ({"prompt_tokens": 10, "completion_tokens": [5]}, (10, 0)),
        ({"prompt_tokens": float("inf"), "completion_tokens": None}, (0, 0)),
    ])
    def test_malformed_usage_counts_zero_and_keeps_reply(self, usage, tokens):
        body = {"choices": [{"message": {"content": "the answer"}}], "usage": usage}
        client = HttpChatClient(base_url="https://x", api_key="k",
                                transport=FakeTransport([(200, body)]), sleep=lambda s: None)
        assert client.complete(req()) == "the answer"
        assert (client.stats.prompt_tokens, client.stats.completion_tokens) == tokens
        assert client.stats.calls == 1

    def test_in_flight_cap_bounds_concurrency(self):
        import threading
        import time as time_mod

        lock = threading.Lock()
        active = {"now": 0, "peak": 0}

        def transport(url, headers, payload, timeout):
            with lock:
                active["now"] += 1
                active["peak"] = max(active["peak"], active["now"])
            time_mod.sleep(0.02)
            with lock:
                active["now"] -= 1
            return 200, ok_body()

        client = HttpChatClient(base_url="https://x", api_key="k", transport=transport,
                                max_in_flight=2, sleep=lambda s: None)
        threads = [threading.Thread(target=client.complete, args=(req(),)) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert active["peak"] <= 2
        assert client.stats.calls == 6

    @pytest.mark.parametrize("cap", [0, -1])
    def test_in_flight_cap_below_one_is_rejected(self, cap):
        # Semaphore(0) would block the first complete() forever
        with pytest.raises(ValueError, match="max_in_flight"):
            HttpChatClient(base_url="https://x", api_key="k", max_in_flight=cap)


def reply(status, body, length=None):
    """A server step that answers with status and body; length overrides Content-Length."""
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")

    def send(handler):
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(data) if length is None else length))
        handler.end_headers()
        handler.wfile.write(data)
    return send


def hang_up(handler):
    """A server step that closes the connection without a status line."""


def stall(handler):
    """A server step that answers nothing until the test ends."""
    handler.server.release.wait(30)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.received.append((dict(self.headers), json.loads(body)))
        self.server.steps.pop(0)(self)

    def log_message(self, *args):
        pass


class _Endpoint(ThreadingHTTPServer):
    daemon_threads = False  # so server_close() joins every handler


@pytest.fixture
def endpoint(monkeypatch):
    """A loopback chat endpoint: set .steps, one per request, and read .received."""
    # lower-case no_proxy wins over NO_PROXY in urllib, so set both
    monkeypatch.setenv("NO_PROXY", "*")
    monkeypatch.setenv("no_proxy", "*")
    server = _Endpoint(("127.0.0.1", 0), _Handler)
    server.steps, server.received, server.release = [], [], threading.Event()
    server.base_url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    yield server
    server.release.set()
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


class TestStdlibTransport:
    """The default transport over loopback HTTP, without injection."""

    def client(self, endpoint, **kwargs):
        return HttpChatClient(base_url=endpoint.base_url, api_key="k", sleep=lambda s: None,
                              **kwargs)

    def test_json_reply(self, endpoint):
        endpoint.steps = [reply(200, ok_body("the answer"))]
        client = self.client(endpoint)
        assert client.complete(req("hi")) == "the answer"
        (headers, payload), = endpoint.received
        assert headers["Authorization"] == "Bearer k"
        assert payload["messages"][1] == {"role": "user", "content": "hi"}
        assert client.stats.prompt_tokens == 10

    def test_reply_that_is_not_json(self, endpoint):
        endpoint.steps = [reply(200, b"<html>busy</html>")] * 2
        url = endpoint.base_url + "/v1/chat/completions"
        assert _urllib_transport(url, {}, {}, 5.0) == (200, {"raw": "<html>busy</html>"})
        with pytest.raises(TransportError, match="malformed response body") as err:
            self.client(endpoint).complete(req())
        assert err.value.status == 200

    def test_rate_limit_body_is_returned_then_retried(self, endpoint):
        endpoint.steps = [reply(429, {"error": "slow down"}), reply(200, ok_body("ok"))]
        delays = []
        client = HttpChatClient(base_url=endpoint.base_url, api_key="k", sleep=delays.append,
                                retry_policy=RetryPolicy(base_delay=0.5))
        assert client.complete(req()) == "ok"
        assert len(endpoint.received) == 2
        assert delays == [0.5]
        assert client.stats.attempts == 2

    def test_error_status_returns_its_body(self, endpoint):
        endpoint.steps = [reply(503, {"error": "overloaded"})]
        url = endpoint.base_url + "/v1/chat/completions"
        assert _urllib_transport(url, {}, {}, 5.0) == (503, {"error": "overloaded"})

    def test_auth_failure(self, endpoint):
        endpoint.steps = [reply(401, {"error": "bad key"})]
        with pytest.raises(ConfigurationError):
            self.client(endpoint).complete(req())
        assert len(endpoint.received) == 1

    @pytest.mark.parametrize("step", [
        hang_up,
        stall,
        reply(200, ok_body(), length=len(json.dumps(ok_body())) + 10),
    ], ids=["closed-connection", "read-timeout", "short-body"])
    def test_failures_end_in_transport_error(self, endpoint, step):
        endpoint.steps = [step] * 2
        client = self.client(endpoint, retry_policy=RetryPolicy(max_attempts=2), timeout=0.2)
        with pytest.raises(TransportError, match="request failed"):
            client.complete(req())
        assert len(endpoint.received) == 2
        assert client.stats.calls == 0

    def test_url_without_scheme(self):
        with pytest.raises(TransportError, match="request failed"):
            _urllib_transport("127.0.0.1/v1/chat/completions", {}, {}, 5.0)


class TestScriptedClient:
    def test_keyed_reply(self):
        client = ScriptedChatClient({("M5", "A.java"): "keyed", ("M5", None): "tag-default"})
        assert client.complete(req(record_id="A.java")) == "keyed"
        assert client.complete(req(record_id="B.java")) == "tag-default"

    def test_default_scripts_by_tag(self):
        client = ScriptedChatClient()
        assert "Final Prediction" in client.complete(req(tag="judge"))
        assert "prediction" in client.complete(req(tag="M0"))

    def test_list_scripts_consumed_in_order(self):
        client = ScriptedChatClient({("judge", None): ["first", "second"]})
        assert client.complete(req(tag="judge")) == "first"
        assert client.complete(req(tag="judge")) == "second"
        assert client.complete(req(tag="judge")) == "second"

    def test_one_script_serves_two_clients_alike(self):
        script = {("judge", None): ["first", "second"]}
        for client in (ScriptedChatClient(script), ScriptedChatClient(script)):
            replies = [client.complete(req(tag="judge")) for _ in range(3)]
            assert replies == ["first", "second", "second"]
        assert script == {("judge", None): ["first", "second"]}

    def test_no_network_surface(self):
        client = ScriptedChatClient()
        client.complete(req())
        assert not hasattr(client, "transport")
        assert client.stats.calls == 1


class TestParsing:
    def test_json_shape(self):
        raw = '{"explanation": "off-by-one in loop", "prediction": "Defective"}'
        parsed = parse_prediction(raw, "json_shape")
        assert parsed.label == 1
        assert parsed.parse_path == "json"
        assert parsed.explanation == "off-by-one in loop"

    def test_json_case_insensitive_and_fenced(self):
        raw = 'Sure!\n```json\n{"explanation": "e", "prediction": "benign"}\n```'
        parsed = parse_prediction(raw, "json_shape")
        assert parsed.label == 0
        assert parsed.parse_path == "json"

    def test_judge_markers(self):
        parsed = parse_prediction("### Final Prediction: BENIGN\n### Confidence: 90",
                                  "judge_markers")
        assert parsed.label == 0
        assert parsed.confidence == pytest.approx(0.90)
        assert parsed.parse_path == "marker"

    def test_confidence_fraction_kept(self):
        parsed = parse_prediction("### Final Prediction: DEFECTIVE\n### Confidence: 0.75",
                                  "judge_markers")
        assert parsed.confidence == pytest.approx(0.75)

    def test_missing_confidence_keeps_label(self):
        parsed = parse_prediction("### Final Prediction: DEFECTIVE", "judge_markers")
        assert parsed.label == 1
        assert parsed.confidence is None

    def test_fallback_takes_last_mention(self):
        parsed = parse_prediction("I believe the file is Benign overall.", "json_shape")
        assert parsed.label == 0
        assert parsed.parse_path == "regex_fallback"
        parsed = parse_prediction(
            "It might look Benign at first, but it is clearly Defective.", "json_shape")
        assert parsed.label == 1

    def test_json_wins_over_contradictory_free_text(self):
        raw = ('The code is definitely Defective in spirit, however:\n'
               '{"explanation": "fixed", "prediction": "Benign"}\n'
               'so Defective it is? No.')
        parsed = parse_prediction(raw, "json_shape")
        assert parsed.label == 0
        assert parsed.parse_path == "json"

    def test_markers_win_for_judge_expectation(self):
        raw = '{"prediction": "Benign"}\n### Final Prediction: DEFECTIVE\n### Confidence: 60'
        parsed = parse_prediction(raw, "judge_markers")
        assert parsed.label == 1
        assert parsed.parse_path == "marker"

    def test_total_on_garbage(self):
        parsed = parse_prediction("unrelated text with no verdict", "json_shape")
        assert parsed.parse_path == "failed"
        assert parsed.label is None

    def test_totality_over_many_shapes(self):
        shapes = ["", "{}", "{broken json", "### Final Prediction:", "DEFECT",
                  "benign defective benign", '{"prediction": "maybe"}', "42",
                  "### Confidence: 90", "[" * 100_000, "{" * 1000 + "}" * 1000,
                  "### Final Prediction:" + " " * 1000 + "**"]
        for raw in shapes:
            for expect in ("json_shape", "judge_markers"):
                parsed = parse_prediction(raw, expect)
                assert parsed.parse_path in ("json", "marker", "regex_fallback", "failed")

    def test_adversarial_replies_parse_in_linear_time(self):
        # each reply took seconds with a quadratic brace scan or regex backtracking
        replies = ["{" * 4000 + "}" * 4000,
                   "### Final Prediction:" + " " * 10_000,
                   "### Final Prediction: BENIGN\n### Confidence:" + " " * 10_000]
        started = time.perf_counter()
        paths = [parse_prediction(raw, "judge_markers").parse_path for raw in replies]
        assert time.perf_counter() - started < 1.0
        assert paths == ["failed", "failed", "marker"]

    def test_failed_prediction_cannot_carry_label(self):
        with pytest.raises(ValueError):
            ParsedPrediction(label=1, parse_path="failed")
