import json
import logging
import sys
import threading
import time
from pathlib import Path

import pytest
from helpers import LoopbackServer, chat_reply, record_os_writes, refused_url

from promptgp.gateway import (
    EchoBackend,
    HttpBackend,
    LabelOracleBackend,
    LlmGateway,
    LlmRequest,
    RequestRejectedError,
    ResponseCache,
    ScriptedBackend,
    TransportError,
    TruncateBackend,
    paraphrase_call,
    request_digest,
    summarise_call,
)


def user_request(content, model="mock"):
    return LlmRequest(model=model, messages=(("user", content),))


class FlakyBackend:
    name = "flaky"

    def __init__(self, failures, reply="ok"):
        self.failures = failures
        self.reply = reply
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("transient")
        return self.reply


def test_request_digest_stable_and_sensitive():
    a = user_request("hello")
    assert request_digest(a) == request_digest(user_request("hello"))
    assert request_digest(a) != request_digest(user_request("hello!"))
    assert request_digest(a) != request_digest(user_request("hello", model="other"))
    warm = LlmRequest(model="mock", messages=(("user", "hello"),), temperature=0.7)
    assert request_digest(a) != request_digest(warm)


def test_cache_round_trip_file_format(tmp_path):
    path = str(tmp_path / "cache.tsv")
    cache = ResponseCache(path)
    cache.put("d1", "reply text\nwith newline")
    cache.put("d2", "unicode é")

    raw = Path(path).read_text(encoding="utf-8").splitlines()
    assert len(raw) == 2
    digest, _, blob = raw[0].partition("\t")
    assert digest == "d1"
    import base64

    assert base64.b64decode(blob).decode() == "reply text\nwith newline"

    reloaded = ResponseCache(path)
    assert reloaded.get("d1") == "reply text\nwith newline"
    assert reloaded.get("d2") == "unicode é"
    assert reloaded.get("missing") is None


@pytest.mark.parametrize(
    "blob_chars",
    [8, 7],  # torn at a 4-character base64 boundary, and anywhere else
)
def test_cache_drops_torn_last_line_and_appends_on_a_fresh_line(tmp_path, caplog, blob_chars):
    path = tmp_path / "cache.tsv"
    cache = ResponseCache(str(path))
    cache.put("d1", "first")
    cache.put("d2", "{'Answer': 'yes'} because the text says so")
    first_line = path.read_bytes().split(b"\n")[0] + b"\n"
    path.write_bytes(path.read_bytes()[: len(first_line) + len("d2\t") + blob_chars])

    with caplog.at_level(logging.WARNING, logger="promptgp.gateway"):
        reloaded = ResponseCache(str(path))
    assert [r.name for r in caplog.records] == ["promptgp.gateway"]
    assert reloaded.get("d1") == "first"
    assert reloaded.get("d2") is None
    assert path.read_bytes() == first_line

    reloaded.put("d3", "third")
    again = ResponseCache(str(path))
    assert (again.get("d1"), again.get("d3")) == ("first", "third")


def test_cache_put_appends_each_record_in_one_write_of_one_whole_line(tmp_path, monkeypatch):
    path = tmp_path / "cache.tsv"
    cache = ResponseCache(str(path))
    written = record_os_writes(monkeypatch)
    for i, text in enumerate(["first", "two\nlines", "unicode é " * 2000]):
        before = path.read_bytes() if path.exists() else b""
        cache.put(f"d{i}", text)
        line = path.read_bytes()[len(before) :]
        assert written == [line]
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        written.clear()
    cache.put("d0", "known digest")
    assert written == []


def test_caches_on_one_file_interleave_only_whole_lines(tmp_path):
    # More writers than cores, each with its own cache on the same file.
    path = str(tmp_path / "cache.tsv")
    writers = "abcd"
    texts = {f"{who}{i}": f"reply {who}{i} " * (i % 40 + 1) for who in writers for i in range(200)}

    def fill(cache, who):
        for i in range(200):
            cache.put(f"{who}{i}", texts[f"{who}{i}"])

    # Every cache loads the file before any writer starts.
    caches = [ResponseCache(path) for _ in writers]
    threads = [threading.Thread(target=fill, args=pair) for pair in zip(caches, writers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) == len(texts)
    assert all(line.endswith("\n") and line.count("\t") == 1 for line in lines)
    reloaded = ResponseCache(path)
    assert {digest: reloaded.get(digest) for digest in texts} == texts


def test_cache_malformed_complete_line_still_raises(tmp_path):
    path = tmp_path / "cache.tsv"
    path.write_text("d1\tabc\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ResponseCache(str(path))


def test_cache_put_is_append_only(tmp_path):
    path = str(tmp_path / "cache.tsv")
    cache = ResponseCache(path)
    cache.put("d1", "first")
    cache.put("d1", "second")
    assert cache.get("d1") == "first"
    assert len(Path(path).read_text(encoding="utf-8").splitlines()) == 1


def test_gateway_serves_second_request_from_cache():
    backend = FlakyBackend(failures=0, reply="answer")
    gw = LlmGateway(backend)
    first = gw.complete(user_request("q"))
    second = gw.complete(user_request("q"))
    assert first == second == "answer"
    assert backend.calls == 1
    assert gw.stats.requests == 2
    assert gw.stats.cache_hits == 1
    assert gw.stats.backend_calls == 1


def test_gateway_retries_with_exponential_backoff():
    delays = []
    backend = FlakyBackend(failures=2)
    gw = LlmGateway(backend, max_attempts=3, backoff_base=1.0, sleep=delays.append)
    assert gw.complete(user_request("q")) == "ok"
    assert backend.calls == 3
    assert delays == [1.0, 2.0]


def test_gateway_raises_after_final_attempt():
    delays = []
    backend = FlakyBackend(failures=99)
    gw = LlmGateway(backend, max_attempts=3, backoff_base=0.5, sleep=delays.append)
    with pytest.raises(TransportError):
        gw.complete(user_request("q"))
    assert backend.calls == 3
    assert delays == [0.5, 1.0]
    assert gw.stats.failures == 1


@pytest.fixture
def server():
    with LoopbackServer() as srv:
        yield srv


@pytest.fixture
def backend(server):
    backend = HttpBackend(server.url())
    yield backend
    backend.close()


def test_ask_posts_the_gateway_decoding_setting(server, backend):
    gw = LlmGateway(backend, temperature=0.5, max_new_tokens=64)
    assert gw.ask("ping", "small-model") == "pong"
    assert server.bodies == [
        {
            "model": "small-model",
            "messages": [{"role": "user", "content": "ping"}],
            "temperature": 0.5,
            "max_tokens": 64,
        }
    ]
    assert server.paths == ["/v1/chat/completions"]


def test_api_key_goes_out_as_a_bearer_token(server, backend):
    keyed = HttpBackend(server.url(), api_key="sk-test")
    try:
        assert keyed.send(user_request("ping")) == "pong"
    finally:
        keyed.close()
    assert backend.send(user_request("ping")) == "pong"
    assert server.authorizations == ["Bearer sk-test", None]


@pytest.mark.parametrize(
    "endpoint", ["ftp://localhost/v1", "localhost:8000/v1", "http:///v1", "http://host:port/v1"]
)
def test_endpoint_must_be_an_http_url_with_a_host(endpoint):
    with pytest.raises(ValueError):
        HttpBackend(endpoint)


@pytest.mark.parametrize("status", [400, 404])
def test_client_errors_are_not_retried(server, backend, status):
    delays = []
    server.respond = lambda: (status, {}, b"")
    gw = LlmGateway(backend, max_attempts=3, sleep=delays.append)
    with pytest.raises(RequestRejectedError):
        gw.ask("ping", "m")
    assert len(server.bodies) == 1
    assert delays == []
    assert (gw.stats.backend_calls, gw.stats.failures) == (1, 1)


@pytest.mark.parametrize("status", [408, 429, 500])
def test_timeouts_rate_limits_and_server_errors_are_retried(server, backend, status):
    delays = []
    server.respond = lambda: (status, {}, b"")
    gw = LlmGateway(backend, max_attempts=3, sleep=delays.append)
    with pytest.raises(TransportError) as info:
        gw.ask("ping", "m")
    assert not isinstance(info.value, RequestRejectedError)
    assert len(server.bodies) == 3
    assert delays == [1.0, 2.0]
    assert gw.stats.failures == 1


@pytest.mark.parametrize(
    "status, retry_after, delays",
    [
        (429, "5", [5.0, 5.0]),
        (503, "1.5", [1.5, 2.0]),
        (503, "0", [1.0, 2.0]),
        (429, "Wed, 21 Oct 2026 07:28:00 GMT", [1.0, 2.0]),
        (429, "nan", [1.0, 2.0]),
        (500, "5", [1.0, 2.0]),
        (429, "10000000000", [1.0, 2.0]),
        (503, "1e300", [1.0, 2.0]),
        (429, "9223372036", [1.0, 2.0]),  # threading.TIMEOUT_MAX on Linux
    ],
)
def test_numeric_retry_after_extends_the_backoff(server, backend, status, retry_after, delays):
    slept = []
    server.respond = lambda: (status, {"Retry-After": retry_after}, b"")
    gw = LlmGateway(backend, max_attempts=3, sleep=slept.append)
    with pytest.raises(TransportError):
        gw.ask("ping", "m")
    assert len(server.bodies) == 3
    assert slept == delays


def test_redirect_is_rejected_not_followed(server, backend):
    delays = []
    server.respond = lambda: (302, {"Location": server.url("/elsewhere")}, b"")
    gw = LlmGateway(backend, max_attempts=3, sleep=delays.append)
    with pytest.raises(RequestRejectedError, match="302"):
        gw.ask("ping", "m")
    assert server.paths == ["/v1/chat/completions"]
    assert delays == []


@pytest.mark.parametrize(
    "body",
    [
        b"not json",
        b'{"id": "chat-1"}',
        b'{"choices": []}',
        b"\xff\xfe",
        b'{"choices": [{"message": {"role": "assistant", "content": null}}]}',
        b'{"choices": [{"message": {"role": "assistant", "content": [{"type": "text", "text": "hi"}]}}]}',
    ],
    ids=["not-json", "no-choices", "empty-choices", "not-utf8", "null-content", "list-content"],
)
def test_unusable_reply_body_is_a_retried_transport_error(server, backend, body):
    delays = []
    server.respond = lambda: (200, {}, body)
    gw = LlmGateway(backend, max_attempts=3, sleep=delays.append)
    with pytest.raises(TransportError) as info:
        gw.ask("ping", "m")
    assert not isinstance(info.value, RequestRejectedError)
    assert len(server.bodies) == 3
    assert delays == [1.0, 2.0]


def test_refused_connection_is_a_retried_transport_error():
    delays = []
    backend = HttpBackend(refused_url())
    gw = LlmGateway(backend, max_attempts=3, sleep=delays.append)
    with pytest.raises(TransportError) as info:
        gw.ask("ping", "m")
    assert not isinstance(info.value, RequestRejectedError)
    assert (gw.stats.backend_calls, delays) == (3, [1.0, 2.0])
    backend.close()


def test_garbled_reply_and_timeout_are_transport_errors(server):
    server.respond = lambda: b"garbage\r\n\r\n"
    backend = HttpBackend(server.url(), timeout=0.2)
    try:
        with pytest.raises(TransportError, match="BadStatusLine"):
            backend.send(user_request("ping"))
        server.respond = lambda: time.sleep(0.6) or chat_reply()
        with pytest.raises(TransportError, match="timed out"):
            backend.send(user_request("ping"))
    finally:
        backend.close()


def test_connection_the_server_dropped_is_reopened_not_retried(server, backend):
    delays = []
    server.hang_up = True  # each connection is closed after its reply, unannounced
    gw = LlmGateway(backend, max_attempts=3, sleep=delays.append)
    assert gw.ask("first", "m") == "pong"
    assert server.wait_all_closed()
    assert gw.ask("second", "m") == "pong"
    assert (gw.stats.backend_calls, delays) == (2, [])
    assert server.opened == 2


def test_sends_reuse_one_kept_alive_connection(server, backend):
    for i in range(5):
        assert backend.send(user_request(f"q{i}")) == "pong"
    assert (server.opened, len(server.bodies)) == (1, 5)


def test_concurrent_senders_open_at_most_one_connection_each(server, backend):
    errors = []

    def worker(i):
        try:
            for j in range(10):
                assert backend.send(user_request(f"q{i}.{j}")) == "pong"
        except BaseException as exc:  # reported through `errors`
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(server.bodies) == 80
    assert 1 <= server.opened <= 8
    backend.close()
    assert server.wait_all_closed()  # no connection was lost from the idle stack


def test_close_closes_every_connection(server, backend):
    assert backend.send(user_request("ping")) == "pong"
    assert server.open == 1
    backend.close()
    assert server.wait_all_closed()
    assert backend.send(user_request("again")) == "pong"  # reopens after close
    assert server.opened == 2


def _waiting_on_event(thread):
    """True once `thread` is blocked in a `threading` wait."""
    frame = sys._current_frames().get(thread.ident)
    return (
        frame is not None
        and frame.f_code.co_name == "wait"
        and frame.f_code.co_filename == threading.__file__
    )


class HoldingBackend:
    """Holds its first call until a second identical request has either
    reached the backend or is waiting on the first one."""

    name = "holding"

    def __init__(self):
        self.calls = 0
        self.second = None  # the thread of the second request
        self._lock = threading.Lock()

    def send(self, req):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if self.calls > 1 or (self.second is not None and _waiting_on_event(self.second)):
                    break
                time.sleep(0.001)
        return "reply"


def test_identical_requests_in_flight_share_one_backend_call():
    backend = HoldingBackend()
    gw = LlmGateway(backend)
    replies = []
    first = threading.Thread(target=lambda: replies.append(gw.ask("same", "m")))
    first.start()
    while backend.calls == 0:
        time.sleep(0.001)
    second = threading.Thread(target=lambda: replies.append(gw.ask("same", "m")))
    backend.second = second
    second.start()
    first.join(15)
    second.join(15)
    assert not first.is_alive() and not second.is_alive()
    assert replies == ["reply", "reply"]
    assert backend.calls == 1
    assert (gw.stats.requests, gw.stats.cache_hits, gw.stats.backend_calls) == (2, 1, 1)


def test_waiting_request_retries_when_the_call_it_waited_for_fails():
    class FailOnceBackend(HoldingBackend):
        def send(self, req):
            reply = super().send(req)
            if threading.current_thread() is not self.second:
                raise TransportError("down")
            return reply

    backend = FailOnceBackend()
    gw = LlmGateway(backend, max_attempts=1)
    outcomes = []

    def ask():
        try:
            outcomes.append(gw.ask("same", "m"))
        except TransportError:
            outcomes.append("failed")

    first = threading.Thread(target=ask)
    first.start()
    while backend.calls == 0:
        time.sleep(0.001)
    second = threading.Thread(target=ask)
    backend.second = second
    second.start()
    first.join(15)
    second.join(15)
    assert not first.is_alive() and not second.is_alive()
    assert sorted(outcomes) == ["failed", "reply"]
    assert backend.calls == 2
    assert (gw.stats.backend_calls, gw.stats.failures) == (2, 1)


def test_requests_with_different_digests_do_not_wait_on_each_other():
    release = threading.Event()

    class BlockOnSlow:
        name = "block"

        def send(self, req):
            if req.last_user_content() == "slow":
                release.wait(10)
            return req.last_user_content()

    gw = LlmGateway(BlockOnSlow())
    slow = threading.Thread(target=gw.ask, args=("slow", "m"))
    slow.start()
    try:
        assert gw.ask("fast", "m") == "fast"  # returns while "slow" is held
    finally:
        release.set()
        slow.join(15)
    assert not slow.is_alive()


def test_concurrent_identical_requests_reach_the_backend_once_each():
    class CountingBackend:
        name = "counting"

        def __init__(self):
            self.calls = {}
            self._lock = threading.Lock()

        def send(self, req):
            time.sleep(0.001)
            with self._lock:
                content = req.last_user_content()
                self.calls[content] = self.calls.get(content, 0) + 1
            return content

    backend = CountingBackend()
    gw = LlmGateway(backend)
    contents = [f"q{i}" for i in range(5)]
    errors = []

    def worker():
        try:
            for _ in range(20):
                for content in contents:
                    assert gw.ask(content, "m") == content
        except BaseException as exc:  # reported through `errors`
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert backend.calls == {content: 1 for content in contents}
    stats = gw.stats
    assert stats.requests == 8 * 20 * len(contents)
    assert stats.requests == stats.cache_hits + stats.backend_calls


def test_echo_backend_returns_last_user_message():
    req = LlmRequest(model="mock", messages=(("system", "s"), ("user", "payload")))
    assert EchoBackend().send(req) == "payload"


def test_scripted_backend_table_default_and_error():
    backend = ScriptedBackend({"ping": "pong"}, default="fallback")
    assert backend.send(user_request("ping")) == "pong"
    assert backend.send(user_request("other")) == "fallback"
    strict = ScriptedBackend({"ping": "pong"})
    with pytest.raises(TransportError):
        strict.send(user_request("other"))


def test_label_oracle_longest_key_wins():
    backend = LabelOracleBackend({"case": "short", "case extended": "long"})
    assert backend.send(user_request("prompt with case extended inside")) == "{'Answer': 'long'}"
    assert backend.send(user_request("prompt with case inside")) == "{'Answer': 'short'}"
    assert backend.send(user_request("nothing known")) == "UNKNOWN CASE"


def test_label_oracle_custom_answer_fn():
    backend = LabelOracleBackend({"k": "yes"}, answer_fn=lambda label, prompt: f"-> {label}")
    assert backend.send(user_request("k")) == "-> yes"


def test_paraphrase_call_prompt_shape_and_echo_fails_cleanly():
    seen = []

    class Spy:
        name = "spy"

        def send(self, req):
            seen.append(req.last_user_content())
            return EchoBackend().send(req)

    gw = LlmGateway(Spy())
    text = "Classify the sentiment of the text."
    # The echoed instruction contains only the filler example, which must not
    # be mistaken for an answer: the call reports a format failure and the
    # edit layer treats that as an identity edit.
    from promptgp.gateway import ReplyFormatError

    with pytest.raises(ReplyFormatError):
        paraphrase_call(gw, text)
    prompt = seen[0]
    assert "Paraphrase the following text while maintaining as much of the original meaning as possible." in prompt
    assert '{"answer": "your paraphased text"}' in prompt
    assert "The original text: \n```\n" + text + "\n```" in prompt


def test_summarise_call_ratio_rendering_and_truncate_backend():
    seen = []

    class Spy:
        name = "spy"

        def send(self, req):
            seen.append(req.last_user_content())
            return TruncateBackend().send(req)

    gw = LlmGateway(Spy())
    text = "one two three four five six seven eight nine ten"
    out = summarise_call(gw, text, 0.5)
    assert "approximately 50% of the length" in seen[0]
    assert "The original_text: \n```\n" + text + "\n```" in seen[0]
    assert out == "one two three four five"


def test_truncate_backend_paraphrase_echoes_fenced_text():
    gw = LlmGateway(TruncateBackend())
    assert paraphrase_call(gw, "keep this text intact") == "keep this text intact"


def test_truncate_backend_plain_request_echoes():
    req = user_request("no fence here")
    assert TruncateBackend().send(req) == "no fence here"


def test_truncate_summarise_reply_is_json():
    req = user_request(
        "Reduce the text length of this text by slightly rephrasing and give the "
        'final answer in JSON format as follows: {"answer": "your shortened text"}. '
        "The length of your output should be approximately 40% of the length of the "
        "original text.\n\nThe original_text: \n```\nalpha beta gamma delta epsilon\n```"
    )
    reply = TruncateBackend().send(req)
    assert json.loads(reply) == {"answer": "alpha beta"}
