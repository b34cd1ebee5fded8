import json
import logging

import pytest

from promptgp.gateway import (
    EchoBackend,
    HttpBackend,
    LabelOracleBackend,
    LlmGateway,
    LlmRequest,
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

    raw = open(path, encoding="utf-8").read().splitlines()
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
    assert len(open(path, encoding="utf-8").read().splitlines()) == 1


def test_gateway_serves_second_request_from_cache():
    backend = FlakyBackend(failures=0, reply="answer")
    gw = LlmGateway(backend)
    first = gw.complete(user_request("q"))
    second = gw.complete(user_request("q"))
    assert first.text == second.text == "answer"
    assert not first.cache_hit and second.cache_hit
    assert backend.calls == 1
    assert gw.stats.requests == 2
    assert gw.stats.cache_hits == 1
    assert gw.stats.backend_calls == 1


def test_gateway_retries_with_exponential_backoff():
    delays = []
    backend = FlakyBackend(failures=2)
    gw = LlmGateway(backend, max_attempts=3, backoff_base=1.0, sleep=delays.append)
    resp = gw.complete(user_request("q"))
    assert resp.text == "ok"
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


class StubSession:
    """Records POST bodies and answers with one chat-completions reply."""

    def __init__(self):
        self.bodies = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.bodies.append(json)
        return self

    def raise_for_status(self):
        pass

    def json(self):
        return {"choices": [{"message": {"content": "pong"}}]}


def test_ask_posts_the_gateway_decoding_setting():
    stub = StubSession()
    backend = HttpBackend("http://localhost:9/v1/chat/completions", session=stub)
    gw = LlmGateway(backend, temperature=0.5, max_new_tokens=64)
    assert gw.ask("ping", "small-model") == "pong"
    assert stub.bodies == [
        {
            "model": "small-model",
            "messages": [{"role": "user", "content": "ping"}],
            "temperature": 0.5,
            "max_tokens": 64,
        }
    ]


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
