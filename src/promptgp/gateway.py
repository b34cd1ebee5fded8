"""Chat-completion access with caching, retries, and offline mock backends.

One gateway serves both task evaluation and LLM-backed edit operations.
Requests are digested (model + messages + decoding parameters) and served
from an append-only response cache when possible, so interrupted runs
resume cheaply and offline runs are fully deterministic.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

import requests

from .textparse import extract_key

log = logging.getLogger(__name__)

DEFAULT_TEMPERATURE = 0.0
DEFAULT_MAX_NEW_TOKENS = 2048

PARAPHRASE_TEMPLATE = (
    "Paraphrase the following text while maintaining as much of the original "
    'meaning as possible. Give the paraphrased answer in JSON format as follows: '
    '{"answer": "your paraphased text"}. \n'
    "\n"
    "The original text: \n"
    "```\n"
    "{input_text}\n"
    "```"
)

SUMMARISE_TEMPLATE = (
    "Reduce the text length of this text by slightly rephrasing and give the "
    'final answer in JSON format as follows: {"answer": "your shortened text"}. '
    "The length of your output should be approximately {ratio}% of the length "
    "of the original text.\n"
    "\n"
    "The original_text: \n"
    "```\n"
    "{input_text}\n"
    "```"
)


class GatewayError(RuntimeError):
    pass


class TransportError(GatewayError):
    pass


class ReplyFormatError(GatewayError):
    pass


@dataclass(frozen=True)
class LlmRequest:
    model: str
    messages: tuple[tuple[str, str], ...]  # (role, content) pairs
    temperature: float = DEFAULT_TEMPERATURE
    max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS

    def last_user_content(self) -> str:
        for role, content in reversed(self.messages):
            if role == "user":
                return content
        return ""


def request_digest(req: LlmRequest) -> str:
    payload = {
        "model": req.model,
        "messages": [[r, c] for r, c in req.messages],
        "temperature": req.temperature,
        "max_new_tokens": req.max_new_tokens,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclass
class LlmResponse:
    text: str
    cache_hit: bool = False
    latency: float = 0.0
    prompt_tokens: Optional[int] = None
    completion_tokens: Optional[int] = None


class ResponseCache:
    """digest -> response text; optionally persisted as digest<TAB>base64 lines.

    A line is complete only when it ends in a newline.  A last line without
    one was torn by a killed append: loading drops it and truncates the file
    to its last newline, so the next append starts on a fresh line.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._lock = threading.Lock()
        self._mem: dict[str, str] = {}
        if path is not None:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return
            end = data.rfind(b"\n") + 1
            if end < len(data):
                log.warning("%s: dropped a torn last line of %d bytes", path, len(data) - end)
                os.truncate(path, end)
            for line in data[:end].decode("utf-8").splitlines():
                if not line:
                    continue
                digest, _, blob = line.partition("\t")
                self._mem[digest] = base64.b64decode(blob).decode("utf-8")

    def __len__(self) -> int:
        return len(self._mem)

    def get(self, digest: str) -> Optional[str]:
        with self._lock:
            return self._mem.get(digest)

    def put(self, digest: str, text: str) -> None:
        with self._lock:
            if digest in self._mem:
                return
            self._mem[digest] = text
            if self.path is not None:
                blob = base64.b64encode(text.encode("utf-8")).decode("ascii")
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(f"{digest}\t{blob}\n")


class Backend(Protocol):
    name: str

    def send(self, req: LlmRequest) -> str: ...


class EchoBackend:
    """Returns the last user message unchanged."""

    name = "echo"

    def send(self, req: LlmRequest) -> str:
        return req.last_user_content()


_SUMMARISE_RE = re.compile(r"approximately (\d+)% of the length")
_FENCE_RE = re.compile(r"```\n(.*)\n```", re.DOTALL)


class TruncateBackend:
    """Summarise-aware mock: keeps the first ratio-share of the words.

    Paraphrase requests echo the fenced text; anything else echoes the
    message.  Replies use the JSON shape the edit templates ask for.
    """

    name = "truncate"

    def send(self, req: LlmRequest) -> str:
        content = req.last_user_content()
        fence = _FENCE_RE.search(content)
        if fence is None:
            return content
        inner = fence.group(1)
        ratio = _SUMMARISE_RE.search(content)
        if ratio is not None:
            words = inner.split()
            keep = max(1, int(round(len(words) * int(ratio.group(1)) / 100)))
            inner = " ".join(words[:keep])
        return json.dumps({"answer": inner})


class ScriptedBackend:
    """Exact request-content -> reply table."""

    name = "scripted"

    def __init__(self, table: dict[str, str], default: Optional[str] = None):
        self.table = dict(table)
        self.default = default

    def send(self, req: LlmRequest) -> str:
        content = req.last_user_content()
        if content in self.table:
            return self.table[content]
        if self.default is not None:
            return self.default
        raise TransportError("scripted backend has no reply for this request")


class LabelOracleBackend:
    """Answers task prompts from a hidden truth table.

    The longest truth-table key found inside the prompt selects the case;
    `answer_fn(label, prompt)` formats the reply (default: the dict shape
    the shipped templates ask for).  Unmatched prompts get an unparseable
    reply, which scores zero downstream.
    """

    name = "label_oracle"

    def __init__(
        self,
        truth: dict[str, str],
        answer_key: str = "Answer",
        answer_fn: Optional[Callable[[str, str], str]] = None,
    ):
        self.truth = dict(truth)
        self.answer_key = answer_key
        self.answer_fn = answer_fn
        self._keys = sorted(self.truth, key=len, reverse=True)

    def send(self, req: LlmRequest) -> str:
        content = req.last_user_content()
        for key in self._keys:
            if key in content:
                label = self.truth[key]
                if self.answer_fn is not None:
                    return self.answer_fn(label, content)
                return "{'%s': '%s'}" % (self.answer_key, label)
        return "UNKNOWN CASE"


class HttpBackend:
    """POSTs the de-facto chat-completions JSON shape."""

    name = "http"

    def __init__(
        self,
        endpoint: str,
        api_key: Optional[str] = None,
        timeout: float = 120.0,
        session: Optional[requests.Session] = None,
    ):
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.session = session or requests.Session()

    def send(self, req: LlmRequest) -> str:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        body = {
            "model": req.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_new_tokens,
        }
        try:
            resp = self.session.post(self.endpoint, json=body, headers=headers, timeout=self.timeout)
            resp.raise_for_status()
            payload = resp.json()
            return payload["choices"][0]["message"]["content"]
        except (requests.RequestException, ValueError) as exc:
            raise TransportError(f"chat endpoint failure: {exc}") from exc
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat response: {exc}") from exc


@dataclass
class GatewayStats:
    requests: int = 0
    cache_hits: int = 0
    backend_calls: int = 0
    failures: int = 0


class LlmGateway:
    """Cache-first completion with bounded retries and bounded concurrency.

    `temperature` and `max_new_tokens` are the one decoding setting that
    every request built by `ask` carries.
    """

    def __init__(
        self,
        backend: Backend,
        cache: Optional[ResponseCache] = None,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
        max_inflight: int = 8,
        sleep: Callable[[float], None] = time.sleep,
        temperature: float = DEFAULT_TEMPERATURE,
        max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS,
    ):
        self.backend = backend
        self.cache = cache if cache is not None else ResponseCache()
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._inflight = threading.BoundedSemaphore(max_inflight)
        self._sleep = sleep
        self.temperature = temperature
        self.max_new_tokens = max_new_tokens
        self.stats = GatewayStats()
        self._stats_lock = threading.Lock()

    def complete(self, req: LlmRequest) -> LlmResponse:
        digest = request_digest(req)
        with self._stats_lock:
            self.stats.requests += 1
        hit = self.cache.get(digest)
        if hit is not None:
            with self._stats_lock:
                self.stats.cache_hits += 1
            return LlmResponse(text=hit, cache_hit=True)
        started = time.monotonic()
        last_exc: Optional[Exception] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._inflight:
                    with self._stats_lock:
                        self.stats.backend_calls += 1
                    text = self.backend.send(req)
                break
            except GatewayError as exc:
                last_exc = exc
                if attempt < self.max_attempts:
                    delay = self.backoff_base * (2 ** (attempt - 1))
                    log.warning("backend attempt %d failed (%s); retrying in %.1fs", attempt, exc, delay)
                    self._sleep(delay)
        else:
            with self._stats_lock:
                self.stats.failures += 1
            raise TransportError(f"backend failed after {self.max_attempts} attempts: {last_exc}")
        self.cache.put(digest, text)
        return LlmResponse(text=text, latency=time.monotonic() - started)

    def ask(self, content: str, model: str) -> str:
        """Reply text to one user message under the gateway's decoding setting."""
        req = LlmRequest(
            model=model,
            messages=(("user", content),),
            temperature=self.temperature,
            max_new_tokens=self.max_new_tokens,
        )
        return self.complete(req).text


def _fill(template: str, **slots: str) -> str:
    out = template
    for key, value in slots.items():
        out = out.replace("{%s}" % key, value)
    return out


# The templates show the required reply shape with these filler examples; a
# reply that merely repeats them (e.g. an echoed instruction) is not an
# answer, so they are stripped before extraction.
_TEMPLATE_FILLERS = (
    '{"answer": "your paraphased text"}',
    '{"answer": "your shortened text"}',
)


def _extract_answer(reply: str) -> Optional[str]:
    for filler in _TEMPLATE_FILLERS:
        reply = reply.replace(filler, "")
    return extract_key(reply, "answer")


def paraphrase_call(gw: LlmGateway, text: str, model: str = "mock") -> str:
    """Ask the gateway to paraphrase; returns the parsed answer text."""
    prompt = _fill(PARAPHRASE_TEMPLATE, input_text=text)
    answer = _extract_answer(gw.ask(prompt, model))
    if answer is None:
        raise ReplyFormatError("paraphrase reply carried no parseable answer")
    return answer


def summarise_call(gw: LlmGateway, text: str, ratio: float, model: str = "mock") -> str:
    """Ask the gateway to shorten text to roughly `ratio` of its length."""
    prompt = _fill(SUMMARISE_TEMPLATE, ratio=str(int(round(ratio * 100))), input_text=text)
    answer = _extract_answer(gw.ask(prompt, model))
    if answer is None:
        raise ReplyFormatError("summarise reply carried no parseable answer")
    return answer
