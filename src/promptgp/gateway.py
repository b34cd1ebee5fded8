"""Chat-completion access with caching, retries, and offline mock backends.

One gateway serves both task evaluation and LLM-backed edit operations.
Requests are digested (model + messages + decoding parameters) and served
from an append-only response cache when possible, so interrupted runs
resume cheaply and offline runs are fully deterministic.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import os
import re
import select
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol
from urllib.parse import urlsplit

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
    """The backend gave no reply; `retry_after` is the wait in seconds the
    endpoint asked for, if it named one."""

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class RequestRejectedError(TransportError):
    """The endpoint refused the request itself (HTTP 4xx other than 408 and
    429); sending it again cannot succeed, so the gateway does not retry."""


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


class JsonEndpoint:
    """POSTs JSON to one http(s) URL over kept-alive connections.

    Idle connections wait on a stack: a sender takes one or opens one, and
    puts it back after a complete reply, so there are never more open
    connections than senders at once.  A connection that failed is closed,
    not put back.  Before an idle connection is reused, a zero-timeout
    `select` tells whether the server has closed it meanwhile (it is then
    readable); such a connection is reopened rather than sent on.  Proxy
    settings, `.netrc` and redirects play no part, and HTTPS is verified
    against the system's default CA store.
    """

    def __init__(self, url: str, timeout: float):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"endpoint {url!r} is not an http or https URL with a host")
        https = parts.scheme == "https"
        self._open = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._address = (parts.hostname, parts.port or (443 if https else 80))
        self._path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        self._timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def post(self, payload, headers: Optional[dict[str, str]] = None):
        """(response, body bytes) of one POST; raises `OSError` or
        `http.client.HTTPException` when no complete reply arrives."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._open(*self._address, timeout=self._timeout)
        try:
            if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
                conn.close()  # dropped by the server; `request` reconnects
            conn.request(
                "POST",
                self._path,
                body=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json", **(headers or {})},
            )
            response = conn.getresponse()
            body = response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.append(conn)
        return response, body

    def close(self) -> None:
        """Close every idle connection; call it when no POST is in flight."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _retry_after(headers) -> Optional[float]:
    """Seconds from a `Retry-After` header given as a number; None when the
    header is missing or an HTTP date."""
    try:
        seconds = float(headers.get("Retry-After", ""))
    except ValueError:
        return None
    return seconds if 0 <= seconds < math.inf else None


class HttpBackend:
    """POSTs the de-facto chat-completions JSON shape.

    Holds up to one kept-alive connection per concurrent sender, until
    `close`.  HTTP 4xx other than 408 and 429, and any 3xx (redirects are
    not followed), raise `RequestRejectedError`; 408, 429, 5xx, socket
    errors and malformed replies raise `TransportError`.
    """

    name = "http"

    def __init__(self, endpoint: str, api_key: Optional[str] = None, timeout: float = 120.0):
        self.endpoint = endpoint
        self.api_key = api_key
        self._http = JsonEndpoint(endpoint, timeout)

    def send(self, req: LlmRequest) -> str:
        headers = {"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}
        body = {
            "model": req.model,
            "messages": [{"role": r, "content": c} for r, c in req.messages],
            "temperature": req.temperature,
            "max_tokens": req.max_new_tokens,
        }
        try:
            response, data = self._http.post(body, headers)
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"chat endpoint failure: {exc!r}") from exc
        status = response.status
        if not 200 <= status < 300:
            failure = f"HTTP {status} {response.reason} from {self.endpoint}"
            if status < 500 and status not in (408, 429):
                raise RequestRejectedError(f"chat endpoint rejected the request: {failure}")
            retry_after = _retry_after(response.headers) if status in (429, 503) else None
            raise TransportError(f"chat endpoint failure: {failure}", retry_after)
        try:
            return json.loads(data)["choices"][0]["message"]["content"]
        except ValueError as exc:
            raise TransportError(f"chat endpoint failure: {exc}") from exc
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed chat response: {exc!r}") from exc

    def close(self) -> None:
        self._http.close()


@dataclass
class GatewayStats:
    requests: int = 0
    cache_hits: int = 0
    backend_calls: int = 0
    failures: int = 0


class LlmGateway:
    """Cache-first completion with bounded retries, safe to call from many
    threads; the callers' pool bounds the requests in flight.

    A request whose digest is already in flight waits for that call and is
    then served from the cache.  `temperature` and `max_new_tokens` are the
    one decoding setting that every request built by `ask` carries.
    """

    def __init__(
        self,
        backend: Backend,
        cache: Optional[ResponseCache] = None,
        max_attempts: int = 3,
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        temperature: float = DEFAULT_TEMPERATURE,
        max_new_tokens: int = DEFAULT_MAX_NEW_TOKENS,
    ):
        self.backend = backend
        self.cache = cache if cache is not None else ResponseCache()
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        self.temperature = temperature
        self.max_new_tokens = max_new_tokens
        self.stats = GatewayStats()
        # Guards `stats` and `_pending` (digest -> set when its call ends).
        self._lock = threading.Lock()
        self._pending: dict[str, threading.Event] = {}

    def close(self) -> None:
        """Close the backend's connections, if it holds any."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def complete(self, req: LlmRequest) -> str:
        digest = request_digest(req)
        with self._lock:
            self.stats.requests += 1
        while True:
            with self._lock:
                hit = self.cache.get(digest)
                if hit is not None:
                    self.stats.cache_hits += 1
                    return hit
                pending = self._pending.get(digest)
                if pending is None:
                    done = self._pending[digest] = threading.Event()
                    break
            pending.wait()  # then a hit, or a retry of our own if that call failed
        try:
            text = self._send(req)
            self.cache.put(digest, text)
        finally:
            with self._lock:
                del self._pending[digest]
            done.set()
        return text

    def _send(self, req: LlmRequest) -> str:
        """The backend's reply, retried with exponential backoff unless the
        endpoint rejected the request itself."""
        last_exc: Optional[GatewayError] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                with self._lock:
                    self.stats.backend_calls += 1
                return self.backend.send(req)
            except GatewayError as exc:
                last_exc = exc
                if isinstance(exc, RequestRejectedError):
                    break
                if attempt < self.max_attempts:
                    delay = self.backoff_base * (2 ** (attempt - 1))
                    if isinstance(exc, TransportError) and exc.retry_after is not None:
                        delay = max(delay, exc.retry_after)
                    log.warning("backend attempt %d failed (%s); retrying in %.1fs", attempt, exc, delay)
                    self._sleep(delay)
        with self._lock:
            self.stats.failures += 1
        if isinstance(last_exc, RequestRejectedError):
            raise last_exc
        raise TransportError(f"backend failed after {self.max_attempts} attempts: {last_exc}")

    def ask(self, content: str, model: str) -> str:
        """Reply text to one user message under the gateway's decoding setting."""
        req = LlmRequest(
            model=model,
            messages=(("user", content),),
            temperature=self.temperature,
            max_new_tokens=self.max_new_tokens,
        )
        return self.complete(req)


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
