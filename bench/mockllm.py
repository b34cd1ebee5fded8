"""Synthetic flag task, the mock LLM that grades it, and a loopback chat stub.

The task is the one `tests/test_acceptance.py` grades: a case is answered
correctly only when the edit program removed enough junk words from the
template; otherwise it gets the other label.  Case ``i`` needs ``i % 3`` of the three junk words gone, so the
unedited template scores 0 and an evolved one scores above 0.

The grader reads the case from the bound task input alone (the first
``case N:`` not written by a demonstration), so ICL demonstrations never
change a score.  The seed picks the filler words and the labels, never the
case numbering, so every seed gives the same scores and the same gateway
counts while ICL retrieval still compares different texts.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

JUNK = ("kwyjibo", "flurble", "snorkelblat")
ANCHOR = "Respond"

TEMPLATE = """== PERSONA ==
You are a flag inspector kwyjibo of long standing, careful and calm.
== TASK ==
Decide whether the flag is up. Read the question and weigh each detail.
## [Question]
__TASK_INPUT_0__
== OUTPUT ==
Respond as {'Answer': 'value'} only flurble and nothing else.
== ICL ==
## [Examples]
== COT ==
Think snorkelblat briefly before answering, then check the answer once.
"""

# Junk words are stopwords (so remove_stopwords deletes them) and have
# synonyms (so synonimise replaces them).
JUNK_SYNONYMS = {"kwyjibo": "diligent", "flurble": "strictly", "snorkelblat": "quite"}

WORDS_PER_INPUT = 12
_SYLLABLES = ("ba", "de", "fi", "go", "hu", "ka", "le", "mo", "nu", "pi", "ro", "su", "ti", "vo", "za")
# Filler words avoid anything the grader or a demonstration keys on.
_FORBIDDEN = ("case", "input", "output", "answer", "respond", *JUNK)
VOCAB = tuple(
    w
    for w in (a + b + c for a in _SYLLABLES for b in _SYLLABLES for c in ("", "n", "r"))
    if not any(f in w for f in _FORBIDDEN)
)

_CASE_RE = re.compile(r"(?<!Input: )case (\d+):")
_ANSWER_RE = re.compile(r"'Answer': '([^']*)'")
_FENCE_RE = re.compile(r"```\n(.*)\n```", re.DOTALL)
_RATIO_RE = re.compile(r"approximately (\d+)% of the length")
_PLACEHOLDER_RE = re.compile(r"__[A-Za-z0-9]+(?:_[A-Za-z0-9]+)*__")


def make_rows(seed: int, n_train: int, n_val: int) -> tuple[list[dict], list[dict]]:
    """Train rows are cases 0..n_train-1, validation rows the next n_val."""
    rng = random.Random(seed)
    rows = [
        {
            "id": f"c{i}",
            "input": f"case {i}: " + " ".join(rng.sample(VOCAB, WORDS_PER_INPUT)) + "?",
            "label": rng.choice(("yes", "no")),
        }
        for i in range(n_train + n_val)
    ]
    return rows[:n_train], rows[n_train:]


class MockLlm:
    """Backend-protocol LLM: grades task prompts, edits paraphrase/summarise text."""

    name = "mock"

    def __init__(self, labels: list[str]):
        self.labels = labels  # case i -> label

    def send(self, req) -> str:
        return self.reply(req.last_user_content())

    def reply(self, content: str) -> str:
        fence = _FENCE_RE.search(content)
        if fence is not None and content.startswith("Paraphrase the following text"):
            words = fence.group(1).split()
            return json.dumps({"answer": " ".join(words[1:] + words[:1])})
        ratio = _RATIO_RE.search(content)
        if fence is not None and ratio is not None and content.startswith("Reduce the text length"):
            words = fence.group(1).split()
            keep = max(1, round(len(words) * int(ratio.group(1)) / 100))
            return json.dumps({"answer": " ".join(words[:keep])})
        return self.grade(content)

    def grade(self, prompt: str) -> str:
        if ANCHOR not in prompt:
            return "format anchor missing"
        match = _CASE_RE.search(prompt)
        if match is None or int(match.group(1)) >= len(self.labels):
            return "no case found"
        case = int(match.group(1))
        removed = sum(1 for junk in JUNK if junk not in prompt)
        label = self.labels[case]
        if case % len(JUNK) >= removed:
            label = "no" if label == "yes" else "yes"  # a wrong answer, not a missing one
        return "{'Answer': '%s'}" % label


def bind(prompt_text: str, row: dict) -> str:
    """The benchmark's own case binding: task input in, every other slot empty."""
    text = prompt_text.replace("__TASK_INPUT_0__", row["input"])
    return _PLACEHOLDER_RE.sub("", text)


def rescore(llm: MockLlm, prompt_text: str, rows: list[dict]) -> float:
    """Mean accuracy of a prompt, graded apart from promptgp's evaluation path."""
    correct = 0
    for row in rows:
        match = _ANSWER_RE.search(llm.grade(bind(prompt_text, row)))
        correct += match is not None and match.group(1) == row["label"]
    return correct / len(rows)


def index_values(program: str) -> list[int]:
    """Every digit of every view index in a program, e.g. [3] or [5,7]."""
    return [int(v) for a, b in re.findall(r"\[(\d+)(?:,(\d+))?\]", program) for v in (a, b) if v]


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        text = self.server.stub.answer(payload["messages"][-1]["content"])
        body = json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        # One write: headers and body sent apart stall ~40 ms on Nagle plus delayed ACK.
        self.wfile.write(head + body)

    def log_message(self, format, *args) -> None:
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every connection thread


class ChatStub:
    """Loopback chat-completions endpoint that answers from a MockLlm after a fixed delay."""

    def __init__(self, llm: MockLlm, delay_s: float):
        self.llm = llm
        self.delay_s = delay_s
        self.received = 0
        self._lock = threading.Lock()
        self._server = _Server(("127.0.0.1", 0), _ChatHandler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def answer(self, content: str) -> str:
        with self._lock:
            self.received += 1
        time.sleep(self.delay_s)
        return self.llm.reply(content)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
