"""Shared test fixtures that the package itself has no use for."""

import builtins
import io
import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from promptgp import SECTIONS
from promptgp.chunking import ViewIndex
from promptgp.exprlang import Atom, Call, Concat
from promptgp.grammar import Phenotype


def identity_phenotype() -> Phenotype:
    """Program set that reproduces the base template unchanged."""
    programs = {section: "BASE" for section in SECTIONS}
    programs["icl"] = "BASE+ICL_LIST"
    return Phenotype(programs)


# The AST path that local search once took to a neighbour: walk the parsed
# program to each index slot, replace its value, print the tree back.  A
# path is the child positions from the root (a Concat part, or 0 for a
# Call's texts), then the kwarg and the slot (0 = a, 1 = b of a slice).


def ast_index_slots(expr, path=()):
    """Yield (path, kwarg, slot, value) for every index value, pre-order."""
    if isinstance(expr, Concat):
        for i, part in enumerate(expr.parts):
            yield from ast_index_slots(part, path + (i,))
    elif isinstance(expr, Call):
        for key, value in expr.args:
            if isinstance(value, ViewIndex):
                yield path, key, 0, value.a
                if value.kind == "slice":
                    yield path, key, 1, value.b
        yield from ast_index_slots(expr.texts, path + (0,))


def replace_index_slot(expr, path, key, slot, new_value):
    """A copy of `expr` with the one index value at (path, key, slot) replaced."""
    if path:
        if isinstance(expr, Concat):
            parts = list(expr.parts)
            parts[path[0]] = replace_index_slot(parts[path[0]], path[1:], key, slot, new_value)
            return Concat(tuple(parts))
        return Call(expr.name, expr.args, replace_index_slot(expr.texts, path[1:], key, slot, new_value))
    args = []
    for k, v in expr.args:
        if k == key:
            v = ViewIndex(v.kind, new_value, v.b) if slot == 0 else ViewIndex(v.kind, v.a, new_value)
        args.append((k, v))
    return Call(expr.name, tuple(args), expr.texts)


def assert_shares_off_path(edited, expr, path, key):
    """Every node of `edited` off (path, key), which `replace_index_slot`
    takes, is `expr`'s own node, and every node on it is a new one."""
    assert edited is not expr
    if path:
        if isinstance(expr, Concat):
            for i, (new, old) in enumerate(zip(edited.parts, expr.parts)):
                if i == path[0]:
                    assert_shares_off_path(new, old, path[1:], key)
                else:
                    assert new is old
            return
        assert_shares_off_path(edited.texts, expr.texts, path[1:], key)
    else:
        assert edited.texts is expr.texts
    for (k, new), (_, old) in zip(edited.args, expr.args):
        assert (new is not old) if (k == key and not path) else (new is old)


def render_program(expr):
    """Canonical program text: the grammar's own spelling of `expr`."""
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Concat):
        return "+".join(render_program(p) for p in expr.parts)

    def value(v):
        if isinstance(v, ViewIndex):
            return f"[{v.a}]" if v.kind == "atomic" else f"[{v.a},{v.b}]"
        return f"{v:g}" if isinstance(v, float) else str(v)

    inner = ", ".join(f"{k}={value(v)}" for k, v in expr.args)
    return f"{expr.name}({inner}, texts={render_program(expr.texts)})"


def record_os_writes(monkeypatch):
    """Spy on `os.write`: the returned list gets the bytes of each call."""
    written = []
    write = os.write

    def spy(fd, data):
        written.append(bytes(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", spy)
    return written


class _TornWriter:
    """A real write handle whose first write lands half its text and then
    raises, as a full disk or a kill part-way through would."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        self._fh.flush()
        raise OSError(28, "No space left on device")

    def writelines(self, lines):
        self.write("".join(lines))

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def fail_writes_to(monkeypatch, name):
    """Make every write-mode open of a file called `name`, or of its `.tmp`
    sibling, tear part-way; other opens are untouched."""
    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        torn = isinstance(file, (str, os.PathLike)) and os.path.basename(file) in (name, name + ".tmp")
        return _TornWriter(fh) if torn and any(c in mode for c in "wax+") else fh

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)  # what `Path.open` calls


def refused_url(path="/v1/chat/completions"):
    """A loopback URL whose port has no listener."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}{path}"


def chat_reply():
    """(status, headers, body) of a chat-completions reply "pong"."""
    return 200, {}, json.dumps({"choices": [{"message": {"content": "pong"}}]}).encode()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # a connection the client leaves open ends this thread after 10 s

    def do_POST(self):
        owner = self.server.owner
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        with owner.lock:
            owner.bodies.append(json.loads(raw))
            owner.paths.append(self.path)
            owner.authorizations.append(self.headers.get("Authorization"))
        reply = owner.respond()
        if isinstance(reply, bytes):  # raw bytes in place of an HTTP reply
            self.wfile.write(reply)
            self.close_connection = True
            return
        status, headers, body = reply
        lines = [f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}"]
        lines += [f"{key}: {value}" for key, value in {**headers, "Content-Length": len(body)}.items()]
        # One write: headers and body sent apart stall ~40 ms on Nagle plus delayed ACK.
        self.wfile.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        self.close_connection = owner.hang_up

    def log_message(self, format, *args):
        pass


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins every connection thread

    def process_request(self, request, client_address):
        self.owner._count(+1)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)  # closes the socket
        self.owner._count(-1)


class LoopbackServer:
    """A JSON endpoint on 127.0.0.1, served by threads of its own.

    `respond()` gives each POST's (status, headers, body), or raw bytes to
    send in place of an HTTP reply; by default a chat reply "pong".
    `bodies`, `paths` and `authorizations` record every POST in arrival
    order.  `opened` counts the connections accepted and `open` those not
    yet closed.  With `hang_up`, the server closes each connection after
    its reply without saying so, as a server closes an idle keep-alive
    connection once its idle timeout passes.
    """

    def __init__(self, respond=chat_reply, hang_up=False):
        self.respond = respond
        self.hang_up = hang_up
        self.bodies, self.paths, self.authorizations = [], [], []
        self.opened = self.open = 0
        self.lock = threading.Lock()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.owner = self
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})
        self._thread.start()

    def url(self, path="/v1/chat/completions"):
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _count(self, step):
        with self.lock:
            self.open += step
            self.opened += step > 0

    def wait_all_closed(self, timeout=2.0):
        """True once every connection accepted so far has been closed."""
        deadline = time.monotonic() + timeout
        while self.open and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.open == 0

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(15)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
