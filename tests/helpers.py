"""Shared test fixtures that the package itself has no use for."""

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from promptgp import SECTIONS
from promptgp.grammar import Phenotype


def identity_phenotype() -> Phenotype:
    """Program set that reproduces the base template unchanged."""
    programs = {section: "BASE" for section in SECTIONS}
    programs["icl"] = "BASE+ICL_LIST"
    return Phenotype(programs)


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
