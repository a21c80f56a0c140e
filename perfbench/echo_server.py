"""Loopback OpenAI-style chat server for the ``recognition-http`` workload.

The server binds 127.0.0.1 on an ephemeral port inside the benchmark
process.  It answers each recognition request with the segment's gold
inline text, perturbed deterministically so that scores stay away from
a trivial 1.0 and the hyphen-sequence fallback of the program's output
parser is exercised.

The program's HTTP backend drops the request ``tag`` before POSTing, so
the perturbation is keyed by a digest of what arrives on the wire: the
user message, i.e. the segment's clean text.  Every draw for a segment
therefore gets the same reply, whatever order the workers send them in.
"""

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ECHO, SWAP, DROP, EXTRA, HYPHEN = range(5)


def reply_text(segment, alphabet):
    """The perturbed gold reply for one segment (ASCII brackets)."""
    key = int.from_bytes(hashlib.sha256(segment.clean_text.encode()).digest()[:8],
                         "big")
    variant = key % 5
    at = (key >> 8) % len(segment.symbols)
    shift = 1 + (key >> 16) % (len(alphabet) - 1)
    other = alphabet[(alphabet.index(segment.symbols[at]) + shift) % len(alphabet)]
    symbols = [[s] for s in segment.symbols]
    if variant == SWAP:
        symbols[at] = [other]
    elif variant == DROP:
        symbols[at] = []
    elif variant == EXTRA:
        symbols[at] = symbols[at] + [other]
    if variant == HYPHEN:
        return segment.clean_text + "\n" + "-".join(segment.symbols)
    return "".join(sentence + "".join(f"({s})" for s in marks) + "。"
                   for sentence, marks in zip(segment.sentences, symbols))


class EchoServer:
    """Serves one reply per known user message and counts its own work."""

    def __init__(self):
        self.replies = {}  # user message -> reply text
        self._lock = threading.Lock()
        self.requests = 0
        self.busy_s = 0.0
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                start = time.perf_counter()
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                reply = server.replies.get(body["messages"][1]["content"])
                if reply is None:
                    self.send_error(404, "unknown segment")
                else:
                    data = json.dumps({"choices": [{"message": {
                        "role": "assistant", "content": reply}}]},
                        ensure_ascii=False).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(data)))
                    self.end_headers()
                    self.wfile.write(data)
                elapsed = time.perf_counter() - start
                with server._lock:
                    server.requests += 1
                    server.busy_s += elapsed

            def log_message(self, format, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True)

    @property
    def url(self):
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def snapshot(self):
        with self._lock:
            return self.requests, self.busy_s

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)
