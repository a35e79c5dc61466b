"""``repro serve`` — the resident expansion service.

A Unix-domain-socket daemon speaking line-delimited JSON: one request
object per line, one response object per line.  Because the process is
resident, the stage cache's memory tier (including the unpicklable
``lower`` artifacts) and the warm session pool persist across
requests — compile once, serve many.

Protocol::

    → {"op": "ping"}
    ← {"ok": true, "result": {"version": "1.9.0", "pid": 1234}}

    → {"op": "run", "job": {"source": "...", "loop_labels": ["L"],
                             "nthreads": 4, "options": {"strict": true}}}
    ← {"ok": true, "result": {"output": "...", "verified": true,
                               "cache": {"parse": "hit", ...},
                               "session_reused": false, ...}}

    → {"op": "stats"}
    ← {"ok": true, "result": {"requests": 2, "cache": {...},
                               "pool": {...}}}

    → {"op": "shutdown"}
    ← {"ok": true, "result": {"stopping": true}}

Failures come back structured, never as a dropped connection::

    ← {"ok": false, "error": {"code": "RT-RACE", "message": "...",
                               "diagnostics": [...]}}

Concurrency: one handler thread per connection; identical concurrent
jobs coalesce on a per-key in-flight lock so a cold compile runs once
while the other request waits for the (then cached) artifacts.
"""

from __future__ import annotations

import contextlib
import json
import os
import socket
import socketserver
import threading
from typing import Optional

from ..diagnostics import DiagnosableError, DiagnosticSink
from ..obs import Tracer
from .cache import StageCache, default_cache_root
from .job import Job
from .pool import SessionPool
from .runner import run_job
from .stages import StagedCompiler, stage_keys


def _error_payload(code: str, message: str, diagnostics=()) -> dict:
    return {"ok": False, "error": {
        "code": code, "message": message,
        "diagnostics": [
            {"code": d.code, "severity": d.severity,
             "message": d.message, "loop": d.loop, "phase": d.phase}
            for d in diagnostics
        ],
    }}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        service: "ExpansionService" = self.server.service
        for raw in self.rfile:
            line = raw.strip()
            if not line:
                continue
            response = service.handle_line(line.decode("utf-8",
                                                       "replace"))
            self.wfile.write(
                (json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if response.get("result", {}).get("stopping"):
                break


class _Server(socketserver.ThreadingMixIn,
              socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


class ExpansionService:
    """The resident daemon: staged compiler + stage cache + session
    pool behind a Unix socket.

    ``cache_root=None`` uses :func:`default_cache_root`; pass
    ``cache_root=False`` to disable the disk tier (memory-only)."""

    def __init__(self, socket_path: str,
                 cache_root=None, max_sessions: int = 4,
                 mc: Optional[dict] = None):
        self.socket_path = socket_path
        if cache_root is None:
            cache_root = default_cache_root()
        elif cache_root is False:
            cache_root = None
        self.cache = StageCache(root=cache_root)
        self.pool = SessionPool(max_sessions=max_sessions, mc=mc)
        self.requests = 0
        self.errors = 0
        self._counter_lock = threading.Lock()
        #: lower key -> [lock, requests holding or waiting for it]
        self._inflight: dict = {}
        self._inflight_lock = threading.Lock()
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        """Bind the socket and serve on a background thread (the
        embeddable form; :meth:`serve_forever` is the CLI form)."""
        self._bind()
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="repro-serve",
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self._bind()
        try:
            self._server.serve_forever()
        finally:
            self.close()

    def _bind(self) -> None:
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        self._server = _Server(self.socket_path, _Handler)
        self._server.service = self

    def shutdown(self) -> None:
        if self._server is not None:
            self._server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.close()

    def close(self) -> None:
        self.pool.close()
        if self._server is not None:
            self._server.server_close()
            self._server = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass

    # -- request handling --------------------------------------------------
    def handle_line(self, line: str) -> dict:
        try:
            payload = json.loads(line)
        except ValueError as exc:
            return _error_payload("SRV-PROTO",
                                  f"request is not valid JSON: {exc}")
        if not isinstance(payload, dict) or "op" not in payload:
            return _error_payload(
                "SRV-PROTO", 'request must be an object with an "op"')
        op = payload["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return _error_payload("SRV-PROTO", f"unknown op {op!r}")
        with self._counter_lock:
            self.requests += 1
        try:
            return {"ok": True, "result": handler(payload)}
        except DiagnosableError as exc:
            with self._counter_lock:
                self.errors += 1
            diag = exc.diagnostic
            return _error_payload(diag.code, diag.message, [diag])
        except (ValueError, TypeError, KeyError) as exc:
            with self._counter_lock:
                self.errors += 1
            message = str(exc) if not isinstance(exc, KeyError) \
                else str(exc.args[0]) if exc.args else "KeyError"
            return _error_payload("SRV-BADREQ", message)
        except Exception as exc:  # never drop the connection
            with self._counter_lock:
                self.errors += 1
            return _error_payload(
                "SRV-INTERNAL", f"{type(exc).__name__}: {exc}")

    @contextlib.contextmanager
    def _compiling(self, key: str):
        """Hold the in-flight lock of ``key``; its table entry lives
        only while some request holds or waits for it."""
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is None:
                entry = self._inflight[key] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._inflight_lock:
                entry[1] -= 1
                if not entry[1]:
                    del self._inflight[key]

    # -- ops ---------------------------------------------------------------
    def _op_ping(self, payload: dict) -> dict:
        from .. import __version__
        return {"version": __version__, "pid": os.getpid()}

    def _op_run(self, payload: dict) -> dict:
        if "job" not in payload:
            raise ValueError('the "run" op needs a "job" object')
        job = Job.from_dict(payload["job"])
        sink = DiagnosticSink()
        tracer = Tracer()
        # coalesce identical concurrent compiles: the second request
        # blocks here, then hits the freshly published artifacts
        keys = stage_keys(job)
        with self._compiling(keys["lower"]):
            compiled = StagedCompiler(
                cache=self.cache, tracer=tracer, sink=sink,
            ).compile(job, keys)
        outcome = run_job(compiled, tracer=tracer, sink=sink,
                          pool=self.pool)
        return outcome.to_dict()

    def _op_stats(self, payload: dict) -> dict:
        from .. import __version__
        with self._counter_lock:
            requests, errors = self.requests, self.errors
        return {
            "version": __version__,
            "pid": os.getpid(),
            "requests": requests,
            "errors": errors,
            "cache": self.cache.stats(),
            "pool": self.pool.stats(),
        }

    def _op_shutdown(self, payload: dict) -> dict:
        # shutdown() joins the serve loop — hand it to a helper thread
        # so this handler can still write its acknowledgement
        threading.Thread(target=self.shutdown, daemon=True).start()
        return {"stopping": True}


def request(socket_path: str, payload: dict,
            timeout: float = 120.0) -> dict:
    """One-shot client: send ``payload``, return the decoded response."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect(socket_path)
        sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
            if data.endswith(b"\n"):
                break
    if not chunks:
        raise ConnectionError("serve daemon closed the connection "
                              "without a response")
    return json.loads(b"".join(chunks).decode("utf-8"))
