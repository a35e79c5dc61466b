"""Warm :class:`~repro.runtime.multicore.ProcessSession` reuse.

Forking and tearing down a worker pool per request dominates warm-path
latency for the process backend.  The pool keeps sessions — shared
segment + forked workers — alive across requests, keyed by (program
fingerprint, nthreads, workers): a warm hit costs one segment reset
instead of a fork storm.

Supervisor integration: the runner releases its session back here
after every run.  A session the supervisor degraded (worker crashes
exhausted the restart budget) or closed mid-run is *evicted* — closed
and dropped — never handed to another request; the next acquire forks
a fresh pool.  Idle sessions beyond ``max_sessions`` are evicted
oldest-first, and one key parks at most one session: a second session
released under the same key evicts the one already idle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from ..runtime.multicore import ProcessSession, _fingerprint_for
from .job import Job


class SessionPool:
    """A bounded pool of warm process-backend sessions."""

    def __init__(self, max_sessions: int = 4,
                 mc: Optional[dict] = None):
        self.max_sessions = max_sessions
        self.mc = dict(mc or {})
        self._idle: "OrderedDict[tuple, ProcessSession]" = OrderedDict()
        self._lock = threading.Lock()
        self.closed = False
        # counters for the daemon's ``stats`` op
        self.created = 0
        self.reuses = 0
        self.evicted = 0

    @staticmethod
    def _key(fingerprint: str, job: Job) -> tuple:
        # engine is part of the key: a native-tier session's workers
        # hold dlopen handles a bare session's workers lack
        return (fingerprint, job.nthreads,
                job.workers or job.nthreads,
                job.options.resolved_engine())

    # -- lifecycle ---------------------------------------------------------
    def acquire(self, tresult, job: Job,
                fingerprint: Optional[str] = None) -> ProcessSession:
        """A session for ``tresult`` sized per ``job`` — a reset warm
        one when available, freshly constructed otherwise.  The session
        comes back via :meth:`release` (the runner calls it)."""
        if fingerprint is None:
            fingerprint = _fingerprint_for(tresult.program)
        key = self._key(fingerprint, job)
        with self._lock:
            session = self._idle.pop(key, None)
        if session is not None:
            # the pooled program object may differ from tresult.program
            # (fresh compile of identical source); workers resolve loops
            # by nid from their fork-inherited AST, so only identical
            # object graphs may share a warm pool
            if session.program is not tresult.program:
                self._evict(session)
                session = None
        if session is not None:
            session.reset()
            session.reused = True
            self.reuses += 1
            return session
        session = ProcessSession(
            tresult.program, tresult.sema, job.nthreads,
            workers=job.workers, options=self.mc,
            engine=job.options.resolved_engine(),
            controlled=tresult.controlled_loops(),
        )
        session._pool_key = key
        session.pool = self
        session.reused = False
        self.created += 1
        return session

    def release(self, session: ProcessSession) -> None:
        """Take a session back after a run.  Degraded / closed sessions
        are evicted (supervisor verdicts are terminal); healthy ones
        park for the next acquire."""
        if session.closed or session.degraded or self.closed:
            self._evict(session)
            return
        key = getattr(session, "_pool_key", None)
        if key is None:
            self._evict(session)
            return
        with self._lock:
            # two concurrent clients of one program both come back under
            # the same key: the one already parked is displaced
            displaced = self._idle.pop(key, None)
            self._idle[key] = session
            if len(self._idle) > self.max_sessions:
                _, displaced = self._idle.popitem(last=False)
        if displaced is not None:
            self._evict(displaced)

    def _evict(self, session: ProcessSession) -> None:
        session.pool = None
        self.evicted += 1
        try:
            session.close()
        except Exception:
            pass

    def close(self) -> None:
        """Evict every idle session; later releases evict too."""
        with self._lock:
            self.closed = True
            idle = list(self._idle.values())
            self._idle.clear()
        for session in idle:
            self._evict(session)

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "idle": len(self._idle),
                "created": self.created,
                "reused": self.reuses,
                "evicted": self.evicted,
                "max_sessions": self.max_sessions,
            }
