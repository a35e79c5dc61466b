"""Warm :class:`~repro.runtime.multicore.ProcessSession` reuse.

Forking and tearing down a worker pool per request dominates warm-path
latency for the process backend.  The pool keeps sessions — shared
segment + forked workers — alive across requests, keyed by (nthreads,
workers) alone: a session holds no program (its workers load each one
on first sight), so a warm hit costs one segment reset whatever program
the request runs.

Supervisor integration: the runner releases its session back here
after every run.  A session the supervisor degraded (worker crashes
exhausted the restart budget) or closed mid-run is *evicted* — closed
and dropped — never handed to another request; the next acquire forks
a fresh pool.  Up to ``max_sessions`` idle sessions park in total,
several under one key (two concurrent clients each get their own and
both park again); past that the oldest idle session is evicted.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Tuple

from ..runtime.multicore import ProcessSession
from .job import Job


class SessionPool:
    """A bounded pool of warm process-backend sessions."""

    def __init__(self, max_sessions: int = 4,
                 mc: Optional[dict] = None):
        self.max_sessions = max_sessions
        self.mc = dict(mc or {})
        #: (key, session) pairs, oldest parked first
        self._idle: List[Tuple[tuple, ProcessSession]] = []
        self._lock = threading.Lock()
        self.closed = False
        # counters for the daemon's ``stats`` op
        self.created = 0
        self.reuses = 0
        self.evicted = 0
        #: worker first-sight program loads of released sessions
        self.program_loads = 0

    @staticmethod
    def _key(job: Job) -> tuple:
        return (job.nthreads, job.workers or job.nthreads)

    # -- lifecycle ---------------------------------------------------------
    def acquire(self, job: Job) -> ProcessSession:
        """A session sized per ``job`` — the most recently parked warm
        one under its key, reset, when there is one; freshly constructed
        otherwise.  The session comes back via :meth:`release` (the
        runner calls it)."""
        key = self._key(job)
        session = None
        with self._lock:
            for i in range(len(self._idle) - 1, -1, -1):
                if self._idle[i][0] == key:
                    session = self._idle.pop(i)[1]
                    break
        if session is not None:
            session.reset()
            session.reused = True
            self.reuses += 1
            return session
        session = ProcessSession(job.nthreads, workers=job.workers,
                                 options=self.mc)
        session._pool_key = key
        session.pool = self
        session.reused = False
        self.created += 1
        return session

    def release(self, session: ProcessSession) -> None:
        """Take a session back after a run.  Degraded / closed sessions
        are evicted (supervisor verdicts are terminal); healthy ones
        park for the next acquire, evicting the oldest idle session
        when ``max_sessions`` are already parked."""
        self.program_loads += session.program_loads
        session.program_loads = 0
        key = getattr(session, "_pool_key", None)
        if session.closed or session.degraded or self.closed \
                or key is None:
            self._evict(session)
            return
        displaced = None
        with self._lock:
            self._idle.append((key, session))
            if len(self._idle) > self.max_sessions:
                displaced = self._idle.pop(0)[1]
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
            idle = [session for _, session in self._idle]
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
                "program_loads": self.program_loads,
                "max_sessions": self.max_sessions,
            }
