"""Content-addressed stage cache: memory tier + durable disk tier.

Every pipeline stage artifact is keyed by a chained SHA-256 content
hash (see :mod:`repro.service.stages` for the key anatomy — each
stage's key folds in its predecessor's, the stage-specific inputs, and
``repro.__version__``).  The cache itself is key-agnostic: it stores
opaque pickled artifacts under ``<root>/<stage>/<k[:2]>/<k>.pkl``.

Concurrency: writers serialize on a per-entry lock file
(``O_CREAT|O_EXCL``, stale locks broken after a timeout) and publish
via write-to-temp + :func:`os.replace`, so readers never observe a
partial entry even when parallel ``serve`` jobs and plain CLI runs
share one cache directory.  A corrupted entry (truncated file, pickle
damage, version drift) is deleted and reported as a structured
``CACHE-CORRUPT`` diagnostic; the stage simply recompiles.

Deserialized artifacts carry the AST nids they were pickled with; the
loader reserves those ids on the process-global counter
(:func:`repro.frontend.ast.reserve_nids`) so stages resumed on a
cached artifact cannot mint colliding nodes.
"""

from __future__ import annotations

import errno
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from threading import Lock
from typing import Dict, Optional

from ..frontend import ast

#: sentinel distinguishing "no entry" from a cached None
MISS = object()

#: age after which a writer lock is presumed dead and broken (seconds)
LOCK_STALE_SECONDS = 10.0
_LOCK_POLL = 0.02


def default_cache_root() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


class _EntryLock:
    """A cross-process lock file guarding one cache entry's writer."""

    def __init__(self, path: str):
        self.path = path
        self._fd: Optional[int] = None

    def __enter__(self):
        deadline = time.monotonic() + LOCK_STALE_SECONDS + 1.0
        while True:
            try:
                self._fd = os.open(self.path,
                                   os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.write(self._fd, str(os.getpid()).encode())
                return self
            except FileExistsError:
                try:
                    age = time.time() - os.path.getmtime(self.path)
                except OSError:
                    continue  # holder released between open and stat
                if age > LOCK_STALE_SECONDS:
                    # holder died mid-write; break the lock and retry
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                    continue
                if time.monotonic() > deadline:
                    # never deadlock a request on a wedged lock: the
                    # writer gives up (the artifact is a pure cache)
                    self._fd = None
                    return self
                time.sleep(_LOCK_POLL)

    def __exit__(self, *exc):
        if self._fd is not None:
            os.close(self._fd)
            try:
                os.unlink(self.path)
            except OSError:
                pass


class StageCache:
    """Two-tier artifact store.

    * **memory tier** — an LRU of live artifacts (AST objects,
      compilers — including the closure-compiled ``lower`` stage that
      cannot be pickled).  This is what makes a resident daemon
      compile-once/serve-many.
    * **disk tier** — pickled artifacts under ``root`` shared across
      processes; survives daemon restarts and plain CLI runs.
      ``root=None`` disables it (memory-only cache).

    ``durable=False`` on :meth:`put` keeps an artifact memory-only
    (used for the ``lower`` stage, whose closures don't pickle).
    """

    def __init__(self, root: Optional[str] = None, sink=None,
                 max_memory_entries: int = 32):
        self.root = root
        self.sink = sink
        self.max_memory_entries = max_memory_entries
        self._mem: "OrderedDict[tuple, object]" = OrderedDict()
        #: memory-only entries (``durable=False``): evicted last, since
        #: durable entries can always be reloaded from disk
        self._volatile: set = set()
        self._lock = Lock()
        #: cumulative per-stage counters (daemon ``stats`` op)
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}

    # -- paths ------------------------------------------------------------
    def _entry_path(self, stage: str, key: str) -> str:
        return os.path.join(self.root, stage, key[:2], f"{key}.pkl")

    # -- core -------------------------------------------------------------
    def get(self, stage: str, key: str, memory_only: bool = False):
        """The artifact for (stage, key), or :data:`MISS`."""
        mem_key = (stage, key)
        with self._lock:
            if mem_key in self._mem:
                self._mem.move_to_end(mem_key)
                self.hits[stage] = self.hits.get(stage, 0) + 1
                return self._mem[mem_key]
        if not memory_only and self.root is not None:
            value = self._disk_get(stage, key)
            if value is not MISS:
                self._remember(mem_key, value)
                with self._lock:
                    self.hits[stage] = self.hits.get(stage, 0) + 1
                return value
        with self._lock:
            self.misses[stage] = self.misses.get(stage, 0) + 1
        return MISS

    def put(self, stage: str, key: str, value, durable: bool = True,
            nid_floor: int = 0) -> None:
        """Store an artifact.  ``nid_floor`` is the largest AST nid
        reachable from ``value`` (recorded so deserializing readers can
        reserve the id range)."""
        self._remember((stage, key), value, volatile=not durable)
        if durable and self.root is not None:
            self._disk_put(stage, key, value, nid_floor)

    def _remember(self, mem_key: tuple, value,
                  volatile: bool = False) -> None:
        with self._lock:
            self._mem[mem_key] = value
            self._mem.move_to_end(mem_key)
            if volatile:
                self._volatile.add(mem_key)
            else:
                self._volatile.discard(mem_key)
            while len(self._mem) > self.max_memory_entries:
                # LRU, but spare memory-only artifacts (e.g. the
                # ``lower`` stage's live compilers) while any
                # disk-reloadable entry remains
                victim = next(
                    (k for k in self._mem if k not in self._volatile),
                    None)
                if victim is None:
                    victim = next(iter(self._mem))
                del self._mem[victim]
                self._volatile.discard(victim)

    # -- disk tier --------------------------------------------------------
    def _disk_get(self, stage: str, key: str):
        from .. import __version__
        path = self._entry_path(stage, key)
        try:
            with open(path, "rb") as fh:
                envelope = pickle.load(fh)
            if (not isinstance(envelope, dict)
                    or envelope.get("version") != __version__):
                # keys fold the version in already; treat drift
                # (hand-copied entries) as a plain miss
                return MISS
            ast.reserve_nids(int(envelope.get("nid_floor", 0)))
            return envelope["payload"]
        except FileNotFoundError:
            return MISS
        except OSError as exc:
            if exc.errno in (errno.EACCES, errno.EPERM):
                return MISS
            self._quarantine_entry(stage, key, path, exc)
            return MISS
        except Exception as exc:
            self._quarantine_entry(stage, key, path, exc)
            return MISS

    def _quarantine_entry(self, stage, key, path, exc) -> None:
        """Delete a damaged entry and report it; the caller recompiles
        from the last good stage."""
        try:
            os.unlink(path)
        except OSError:
            pass
        if self.sink is not None:
            self.sink.warning(
                "CACHE-CORRUPT",
                f"cache entry {stage}/{key[:12]}… is corrupt "
                f"({type(exc).__name__}: {exc}); entry dropped, stage "
                "recompiled", phase="cache",
                data={"stage": stage, "key": key},
            )

    def _disk_put(self, stage: str, key: str, value,
                  nid_floor: int) -> None:
        from .. import __version__
        path = self._entry_path(stage, key)
        try:
            payload = pickle.dumps(
                {"version": __version__, "nid_floor": nid_floor,
                 "payload": value},
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except Exception:
            return  # unpicklable artifact: memory-tier only
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with _EntryLock(path + ".lock"):
                if os.path.exists(path):
                    return  # a concurrent writer got there first
                fd, tmp = tempfile.mkstemp(
                    dir=os.path.dirname(path), prefix=".tmp-",
                )
                try:
                    with os.fdopen(fd, "wb") as fh:
                        fh.write(payload)
                    os.replace(tmp, path)  # atomic publish
                except BaseException:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
        except OSError:
            pass  # read-only / full cache dir: stay memory-only

    # -- introspection ----------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "root": self.root,
                "memory_entries": len(self._mem),
                "hits": dict(self.hits),
                "misses": dict(self.misses),
            }
