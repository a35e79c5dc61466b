"""Supervised dispatch for the multi-core backend.

The :class:`Supervisor` replaces ``ProcessSession``'s original
crash-and-abandon dispatch (send everything, then one blocking
``conn.poll(worker_timeout)`` per lane) with an event loop that

* multiplexes all worker pipes through
  :func:`multiprocessing.connection.wait`,
* watches each worker's shared-memory **heartbeat words** (a daemon
  thread in the worker bumps BEAT every ``heartbeat_interval``; a busy
  worker whose beat freezes for ``heartbeat_timeout`` is revoked),
* **respawns** dead workers (bounded by ``max_restarts`` per session,
  with exponential backoff) and re-runs only their in-flight work
  (bounded by ``retry_budget`` re-dispatches per task); a replacement
  starts with no program loaded and loads lazily, like any worker, and
* walks the **degradation ladder** when budgets run out: respawn →
  reassign to a surviving worker (pool shrink) → simulated fallback,
  each rung emitting structured ``MC-*`` diagnostics and
  ``runtime.mc_*`` metrics.

Retry soundness (DESIGN.md §14):

* A **DOALL chunk** writes only privatized copies, so re-running it is
  idempotent *by construction* — provided the chunk's writes really
  are privatized.  The static verdict comes from
  :func:`repro.runtime.multicore.audit_retry_safety`; the dynamic
  guard is the worker's STATUS word (the *write fence*): a worker that
  died at ``PHASE_BOUND`` never touched program memory and is always
  retryable, one that died at ``PHASE_BODY`` is retryable only when
  the audit passed.
* A **DOACROSS strip** streams: each iteration is committed by one
  pipe write before the lease words (ITER/DIRTY) advance.  Pipe
  buffers survive the writer, so the supervisor drains a dead stage's
  committed iterations post-mortem and restarts the replacement from
  the exact boundary (``resume_from``).  A death observed with DIRTY
  set and no newer committed iteration means serialized shared writes
  may be half-applied — the one case that degrades.
* Dropped sync-token posts ride along in each committed iteration's
  message; the supervisor **re-issues** them into the sync slots
  (``MC-TOKEN-REISSUE``) so a dead stage's successors unblock instead
  of spin-timing out.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional, Tuple

from multiprocessing.connection import wait as _conn_wait

from .multicore import (
    HB_BEAT, HB_DIRTY, HB_ITER, HB_STATUS, MC_DEGRADE, MC_RESTART,
    MC_RETRY, MC_SHRINK, MC_TOKEN_REISSUE, PHASE_BOUND,
    WorkerCrash, _SLOT,
)

__all__ = ["Supervisor"]


class _Lane:
    """One task's dispatch state (lane index == reply index)."""

    __slots__ = ("index", "spec", "wid", "dispatches", "done", "final",
                 "iters", "lines", "deltas", "tail", "total_sink",
                 "wall", "extras", "dispatch_t", "is_retry")

    def __init__(self, index: int, spec: dict):
        self.index = index
        self.spec = spec
        self.wid: Optional[int] = None
        self.dispatches = 0
        self.done = False
        self.final: Optional[tuple] = None
        # doacross accumulation (survives worker deaths)
        self.iters: List[Tuple[int, list, int]] = []
        self.lines: List[str] = []
        self.deltas: List[tuple] = []
        self.tail: Optional[tuple] = None
        self.total_sink: Optional[tuple] = None
        self.wall: Tuple[int, int] = (0, 0)
        self.extras: dict = {}
        self.dispatch_t = 0.0
        self.is_retry = False

    @property
    def tid(self) -> int:
        return self.spec["tid"]


class Supervisor:
    """Runs one batch of tasks (one loop execution) to completion."""

    def __init__(self, session, kind: str, specs: List[dict], shipment,
                 retry_safe: bool = False):
        self.session = session
        self.kind = kind
        #: the program every task of the batch runs
        self.shipment = shipment
        self.doall = kind == "doall"
        self.retry_safe = retry_safe
        self.lanes = [_Lane(i, spec) for i, spec in enumerate(specs)]
        self.by_tid: Dict[int, _Lane] = {
            lane.tid: lane for lane in self.lanes}
        #: wid -> lanes currently queued/in-flight on that worker
        self.pending: Dict[int, List[_Lane]] = {}
        #: wid -> (last observed beat value, wall time it changed)
        self.beats: Dict[int, Tuple[int, float]] = {}
        #: the liveness check's period, and the time it last ran
        self.poll = max(0.002, min(0.05, session.heartbeat_timeout / 5.0))
        self.checked = time.monotonic()
        #: wid -> wall time of the last message received
        self.last_msg: Dict[int, float] = {}
        self.metrics = session.tracer.metrics

    # -- top level --------------------------------------------------------
    def run(self) -> List[tuple]:
        session = self.session
        self._sweep_dead("died idle between loops")
        live = session.live_wids()
        if not live:
            self._degrade("no live workers and restart budget exhausted")
        for wid in live:
            # workers are idle between batches: clear last batch's
            # STATUS/lease words so an autopsy never reads stale state
            session._hb_zero(wid)
        for i, lane in enumerate(self.lanes):
            self._send(lane, live[i % len(live)])
        while not all(lane.done for lane in self.lanes):
            self._drain_ready(self.poll)
            self._check_workers()
        session.lane_wids = [lane.wid if lane.wid is not None else 0
                             for lane in self.lanes]
        return [self._reply(lane) for lane in self.lanes]

    # -- dispatch ---------------------------------------------------------
    def _send(self, lane: _Lane, wid: int) -> None:
        session = self.session
        spec = lane.spec
        if not lane.is_retry:
            # chaos is planned once, at a task's first dispatch: the
            # injected failure must not chase its own retry forever
            directives: dict = {}
            for inj in session.chaos:
                plan = inj.plan(self.kind, session.task_seq, wid, lane,
                                spec)
                if plan:
                    directives.update(plan)
            session.task_seq += 1
            if directives:
                spec = dict(spec)
                kill_now = directives.pop("kill_at_dispatch", False)
                if directives:
                    spec["chaos"] = directives
                lane.spec = spec
                if kill_now:
                    # boundary kill: down before the task even lands,
                    # so the retry re-runs it whole from iteration 0
                    self._kill_worker(wid)
        elif lane.iters and not self.doall:
            spec = dict(spec, resume_from=len(lane.iters))
            spec.pop("chaos", None)
            lane.spec = spec
        elif lane.is_retry:
            spec = dict(spec)
            spec.pop("chaos", None)
            lane.spec = spec
        lane.wid = wid
        lane.dispatches += 1
        lane.dispatch_t = time.monotonic()
        self.pending.setdefault(wid, []).append(lane)
        conn = session._conns[wid]
        # the one dispatch site: first dispatches, retries and
        # reassignments alike attach the program when ``wid`` lacks it
        load = session.load_for(wid, self.shipment)
        try:
            conn.send((self.kind, spec, load))
        except (OSError, BrokenPipeError):
            pass  # the liveness check picks the death up next tick

    def _kill_worker(self, wid: int) -> None:
        proc = self.session._procs[wid]
        if proc is not None and proc.pid is not None:
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    # -- reply draining ---------------------------------------------------
    def _drain_ready(self, poll: float) -> None:
        session = self.session
        conns = {id(session._conns[wid]): wid
                 for wid in self.pending
                 if self.pending[wid] and session._conns[wid] is not None}
        if not conns:
            time.sleep(poll)
            return
        ready = _conn_wait([session._conns[wid]
                            for wid in conns.values()], timeout=poll)
        for conn in ready:
            self._drain_conn(conns[id(conn)], conn)

    def _drain_conn(self, wid: int, conn) -> None:
        while True:
            try:
                if not conn.poll(0):
                    return
                msg = conn.recv()
            except (EOFError, OSError, BrokenPipeError):
                return  # the liveness check handles the corpse
            self.last_msg[wid] = time.monotonic()
            self._handle(wid, msg)

    def _handle(self, wid: int, msg: tuple) -> None:
        lane = self.by_tid.get(msg[1])
        if lane is None:
            return
        if msg[0] == "it":
            _it, _tid, k, segments, lines, delta, dropped = msg
            lane.iters.append((k, segments, len(lines)))
            lane.lines.extend(lines)
            lane.deltas.append(tuple(delta))
            if dropped:
                self._reissue_tokens(lane, dropped)
            return
        # final replies
        if msg[0] == "ok":
            if self.doall:
                lane.final = msg[:6]
                extras = msg[6] if len(msg) > 6 else {}
            else:
                _ok, _tid, wall, tail, total, extras = msg
                lane.wall = wall
                lane.tail = tuple(tail)
                lane.total_sink = tuple(total)
            backoffs = extras.get("backoffs", 0) if extras else 0
            if backoffs:
                self.metrics.inc("runtime.mc_spin_backoffs", backoffs)
            if extras:
                # native-tier dispatch accounting: the smoke gates
                # assert zero fallbacks on the kernel suite, so a chunk
                # that ran the Python loop is never silent
                if extras.get("native"):
                    self.metrics.inc("runtime.native_chunks")
                nl = extras.get("nl")
                if nl:
                    self.metrics.inc("runtime.native_fallbacks")
                    self._note(
                        "NL-FALLBACK",
                        f"task {lane.tid} ran on the Python chunk loop "
                        f"instead of the native entry point ({nl})")
            lane.extras = extras or {}
        else:
            # strip the routing tid: controllers expect the legacy
            # ("err", code, msg) shape
            lane.final = ("err", msg[2], msg[3])
        lane.done = True
        pending = self.pending.get(wid)
        if pending and lane in pending:
            pending.remove(lane)

    def _reissue_tokens(self, lane: _Lane,
                        dropped: List[Tuple[int, int]]) -> None:
        """Repair sync tokens a (chaos-dropped or dead-stage) post never
        wrote.  ``max(cur, k + 1)`` is race-free: the only other writer
        of this slot is iteration k+1's owner, which is by definition
        still spinning on the very token being repaired."""
        session = self.session
        data = session.memory.data
        for origin, k in dropped:
            addr = session._origin_slots.get(origin)
            if addr is None:
                continue
            cur = _SLOT.unpack_from(data, addr)[0]
            if cur < k + 1:
                _SLOT.pack_into(data, addr, k + 1)
            self.metrics.inc("runtime.mc_token_reissues")
            self._note(MC_TOKEN_REISSUE,
                       f"re-issued sync token (origin {origin}, "
                       f"iteration {k}) for stage {lane.tid}")

    # -- liveness ---------------------------------------------------------
    def _check_workers(self) -> None:
        session = self.session
        now = time.monotonic()
        # a beat is judged only over time this loop watched it: when the
        # loop itself ran late (the machine paused the parent, and most
        # likely the workers with it, or a respawn's fork took long)
        # every beat's clock moves forward by the time lost, so a worker
        # gets to beat again before its silence counts
        lost = now - self.checked - self.poll
        self.checked = now
        if lost > 0:
            self.beats = {wid: (beat, since + lost)
                          for wid, (beat, since) in self.beats.items()}
        for wid in list(self.pending):
            lanes = self.pending[wid]
            if not lanes:
                continue
            proc = session._procs[wid]
            if proc is None or not proc.is_alive():
                self._revoke(wid, "worker process died")
                continue
            beat = session.hb_read(wid, HB_BEAT)
            seen, since = self.beats.get(wid, (None, now))
            if beat != seen:
                self.beats[wid] = (beat, now)
            elif now - since > session.heartbeat_timeout:
                self._revoke(wid, "heartbeat stalled")
                continue
            busy_since = min(lane.dispatch_t for lane in lanes)
            quiet = now - max(busy_since, self.last_msg.get(wid, 0.0))
            if quiet > session.worker_timeout:
                self._revoke(wid, "reply timeout")

    def _sweep_dead(self, reason: str) -> None:
        """Respawn workers found dead *between* loop executions (they
        have no in-flight work, so this is pure pool repair)."""
        session = self.session
        for wid in session.live_wids():
            proc = session._procs[wid]
            if proc.is_alive():
                continue
            if session.restarts_used >= session.max_restarts:
                session.retire_worker(wid)
                continue
            self._respawn(wid, proc.exitcode, reason)

    # -- the ladder -------------------------------------------------------
    def _revoke(self, wid: int, reason: str) -> None:
        """A worker lost its lease: kill it, autopsy the heartbeat
        words + drainable pipe, then retry / shrink / degrade."""
        session = self.session
        proc = session._procs[wid]
        conn = session._conns[wid]
        self._kill_worker(wid)
        if proc is not None:
            proc.join(timeout=2.0)
        exitcode = proc.exitcode if proc is not None else None
        if conn is not None:
            self._drain_conn(wid, conn)  # committed iterations survive
            try:
                conn.close()
            except Exception:
                pass
        status = session.hb_read(wid, HB_STATUS)
        in_flight_tid = (status >> 3) - 1
        phase = status & 7
        it_done = session.hb_read(wid, HB_ITER)
        dirty = session.hb_read(wid, HB_DIRTY)
        lanes = self.pending.pop(wid, [])
        session._procs[wid] = None
        session._conns[wid] = None
        self.beats.pop(wid, None)
        crash = (f"worker {wid} died mid-task "
                 f"(exitcode={exitcode}, {reason})")
        retry: List[_Lane] = []
        for lane in lanes:
            if lane.done:
                continue
            verdict = self._autopsy(lane, in_flight_tid, phase, it_done,
                                    dirty)
            if verdict is not None:
                self._degrade(f"{crash}; {verdict}")
            if lane.dispatches >= 1 + session.retry_budget:
                self._degrade(
                    f"{crash}; retry budget exhausted for task "
                    f"{lane.tid} ({lane.dispatches} dispatches)")
            lane.is_retry = True
            retry.append(lane)
        if session.restarts_used < session.max_restarts:
            self._respawn(wid, exitcode, reason)
            target = wid
        else:
            target = self._shrink_target(wid, crash)
        for lane in retry:
            self.metrics.inc("runtime.mc_retry")
            self._note(MC_RETRY,
                       f"re-dispatching task {lane.tid} of worker {wid} "
                       f"to worker {target} (attempt "
                       f"{lane.dispatches + 1})")
            t0 = time.perf_counter_ns()
            session.worker_samples.append(
                (target, "mc-retry", t0, t0,
                 {"tid": lane.tid, "attempt": lane.dispatches + 1,
                  "reason": reason}))
            self._send(lane, target)

    def _autopsy(self, lane: _Lane, in_flight_tid: int, phase: int,
                 it_done: int, dirty: int) -> Optional[str]:
        """None = retryable; otherwise the reason this death is not."""
        if lane.tid != in_flight_tid or phase <= PHASE_BOUND:
            # queued behind the fatal task, or died before its write
            # fence opened: program memory untouched by this lane
            return None
        if self.doall:
            if self.retry_safe:
                return None
            return (f"task {lane.tid} died past its write fence and "
                    f"the loop is not retry-safe")
        # doacross lease: committed iterations were drained from the
        # pipe; the lease words say whether the tail is clean
        drained = len(lane.iters)
        if not dirty or drained == it_done + 1:
            return None
        if drained == it_done:
            return (f"stage {lane.tid} died mid-iteration "
                    f"{drained} (serialized writes may be torn)")
        return (f"stage {lane.tid} lease words inconsistent "
                f"(drained={drained}, iter={it_done})")

    def _respawn(self, wid: int, exitcode, reason: str) -> None:
        session = self.session
        delay = 0.01 * (2 ** session.restarts_used)
        time.sleep(min(delay, 0.25))
        t0 = time.perf_counter_ns()
        session.respawn_worker(wid)
        t1 = time.perf_counter_ns()
        self.metrics.inc("runtime.mc_restart")
        self._note(MC_RESTART,
                   f"worker {wid} (exitcode={exitcode}, {reason}) "
                   f"respawned ({session.restarts_used}/"
                   f"{session.max_restarts} "
                   f"restarts used)")
        session.worker_samples.append(
            (wid, "mc-respawn", t0, t1,
             {"exitcode": exitcode, "reason": reason,
              "restarts_used": session.restarts_used}))

    def _shrink_target(self, wid: int, crash: str) -> int:
        """Restart budget gone: fold the dead worker's lanes onto a
        survivor.  DOACROSS cannot shrink — stages deadlock when two
        share one FIFO worker — so it degrades instead."""
        session = self.session
        live = session.live_wids()
        if not live or not self.doall:
            why = "no live workers left" if not live else \
                "DOACROSS stages cannot share a worker"
            self._degrade(f"{crash}; restart budget exhausted and {why}")
        target = min(live, key=lambda w: len(self.pending.get(w, [])))
        self.metrics.inc("runtime.mc_degrade")
        self._warn(MC_SHRINK,
                   f"restart budget exhausted; pool shrank to "
                   f"{len(live)} worker(s), reassigning worker {wid}'s "
                   f"tasks to worker {target}")
        return target

    def _degrade(self, msg: str) -> None:
        self.metrics.inc("runtime.mc_degrade")
        self._warn(MC_DEGRADE,
                   f"process backend degraded to simulated controllers: "
                   f"{msg}")
        t0 = time.perf_counter_ns()
        self.session.worker_samples.append(
            (0, "mc-degrade", t0, t0, {"reason": msg}))
        self.session.degrade(msg)
        raise WorkerCrash(msg)

    # -- diagnostics ------------------------------------------------------
    def _note(self, code: str, msg: str) -> None:
        sink = self.session.sink
        if sink is not None:
            sink.note(code, msg, phase="runtime")

    def _warn(self, code: str, msg: str) -> None:
        sink = self.session.sink
        if sink is not None:
            sink.warning(code, msg, phase="runtime")

    # -- reply assembly ---------------------------------------------------
    def _reply(self, lane: _Lane) -> tuple:
        if lane.final is not None:       # doall ok, or any err
            return lane.final
        # doacross: reassemble the legacy reply shape.  A strip that
        # ran in one attempt uses the worker's own totals verbatim; a
        # resumed strip folds the per-iteration deltas (exact: modeled
        # costs are integer-valued) plus the final-cond tail
        if lane.extras.get("resumed"):
            sink4 = [0.0, 0.0, 0.0, 0.0]
            for delta in lane.deltas:
                for i in range(4):
                    sink4[i] += delta[i]
            if lane.tail is not None:
                for i in range(4):
                    sink4[i] += lane.tail[i]
            payload = tuple(sink4)
        else:
            payload = lane.total_sink or (0.0, 0.0, 0.0, 0.0)
        return ("ok", lane.tid, lane.lines, payload, lane.iters,
                lane.wall)
