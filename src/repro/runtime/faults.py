"""Deterministic fault injection for the parallel runtime.

The robustness layer (permissive mode, watchdog, race recovery) is only
trustworthy if it is exercised against actual failures.  This module
provides seedable injectors that corrupt the runtime's own mechanisms —
the quantities the expansion transform's correctness *depends on* — so
the test suite can assert the contract:

    every injected fault is either **detected** (a structured
    diagnostic is recorded, strict mode raises) or **recovered** (the
    loop re-executes sequentially and program output is bit-identical
    to the untransformed baseline).

Injectors:

* :class:`SpanCorruptor` — garbles values stored into fat-pointer
  ``span`` fields, collapsing or skewing the per-thread copy stride.
  Privatized structures are reused by every iteration (that is why
  they were privatized), so a collapsed stride makes threads collide
  on the same bytes and the race checker fires.
* :class:`CopyIndexSkew` — perturbs reads of ``__tid`` inside parallel
  regions, redirecting a fraction of accesses into a neighbour
  thread's copy.
* :class:`SyncTokenDropper` — drops DOACROSS post/wait tokens in
  flight; the runtime cross-checks observed tokens against the
  producer-side ledger and repairs (permissive) or raises (strict).
* :class:`ThreadAborter` — kills one virtual thread mid-chunk with a
  :class:`ThreadAbortFault`, modeling an asynchronous thread death.

Each injector draws from its own ``random.Random(seed)``, so a given
(seed, program) pair replays the exact same fault schedule.

Machine-level injectors use one hook surface, three attributes every
:class:`repro.interp.machine.Machine` initialises to ``None`` and every
engine that runs Python reads at the same points: ``_stmt_hook`` (runs
before each statement is counted), ``_tid_hook`` (every ``__tid`` read)
and ``_store_taps`` (per-site perturbation of the value a Member-target
assignment stores).  Injectors chain: the latest install sees the
statement first, perturbs a ``__tid`` read last and a stored value
first.
"""

from __future__ import annotations

import random
from typing import Set

from ..frontend import ast
from ..interp.machine import InterpError
from ..transform.promote import SPAN_FIELD


class ThreadAbortFault(InterpError):
    """A virtual thread died mid-chunk (injected)."""

    default_code = "FAULT-ABORT"


class FaultInjector:
    """Base injector: arming, seeding, bookkeeping, sink reporting."""

    code = "FAULT-GENERIC"

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.seed = seed
        self.armed = True
        self.fired = 0
        self.runner = None

    # -- wiring (called by ParallelRunner) ---------------------------------
    def install(self, runner) -> None:
        self.runner = runner
        self._wire(runner)

    def _wire(self, runner) -> None:  # pragma: no cover - overridden
        pass

    def suspend(self) -> None:
        """Disarm during sequential recovery (the fault hit the
        parallel attempt; the fallback models the untransformed path)."""
        self.armed = False

    def resume(self) -> None:
        self.armed = True

    # -- runtime consultation points ---------------------------------------
    def at(self, point: str, value, **ctx):
        """Perturb ``value`` at a named runtime point; default pass."""
        return value

    # -- helpers ------------------------------------------------------------
    def _in_region(self) -> bool:
        checker = self.runner.checker
        return checker.enabled if checker is not None else True

    def _record(self, message: str, **data) -> None:
        """Count a fire; report the first occurrence to the sink."""
        self.fired += 1
        if self.fired == 1 and self.runner is not None:
            self.runner.sink.note(self.code, message, phase="fault",
                                  data=data)


class SpanCorruptor(FaultInjector):
    """Corrupt stores into fat-pointer ``span`` fields.

    ``factor=0`` (default) collapses every per-thread stride to zero,
    so all threads redirect into copy 0 of each expanded structure —
    the original shared-memory conflict the transform was supposed to
    remove.  Sequential execution is immune (thread 0's offset is
    ``0 * span`` regardless), so permissive recovery stays correct.
    """

    code = "FAULT-SPAN"

    def __init__(self, seed: int = 0, factor: int = 0):
        super().__init__(seed)
        self.factor = factor
        #: Assign nids whose target is a ``.span`` member
        self.sites: Set[int] = set()

    def _wire(self, runner) -> None:
        program = runner.tresult.program
        for fn in program.functions():
            for node in fn.body.walk():
                if isinstance(node, ast.Assign) and \
                        isinstance(node.target, ast.Member) and \
                        node.target.name == SPAN_FIELD:
                    self.sites.add(node.nid)
        # the assign passes the about-to-be-stored value through the
        # tap; the assignment expression still yields the uncorrupted one
        machine = runner.machine
        taps = machine._store_taps
        if taps is None:
            taps = machine._store_taps = {}

        def make_tap(site, prev):
            def tap(value):
                if self.armed:
                    corrupted = int(value) * self.factor
                    self._record(
                        f"span store at site {site} corrupted "
                        f"({int(value)} -> {corrupted})",
                        site=site, original=int(value),
                        corrupted=corrupted,
                    )
                    value = corrupted
                # an earlier-installed injector's tap runs after
                return value if prev is None else prev(value)
            return tap

        for site in self.sites:
            taps[site] = make_tap(site, taps.get(site))


class CopyIndexSkew(FaultInjector):
    """Skew a fraction of in-region ``__tid`` reads to the next thread.

    Redirected copy selection (``base + __tid * span``) then mixes two
    threads' accesses into one copy; because privatized structures are
    rewritten by every iteration, the overlap is byte-identical and the
    race checker detects it.
    """

    code = "FAULT-SKEW"

    def __init__(self, seed: int = 0, rate: float = 0.5):
        super().__init__(seed)
        self.rate = rate

    def _wire(self, runner) -> None:
        # the hook only ever sees __tid identifiers, so the rng draws
        # once per in-region __tid read and never for another ident
        machine = runner.machine
        prev = machine._tid_hook

        def tid_hook(expr, value):
            if prev is not None:
                value = prev(expr, value)
            if self.armed and machine.nthreads > 1 \
                    and self._in_region() \
                    and self.rng.random() < self.rate:
                skewed = (int(value) + 1) % machine.nthreads
                self._record(
                    f"__tid read skewed ({int(value)} -> {skewed})",
                    site=expr.nid,
                )
                return skewed
            return value

        machine._tid_hook = tid_hook


class SyncTokenDropper(FaultInjector):
    """Drop DOACROSS post/wait tokens in flight.

    The DOACROSS controller consults :meth:`at` with point
    ``"doacross-wait"`` before honoring a token; a dropped token reads
    as 0.0 (never posted).  The runtime's ledger cross-check turns the
    drop into an ``RT-SYNC-DROP`` diagnostic.
    """

    code = "FAULT-SYNC-DROP"

    def __init__(self, seed: int = 0, rate: float = 1.0):
        super().__init__(seed)
        self.rate = rate

    def at(self, point: str, value, **ctx):
        if point != "doacross-wait" or not self.armed:
            return value
        if value and self.rng.random() < self.rate:
            self._record(
                f"dropped sync token for statement {ctx.get('origin')} "
                f"at iteration {ctx.get('k')}",
                origin=ctx.get("origin"), iteration=ctx.get("k"),
            )
            return 0.0
        return value


class ThreadAborter(FaultInjector):
    """Kill one virtual thread after N in-region statements.

    Models an asynchronous thread death mid-chunk; the loop's partial
    effects are rolled back by the permissive recovery checkpoint.
    Fires exactly once per injector instance.
    """

    code = "FAULT-ABORT"

    def __init__(self, seed: int = 0, target_tid: int = 1,
                 after: int = 10):
        super().__init__(seed)
        self.target_tid = target_tid
        self.after = after
        self.count = 0

    def _wire(self, runner) -> None:
        machine = runner.machine
        prev = machine._stmt_hook

        def stmt_hook(stmt):
            if self.armed and machine.tid == self.target_tid \
                    and self._in_region():
                self.count += 1
                if self.count == self.after:
                    self._record(
                        f"virtual thread {machine.tid} aborted after "
                        f"{self.after} statements",
                        tid=machine.tid, after=self.after,
                    )
                    raise ThreadAbortFault(
                        f"virtual thread {machine.tid} aborted "
                        "mid-chunk (injected)", stmt,
                    )
            if prev is not None:
                prev(stmt)

        machine._stmt_hook = stmt_hook


# ---------------------------------------------------------------------------
# process-level chaos (multi-core backend)
# ---------------------------------------------------------------------------

class ProcessChaosInjector(FaultInjector):
    """Base class for chaos that targets the *process* backend.

    These are not machine instrumentation: they do not hook the parent
    interpreter, so arming one does **not** route loops through the
    simulated controllers (``MC-INSTRUMENTED``) — the whole point is to
    fail the real worker pool and watch the supervisor heal it.
    ``ParallelRunner`` routes them to ``ProcessSession.chaos``; the
    supervisor consults :meth:`plan` once per task at its *first*
    dispatch (retries run chaos-free, so an injected failure cannot
    chase its own recovery forever).

    ``task`` selects which dispatch(es) to hit by the session-global
    task sequence number: ``None`` = every task, an int = that one
    task, a list = those tasks.
    """

    process_level = True

    def __init__(self, seed: int = 0, task=0):
        super().__init__(seed)
        self.task = task

    def _hits(self, index: int) -> bool:
        if not self.armed:
            return False
        if self.task is None:
            return True
        if isinstance(self.task, (list, tuple, set)):
            return index in self.task
        return index == int(self.task)

    def plan(self, kind: str, index: int, wid: int, lane, spec) -> dict:
        """Return chaos directives (merged into ``spec["chaos"]``) for
        this dispatch, or an empty dict."""
        return {}


class WorkerKiller(ProcessChaosInjector):
    """SIGKILL a worker at a chosen chunk boundary.

    ``after_iter=None`` kills the worker at dispatch time — before the
    task lands, the cleanest chunk boundary there is.  ``after_iter=n``
    makes the worker SIGKILL *itself* right after completing local
    iteration ``n`` (for DOACROSS that is a committed-iteration
    boundary, exercising the drain-and-resume lease path; for DOALL it
    is past the write fence, exercising the retry-safety audit)."""

    code = "FAULT-KILL"

    def __init__(self, seed: int = 0, task=0, after_iter=None):
        super().__init__(seed, task)
        self.after_iter = after_iter

    def plan(self, kind, index, wid, lane, spec) -> dict:
        if not self._hits(index):
            return {}
        self.fired += 1
        if self.after_iter is None:
            return {"kill_at_dispatch": True}
        return {"kill_after_iter": int(self.after_iter)}


class HeartbeatStaller(ProcessChaosInjector):
    """Freeze a worker's heartbeat without killing it.

    The beat thread stops bumping BEAT for ``duration`` seconds
    (negative = forever); ``hold`` keeps the task artificially in
    flight so the supervisor's staleness check deterministically
    observes the frozen beat and revokes the worker's lease."""

    code = "FAULT-HB-STALL"

    def __init__(self, seed: int = 0, task=0, duration: float = -1.0,
                 hold: float = 1.0):
        super().__init__(seed, task)
        self.duration = duration
        self.hold = hold

    def plan(self, kind, index, wid, lane, spec) -> dict:
        if not self._hits(index):
            return {}
        self.fired += 1
        return {"stall_heartbeat": self.duration, "hold": self.hold}


class TokenPostDropper(ProcessChaosInjector):
    """Swallow DOACROSS sync-token posts inside the worker.

    The worker records each dropped post in the iteration's committed
    message instead of writing the slot; the supervisor re-issues the
    token (``MC-TOKEN-REISSUE``) so downstream stages unblock.  ``ks``
    limits drops to those iteration numbers; otherwise ``rate`` (with
    the injector seed) draws deterministically per (origin, k)."""

    code = "FAULT-POST-DROP"

    def __init__(self, seed: int = 0, task=None, ks=None,
                 rate: float = 1.0):
        super().__init__(seed, task)
        self.ks = list(ks) if ks is not None else None
        self.rate = rate

    def plan(self, kind, index, wid, lane, spec) -> dict:
        if kind != "doacross" or not self._hits(index):
            return {}
        self.fired += 1
        directive = {"seed": self.seed, "rate": self.rate}
        if self.ks is not None:
            directive["ks"] = self.ks
        return {"drop_posts": directive}


class TokenPostDelayer(ProcessChaosInjector):
    """Delay DOACROSS sync-token posts by ``seconds`` of wall time.

    Modeled cycles are unaffected (the cost model never sees wall
    time), so output and metrics stay bit-identical — this exercises
    the spin-wait backoff path and the supervisor's patience."""

    code = "FAULT-POST-DELAY"

    def __init__(self, seed: int = 0, task=None, ks=None,
                 rate: float = 1.0, seconds: float = 0.005):
        super().__init__(seed, task)
        self.ks = list(ks) if ks is not None else None
        self.rate = rate
        self.seconds = seconds

    def plan(self, kind, index, wid, lane, spec) -> dict:
        if kind != "doacross" or not self._hits(index):
            return {}
        self.fired += 1
        directive = {"seed": self.seed, "rate": self.rate,
                     "seconds": self.seconds}
        if self.ks is not None:
            directive["ks"] = self.ks
        return {"delay_posts": directive}


def parse_chaos_spec(spec: str, seed: int = 0) -> ProcessChaosInjector:
    """Build a chaos injector from a CLI ``--chaos`` spec string.

    Grammar: ``name[:key=value,key=value...]`` with names ``kill``,
    ``stall``, ``drop``, ``delay``.  Examples::

        kill                      SIGKILL worker at dispatch of task 0
        kill:task=2,after-iter=1  worker of task 2 dies after local it 1
        stall:task=1,hold=0.5     freeze task 1's heartbeat
        drop:rate=0.5             drop half of all sync-token posts
        delay:seconds=0.01        delay every post by 10ms
    """
    name, _, rest = spec.partition(":")
    kwargs: dict = {}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key == "ks":
                kwargs[key] = [int(v) for v in value.split("+")]
            elif key == "task":
                kwargs[key] = None if value == "any" else int(value)
            elif key in ("after_iter",):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
    kwargs.setdefault("seed", seed)
    makers = {
        "kill": WorkerKiller,
        "stall": HeartbeatStaller,
        "drop": TokenPostDropper,
        "delay": TokenPostDelayer,
    }
    if name not in makers:
        raise ValueError(
            f"unknown chaos spec {name!r} "
            f"(expected one of {sorted(makers)})")
    return makers[name](**kwargs)


__all__ = [
    "FaultInjector", "SpanCorruptor", "CopyIndexSkew",
    "SyncTokenDropper", "ThreadAborter", "ThreadAbortFault",
    "ProcessChaosInjector", "WorkerKiller", "HeartbeatStaller",
    "TokenPostDropper", "TokenPostDelayer", "parse_chaos_spec",
]
