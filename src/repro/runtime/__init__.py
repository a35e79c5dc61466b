"""Simulated parallel runtime: schedulers, sync model, statistics."""

from .plan import LoopPlan, ParallelError, RaceError, RunContext
from .parallel import MachineSnapshot, ParallelRunner, run_parallel
from .stats import (
    LoopExecution, ParallelOutcome, RecoveryEvent, ThreadStats,
)
from .faults import (
    CopyIndexSkew, FaultInjector, HeartbeatStaller, ProcessChaosInjector,
    SpanCorruptor, SyncTokenDropper, ThreadAbortFault, ThreadAborter,
    TokenPostDelayer, TokenPostDropper, WorkerKiller, parse_chaos_spec,
)
from .multicore import (
    LoopAudit, ProcessSession, WorkerCrash, audit_loop,
    audit_retry_safety, process_backend_available,
)
from .supervisor import Supervisor
from . import sync

__all__ = [
    "run_parallel", "ParallelRunner", "ParallelError", "RaceError",
    "ParallelOutcome", "LoopExecution", "ThreadStats", "sync",
    "MachineSnapshot", "RecoveryEvent", "LoopPlan", "RunContext",
    "FaultInjector", "SpanCorruptor", "CopyIndexSkew",
    "SyncTokenDropper", "ThreadAborter", "ThreadAbortFault",
    "ProcessChaosInjector", "WorkerKiller", "HeartbeatStaller",
    "TokenPostDropper", "TokenPostDelayer", "parse_chaos_spec",
    "process_backend_available", "ProcessSession", "WorkerCrash",
    "LoopAudit", "audit_loop", "audit_retry_safety", "Supervisor",
]
