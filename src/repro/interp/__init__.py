"""Execution substrate: byte-addressable memory and the MiniC machine."""

from .machine import (
    COSTS, ENGINE_ENV, ENGINES, BreakSignal, ContinueSignal, CostSink,
    ExitSignal, Frame, InterpError, Machine, ReturnSignal, WatchdogTimeout,
    observed_engine, resolve_engine,
)
from .memory import Allocation, Memory, MemoryError_, scalar_codec
from .trace import AccessEvent, FootprintObserver, RaceChecker, RecordingObserver


def run_source(source: str, entry: str = "main", engine=None):
    """Parse, analyze and run MiniC source; returns the machine
    (inspect ``.output``, ``.cost``, ``.memory``)."""
    from ..frontend import parse_and_analyze

    program, sema = parse_and_analyze(source)
    machine = Machine(program, sema, engine=engine)
    machine.exit_code = machine.run(entry)
    return machine


__all__ = [
    "Machine", "Memory", "MemoryError_", "Allocation", "CostSink", "COSTS",
    "ENGINES", "ENGINE_ENV", "resolve_engine", "observed_engine",
    "scalar_codec",
    "InterpError", "BreakSignal", "ContinueSignal", "ReturnSignal",
    "ExitSignal", "Frame", "WatchdogTimeout", "RecordingObserver", "FootprintObserver",
    "RaceChecker", "AccessEvent", "run_source",
]
