"""Builtin function implementations for the MiniC machine.

Each builtin takes ``(machine, args, call_node)`` and returns the call's
value.  Signatures live in :data:`repro.frontend.sema.BUILTIN_SIGNATURES`;
keep the two tables in sync.

``malloc``/``free``/``realloc`` are the allocation routines the paper's
Table 1 expansion rules hook into; ``memset``/``memcpy`` generate traced
byte-range accesses so the dependence profiler sees them.
"""

from __future__ import annotations

import math
from typing import Callable, Dict

from . import memory as mem
from .costs import COSTS


def _trace(machine, site: int, addr: int, size: int, is_store: bool) -> None:
    for obs in machine.observers:
        obs.on_access(site, addr, size, is_store)


def malloc_label(node) -> str:
    """The record label of a block allocated at ``malloc`` call ``node``
    (the native tier's journal replay labels its blocks the same way)."""
    return f"malloc@L{node.loc[0]}:{node.loc[1]}"


def _bi_malloc(machine, args, node):
    size = int(args[0])
    machine.cost.cycles += COSTS["malloc"]
    return machine.memory.alloc(size, mem.HEAP, label=malloc_label(node),
                                tag=node.nid)


def _bi_calloc(machine, args, node):
    count, size = int(args[0]), int(args[1])
    total = count * size
    machine.cost.cycles += COSTS["malloc"]
    machine.cost.cycles += total * COSTS["byte_op"]
    addr = machine.memory.alloc(total, mem.HEAP, label=f"calloc@L{node.loc[0]}:{node.loc[1]}", tag=node.nid)
    machine.memory.write_bytes(addr, b"\0" * max(total, 1))
    _trace(machine, node.nid, addr, total, True)
    return addr


def _bi_realloc(machine, args, node):
    addr, size = int(args[0]), int(args[1])
    machine.cost.cycles += COSTS["malloc"]
    return machine.memory.realloc(addr, size)


def _bi_free(machine, args, node):
    machine.cost.cycles += COSTS["free"]
    addr = int(args[0])
    for hook in machine.free_hooks:
        hook(addr)
    machine.memory.free(addr)
    return None


def _bi_memset(machine, args, node):
    addr, byte, size = int(args[0]), int(args[1]) & 0xFF, int(args[2])
    machine.cost.cycles += size * COSTS["byte_op"] + 20
    if machine.redirector is not None:
        addr = machine.redirector(node.nid, addr, size, True)
    machine.memory.write_bytes(addr, bytes([byte]) * size)
    machine.cost.stores += 1
    _trace(machine, node.nid, addr, size, True)
    return addr


def _bi_memcpy(machine, args, node):
    dst, src, size = int(args[0]), int(args[1]), int(args[2])
    machine.cost.cycles += size * COSTS["byte_op"] + 20
    if machine.redirector is not None:
        src = machine.redirector(node.nid, src, size, False)
        dst = machine.redirector(node.nid, dst, size, True)
    if dst + size <= src or src + size <= dst:
        # disjoint ranges: move through a transient view, no staging copy
        payload = machine.memory.view(src, size)
        machine.memory.write_bytes(dst, payload)
        payload.release()
    else:
        # overlap (memmove semantics): stage through bytes
        machine.memory.write_bytes(dst, machine.memory.read_bytes(src, size))
    machine.cost.loads += 1
    machine.cost.stores += 1
    _trace(machine, node.nid, src, size, False)
    _trace(machine, node.nid, dst, size, True)
    return dst


def _bi_strlen(machine, args, node):
    addr = int(args[0])
    text = machine.memory.read_cstring(addr)
    machine.cost.cycles += len(text) * COSTS["byte_op"] + 10
    _trace(machine, node.nid, addr, len(text) + 1, False)
    return len(text)


def _math1(fn: Callable[[float], float], cost_key: str = "fmath"):
    def impl(machine, args, node):
        machine.cost.cycles += COSTS[cost_key]
        return fn(float(args[0]))
    return impl


def _bi_pow(machine, args, node):
    machine.cost.cycles += COSTS["fmath"]
    return math.pow(float(args[0]), float(args[1]))


def _bi_abs(machine, args, node):
    machine.cost.cycles += COSTS["alu"]
    return abs(int(args[0]))


def _bi_print_int(machine, args, node):
    machine.cost.cycles += COSTS["print"]
    machine.output.append(str(int(args[0])))
    return None


def _bi_print_double(machine, args, node):
    machine.cost.cycles += COSTS["print"]
    machine.output.append(f"{float(args[0]):.6g}")
    return None


def _bi_print_str(machine, args, node):
    machine.cost.cycles += COSTS["print"]
    machine.output.append(machine.memory.read_cstring(int(args[0])))
    return None


def _bi_exit(machine, args, node):
    from .machine import ExitSignal
    raise ExitSignal(int(args[0]))


def _bi_assert_true(machine, args, node):
    from .machine import InterpError
    if not int(args[0]):
        raise InterpError("assert_true failed", node)
    return None


BUILTIN_IMPLS: Dict[str, Callable] = {
    "malloc": _bi_malloc,
    "calloc": _bi_calloc,
    "realloc": _bi_realloc,
    "free": _bi_free,
    "memset": _bi_memset,
    "memcpy": _bi_memcpy,
    "memmove": _bi_memcpy,
    "strlen": _bi_strlen,
    "abs": _bi_abs,
    "labs": _bi_abs,
    "sqrt": _math1(math.sqrt),
    "fabs": _math1(abs, "alu"),
    "floor": _math1(math.floor, "falu"),
    "ceil": _math1(math.ceil, "falu"),
    "exp": _math1(math.exp),
    "log": _math1(math.log),
    "sin": _math1(math.sin),
    "cos": _math1(math.cos),
    "pow": _bi_pow,
    "print_int": _bi_print_int,
    "print_double": _bi_print_double,
    "print_str": _bi_print_str,
    "exit": _bi_exit,
    "assert_true": _bi_assert_true,
}
