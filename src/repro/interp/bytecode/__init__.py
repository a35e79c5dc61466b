"""Bytecode compilation tier for the MiniC machine (DESIGN.md §12).

Translates each analyzed function, lazily on first call, to a tree of
Python closures.  Every static decision — variable frame placement,
struct field offsets, element sizes, integer wrap masks, conversions,
cost charges, register-slot classification, faults — is read from the
lowered form (:mod:`repro.interp.lowered`), the one the C emitter
translates too; this package spells it with ``struct.Struct`` scalar
codecs and fused closures.  The result is subroutine-threaded code:
each node's closure calls its children directly, replacing the
walker's two dict dispatches and type tests per node.

There is one compiled form: every closure keeps the walker's cost,
observer fan-out, watchdog and diagnostic behavior bit for bit, and
reads the three fault hooks (``_stmt_hook`` / ``_tid_hook`` /
``_store_taps``, attributes of every :class:`~repro.interp.machine.
Machine`) where the walker does.  A run nothing observes pays a
``None`` test of ``m.race_log`` and an empty ``for obs in m.observers``
per access and a ``None`` test per statement; a race-checked run adds
one set insertion per access.  The tier that makes unobserved runs fast
is ``native``.

Select with ``Machine(..., engine="bytecode")``, the CLI ``--engine``
flag, or ``$REPRO_ENGINE``.
"""

from .compiler import Compiler, compiler_for, invalidate_code
from .machine import BytecodeMachine

__all__ = [
    "Compiler", "compiler_for", "invalidate_code", "BytecodeMachine",
]
