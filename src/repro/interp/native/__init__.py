"""Native execution tier: lower analyzed loops to C, run on the segment.

Public surface:

- :func:`native_backend_available` — capability probe with ``NL-*``
  reason codes (mirrors ``process_backend_available``)
- :class:`NativeMachine` — Machine subclass dispatching into the
  compiled ``.so`` (falls back per-construct to the bytecode closures)
- :func:`lower_program` — pure codegen (no compiler needed)
- :data:`NATIVE_ABI_VERSION` — folds into every cache key
"""

from .backend import (  # noqa: F401
    COMPILER_INVOCATIONS, NativeContext, compile_source,
    native_backend_available, native_context_for, native_contexts_for,
    so_cache_key,
)
from .codegen import NATIVE_ABI_VERSION, Lowering, lower_program  # noqa: F401
from .runtime import NativeMachine  # noqa: F401
