"""Native tier backend: capability probe, C compilation, .so loading.

Mirrors :func:`repro.runtime.multicore.process_backend_available`: a
cached ``native_backend_available()`` probe with structured ``NL-*``
reason codes, so callers (CLI, service, tests) can degrade gracefully
to ``bytecode`` with a diagnostic instead of erroring.

Compilation runs ``cc -shared -O2 -fPIC -fwrapv`` (cffi's API mode
needs the same C compiler, so the compiler's presence is the real
gate).  :func:`compile_sources` starts every missing compile of a batch
before it waits for any — a job's two translation units (transformed
program, sequential baseline) build side by side, one compiler process
each — and :func:`compile_source` is the batch of one.  Binding
prefers cffi's ABI-mode ``dlopen`` when cffi is importable and falls
back to ``ctypes.CDLL``.  Compiled artifacts are cached on disk keyed
by source hash, ABI version, flags and compiler identity — a warm
cache hit never invokes the C compiler (asserted by the serve smoke
test via :data:`COMPILER_INVOCATIONS` / ``$REPRO_NATIVE_CC_LOG``).

Which entry points a translation unit exports depends on where a loop
controller can sit (``controlled``, see :mod:`.codegen`); the
per-program context registry never serves a caller declaring a wider
set than the one a context was lowered for, and holds a context only
as long as the program object lives.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .codegen import NATIVE_ABI_VERSION, Lowering, lower_program

#: total C compiler invocations in this process (serve-smoke gate)
COMPILER_INVOCATIONS = 0

#: units served from the .so cache in this process
SO_CACHE_HITS = 0

#: appended with one line per compiler invocation when set
CC_LOG_ENV = "REPRO_NATIVE_CC_LOG"

#: override the on-disk .so cache directory
CACHE_ENV = "REPRO_NATIVE_CACHE"

#: cleared in a process that must never start a compiler (a process
#: backend worker): there a unit the .so cache misses raises
#: ``NL-NO-SO`` instead, and the toolchain probe is skipped — a cached
#: .so is its own proof that the toolchain works
COMPILES_ALLOWED = True

CFLAGS = ("-shared", "-O2", "-fPIC", "-fwrapv")

_AVAILABLE: Optional[Tuple[bool, str]] = None
_CC_IDENTITY: Optional[str] = None


def _find_cc() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return shutil.which(cand)
    return None


def cc_identity() -> str:
    """Compiler path + version line (part of the .so cache key)."""
    global _CC_IDENTITY
    if _CC_IDENTITY is not None:
        return _CC_IDENTITY
    cc = _find_cc()
    if cc is None:
        _CC_IDENTITY = "no-cc"
        return _CC_IDENTITY
    try:
        out = subprocess.run([cc, "--version"], capture_output=True,
                             text=True, timeout=30)
        version = (out.stdout or out.stderr).splitlines()[0].strip()
    except Exception:  # pragma: no cover - host-dependent
        version = "unknown"
    _CC_IDENTITY = f"{cc} {version}"
    return _CC_IDENTITY


def native_backend_available(recheck: bool = False) -> Tuple[bool, str]:
    """Whether this host can compile and load the native tier.

    Returns ``(ok, reason)`` where ``reason`` is an ``NL-*`` structured
    code on failure (``NL-PLATFORM``, ``NL-NO-CC``, ``NL-LOAD``).  A
    missing cffi is *not* fatal (the ctypes loader covers it) — it is
    surfaced as the informational suffix of the ok-reason instead."""
    global _AVAILABLE
    if _AVAILABLE is not None and not recheck:
        return _AVAILABLE
    if not (sys.platform.startswith("linux")
            or sys.platform == "darwin"):
        _AVAILABLE = (False, "NL-PLATFORM: native tier needs a POSIX "
                             f"dlopen host, got {sys.platform}")
        return _AVAILABLE
    if _find_cc() is None:
        _AVAILABLE = (False, "NL-NO-CC: no C compiler on PATH "
                             "(tried $CC, cc, gcc, clang)")
        return _AVAILABLE
    try:
        probe = compile_source(
            "#include <stdint.h>\n"
            "int64_t rp_probe(void *e) { (void)e; return 42; }\n",
            ["rp_probe"], tag="probe")
    except Exception as exc:  # pragma: no cover - host-dependent
        _AVAILABLE = (False, f"NL-LOAD: toolchain probe failed: {exc}")
        return _AVAILABLE
    if probe.handles["rp_probe"](0) != 42:  # pragma: no cover
        _AVAILABLE = (False, "NL-LOAD: probe entry returned garbage")
        return _AVAILABLE
    note = "" if _has_cffi() else " (cffi absent: NL-NO-CFFI, using ctypes)"
    _AVAILABLE = (True, "cc+dlopen ok" + note)
    return _AVAILABLE


def _has_cffi() -> bool:
    try:
        import cffi  # noqa: F401
        return True
    except ImportError:
        return False


class CompiledLib:
    """A loaded .so: uniform ``int64_t f(void *)`` entry handles."""

    def __init__(self, path: str, handles: Dict, cache_hit: bool,
                 compile_seconds: float, binder: str):
        self.path = path
        self.handles = handles
        self.cache_hit = cache_hit
        self.compile_seconds = compile_seconds
        self.binder = binder  # "cffi" | "ctypes"

    def __repr__(self):  # pragma: no cover - debug aid
        hit = "hit" if self.cache_hit else "miss"
        return (f"<CompiledLib {os.path.basename(self.path)} "
                f"{self.binder} cache-{hit}>")


def _cache_dir(explicit: Optional[str]) -> str:
    path = explicit or os.environ.get(CACHE_ENV)
    if not path:
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
    os.makedirs(path, exist_ok=True)
    return path


def so_cache_key(source: str) -> str:
    """Cache key chain: C source (which already folds the program's
    lowered shape + ABI version) + opt flags + compiler identity."""
    blob = "\x00".join([
        f"abi{NATIVE_ABI_VERSION}", " ".join(CFLAGS), cc_identity(),
        source,
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:24]


def _bind(path: str, exports) -> Tuple[Dict, str]:
    """Bind exports as ``callable(env_address_int) -> int`` uniformly
    across both loaders (callers pass a raw integer address)."""
    if _has_cffi():
        import cffi
        ffi = cffi.FFI()
        ffi.cdef("".join(f"int64_t {name}(void *);\n"
                         for name in exports))
        lib = ffi.dlopen(path)
        handles = {}
        for name in exports:
            raw = getattr(lib, name)

            def call(addr, _raw=raw, _ffi=ffi):
                return _raw(_ffi.cast("void *", addr))

            handles[name] = call
        # keep the FFI object alive alongside the handles
        handles["__ffi__"] = (ffi, lib)
        return handles, "cffi"
    import ctypes
    lib = ctypes.CDLL(path)
    handles = {}
    for name in exports:
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int64
        fn.argtypes = [ctypes.c_void_p]
        handles[name] = fn
    handles["__lib__"] = lib
    return handles, "ctypes"


def compile_sources(units: Sequence[Tuple[str, Sequence[str], str]],
                    cache_dir: Optional[str] = None
                    ) -> Tuple[List[CompiledLib], float]:
    """Compile ``(source, exports, tag)`` units to cached .so files and
    bind their exports.  Every unit the cache misses gets its compiler
    process before any is waited for.  Returns the libraries, in order,
    and the wall-clock seconds during which a compiler was running
    (each ``CompiledLib.compile_seconds`` stays that process's own:
    the CPU seconds of the compiler and the passes it ran)."""
    global COMPILER_INVOCATIONS, SO_CACHE_HITS
    directory = _cache_dir(cache_dir)
    so_paths = [os.path.join(directory, f"{tag}-{so_cache_key(source)}.so")
                for source, _, tag in units]
    tmp_suffix = f".tmp{os.getpid()}"
    procs: Dict[str, subprocess.Popen] = {}
    seconds: Dict[str, float] = {}
    unstarted_c: Optional[str] = None  # written, its compiler not started
    t0 = time.perf_counter()
    try:
        for (source, _, _), so_path in zip(units, so_paths):
            if so_path in procs or os.path.exists(so_path):
                continue
            if not COMPILES_ALLOWED:
                raise RuntimeError(
                    f"NL-NO-SO: {so_path} is not in the .so cache and "
                    f"this process never compiles")
            cc = _find_cc()
            if cc is None:
                raise RuntimeError("NL-NO-CC: no C compiler on PATH")
            unstarted_c = c_path = os.path.splitext(so_path)[0] + ".c"
            with open(c_path, "w") as fh:
                fh.write(source)
            procs[so_path] = subprocess.Popen(
                [cc, *CFLAGS, "-o", so_path + tmp_suffix, c_path],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True)
            unstarted_c = None
        for so_path, proc in procs.items():
            with proc.stderr:
                stderr = proc.stderr.read()  # to EOF: the compiler is done
            # reaped here, not by Popen, for the child's own rusage: a
            # wall clock would charge it the siblings waited for first
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            seconds[so_path] = usage.ru_utime + usage.ru_stime
            COMPILER_INVOCATIONS += 1
            log = os.environ.get(CC_LOG_ENV)
            if log:
                with open(log, "a") as fh:
                    name = os.path.splitext(os.path.basename(so_path))[0]
                    fh.write(f"{name} rc={proc.returncode} "
                             f"{seconds[so_path]:.3f}s\n")
            if proc.returncode != 0:
                raise RuntimeError(
                    f"NL-CC-FAIL: {proc.args[0]} exited {proc.returncode}: "
                    f"{stderr[-2000:]}")
            os.replace(so_path + tmp_suffix, so_path)  # atomic vs others
    finally:
        # leave no child and no partial output behind
        for so_path, proc in procs.items():
            if proc.returncode is None:  # never waited for
                proc.kill()
                proc.communicate()
            if os.path.exists(so_path + tmp_suffix):
                os.unlink(so_path + tmp_suffix)
        # a source no compiler ever read explains no failure: unlike the
        # .c of a unit cc rejected, it is not worth keeping
        if unstarted_c is not None and os.path.exists(unstarted_c):
            os.unlink(unstarted_c)
    wall = time.perf_counter() - t0 if procs else 0.0
    libs = []
    for (_, exports, _), so_path in zip(units, so_paths):
        spent = seconds.pop(so_path, None)  # a repeated unit hits
        if spent is None:
            SO_CACHE_HITS += 1
        handles, binder = _bind(so_path, exports)
        libs.append(CompiledLib(so_path, handles, spent is None,
                                spent or 0.0, binder))
    return libs, wall


def compile_source(source: str, exports, cache_dir: Optional[str] = None,
                   tag: str = "native") -> CompiledLib:
    """Compile ``source`` to a cached .so and bind ``exports``."""
    libs, _wall = compile_sources([(source, exports, tag)], cache_dir)
    return libs[0]


# ---------------------------------------------------------------------------
# per-program lowering registry (a process backend worker re-lowers an
# unpickled program and binds the .so its parent compiled; it never
# compiles one)
# ---------------------------------------------------------------------------

class NativeContext:
    """Lowering + compiled library for one program."""

    def __init__(self, lowering: Lowering, lib: CompiledLib):
        self.lowering = lowering
        self.lib = lib


#: program -> context, weakly keyed: a context must not reference its
#: Program strongly (a Lowering holds no node above the declarations), so
#: it is collected with the program — e.g. when the stage cache's
#: bounded memory tier evicts the ``lower-native`` artifact
_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def native_contexts_for(requests: Sequence[Tuple], cache_dir: Optional[str]
                        = None) -> Tuple[List[NativeContext], float]:
    """The (lowered, compiled, bound) native contexts for a batch of
    ``(program, sema, controlled)`` requests, and the wall-clock seconds
    a C compiler ran for them (the misses compile side by side).

    ``controlled`` is the set of loop nids that may carry a controller
    (``None``: any loop).  Raises ``RuntimeError`` with an ``NL-*``
    reason when the backend is unavailable.  Results are memoized per
    program object; a memoized context serves only requests its own
    set covers; any other re-lowers for the union of the two sets, so
    a program's context only ever widens."""
    contexts = [_CONTEXTS.get(program) for program, _, _ in requests]
    missing = [i for i, (ctx, (_, _, controlled))
               in enumerate(zip(contexts, requests))
               if ctx is None or not ctx.lowering.covers(controlled)]
    if not missing:
        return contexts, 0.0
    ok, reason = native_backend_available() if COMPILES_ALLOWED \
        else (True, "")
    if not ok:
        raise RuntimeError(reason)
    lowerings = []
    for i in missing:
        program, sema, controlled = requests[i]
        if contexts[i] is not None and controlled is not None:
            controlled = contexts[i].lowering.controlled | controlled
        lowerings.append(lower_program(program, sema, controlled))
    libs, wall = compile_sources(
        [(low.source, low.exports, f"prog-{low.fingerprint}")
         for low in lowerings], cache_dir)
    for i, low, lib in zip(missing, lowerings, libs):
        contexts[i] = _CONTEXTS[requests[i][0]] = NativeContext(low, lib)
    return contexts, wall


def native_context_for(program, sema, cache_dir: Optional[str] = None,
                       controlled=None) -> NativeContext:
    """:func:`native_contexts_for` for one program."""
    contexts, _wall = native_contexts_for(
        [(program, sema, controlled)], cache_dir)
    return contexts[0]
