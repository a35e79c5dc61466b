"""Native tier backend: capability probe, C compilation, .so loading.

Mirrors :func:`repro.runtime.multicore.process_backend_available`: a
cached ``native_backend_available()`` probe with structured ``NL-*``
reason codes, so callers (CLI, service, tests) can degrade gracefully
to ``bytecode`` with a diagnostic instead of erroring.

Compilation runs ``cc -shared -O1 -fPIC -fwrapv`` (:data:`CFLAGS`;
the instrumented unit's :data:`TRACED_CFLAGS` say ``-O0``) — cffi's API
mode needs the same C compiler, so the compiler's presence is the real
gate.  :func:`start` writes a batch's sources and starts every
missing compile without waiting; :meth:`Build.finish` waits, links,
renames and binds, and kills, reaps and unlinks what a failure leaves.
A large unit compiles as one object per core (:data:`PART_LINES`) and
links once; its cache key, its
:data:`COMPILER_INVOCATIONS` count and its ``$REPRO_NATIVE_CC_LOG``
line stay one per unit.  Binding prefers cffi's ABI-mode ``dlopen``
when cffi is importable and falls back to ``ctypes.CDLL``.  Compiled
artifacts are cached on disk keyed by source hash, ABI version, flags
and compiler identity — a warm cache hit never invokes the C compiler
(asserted by the serve smoke test).

Which entry points a translation unit exports depends on where a loop
controller can sit (``controlled``, see :mod:`.codegen`); the
per-program context registry never serves a caller declaring a wider
set than the one a context was lowered for, and holds a context only
as long as the program object lives.  A process backend worker never
fills it itself: it adopts its parent's lowering and library
(:func:`adopt`).
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
import signal
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

#: a plain unit's flags (the transformed program's, or any bare
#: ``Machine(engine="native")``'s).  ``-O1``: a cold job waits for the
#: build, which at ``-O2`` took twice the compiler time for a run that
#: is a small fraction of the job either way.  DESIGN.md §17 has the
#: -O0/-O1/-O2 table behind the choice
CFLAGS = ("-shared", "-O1", "-fPIC", "-fwrapv")

#: the instrumented unit's flags (its .so key folds them in): it runs
#: once per candidate loop with the tracker attached, the first run
#: being the job's sequential baseline, so its compile is the larger
#: share of its cost.
#: DESIGN.md §17 has the -O0/-O1/-O2 table behind the choice
TRACED_CFLAGS = ("-shared", "-O0", "-fPIC", "-fwrapv")

#: source lines per compiler process: a unit of ``lines`` lines builds
#: as ``min(cores, lines // PART_LINES)`` objects (one below twice
#: this).  Measured on the nine kernels (gcc 12.2, 2 cores, wall, best
#: of 7): every transformed unit, 1 054 to 5 270 lines, builds faster
#: in two parts at -O1 — histogram's 207 -> 139 ms — and the header
#: every part repeats costs ~25 ms.  Below 1 000 lines a unit stays
#: whole: there a split saves at most ~45 ms of wall (histogram's
#: 856-line instrumented unit, 135 -> 90 ms at -O0) for a sixth more CPU
PART_LINES = 500

#: a build's temporaries older than this are a dead build's (its Python
#: was killed before :meth:`Build.finish` could clean up): the next
#: build in the directory removes them.  No compile of a kernel comes near it
STALE_SECONDS = 3600

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
        (probe,) = start([(
            "#include <stdint.h>\n"
            "int64_t rp_probe(void *e) { (void)e; return 42; }\n",
            ["rp_probe"], "probe")]).finish()
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
                 compile_seconds: float, binder: str, parts: int = 1):
        self.path = path
        self.handles = handles
        self.cache_hit = cache_hit
        #: CPU seconds of every compiler process of the unit
        self.compile_seconds = compile_seconds
        self.binder = binder  # "cffi" | "ctypes"
        #: objects the unit was built from (1 when it hit the cache)
        self.parts = parts


def _cache_dir(explicit: Optional[str]) -> str:
    path = explicit or os.environ.get(CACHE_ENV)
    if not path:
        path = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
    os.makedirs(path, exist_ok=True)
    return path


def so_cache_key(source: str, cflags: Sequence[str] = CFLAGS) -> str:
    """Cache key chain: C source (which already folds the program's
    lowered shape + ABI version) + opt flags + compiler identity."""
    blob = "\x00".join([
        f"abi{NATIVE_ABI_VERSION}", " ".join(cflags), cc_identity(),
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


class _Unit:
    """One translation unit of a :class:`Build`: the compiler processes
    it started and the files only they may leave behind."""

    def __init__(self, exports, so_path: str, cflags: Sequence[str]):
        self.exports = exports
        self.so_path = so_path
        self.cflags = cflags
        self.name = os.path.splitext(os.path.basename(so_path))[0]
        self.procs: List[subprocess.Popen] = []
        #: this build's copy of the whole source, its parts, their
        #: objects and the .so being written: the files a concurrent
        #: build of the same unit never touches
        self.temps: List[str] = []
        self.src: Optional[str] = None
        self.out: Optional[str] = None
        self.parts = 1
        #: summed CPU seconds of its compiler processes (None: a hit)
        self.seconds: Optional[float] = None


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API (darwin)
        return os.cpu_count() or 1


def _temp(directory: str, name: str, suffix: str) -> str:
    """A fresh file name in ``directory``, unique to this build (two
    builds of one unit, in one process or two, never share one)."""
    fd, path = tempfile.mkstemp(prefix=name + ".", suffix=suffix,
                                dir=directory)
    os.close(fd)
    return path


#: the names :func:`_temp` gives a build's source copy, parts, objects
#: and unfinished .so
_TEMP_NAME = re.compile(r"\.[^.]+\.(tmp\.c|so\.tmp|part\d+\.[co])$")


def _sweep(directory: str) -> None:
    """Remove the temporaries of builds that died without aborting."""
    cutoff = time.time() - STALE_SECONDS
    for entry in os.scandir(directory):
        if _TEMP_NAME.search(entry.name):
            try:
                if entry.stat().st_mtime < cutoff:
                    os.unlink(entry.path)
            except FileNotFoundError:  # another build swept it first
                pass


def _spawn(argv) -> subprocess.Popen:
    # its own process group, so a failed build stops cc and every pass
    # it runs; a signal to the caller's group no longer reaches it,
    # which is why :meth:`Build.finish` cleans up in a finally (and
    # :func:`_sweep` covers a caller killed outright)
    return subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def _reap(proc: subprocess.Popen) -> Tuple[str, float]:
    """Wait for one compiler process: its stderr and CPU seconds."""
    with proc.stderr:
        stderr = proc.stderr.read()  # to EOF: the compiler is done
    # reaped here, not by Popen, for the child's own rusage: a wall
    # clock would charge it the siblings waited for first
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return stderr, usage.ru_utime + usage.ru_stime


class Build:
    """A batch of units whose compilers :func:`start` started.

    :meth:`finish` waits for them, links the parts of a split unit,
    renames each library into the cache and binds it; whatever way it
    leaves, :meth:`_abort` then stops and reaps what still runs and
    removes every file a compiler had not finished."""

    def __init__(self):
        self.units: List[_Unit] = []
        self.cc: Optional[str] = None
        self.t0 = time.perf_counter()
        #: when :meth:`finish` saw the last compiler exit (None: none
        #: ran)
        self.t_done: Optional[float] = None

    @property
    def compiling(self) -> bool:
        """Whether a compiler was started for any unit."""
        return any(unit.procs for unit in self.units)

    def finish(self) -> List[CompiledLib]:
        """The libraries, in unit order."""
        global SO_CACHE_HITS
        try:
            for unit in self.units:
                if unit.procs:
                    self._complete(unit)
            if self.compiling:
                self.t_done = time.perf_counter()
        finally:
            self._abort()
        libs = []
        for unit in self.units:
            if unit.seconds is None:
                SO_CACHE_HITS += 1
            handles, binder = _bind(unit.so_path, unit.exports)
            libs.append(CompiledLib(unit.so_path, handles,
                                    unit.seconds is None,
                                    unit.seconds or 0.0, binder,
                                    unit.parts))
        return libs

    def _complete(self, unit: _Unit) -> None:
        """Wait for a unit's compilers, link its parts, publish it."""
        unit.seconds = 0.0
        self._wait(unit, list(unit.procs))
        if unit.parts > 1:
            objs = [path for path in unit.temps if path.endswith(".o")]
            link = _spawn([self.cc, *unit.cflags, "-o", unit.out, *objs])
            unit.procs.append(link)
            self._wait(unit, [link])
        self._verdict(unit, 0)
        os.replace(unit.out, unit.so_path)  # atomic vs other builds

    @staticmethod
    def _verdict(unit: _Unit, rc: int) -> None:
        """Count the unit's compile, keep its source beside the library
        as ``<name>.c`` (a source cc rejected explains the failure) and
        log one line, whatever its part count."""
        global COMPILER_INVOCATIONS
        COMPILER_INVOCATIONS += 1
        os.replace(unit.src, os.path.join(os.path.dirname(unit.so_path),
                                          unit.name + ".c"))
        log = os.environ.get(CC_LOG_ENV)
        if log:
            with open(log, "a") as fh:
                fh.write(f"{unit.name} rc={rc} {unit.seconds:.3f}s "
                         f"parts={unit.parts}\n")

    def _wait(self, unit: _Unit, procs) -> None:
        for proc in procs:
            stderr, cpu = _reap(proc)
            unit.seconds += cpu
            if proc.returncode != 0:
                self._verdict(unit, proc.returncode)
                raise RuntimeError(
                    f"NL-CC-FAIL: {proc.args[0]} exited "
                    f"{proc.returncode}: {stderr[-2000:]}")

    def _abort(self) -> None:
        """Stop and reap every compiler still running and remove every
        file of a unit that has no verdict."""
        for unit in self.units:
            for proc in unit.procs:
                if proc.returncode is None:  # never waited for
                    _stop(proc)
            for path in unit.temps:
                if os.path.exists(path):
                    os.unlink(path)


def _stop(proc: subprocess.Popen) -> None:
    """SIGTERM the compiler's process group — ``cc`` then removes its
    own temporaries — and reap it; SIGKILL what lingers."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        try:
            proc.communicate(timeout=10)
            return
        except subprocess.TimeoutExpired:  # pragma: no cover
            continue


def start(units: Sequence[Tuple], cache_dir: Optional[str] = None
          ) -> Build:
    """Start compiling ``(source, exports, tag[, split[, cflags]])``
    units to cached .so files (``cflags`` defaults to :data:`CFLAGS`);
    return without waiting for any compiler.

    A unit the cache misses gets its source written and its compiler
    processes started.  A unit with a ``split`` callable (``k`` ->
    ``k`` part sources, see :meth:`.codegen.Lowering.parts`) whose
    source has ``lines >= 2 * PART_LINES`` compiles as ``K =
    min(cores, lines // PART_LINES)`` objects, one ``cc
    -c`` each, which :meth:`Build.finish` links with one ``cc
    -shared``.  The cache key is the whole source's hash whatever
    ``K`` is, so a host with another core count binds the same .so."""
    directory = _cache_dir(cache_dir)
    cores = _cores()
    build = Build()
    try:
        for source, exports, tag, *rest in units:
            split = rest[0] if rest else None
            cflags = rest[1] if len(rest) > 1 else CFLAGS
            unit = _Unit(exports, os.path.join(
                directory, f"{tag}-{so_cache_key(source, cflags)}.so"),
                cflags)
            build.units.append(unit)
            if os.path.exists(unit.so_path) or any(
                    u.procs and u.so_path == unit.so_path
                    for u in build.units):
                continue
            if build.cc is None:
                build.cc = _find_cc()
                if build.cc is None:
                    raise RuntimeError("NL-NO-CC: no C compiler on PATH")
                _sweep(directory)
            cc = build.cc
            unit.src = _temp(directory, unit.name, ".tmp.c")
            unit.out = _temp(directory, unit.name, ".so.tmp")
            unit.temps += [unit.src, unit.out]
            with open(unit.src, "w") as fh:
                fh.write(source)
            if split is not None:
                unit.parts = max(1, min(cores,
                                        source.count("\n") // PART_LINES))
            if unit.parts > 1:
                argvs = []
                for i, text in enumerate(split(unit.parts)):
                    part = _temp(directory, unit.name, f".part{i}.c")
                    obj = part[:-2] + ".o"
                    unit.temps += [part, obj]
                    with open(part, "w") as fh:
                        fh.write(text)
                    argvs.append([cc, "-c", *cflags[1:], "-o", obj, part])
            else:
                argvs = [[cc, *cflags, "-o", unit.out, unit.src]]
            for argv in argvs:
                unit.procs.append(_spawn(argv))
    except BaseException:
        build._abort()
        raise
    return build


# ---------------------------------------------------------------------------
# per-program lowering registry (a process backend worker adopts its
# parent's lowering and library; it never lowers or compiles)
# ---------------------------------------------------------------------------

class NativeContext:
    """Lowering + compiled library for one program — or, adopted from a
    parent that has no library, neither, and the parent's ``NL-*``
    reason."""

    def __init__(self, lowering: Optional[Lowering],
                 lib: Optional[CompiledLib], reason: str = ""):
        self.lowering = lowering
        self.lib = lib
        self.reason = reason


#: program -> context, weakly keyed: a context must not reference its
#: Program strongly (a Lowering holds no node above the declarations), so
#: it is collected with the program — e.g. when the stage cache's
#: bounded memory tier evicts the ``lower-native`` artifact
_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def build_contexts(requests: Sequence[Tuple], cache_dir: Optional[str]
                   = None) -> Tuple[List[NativeContext], Build]:
    """Lower, compile and bind a batch of ``(program, sema,
    controlled[, tracked])`` requests: the native contexts in request
    order, and the :class:`Build` that made the ones no memoized context
    served (every compiler of the batch starts before any is waited
    for; an empty ``Build`` when nothing was compiled).

    ``controlled`` is the set of loop nids that may carry a controller
    (``None``: any loop); ``tracked`` asks for the instrumented unit
    with the hooks of those candidate loops (built with
    :data:`TRACED_CFLAGS`).  Raises ``RuntimeError`` with an ``NL-*``
    reason when the backend is unavailable.  Results are memoized per
    program object; a memoized context serves only requests its own
    sets cover; any other re-lowers for the union of the two, so a
    program's context only ever widens.  An adopted context with no
    library raises its reason."""
    contexts = [_CONTEXTS.get(request[0]) for request in requests]
    for ctx in contexts:
        if ctx is not None and ctx.lib is None:
            raise RuntimeError(ctx.reason)
    wants = [(request[2], request[3] if len(request) > 3 else None)
             for request in requests]
    missing = [i for i, (ctx, (controlled, tracked))
               in enumerate(zip(contexts, wants))
               if ctx is None or not ctx.lowering.covers(
                   controlled, tracked or frozenset())]
    if not missing:
        return contexts, Build()
    ok, reason = native_backend_available()
    if not ok:
        raise RuntimeError(reason)
    lowerings = []
    for i in missing:
        controlled, tracked = wants[i]
        old = contexts[i].lowering if contexts[i] is not None else None
        if old is not None and controlled is not None:
            controlled = None if old.controlled is None \
                else old.controlled | controlled
        if old is not None and old.tracked is not None:
            tracked = old.tracked | (tracked or frozenset())
        lowerings.append(lower_program(requests[i][0], requests[i][1],
                                       controlled, tracked))
    build = start(
        [(low.source, low.exports, f"prog-{low.fingerprint}", low.parts,
          CFLAGS if low.tracked is None else TRACED_CFLAGS)
         for low in lowerings], cache_dir)
    for i, low, lib in zip(missing, lowerings, build.finish()):
        contexts[i] = _CONTEXTS[requests[i][0]] = NativeContext(low, lib)
    return contexts, build


def native_context_for(program, sema, controlled=None,
                       tracked=None) -> NativeContext:
    """The (lowered, compiled, bound) native context for one program:
    :func:`build_contexts` in the default .so cache."""
    (context,), _ = build_contexts([(program, sema, controlled, tracked)])
    return context


def adopt(program, lowering: Optional[Lowering], path: Optional[str],
          reason: str = "") -> None:
    """Register a context lowered and compiled in another process (a
    process backend worker adopting its parent's), so that no request
    for ``program`` here lowers, probes the toolchain or compiles: bind
    the library at ``path``, or, when the parent has none, keep its
    ``NL-*`` ``reason``, which every request then raises.  Raises
    ``OSError`` when the library cannot be bound."""
    lib = None
    if path is not None:
        handles, binder = _bind(path, lowering.exports)
        lib = CompiledLib(path, handles, True, 0.0, binder)
    _CONTEXTS[program] = NativeContext(lowering, lib, reason)
