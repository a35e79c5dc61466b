"""The dependence tracker of an instrumented unit, seen from Python.

An instrumented unit (``lower_program(..., tracked=loops)``) carries
the profiler's observer in C (``codegen._TRACKER``): its accesses,
stack and heap records and the entry, iterations and exit of its
candidate loops call the tracker ``Env.tr`` points at.  A
:class:`Tracker` owns one: it makes it for one candidate loop, is the
access observer through which Python builtins (``memset``,
``memcpy``, ``calloc``, ...) report theirs, hands it the records
``Memory`` makes while C waits (globals, string literals, blocks from
Python builtins), and turns its summary into a
:class:`~repro.analysis.profiler.LoopProfile`.  The sets and dicts of
that profile are filled in the order the Python observer fills them,
so they iterate alike.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Tuple

from ...analysis.ddg import ANTI, FLOW, OUTPUT, Dep
from .codegen import TRACKED_KINDS
from .runtime import NATIVE_FRAMES

_KIND_NO = {kind: i for i, kind in enumerate(TRACKED_KINDS)}
_DEP_KINDS = (FLOW, ANTI, OUTPUT)
#: the site flags, in the order of the stamps beside them
_ST, _LD, _UP, _DOWN = 1, 2, 4, 8

_I64 = ctypes.c_int64


class _Head(ctypes.Structure):
    """``RpTrHead`` in ``codegen._TRACKER_HEAD``."""

    _fields_ = [(name, _I64) for name in (
        "loop", "in_loop", "iter", "exec", "ex_lo", "ex_hi",
        "executions", "iterations", "loop_cy8", "fail")]


class Tracker:
    """One C tracker for candidate loop ``loop_nid``, in the library at
    ``path``.  ``labels`` maps ``(kind number, tag)`` to the ``Memory``
    label of the records the unit makes itself; :meth:`close` frees
    the tracker's memory."""

    def __init__(self, path: str, loop_nid: int,
                 labels: Dict[Tuple[int, int], str]):
        lib = self._lib = ctypes.CDLL(path)
        lib.rp_tr_new.argtypes = []
        lib.rp_tr_new.restype = ctypes.c_void_p
        lib.rp_tr_free.argtypes = [ctypes.c_void_p]
        lib.rp_tr_free.restype = None
        for name in ("rp_tr_access", "rp_tr_alloc"):
            getattr(lib, name).argtypes = [ctypes.c_void_p] + [_I64] * 4
            getattr(lib, name).restype = None
        lib.rp_tr_dump.argtypes = [ctypes.c_void_p,
                                   ctypes.POINTER(_I64), _I64]
        lib.rp_tr_dump.restype = _I64
        self.ptr = lib.rp_tr_new()
        if not self.ptr:
            raise MemoryError("dependence tracker: out of memory")
        self.head = _Head.from_address(self.ptr)
        self.head.loop = loop_nid
        self.labels = dict(labels)
        self._access = lib.rp_tr_access
        self._alloc = lib.rp_tr_alloc

    # -- what Python reports ----------------------------------------------
    def on_access(self, site: int, addr: int, size: int, is_store: bool):
        self._access(self.ptr, site, addr, size, int(is_store))

    def on_alloc(self, record) -> None:
        """``Memory.alloc_hook``: a record Python made (C reports the
        variables of its own frames, so their covering record is not)."""
        if record.label == NATIVE_FRAMES:
            return
        kind = _KIND_NO[record.kind]
        self.labels.setdefault((kind, record.tag), record.label)
        self._alloc(self.ptr, record.addr, record.size, kind, record.tag)

    # -- the summary ------------------------------------------------------
    def fill(self, profile) -> None:
        """Everything the tracker learned, into ``profile`` (all but
        ``total_cycles``, which is the machine's)."""
        head = self.head
        if head.fail:
            raise MemoryError("dependence tracker: out of memory")
        dump = self._lib.rp_tr_dump
        buf = (_I64 * dump(self.ptr, None, 0))()
        dump(self.ptr, buf, len(buf))
        vals = buf[:]
        ns, ne, nso, _ = vals[:4]
        at = 4
        sites = [vals[i:i + 8] for i in range(at, at + 8 * ns, 8)]
        at += 8 * ns
        edges = sorted((vals[i:i + 4] for i in range(at, at + 4 * ne, 4)),
                       key=lambda e: e[3])
        at += 4 * ne
        sobj = sorted((vals[i:i + 4] for i in range(at, at + 4 * nso, 4)),
                      key=lambda o: o[3])
        at += 4 * nso
        sizes = {(vals[i], vals[i + 1]): vals[i + 3]
                 for i in range(at, len(vals), 4)}
        ddg = profile.ddg
        for nid, dyn, *_ in sorted(sites, key=lambda s: s[3]):
            ddg.sites.add(nid)
            ddg.dyn_counts[nid] = dyn
        for flag, stamp, into in ((_ST, 4, ddg.store_sites),
                                  (_LD, 5, ddg.load_sites),
                                  (_UP, 6, ddg.upward_exposed),
                                  (_DOWN, 7, ddg.downward_exposed)):
            for site in sorted((s for s in sites if s[2] & flag),
                               key=lambda s: s[stamp]):
                into.add(site[0])
        for src, dst, code, _ in edges:
            ddg.edges.add(Dep(src, dst, _DEP_KINDS[code >> 1],
                              bool(code & 1)))
        for site, kind, tag, _ in sobj:
            key = (TRACKED_KINDS[kind], tag)
            profile.site_objects.setdefault(site, set()).add(key)
            if key not in profile.object_labels:
                profile.object_labels[key] = self.labels[kind, tag]
                profile.object_sizes[key] = sizes[kind, tag]
        profile.executions = head.executions
        profile.iterations = head.iterations
        profile.loop_cycles = head.loop_cy8 / 8

    def close(self) -> None:
        if self.ptr:
            self._lib.rp_tr_free(self.ptr)
            self.ptr = None
            self.head = None
