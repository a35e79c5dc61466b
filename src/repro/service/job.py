"""The canonical request object of the toolchain.

:class:`CompileOptions` captures everything that determines the
*compiled artifact* — the inputs of the stage-cache keys — and
:class:`Job` adds the run-side parameters (thread count, backend,
scheduling) plus the source itself.  One frozen value object replaces
the kwarg sprawl that grew across ``expand_and_run``, ``run_parallel``
and the CLI: the same ``Job`` drives the in-process API, the pipeline
stages, and the ``repro serve`` wire protocol (``to_dict`` /
``from_dict`` are the line-JSON encoding).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

from ..transform.pipeline import OptFlags

#: OptFlags field order used by :attr:`CompileOptions.opt`
OPT_FIELDS = (
    "selective_promotion", "trivial_span_elim", "constant_spans",
    "hoisting", "licm",
)

LAYOUTS = ("bonded", "interleaved", "adaptive")
EXPANSION_SOURCES = ("static", "profile")
BACKENDS = ("simulated", "process")


def _opt_tuple(optimize) -> Tuple[bool, ...]:
    """Normalize bool / OptFlags / tuple to the canonical 5-tuple."""
    if isinstance(optimize, (tuple, list)):
        if len(optimize) != len(OPT_FIELDS):
            raise ValueError(
                f"opt tuple needs {len(OPT_FIELDS)} entries "
                f"({', '.join(OPT_FIELDS)}), got {len(optimize)}"
            )
        return tuple(bool(v) for v in optimize)
    flags = OptFlags.from_bool(optimize)
    return tuple(bool(getattr(flags, name)) for name in OPT_FIELDS)


@dataclass(frozen=True)
class CompileOptions:
    """Everything that shapes the compiled artifact (and therefore the
    stage-cache key): §3.4 optimization toggles, copy layout, expansion
    set source, entry point, strictness and interpreter tier."""

    #: §3.4 toggles in :data:`OPT_FIELDS` order; build via :meth:`make`
    #: to accept a bool or an :class:`~repro.transform.OptFlags`
    opt: Tuple[bool, ...] = (True, True, True, True, True)
    layout: str = "bonded"
    expansion_source: str = "static"
    entry: str = "main"
    strict: bool = True
    #: interpreter tier, or None for ``$REPRO_ENGINE`` / the default
    engine: Optional[str] = None
    #: run the static commutativity prover and upgrade proven
    #: reductions to the commutative access class (§3.2 extension)
    commutative: bool = True

    def __post_init__(self):
        object.__setattr__(self, "opt", _opt_tuple(self.opt))
        if self.layout not in LAYOUTS:
            raise ValueError(f"layout must be one of {LAYOUTS}")
        if self.expansion_source not in EXPANSION_SOURCES:
            raise ValueError(
                f"expansion_source must be one of {EXPANSION_SOURCES}"
            )

    @classmethod
    def make(cls, optimize=True, **kwargs) -> "CompileOptions":
        """Like the constructor, with ``optimize`` accepting the legacy
        bool / :class:`OptFlags` spellings."""
        return cls(opt=_opt_tuple(optimize), **kwargs)

    @property
    def flags(self) -> OptFlags:
        return OptFlags(*self.opt)

    def resolved_engine(self) -> str:
        from ..interp import resolve_engine
        return resolve_engine(self.engine)

    def to_dict(self) -> dict:
        return {
            "opt": list(self.opt),
            "layout": self.layout,
            "expansion_source": self.expansion_source,
            "entry": self.entry,
            "strict": self.strict,
            "engine": self.engine,
            "commutative": self.commutative,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CompileOptions":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown CompileOptions fields: {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class Job:
    """One compile-and-run request: source + candidate loops +
    :class:`CompileOptions` + run-side parameters."""

    source: str
    loop_labels: Tuple[str, ...]
    options: CompileOptions = field(default_factory=CompileOptions)
    nthreads: int = 4
    chunk: int = 1
    check_races: bool = True
    watchdog: Optional[int] = None
    backend: str = "simulated"
    workers: Optional[int] = None
    #: verify parallel output against the sequential baseline
    verify: bool = True

    def __post_init__(self):
        if isinstance(self.loop_labels, str):
            raise TypeError("loop_labels must be a sequence of labels, "
                            "not a single string")
        object.__setattr__(self, "loop_labels",
                           tuple(self.loop_labels))
        if isinstance(self.options, dict):
            object.__setattr__(self, "options",
                               CompileOptions.from_dict(self.options))
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if self.nthreads < 1:
            raise ValueError("nthreads must be >= 1")

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "loop_labels": list(self.loop_labels),
            "options": self.options.to_dict(),
            "nthreads": self.nthreads,
            "chunk": self.chunk,
            "check_races": self.check_races,
            "watchdog": self.watchdog,
            "backend": self.backend,
            "workers": self.workers,
            "verify": self.verify,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown Job fields: {sorted(unknown)}")
        if "source" not in payload or "loop_labels" not in payload:
            raise ValueError("a job needs 'source' and 'loop_labels'")
        return cls(**payload)
