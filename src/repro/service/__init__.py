"""The resident expansion service: a staged, cacheable pipeline API
behind ``repro serve``.

Three layers, each usable on its own:

* :class:`Job` / :class:`CompileOptions` — the canonical request
  object consolidating the kwarg surface of the one-call APIs.
* :class:`StagedCompiler` + :class:`StageCache` — explicit pipeline
  stages (parse → sema → profile → classify → expand → optimize →
  plan → lower), each memoized under a chained content hash with a
  durable on-disk tier.
* :class:`SessionPool` + :class:`ExpansionService` — warm process
  sessions reused across requests, served over a Unix socket.
"""

from .cache import MISS, StageCache, default_cache_root
from .daemon import ExpansionService, request
from .job import BACKENDS, CompileOptions, Job, LAYOUTS, OPT_FIELDS
from .pool import SessionPool
from .runner import JobOutcome, run_job
from .stages import STAGES, CompiledJob, StagedCompiler, stage_keys

__all__ = [
    "Job", "CompileOptions", "OPT_FIELDS", "LAYOUTS", "BACKENDS",
    "StageCache", "default_cache_root", "MISS",
    "StagedCompiler", "CompiledJob", "STAGES", "stage_keys",
    "SessionPool",
    "JobOutcome", "run_job",
    "ExpansionService", "request",
]
