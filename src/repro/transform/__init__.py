"""The paper's contribution: general data structure expansion."""

from .expand import ExpandedVar, ExpansionResult, INIT_FN_NAME
from .expand import ADAPTIVE, BONDED, INTERLEAVED
from .pipeline import (
    DOALL, DOACROSS, ExpansionPipeline, OptFlags, QuarantinedLoop,
    TransformResult, TransformedLoop, expand_for_threads, parse_loop_kind,
)
from .promote import (
    PTR_FIELD, PromotionPlan, SPAN_FIELD, TransformError, TypePromoter,
    promote_program,
)
from .redirect import RedirectStats, redirect_private_derefs
from .rewrite import clone_program, origin_of

__all__ = [
    "expand_for_threads", "ExpansionPipeline", "TransformResult",
    "TransformedLoop", "DOALL", "DOACROSS", "parse_loop_kind",
    "QuarantinedLoop",
    "OptFlags", "BONDED", "INTERLEAVED", "ADAPTIVE",
    "PromotionPlan", "TypePromoter", "promote_program", "TransformError",
    "PTR_FIELD", "SPAN_FIELD",
    "ExpansionResult", "ExpandedVar", "INIT_FN_NAME",
    "RedirectStats", "redirect_private_derefs",
    "clone_program", "origin_of",
]
