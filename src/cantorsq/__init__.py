"""Exact interval arithmetic on middle-1/alpha Cantor sets.

The package computes images of Cantor level sets under sums, differences
and sums of squares, audits the subdivision lemma that drives the
four-square decomposition, and produces independently verifiable
decomposition certificates.  ``__all__`` lists the public API; helpers
such as ``decompose.choose_fourth`` or ``lemmas.CHILD_INDICES`` are
imported from their modules.
"""

from .certificate import Band, Certificate, band_interval, verify_certificate
from .decompose import decompose_four
from .errors import (
    CantorsqError,
    CapExceeded,
    InternalInconsistencyError,
    SearchExhausted,
    ThinRegimeError,
)
from .ifs import (
    ALL_LEFT,
    ALL_RIGHT,
    CantorParams,
    CantorPoint,
    level_left_endpoints,
    level_set,
    make_params,
    params_from_ratio,
    word_from_left_endpoint,
    word_left_endpoint,
)
from .images import (
    ImageRequest,
    MapKind,
    cover_report,
    enumeration_count,
    gap_check,
    image,
    nestedness_check,
)
from .lemmas import (
    TripleBox,
    base_boxes,
    child_box,
    cond_invariant,
    cond_overlap,
    overlap_chain_margins,
    refine_step,
    verify_overlap_lemma,
)
from .numerics import Interval, IntervalUnion, rat

__version__ = "0.1.0"

__all__ = [
    "ALL_LEFT",
    "ALL_RIGHT",
    "Band",
    "CantorParams",
    "CantorPoint",
    "CantorsqError",
    "CapExceeded",
    "Certificate",
    "ImageRequest",
    "InternalInconsistencyError",
    "Interval",
    "IntervalUnion",
    "MapKind",
    "SearchExhausted",
    "ThinRegimeError",
    "TripleBox",
    "band_interval",
    "base_boxes",
    "child_box",
    "cond_invariant",
    "cond_overlap",
    "cover_report",
    "decompose_four",
    "enumeration_count",
    "gap_check",
    "image",
    "level_left_endpoints",
    "level_set",
    "make_params",
    "nestedness_check",
    "overlap_chain_margins",
    "params_from_ratio",
    "rat",
    "refine_step",
    "verify_certificate",
    "verify_overlap_lemma",
    "word_from_left_endpoint",
    "word_left_endpoint",
]
