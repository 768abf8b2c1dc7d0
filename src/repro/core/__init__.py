"""KIFF: the paper's primary contribution."""

from .config import KiffConfig
from .heap import KnnHeap
from .kiff import kiff
from .rcs import (
    RankedCandidateSets,
    build_rcs,
    build_rcs_reference,
    count_rcs_candidates,
)
from .result import ConstructionResult

__all__ = [
    "ConstructionResult",
    "KiffConfig",
    "KnnHeap",
    "RankedCandidateSets",
    "build_rcs",
    "build_rcs_reference",
    "count_rcs_candidates",
    "kiff",
]
