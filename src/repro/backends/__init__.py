"""First-class SpGEMM engine table and adaptive selection.

See ``docs/ARCHITECTURE.md`` §10.  ``BACKENDS`` holds the built-in
engines: ``ac-spgemm``, ``hash-spgemm`` (nsparse-style binned
scratchpad hash), ``hashmap-spgemm`` (Deveci-style multi-level
hashmap) and ``adaptive`` (per-multiply routing over the other three).
"""

from .base import Backend
from .registry import BACKENDS, available_backends, get_backend, run_backend
from .selector import AdaptiveSelector, SelectionFeatures, collect_features

__all__ = [
    "AdaptiveSelector",
    "BACKENDS",
    "Backend",
    "SelectionFeatures",
    "available_backends",
    "collect_features",
    "get_backend",
    "run_backend",
]
