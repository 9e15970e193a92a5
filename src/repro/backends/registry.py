"""The table of first-class SpGEMM backends.

``BACKENDS`` is the one list of full engines that take pipeline
options: what ``--engine`` accepts beyond the host execution engines,
what the campaign validates against, what ``repro.baselines`` wraps
for the line-up, and what the CI registry smoke enumerates.  Names are
fixed here, so ``name in BACKENDS`` imports nothing; each class is
imported on first lookup.  Adding an engine means adding one entry.
"""

from __future__ import annotations

from collections.abc import Mapping

from ..engine import _Registry

__all__ = ["BACKENDS", "get_backend", "available_backends", "run_backend"]

#: name -> Backend subclass (not instance: backends are stateless, but
#: a fresh instance per lookup keeps accidental state from leaking)
BACKENDS: Mapping[str, type] = _Registry(
    {
        "ac-spgemm": ".acspgemm_backend:AcSpgemmBackend",
        "adaptive": ".selector:AdaptiveSelector",
        "hash-spgemm": ".hash_engines:NsparseHashBackend",
        "hashmap-spgemm": ".hash_engines:DeveciHashmapBackend",
    },
    package=__package__,
)


def available_backends() -> tuple[str, ...]:
    """Backend names, sorted for deterministic enumeration."""
    return tuple(sorted(BACKENDS))


def get_backend(name: str):
    """A fresh instance of the backend registered under ``name``."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown backend {name!r}; registered: {known}") from None
    return cls()


def run_backend(name: str, a, b, options=None, **kwargs):
    """Convenience: look up ``name`` and run one multiply."""
    return get_backend(name).run(a, b, options, **kwargs)
