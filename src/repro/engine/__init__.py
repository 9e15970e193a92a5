"""Pluggable host execution engines for the block-level stages.

The simulator's observable outputs — the result matrix, per-stage cycle
counts, traffic counters, restart counts, multiprocessor load and the
Table 3 memory statistics — are fully determined by the pipeline's
semantics, not by how the host happens to step the simulated blocks.
That makes the *host execution strategy* pluggable:

``reference``
    The original path: every simulated thread block is stepped one at a
    time in pure Python (:mod:`repro.engine.reference`).  Simple,
    obviously correct, slow.
``batched``
    All ready blocks of a kernel launch are fused into flat numpy
    batches (:mod:`repro.engine.batched`): expansion via one global
    ``searchsorted``, the per-block stable LSD radix sorts replaced by a
    single composite-key ``np.argsort(kind="stable")`` over
    ``(block_id << key_bits) | key``, segment-boundary flags for
    compaction and ``np.add.reduceat`` for accumulation.  Charges the
    identical per-block :class:`~repro.gpu.cost.CostMeter` numbers.
``process``
    The reference engine with ESC rounds on persistent warm worker
    processes (:mod:`repro.engine.process`): operands travel once per
    pair via ``multiprocessing.shared_memory``, workers map them
    zero-copy, and allocations recorded against shadow objects are
    committed serially in block order so pool exhaustion, chunk offsets
    and shared-row attribution stay deterministic.  When the pool is
    unavailable the round runs through the serial reference path.

Every engine produces bit-identical results and identical simulated
statistics; they differ only in host wall-clock time (see
``benchmarks/bench_wallclock.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module


class _Registry(Mapping):
    """Name -> class.  The names are fixed at construction, so ``name in
    registry`` imports nothing; each class is imported on first lookup
    from its ``module:Class`` path, relative to ``package``."""

    def __init__(self, paths: dict[str, str], package: str = __name__):
        self._paths = paths
        self._package = package
        self._classes: dict[str, type] = {}

    def __getitem__(self, name: str) -> type:
        if name not in self._classes:
            module, attr = self._paths[name].split(":")
            self._classes[name] = getattr(
                import_module(module, self._package), attr
            )
        return self._classes[name]

    def __contains__(self, name) -> bool:
        return name in self._paths

    def __iter__(self):
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


#: defined before the ``base`` import below: ``AcSpgemmOptions`` validates
#: its ``engine`` against these names while ``base`` is importing it
ENGINES: Mapping[str, type] = _Registry(
    {
        "reference": ".reference:ReferenceEngine",
        "batched": ".batched:BatchedEngine",
        "process": ".process:ProcessEngine",
    }
)

from .base import Engine, EngineContext, RoundOutcome  # noqa: E402

__all__ = ["Engine", "EngineContext", "RoundOutcome", "ENGINES", "get_engine"]


def get_engine(name: str) -> Engine:
    """Instantiate the engine registered under ``name``."""
    try:
        cls = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        ) from None
    return cls()
