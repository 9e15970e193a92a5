"""Algorithm registry: name -> constructor, as used by the benches.

``GPU_ALGORITHMS`` is the evaluation line-up of the paper's figures
(AC-SpGEMM, cuSPARSE, bhSparse, RMerge, nsparse, Kokkos);
``ALL_ALGORITHMS`` adds the CUSP-style global ESC, the balanced hash,
the CPU references and every other ``repro.backends`` engine.  Every
backend name maps to :class:`BackendAlgorithm`; the rest are
fixed-function baselines that take no pipeline options.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from ..backends.registry import BACKENDS
from ..gpu.config import DeviceConfig, TITAN_XP
from ..gpu.cost import CostConstants, DEFAULT_COSTS
from .adapter import BackendAlgorithm
from .balanced_hash import BalancedHash
from .base import SpGEMMAlgorithm
from .bhsparse import BhSparse
from .cusparse_like import CusparseLike
from .esc_global import EscGlobal
from .gustavson import GustavsonCPU
from .kokkos_like import KokkosLike
from .mkl_like import MklLikeCPU
from .nsparse import NsparseHash
from .rmerge import RMerge

__all__ = [
    "GPU_ALGORITHMS",
    "ALL_ALGORITHMS",
    "make_algorithm",
    "make_lineup",
]

GPU_ALGORITHMS: dict[str, Callable[..., SpGEMMAlgorithm]] = {
    "ac-spgemm": partial(BackendAlgorithm, "ac-spgemm"),
    CusparseLike.name: CusparseLike,
    BhSparse.name: BhSparse,
    RMerge.name: RMerge,
    NsparseHash.name: NsparseHash,
    KokkosLike.name: KokkosLike,
}

ALL_ALGORITHMS: dict[str, Callable[..., SpGEMMAlgorithm]] = {
    **GPU_ALGORITHMS,
    EscGlobal.name: EscGlobal,
    BalancedHash.name: BalancedHash,
    GustavsonCPU.name: GustavsonCPU,
    MklLikeCPU.name: MklLikeCPU,
    **{name: partial(BackendAlgorithm, name) for name in BACKENDS},
}


def make_algorithm(
    name: str,
    device: DeviceConfig = TITAN_XP,
    costs: CostConstants = DEFAULT_COSTS,
) -> SpGEMMAlgorithm:
    """Instantiate a registered algorithm by name."""
    try:
        cls = ALL_ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {sorted(ALL_ALGORITHMS)}"
        ) from None
    return cls(device=device, costs=costs)


def make_lineup(
    names=None,
    device: DeviceConfig = TITAN_XP,
    costs: CostConstants = DEFAULT_COSTS,
) -> list[SpGEMMAlgorithm]:
    """The paper's evaluation line-up (or a named subset)."""
    if names is None:
        names = list(GPU_ALGORITHMS)
    return [make_algorithm(n, device=device, costs=costs) for n in names]
