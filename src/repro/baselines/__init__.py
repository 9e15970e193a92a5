"""Competing SpGEMM implementations (systems S12–S17 of DESIGN.md),
reimplemented on the shared simulated device for apples-to-apples
comparison with AC-SpGEMM."""

from .adapter import BackendAlgorithm
from .balanced_hash import BalancedHash
from .base import (
    SpGEMMAlgorithm,
    SpGEMMRun,
    accumulate_products,
    expand_products,
)
from .bhsparse import BhSparse
from .cusparse_like import CusparseLike
from .esc_global import EscGlobal
from .gustavson import GustavsonCPU
from .kokkos_like import KokkosLike
from .mkl_like import MklLikeCPU
from .nsparse import NsparseHash
from .registry import ALL_ALGORITHMS, GPU_ALGORITHMS, make_algorithm, make_lineup
from .rmerge import RMerge
from .util import row_temp_counts

__all__ = [
    "ALL_ALGORITHMS",
    "BackendAlgorithm",
    "BalancedHash",
    "BhSparse",
    "CusparseLike",
    "EscGlobal",
    "GPU_ALGORITHMS",
    "GustavsonCPU",
    "KokkosLike",
    "MklLikeCPU",
    "NsparseHash",
    "RMerge",
    "SpGEMMAlgorithm",
    "SpGEMMRun",
    "accumulate_products",
    "expand_products",
    "make_algorithm",
    "make_lineup",
    "row_temp_counts",
]
