"""Simulated multi-device node: SUMMA over a √P×√P grid.

Generalises the single simulated device of :mod:`repro.gpu` to a
P-device node with a static 4-colour broadcast fabric (ROADMAP item 3).
Entry point::

    from repro.multi import NodeConfig, summa_spgemm

    res = summa_spgemm(a, b, NodeConfig(devices=4), options)
    res.matrix            # deterministic merged product
    res.reconcile()       # exact link/stage/counter cross-checks

Each tile multiply is an ordinary single-device run: with
``options.device_trace=True`` its result carries its own device trace,
``res.reconcile()`` checks every one with
:func:`repro.obs.analyze.reconcile`, and
:func:`repro.obs.export.summa_perfetto_payload` draws them on the node
clock.
"""

from .node import Interconnect, LinkCounters, NodeConfig, link_key
from .partition import GridPartition, assemble_tiles, csr_tile, split_points
from .summa import SummaReconciliationError, SummaResult, summa_spgemm

__all__ = [
    "GridPartition",
    "Interconnect",
    "LinkCounters",
    "NodeConfig",
    "SummaReconciliationError",
    "SummaResult",
    "assemble_tiles",
    "csr_tile",
    "link_key",
    "split_points",
    "summa_spgemm",
]
