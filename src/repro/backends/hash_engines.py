"""First-class simulated-GPU hash SpGEMM engines.

Two engines, promoted from the host-side cost sketches in
``repro.baselines`` to full pipeline drivers on the simulated device:

``hash-spgemm``
    An nsparse/balanced-hash style binned engine: a device-wide binning
    pass groups A's rows by their temporary-product count, per-bin
    symbolic kernels count nnz per output row in power-of-two
    scratchpad hash tables (rows whose table cannot fit scratchpad run
    against global-memory tables), a device-wide scan builds the row
    pointer, and per-bin numeric kernels accumulate values and emit
    each row sorted by column.

``hashmap-spgemm``
    A Deveci-style (KokkosKernels) multi-level hashmap engine: one
    partitioning pass splits A into contiguous row blocks, then a
    *single* symbolic and a *single* numeric launch run every block
    with a two-level linked-list hashmap — an L1 in scratchpad and an
    L2 spill region in global memory.  Fewer kernel launches and no
    per-row sort (rows are emitted through a cheap compaction
    traversal), at the price of chain-chasing ALU work per probe.

Both engines execute the launch/record protocol of the AC-SpGEMM
driver exactly — per-block :class:`~repro.gpu.cost.CostMeter`\\ s,
real :class:`~repro.gpu.memory.Scratchpad` occupancy,
:func:`~repro.gpu.scheduler.schedule_blocks` makespans, and every pass
and launch reported through the same
:class:`~repro.obs.record.RunRecorder` calls — so
:func:`repro.obs.analyze.reconcile` holds with zero tolerance.
Numerically they model the scheduler-dependent hash
insertion order with a seeded shuffle, so they are *not* bit-stable
(the †-rows of Table 1).

The op list each run executes is built by ``_build_ops`` from pure
row statistics (temporary products and output nnz per row).  The
selector's :meth:`predict_cycles` builds the same op list from
*estimated* per-row output sizes — so the prediction shares every cost
constant and scheduling decision with the execution, and its only
error source is the sampled nnz estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.base import accumulate_products, expand_products
from ..baselines.util import row_temp_counts
from ..core.acspgemm import AcSpgemmResult, MemoryReport
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from ..gpu.memory import Scratchpad
from ..gpu.scheduler import schedule_blocks
from ..obs.device import BlockMeta
from ..obs.record import RunRecorder
from .base import Backend

__all__ = ["NsparseHashBackend", "DeveciHashmapBackend"]


@dataclass
class _BlockWork:
    """One block of a launch: its meter plus trace metadata."""

    block_id: int
    row_lo: int
    row_hi: int
    meter: object
    scratch_high_water: int = 0


@dataclass
class _DevicePass:
    """A device-wide pass (perfect SM parallelism plus one launch)."""

    stage: str
    label: str
    meter: object
    attrs: dict


@dataclass
class _Launch:
    """One scheduled kernel launch over ``works`` blocks."""

    stage: str
    round_index: int
    works: list


def _pow2_ceil(x: np.ndarray) -> np.ndarray:
    """Element-wise next power of two (inputs >= 1)."""
    return (1 << np.ceil(np.log2(np.maximum(x, 1))).astype(np.int64)).astype(
        np.int64
    )


class _SimulatedHashEngine(Backend):
    """Shared driver loop of the two hash engines."""

    bit_stable = False
    stage_keys: tuple[str, ...] = ()

    # -- per-engine plan construction ---------------------------------

    def _build_ops(
        self,
        *,
        temps: np.ndarray,
        nnz_rows: np.ndarray,
        a_lengths: np.ndarray,
        rows: int,
        cols: int,
        nnz_a: int,
        b_rows: int,
        opts: AcSpgemmOptions,
    ) -> tuple[list, dict]:
        """The chronological op list plus memory/blocks info."""
        raise NotImplementedError

    # -- execution -----------------------------------------------------

    def run(self, a, b, options=None, *, recorder=None, scheduler_seed=0):
        opts = options or DEFAULT_OPTIONS
        cfg = opts.device
        launch = opts.costs.kernel_launch_cycles
        rec = recorder or RunRecorder(opts)
        anchor = rec.open(self.name, a, b, self.stage_keys)

        # the true product; the seeded shuffle models the
        # scheduler-dependent hash insertion order (not bit-stable)
        rows_e, cols_e, vals_e = expand_products(a, b, opts.value_dtype)
        c = accumulate_products(
            rows_e, cols_e, vals_e, a.rows, b.cols, shuffle_seed=scheduler_seed
        )
        temps = np.asarray(row_temp_counts(a, b), dtype=np.int64)
        nnz_rows = np.asarray(c.row_lengths(), dtype=np.int64)

        ops, info = self._build_ops(
            temps=temps,
            nnz_rows=nnz_rows,
            a_lengths=np.asarray(a.row_lengths(), dtype=np.int64),
            rows=a.rows,
            cols=b.cols,
            nnz_a=a.nnz,
            b_rows=b.rows,
            opts=opts,
        )

        for op in ops:
            if isinstance(op, _DevicePass):
                rec.device_wide(
                    op.stage,
                    op.label,
                    op.meter.cycles / cfg.num_sms + launch,
                    op.meter.counters,
                    **op.attrs,
                )
                continue
            rec.launch(
                op.stage,
                rec.schedule([w.meter.cycles for w in op.works]),
                (
                    BlockMeta(
                        worker_id=w.block_id,
                        row_lo=w.row_lo,
                        row_hi=w.row_hi,
                        cycles=w.meter.cycles,
                        done=True,
                        scratch_high_water=w.scratch_high_water,
                        counters=w.meter.counters.snapshot(),
                    )
                    for w in op.works
                ),
                round_index=op.round_index,
                block_counters=[w.meter.counters for w in op.works],
                blocks=len(op.works),
            )

        memory = MemoryReport(
            helper_bytes=info["helper_bytes"],
            chunk_pool_bytes=info["global_table_bytes"],
            chunk_used_bytes=info["global_table_bytes"],
            output_bytes=c.nbytes(),
        )
        return AcSpgemmResult(
            matrix=c,
            stage_cycles=rec.stage_cycles,
            counters=rec.counters,
            memory=memory,
            restarts=0,
            multiprocessor_load=rec.multiprocessor_load,
            n_chunks=0,
            n_blocks=info["n_blocks"],
            clock_ghz=cfg.clock_ghz,
            spans=rec.close(anchor),
            sm_utilization=rec.sm_utilization,
            device_trace=rec.dtrace,
        )

    # -- prediction ----------------------------------------------------

    def predict_cycles(self, features, options: AcSpgemmOptions | None = None) -> float:
        """Replay the engine's own op construction on estimated per-row
        output sizes: the prediction shares every cost constant and
        scheduling decision with the execution."""
        opts = options or DEFAULT_OPTIONS
        cfg = opts.device
        launch = opts.costs.kernel_launch_cycles
        f = features
        temps = np.asarray(f.row_temps, dtype=np.int64)
        compaction = max(1.0, f.compaction)
        nnz_est = np.minimum(
            temps, np.ceil(temps / compaction).astype(np.int64)
        )
        if f.cols:
            np.minimum(nnz_est, f.cols, out=nnz_est)
        ops, _ = self._build_ops(
            temps=temps,
            nnz_rows=nnz_est,
            a_lengths=np.asarray(f.row_lengths_a, dtype=np.int64),
            rows=f.rows,
            cols=f.cols,
            nnz_a=f.nnz_a,
            b_rows=f.inner,
            opts=opts,
        )
        total = 0.0
        for op in ops:
            if isinstance(op, _DevicePass):
                total += op.meter.cycles / cfg.num_sms + launch
            else:
                total += schedule_blocks(
                    [w.meter.cycles for w in op.works],
                    cfg.num_sms,
                    launch_overhead=launch,
                ).makespan_cycles
        return total


class NsparseHashBackend(_SimulatedHashEngine):
    """Binned scratchpad-hash engine (nsparse / balanced hash style)."""

    name = "hash-spgemm"
    stage_keys = ("BIN", "SYM", "PTR", "NUM")

    #: smallest per-row hash table (entries); nsparse's smallest bin
    min_table_entries = 256
    #: fraction of probes that collide and re-probe
    collision_factor = 0.2

    def _capacity_entries(self, opts: AcSpgemmOptions) -> int:
        """Largest power-of-two table fitting scratchpad in the numeric
        phase (entry = column id + value); the same capacity classifies
        rows as local/global in both phases so the binning is stable."""
        cap = opts.device.scratchpad_bytes // opts.element_bytes
        return 1 << int(np.floor(np.log2(max(cap, 2))))

    def _build_ops(
        self, *, temps, nnz_rows, a_lengths, rows, cols, nnz_a, b_rows, opts
    ):
        cfg = opts.device
        make = lambda: self._fresh_meter(opts)  # noqa: E731
        key_bits = self._key_bits(cols)
        ops: list = []

        # ---- BIN: product counts and bin bucketing (device-wide) ----
        m = make()
        m.global_read(rows + 1, 4)
        m.global_read(nnz_a, 4)
        if nnz_a:
            m.global_read(min(nnz_a, b_rows), 4, coalesced=False)
        m.alu(2 * nnz_a + rows)
        m.global_write(rows, 4)
        m.scan(rows)
        m.global_write(rows, 4)
        ops.append(_DevicePass("BIN", "bin", m, {"rows": rows}))

        # ---- binning plan (mirrors what the BIN kernel computed) ----
        cap = self._capacity_entries(opts)
        active = np.nonzero(temps)[0]
        need = np.maximum(self.min_table_entries, 2 * temps[active])
        is_global = need > cap
        local_rows = active[~is_global]
        global_rows = active[is_global]
        sizes = _pow2_ceil(need[~is_global])
        bins = []  # (table_entries, rows in row order)
        for size in np.unique(sizes):
            bins.append((int(size), local_rows[sizes == size]))

        def local_blocks(size: int, bin_rows: np.ndarray, start_id: int):
            rpb = max(1, cap // size)
            blocks = []
            for i in range(0, len(bin_rows), rpb):
                blocks.append((start_id + len(blocks), bin_rows[i : i + rpb]))
            return blocks

        block_id = 0
        sym_launches: list[_Launch] = []
        num_plan: list[tuple[int, list]] = []  # (table size or 0, blocks)
        for rnd, (size, bin_rows) in enumerate(bins):
            blocks = local_blocks(size, bin_rows, block_id)
            block_id += len(blocks)
            num_plan.append((size, blocks))
            works = []
            for bid, blk_rows in blocks:
                bm = make()
                scratch = Scratchpad.for_device(cfg)
                n_r = len(blk_rows)
                scratch.alloc("tables", n_r * size * 4)  # 4-byte keys
                temp_blk = int(temps[blk_rows].sum())
                bm.global_read(2 * n_r, 4)  # row list + pointer pairs
                bm.global_read(int(a_lengths[blk_rows].sum()), 4)
                bm.global_read(temp_blk, 4, coalesced=False)  # gather B cols
                bm.scratchpad(n_r * size)  # table init
                bm.hash_probe(temp_blk, in_scratchpad=True)
                bm.hash_collision(int(self.collision_factor * temp_blk))
                bm.scratchpad(n_r * size)  # count sweep
                bm.global_write(n_r, 4)
                works.append(
                    _BlockWork(
                        bid,
                        int(blk_rows[0]),
                        int(blk_rows[-1]),
                        bm,
                        scratch.high_water,
                    )
                )
            sym_launches.append(_Launch("SYM", rnd, works))
        if len(global_rows):
            works = []
            gblocks = []
            for r in global_rows.tolist():
                bid = block_id
                block_id += 1
                gblocks.append((bid, np.array([r], dtype=np.int64)))
                bm = make()
                temp_r = int(temps[r])
                bm.global_read(2, 4)
                bm.global_read(int(a_lengths[r]), 4)
                bm.global_read(temp_r, 4, coalesced=False)
                bm.hash_probe(temp_r, in_scratchpad=False)
                bm.hash_probe(
                    int(self.collision_factor * temp_r), in_scratchpad=False
                )
                bm.global_write(1, 4)
                works.append(_BlockWork(bid, r, r, bm))
            sym_launches.append(_Launch("SYM", len(bins), works))
            num_plan.append((0, gblocks))
        ops.extend(sym_launches)

        # ---- PTR: row-pointer prefix scan (device-wide) -------------
        m = make()
        m.global_read(rows, 4)
        m.scan(rows)
        m.global_write(rows + 1, 4)
        ops.append(_DevicePass("PTR", "row_ptr", m, {}))

        # ---- NUM: accumulate values, sort each row, write C ---------
        for rnd, (size, blocks) in enumerate(num_plan):
            works = []
            for bid, blk_rows in blocks:
                bm = make()
                n_r = len(blk_rows)
                temp_blk = int(temps[blk_rows].sum())
                nnz_blk = int(nnz_rows[blk_rows].sum())
                high_water = 0
                if size:  # scratchpad bin
                    scratch = Scratchpad.for_device(cfg)
                    scratch.alloc("tables", n_r * size * opts.element_bytes)
                    high_water = scratch.high_water
                    bm.global_read(2 * n_r, 4)
                    bm.global_read(
                        int(a_lengths[blk_rows].sum()), opts.element_bytes
                    )
                    bm.global_read(temp_blk, opts.element_bytes, coalesced=False)
                    bm.scratchpad(n_r * size)  # table init
                    bm.hash_probe(temp_blk, in_scratchpad=True)
                    bm.hash_collision(int(self.collision_factor * temp_blk))
                else:  # global-table bin
                    bm.global_read(2 * n_r, 4)
                    bm.global_read(
                        int(a_lengths[blk_rows].sum()), opts.element_bytes
                    )
                    bm.global_read(temp_blk, opts.element_bytes, coalesced=False)
                    bm.hash_probe(temp_blk, in_scratchpad=False)
                    bm.hash_probe(
                        int(self.collision_factor * temp_blk), in_scratchpad=False
                    )
                bm.flops(2 * temp_blk)
                bm.radix_sort(nnz_blk, key_bits)  # emit rows column-sorted
                bm.global_write(nnz_blk, opts.element_bytes)
                works.append(
                    _BlockWork(
                        bid,
                        int(blk_rows[0]),
                        int(blk_rows[-1]),
                        bm,
                        high_water,
                    )
                )
            ops.append(_Launch("NUM", rnd, works))

        global_table_bytes = int(
            (2 * temps[global_rows]).sum() * opts.element_bytes
        )
        info = {
            "n_blocks": block_id,
            "global_table_bytes": global_table_bytes,
            # temp counts, bin permutation, row pointer scratch
            "helper_bytes": 8 * rows + 4 * (rows + 1),
        }
        return ops, info


class DeveciHashmapBackend(_SimulatedHashEngine):
    """Two-level linked-list hashmap engine (Deveci et al. style)."""

    name = "hashmap-spgemm"
    stage_keys = ("PART", "SYM", "OUT", "NUM")

    #: ALU ops per probe spent chasing the collision chain
    chain_alu = 2

    def _l1_entries(self, opts: AcSpgemmOptions, *, numeric: bool) -> int:
        """L1 hashmap capacity: key + chain pointer (+ value)."""
        entry = 4 + 4 + (opts.value_dtype.itemsize if numeric else 0)
        return max(1, opts.device.scratchpad_bytes // entry)

    def _build_ops(
        self, *, temps, nnz_rows, a_lengths, rows, cols, nnz_a, b_rows, opts
    ):
        cfg = opts.device
        make = lambda: self._fresh_meter(opts)  # noqa: E731
        ops: list = []

        # ---- PART: product counts and team partition (device-wide) --
        m = make()
        m.global_read(rows + 1, 4)
        m.global_read(nnz_a, 4)
        if nnz_a:
            m.global_read(min(nnz_a, b_rows), 4, coalesced=False)
        m.alu(2 * nnz_a + rows)
        m.scan(rows)
        m.global_write(rows, 4)

        # contiguous row blocks, one team each; a block closes once it
        # holds elements_per_block temporary products (huge rows get a
        # block of their own — the L2 spill absorbs them)
        cap_temp = cfg.elements_per_block
        blocks: list[tuple[int, int]] = []
        start = 0
        acc = 0
        for r in range(rows):
            t = int(temps[r])
            if acc and acc + t > cap_temp:
                blocks.append((start, r))
                start, acc = r, 0
            acc += t
        if rows:
            blocks.append((start, rows))
        ops.append(_DevicePass("PART", "partition", m, {"blocks": len(blocks)}))

        def phase(stage: str, numeric: bool) -> _Launch:
            l1 = self._l1_entries(opts, numeric=numeric)
            entry_bytes = 4 + 4 + (opts.value_dtype.itemsize if numeric else 0)
            works = []
            for bid, (lo, hi) in enumerate(blocks):
                bm = make()
                blk_temps = temps[lo:hi]
                temp_blk = int(blk_temps.sum())
                spilled = 2 * blk_temps > l1
                l2_temp = int(blk_temps[spilled].sum())
                l1_temp = temp_blk - l2_temp
                used = min(l1, 2 * temp_blk)
                high_water = 0
                if used:
                    scratch = Scratchpad.for_device(cfg)
                    scratch.alloc("l1", used * entry_bytes)
                    high_water = scratch.high_water
                bm.global_read(2, 4)  # block descriptor
                bm.global_read(
                    int(a_lengths[lo:hi].sum()), opts.element_bytes if numeric else 4
                )
                bm.global_read(
                    temp_blk, opts.element_bytes if numeric else 4, coalesced=False
                )
                bm.scratchpad(used)  # head-array init
                bm.hash_probe(l1_temp, in_scratchpad=True)
                bm.alu(self.chain_alu * l1_temp)  # chain chase
                bm.hash_probe(l2_temp, in_scratchpad=False)
                bm.alu(self.chain_alu * l2_temp)
                nnz_blk = int(nnz_rows[lo:hi].sum())
                if numeric:
                    bm.flops(2 * temp_blk)
                    l2_nnz = int(nnz_rows[lo:hi][spilled].sum())
                    if l2_nnz:
                        bm.global_read(l2_nnz, opts.element_bytes, coalesced=False)
                    # compaction traversal instead of a per-row sort
                    bm.scratchpad(2 * nnz_blk)
                    bm.alu(2 * nnz_blk)
                    bm.global_write(nnz_blk, opts.element_bytes)
                else:
                    bm.global_write(hi - lo, 4)  # per-row nnz counts
                works.append(_BlockWork(bid, lo, hi - 1, bm, high_water))
            return _Launch(stage, 0, works)

        if blocks:
            ops.append(phase("SYM", numeric=False))

        m = make()
        m.global_read(rows, 4)
        m.scan(rows)
        m.global_write(rows + 1, 4)
        ops.append(_DevicePass("OUT", "row_ptr", m, {}))

        if blocks:
            ops.append(phase("NUM", numeric=True))

        l1_num = self._l1_entries(opts, numeric=True)
        spill_temps = temps[2 * temps > l1_num]
        info = {
            "n_blocks": len(blocks),
            # L2 spill pool: chained (key, value, next) nodes
            "global_table_bytes": int(
                (2 * spill_temps).sum() * (opts.element_bytes + 4)
            ),
            "helper_bytes": 8 * rows + 4 * (rows + 1),
        }
        return ops, info
