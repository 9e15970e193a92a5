"""AC-SpGEMM as a registered backend.

A thin adapter: the driver in ``repro.core.acspgemm`` already produces
the full result contract; this class adds the registry name, the
recorder passthrough the selector needs, and the
partition-faithful cycle prediction used for routing.
"""

from __future__ import annotations

import numpy as np

from ..core.acspgemm import ac_spgemm
from ..core.options import AcSpgemmOptions, DEFAULT_OPTIONS
from ..gpu.radix import bits_required
from ..gpu.scheduler import schedule_blocks
from .base import Backend

__all__ = ["AcSpgemmBackend"]


class AcSpgemmBackend(Backend):
    """The paper's adaptive chunk-based ESC pipeline."""

    name = "ac-spgemm"
    bit_stable = True

    def run(self, a, b, options=None, *, recorder=None, scheduler_seed=0):
        # bit-stable by construction: the scheduler seed cannot change
        # the sorted accumulation order, so it is ignored
        return ac_spgemm(a, b, options, recorder=recorder)

    def predict_cycles(self, features, options: AcSpgemmOptions | None = None) -> float:
        """Sum of the predicted per-stage makespans."""
        return float(sum(self.predict_stage_cycles(features, options).values()))

    def predict_stage_cycles(
        self, features, options: AcSpgemmOptions | None = None
    ) -> dict[str, float]:
        """Per-stage cycle prediction replaying the pipeline's shape.

        Rebuilds the decisions the driver would actually take from the
        Table-2 row statistics: the GLB partition (uniform slices of
        A's non-zeros), per-block ESC iteration counts, the shared rows
        produced by block and iteration cuts, the Multi/Path Merge
        split and the capacity-packed merge groups.  Every term is
        charged to a meter and scheduled over the SMs exactly like the
        execution, so the estimate moves with the cost constants and
        tracks the measured stage makespans to within a few percent —
        close enough for the adaptive selector to resolve engine gaps
        of ~5%.
        """
        opts = options or DEFAULT_OPTIONS
        cfg = opts.device
        costs = opts.costs
        launch = costs.kernel_launch_cycles
        eb = opts.element_bytes
        f = features

        if f.nnz_a == 0 or f.temp_products == 0:
            # GLB over an empty partition plus the trivial output pass
            m = self._fresh_meter(opts)
            m.global_read(f.rows + 1, 8)
            m.scan(f.rows)
            return {"GLB": launch + m.cycles / cfg.num_sms, "CC": launch}

        temps = np.asarray(f.row_temps, dtype=np.int64)
        lens = np.asarray(f.row_lengths_a, dtype=np.int64)
        npb = cfg.nnz_per_block_glb
        epb = cfg.elements_per_block
        n_blocks = -(-f.nnz_a // npb)
        bounds = np.minimum(np.arange(n_blocks + 1) * npb, f.nnz_a)
        cum_e = np.concatenate([[0], np.cumsum(lens)])
        cum_t = np.concatenate([[0], np.cumsum(temps)])
        # per-block temp load / row span, linearly interpolated within
        # rows (entries of one row share its temp count uniformly)
        t_at = np.interp(bounds, cum_e, cum_t)
        r_at = np.interp(bounds, cum_e, np.arange(f.rows + 1))
        block_t = np.diff(t_at)
        block_e = np.diff(bounds)
        block_r = np.maximum(1.0, np.diff(r_at))

        compaction = max(1.0, f.compaction)
        span_cols = max(2.0, f.span_fraction * max(f.cols, 2))
        col_bits = int(
            np.clip(
                np.ceil(np.log2(span_cols)), 4, bits_required(max(f.cols - 1, 1))
            )
        )
        if not opts.enable_bit_reduction:
            col_bits = bits_required(max(f.cols - 1, 1))

        # ---- ESC: one meter per GLB block, scheduled over the SMs ----
        block_cycles = []
        for e, t, rws in zip(block_e, block_t, block_r):
            m = self._fresh_meter(opts)
            e = int(e)
            # A fetch, local row ids, unique-row count, B row lengths
            m.global_read(e, eb)
            m.global_read(e, 4)
            m.alu(2 * e)
            m.global_read(e, 8, coalesced=False)
            n_it = max(1, int(np.ceil(t / epb)))
            row_bits = bits_required(int(rws))
            tb = t / n_it
            w = (t / compaction) / n_it
            for _ in range(n_it):
                m.global_read(int(tb), eb)  # expansion gather
                m.flops(int(2 * tb))
                m.scan(int(2 * tb))  # min/max bit-reduction sweeps
                m.radix_sort(int(tb), row_bits + col_bits)
                m.scan(int(tb))  # compaction scan
                m.alu(int(2 * tb))  # neighbour comparisons
                m.scratchpad(int(2 * w))  # chunk staging round trip
                m.global_write(int(w), eb)
                m.global_write(1, 32)  # chunk header
            block_cycles.append(m.cycles)
        esc = schedule_blocks(
            block_cycles, cfg.num_sms, launch_overhead=launch
        ).makespan_cycles

        glb = self._fresh_meter(opts)
        glb.global_read(f.rows + 1, 8)
        glb.global_write(n_blocks, 4)
        glb.alu(2 * f.rows)
        stage_glb = launch + glb.cycles / cfg.num_sms

        # ---- shared rows: block cuts plus iteration-overflow cuts ----
        interior = bounds[1:-1]
        cut_pos = interior[~np.isin(interior, cum_e)]
        cuts = np.zeros(f.rows, dtype=np.int64)
        np.add.at(cuts, np.searchsorted(cum_e, cut_pos, "right") - 1, 1)
        # a row also splits across chunks when its compacted tail cannot
        # be carried between ESC iterations (keep-last-row capacity)
        remaining = np.maximum(1, temps // int(max(1.0, compaction)))
        overflow = remaining > cfg.keep_elements
        cuts += np.where(overflow, np.maximum(0, -(-temps // epb) - 1), 0)
        shared_rows = np.nonzero(cuts > 0)[0]
        n_shared = int(shared_rows.size)
        n_chunks_r = cuts[shared_rows] + 1
        rem_r = remaining[shared_rows]

        mcc = self._fresh_meter(opts)
        mcc.scan(n_shared)
        mcc.global_read(n_shared, 8)
        stage_mcc = launch + mcc.cycles / cfg.num_sms

        mm_mask = (n_chunks_r <= opts.multi_merge_max_chunks) & (rem_r <= epb)

        def merge_block_cost(n_rows: int, elems: int, n_segs: int) -> float:
            m = self._fresh_meter(opts)
            # gather: each segment is its own (transaction-quantised) read
            seg = max(1, int(elems / max(1, n_segs)))
            for _ in range(int(n_segs)):
                m.global_read(seg, eb)
            m.scan(int(2 * elems))  # min/max reduction
            m.radix_sort(
                int(elems), bits_required(max(1, int(n_rows) - 1)) + col_bits
            )
            m.scan(int(elems))
            m.alu(int(2 * elems))
            m.scratchpad(int(2 * elems))
            m.global_write(int(elems), eb)
            m.global_write(1, 32)
            m.atomic(int(n_rows))
            return m.cycles

        # ---- MM: greedy capacity packing, one block per group --------
        stage_mm = launch
        if mm_mask.any():
            mm_rem = rem_r[mm_mask]
            mm_chunks = n_chunks_r[mm_mask]
            csum = np.cumsum(mm_rem)
            group_id = (csum - mm_rem) // epb
            group_costs = [
                merge_block_cost(
                    int(sel.sum()),
                    int(mm_rem[sel].sum()),
                    int(mm_chunks[sel].sum()),
                )
                for gid in np.unique(group_id)
                for sel in ((group_id == gid),)
            ]
            stage_mm = schedule_blocks(
                group_costs, cfg.num_sms, launch_overhead=launch
            ).makespan_cycles

        # ---- PM/SM: one block per oversized shared row ---------------
        stage_pm = 0.0
        if (~mm_mask).any():
            pm_costs = [
                merge_block_cost(1, int(r), int(c))
                for r, c in zip(rem_r[~mm_mask], n_chunks_r[~mm_mask])
            ]
            stage_pm = schedule_blocks(
                pm_costs, cfg.num_sms, launch_overhead=launch
            ).makespan_cycles

        # ---- CC: row pointer scan + chunk copy -----------------------
        est_nnz = max(1.0, f.est_nnz_c)
        cc = self._fresh_meter(opts)
        cc.scan(f.rows)
        cc.global_read(f.rows, 4)
        cc.global_write(f.rows + 1, 8)
        cc.global_read(int(est_nnz), eb)
        cc.global_write(int(est_nnz), eb)
        stage_cc = launch + cc.cycles / cfg.num_sms

        return {
            "GLB": stage_glb,
            "ESC": esc,
            "MCC": stage_mcc,
            "MM": stage_mm,
            "PM": stage_pm,
            "CC": stage_cc,
        }
