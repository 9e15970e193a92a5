"""One recording call per device event.

Every simulated SpGEMM run — the AC-SpGEMM pipeline, the hash engines,
the adaptive selector and the global-ESC fallback — reports its device
events to one :class:`RunRecorder`.  Each event kind has one method: a
device-wide pass, a block-level kernel launch and a host round trip.
Each method writes every view of the event in a fixed order:

1. the :class:`~repro.obs.device.DeviceTrace` record at the current
   span clock (only when ``options.device_trace`` is set);
2. the stage's entry in ``stage_cycles``;
3. the run's :class:`~repro.gpu.counters.TrafficCounters`;
4. the multiprocessor-load and SM-utilisation accumulators (launches
   only);
5. the span leaf, which advances the clock.

The span leaf comes last, so a leaf is emitted right after the host
work it describes, which is what
:func:`~repro.obs.span.host_span_profile` attributes by.

A recorder can host nested runs.  The adaptive selector opens it for
its routing probe and hands it to the engine it routes to.  That
engine's stage keys then follow ``SEL`` in ``stage_cycles``, and its
counters add to the probe's.
"""

from __future__ import annotations

import copy

from ..gpu.counters import TrafficCounters
from ..gpu.scheduler import KernelTiming, schedule_blocks
from ..sparse.validate import validate_csr
from .device import DeviceTrace
from .span import Span, SpanRecorder

__all__ = ["RunRecorder"]


class RunRecorder:
    """The span tree, device trace, stage cycles and counters of one run.

    Built from the run's :class:`~repro.core.options.AcSpgemmOptions`. A
    nested run must be given the same options.  ``dtrace`` is ``None``
    unless ``options.device_trace`` is set.
    """

    def __init__(self, options) -> None:
        cfg = options.device
        self.options = options
        self.num_sms = cfg.num_sms
        self.launch_cycles = options.costs.kernel_launch_cycles
        self.spans = SpanRecorder(clock_ghz=cfg.clock_ghz)
        self.dtrace = (
            DeviceTrace(clock_ghz=cfg.clock_ghz, num_sms=cfg.num_sms)
            if options.device_trace
            else None
        )
        self.stage_cycles: dict[str, float] = {}
        self.counters = TrafficCounters()
        #: lowest load over the launches that filled every SM (Table 3)
        self.multiprocessor_load = 1.0
        self._busy = 0.0
        self._capacity = 0.0
        #: open runs: (anchor span, stage keys, counters at open)
        self._frames: list[tuple[Span, tuple, TrafficCounters]] = []

    @property
    def sm_utilization(self) -> float:
        """Fraction of SM-cycles busy over the block-level launches
        (1.0 when none ran)."""
        return self._busy / self._capacity if self._capacity else 1.0

    # -- run boundaries --------------------------------------------------

    def open(
        self, name: str, a, b, stage_keys=(), *, setup: bool = True, **attrs
    ) -> Span:
        """Open a run's span and register its stage keys, in order.

        Rejects mismatched shapes.  With ``setup``, a ``setup`` span
        validates both operands when ``options.validate_inputs`` is set,
        rejecting non-finite values too under ``options.sanitize``.
        Returns the run's anchor span, to pass to :meth:`close`.
        """
        if a.cols != b.rows:
            raise ValueError(
                f"inner dimensions do not match: A is {a.shape}, B is {b.shape}"
            )
        anchor = self.spans.start(
            name,
            **attrs,
            rows=a.rows,
            inner=a.cols,
            cols=b.cols,
            nnz_a=a.nnz,
            nnz_b=b.nnz,
        )
        self._frames.append((anchor, tuple(stage_keys), copy.copy(self.counters)))
        for key in stage_keys:
            self.stage_cycles.setdefault(key, 0.0)
        if setup:
            opts = self.options
            with self.spans.span("setup", validated=opts.validate_inputs):
                if opts.validate_inputs:
                    # sanitizer mode also rejects non-finite values: a
                    # NaN/Inf input poisons every product it touches,
                    # which the stage-boundary checks cannot tell apart
                    # from corruption
                    validate_csr(a, require_finite=opts.sanitize)
                    validate_csr(b, require_finite=opts.sanitize)
        return anchor

    def close(self, anchor: Span, **attrs) -> Span:
        """Close ``anchor`` and every span still open inside it.

        ``attrs`` land on the anchor.  An anchor that a nested degrade
        already unwound stays as it is.  Returns the anchor, which is
        the tree's root when this run opened the recorder.
        """
        self._frames.pop()
        spans = self.spans
        if anchor.end_cycle is None:
            while spans.current is not anchor:
                spans.finish()
            spans.finish(**attrs)
        return anchor

    def degrade(self, exc) -> None:
        """Abandon the innermost run after the failure ``exc``.

        Unwinds its open spans as aborted, marks the device trace
        truncated (the records so far stay), and drops the run's stage
        cycles, counters and launch statistics.  The caller then records
        the fallback pass.
        """
        from .trace import current_trace_attrs

        _, keys, counters_at_open = self._frames[-1]
        reason = exc.one_line()
        self.spans.abort(reason=reason, **current_trace_attrs())
        self.spans.event("degraded", detail=reason)
        if self.dtrace is not None:
            self.dtrace.mark_truncated(reason)
        for key in keys:
            self.stage_cycles[key] = 0.0
        self.counters = counters_at_open
        self.multiprocessor_load = 1.0
        self._busy = self._capacity = 0.0

    # -- device events ---------------------------------------------------

    def schedule(self, block_cycles) -> KernelTiming:
        """Schedule one launch's blocks over the SMs, keeping the block
        placements only when the trace needs them."""
        return schedule_blocks(
            block_cycles,
            self.num_sms,
            launch_overhead=self.launch_cycles,
            record_placements=self.dtrace is not None,
        )

    def device_wide(
        self,
        stage: str,
        label: str,
        cycles: float,
        counters: TrafficCounters,
        *,
        launches: int = 1,
        pool=None,
        **attrs,
    ) -> None:
        """A pass spread perfectly over the SMs: ``cycles`` on ``stage``,
        the pass's meter ``counters`` plus ``launches`` kernel launches."""
        if self.dtrace is not None:
            delta = counters.snapshot()
            delta["kernel_launches"] += launches
            self.dtrace.record_device_wide(
                stage,
                label,
                start_cycle=self.spans.now,
                cycles=cycles,
                counters=delta,
                pool=pool,
            )
        self.stage_cycles[stage] = self.stage_cycles.get(stage, 0.0) + cycles
        self.counters.merge(counters)
        self.counters.kernel_launches += launches
        self.spans.leaf(label, cycles, stage=stage, **attrs)

    def launch(
        self,
        stage: str,
        timing: KernelTiming,
        workers=(),
        *,
        round_index: int = 0,
        aborted=(),
        block_counters=(),
        pool=None,
        name: str | None = None,
        **attrs,
    ) -> None:
        """One block-level kernel launch scheduled as ``timing``.

        ``workers`` (the dispatched blocks' :class:`BlockMeta`, in
        dispatch order) and ``aborted`` are consumed only when tracing,
        so callers may pass generators.  ``block_counters`` are the
        blocks' traffic deltas.  The leaf is ``{stage}.round`` with a
        ``round`` attribute unless ``name`` is given.
        """
        if self.dtrace is not None:
            self.dtrace.record_launch(
                stage,
                round_index=round_index,
                start_cycle=self.spans.now,
                timing=timing,
                launch_overhead=self.launch_cycles,
                workers=list(workers),
                aborted=list(aborted),
                counters={"kernel_launches": 1},
                pool=pool,
            )
        self.stage_cycles[stage] = (
            self.stage_cycles.get(stage, 0.0) + timing.makespan_cycles
        )
        for delta in block_counters:
            self.counters.merge(delta)
        self.counters.kernel_launches += 1
        if timing.n_blocks >= self.num_sms:
            self.multiprocessor_load = min(
                self.multiprocessor_load, timing.multiprocessor_load
            )
        if timing.n_blocks:  # empty launches are pure overhead, not idle SMs
            self._busy += timing.total_block_cycles
            self._capacity += len(timing.sm_busy_cycles) * timing.makespan_cycles
        if name is None:
            name, attrs = f"{stage.lower()}.round", {"round": round_index, **attrs}
        self.spans.leaf(name, timing.makespan_cycles, stage=stage, **attrs)

    def host_round_trip(self, stage: str, pool, detail: str) -> None:
        """A restart: the host grew ``pool`` and relaunches ``stage``."""
        cycles = self.options.costs.host_round_trip_cycles
        self.spans.event("restart", detail=detail)
        if self.dtrace is not None:
            self.dtrace.record_host(
                stage,
                "restart",
                start_cycle=self.spans.now,
                cycles=cycles,
                counters={"host_round_trips": 1},
                pool=pool,
            )
        self.stage_cycles[stage] += cycles
        self.counters.host_round_trips += 1
        self.spans.leaf(
            f"{stage.lower()}.restart",
            cycles,
            stage=stage,
            pool_bytes=pool.capacity_bytes,
        )

    def finalize_chunks(self, pool, n_esc_blocks: int) -> None:
        """Record the final pool's chunks per ESC block in the trace."""
        if self.dtrace is not None:
            self.dtrace.finalize_chunks(pool, n_esc_blocks)
