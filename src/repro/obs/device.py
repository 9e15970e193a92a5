"""Device-level tracing: per-block events, SM timelines, counter attribution.

The simulator computes — and, until now, threw away — exactly the
device-level signals the paper's evaluation is built on: which SM ran
which block for how many cycles (Fig. 7's stage breakdown, Table 3's
"mpL"), how much scratchpad each block actually touched (§3's hard
on-chip bound), how many ESC iterations and sort bits each block needed
(Fig. 9/10), and which stage generated which share of the global
traffic.  :class:`DeviceTrace` captures all of it as an ordered list of
records on the same simulated clock as ``result.spans``:

* a **launch record** per simulated kernel launch (ESC round, merge
  round, chunk copy) holding the scheduler's per-SM busy times plus one
  :class:`BlockEvent` per dispatched block — SM id, start/end cycle,
  A-row range, scratchpad high-water bytes, ESC iteration count, radix
  sort shapes, restart/abort flags and the block's own counter deltas;
* a **device-wide record** per perfectly-parallel pass (GLB, merge case
  assignment, the output row-pointer scan, the degradation fallback);
* a **host record** per restart round trip.

Exactness contract: within one record, block cycles and counters are the
engine outcomes themselves, and summing records chronologically
reproduces ``result.stage_cycles`` / ``result.counters`` / per-launch
``KernelTiming.sm_busy_cycles`` bit-for-bit (floats are re-accumulated
in the scheduler's dispatch order).  The trace is **byte-identical
across the three engines** — every field derives from engine-invariant
data — and zero-cost when ``AcSpgemmOptions.device_trace`` is off.  A
run that degrades to the fallback keeps its partial records and carries
an explicit truncation marker.

The trace renders two Perfetto views: :func:`stage_timeline_events`, the
per-stage kernel timeline of the artifact's "Debug" mode (Appendix
A.4), and :func:`sm_track_events`, the per-SM tracks.

A multi-device SUMMA run keeps one trace per tile run, each on its own
device clock: ``SummaResult.reconcile`` checks every one of them with
:func:`repro.obs.analyze.reconcile`, and :func:`sm_track_events` draws
a device's rounds on the node clock by offsetting them at export.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..gpu.counters import TrafficCounters
from ..gpu.scheduler import KernelTiming

__all__ = [
    "DEVICE_TRACE_SCHEMA",
    "BlockMeta",
    "BlockEvent",
    "DeviceRecord",
    "DeviceTrace",
    "sm_track_events",
    "stage_timeline_events",
]

#: bump when the serialised trace layout changes incompatibly
DEVICE_TRACE_SCHEMA = 1

#: Perfetto process ids of the two device views: the per-stage kernel
#: timeline and the per-SM tracks (host spans use 2 — see
#: ``repro.obs.export``)
DEVICE_STAGE_PID = 1
DEVICE_SM_PID = 3

#: minimum rendered width (us) of a zero-duration stage slice, so the
#: slice stays clickable in the Perfetto UI
MIN_VISIBLE_DUR_US = 1e-3


def _nonzero_counters(counters: dict | None) -> dict:
    """Drop zero fields; deterministic (sorted) key order."""
    if not counters:
        return {}
    return {k: counters[k] for k in sorted(counters) if counters[k]}


@dataclass(frozen=True)
class BlockMeta:
    """What the driver knows about one worker before placement.

    ``counters`` is the block's own :class:`TrafficCounters` delta for
    this round (snapshot dict); ``sort_log`` the radix sorts it ran as
    ``(n_elements, key_bits)`` tuples.  ``row_lo``/``row_hi`` is the
    block's A-row range (-1/-1 when it covers no rows), which is what
    lets reports attribute traffic and re-sorting to regions of A.
    """

    worker_id: int
    row_lo: int
    row_hi: int
    cycles: float = 0.0
    done: bool = True
    aborted: bool = False
    scratch_high_water: int = 0
    esc_iterations: int = 0
    sort_log: tuple = ()
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class BlockEvent:
    """One block's execution inside one launch, placed on an SM."""

    slot: int  # dispatch position within the launch
    worker_id: int
    sm: int  # -1: aborted before dispatch
    start_cycle: float  # absolute (same clock as result.spans)
    end_cycle: float
    cycles: float
    row_lo: int
    row_hi: int
    done: bool
    aborted: bool
    scratch_high_water: int
    esc_iterations: int
    sort_log: tuple
    counters: dict

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "worker_id": self.worker_id,
            "sm": self.sm,
            "start_cycle": self.start_cycle,
            "end_cycle": self.end_cycle,
            "cycles": self.cycles,
            "row_lo": self.row_lo,
            "row_hi": self.row_hi,
            "done": self.done,
            "aborted": self.aborted,
            "scratch_high_water": self.scratch_high_water,
            "esc_iterations": self.esc_iterations,
            "sort_log": [list(s) for s in self.sort_log],
            "counters": _nonzero_counters(self.counters),
        }


@dataclass(frozen=True)
class DeviceRecord:
    """One chronological entry of the device trace.

    ``kind`` is ``"launch"`` (scheduled blocks), ``"device_wide"`` (a
    perfectly-parallel pass charged as ``cycles / num_sms``) or
    ``"host"`` (a restart round trip).  ``counters`` holds the
    *driver-level* counter deltas of this record (kernel launches, host
    round trips, device-wide meters); block-level deltas live on the
    :class:`BlockEvent` entries.  Cycle bookkeeping: ``cycles`` is
    exactly what the driver added to ``stage_cycles[stage]`` for this
    record, so a chronological sum reproduces the stage totals.
    """

    kind: str
    stage: str
    label: str
    start_cycle: float
    cycles: float
    round_index: int = -1
    launch_overhead: float = 0.0
    sm_busy: tuple = ()
    pool_used_bytes: int = 0
    pool_capacity_bytes: int = 0
    counters: dict = field(default_factory=dict)
    blocks: tuple = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "label": self.label,
            "start_cycle": self.start_cycle,
            "cycles": self.cycles,
            "round_index": self.round_index,
            "launch_overhead": self.launch_overhead,
            "sm_busy": list(self.sm_busy),
            "pool_used_bytes": self.pool_used_bytes,
            "pool_capacity_bytes": self.pool_capacity_bytes,
            "counters": _nonzero_counters(self.counters),
            "blocks": [b.to_dict() for b in self.blocks],
        }


class DeviceTrace:
    """Collector and container for one run's device-level trace."""

    def __init__(self, *, clock_ghz: float, num_sms: int) -> None:
        self.clock_ghz = clock_ghz
        self.num_sms = num_sms
        self.records: list[DeviceRecord] = []
        #: ESC block id -> chunks it contributed to the final pool
        self.chunk_counts: dict[int, int] = {}
        self.truncated = False
        self.truncation_reason = ""

    # -- recording (driver-facing) --------------------------------------

    def record_device_wide(
        self,
        stage: str,
        label: str,
        *,
        start_cycle: float,
        cycles: float,
        counters: dict | None = None,
        pool=None,
    ) -> None:
        """A pass that parallelises perfectly over the SMs."""
        self.records.append(
            DeviceRecord(
                kind="device_wide",
                stage=stage,
                label=label,
                start_cycle=start_cycle,
                cycles=cycles,
                pool_used_bytes=pool.used_bytes if pool is not None else 0,
                pool_capacity_bytes=pool.capacity_bytes if pool is not None else 0,
                counters=dict(counters or {}),
            )
        )

    def record_host(
        self,
        stage: str,
        label: str,
        *,
        start_cycle: float,
        cycles: float,
        counters: dict | None = None,
        pool=None,
    ) -> None:
        """A host synchronisation round trip (restart)."""
        self.records.append(
            DeviceRecord(
                kind="host",
                stage=stage,
                label=label,
                start_cycle=start_cycle,
                cycles=cycles,
                pool_used_bytes=pool.used_bytes if pool is not None else 0,
                pool_capacity_bytes=pool.capacity_bytes if pool is not None else 0,
                counters=dict(counters or {}),
            )
        )

    def record_launch(
        self,
        stage: str,
        *,
        round_index: int,
        start_cycle: float,
        timing,
        launch_overhead: float,
        workers: list[BlockMeta],
        aborted: list[BlockMeta] | None = None,
        counters: dict | None = None,
        pool=None,
    ) -> None:
        """One scheduled kernel launch; ``workers`` in dispatch order.

        ``timing`` must come from ``schedule_blocks(...,
        record_placements=True)`` so every worker has a placement.
        Aborted workers (fault injection) never reached an SM and are
        appended after the dispatched blocks with ``sm=-1``.
        """
        placements = timing.placements
        if placements is None:
            raise ValueError("device trace needs schedule_blocks placements")
        if len(placements) != len(workers):
            raise ValueError(
                f"{len(workers)} workers but {len(placements)} placements"
            )
        blocks = []
        for slot, (meta, pl) in enumerate(zip(workers, placements)):
            blocks.append(
                BlockEvent(
                    slot=slot,
                    worker_id=meta.worker_id,
                    sm=pl.sm,
                    start_cycle=start_cycle + pl.start_cycle,
                    end_cycle=start_cycle + pl.end_cycle,
                    cycles=meta.cycles,
                    row_lo=meta.row_lo,
                    row_hi=meta.row_hi,
                    done=meta.done,
                    aborted=False,
                    scratch_high_water=meta.scratch_high_water,
                    esc_iterations=meta.esc_iterations,
                    sort_log=tuple(meta.sort_log),
                    counters=dict(meta.counters),
                )
            )
        for k, meta in enumerate(aborted or []):
            blocks.append(
                BlockEvent(
                    slot=len(workers) + k,
                    worker_id=meta.worker_id,
                    sm=-1,
                    start_cycle=start_cycle,
                    end_cycle=start_cycle,
                    cycles=0.0,
                    row_lo=meta.row_lo,
                    row_hi=meta.row_hi,
                    done=False,
                    aborted=True,
                    scratch_high_water=0,
                    esc_iterations=meta.esc_iterations,
                    sort_log=(),
                    counters={},
                )
            )
        self.records.append(
            DeviceRecord(
                kind="launch",
                stage=stage,
                label=f"{stage.lower()}.round",
                start_cycle=start_cycle,
                cycles=timing.makespan_cycles,
                round_index=round_index,
                launch_overhead=launch_overhead,
                sm_busy=tuple(timing.sm_busy_cycles),
                pool_used_bytes=pool.used_bytes if pool is not None else 0,
                pool_capacity_bytes=pool.capacity_bytes if pool is not None else 0,
                counters=dict(counters or {}),
                blocks=tuple(blocks),
            )
        )

    def finalize_chunks(self, pool, n_esc_blocks: int) -> None:
        """Record how many final-pool chunks each ESC block produced
        (Fig. 9's chunks-per-block distribution).  Merge-produced chunks
        carry a block id past the ESC range and are counted separately
        under the key ``-1``."""
        counts = {i: 0 for i in range(n_esc_blocks)}
        merged = 0
        for chunk in pool.ordered_chunks():
            bid = chunk.order_key[0]
            if bid < n_esc_blocks:
                counts[bid] = counts.get(bid, 0) + 1
            else:
                merged += 1
        if merged:
            counts[-1] = merged
        self.chunk_counts = counts

    def mark_truncated(self, reason: str) -> None:
        """The run degraded; records after this point are fallback-only."""
        self.truncated = True
        self.truncation_reason = reason

    # -- queries ---------------------------------------------------------

    def launches(self) -> list[DeviceRecord]:
        return [r for r in self.records if r.kind == "launch"]

    def block_events(self):
        for rec in self.records:
            for ev in rec.blocks:
                yield rec, ev

    def stage_cycle_totals(self) -> dict[str, float]:
        """Per-stage cycle sums, accumulated in record (chronological)
        order — the same float addition order the driver used, so the
        totals equal ``result.stage_cycles`` exactly."""
        totals: dict[str, float] = {}
        for rec in self.records:
            totals[rec.stage] = totals.get(rec.stage, 0.0) + rec.cycles
        return totals

    def counter_totals(self) -> TrafficCounters:
        """Sum of every record- and block-level counter delta."""
        total = TrafficCounters()
        delta = TrafficCounters()
        for rec in self.records:
            for name, value in rec.counters.items():
                setattr(delta, name, getattr(delta, name) + value)
            for ev in rec.blocks:
                for name, value in ev.counters.items():
                    setattr(delta, name, getattr(delta, name) + value)
        total.merge(delta)
        return total

    def per_sm_busy(self, rec: DeviceRecord) -> list[float]:
        """Recompute one launch's per-SM busy cycles from its block
        events, accumulating in slot (dispatch) order — bit-identical to
        the scheduler's ``sm_busy_cycles``."""
        busy = [0.0] * self.num_sms
        for ev in rec.blocks:
            if ev.sm >= 0:
                busy[ev.sm] += ev.cycles
        return busy

    def per_sm_busy_totals(self) -> dict[str, list[float]]:
        """Per-stage per-SM busy totals over all launches (plus the
        cross-stage total under ``"ALL"``)."""
        totals: dict[str, list[float]] = {"ALL": [0.0] * self.num_sms}
        for rec in self.launches():
            stage_busy = totals.setdefault(rec.stage, [0.0] * self.num_sms)
            busy = self.per_sm_busy(rec)
            for sm in range(self.num_sms):
                stage_busy[sm] += busy[sm]
                totals["ALL"][sm] += busy[sm]
        return totals

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": DEVICE_TRACE_SCHEMA,
            "clock_ghz": self.clock_ghz,
            "num_sms": self.num_sms,
            "truncated": self.truncated,
            "truncation_reason": self.truncation_reason,
            "chunk_counts": {str(k): self.chunk_counts[k] for k in sorted(self.chunk_counts)},
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self) -> str:
        """Canonical serialisation: byte-identical across engines."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def sm_track_events(
    placed,
    pid: int = DEVICE_SM_PID,
    *,
    process_name: str = "simulated device (per-SM)",
) -> list[dict]:
    """Per-SM tracks plus counter tracks of one device in Chrome trace
    format.

    ``placed`` holds the device's runs as ``(trace, offset)`` pairs, in
    order: ``[(trace, 0.0)]`` for one run, each SUMMA round's trace with
    its node-clock start.  Offsets are added to the exported stamps
    only, so the traces stay on the clocks ``reconcile`` checks them on.
    Slices (``ph: "X"``) land on one thread per SM; counter events
    (``ph: "C"``) track the chunk-pool occupancy at each record and the
    per-SM scratchpad high-water at each block start/end.  Timestamps
    are microseconds on the simulated clock.
    """
    scale = 1.0 / (placed[0][0].clock_ghz * 1e3)  # cycles -> us

    def us(cycles: float) -> float:
        return cycles * scale

    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"sort_index": pid},
        },
    ]
    used_sms = sorted(
        {
            ev.sm
            for trace, _ in placed
            for _, ev in trace.block_events()
            if ev.sm >= 0
        }
    )
    for sm in used_sms:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": sm + 1,
                "args": {"name": f"SM {sm}"},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": sm + 1,
                "args": {"sort_index": sm + 1},
            }
        )
    for trace, offset in placed:
        for rec in trace.records:
            if rec.kind == "launch":
                for ev in rec.blocks:
                    if ev.sm < 0:
                        events.append(
                            {
                                "name": f"{rec.stage} abort w{ev.worker_id}",
                                "ph": "i",
                                "ts": us(ev.start_cycle + offset),
                                "pid": pid,
                                "tid": 0,
                                "s": "p",
                            }
                        )
                        continue
                    events.append(
                        {
                            "name": f"{rec.stage} r{rec.round_index} w{ev.worker_id}",
                            "ph": "X",
                            "ts": us(ev.start_cycle + offset),
                            "dur": us(ev.cycles),
                            "pid": pid,
                            "tid": ev.sm + 1,
                            "args": {
                                "rows": f"[{ev.row_lo}, {ev.row_hi}]",
                                "scratch_high_water": ev.scratch_high_water,
                                "esc_iterations": ev.esc_iterations,
                                "sorts": len(ev.sort_log),
                                "done": ev.done,
                            },
                        }
                    )
                    if ev.scratch_high_water:
                        events.append(
                            {
                                "name": f"scratchpad bytes (SM {ev.sm})",
                                "ph": "C",
                                "ts": us(ev.start_cycle + offset),
                                "pid": pid,
                                "tid": 0,
                                "args": {"bytes": ev.scratch_high_water},
                            }
                        )
                        events.append(
                            {
                                "name": f"scratchpad bytes (SM {ev.sm})",
                                "ph": "C",
                                "ts": us(ev.end_cycle + offset),
                                "pid": pid,
                                "tid": 0,
                                "args": {"bytes": 0},
                            }
                        )
            if rec.pool_capacity_bytes:
                events.append(
                    {
                        "name": "chunk pool occupancy",
                        "ph": "C",
                        "ts": us(rec.start_cycle + offset + rec.cycles),
                        "pid": pid,
                        "tid": 0,
                        "args": {
                            "used_bytes": rec.pool_used_bytes,
                            "free_bytes": rec.pool_capacity_bytes
                            - rec.pool_used_bytes,
                        },
                    }
                )
    return events


def stage_timeline_events(
    trace: DeviceTrace, pid: int = DEVICE_STAGE_PID
) -> list[dict]:
    """The per-stage kernel timeline of ``trace`` in Chrome trace format.

    One slice per record on a thread row per pipeline stage, with the
    record's exact cycles, the launch's dispatched block count,
    multiprocessor load (from ``sm_busy``) and longest block as args
    (so per-stage ``cycles`` sums equal ``result.stage_cycles``
    exactly, whatever widening the slice got); a cumulative global-traffic
    counter sampled at each record's end; and one instant event per
    ``host`` record (restart) on tid 0.  Zero-duration slices are
    widened to :data:`MIN_VISIBLE_DUR_US` **only up to the start of the
    next slice on the same row**, so back-to-back zero-cycle records
    never overlap.  Timestamps are microseconds on the simulated clock.
    """
    us = 1e6 / (trace.clock_ghz * 1e9)
    records = trace.records
    tid_of = {
        stage: i + 1
        for i, stage in enumerate(dict.fromkeys(r.stage for r in records))
    }
    # per-row widening budget: a slice may grow at most to the start of
    # the next slice on its own tid
    next_start: dict[int, float] = {}
    budget = [float("inf")] * len(records)
    for i in range(len(records) - 1, -1, -1):
        tid = tid_of[records[i].stage]
        ts = records[i].start_cycle * us
        if tid in next_start:
            budget[i] = next_start[tid] - ts
        next_start[tid] = ts
    events: list[dict] = []
    bytes_read = bytes_written = 0
    last_blocks: tuple = ()  # the launch a restart re-runs part of
    for i, rec in enumerate(records):
        dur = rec.cycles * us
        if dur <= 0.0:
            dur = max(0.0, min(MIN_VISIBLE_DUR_US, budget[i]))
        dispatched = [ev.cycles for ev in rec.blocks if ev.sm >= 0]
        timing = KernelTiming(rec.cycles, rec.sm_busy, len(dispatched))
        events.append(
            {
                "name": f"{rec.stage}#{i}",
                "cat": "kernel",
                "ph": "X",
                "ts": rec.start_cycle * us,
                "dur": dur,
                "pid": pid,
                "tid": tid_of[rec.stage],
                "args": {
                    "cycles": rec.cycles,
                    "blocks": len(dispatched),
                    "mp_load": timing.multiprocessor_load,
                    "max_block_cycles": max(dispatched, default=0.0),
                },
            }
        )
        for c in (rec.counters, *(ev.counters for ev in rec.blocks)):
            bytes_read += c.get("global_bytes_read", 0)
            bytes_written += c.get("global_bytes_written", 0)
        if bytes_read or bytes_written:
            events.append(
                {
                    "name": "global traffic (cumulative)",
                    "ph": "C",
                    "ts": (rec.start_cycle + rec.cycles) * us,
                    "pid": pid,
                    "tid": 0,
                    "args": {
                        "bytes_read": bytes_read,
                        "bytes_written": bytes_written,
                    },
                }
            )
        if rec.kind == "launch":
            last_blocks = rec.blocks
        elif rec.kind == "host":
            pending = sum(not ev.done for ev in last_blocks)
            unit = "blocks" if rec.stage == "ESC" else "workers"
            events.append(
                {
                    "name": rec.label,
                    "cat": "event",
                    "ph": "i",
                    "ts": rec.start_cycle * us,
                    "pid": pid,
                    "tid": 0,
                    "s": "g",
                    "args": {
                        "detail": f"pool grown to {rec.pool_capacity_bytes} B, "
                        f"{pending} {unit} pending"
                    },
                }
            )
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "simulated device"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "host events"},
        },
    ]
    meta.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"stage {stage}"},
        }
        for stage, tid in tid_of.items()
    )
    return meta + events
