"""Tests for the per-stage kernel timeline (the artifact's Debug mode),
a view over the device trace's records."""

import json

import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.gpu import SMALL_DEVICE
from repro.gpu.scheduler import schedule_blocks
from repro.matrices import random_uniform
from repro.obs import validate_perfetto, write_perfetto
from repro.obs.device import (
    MIN_VISIBLE_DUR_US,
    BlockMeta,
    DeviceTrace,
    stage_timeline_events,
)
from repro.obs.export import perfetto_payload
from tests.conftest import random_csr

ENGINES = ("reference", "batched", "process")


def _trace() -> DeviceTrace:
    return DeviceTrace(clock_ghz=1.0, num_sms=2)


def _wide(t: DeviceTrace, stage: str, start: float, cycles: float) -> None:
    t.record_device_wide(stage, stage.lower(), start_cycle=start, cycles=cycles)


def _launch(t: DeviceTrace, stage: str, start: float, cycles, done=None):
    timing = schedule_blocks(cycles, t.num_sms, record_placements=True)
    done = done or [True] * len(cycles)
    t.record_launch(
        stage,
        round_index=0,
        start_cycle=start,
        timing=timing,
        launch_overhead=0.0,
        workers=[
            BlockMeta(worker_id=i, row_lo=i, row_hi=i, cycles=c, done=d)
            for i, (c, d) in enumerate(zip(cycles, done))
        ],
    )
    return timing


def _slices(events):
    return [e for e in events if e["ph"] == "X"]


class TestRecorder:
    def test_clock_advances(self):
        t = _trace()
        _launch(t, "ESC", 0.0, [10.0, 20.0])
        _wide(t, "CC", 20.0, 5.0)
        xs = _slices(stage_timeline_events(t))
        assert [e["name"] for e in xs] == ["ESC#0", "CC#1"]
        us = 1e6 / (t.clock_ghz * 1e9)
        assert xs[1]["ts"] == 20.0 * us
        assert xs[1]["ts"] + xs[1]["dur"] == pytest.approx(25.0 * us)

    def test_block_statistics(self):
        t = _trace()
        timing = _launch(t, "ESC", 0.0, [1.0, 4.0, 2.0])
        args = _slices(stage_timeline_events(t))[0]["args"]
        assert args["blocks"] == 3
        assert args["max_block_cycles"] == 4.0
        assert args["mp_load"] == timing.multiprocessor_load < 1.0
        assert args["cycles"] == timing.makespan_cycles

    def test_stage_totals(self):
        t = _trace()
        _wide(t, "GLB", 0.0, 5.0)
        _wide(t, "ESC", 5.0, 7.0)
        _wide(t, "ESC", 12.0, 3.0)
        totals: dict[str, float] = {}
        for e in _slices(stage_timeline_events(t)):
            stage = e["name"].split("#")[0]
            totals[stage] = totals.get(stage, 0.0) + e["args"]["cycles"]
        assert totals == t.stage_cycle_totals() == {"GLB": 5.0, "ESC": 10.0}

    def test_points(self):
        t = _trace()
        _launch(t, "ESC", 0.0, [4.0, 1.0], done=[True, False])
        t.record_host("ESC", "restart", start_cycle=4.0, cycles=2.0)
        events = stage_timeline_events(t)
        (point,) = [e for e in events if e["ph"] == "i"]
        assert point["name"] == "restart"
        assert point["ts"] == 4.0 * 1e6 / (t.clock_ghz * 1e9)
        assert "1 blocks pending" in point["args"]["detail"]
        # the round trip itself is a slice on the stage row
        assert [e["name"] for e in _slices(events)] == ["ESC#0", "ESC#1"]


class TestChromeExport:
    def test_valid_json_with_events(self, tmp_path):
        t = _trace()
        _launch(t, "ESC", 0.0, [10.0], done=[False])
        t.record_host("ESC", "restart", start_cycle=10.0, cycles=1.0)
        p = write_perfetto(tmp_path / "trace.json", perfetto_payload(device=t))
        data = json.loads(p.read_text())
        names = [e["name"] for e in data["traceEvents"]]
        assert "ESC#0" in names and "restart" in names
        complete = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert complete and all("dur" in e for e in complete)

    def test_zero_duration_clamp_never_overlaps(self):
        """Back-to-back zero-cycle records on one stage row must not
        overlap after the minimum-visible-duration widening (an
        unconditional ``max(dur, 1e-3)`` clamp produces corrupt nested
        slices)."""
        t = _trace()
        _wide(t, "ESC", 0.0, 0.0)
        _wide(t, "ESC", 0.0, 0.0)
        _wide(t, "ESC", 0.0, 10.0)
        events = stage_timeline_events(t)
        validate_perfetto({"traceEvents": events})
        xs = sorted(_slices(events), key=lambda e: e["ts"])
        for prev, nxt in zip(xs, xs[1:]):
            assert prev["ts"] + prev["dur"] <= nxt["ts"] + 1e-12

    def test_zero_duration_widened_when_room(self):
        t = _trace()
        _wide(t, "ESC", 0.0, 0.0)
        _wide(t, "GLB", 0.0, 1e6)  # advances the clock between ESC slices
        _wide(t, "ESC", 1e6, 5.0)
        first = _slices(stage_timeline_events(t))[0]
        assert first["name"] == "ESC#0"
        assert first["dur"] == MIN_VISIBLE_DUR_US
        assert first["args"]["cycles"] == 0.0

    def test_thread_and_process_metadata(self):
        t = _trace()
        _wide(t, "GLB", 0.0, 5.0)
        _launch(t, "ESC", 5.0, [5.0], done=[False])
        t.record_host("ESC", "restart", start_cycle=10.0, cycles=1.0)
        events = stage_timeline_events(t)
        meta = [e for e in events if e["ph"] == "M"]
        by_name = {(e["name"], e["tid"]): e["args"]["name"] for e in meta}
        assert by_name[("process_name", 0)] == "simulated device"
        assert by_name[("thread_name", 0)] == "host events"
        assert by_name[("thread_name", 1)] == "stage GLB"
        assert by_name[("thread_name", 2)] == "stage ESC"
        # every X/i event lands on a named row
        named_tids = {tid for (name, tid) in by_name if name == "thread_name"}
        assert {e["tid"] for e in events if e["ph"] != "M"} <= named_tids


class TestPipelineIntegration:
    def test_trace_attached_and_consistent(self, rng):
        a = random_csr(rng, 60, 60, 0.1)
        for engine in ENGINES:
            opts = AcSpgemmOptions(
                device=SMALL_DEVICE,
                chunk_pool_lower_bound_bytes=1 << 20,
                engine=engine,
                device_trace=True,
            )
            res = ac_spgemm(a, a, opts)
            # per-stage slice sums equal the result's stage accounting
            # exactly: the slices are the records, in record order
            totals = {stage: 0.0 for stage in res.stage_cycles}
            for e in _slices(stage_timeline_events(res.device_trace)):
                totals[e["name"].split("#")[0]] += e["args"]["cycles"]
            assert totals == res.stage_cycles, engine

    def test_trace_off_by_default(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        res = ac_spgemm(
            a, a, AcSpgemmOptions(device=SMALL_DEVICE,
                                  chunk_pool_lower_bound_bytes=1 << 20)
        )
        assert res.device_trace is None

    def test_restart_events_recorded(self):
        a = random_uniform(300, 300, 6, seed=1)
        opts = AcSpgemmOptions(
            chunk_pool_bytes=20000, pool_growth_factor=2.0, device_trace=True
        )
        res = ac_spgemm(a, a, opts)
        assert res.restarts > 0
        events = stage_timeline_events(res.device_trace)
        restarts = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in restarts] == ["restart"] * res.restarts
        assert all("pool grown to" in e["args"]["detail"] for e in restarts)
