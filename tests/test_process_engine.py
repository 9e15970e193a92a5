"""Process-engine plumbing: shared-memory transport, forced dispatch,
host span profiling.

The observational equivalence of the ``process`` engine itself is
covered by ``tests/test_engine_equivalence.py`` (it sweeps every
engine); the tests here pin the supporting machinery — the
:class:`~repro.engine.shm.SharedCSR` segment lifecycle (round-trip,
stale-segment reclaim, no leaks), the ``REPRO_PROCESS_WORKERS`` pool
size, the serial fallback when the pool is unavailable, the campaign
runner's post-SIGKILL segment sweep, and the out-of-band host span
profile used by the hotspot bench.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.campaign import CampaignConfig
from repro.campaign.runner import CampaignRunner
from repro.engine.shm import SharedCSR
from repro.matrices import generators as g
from repro.obs.span import SpanRecorder, host_span_profile
from repro.sparse.stats import squared_operands
from tests.conftest import random_csr


def _segment_exists(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    seg.close()
    return True


class TestSharedCSR:
    def test_round_trip_is_byte_identical(self, rng):
        m = random_csr(rng, 200, 150, 0.05, dtype=np.float32)
        handle = SharedCSR.export(m)
        try:
            attached = SharedCSR.attach(handle.meta())
            try:
                out = attached.matrix()
                assert out.rows == m.rows and out.cols == m.cols
                assert out.row_ptr.tobytes() == np.ascontiguousarray(
                    m.row_ptr, dtype=np.int64
                ).tobytes()
                assert out.col_idx.tobytes() == np.ascontiguousarray(
                    m.col_idx, dtype=np.int64
                ).tobytes()
                assert out.values.tobytes() == m.values.tobytes()
                assert out.values.dtype == m.values.dtype
                # exported from a validated build: re-validation is skipped
                assert out._validated
            finally:
                del out  # drop the aliasing views before closing the map
                attached.close()
        finally:
            handle.release()

    def test_release_unlinks_segment(self, rng):
        handle = SharedCSR.export(random_csr(rng, 50, 50, 0.1))
        name = handle.name
        assert _segment_exists(name)
        handle.release()
        assert not _segment_exists(name)

    def test_export_reclaims_stale_named_segment(self, rng):
        """A segment leaked by a SIGKILLed owner is reclaimed on re-export."""
        name = "repro_test_stale_segment"
        stale = shared_memory.SharedMemory(create=True, size=64, name=name)
        stale.buf[:4] = b"dead"
        stale.close()  # owner died without unlinking
        m = random_csr(rng, 40, 40, 0.2)
        handle = SharedCSR.export(m, name=name)
        try:
            assert handle.name == name
            attached = SharedCSR.attach(handle.meta())
            out = attached.matrix()
            assert out.values.tobytes() == m.values.tobytes()
            del out
            attached.close()
        finally:
            handle.release()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_empty_matrix_round_trip(self):
        from repro.sparse.csr import CSRMatrix

        m = CSRMatrix.from_dense(np.zeros((3, 4)))
        handle = SharedCSR.export(m)
        try:
            attached = SharedCSR.attach(handle.meta())
            out = attached.matrix()
            assert out.nnz == 0 and out.rows == 3 and out.cols == 4
            del out
            attached.close()
        finally:
            handle.release()


class TestForcedProcessDispatch:
    def test_two_workers_dispatch_to_processes(self, monkeypatch):
        """``REPRO_PROCESS_WORKERS=2`` fans ESC rounds over two worker
        processes even on one core, without perturbing any output."""
        a, b = squared_operands(g.random_uniform(300, 300, 8.0, seed=21))
        ref = ac_spgemm(
            a, b, AcSpgemmOptions(engine="reference")
        )
        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "2")
        res = ac_spgemm(a, b, AcSpgemmOptions(engine="process"))
        assert res.engine_stats.get("proc_esc_rounds", 0) >= 1
        assert res.matrix.values.tobytes() == ref.matrix.values.tobytes()
        assert res.matrix.col_idx.tobytes() == ref.matrix.col_idx.tobytes()
        assert dict(res.stage_cycles) == dict(ref.stage_cycles)
        assert res.counters == ref.counters

    @pytest.mark.parametrize("value", ["two", "-3", "0", "1.5"])
    def test_malformed_worker_count_raises(self, monkeypatch, value):
        from repro.engine.process import resolve_process_workers

        monkeypatch.setenv("REPRO_PROCESS_WORKERS", value)
        with pytest.raises(ValueError, match="REPRO_PROCESS_WORKERS"):
            resolve_process_workers()

    def test_auto_worker_count_is_core_count(self, monkeypatch):
        from repro.engine.process import resolve_process_workers

        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "auto")
        assert resolve_process_workers() == (os.cpu_count() or 1)

    def test_pool_unavailable_runs_serial_round(self, monkeypatch):
        """When the warm pool cannot start, every ESC round runs through
        the serial reference round: same bytes, no process counters and
        no shared-memory segment left behind."""
        from repro.engine import process as proc_mod

        def _no_pool():
            raise OSError("no processes here")

        monkeypatch.setattr(proc_mod, "warm_pool", _no_pool)
        shm_before = set(os.listdir("/dev/shm"))
        a, b = squared_operands(g.random_uniform(250, 250, 6.0, seed=24))
        ref = ac_spgemm(a, b, AcSpgemmOptions(engine="reference"))
        res = ac_spgemm(a, b, AcSpgemmOptions(engine="process"))
        assert res.matrix.values.tobytes() == ref.matrix.values.tobytes()
        assert res.matrix.col_idx.tobytes() == ref.matrix.col_idx.tobytes()
        assert res.matrix.row_ptr.tobytes() == ref.matrix.row_ptr.tobytes()
        assert dict(res.stage_cycles) == dict(ref.stage_cycles)
        assert res.engine_stats.get("esc_rounds", 0) >= 1
        assert "proc_esc_rounds" not in res.engine_stats
        assert set(os.listdir("/dev/shm")) <= shm_before

    def test_pool_teardown_leaves_no_segments(self, monkeypatch):
        """After an explicit warm-pool teardown the operand LRU is
        released: every exported segment is unlinked."""
        from repro.engine import process as proc_mod

        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "1")
        a, b = squared_operands(g.random_uniform(250, 250, 6.0, seed=23))
        res = ac_spgemm(a, b, AcSpgemmOptions(engine="process"))
        assert res.engine_stats.get("proc_esc_rounds", 0) >= 1
        pool = proc_mod.warm_pool()
        names = [
            h.name for sa, sb, _ in pool._exports.values() for h in (sa, sb)
        ]
        assert names, "the run must have exported operands"
        proc_mod._teardown_pool()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestPoolHealing:
    """Mid-round worker death: reap, redistribute, respawn, typed escape."""

    def test_killed_worker_is_healed_and_result_is_bit_identical(
        self, monkeypatch
    ):
        from repro.engine import process as proc_mod

        monkeypatch.setenv("REPRO_PROCESS_WORKERS", "1")
        a, b = squared_operands(g.random_uniform(250, 250, 6.0, seed=31))
        ref = ac_spgemm(a, b, AcSpgemmOptions(engine="reference"))
        pool = proc_mod.warm_pool()
        pool.ensure(1)
        assert pool.kill_worker(0)
        res = ac_spgemm(a, b, AcSpgemmOptions(engine="process"))
        assert res.matrix.values.tobytes() == ref.matrix.values.tobytes()
        assert res.matrix.col_idx.tobytes() == ref.matrix.col_idx.tobytes()
        assert dict(res.stage_cycles) == dict(ref.stage_cycles)
        assert proc_mod.warm_pool().worker_deaths >= 1

    def test_restart_crashed_respawns_to_target(self):
        from repro.engine.process import WarmProcessPool

        pool = WarmProcessPool()
        try:
            pool.ensure(2)
            assert pool.alive_count() == 2
            assert pool.kill_worker(0)
            deadline = time.monotonic() + 10
            while pool.alive_count() > 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            restarted = pool.restart_crashed(2)
            assert restarted == 1
            assert pool.alive_count() == 2
            assert pool.workers_respawned == 1
        finally:
            pool.shutdown()

    def test_spent_retry_budget_raises_typed_worker_crashed(self, rng):
        """A worker that fails every send exhausts the budget with a
        typed :class:`WorkerCrashed`, not a bare pipe error."""
        from repro.engine.process import WarmProcessPool, _Worker
        from repro.resilience.errors import WorkerCrashed

        class _UndeadProc:
            def is_alive(self):
                return True  # hides from _reap; dies only at send

            def kill(self):
                pass

            def join(self, timeout=None):
                pass

        class _DeadPipe:
            def send(self, msg):
                raise BrokenPipeError

            def close(self):
                pass

        pool = WarmProcessPool()
        try:
            m = random_csr(rng, 60, 60, 0.1)
            opts = AcSpgemmOptions()
            token = pool.load(m, m, opts)
            pool._workers.append(_Worker(_UndeadProc(), _DeadPipe()))
            with pytest.raises(WorkerCrashed) as exc_info:
                pool.run_esc(token, [{"block_id": 0}], 1, retries=0)
            assert exc_info.value.stage == "ESC"
            assert pool.worker_deaths == 1
        finally:
            pool.shutdown()

    def test_load_self_heals_after_external_unlink(self, rng):
        """Chaos ``shm_drop``: an externally unlinked export is detected
        and re-exported under the same deterministic names."""
        from repro.engine.process import WarmProcessPool
        from repro.engine.shm import segment_exists, sweep_segments

        pool = WarmProcessPool(segment_prefix=f"repro-test-heal-{os.getpid()}-")
        try:
            m = random_csr(rng, 80, 80, 0.1)
            opts = AcSpgemmOptions()
            token = pool.load(m, m, opts)
            names = sorted(pool.exported_segment_names())
            assert all(segment_exists(n) for n in names)
            assert sweep_segments(names) == len(names)  # the chaos fault
            assert not any(segment_exists(n) for n in names)
            assert pool.load(m, m, opts) == token
            assert sorted(pool.exported_segment_names()) == names
            assert all(segment_exists(n) for n in names)
        finally:
            pool.shutdown()


class TestCampaignSegmentSweep:
    def test_sweep_reclaims_stale_segments(self, tmp_path):
        """The next invocation of a SIGKILLed campaign unlinks every
        segment the killed one could have created."""
        runner = CampaignRunner(
            tmp_path / "camp", CampaignConfig(suite="tiny", limit=2)
        )
        names = runner._segment_names()
        assert names, "plan must map matrices to segment names"
        victim = sorted(names.values())[0]
        stale = shared_memory.SharedMemory(create=True, size=32, name=victim)
        stale.close()
        runner._sweep_segments()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=victim)

    def test_segment_names_are_plan_deterministic(self, tmp_path):
        cfg = CampaignConfig(suite="tiny", limit=2)
        r1 = CampaignRunner(tmp_path / "c", cfg)
        r2 = CampaignRunner(tmp_path / "c", cfg)
        assert r1._segment_names() == r2._segment_names()
        other = CampaignRunner(tmp_path / "elsewhere", cfg)
        assert set(other._segment_names().values()).isdisjoint(
            r1._segment_names().values()
        )


class TestHostSpanProfile:
    def test_credits_calls_and_time_per_span_name(self):
        with host_span_profile() as prof:
            rec = SpanRecorder()
            rec.start("root")
            rec.leaf("work", 10.0)
            rec.leaf("work", 5.0)
            with rec.span("stage"):
                rec.leaf("inner", 1.0)
            rec.close()
        table = prof.table()
        assert table["work"]["calls"] == 2
        assert table["inner"]["calls"] == 1
        assert all(v["host_seconds"] >= 0.0 for v in table.values())

    def test_profile_does_not_perturb_span_tree(self):
        def build():
            rec = SpanRecorder()
            rec.start("root")
            rec.leaf("a", 3.0)
            with rec.span("b"):
                rec.leaf("c", 2.0)
            return rec.close().to_dict()

        bare = build()
        with host_span_profile():
            profiled = build()
        assert bare == profiled

    def test_nested_activation_rejected(self):
        with host_span_profile():
            with pytest.raises(RuntimeError):
                with host_span_profile():
                    pass  # pragma: no cover

    def test_scope_resets_after_exit(self):
        with host_span_profile():
            pass
        with host_span_profile() as prof:  # re-entry after clean exit
            SpanRecorder().start("x")
        assert "x" in prof.table()


class TestHotspotBench:
    def test_run_hotspots_payload(self):
        from repro.bench.wallclock import run_hotspots

        hot = run_hotspots(smoke=True, engine="batched", top=5)
        assert hot["bench"] == "host-hotspots"
        assert hot["engine"] == "batched"
        assert 0 < len(hot["top_spans"]) <= 5
        assert hot["top_spans"][0]["host_seconds"] >= (
            hot["top_spans"][-1]["host_seconds"]
        )
        names = {r["span"] for r in hot["top_spans"]}
        assert "esc.round" in names  # the known dominant host span
        spent = sum(r["host_seconds"] for r in hot["top_spans"])
        assert spent <= hot["total_host_seconds"] + 1e-6
