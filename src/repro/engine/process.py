"""The ``process`` engine: ESC rounds on persistent warm worker processes.

The per-block Python dispatch of an ESC round is GIL-bound, so this
engine ships each round's blocks to a pool of *warm* spawn processes
that stay alive across rounds and runs.  The expensive state (the CSR
operands and the global load-balance arrays) is placed once per operand
pair: the parent exports A and B to shared memory
(:class:`~repro.engine.shm.SharedCSR`), workers map them zero-copy and
re-derive the (deterministic) load balance locally.  Per round only the
tiny restart states travel to the workers and the optimistic execution
results travel back.  Every other round (the merges, the chunk copy)
runs serially, exactly as :class:`~repro.engine.reference.ReferenceEngine`
runs it.

Workers never see the real chunk pool or row tracker.  Each block runs
against shadow objects that record its allocations, so the returned
``(meter, records)`` feed the serial replay
(:func:`repro.engine.replay.replay_and_commit`) — results, cycles and
every simulated statistic stay bit-identical to the reference engine no
matter how many workers run.

Failure policy, in two layers.  The pool itself *heals*: a worker that
dies mid-round is reaped, its pending block states are redistributed
over the survivors (respawning replacements when none survive), and a
typed :class:`~repro.resilience.errors.WorkerCrashed` escapes only once
the retry budget is spent — block execution is side-effect free until
the serial replay, so a resend computes bit-identical results.  Above
that, :func:`process_esc_runs` still treats any escaped error as
"processes unavailable": it tears the pool down and returns ``None``,
and the engine runs the round through the serial reference path
*before* mutating any block — correctness never depends on process
health.

The pool is thread-safe: the serve daemon's executor threads share it,
so every public method serialises on one reentrant lock (per-request
concurrency across the *other* pipeline stages is unaffected).
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing as mp
import os
import threading
import time
import traceback

import numpy as np

from ..core.chunks import ChunkPool
from ..core.esc import EscBlock
from ..core.load_balance import global_load_balance
from ..gpu.block import BlockContext
from ..gpu.cost import CostMeter
from ..obs.trace import current_span, current_trace, derive_span_id
from ..resilience.errors import WorkerCrashed
from .base import EngineContext, RoundOutcome
from .reference import ReferenceEngine
from .replay import (
    AllocationRecord,
    OptimisticRun,
    replay_and_commit,
    snapshot_counters,
)
from .shm import SharedCSR

__all__ = [
    "ProcessEngine",
    "WarmProcessPool",
    "process_esc_runs",
    "resolve_process_workers",
    "warm_pool",
]

#: operand pairs kept exported (parent) / mapped (workers) at once
_EXPORT_CACHE = 4


def resolve_process_workers() -> int:
    """Pool size: ``REPRO_PROCESS_WORKERS`` or the core count.

    The variable accepts ``auto`` (the core count) or a positive
    integer; anything else raises ``ValueError``.
    """
    env = os.environ.get("REPRO_PROCESS_WORKERS", "").strip()
    if not env or env == "auto":
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(
            f"REPRO_PROCESS_WORKERS must be 'auto' or a positive integer, "
            f"got {env!r}"
        )
    return int(env)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


class _ShadowPool:
    """Chunk-pool facade with unlimited virtual space.

    ``allocate`` never raises; it snapshots the meter (the state the
    reference would report if this allocation failed), charges the bump
    atomic and appends an :class:`AllocationRecord`.  The real offsets
    are assigned during the serial replay.
    """

    def __init__(self, real_pool, records: list, state_fn, scratchpad):
        self._records = records
        self._state_fn = state_fn
        self._scratchpad = scratchpad
        self.data_bytes = real_pool.data_bytes

    def allocate(self, chunk, nbytes: int, meter):
        if nbytes <= 0:
            raise ValueError("chunk allocation must be positive")
        rec = AllocationRecord(
            chunk=chunk,
            nbytes=nbytes,
            pre_cycles=meter.cycles,
            pre_counters=snapshot_counters(meter.counters),
            commit=("insert", [], []),
            restore=self._state_fn(),
            pre_scratch_high=self._scratchpad.high_water,
            pre_sort_len=len(meter.sort_log or ()),
        )
        meter.atomic(1)
        self._records.append(rec)
        return chunk


class _ShadowTracker:
    """The row-tracker surface an optimistic ESC block touches: inserts
    attach their commit action to the block's latest allocation record.

    ``shared_rows`` stays empty: ``EscBlock.run`` counts its growth to
    settle the deferred shared-row atomics, which are order-dependent
    and land in the replay's correction instead — same addition, same
    order."""

    def __init__(self, records: list):
        self._records = records
        self.shared_rows: list[int] = []

    def insert_chunk(self, chunk, b, meter) -> None:
        rec = self._records[-1]
        assert rec.chunk is chunk, "insert must follow the chunk's allocation"
        if chunk.kind == "pointer":
            rows, counts = [chunk.first_row], [chunk.b_length]
        else:
            r, c = np.unique(chunk.rows, return_counts=True)
            rows, counts = r.tolist(), [int(x) for x in c.tolist()]
        # list-head exchange + row-count add per covered row; the extra
        # shared-row atomic is order-dependent and deferred to the replay
        meter.atomic(2 * len(rows))
        rec.commit = ("insert", rows, counts)


def _run_esc_block(a, b, glb, options, pool_proto, st: dict) -> dict:
    blk = EscBlock(
        block_id=st["block_id"],
        a=a,
        b=b,
        glb=glb,
        options=options,
        committed=st["committed"],
        n_long_emitted=st["n_long_emitted"],
        chunk_seq=st["chunk_seq"],
        done=False,
        attempts=st["attempts"],
        total_cycles=0.0,
        esc_iterations=st["esc_iterations"],
    )
    records: list[AllocationRecord] = []
    ctx = BlockContext(
        config=options.device, block_id=blk.block_id, constants=options.costs
    )
    if options.device_trace:
        ctx.meter.sort_log = []
    shadow_pool = _ShadowPool(
        pool_proto,
        records,
        lambda blk=blk: {
            "committed": blk.committed,
            "n_long_emitted": blk.n_long_emitted,
            "esc_iterations": blk.esc_iterations,
        },
        scratchpad=ctx.scratchpad,
    )
    shadow_tracker = _ShadowTracker(records)
    blk.run(ctx, shadow_pool, shadow_tracker)
    return {
        "meter": ctx.meter,
        "records": records,
        "scratchpad": ctx.scratchpad,
        "final": {
            "committed": blk.committed,
            "n_long_emitted": blk.n_long_emitted,
            "chunk_seq": blk.chunk_seq,
            "done": blk.done,
            "attempts": blk.attempts,
            "esc_iterations": blk.esc_iterations,
            "total_cycles_delta": blk.total_cycles,
        },
    }


def _drop_entry(entry) -> None:
    _, _, _, _, handles = entry
    for h in handles:
        h.close()


def worker_main(conn) -> None:
    """Entry point of one warm worker (spawn context)."""
    cache: dict[str, tuple] = {}
    try:
        while True:
            try:
                msg = conn.recv()
            except EOFError:
                break
            cmd = msg[0]
            if cmd == "exit":
                break
            try:
                if cmd == "load":
                    _, token, meta_a, meta_b, options = msg
                    old = cache.pop(token, None)
                    if old is not None:
                        # re-load after a parent-side re-export (healed
                        # shm_drop): close the stale handles explicitly
                        # so their __del__ never races the numpy views
                        _drop_entry(old)
                    ha = SharedCSR.attach(meta_a)
                    hb = SharedCSR.attach(meta_b)
                    a = ha.matrix()
                    b = hb.matrix()
                    scratch_meter = CostMeter(
                        config=options.device, constants=options.costs
                    )
                    glb = global_load_balance(
                        a, options.device.nnz_per_block_glb, scratch_meter
                    )
                    cache[token] = (a, b, glb, options, (ha, hb))
                    conn.send(("ok",))
                elif cmd == "esc":
                    # the optional 4th element is the request-trace
                    # hand-off pair {"trace_id", "parent_id"}; span ids
                    # derive from the block id, so the graft is
                    # deterministic no matter which worker ran a block
                    _, token, states = msg[:3]
                    spanmeta = msg[3] if len(msg) > 3 else None
                    a, b, glb, options, _ = cache[token]
                    pool_proto = ChunkPool(capacity_bytes=0)
                    results = []
                    for st in states:
                        t0 = time.perf_counter()
                        res = _run_esc_block(
                            a, b, glb, options, pool_proto, st
                        )
                        if spanmeta is not None:
                            res["span"] = {
                                "name": "esc.block",
                                "span_id": derive_span_id(
                                    spanmeta["trace_id"],
                                    spanmeta["parent_id"],
                                    "esc.block",
                                    st["block_id"],
                                ),
                                "parent_id": spanmeta["parent_id"],
                                "t_host": time.perf_counter() - t0,
                                "attrs": {
                                    "block_id": st["block_id"],
                                    "pid": os.getpid(),
                                    "esc_iterations": res["final"][
                                        "esc_iterations"
                                    ],
                                },
                            }
                        results.append(res)
                    conn.send(("esc", results))
                elif cmd == "drop":
                    # parent evicted this operand pair; no reply expected
                    entry = cache.pop(msg[1], None)
                    if entry is not None:
                        _drop_entry(entry)
                else:
                    conn.send(("err", f"unknown command {cmd!r}"))
            except Exception:
                conn.send(("err", traceback.format_exc()))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent died
        pass
    finally:
        for entry in cache.values():
            _drop_entry(entry)
        conn.close()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Worker:
    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.loaded: set[str] = set()


class WarmProcessPool:
    """Parent-side handle on the persistent worker processes.

    Owns every exported shared-memory segment: segments are unlinked
    when their operand pair is evicted from the LRU and, unconditionally,
    at :meth:`shutdown` (registered via ``atexit``) — so a crashed
    worker can never leak a segment past the parent's lifetime.

    ``segment_prefix`` opts into deterministic segment naming
    (``<prefix><token16>``): a long-running owner (the serve daemon)
    can then enumerate and reclaim segments a SIGKILLed previous
    incarnation leaked, via :func:`repro.engine.shm.sweep_segments`.
    """

    #: default mid-round retry budget of :meth:`run_esc`
    DEFAULT_RETRIES = 2

    def __init__(self, *, segment_prefix: str | None = None):
        self._ctx = mp.get_context("spawn")
        self._lock = threading.RLock()
        self._workers: list[_Worker] = []
        self._exports: dict[str, tuple[SharedCSR, SharedCSR, object]] = {}
        self.segment_prefix = segment_prefix
        self.worker_deaths = 0  # workers reaped after dying mid-round
        self.workers_respawned = 0  # replacements started after a death

    # -- workers --------------------------------------------------------

    def ensure(self, n: int) -> int:
        """Grow the pool to ``n`` workers; returns the live count."""
        with self._lock:
            self._reap()
            while len(self._workers) < n:
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=worker_main, args=(child_conn,), daemon=True
                )
                proc.start()
                child_conn.close()
                self._workers.append(_Worker(proc, parent_conn))
            return len(self._workers)

    def _reap(self) -> None:
        dead = [w for w in self._workers if not w.proc.is_alive()]
        for w in dead:
            self._retire(w)

    def _retire(self, w: _Worker) -> None:
        """Drop one (dead or dying) worker: close its pipe, reap the
        process.  Its exported segments stay valid — the parent owns
        them — so surviving workers are unaffected."""
        if w not in self._workers:
            return
        self._workers.remove(w)
        self.worker_deaths += 1
        try:
            w.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(timeout=2)

    def alive_count(self) -> int:
        """Live workers (reaps the dead as a side effect)."""
        with self._lock:
            self._reap()
            return len(self._workers)

    def restart_crashed(self, target: int) -> int:
        """Supervisor hook: reap the dead, respawn back to ``target``.

        Returns the number of replacement workers started.
        """
        with self._lock:
            self._reap()
            missing = max(0, target - len(self._workers))
            if missing:
                self.ensure(target)
                self.workers_respawned += missing
            return missing

    def kill_worker(self, index: int) -> bool:
        """Chaos hook: SIGKILL worker ``index`` (if it exists).

        The corpse is left in place so the death is discovered exactly
        where production would discover it — at the next send/recv.
        """
        with self._lock:
            if not 0 <= index < len(self._workers):
                return False
            self._workers[index].proc.kill()
            return True

    # -- operand placement ----------------------------------------------

    @staticmethod
    def operand_token(a, b, options) -> str:
        h = hashlib.blake2b(digest_size=16)
        for m in (a, b):
            h.update(np.int64(m.rows).tobytes())
            h.update(np.int64(m.cols).tobytes())
            for arr in (m.row_ptr, m.col_idx, m.values):
                h.update(np.ascontiguousarray(arr).data)
        h.update(options.cache_fingerprint().encode())
        return h.hexdigest()

    def exported_segment_names(self) -> set[str]:
        """Names of every segment currently owned by this pool."""
        with self._lock:
            return {
                h.name
                for sa, sb, _ in self._exports.values()
                for h in (sa, sb)
            }

    def load(self, a, b, options) -> str:
        """Export ``(a, b)`` once and return the pair's token.

        Self-healing: if a cached export's segments were unlinked
        externally (chaos ``shm_drop``, a tmpfs sweep), the pair is
        re-exported and every worker's load marker is cleared so they
        re-attach the fresh segments — already-mapped workers keep
        working off their (still valid) old mapping either way.
        """
        with self._lock:
            token = self.operand_token(a, b, options)
            entry = self._exports.get(token)
            if entry is not None and not (entry[0].exists() and entry[1].exists()):
                sa, sb, _ = self._exports.pop(token)
                for w in self._workers:
                    w.loaded.discard(token)
                sa.release()  # unlink is idempotent; drops our mapping
                sb.release()
                entry = None
            if entry is not None:
                self._exports[token] = self._exports.pop(token)  # refresh LRU
            else:
                while len(self._exports) >= _EXPORT_CACHE:
                    old = next(iter(self._exports))
                    sa, sb, _ = self._exports.pop(old)
                    for w in self._workers:
                        if old in w.loaded:
                            w.loaded.discard(old)
                            try:
                                w.conn.send(("drop", old))
                            except (BrokenPipeError, OSError):
                                pass
                    sa.release()
                    sb.release()
                name_a = name_b = None
                if self.segment_prefix:
                    name_a = f"{self.segment_prefix}{token[:16]}a"
                    name_b = f"{self.segment_prefix}{token[:16]}b"
                self._exports[token] = (
                    SharedCSR.export(a, name=name_a),
                    SharedCSR.export(b, name=name_b),
                    options,
                )
            return token

    def _ensure_worker_loaded(self, w: _Worker, token: str) -> None:
        if token in w.loaded:
            return
        sa, sb, options = self._exports[token]
        w.conn.send(("load", token, sa.meta(), sb.meta(), options))
        reply = w.conn.recv()
        if reply[0] != "ok":
            raise RuntimeError(f"worker load failed: {reply[1:]}")
        w.loaded.add(token)

    # -- dispatch -------------------------------------------------------

    def run_esc(
        self,
        token: str,
        states: list[dict],
        n_workers: int,
        *,
        retries: int | None = None,
        trace_meta: dict | None = None,
    ) -> list[dict]:
        """Fan block states over worker slices; survives worker death.

        Returns per-block result dicts in input order.  A worker that
        dies mid-round (SIGKILL, OOM, chaos ``worker_kill``) is reaped
        and its pending states are redistributed over the survivors —
        respawning replacements when none survive — for up to
        ``retries`` extra rounds.  Block execution is side-effect free
        until the serial replay, so a resent state computes the
        bit-identical result.  Only a spent retry budget raises, and it
        raises typed :class:`~repro.resilience.errors.WorkerCrashed`;
        a *deterministic* worker-side exception (a bug, a failed load)
        still raises ``RuntimeError`` immediately — retrying cannot
        help it.
        """
        if retries is None:
            retries = self.DEFAULT_RETRIES
        with self._lock:
            results: list[dict | None] = [None] * len(states)
            todo = list(range(len(states)))
            deaths = 0
            while todo:
                self._reap()
                if not self._workers:
                    self.ensure(max(1, n_workers))
                    self.workers_respawned += len(self._workers)
                live = list(self._workers)
                n = min(n_workers, len(live), len(todo))
                bounds = np.linspace(0, len(todo), n + 1).astype(int)
                tasks: list[tuple[_Worker, list[int]]] = []
                failed: list[int] = []
                for i in range(n):
                    sel = todo[int(bounds[i]) : int(bounds[i + 1])]
                    if not sel:
                        continue
                    w = live[i]
                    try:
                        self._ensure_worker_loaded(w, token)
                        w.conn.send(
                            ("esc", token, [states[j] for j in sel],
                             trace_meta)
                        )
                        tasks.append((w, sel))
                    except (BrokenPipeError, EOFError, OSError):
                        self._retire(w)
                        failed.extend(sel)
                for w, sel in tasks:
                    try:
                        reply = w.conn.recv()
                    except (EOFError, OSError):
                        self._retire(w)
                        failed.extend(sel)
                        continue
                    if reply[0] != "esc":
                        raise RuntimeError(f"worker esc failed: {reply[1:]}")
                    for j, res in zip(sel, reply[1]):
                        results[j] = res
                if failed:
                    deaths += 1
                    if deaths > retries:
                        raise WorkerCrashed(
                            f"worker died mid-round {deaths} time(s); "
                            f"retry budget ({retries}) spent with "
                            f"{len(failed)} block state(s) pending",
                            stage="ESC",
                        )
                failed.sort()
                todo = failed
            return results  # type: ignore[return-value]

    # -- teardown -------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers and unlink every exported segment.

        Teardown escalates instead of waiting on fixed 2 s joins: a
        polite ``exit`` message, a short join, then ``terminate`` (the
        workers' loop exits on a closed pipe too), then ``kill`` — so a
        wedged worker can delay shutdown, never hang it.
        """
        with self._lock:
            for w in self._workers:
                try:
                    w.conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
            for w in self._workers:
                w.proc.join(timeout=1)
                if w.proc.is_alive():  # pragma: no cover - slow worker
                    w.proc.terminate()
                    w.proc.join(timeout=1)
                if w.proc.is_alive():  # pragma: no cover - stuck worker
                    w.proc.kill()
                    w.proc.join(timeout=2)
                w.conn.close()
            self._workers = []
            for sa, sb, _ in self._exports.values():
                sa.release()
                sb.release()
            self._exports = {}


_POOL: WarmProcessPool | None = None


def warm_pool() -> WarmProcessPool:
    """The process-wide warm pool (created on first use)."""
    global _POOL
    if _POOL is None:
        _POOL = WarmProcessPool()
        atexit.register(_POOL.shutdown)
    return _POOL


def _teardown_pool() -> None:
    global _POOL
    if _POOL is not None:
        try:
            _POOL.shutdown()
        finally:
            _POOL = None


def process_esc_runs(ectx, pending: list) -> list[OptimisticRun] | None:
    """Execute one ESC round on the warm pool.

    Returns the optimistic runs for :func:`replay_and_commit`, or
    ``None`` (with no state mutated) when processes are unavailable —
    the caller then runs the round serially.
    """
    if not pending:
        return []
    n_workers = resolve_process_workers()
    # an active request trace rides the task pickle into the workers:
    # each one derives its block-span ids from this pair, and the final
    # (post-redistribution) results are grafted back under the round
    trace = current_trace()
    parent = current_span()
    round_span = None
    trace_meta = None
    if trace is not None and parent is not None:
        round_span = trace.start_span(
            "esc.process_round", parent=parent,
            blocks=len(pending), workers=n_workers,
        )
        trace_meta = {
            "trace_id": trace.trace_id,
            "parent_id": round_span.span_id,
        }
    try:
        pool = warm_pool()
        pool.ensure(n_workers)
        token = pool.load(ectx.a, ectx.b, ectx.options)
        states = [
            {
                "block_id": blk.block_id,
                "committed": blk.committed,
                "n_long_emitted": blk.n_long_emitted,
                "chunk_seq": blk.chunk_seq,
                "attempts": blk.attempts,
                "esc_iterations": blk.esc_iterations,
            }
            for blk in pending
        ]
        results = pool.run_esc(
            token, states, n_workers, trace_meta=trace_meta
        )
    except Exception as exc:
        if round_span is not None:
            trace.end_span(
                round_span, status="error", error=exc.__class__.__name__
            )
        _teardown_pool()
        return None

    if round_span is not None:
        for res in results:
            doc = res.get("span")
            if doc is not None:
                trace.attach_remote_span(round_span, doc)
        trace.end_span(round_span)

    runs: list[OptimisticRun] = []
    for blk, res in zip(pending, results):
        final = res["final"]
        blk.committed = final["committed"]
        blk.n_long_emitted = final["n_long_emitted"]
        blk.chunk_seq = final["chunk_seq"]
        blk.done = final["done"]
        blk.attempts = final["attempts"]
        blk.esc_iterations = final["esc_iterations"]
        blk.total_cycles += final["total_cycles_delta"]
        meter = res["meter"]
        full = meter.cycles

        def on_success(worker, cycles, _full=full):
            worker.total_cycles += cycles - _full

        def on_fail(worker, rec, cycles, _full=full):
            worker.committed = rec.restore["committed"]
            worker.n_long_emitted = rec.restore["n_long_emitted"]
            worker.esc_iterations = rec.restore["esc_iterations"]
            worker.chunk_seq = rec.chunk.order_key[1]
            worker.done = False
            worker.total_cycles += cycles - _full

        runs.append(
            OptimisticRun(
                blk,
                meter,
                res["records"],
                on_success,
                on_fail,
                scratchpad=res["scratchpad"],
            )
        )
    return runs


class ProcessEngine(ReferenceEngine):
    """The reference engine with ESC rounds on warm worker processes.

    ``REPRO_PROCESS_WORKERS`` sizes the pool (default: the core count);
    one worker is enough to exercise the whole path.  When the pool is
    unavailable the round falls back to the serial reference round.
    """

    name = "process"

    def esc_round(self, ectx: EngineContext, pending: list) -> list[RoundOutcome]:
        runs = process_esc_runs(ectx, pending)
        if runs is None:
            return super().esc_round(ectx, pending)
        self.count("proc_esc_rounds")
        self.count("proc_esc_tasks", len(pending))
        return replay_and_commit(
            ectx.pool, ectx.tracker, runs, ectx.options.costs
        )
