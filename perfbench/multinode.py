"""``multinode``: summa_spgemm at P=4 with the adaptive backend.

One operation is what ``repro multinode`` does for one input: the
pipelined SUMMA multiply over a 2x2 device grid with every tile routed
by the adaptive selector, then ``SummaResult.reconcile()``.  The inputs
alternate between two families of integer-valued products, exact in
float64 under any summation order, so the P=4 result must equal the P=1
result byte for byte:

* AMG Galerkin: a 5-point operator with seeded integer row scales times
  a 2x2-aggregation prolongation whose aggregate origin is seeded, on
  three grid levels;
* the square of a seeded 0/1 uniform random graph, at two sizes.

The five inputs fall in three cost bands (AMG-32; AMG-48 with
graph-320; AMG-64 with graph-480) that hold 20%, 40% and 40% of the
operations, so p50 and p90 land inside a band, not in the gap between
two.
"""

from __future__ import annotations

import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

from harness import (
    HostLedger,
    Measurement,
    Op,
    add_span_profile,
    closed_loop,
    core_sim_layers,
    self_peak_rss_mb,
    swapped,
)
from catalogue import MULTI_SIM_STAGES, ROUTED_ENGINES
from repro import AcSpgemmOptions, spgemm_reference
from repro.matrices.generators import poisson_2d, random_uniform
from repro.multi import NodeConfig, SummaReconciliationError, summa_spgemm
from repro.multi import summa as summa_mod
from repro.multi.partition import GridPartition
from repro.obs.span import host_span_profile
from repro.sparse import COOMatrix
from repro.sparse.csr import CSRMatrix

DEVICES = 4
BACKEND = "adaptive"
GRAPH_AVG_ROW = 9
#: (family, size) in run order: AMG grid side or graph vertex count
INPUTS = (("amg", 64), ("graph", 480), ("amg", 48), ("graph", 320), ("amg", 32))
#: (owner, name, layer metric) timed during a traced operation; the
#: local multiplies are timed by a wrapper of ``run_backend`` instead
TIMED = (
    (GridPartition, "build", "multi.partition.host_ms"),
    (GridPartition, "a_tiles", "multi.partition.host_ms"),
    (GridPartition, "b_tiles", "multi.partition.host_ms"),
    (summa_mod, "_merge_round_tiles", "multi.merge.host_ms"),
    (summa_mod, "assemble_tiles", "multi.merge.host_ms"),
    (summa_mod, "_timeline", "multi.schedule.host_ms"),
)


def amg_operands(side: int, rng: np.random.Generator) -> tuple[CSRMatrix, CSRMatrix]:
    """``A @ P``: a scaled 5-point operator and an aggregation prolongation."""
    a = poisson_2d(side)
    scales = rng.integers(1, 4, size=a.rows).astype(np.float64)
    a.values = a.values * np.repeat(scales, a.row_lengths())
    ox, oy = rng.integers(0, 2, size=2)
    idx = np.arange(side * side)
    x, y = (idx % side + ox) // 2, (idx // side + oy) // 2
    coarse = (side + 2) // 2
    p = COOMatrix(
        rows=idx.size,
        cols=coarse * coarse,
        row_idx=idx,
        col_idx=x + y * coarse,
        values=np.ones(idx.size),
    ).to_csr()
    return a, p


def graph_operands(n: int, rng: np.random.Generator) -> tuple[CSRMatrix, CSRMatrix]:
    g = random_uniform(n, n, GRAPH_AVG_ROW, seed=rng)
    g.values = np.ones_like(g.values)
    return g, g


@dataclass
class Input:
    key: str
    a: CSRMatrix
    b: CSRMatrix
    #: the P=1 result every P=4 result must equal byte for byte
    single: object  # SummaResult at P=1
    makespan: float = 0.0
    #: latest P=4 result, for the exact per-input simulated figures
    result: object = None


def reconcile_problem(inp: Input, res) -> str | None:
    """Run ``res.reconcile()`` (part of the operation, as in the CLI)
    and report a mismatch instead of raising it."""
    try:
        res.reconcile()
    except SummaReconciliationError as exc:
        return f"{inp.key}: reconcile failed: {exc}"
    return None


def check_result(inp: Input, res) -> str | None:
    """Why a P=4 result is wrong, or None when it is right."""
    if not res.matrix.exactly_equal(inp.single.matrix):
        return f"{inp.key}: P={DEVICES} result is not byte-identical to P=1"
    if inp.makespan and res.makespan_cycles != inp.makespan:
        return f"{inp.key}: makespan {res.makespan_cycles!r} != {inp.makespan!r}"
    return None


class Multinode:
    """The ``multinode`` workload."""

    def __init__(self, root, seed: int):
        self.seed = seed
        self.options = AcSpgemmOptions(engine="batched")
        self.node = NodeConfig(devices=DEVICES)
        self.inputs: list[Input] = []
        self.failures: list[str] = []
        self.leaks = 0

    def setup(self) -> None:
        rngs = np.random.default_rng(self.seed).spawn(len(INPUTS))
        self.inputs, self.failures = [], []
        for (family, size), rng in zip(INPUTS, rngs):
            key = f"{family}-{size}"
            a, b = (amg_operands if family == "amg" else graph_operands)(size, rng)
            single = summa_spgemm(a, b, NodeConfig(devices=1), self.options, backend=BACKEND)
            inp = Input(key, a, b, single)
            if not single.matrix.allclose(spgemm_reference(a, b)):
                self.failures.append(f"{key}: P=1 result differs from spgemm_reference")
                inp.single.matrix = CSRMatrix.empty(a.rows, b.cols)
            first = self._multiply(inp)  # warm-up, and the makespan to repeat
            problem = reconcile_problem(inp, first) or check_result(inp, first)
            if problem:
                self.failures.append(f"set-up: {problem}")
            inp.makespan, inp.result = first.makespan_cycles, first
            self.inputs.append(inp)

    def teardown(self) -> None:
        pass

    def _multiply(self, inp: Input):
        return summa_spgemm(inp.a, inp.b, self.node, self.options, backend=BACKEND)

    def measure(self, seconds: float, trace: bool) -> Measurement:
        ledger = HostLedger()
        traced_ops = 0

        run_backend = summa_mod.run_backend

        def local_multiply(name, a, b, options=None, **kwargs):
            t0 = time.perf_counter()
            with host_span_profile() as prof:
                result = run_backend(name, a, b, options, **kwargs)
            spent = time.perf_counter() - t0
            ledger.add("multi.local_multiply.host_ms", spent)
            ledger.add("core.other.host_ms", spent - add_span_profile(ledger, prof.table()))
            return result

        def timed_layers() -> ExitStack:
            stack = ExitStack()
            stack.enter_context(swapped(summa_mod, "run_backend", local_multiply))
            for owner, name, key in TIMED:
                stack.enter_context(ledger.patched(owner, name, key))
            return stack

        def op(inp: Input, traced: bool) -> Op:
            nonlocal traced_ops
            traced_ops += traced
            t0 = time.perf_counter()
            with timed_layers() if traced else nullcontext():
                res = self._multiply(inp)
            t_rec = time.perf_counter()
            problem = reconcile_problem(inp, res)
            t1 = time.perf_counter()
            if traced:
                ledger.add("multi.reconcile.host_ms", t1 - t_rec)
                inp.result = res
            problem = problem or check_result(inp, res)
            if problem and len(self.failures) < 20:
                self.failures.append(problem)
            return Op(t1 - t0, problem is None, traced, inp.key, res.makespan_cycles)

        ops = closed_loop(self.inputs, seconds, trace, op)
        m = Measurement(
            ops=ops,
            busy_s=sum(o.latency_s for o in ops if not o.traced),
            sim_cycles_by_input={i.key: i.makespan for i in self.inputs},
            peak_rss_mb=self_peak_rss_mb(),
            failures=self.failures,
        )
        if trace:
            m.layers = {key: ledger.ms_per_op(key, traced_ops) for key in ledger.seconds}
            m.layer_sum_ms = sum(
                m.layers.get(f"multi.{k}.host_ms", 0.0)
                for k in ("partition", "local_multiply", "merge", "schedule", "reconcile")
            )
            m.layers.update(self._sim_layers())
        return m

    def _sim_layers(self) -> dict[str, float]:
        """Exact simulated figures, averaged over the inputs."""
        n = len(self.inputs)
        runs = [i.result for i in self.inputs]
        tiles = [t.result for r in runs for t in r.tile_runs.values()]
        audits = [t.routing_audit for t in tiles if t.routing_audit]
        out = {
            f"multi.{s}.sim_cycles": sum(r.stage_cycles.get(s, 0.0) for r in runs) / n
            for s in MULTI_SIM_STAGES
        }
        serial = sum(r.stage_cycles[s] for r in runs for s in ("PART", "TMERGE", "ASM"))
        out["multi.serial_frac"] = serial / sum(r.makespan_cycles for r in runs)
        out["multi.overlap_saved_cycles"] = sum(r.overlap_saved_cycles for r in runs) / n
        links = [c for r in runs for c in r.link_counters.values()]
        out["multi.link_bytes"] = sum(c.bytes_sent for c in links) / n
        out["multi.link_messages"] = sum(c.messages for c in links) / n
        out["multi.sim_speedup_p4"] = sum(i.single.makespan_cycles for i in self.inputs) / sum(
            r.makespan_cycles for r in runs
        )
        out["multi.tiles"] = len(tiles) / n
        out["backends.select.sim_cycles"] = sum(t.stage_cycles.get("SEL", 0.0) for t in tiles) / n
        for engine in ROUTED_ENGINES:
            out[f"backends.routed.{engine}"] = sum(t.dispatched_to == engine for t in tiles) / n
        out["backends.prediction_rel_error"] = (
            sum(a["rel_error"] for a in audits) / len(audits) if audits else 0.0
        )
        out["backends.regret_cycles"] = sum(a["regret_bound"] for a in audits) / n
        core_tiles = [t for t in tiles if t.dispatched_to == "ac-spgemm"]
        out.update(core_sim_layers(core_tiles, per_op=n))
        out["engine.fused_esc_launches"] = (
            sum(t.engine_stats.get("fused_esc_launches", 0) for t in core_tiles) / n
        )
        out["engine.fused_esc_blocks"] = (
            sum(t.engine_stats.get("fused_esc_blocks", 0) for t in core_tiles) / n
        )
        return out
