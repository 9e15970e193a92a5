"""Every metric the benchmark reports, and the layer -> end-to-end map.

``BENCHMARK.json`` at the repository root is generated from this table
(``python perfbench/catalogue.py > BENCHMARK.json``) and a test keeps the
two in step.  The map below records, for every per-layer metric, which
end-to-end metric it should move and on which workload, so a later
change can state its prediction by name before it is measured.  A layer
that a workload does not exercise reports 0 there: that is the "no
change" side of each prediction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

#: name -> one-line rationale (BENCHMARK.json ``why``)
WORKLOADS = {
    "sweep": (
        "load_matrix -> squared_operands -> ac_spgemm(batched) over ESC-heavy "
        "and merge-heavy families in float64/float32: the paper's "
        "single-device path; ESC and merge changes show here first"
    ),
    "serve": (
        "repro serve with its defaults, 2 closed-loop clients, 1 request in 4 "
        "a miss on a new inline matrix: p50 measures the serve layers, p90 "
        "the warm process pool"
    ),
    "multinode": (
        "summa_spgemm at P=4 with the adaptive backend, alternating AMG "
        "Galerkin and a 0/1 graph square: partition, routing, tile merge "
        "and per-tile overhead dominate"
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


#: Host-time bounds sit at the schema's 0.25 ceiling: on a shared 2-vCPU
#: VM the same code measured up to 1.5x apart a few minutes apart (CPU
#: speed phases, not steal), so tighter bounds would reject changes that
#: did nothing.  Simulated cycles
#: repeat exactly per seed; their bound covers the spread across seeds.
END_TO_END = (
    EndToEnd("throughput_ops_s", "ops/s", "higher", 0.25),
    EndToEnd("latency_ms_p50", "ms/op", "lower", 0.25),
    EndToEnd("latency_ms_p90", "ms/op", "lower", 0.25),
    # error_rate is 0 on a healthy run, and a bound is a share of the
    # parent's median, so the benchmark gates its complement instead;
    # ``attempted``/``failed`` carry the raw counts on every run
    EndToEnd("success_rate", "ok/attempted", "higher", 0.01),
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1),
    EndToEnd("sim_cycles_mean", "cycles/op", "lower", 0.1),
    EndToEnd("sim_cycles_per_host_s", "cycles/s", "higher", 0.25),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: end-to-end metrics this layer metric should move
    moves: tuple[str, ...]
    #: workloads on which the layer does work (0 elsewhere)
    on: tuple[str, ...]


_P50_TPUT = ("latency_ms_p50", "throughput_ops_s")
_SIM = ("sim_cycles_mean",)
_HOST = ("throughput_ops_s", "sim_cycles_per_host_s")
_SWEEP_MULTI = ("sweep", "multinode")

CORE_HOST_STAGES = ("glb", "estimate", "esc", "mcc", "mm", "pm", "sm", "output", "other")
CORE_SIM_STAGES = ("GLB", "ESC", "MCC", "MM", "PM", "SM", "CC")
MULTI_SIM_STAGES = ("PART", "BCAST", "LMUL", "TMERGE", "ASM")
ROUTED_ENGINES = ("ac-spgemm", "hash-spgemm", "hashmap-spgemm")

PER_LAYER = (
    Layer("io.load_ms", "ms", "lower", ("latency_ms_p50",), ("sweep",)),
    Layer("io.mtx_parse_ms", "ms", "lower", ("setup_s",), ("sweep",)),
    *(
        Layer(f"core.{s}.host_ms", "ms", "lower", _HOST, _SWEEP_MULTI)
        for s in CORE_HOST_STAGES
    ),
    *(
        Layer(f"core.{s}.sim_cycles", "cycles", "lower", _SIM, _SWEEP_MULTI)
        for s in CORE_SIM_STAGES
    ),
    Layer("core.restarts", "count", "lower", _SIM, _SWEEP_MULTI),
    Layer("core.chunks", "count", "lower", _SIM, _SWEEP_MULTI),
    Layer("core.blocks", "count", "lower", _SIM, _SWEEP_MULTI),
    Layer("core.shared_rows", "count", "lower", _SIM, _SWEEP_MULTI),
    Layer("core.global_bytes", "bytes", "lower", _SIM, _SWEEP_MULTI),
    Layer("core.sorted_elements", "count", "lower", _SIM, _SWEEP_MULTI),
    Layer("core.sm_utilization", "ratio", "higher", _SIM, _SWEEP_MULTI),
    Layer("core.pool_used_frac", "ratio", "higher", _SIM, _SWEEP_MULTI),
    Layer("engine.fused_esc_launches", "count", "lower", ("throughput_ops_s",), _SWEEP_MULTI),
    Layer("engine.fused_esc_blocks", "count", "higher", ("throughput_ops_s",), _SWEEP_MULTI),
    Layer("engine.process.worker_deaths", "count", "lower", ("success_rate", "latency_ms_p90"), ("serve",)),
    Layer("engine.process.respawns", "count", "lower", ("success_rate", "latency_ms_p90"), ("serve",)),
    Layer("serve.transport.host_ms", "ms", "lower", _P50_TPUT, ("serve",)),
    Layer("serve.resolve.host_ms", "ms", "lower", _P50_TPUT, ("serve",)),
    Layer("serve.cache_lookup.host_ms", "ms", "lower", _P50_TPUT, ("serve",)),
    Layer("serve.cache_hit_ratio", "ratio", "higher", _P50_TPUT, ("serve",)),
    Layer("serve.queue_wait.host_ms", "ms", "lower", ("latency_ms_p90", "success_rate"), ("serve",)),
    Layer("serve.execute.host_ms", "ms", "lower", ("latency_ms_p90", "success_rate"), ("serve",)),
    Layer("serve.queue_high_water", "count", "lower", ("latency_ms_p90", "success_rate"), ("serve",)),
    Layer("serve.retries", "count", "lower", ("latency_ms_p90", "success_rate"), ("serve",)),
    Layer("serve.rejected", "count", "lower", ("latency_ms_p90", "success_rate"), ("serve",)),
    Layer("serve.daemon_start_s", "s", "lower", ("setup_s",), ("serve",)),
    Layer("serve.first_request_ms", "ms", "lower", ("setup_s",), ("serve",)),
    Layer("backends.select.sim_cycles", "cycles", "lower", ("sim_cycles_mean", "latency_ms_p50"), ("multinode",)),
    Layer("backends.select.host_ms", "ms", "lower", ("sim_cycles_mean", "latency_ms_p50"), ("multinode",)),
    Layer("backends.hash.host_ms", "ms", "lower", ("latency_ms_p50",), ("multinode",)),
    *(
        Layer(f"backends.routed.{e}", "count", "higher", _SIM, ("multinode",))
        for e in ROUTED_ENGINES
    ),
    Layer("backends.prediction_rel_error", "ratio", "lower", ("sim_cycles_mean", "latency_ms_p50"), ("multinode",)),
    Layer("backends.regret_cycles", "cycles", "lower", ("sim_cycles_mean", "latency_ms_p50"), ("multinode",)),
    *(
        Layer(f"multi.{s}.sim_cycles", "cycles", "lower", ("multi.sim_speedup_p4", "sim_cycles_mean"), ("multinode",))
        for s in MULTI_SIM_STAGES
    ),
    Layer("multi.serial_frac", "ratio", "lower", ("multi.sim_speedup_p4", "sim_cycles_mean"), ("multinode",)),
    Layer("multi.overlap_saved_cycles", "cycles", "higher", ("multi.sim_speedup_p4", "sim_cycles_mean"), ("multinode",)),
    Layer("multi.link_bytes", "bytes", "lower", ("multi.sim_speedup_p4", "sim_cycles_mean"), ("multinode",)),
    Layer("multi.link_messages", "count", "lower", ("multi.sim_speedup_p4", "sim_cycles_mean"), ("multinode",)),
    # P=1 makespan over P=4 makespan: the node's strong-scaling figure.
    # It exists on one workload only, so it cannot be an end-to-end
    # metric (those are reported on every workload)
    Layer("multi.sim_speedup_p4", "ratio", "higher", ("sim_cycles_mean",), ("multinode",)),
    Layer("multi.partition.host_ms", "ms", "lower", _P50_TPUT, ("multinode",)),
    Layer("multi.local_multiply.host_ms", "ms", "lower", _P50_TPUT, ("multinode",)),
    Layer("multi.merge.host_ms", "ms", "lower", _P50_TPUT, ("multinode",)),
    Layer("multi.schedule.host_ms", "ms", "lower", _P50_TPUT, ("multinode",)),
    Layer("multi.reconcile.host_ms", "ms", "lower", _P50_TPUT, ("multinode",)),
    Layer("multi.tiles", "count", "lower", _P50_TPUT, ("multinode",)),
    # bounds how far the ledger can be trusted; moves nothing
    Layer("obs.trace_overhead_pct", "%", "lower", (), tuple(WORKLOADS)),
    Layer("obs.residual_pct", "%", "lower", (), tuple(WORKLOADS)),
)

LAYER_NAMES = tuple(layer.name for layer in PER_LAYER)
UNITS = {m.name: m.unit for m in END_TO_END} | {m.name: m.unit for m in PER_LAYER}


def benchmark_json() -> dict:
    """The repository's ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
