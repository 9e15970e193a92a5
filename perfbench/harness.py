"""Measurement machinery shared by the workloads.

A workload sets itself up several times (the median is ``setup_s``),
then runs a timed loop of operations and returns a :class:`Measurement`.
With ``--trace 1`` the loop alternates untraced and traced blocks of
operations over the same inputs, so the traced blocks give the
per-layer figures and the pair gives the cost of tracing itself.

Host time per layer is taken around calls into ``repro`` from these
files only: the benchmark calls the layer itself, wraps a module-level
name for the duration of one traced operation (:class:`HostLedger`), or
reads ``repro.obs.span.host_span_profile``.  Nothing in ``src/`` is
changed to be measured.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from catalogue import CORE_SIM_STAGES, LAYER_NAMES

#: set-up runs per benchmark run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: pipeline spans whose host self time has a ``core.<name>.host_ms``
#: bucket, matched on the span name's first dotted component
CORE_SPANS = {"glb", "estimate", "esc", "mcc", "mm", "pm", "sm", "output"}
#: the adaptive selector's probe and dispatch
SELECT_SPANS = {"adaptive", "select"}
#: the hash engines' own spans (``setup`` is shared and stays in core)
HASH_SPANS = {"hash-spgemm", "hashmap-spgemm", "bin", "sym", "num", "row_ptr", "partition"}


@dataclass
class Op:
    """One timed operation."""

    latency_s: float
    ok: bool
    traced: bool
    #: input the operation ran on; traced/untraced means pair up per key
    key: str
    #: simulated cycles the operation executed (0 when nothing ran)
    sim_cycles: float = 0.0


@dataclass
class Measurement:
    """What one workload run measured."""

    ops: list[Op]
    #: host seconds the system under test was busy with the operations
    busy_s: float
    #: exact simulated cycles per distinct input
    sim_cycles_by_input: dict[str, float]
    peak_rss_mb: float
    #: per-layer figures from the traced operations (names in catalogue)
    layers: dict[str, float] = field(default_factory=dict)
    #: mean host ms per traced op covered by the measured layers; the
    #: rest of the op's time is ``obs.residual_pct``
    layer_sum_ms: float = 0.0
    #: failed checks not tied to one operation (leaks, set-up checks)
    extra_failures: int = 0
    failures: list[str] = field(default_factory=list)


class HostLedger:
    """Accumulated host seconds per layer key."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def add(self, key: str, seconds: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def wrap(self, fn, key: str):
        """``fn`` with its wall time credited to ``key``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(key, time.perf_counter() - t0)

        return timed

    @contextmanager
    def patched(self, owner, name: str, key: str):
        """Time every call to ``owner.name`` inside the block.

        ``owner`` is a module (patch the name callers look up) or a
        class (patch the method, keeping classmethods classmethods).
        A name the program no longer has is left alone: its layer then
        reads 0 and its time shows up in ``obs.residual_pct``.
        """
        try:
            raw = inspect.getattr_static(owner, name)
        except AttributeError:
            yield
            return
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, key))
        else:
            replacement = self.wrap(raw, key)
        with swapped(owner, name, replacement):
            yield

    def ms_per_op(self, key: str, ops: int) -> float:
        return self.seconds.get(key, 0.0) * 1e3 / ops if ops else 0.0


@contextmanager
def swapped(owner, name: str, value):
    """``owner.name`` replaced by ``value`` inside the block."""
    raw = inspect.getattr_static(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, raw)


def add_span_profile(ledger: HostLedger, table: dict) -> float:
    """Credit a ``host_span_profile`` table to core/backends keys.

    Returns the seconds credited, so the caller can put the call's
    unattributed remainder in ``core.other``.
    """
    total = 0.0
    for name, ent in table.items():
        head = name.split(".", 1)[0]
        if head in CORE_SPANS:
            key = f"core.{head}.host_ms"
        elif name in SELECT_SPANS:
            key = "backends.select.host_ms"
        elif head in HASH_SPANS:
            key = "backends.hash.host_ms"
        else:
            key = "core.other.host_ms"
        ledger.add(key, ent["host_seconds"])
        total += ent["host_seconds"]
    return total


def core_sim_layers(results: list, per_op: int) -> dict[str, float]:
    """``core.*`` simulated figures of pipeline results, per operation.

    Cycles and counts are summed over ``results`` and divided by
    ``per_op`` operations; the two ratios are averaged over results.
    """
    if not results:
        return {}
    out = {
        f"core.{s}.sim_cycles": sum(r.stage_cycles.get(s, 0.0) for r in results) / per_op
        for s in CORE_SIM_STAGES
    }
    out["core.restarts"] = sum(r.restarts for r in results) / per_op
    out["core.chunks"] = sum(r.n_chunks for r in results) / per_op
    out["core.blocks"] = sum(r.n_blocks for r in results) / per_op
    out["core.shared_rows"] = sum(r.shared_rows for r in results) / per_op
    out["core.global_bytes"] = (
        sum(r.counters.global_bytes_read + r.counters.global_bytes_written for r in results) / per_op
    )
    out["core.sorted_elements"] = sum(r.counters.sorted_elements for r in results) / per_op
    out["core.sm_utilization"] = sum(r.sm_utilization for r in results) / len(results)
    out["core.pool_used_frac"] = sum(r.memory.used_fraction for r in results) / len(results)
    return out


def closed_loop(inputs: list, seconds: float, trace: bool, do_op) -> list[Op]:
    """One client running ``do_op(input, traced)`` back to back.

    Operation ``i`` runs on ``inputs[i % len(inputs)]``; with ``trace``
    every second pass over the inputs is traced.
    """
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        traced = trace and (i // len(inputs)) % 2 == 1
        ops.append(do_op(inputs[i % len(inputs)], traced))
        i += 1
    return ops


def remove_workdir(path: Path) -> None:
    """Delete a run's working directory, and ``.bench_work`` once empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # another run's directory is still there


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(m: Measurement, setup_s: list[float]) -> dict[str, float]:
    """Every end-to-end metric from the untraced operations."""
    ops = [op for op in m.ops if not op.traced]
    lat_ms = [op.latency_s * 1e3 for op in ops]
    ok = sum(op.ok for op in ops)
    sims = list(m.sim_cycles_by_input.values())  # empty when every op failed
    return {
        "throughput_ops_s": len(ops) / m.busy_s if m.busy_s else 0.0,
        "latency_ms_p50": percentile(lat_ms, 0.5),
        "latency_ms_p90": percentile(lat_ms, 0.9),
        "success_rate": ok / len(ops) if ops else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": m.peak_rss_mb,
        "sim_cycles_mean": statistics.fmean(sims) if sims else 0.0,
        "sim_cycles_per_host_s": sum(op.sim_cycles for op in ops) / m.busy_s if m.busy_s else 0.0,
    }


def per_layer(m: Measurement) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not run read 0."""
    traced = [op for op in m.ops if op.traced]
    plain = [op for op in m.ops if not op.traced]
    # traced over untraced host time, paired per input so a partial
    # last pass weighs both sides alike
    on = off = 0.0
    for key in {op.key for op in traced} & {op.key for op in plain}:
        on += statistics.fmean(op.latency_s for op in traced if op.key == key)
        off += statistics.fmean(op.latency_s for op in plain if op.key == key)
    mean_ms = statistics.fmean(op.latency_s for op in traced) * 1e3 if traced else 0.0
    values = {name: 0.0 for name in LAYER_NAMES}
    unknown = set(m.layers) - set(values)
    if unknown:
        raise KeyError(f"layer metrics missing from the catalogue: {sorted(unknown)}")
    values.update(m.layers)
    values["obs.trace_overhead_pct"] = (on / off - 1.0) * 100.0 if off else 0.0
    values["obs.residual_pct"] = (
        (mean_ms - m.layer_sum_ms) / mean_ms * 100.0 if mean_ms else 0.0
    )
    return values


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if Path(lines[0]).resolve() != root.resolve():
        return None  # a checkout nested in some other repository
    return lines[1]


def _tree_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_fingerprint(root: Path, **run) -> dict:
    """Host, toolchain and source identity recorded with every result."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "src_sha256": _tree_sha256(root / "src"),
        # users get the default allocator: neither the CLI nor repro
        # serve calls repro.bench.wallclock.tune_allocator, so neither
        # does this benchmark
        "allocator": "glibc defaults (mallopt not called)",
        "setup_repeats": SETUP_REPEATS,
        **run,
    }
