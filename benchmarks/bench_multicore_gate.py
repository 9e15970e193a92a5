"""Conditional multi-core speedup gate for the process engine (CI).

On a host with ``os.cpu_count() >= 2`` the process engine — whose ESC
rounds dispatch to warm worker processes over shared memory — must beat
the reference engine by ``GATE``x on a mid-size case; on a single core
the process machinery can at best break even, so the gate is skipped
(exit 0) rather than reporting noise.  The matching conditional gate
for the sharded campaign (>= 2x) lives in ``bench_campaign.py``.

This is a real script file (not an inline CI heredoc) on purpose: the
spawn start method re-imports ``__main__`` in every worker, and a
``<stdin>`` main breaks the children — which would silently fall back
to the serial reference path and fail the gate for the wrong reason.

Usage::

    PYTHONPATH=src python benchmarks/bench_multicore_gate.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

GATE = 1.5
REPEATS = 3


def main() -> int:
    cpu = os.cpu_count() or 1
    if cpu < 2:
        print(f"{cpu} cpu: multi-core process-engine gate skipped")
        return 0

    import numpy as np

    from repro import AcSpgemmOptions, ac_spgemm
    from repro.bench.wallclock import tune_allocator
    from repro.matrices.generators import random_uniform
    from repro.sparse.stats import squared_operands

    tune_allocator()
    a, b = squared_operands(random_uniform(2000, 2000, 25.0, seed=6))
    opts = {
        e: AcSpgemmOptions(value_dtype=np.dtype("float64"), engine=e)
        for e in ("reference", "process")
    }
    # warm-up: pays the one-off process-pool spawn and operand export
    # outside the timed region (the warm pool persists across runs)
    warm = ac_spgemm(a, b, opts["process"])
    best = {e: float("inf") for e in opts}
    for _ in range(REPEATS):
        for engine, o in opts.items():
            t0 = time.perf_counter()
            res = ac_spgemm(a, b, o)
            best[engine] = min(best[engine], time.perf_counter() - t0)
            if res.matrix.values.tobytes() != warm.matrix.values.tobytes():
                print(f"ERROR: {engine} result mismatch", file=sys.stderr)
                return 1
    speedup = best["reference"] / best["process"]
    print(
        f"{cpu} cpu: reference {best['reference'] * 1e3:.1f} ms, "
        f"process {best['process'] * 1e3:.1f} ms -> {speedup:.2f}x "
        f"(gate {GATE:.1f}x)"
    )
    if speedup < GATE:
        print(
            f"ERROR: process engine {speedup:.2f}x < {GATE:.1f}x "
            f"on a {cpu}-core host",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
