"""``sweep``: load_matrix -> squared_operands -> ac_spgemm(engine="batched").

One operation multiplies one seeded matrix the way ``repro single``
does: read it back from the ``.mtx`` file written in set-up (the first
read, paid in set-up, parses the text and leaves the ``.npz`` cache that
every later read uses), form the paper's operands and run the batched
engine.  The cells mix ESC-heavy families (uniform, banded, stencil)
with merge-heavy ones (power-law, two very long rows), in float64 and
float32.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    HostLedger,
    Measurement,
    Op,
    add_span_profile,
    closed_loop,
    core_sim_layers,
    remove_workdir,
    self_peak_rss_mb,
)
from repro import AcSpgemmOptions, ac_spgemm, load_matrix, spgemm_reference, squared_operands
from repro.matrices.generators import (
    banded,
    long_row_matrix,
    power_law,
    random_uniform,
    stencil_2d,
)
from repro.obs.span import host_span_profile
from repro.sparse.io import write_matrix_market

#: (family, dtype) -> generator of one seeded matrix, in rising cost.
#: Five cells of distinct cost put p50 in the middle of the stencil
#: cell's latencies and p90 in the middle of the uniform cell's, two
#: families whose cost barely depends on the seed; the seed-sensitive
#: merge-heavy cells are the cheapest.  Sizes keep a multiply in the
#: tens of milliseconds, so a run holds hundreds of operations.
CELLS = {
    ("powerlaw", "float32"): lambda rng: power_law(1200, 6, exponent=1.9, max_row_len=1000, seed=rng),
    ("longrow", "float64"): lambda rng: long_row_matrix(2000, 3, 2, 1900, seed=rng),
    ("stencil", "float64"): lambda rng: stencil_2d(72, seed=rng),
    ("banded", "float32"): lambda rng: banded(4000, 4, seed=rng, fill=0.9),
    ("uniform", "float64"): lambda rng: random_uniform(3000, 3000, 8, seed=rng),
}
#: tolerance against the float64 Gustavson reference, fixed per dtype
RTOL = {"float64": 1e-10, "float32": 1e-5}


def digest(m) -> str:
    h = hashlib.sha256()
    for arr in (m.row_ptr, m.col_idx, m.values):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Cell:
    """One (matrix, dtype) input and what its result must be."""

    key: str
    path: Path
    dtype: str
    options: AcSpgemmOptions
    reference: object  # CSRMatrix from spgemm_reference
    expected_digest: str
    sim_cycles: float
    #: latest result, for the exact per-input simulated figures
    result: object = None


def check_result(cell: Cell, result) -> str | None:
    """Why ``result`` is wrong for ``cell``, or None when it is right."""
    if not result.matrix.allclose(cell.reference, rtol=RTOL[cell.dtype]):
        return f"{cell.key}: result differs from spgemm_reference"
    if digest(result.matrix) != cell.expected_digest:
        return f"{cell.key}: digest differs from the first run's"
    if result.total_cycles != cell.sim_cycles:
        return f"{cell.key}: simulated cycles {result.total_cycles!r} != {cell.sim_cycles!r}"
    return None


class Sweep:
    """The ``sweep`` workload."""

    def __init__(self, root: Path, seed: int):
        self.seed = seed
        self.workdir = root / ".bench_work" / f"sweep-{seed}-{id(self):x}"
        self.cells: list[Cell] = []
        self.parse_ms: list[float] = []
        self.failures: list[str] = []
        self.leaks = 0

    def setup(self) -> None:
        self.teardown()
        self.workdir.mkdir(parents=True)
        rngs = np.random.default_rng(self.seed).spawn(len(CELLS))
        self.cells, self.failures = [], []
        parse_s = []
        for ((family, dtype), make), rng in zip(CELLS.items(), rngs):
            path = self.workdir / f"{family}.mtx"
            write_matrix_market(path, make(rng))
            t0 = time.perf_counter()
            matrix = load_matrix(path)  # first read: parse + .npz cache
            parse_s.append(time.perf_counter() - t0)
            reference = spgemm_reference(*squared_operands(matrix))
            options = AcSpgemmOptions(engine="batched", value_dtype=np.dtype(dtype))
            first = ac_spgemm(*squared_operands(matrix), options)
            cell = Cell(
                key=f"{family}/{dtype}",
                path=path,
                dtype=dtype,
                options=options,
                reference=reference,
                expected_digest=digest(first.matrix),
                sim_cycles=first.total_cycles,
                result=first,
            )
            # a wrong first result would make every repeat "agree"
            if not first.matrix.allclose(reference, rtol=RTOL[dtype]):
                self.failures.append(f"{cell.key}: set-up result differs from spgemm_reference")
                cell.expected_digest = "wrong-in-setup"
            self.cells.append(cell)
        self.parse_ms.append(sum(parse_s) * 1e3 / len(parse_s))

    def teardown(self) -> None:
        remove_workdir(self.workdir)

    def measure(self, seconds: float, trace: bool) -> Measurement:
        ledger = HostLedger()
        fused = {"engine.fused_esc_launches": 0, "engine.fused_esc_blocks": 0}
        traced_ops = 0

        def op(cell: Cell, traced: bool) -> Op:
            nonlocal traced_ops
            profile = host_span_profile() if traced else nullcontext()
            t0 = time.perf_counter()
            matrix = load_matrix(cell.path)
            t1 = time.perf_counter()
            a, b = squared_operands(matrix)
            t2 = time.perf_counter()
            with profile as prof:
                result = ac_spgemm(a, b, cell.options)
            t3 = time.perf_counter()
            if traced:
                traced_ops += 1
                ledger.add("io.load_ms", t1 - t0)
                ledger.add("pipeline", t3 - t2)
                credited = add_span_profile(ledger, prof.table())
                ledger.add("core.other.host_ms", (t3 - t2) - credited)
                for key in fused:
                    fused[key] += result.engine_stats.get(key.split(".", 1)[1], 0)
                cell.result = result
            problem = check_result(cell, result)
            if problem and len(self.failures) < 20:
                self.failures.append(problem)
            return Op(t3 - t0, problem is None, traced, cell.key, result.total_cycles)

        ops = closed_loop(self.cells, seconds, trace, op)
        m = Measurement(
            ops=ops,
            busy_s=sum(o.latency_s for o in ops if not o.traced),
            sim_cycles_by_input={c.key: c.sim_cycles for c in self.cells},
            peak_rss_mb=self_peak_rss_mb(),
            failures=self.failures,
        )
        if trace:
            per_op = {key: ledger.ms_per_op(key, traced_ops) for key in ledger.seconds}
            m.layer_sum_ms = per_op["io.load_ms"] + per_op.pop("pipeline")
            m.layers = per_op
            m.layers["io.mtx_parse_ms"] = float(np.median(self.parse_ms))
            m.layers.update({key: n / traced_ops for key, n in fused.items()})
            results = [c.result for c in self.cells]
            m.layers.update(core_sim_layers(results, per_op=len(results)))
        return m
