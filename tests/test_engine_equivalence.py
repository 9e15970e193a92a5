"""Property tests: every execution engine is observationally identical.

The batched and process engines are execution strategies, not
alternative semantics (see docs/ARCHITECTURE.md, "Execution engines"):
for any input they must produce a bit-identical output matrix *and*
identical simulated statistics — per-stage cycles, traffic counters,
restart count, multiprocessor load, memory report.  The cases below
sweep the shapes that exercise distinct code paths: empty rows, dense
rows, long rows, both value dtypes, disabled bit reduction, and a pool
small enough to force completion restarts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import AcSpgemmOptions, ac_spgemm
from repro.matrices import generators as g
from repro.sparse.stats import squared_operands
from tests.conftest import random_csr

ENGINES = ("batched", "process")


def _signature(res) -> dict:
    """Everything an engine is forbidden to perturb."""
    return {
        "row_ptr": res.matrix.row_ptr.tobytes(),
        "col_idx": res.matrix.col_idx.tobytes(),
        "values": res.matrix.values.tobytes(),
        "stage_cycles": dict(res.stage_cycles),
        "counters": res.counters,
        "restarts": res.restarts,
        "mp_load": res.multiprocessor_load,
        "n_chunks": res.n_chunks,
        "memory": res.memory,
    }


def _run_all(a, b, dtype="float64", **kw):
    sigs = {}
    results = {}
    for engine in ("reference",) + ENGINES:
        opts = AcSpgemmOptions(
            value_dtype=np.dtype(dtype), engine=engine, **kw
        )
        results[engine] = ac_spgemm(a, b, opts)
        sigs[engine] = _signature(results[engine])
    ref = sigs["reference"]
    for engine in ENGINES:
        mismatched = [k for k in ref if sigs[engine][k] != ref[k]]
        assert not mismatched, f"{engine} diverges in {mismatched}"
    return results["reference"]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_uniform_square_both_dtypes(dtype):
    a, b = squared_operands(g.random_uniform(500, 500, 10.0, seed=11))
    _run_all(a, b, dtype=dtype)


def test_empty_rows(rng):
    # sparse enough that many rows of A (and of the result) are empty
    a = random_csr(rng, 300, 300, 0.008)
    counts = np.diff(a.row_ptr)
    assert (counts == 0).any(), "case must include empty rows"
    _run_all(a, a)


def test_dense_rows(rng):
    # dense operand rows drive large per-block expansions
    a = random_csr(rng, 120, 120, 0.5)
    _run_all(a, a)


def test_long_skewed_rows():
    mtx = g.long_row_matrix(
        400, 3.0, n_long_rows=3, long_row_len=300, seed=12
    )
    a, b = squared_operands(mtx)
    _run_all(a, b)


def test_power_law_float32():
    a, b = squared_operands(g.power_law(500, avg_row_len=8.0, seed=13))
    _run_all(a, b, dtype="float32")


def test_restarts_from_small_pool():
    a, b = squared_operands(g.random_uniform(400, 400, 10.0, seed=14))
    res = _run_all(
        a, b, chunk_pool_bytes=6000, chunk_pool_lower_bound_bytes=0
    )
    assert res.restarts > 0, "case must exercise the restart path"


def test_bit_reduction_disabled():
    a, b = squared_operands(g.random_uniform(350, 350, 9.0, seed=15))
    _run_all(a, b, enable_bit_reduction=False)
