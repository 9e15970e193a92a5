"""§5 future-work extension, quantified: chunk-memory overallocation.

The paper: "An obvious improvement for our approach is reducing the
overallocation of chunk memory."  We compare the paper's uniform
estimate (100 MB lower bound) with the sampling-based estimator on the
named collection: allocation shrinks by an order of magnitude while
restarts stay rare.  The other §5 extension, adaptive strategy
selection, is the ``adaptive`` backend, graded by
``benchmarks/bench_selector.py``.
"""

from __future__ import annotations

import numpy as np
from conftest import run_once

from repro import AcSpgemmOptions, ac_spgemm
from repro.bench import format_table, named_cases, write_csv
from repro.core import estimate_chunk_pool_bytes, sampled_chunk_pool_bytes

EST_HEADERS = [
    "matrix",
    "uniform_pool_MB",
    "sampled_pool_MB",
    "used_MB",
    "restarts_uniform",
    "restarts_sampled",
]


def _estimator_rows():
    rows = []
    for case in named_cases():
        opts = AcSpgemmOptions()
        uniform = estimate_chunk_pool_bytes(case.a, case.b, opts)
        sampled = sampled_chunk_pool_bytes(case.a, case.b, opts)
        r_uni = ac_spgemm(case.a, case.b, opts)
        r_smp = ac_spgemm(case.a, case.b, opts.with_(chunk_pool_bytes=sampled))
        rows.append(
            (
                case.name,
                round(uniform / 1e6, 2),
                round(sampled / 1e6, 2),
                round(r_uni.memory.chunk_used_bytes / 1e6, 2),
                r_uni.restarts,
                r_smp.restarts,
            )
        )
    return rows


def test_sampled_estimator_reduces_overallocation(benchmark, results_dir):
    rows = run_once(benchmark, _estimator_rows)
    write_csv(results_dir / "ext_estimator.csv", EST_HEADERS, rows)
    print()
    print(format_table(EST_HEADERS, rows, title="Chunk-pool estimators"))
    total_uniform = sum(r[1] for r in rows)
    total_sampled = sum(r[2] for r in rows)
    print(f"total allocation: uniform {total_uniform:.0f} MB -> "
          f"sampled {total_sampled:.0f} MB")
    assert total_sampled < total_uniform / 5
    # the tighter pools still avoid restart storms
    assert sum(r[5] for r in rows) <= len(rows)
    # and never undershoot what is actually used by more than growth
    # can recover (every run completed, so this is implicit)
