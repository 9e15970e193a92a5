"""Parametrised restart-loop tests (§4's pool-growth round trips).

Shrinking the initial chunk pool forces ever more restarts; each
configuration must (a) still produce the right C, (b) report the same
restart count on every engine, and (c) recover to a *bit-identical* C
across engines and versus the roomy-pool run.
"""

import numpy as np
import pytest

from repro import AcSpgemmOptions, ac_spgemm, spgemm_reference
from repro.gpu import SMALL_DEVICE
from tests.conftest import random_csr

ENGINES = ("reference", "batched", "process")

# (chunk_pool_bytes, pool_growth_factor, minimum restarts it must force)
RESTART_CONFIGS = [
    pytest.param(20_000, 2.0, 1, id="1-restart"),
    pytest.param(8_000, 1.6, 3, id="3-restarts"),
    pytest.param(1_000, 1.2, 10, id="10-plus-restarts"),
]


@pytest.fixture(scope="module")
def operand():
    rng = np.random.default_rng(12345)
    return random_csr(rng, 60, 60, 0.1)


@pytest.fixture(scope="module")
def reference_product(operand):
    return spgemm_reference(operand, operand)


def _options(pool, growth):
    return AcSpgemmOptions(
        device=SMALL_DEVICE,
        chunk_pool_bytes=pool,
        pool_growth_factor=growth,
        max_restarts=64,
    )


@pytest.mark.parametrize("pool,growth,min_restarts", RESTART_CONFIGS)
def test_restart_depth_engines_agree(pool, growth, min_restarts, operand,
                                     reference_product):
    opts = _options(pool, growth)
    results = [
        ac_spgemm(operand, operand, opts.with_(engine=e)) for e in ENGINES
    ]
    counts = [r.restarts for r in results]
    assert counts[0] >= min_restarts
    # identical restart counts on every engine
    assert counts == [counts[0]] * len(ENGINES)
    # bit-identical recovered C on every engine
    for r in results[1:]:
        assert r.matrix.exactly_equal(results[0].matrix)
    assert results[0].matrix.allclose(reference_product)


@pytest.mark.parametrize("pool,growth,min_restarts", RESTART_CONFIGS)
def test_restarts_do_not_change_bits(pool, growth, min_restarts, operand):
    """The restarted run must equal the run that never restarted."""
    roomy = ac_spgemm(
        operand, operand,
        AcSpgemmOptions(device=SMALL_DEVICE,
                        chunk_pool_lower_bound_bytes=1 << 22),
    )
    assert roomy.restarts == 0
    starved = ac_spgemm(operand, operand, _options(pool, growth))
    assert starved.restarts >= min_restarts
    assert starved.matrix.exactly_equal(roomy.matrix)


def test_restart_counts_monotone_in_pool_size(operand):
    """A smaller starting pool can never need fewer restarts."""
    counts = [
        ac_spgemm(operand, operand, _options(pool, 1.5)).restarts
        for pool in (40_000, 10_000, 2_000)
    ]
    assert counts == sorted(counts)
