"""Tests for the §5 future-work extensions: the sampling-based pool
estimate, and the CLI runner.  The §5 adaptive selection is covered by
``tests/test_backends.py``."""

from repro import AcSpgemmOptions, CSRMatrix, ac_spgemm, spgemm_reference
from repro.core import (
    estimate_chunk_pool_bytes,
    sampled_chunk_pool_bytes,
    sampled_output_estimate,
)
from tests.conftest import random_csr


class TestSampledEstimate:
    def test_tracks_actual_nnz(self, rng):
        a = random_csr(rng, 500, 500, 0.02)
        actual = spgemm_reference(a, a).nnz
        est = sampled_output_estimate(a, a, sample_rows=128, safety_factor=1.0)
        assert 0.7 * actual < est < 1.4 * actual

    def test_deterministic(self, rng):
        a = random_csr(rng, 200, 200, 0.05)
        assert sampled_output_estimate(a, a) == sampled_output_estimate(a, a)

    def test_empty(self):
        e = CSRMatrix.empty(5, 5)
        assert sampled_output_estimate(e, e) == 0.0

    def test_pool_much_smaller_than_uniform_estimate(self, rng):
        """The §5 improvement: an order of magnitude less overallocation
        on matrices where the 100 MB lower bound dominated."""
        a = random_csr(rng, 400, 400, 0.03)
        opts = AcSpgemmOptions()
        uniform = estimate_chunk_pool_bytes(a, a, opts)
        sampled = sampled_chunk_pool_bytes(a, a, opts)
        assert sampled < uniform / 5

    def test_pipeline_with_sampled_pool_still_correct(self, rng):
        a = random_csr(rng, 300, 300, 0.04)
        opts = AcSpgemmOptions()
        pool = sampled_chunk_pool_bytes(a, a, opts, lower_bound_bytes=1 << 16)
        res = ac_spgemm(a, a, opts.with_(chunk_pool_bytes=pool))
        assert res.matrix.allclose(spgemm_reference(a, a))
        # conservative enough that restarts stay rare
        assert res.restarts <= 2


class TestCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_single_with_verify(self, tmp_path, rng, capsys):
        from repro.sparse import write_matrix_market

        m = random_csr(rng, 40, 40, 0.1)
        p = tmp_path / "m.mtx"
        write_matrix_market(p, m)
        assert self.run_cli("single", str(p), "--verify") == 0
        out = capsys.readouterr().out
        assert "gflops" in out and "True" in out

    def test_runall_writes_csv(self, tmp_path, rng, capsys):
        from repro.sparse import write_matrix_market

        for i in range(2):
            write_matrix_market(
                tmp_path / f"m{i}.mtx", random_csr(rng, 30, 30, 0.1)
            )
        out_csv = tmp_path / "res.csv"
        assert self.run_cli("runall", str(tmp_path), "--out", str(out_csv)) == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 3  # header + 2 matrices
        assert lines[0].startswith("matrix,")

    def test_runall_empty_folder(self, tmp_path, capsys):
        assert self.run_cli("runall", str(tmp_path)) == 1

    def test_suite_limited(self, tmp_path, capsys):
        out_csv = tmp_path / "suite.csv"
        assert (
            self.run_cli("suite", "--limit", "2", "--out", str(out_csv)) == 0
        )
        assert len(out_csv.read_text().splitlines()) == 3

    def test_compare(self, tmp_path, rng, capsys):
        from repro.sparse import write_matrix_market

        m = random_csr(rng, 50, 50, 0.1)
        p = tmp_path / "m.mtx"
        write_matrix_market(p, m)
        assert self.run_cli("compare", str(p)) == 0
        out = capsys.readouterr().out
        assert "fastest:" in out and "nsparse" in out
