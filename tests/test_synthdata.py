import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import invwishart

from krgraph.errors import KrgraphError
from krgraph.graphs import Graph, Laplacian, barabasi_albert, build_laplacian
from krgraph.synthdata import (
    Dataset,
    SynthConfig,
    add_noise_snr,
    generate_correlated_rows,
    make_synthetic_dataset,
    sample_inverse_wishart_covariance,
    smooth_projection,
)
from oracles import random_laplacian_matrix

K3_L = build_laplacian(Graph(np.ones((3, 3)) - np.eye(3)))


class TestInverseWishart:
    def test_symmetric_positive_definite(self):
        for seed in range(10):
            C = sample_inverse_wishart_covariance(6, seed)
            np.testing.assert_allclose(C, C.T, rtol=1e-12)
            np.linalg.cholesky(C)  # raises if not PD

    def test_small_case_diagonal_positive(self):
        for seed in range(50):
            C = sample_inverse_wishart_covariance(2, seed)
            assert np.all(np.diag(C) > 0)

    def test_mean_matches_formula(self):
        # at dof = S + 2 the draws have infinite variance, so the 4-sigma
        # Monte-Carlo check is run on their inverses: Wishart(S + 2, I),
        # with mean (S + 2) I and finite second moments
        S, n = 4, 500
        draws = np.stack([np.linalg.inv(
            sample_inverse_wishart_covariance(S, 7000 + s)) for s in range(n)])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - (S + 2) * np.eye(S)) <= 4 * se + 1e-12)

    def test_default_dof_mean_roughly_identity(self):
        # heavy-tailed at dof = S + 2: only a loose sanity band on the
        # entrywise median of the diagonal
        S, n = 4, 400
        draws = np.stack([sample_inverse_wishart_covariance(S, 9000 + s)
                          for s in range(n)])
        med = np.median(np.diagonal(draws, axis1=1, axis2=2))
        assert 0.2 < med < 2.0

    def test_deterministic(self):
        a = sample_inverse_wishart_covariance(5, 3)
        b = sample_inverse_wishart_covariance(5, 3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("S", [2, 3, 4, 20, 100])
    def test_equals_scipy_invwishart(self, S):
        """The same law and draws as scipy's sampler, whose triangular BLAS
        products round differently: each draw is within 1e-12 of scipy's
        relative to its largest entry (at most 1.1e-14 seen), and exactly
        symmetric."""
        for seed in range(50):
            expected = invwishart.rvs(df=S + 2, scale=np.eye(S),
                                      random_state=np.random.default_rng(seed))
            C = sample_inverse_wishart_covariance(S, seed)
            np.testing.assert_allclose(
                C, expected, rtol=0, atol=1e-12 * np.abs(expected).max())
            assert np.array_equal(C, C.T)


ROOT = Path(__file__).resolve().parent.parent
SYNTH_CONFIG = ROOT / "configs" / "synth_er.json"
BENCH_CONFIG = {
    "methods": ["KR", "KRG"], "n_train": [8], "snr_db": [5.0, 15.0],
    "realizations": 2, "num_nodes": 6, "num_samples": 20,
    "graph_model": "barabasi_albert", "graph_param": 2,
    "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3},
    "master_seed": 3}


def _outputs(command, config, out, *path):
    """Run a krgraph command in a fresh interpreter with the given import
    path before src, BLAS on one thread; {file name: bytes} of out."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([*map(str, path), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-m", "krgraph", command, "--config", str(config),
         "--out-dir", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["synth", "bench"])
def test_draws_need_no_scipy(tmp_path, command):
    """synth and bench, the commands that draw data, run where import scipy
    fails, and write the bytes they write beside an importable scipy."""
    stub = tmp_path / "stub"
    (stub / "scipy").mkdir(parents=True)
    (stub / "scipy" / "__init__.py").write_text(
        'raise ImportError("scipy is hidden")\n', encoding="utf-8")
    config = SYNTH_CONFIG
    if command == "bench":
        config = tmp_path / "bench.json"
        config.write_text(json.dumps(BENCH_CONFIG), encoding="utf-8")
    hidden = subprocess.run([sys.executable, "-c", "import scipy"],
                            env=dict(os.environ, PYTHONPATH=str(stub)),
                            capture_output=True, text=True, timeout=120)
    assert "ImportError: scipy is hidden" in hidden.stderr
    plain = _outputs(command, config, tmp_path / "plain")
    assert plain
    assert _outputs(command, config, tmp_path / "no_scipy", stub) == plain


class TestCorrelatedRows:
    def test_white_case_shape_and_covariance(self):
        draws = np.concatenate(
            [generate_correlated_rows(np.eye(4), 50, seed=s) for s in range(40)],
            axis=1)
        emp = np.cov(draws)
        np.testing.assert_allclose(emp, np.eye(4), atol=0.15)

    def test_reproducible(self):
        C = sample_inverse_wishart_covariance(5, 0)
        assert np.array_equal(generate_correlated_rows(C, 7, 1),
                              generate_correlated_rows(C, 7, 1))

    def test_column_covariance_converges(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((4, 4))
        C = B @ B.T + 0.5 * np.eye(4)
        cols = np.concatenate(
            [generate_correlated_rows(C, 30, seed=s) for s in range(200)], axis=1)
        emp = (cols @ cols.T) / cols.shape[1]
        np.testing.assert_allclose(emp, C, atol=6 * np.abs(C).max() / np.sqrt(200 * 30 / 4))

    def test_non_pd_rejected(self):
        with pytest.raises(KrgraphError):
            generate_correlated_rows(np.array([[1.0, 2.0], [2.0, 1.0]]), 3, 0)


class TestSmoothProjection:
    def test_zero_laplacian_identity(self):
        r = np.arange(4.0)
        np.testing.assert_allclose(
            smooth_projection(r, Laplacian(np.zeros((4, 4)))), r)

    def test_constant_vector_untouched(self):
        r = np.ones(3) * 2.5
        np.testing.assert_allclose(smooth_projection(r, K3_L), r, rtol=1e-12)

    def test_k3_indicator(self):
        r = np.array([1.0, 0.0, 0.0])
        t = smooth_projection(r, K3_L)
        expected = np.linalg.solve(np.eye(3) + K3_L.matrix, r)
        np.testing.assert_allclose(t, expected)
        assert np.linalg.norm(t) < np.linalg.norm(r)
        assert t @ K3_L.matrix @ t < r @ K3_L.matrix @ r

    def test_optimality_residual(self):
        rng = np.random.default_rng(1)
        L = Laplacian(random_laplacian_matrix(rng, 6))
        r = rng.standard_normal(6)
        t = smooth_projection(r, L)
        assert np.linalg.norm(2 * (t - r) + 2 * L.matrix @ t) <= 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(2)
        L = Laplacian(random_laplacian_matrix(rng, 5))
        r1, r2 = rng.standard_normal(5), rng.standard_normal(5)
        lhs = smooth_projection(2.0 * r1 - 3.0 * r2, L)
        rhs = 2.0 * smooth_projection(r1, L) - 3.0 * smooth_projection(r2, L)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_reduces_roughness_on_random_vectors(self):
        rng = np.random.default_rng(3)
        L = Laplacian(random_laplacian_matrix(rng, 8))
        for _ in range(1000):
            r = rng.standard_normal(8)
            t = smooth_projection(r, L)
            assert t @ L.matrix @ t <= r @ L.matrix @ r + 1e-12


class TestAddNoiseSnr:
    def test_huge_snr_is_noiseless(self):
        T0 = np.random.default_rng(4).standard_normal((10, 5))
        T = add_noise_snr(T0, 300.0, seed=0)
        np.testing.assert_allclose(T, T0, rtol=1e-10)

    def test_zero_db_energy_match(self):
        T0 = np.random.default_rng(5).standard_normal((120, 100))
        T = add_noise_snr(T0, 0.0, seed=1)
        ratio = np.sum((T - T0) ** 2) / np.sum(T0**2)
        assert 0.8 < ratio < 1.25

    def test_realized_snr_within_1db(self):
        T0 = np.random.default_rng(6).standard_normal((50, 20))
        for target in (-5.0, 5.0, 20.0):
            T = add_noise_snr(T0, target, seed=2)
            realized = 10 * np.log10(np.sum(T0**2) / np.sum((T - T0) ** 2))
            assert abs(realized - target) < 1.0

    def test_reproducible(self):
        T0 = np.ones((3, 3))
        assert np.array_equal(add_noise_snr(T0, 10, 7), add_noise_snr(T0, 10, 7))

    def test_zero_signal_rejected(self):
        with pytest.raises(KrgraphError):
            add_noise_snr(np.zeros((2, 2)), 10.0, 0)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, -np.inf])
    def test_out_of_range_snr_rejected(self, snr_db):
        with pytest.raises(KrgraphError, match="out of range"):
            add_noise_snr(np.ones((2, 2)), snr_db, 0)


class TestMakeSyntheticDataset:
    CFG = SynthConfig(num_nodes=12, num_samples=20, graph_model="erdos_renyi",
                      graph_param=0.4, snr_db=5.0, seed=42)

    def test_split_partitions_samples(self):
        train, test, _, _ = make_synthetic_dataset(self.CFG)
        both = np.concatenate([train.X[:, 0], test.X[:, 0]])
        assert sorted(both) == list(range(20))
        assert train.n == test.n == 10

    def test_paper_shapes(self):
        cfg = SynthConfig(num_nodes=50, num_samples=100,
                          graph_model="erdos_renyi", graph_param=0.1,
                          snr_db=5.0, seed=0)
        train, test, graph, C_S = make_synthetic_dataset(cfg)
        assert train.n == test.n == 50
        assert train.T.shape == (50, 50)
        assert graph.num_nodes == 50
        assert C_S.shape == (100, 100)

    def test_targets_no_rougher_than_sources(self):
        train, test, graph, C_S = make_synthetic_dataset(self.CFG)
        L = build_laplacian(graph)
        from krgraph.synthdata import generate_correlated_rows
        R = generate_correlated_rows(C_S, 12, seed=self.CFG.seed + 2)
        for row, t0 in [(train.X[:, 0].astype(int), train.T0),
                        (test.X[:, 0].astype(int), test.T0)]:
            for i, idx in enumerate(row):
                assert t0[i] @ L.matrix @ t0[i] <= \
                    R[idx] @ L.matrix @ R[idx] + 1e-10

    def test_noise_only_on_training_targets(self):
        train, test, _, _ = make_synthetic_dataset(self.CFG)
        assert not np.array_equal(train.T, train.T0)
        assert np.array_equal(test.T, test.T0)

    def test_deterministic(self):
        a = make_synthetic_dataset(self.CFG)
        b = make_synthetic_dataset(self.CFG)
        assert np.array_equal(a[0].T, b[0].T)
        assert np.array_equal(a[2].adjacency, b[2].adjacency)

    def test_different_seed_differs(self):
        cfg2 = SynthConfig(num_nodes=12, num_samples=20,
                           graph_model="erdos_renyi", graph_param=0.4,
                           snr_db=5.0, seed=43)
        a = make_synthetic_dataset(self.CFG)
        b = make_synthetic_dataset(cfg2)
        assert not np.array_equal(a[0].T, b[0].T)

    @pytest.mark.parametrize("model", ["erdos_renyi", "barabasi_albert"])
    def test_nonfinite_graph_param_rejected(self, model):
        with pytest.raises(KrgraphError, match="graph_param"):
            SynthConfig(num_nodes=6, num_samples=8, graph_model=model,
                        graph_param=np.nan, snr_db=5.0, seed=0)

    def test_negative_seed_rejected(self):
        # numpy seeds a generator only with a non-negative integer
        with pytest.raises(KrgraphError, match="seed must be >= 0, got -1"):
            SynthConfig(num_nodes=6, num_samples=8, graph_model="erdos_renyi",
                        graph_param=0.5, snr_db=5.0, seed=-1)

    def test_odd_sample_count_rejected(self):
        with pytest.raises(KrgraphError):
            SynthConfig(num_nodes=5, num_samples=7, graph_model="erdos_renyi",
                        graph_param=0.5, snr_db=0.0, seed=0)

    @pytest.mark.parametrize("param", [2, 2.0, 2.9])
    def test_ba_graph_param_is_an_integer(self, param):
        cfg = dict(num_nodes=10, num_samples=8, graph_model="barabasi_albert",
                   snr_db=10.0, seed=1)
        if param == 2.9:   # int() would build the graph of 2
            with pytest.raises(KrgraphError, match="integer"):
                SynthConfig(graph_param=param, **cfg)
            return
        _, _, graph, _ = make_synthetic_dataset(SynthConfig(graph_param=param,
                                                            **cfg))
        assert np.array_equal(graph.adjacency,
                              barabasi_albert(10, 2, seed=1).adjacency)

    def test_ba_model(self):
        cfg = SynthConfig(num_nodes=10, num_samples=8,
                          graph_model="barabasi_albert", graph_param=2,
                          snr_db=10.0, seed=1)
        _, _, graph, _ = make_synthetic_dataset(cfg)
        assert np.count_nonzero(np.triu(graph.adjacency, 1)) == 3 + 2 * 7


class TestDataset:
    @pytest.mark.parametrize("field", ["X", "T", "T0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite(self, field, value):
        arrays = {"X": np.ones((3, 2)), "T": np.ones((3, 4)),
                  "T0": np.ones((3, 4))}
        arrays[field][1, 0] = value
        with pytest.raises(KrgraphError, match=f"{field} has NaN or infinite"):
            Dataset(**arrays)
