import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from krgraph import evaluation, solver
from krgraph.cli import main
from krgraph.errors import (ConfigError, DimensionError, KrgraphError,
                            SingularSystemError)
from krgraph.evaluation import (
    BenchScenario,
    CvGrid,
    NMSE_FLOOR_DB,
    cross_validate,
    fold_assignment,
    heat_kernel,
    krr_baseline,
    nmse_db,
    nmse_db_from_energies,
    run_benchmark,
    save_results_csv,
)
from krgraph.graphs import Laplacian, build_laplacian, erdos_renyi
from krgraph.kernels import KernelSpec
from krgraph.synthdata import Dataset, SynthConfig, make_synthetic_dataset
from oracles import (cv_table_refit, heat_kernel_expm, null_space_laplacians,
                     null_space_projector, random_laplacian_matrix, random_psd)

NULL_SPACE_CASES = null_space_laplacians()


class TestNmse:
    def test_perfect_fit_floored(self):
        T0 = np.ones((3, 3))
        assert nmse_db(T0, T0) == NMSE_FLOOR_DB

    def test_zero_prediction_is_0db(self):
        T0 = np.random.default_rng(0).standard_normal((4, 4))
        assert nmse_db(np.zeros_like(T0), T0) == pytest.approx(0.0)

    def test_minus_20db_case(self):
        rng = np.random.default_rng(1)
        T0 = rng.standard_normal((10, 10))
        e = rng.standard_normal((10, 10))
        e *= np.sqrt(0.01 * np.sum(T0**2) / np.sum(e**2))
        assert nmse_db(T0 + e, T0) == pytest.approx(-20.0, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        Y, T0 = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
        for c in (0.1, -3.0, 100.0):
            assert nmse_db(c * Y, c * T0) == pytest.approx(nmse_db(Y, T0))

    def test_zero_reference_rejected(self):
        with pytest.raises(KrgraphError):
            nmse_db(np.ones((2, 2)), np.zeros((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError, match="shape mismatch"):
            nmse_db(np.ones((2, 2)), np.ones((2, 3)))

    def test_zero_signal_energy_rejected(self):
        """The one zero-reference rule, which nmse_db reaches too."""
        with pytest.raises(KrgraphError,
                           match="reference signal is zero; NMSE undefined"):
            nmse_db_from_energies(np.ones(3), 0.0)

    def test_energy_averaging(self):
        assert nmse_db_from_energies(1.0, 100.0) == pytest.approx(-20.0)
        assert nmse_db_from_energies(0.0, 1.0) == NMSE_FLOOR_DB

    def test_energies_elementwise_match_nmse_db(self):
        rng = np.random.default_rng(4)
        T0 = rng.standard_normal((6, 3))
        Ys = [T0, T0 + 1e-3 * rng.standard_normal((6, 3)), np.zeros((6, 3))]
        errors = np.array([np.sum((Y - T0) ** 2) for Y in Ys])
        out = nmse_db_from_energies(errors, float(np.sum(T0**2)))
        assert out.tolist() == [nmse_db(Y, T0) for Y in Ys]

    def test_nmse_db_is_energy_formula_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            shape = tuple(rng.integers(1, 6, size=2))
            T0 = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3)
            kind = rng.integers(4)
            if kind == 0:
                Y = T0.copy()                  # floor
            elif kind == 1:
                Y = np.zeros(shape)            # exactly 0 dB
            else:
                Y = T0 + 10.0 ** rng.uniform(-20, 1) * rng.standard_normal(shape)
            expected = nmse_db_from_energies(float(np.sum((Y - T0) ** 2)),
                                              float(np.sum(T0**2)))
            assert nmse_db(Y, T0) == expected
            assert type(nmse_db(Y, T0)) is float


class TestFoldAssignment:
    def test_partition(self):
        folds = fold_assignment(23, 5, seed=0)
        assert len(folds) == 5
        allidx = np.sort(np.concatenate(folds))
        assert np.array_equal(allidx, np.arange(23))

    def test_deterministic(self):
        a = fold_assignment(10, 3, seed=1)
        b = fold_assignment(10, 3, seed=1)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_too_many_folds(self):
        with pytest.raises(KrgraphError):
            fold_assignment(3, 5, seed=0)

    def test_negative_seed(self):
        with pytest.raises(KrgraphError, match="seed must be >= 0, got -3"):
            fold_assignment(10, 3, seed=-3)


@pytest.mark.parametrize("sigma_sqs", [(1.0, np.inf), (np.nan,), (0.0,), (-1.0,)],
                         ids=["inf", "nan", "zero", "negative"])
def test_grid_bandwidths_finite_and_positive(sigma_sqs):
    with pytest.raises(KrgraphError, match="sigma_sqs must be finite and > 0"):
        CvGrid(alphas=[0.1], betas=[0.0], sigma_sqs=sigma_sqs)


def _toy_dataset(seed=0, n=20, M=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    L = Laplacian(random_laplacian_matrix(rng, M))
    W = rng.standard_normal((3, M))
    T0 = X @ W
    T = T0 + 0.1 * rng.standard_normal((n, M))
    return Dataset(X=X, T=T, T0=T0), L


class TestCrossValidate:
    def test_single_point_grid(self):
        train, L = _toy_dataset()
        grid = CvGrid(alphas=[0.5], betas=[0.7], folds=4)
        best, table = cross_validate(train, L, grid, "LRG", seed=0)
        assert best == {"alpha": 0.5, "beta": 0.7, "sigma_sq": None}
        assert len(table) == 1

    def test_duplicate_points_same_score(self):
        train, L = _toy_dataset(1)
        grid = CvGrid(alphas=[0.5, 0.5], betas=[0.1], folds=4)
        _, table = cross_validate(train, L, grid, "LRG", seed=0)
        assert table[0]["nmse_db"] == table[1]["nmse_db"]

    def test_graph_free_methods_pin_beta(self):
        train, L = _toy_dataset(2)
        grid = CvGrid(alphas=[0.1, 1.0], betas=[0.0, 5.0],
                      sigma_sqs=[1.0], folds=4)
        best, table = cross_validate(train, L, grid, "KR", seed=0)
        assert best["beta"] == 0.0
        assert len(table) == 2  # beta grid collapsed

    def test_tie_break_toward_smaller(self):
        # noiseless targets and a grid whose points all fit perfectly:
        # every score hits the floor, smallest (alpha, beta) must win
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 2))
        T0 = X @ rng.standard_normal((2, 3))
        train = Dataset(X=X, T=T0, T0=T0)
        L = Laplacian(np.zeros((3, 3)))
        grid = CvGrid(alphas=[1e-12, 1e-11], betas=[0.0, 1e-12], folds=3)
        best, _ = cross_validate(train, L, grid, "LRG", seed=0)
        assert best["alpha"] == 1e-12
        assert best["beta"] == 0.0

    def test_smooth_data_selects_positive_beta(self):
        # targets generated smooth over a known graph: KRG's in-grid CV
        # should pick beta > 0 most of the time
        wins = 0
        reps = 20
        for seed in range(reps):
            cfg = SynthConfig(num_nodes=15, num_samples=30,
                              graph_model="erdos_renyi", graph_param=0.3,
                              snr_db=0.0, seed=1000 + seed)
            train, _, graph, C_S = make_synthetic_dataset(cfg)
            L = build_laplacian(graph)
            spec = KernelSpec(kind="precomputed", precomputed=C_S)
            grid = CvGrid(alphas=[0.01, 0.1, 1.0], betas=[0.0, 0.1, 1.0],
                          folds=5)
            best, _ = cross_validate(train, L, grid, "KRG", seed=seed,
                                     kernel_spec=spec)
            if best["beta"] > 0:
                wins += 1
        assert wins >= 0.8 * reps

    @pytest.mark.parametrize("method,kernel_spec", [
        *(pytest.param(m, None, id=f"rbf_sigma_grid-{m}")
          for m in ("LR", "LRG", "KR", "KRG")),
        *(pytest.param(m, KernelSpec(kind="linear"), id=f"fixed_linear-{m}")
          for m in ("KR", "KRG")),
    ])
    def test_matches_refit_oracle(self, method, kernel_spec):
        train, L = _toy_dataset(5, n=18, M=4)
        reads_sigma = method in ("KR", "KRG") and kernel_spec is None
        grid = CvGrid(alphas=[0.01, 0.5], betas=[0.0, 0.3, 2.0],
                      sigma_sqs=[0.5, 2.0] if reads_sigma else (), folds=3)
        best, table = cross_validate(train, L, grid, method, seed=1,
                                     kernel_spec=kernel_spec)
        expected = cv_table_refit(train, L, grid, method, seed=1,
                                  kernel_spec=kernel_spec)
        assert [r["params"] for r in table] == [r["params"] for r in expected]
        np.testing.assert_allclose([r["nmse_db"] for r in table],
                                   [r["nmse_db"] for r in expected],
                                   rtol=0, atol=1e-9)
        assert best == min(expected, key=lambda r: r["nmse_db"])["params"]

    @pytest.mark.parametrize("method", ["KR", "KRG"])
    def test_low_rank_folds_match_refit_oracle(self, method):
        """640 rows in 5 folds fit 512 rows each, so each fold's linear
        Gram, of rank 3, takes the rank-revealing cache, and each score
        adds the part of the targets outside its range."""
        train, L = _toy_dataset(9, n=640, M=6)
        spec = KernelSpec(kind="linear")
        X_fold = train.X[:512]
        assert solver.SpectralCache.build(X_fold @ X_fold.T,
                                          L).u.shape == (512, 3)
        grid = CvGrid(alphas=[0.01, 0.5], betas=[0.0, 2.0], folds=5)
        best, table = cross_validate(train, L, grid, method, seed=2,
                                     kernel_spec=spec)
        expected = cv_table_refit(train, L, grid, method, seed=2,
                                  kernel_spec=spec)
        assert [r["params"] for r in table] == [r["params"] for r in expected]
        np.testing.assert_allclose([r["nmse_db"] for r in table],
                                   [r["nmse_db"] for r in expected],
                                   rtol=0, atol=1e-9)
        assert best == min(expected, key=lambda r: r["nmse_db"])["params"]

    @pytest.mark.parametrize("method", ["LRG", "KRG"])
    def test_unsorted_repeated_grid_matches_refit_oracle(self, method):
        train, L = _toy_dataset(7, n=15, M=4)
        grid = CvGrid(alphas=[1.0, 0.01, 0.3, 0.01], betas=[2.0, 0.0, 2.0],
                      sigma_sqs=[3.0, 0.7] if method == "KRG" else (), folds=3)
        best, table = cross_validate(train, L, grid, method, seed=4)
        expected = cv_table_refit(train, L, grid, method, seed=4)
        assert len(table) == 4 * 3 * (1 if method == "LRG" else 2)
        assert [r["params"] for r in table] == [r["params"] for r in expected]
        np.testing.assert_allclose([r["nmse_db"] for r in table],
                                   [r["nmse_db"] for r in expected],
                                   rtol=0, atol=1e-9)
        assert best == min(expected, key=lambda r: r["nmse_db"])["params"]

    def test_benchmark_shapes_match_refit_oracle(self):
        """One realization of the shipped SNR sweep's selection: n = 50
        training rows, 5 folds, M = 50 nodes, the precomputed C_S kernel,
        and the shipped 4 x 6 grid, which includes beta = 0 as
        run_benchmark requires."""
        cfg = SynthConfig(num_nodes=50, num_samples=100,
                          graph_model="erdos_renyi", graph_param=0.6,
                          snr_db=10.0, seed=2026)
        train, _, graph, C_S = make_synthetic_dataset(cfg)
        assert train.n == 50
        L = build_laplacian(graph)
        spec = KernelSpec(kind="precomputed", precomputed=C_S)
        grid = CvGrid(alphas=[0.001, 0.01, 0.1, 1.0],
                      betas=[0.0, 0.1, 0.3, 1.0, 3.0, 10.0], folds=5)
        best, table = cross_validate(train, L, grid, "KRG", seed=7,
                                     kernel_spec=spec)
        expected = cv_table_refit(train, L, grid, "KRG", seed=7,
                                  kernel_spec=spec)
        assert [r["params"] for r in table] == [r["params"] for r in expected]
        np.testing.assert_allclose([r["nmse_db"] for r in table],
                                   [r["nmse_db"] for r in expected],
                                   rtol=0, atol=1e-9)
        assert best == min(expected, key=lambda r: r["nmse_db"])["params"]

    def test_lrg_more_validation_rows_than_features(self):
        # each fold scores 10 validation rows against a 3 x 3 feature
        # Gram eigenbasis
        train, L = _toy_dataset(12, n=40, M=6)
        grid = CvGrid(alphas=[0.01, 0.3, 2.0], betas=[0.0, 0.5, 4.0], folds=4)
        assert train.n // grid.folds > train.X.shape[1]
        best, table = cross_validate(train, L, grid, "LRG", seed=3)
        expected = cv_table_refit(train, L, grid, "LRG", seed=3)
        assert [r["params"] for r in table] == [r["params"] for r in expected]
        np.testing.assert_allclose([r["nmse_db"] for r in table],
                                   [r["nmse_db"] for r in expected],
                                   rtol=0, atol=1e-9)
        assert best == min(expected, key=lambda r: r["nmse_db"])["params"]

    @pytest.mark.parametrize("method,kernel_spec,sigma_sqs,words", [
        ("LR", KernelSpec(kind="linear"), (), "LR fits the raw features"),
        ("LRG", None, (1.0,), "LRG fits the raw features"),
        ("KRG", KernelSpec(kind="linear"), (1.0,), "grid.sigma_sqs"),
        ("KR", KernelSpec(kind="rbf", sigma_sq=2.0), (1.0,), "grid.sigma_sqs"),
    ], ids=["primal_kernel", "primal_sigma_grid", "linear_sigma_grid",
            "rbf_sigma_twice"])
    def test_unread_setting_is_config_error(self, method, kernel_spec,
                                            sigma_sqs, words):
        train, L = _toy_dataset(11)
        grid = CvGrid(alphas=[0.1], betas=[0.0], sigma_sqs=sigma_sqs, folds=3)
        with pytest.raises(ConfigError, match=words):
            cross_validate(train, L, grid, method, seed=0,
                           kernel_spec=kernel_spec)

    def test_krg_singular_grid_point_raises(self):
        # a linear kernel on 3 features has rank 3 < n_fit: alpha = 0 is
        # singular in the first fold, even though alpha = 0.1 is not
        train, L = _toy_dataset(8)
        grid = CvGrid(alphas=[0.1, 0.0], betas=[0.5], folds=4)
        with pytest.raises(SingularSystemError, match="theta"):
            cross_validate(train, L, grid, "KRG", seed=0,
                           kernel_spec=KernelSpec(kind="linear"))

    def test_lrg_collinear_features_alpha_zero_raises(self):
        train, L = _toy_dataset(9)
        X = np.c_[train.X, 2.0 * train.X[:, 0]]
        train = Dataset(X=X, T=train.T, T0=train.T0)
        grid = CvGrid(alphas=[0.1, 0.0], betas=[0.5], folds=4)
        with pytest.raises(SingularSystemError, match="rank-deficient"):
            cross_validate(train, L, grid, "LRG", seed=0)

    @pytest.mark.parametrize("method", ["LR", "LRG", "KR", "KRG"])
    def test_no_per_point_fits(self, monkeypatch, method):
        calls = []
        for name in ("fit_krg", "fit_lrg", "solve_sylvester_spectral"):
            for module in (solver, evaluation):
                if hasattr(module, name):
                    fn = getattr(module, name)
                    monkeypatch.setattr(
                        module, name,
                        lambda *a, _fn=fn, _n=name, **k: calls.append(_n) or _fn(*a, **k))
        train, L = _toy_dataset(10)
        grid = CvGrid(alphas=[0.01, 0.1, 1.0], betas=[0.0, 0.5],
                      sigma_sqs=[1.0, 2.0] if method in ("KR", "KRG") else (),
                      folds=4)
        _, table = cross_validate(train, L, grid, method, seed=0)
        assert table and calls == []

    def test_kr_table_is_krg_beta_zero_rows(self):
        train, L = _toy_dataset(6)
        grid = CvGrid(alphas=[0.01, 0.1, 1.0], betas=[0.0, 0.5],
                      sigma_sqs=[1.0, 3.0], folds=4)
        _, kr = cross_validate(train, L, grid, "KR", seed=2)
        _, krg = cross_validate(train, L, grid, "KRG", seed=2)
        assert kr == [r for r in krg if r["params"]["beta"] == 0.0]


class TestKrrBaseline:
    def test_hand_computed_p4_s2(self):
        K_bar = np.array([
            [2.0, 1.0, 0.5, 0.2],
            [1.0, 2.0, 1.0, 0.5],
            [0.5, 1.0, 2.0, 1.0],
            [0.2, 0.5, 1.0, 2.0],
        ])
        obs = [2, 3]
        x = np.array([1.0, -1.0])
        mu = 0.25
        # direct evaluation with the selection matrix written out
        Phi = np.zeros((2, 4))
        Phi[0, 2] = Phi[1, 3] = 1.0
        inner = Phi @ K_bar @ Phi.T + mu * 2 * np.eye(2)
        expected = K_bar @ Phi.T @ np.linalg.solve(inner, x)
        np.testing.assert_allclose(krr_baseline(K_bar, obs, x, mu), expected,
                                   rtol=1e-12)

    def test_full_observation_interpolation(self):
        rng = np.random.default_rng(4)
        K_bar = random_psd(rng, 5) + np.eye(5)
        x = rng.standard_normal(5)
        est = krr_baseline(K_bar, np.arange(5), x, mu=1e-10)
        np.testing.assert_allclose(est, x, atol=1e-6)

    def test_zero_observation(self):
        K_bar = np.eye(4)
        est = krr_baseline(K_bar, [0, 2], np.zeros(2), mu=0.1)
        assert np.array_equal(est, np.zeros(4))

    def test_bad_indices(self):
        with pytest.raises(KrgraphError):
            krr_baseline(np.eye(3), [0, 0], np.zeros(2), mu=0.1)
        with pytest.raises(KrgraphError):
            krr_baseline(np.eye(3), [0, 5], np.zeros(2), mu=0.1)

    def test_singular_system(self):
        """An indefinite kernel can cancel mu S I; krr's CLI rejects it as
        not PSD before it gets here."""
        with pytest.raises(SingularSystemError, match="is singular"):
            krr_baseline(np.diag([1.0, -1.0]), [0, 1], np.array([1.0, 2.0]),
                         mu=0.5)

    def test_nonpositive_mu(self):
        with pytest.raises(KrgraphError):
            krr_baseline(np.eye(3), [0], np.zeros(1), mu=0.0)

    def test_non_square_kernel_rejected(self):
        with pytest.raises(DimensionError,
                           match=r"kernel matrix must be square, got \(2, 3\)"):
            krr_baseline(np.ones((2, 3)), [0], np.zeros(1), mu=0.1)

    def test_one_observation_per_index(self):
        """The library's own guard; krr's config checks it before any
        file is read."""
        with pytest.raises(DimensionError,
                           match="observation length 1 != 2 indices"):
            krr_baseline(np.eye(3), [0, 1], np.zeros(1), mu=0.1)

    @pytest.mark.parametrize("mu", [float("nan"), 1e308])
    def test_nan_or_overflowing_mu(self, mu):
        """mu * S * I would be NaN off the diagonal at mu * S = inf."""
        with pytest.raises(KrgraphError, match="mu must be > 0"):
            krr_baseline(np.eye(3), [0, 1], np.zeros(2), mu=mu)

    def test_heat_kernel_psd(self):
        L = build_laplacian(erdos_renyi(8, 0.4, seed=0))
        K = heat_kernel(L, 0.5)
        evals = np.linalg.eigvalsh(K)
        assert evals.min() > 0
        np.testing.assert_allclose(K, K.T, atol=1e-12)


class TestHeatKernel:
    """exp(-tau L) from L's eigenpairs against expm at moderate tau and
    against the per-component average, its limit, at large tau."""

    @pytest.mark.parametrize("case", NULL_SPACE_CASES)
    def test_matches_expm_at_moderate_tau(self, case):
        L = Laplacian(NULL_SPACE_CASES[case])
        for tau in (0.01, 0.1, 0.5, 1.0):
            np.testing.assert_allclose(heat_kernel(L, tau),
                                       heat_kernel_expm(L.matrix, tau),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", NULL_SPACE_CASES)
    def test_large_tau_is_the_component_average(self, case):
        L = Laplacian(NULL_SPACE_CASES[case])
        projector, _ = null_space_projector(L.matrix)
        for tau in (1e6, 1e8, 1e12, 1e16):
            np.testing.assert_allclose(heat_kernel(L, tau), projector,
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0, 0.0])
    def test_tau_outside_the_open_half_line_rejected(self, tau):
        L = build_laplacian(erdos_renyi(8, 0.4, seed=0))
        with pytest.raises(KrgraphError, match="tau must be finite and > 0"):
            heat_kernel(L, tau)


SMALL_GRID = CvGrid(alphas=[0.1, 1.0], betas=[0.0, 1.0], folds=3)


def _record(path, value):
    """Append value as one line of path: run_benchmark's realizations run
    in forked workers, whose list appends this process never sees."""
    with open(path, "a", encoding="ascii") as fh:
        fh.write(f"{value}\n")


def _recorded(path):
    return path.read_text(encoding="ascii").splitlines() if path.exists() else []


def small_scenario(**overrides):
    base = dict(methods=("KRG",), n_train=(8,), snr_db=(5.0,),
                realizations=2, num_nodes=8, num_samples=20,
                graph_model="erdos_renyi", graph_param=0.4,
                grid=SMALL_GRID, master_seed=7)
    base.update(overrides)
    return BenchScenario(**base)


class TestRunBenchmark:
    def test_single_cell_two_rows(self):
        results, failures = run_benchmark(small_scenario(realizations=1))
        assert not failures
        assert len(results) == 2
        assert {r.split for r in results} == {"train", "test"}
        assert all(np.isfinite(r.nmse_db) for r in results)

    def test_krg_with_zero_beta_grid_equals_kr(self):
        grid0 = CvGrid(alphas=[0.1, 1.0], betas=[0.0], folds=3)
        res_kr, _ = run_benchmark(small_scenario(methods=("KR",), grid=grid0))
        res_krg, _ = run_benchmark(small_scenario(methods=("KRG",), grid=grid0))
        for a, b in zip(res_kr, res_krg):
            assert a.nmse_db == b.nmse_db
            assert a.split == b.split

    def test_deterministic(self):
        a, _ = run_benchmark(small_scenario())
        b, _ = run_benchmark(small_scenario())
        assert a == b

    def test_failed_cell_isolated(self):
        sc = small_scenario(snr_db=(5.0, 4000.0))  # the noise draw rejects 4000
        results, failures = run_benchmark(sc)
        assert len(failures) == 1
        assert failures[0]["snr_db"] == 4000.0
        assert len(results) == 2  # the valid cell still completed

    @pytest.mark.parametrize("betas", [(0.0, 1.0), (0.3, 1.0)],
                             ids=["zero_in_grid", "zero_not_in_grid"])
    def test_two_methods_equal_separate_runs(self, betas):
        # two failing cells (snr_db=4000) check the order of failures too
        sc = dict(n_train=(8, 6), snr_db=(0.0, 4000.0),
                  grid=CvGrid(alphas=[0.1, 1.0], betas=betas, folds=3))
        both = run_benchmark(small_scenario(methods=("KR", "KRG"), **sc))
        kr = run_benchmark(small_scenario(methods=("KR",), **sc))
        krg = run_benchmark(small_scenario(methods=("KRG",), **sc))
        assert both[0] == kr[0] + krg[0]
        assert both[1] == kr[1] + krg[1]
        assert len(both[0]) == 8 and len(both[1]) == 4

    def test_one_dataset_and_laplacian_eigh_per_realization(self, monkeypatch,
                                                            tmp_path):
        R, M = 3, 9  # M differs from every Gram size, so 9 x 9 eighs are L's
        files = [tmp_path / name for name in ("seeds", "cv", "laplacians")]
        make = evaluation.make_synthetic_dataset
        monkeypatch.setattr(evaluation, "make_synthetic_dataset",
                            lambda cfg: _record(files[0], cfg.seed) or make(cfg))
        cv = evaluation.cross_validate
        monkeypatch.setattr(evaluation, "cross_validate",
                            lambda *a, **k: _record(files[1], 1) or cv(*a, **k))
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            if np.shape(a) == (M, M):
                _record(files[2], np.asarray(a).tobytes().hex())
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        results, failures = run_benchmark(small_scenario(
            methods=("KR", "KRG"), realizations=R, snr_db=(0.0, 5.0),
            num_nodes=M))
        seeds, cv_calls, laplacians = map(_recorded, files)
        assert not failures and len(results) == 8
        cells = 2
        assert len(seeds) == len(set(seeds)) == cells * R
        assert len(cv_calls) == cells * R
        assert len(laplacians) == len(set(laplacians)) == cells * R

    def test_no_model_is_constructed(self, monkeypatch, tmp_path):
        """A cell scores its selected fits from psi alone: no KrgModel."""
        path, make = tmp_path / "models", solver.KrgModel
        monkeypatch.setattr(solver, "KrgModel",
                            lambda **kw: _record(path, sorted(kw)) or make(**kw))
        results, failures = run_benchmark(small_scenario())
        models = _recorded(path)
        assert not failures and len(results) == 2
        assert models == []

    def test_workers_give_the_in_process_results(self, monkeypatch, tmp_path):
        """Forked workers and one process give equal results and failures,
        in the same order; the draw rejects snr_db 4000, in each
        realization of its cells."""
        path, make = tmp_path / "pids", evaluation.make_synthetic_dataset
        monkeypatch.setattr(evaluation, "make_synthetic_dataset",
                            lambda cfg: _record(path, os.getpid()) or make(cfg))
        scenario = small_scenario(methods=("KR", "KRG"), n_train=(6, 8),
                                  snr_db=(5.0, 4000.0), realizations=3)
        runs = []
        for cpus in ({0, 1}, {0}):   # two workers, then none
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: c)
            path.unlink(missing_ok=True)
            runs.append((run_benchmark(scenario), set(_recorded(path))))
        (pooled, pooled_pids), (alone, alone_pids) = runs
        assert pooled[0] == alone[0] and pooled[1] == alone[1]
        assert len(alone[0]) == 8 and len(alone[1]) == 4
        assert alone_pids == {str(os.getpid())}
        assert pooled_pids and str(os.getpid()) not in pooled_pids

    def test_programming_error_propagates(self, monkeypatch):
        # only a KrgraphError is a cell failure; anything else is a bug
        def broken(*args, **kwargs):
            raise TypeError("bug")

        monkeypatch.setattr(evaluation, "cross_validate", broken)
        with pytest.raises(TypeError, match="bug"):
            run_benchmark(small_scenario())

    @pytest.mark.parametrize("override", [
        {"snr_db": (5.0, -5.0)}, {"snr_db": (np.nan,)}, {"snr_db": (np.inf,)},
        {"snr_db": (1e306,)}, {"master_seed": -1}, {"n_train": (8, -8)},
    ], ids=["negative_snr", "nan_snr", "inf_snr", "snr_seed_key_overflows",
            "negative_seed", "negative_n_train"])
    def test_values_the_cell_seed_cannot_take_rejected(self, override):
        with pytest.raises(KrgraphError, match="master_seed >= 0"):
            small_scenario(**override)

    @pytest.mark.parametrize("override, message", [
        ({"n_train": (8, 9, 8)}, "n_train repeats 8"),
        ({"snr_db": (5, 0.0, 5.0)}, "snr_db repeats 5.0"),
        ({"methods": ("KR", "KRG", "KR")}, "methods repeats 'KR'"),
        # distinct SNRs whose cells would draw the same realizations, or
        # whose NMSE-against-n_train tables would overwrite one another
        ({"snr_db": (5.0, 5.0000001)}, "snr_db values 5.0 and 5.0000001 "
         "share the seed key round(1000 snr) = 5000 and the plot file "
         "plot_nmse_vs_n_snr5.csv"),
        ({"snr_db": (0.0, 5.0, 5.0004)}, "snr_db values 5.0 and 5.0004 "
         "share the seed key round(1000 snr) = 5000"),
        ({"snr_db": (1234.5671, 1234.5679)}, "snr_db values 1234.5671 and "
         "1234.5679 share the plot file plot_nmse_vs_n_snr1234.57.csv"),
    ], ids=["n_train", "snr_db", "methods", "snr_db_seed_key_and_file",
            "snr_db_seed_key", "snr_db_file"])
    def test_repeated_axis_value_rejected(self, override, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_scenario(**override)

    def test_sigma_grid_rejected_in_scenario(self):
        # the benchmark kernel is the precomputed covariance, so a
        # bandwidth grid would be accepted and never read
        grid = CvGrid(alphas=[0.1], betas=[0.0], sigma_sqs=[1.0], folds=3)
        with pytest.raises(KrgraphError, match="sigma_sqs"):
            small_scenario(grid=grid)

    def test_krr_rejected_in_scenario(self):
        # synthetic data has no features, so LR/LRG cells are rejected too
        for method in ("KRR", "LR", "LRG"):
            with pytest.raises(KrgraphError):
                small_scenario(methods=(method,))

    @pytest.mark.parametrize("cpus", [{0, 1}, {0}], ids=["workers", "alone"])
    def test_first_failed_realization_is_the_cells_failure(self, monkeypatch,
                                                           cpus):
        failing = {evaluation._realization_seed(7, 8, 5.0, r): r for r in (2, 1)}
        make = evaluation.make_synthetic_dataset

        def draw(cfg):
            if cfg.seed in failing:
                raise KrgraphError(f"realization {failing[cfg.seed]}")
            return make(cfg)

        monkeypatch.setattr(evaluation, "make_synthetic_dataset", draw)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        results, failures = run_benchmark(small_scenario(
            snr_db=(0.0, 5.0), realizations=3))
        assert len(results) == 2 and results[0].snr_db == 0.0
        assert failures == [{"method": "KRG", "n_train": 8, "snr_db": 5.0,
                             "error": "KrgraphError: realization 1"}]

    def test_n_train_above_the_pool_rejected_at_construction(self):
        """num_samples fixes the training pool before any draw."""
        with pytest.raises(ConfigError, match=re.escape(
                "n_train=11 exceeds the training pool of num_samples // 2 "
                "= 10 rows")):
            small_scenario(n_train=(8, 11))
        small_scenario(n_train=(8, 10))

    def test_folds_above_the_smallest_n_train_rejected_before_any_draw(
            self, monkeypatch, tmp_path):
        """Each realization cross-validates on its n_train rows, so a fold
        count above the smallest fails at construction: bench draws no
        data and writes no results file."""
        grid = replace(SMALL_GRID, folds=5)
        with pytest.raises(ConfigError, match=re.escape(
                "bench grid.folds=5 exceeds the smallest n_train=3")):
            small_scenario(n_train=(3, 10), grid=grid)
        small_scenario(n_train=(5, 10), grid=grid)
        draws = tmp_path / "draws"
        monkeypatch.setattr(evaluation, "make_synthetic_dataset",
                            lambda cfg: _record(draws, cfg.seed))
        config, out = tmp_path / "bench.json", tmp_path / "out"
        config.write_text(json.dumps({
            "methods": ["KR", "KRG"], "n_train": [3, 10], "snr_db": [5.0],
            "realizations": 2, "num_nodes": 8, "num_samples": 20,
            "graph_model": "erdos_renyi", "graph_param": 0.4,
            "grid": {"alphas": [0.1], "betas": [0.0, 1.0], "folds": 5},
            "master_seed": 7}), encoding="utf-8")
        assert main(["bench", "--config", str(config),
                     "--out-dir", str(out)]) == 1
        assert _recorded(draws) == [] and list(out.glob("results.*")) == []

    def test_synthetic_law_rejected_at_construction(self):
        """SynthConfig's rules run once, before any cell, not once per
        realization of every cell."""
        with pytest.raises(KrgraphError, match="attachment count"):
            small_scenario(graph_model="barabasi_albert", graph_param=2.5)

    def test_results_csv_schema(self, tmp_path):
        results, _ = run_benchmark(small_scenario(realizations=1))
        path = tmp_path / "results.csv"
        save_results_csv(path, results)
        lines = path.read_text().splitlines()
        assert lines[0] == "method,n_train,snr_db,split,nmse_db,realizations,seed"
        assert len(lines) == 3
