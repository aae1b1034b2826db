"""Acceptance gate: one test per release criterion, fixed tolerances.

Each test prints a single PASS line on success (pytest -v shows FAIL
otherwise), so the suite output doubles as the acceptance report.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from krgraph.cli import main as cli_main
from krgraph.evaluation import (
    BenchScenario,
    CvGrid,
    NMSE_FLOOR_DB,
    krr_baseline,
    nmse_db,
    run_benchmark,
)
from krgraph.graphs import Laplacian, build_laplacian, erdos_renyi
from krgraph.graphlearn import (
    GraphLearnConfig,
    _laplacian_step_constrained,
    _smoothness_costs,
    alternating_fit,
)
from krgraph.kernels import KernelSpec, gram_matrix, kernel_cross_matrix
from krgraph.solver import (
    Hyperparams,
    SpectralCache,
    dual_cost,
    dual_cost_gradient,
    fit_krg,
    fit_lrg,
    predict_krg,
    predict_lrg,
    shrinkage_factors,
)
from oracles import (
    dense_kron_dual_solve,
    edge_overlap_matrix,
    random_laplacian_matrix,
    random_psd,
)
from test_graphlearn import simplex_grid_oracle


def _random_instance(rng, n_max=15, m_max=10):
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    X = rng.standard_normal((n, max(2, m // 2)))
    K = X @ X.T + 0.1 * np.eye(n)
    L = random_laplacian_matrix(rng, m)
    T = rng.standard_normal((n, m))
    return K, L, T


def test_criterion_1_kronecker_solve_oracle():
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    combos = list(itertools.product([0.01, 1.0], [0.0, 0.5, 5.0]))
    for i in range(50):
        K, L, T = _random_instance(rng)
        alpha, beta = combos[i % len(combos)]
        hyper = Hyperparams(alpha=alpha, beta=beta)
        psi = fit_krg(K, T, Laplacian(L), hyper).psi
        ref = dense_kron_dual_solve(K, L, T, alpha, beta)
        err = np.linalg.norm(psi - ref, "fro") / np.linalg.norm(ref, "fro")
        assert err <= 1e-8, f"instance {i}: relative error {err:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    print(f"PASS criterion 1: 50/50 spectral solves within 1e-8 "
          f"of dense Kronecker oracle in {elapsed:.2f}s")


def test_criterion_2_reduction_chain():
    rng = np.random.default_rng(2)
    for i in range(20):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(2, 8))
        X = rng.standard_normal((n, 3))
        T = rng.standard_normal((n, m))
        L = Laplacian(random_laplacian_matrix(rng, m))
        alpha = float(rng.uniform(0.05, 2.0))
        spec = KernelSpec(kind="linear")
        K, spec = gram_matrix(X, spec)
        x_new = rng.standard_normal(3)

        # beta = 0 collapses to plain kernel ridge
        model0 = fit_krg(K, T, L, Hyperparams(alpha=alpha, beta=0.0),
                         x_train=X, spec=spec)
        psi_kr = np.linalg.solve(K + alpha * np.eye(n), T)
        y_kr = psi_kr.T @ kernel_cross_matrix(X, x_new, spec)[0]
        np.testing.assert_allclose(predict_krg(model0, x_new), y_kr,
                                   atol=1e-10)

        # linear-kernel dual agrees with the primal weight-space solve
        beta = float(rng.uniform(0.1, 2.0))
        hyper = Hyperparams(alpha=alpha, beta=beta)
        krg = fit_krg(K, T, L, hyper, x_train=X, spec=spec)
        lrg = fit_lrg(X, T, L, hyper)
        scale = max(1.0, np.abs(predict_lrg(lrg, x_new)).max())
        np.testing.assert_allclose(predict_krg(krg, x_new),
                                   predict_lrg(lrg, x_new),
                                   atol=1e-8 * scale)
    print("PASS criterion 2: beta=0 matches ridge closed form (1e-10) and "
          "linear-kernel dual matches primal (1e-8) on 20 instances")


def test_criterion_3_gradient_and_stationarity():
    rng = np.random.default_rng(3)
    K, L_mat, T = _random_instance(rng, n_max=8, m_max=6)
    L = Laplacian(L_mat)
    hyper = Hyperparams(alpha=0.4, beta=0.9)
    h = 1e-5
    for _ in range(10):
        psi = rng.standard_normal(T.shape)
        analytic = dual_cost_gradient(K, psi, T, L, hyper)
        fd = np.zeros_like(psi)
        for idx in np.ndindex(*psi.shape):
            e = np.zeros_like(psi)
            e[idx] = h
            fd[idx] = (dual_cost(K, psi + e, T, L, hyper)
                       - dual_cost(K, psi - e, T, L, hyper)) / (2 * h)
        rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-4, f"finite-difference mismatch {rel:.2e}"
    model = fit_krg(K, T, L, hyper)
    gnorm = np.linalg.norm(
        dual_cost_gradient(K, model.psi, T, L, hyper), "fro")
    bound = 1e-6 * np.linalg.norm(T, "fro")
    assert gnorm <= bound, f"gradient at optimum {gnorm:.2e} > {bound:.2e}"
    print(f"PASS criterion 3: finite-difference gradient within 1e-4 at 10 "
          f"points; stationarity norm {gnorm:.2e} <= 1e-6 ||T||_F")


def test_criterion_4_smoothing_properties():
    rng = np.random.default_rng(4)
    betas = [0.0, 0.1, 1.0, 10.0, 100.0]
    for i in range(10):
        K, L_mat, T = _random_instance(rng)
        L = Laplacian(L_mat)
        cache = SpectralCache.build(K, L)
        prev = np.inf
        for beta in betas:
            hyper = Hyperparams(alpha=0.3, beta=beta)
            zeta = shrinkage_factors(cache, hyper)
            assert np.all(zeta >= 0.0) and np.all(zeta < 1.0)
            Y = K @ fit_krg(K, T, L, hyper, cache=cache).psi
            rough = float(np.trace(Y @ L.matrix @ Y.T))
            assert rough <= prev * (1 + 1e-10) + 1e-12, \
                f"instance {i}: roughness rose at beta={beta}"
            prev = rough
    print("PASS criterion 4: shrinkage factors in [0,1) and fitted roughness "
          "nonincreasing over beta in {0,0.1,1,10,100} on 10 instances")


def test_criterion_5_synthetic_trend_reproduction():
    start = time.perf_counter()
    grid = CvGrid(alphas=[0.001, 0.01, 0.1, 1.0],
                  betas=[0.0, 0.1, 0.3, 1.0, 3.0, 10.0], folds=5)
    scenario = BenchScenario(
        methods=("KR", "KRG"), n_train=(50,), snr_db=(5.0, 30.0),
        realizations=20, num_nodes=50, num_samples=100,
        graph_model="erdos_renyi", graph_param=0.6,
        grid=grid, master_seed=2026)
    results, failures = run_benchmark(scenario)
    assert not failures, failures
    vals = {(r.method, r.snr_db): r.nmse_db
            for r in results if r.split == "test"}
    gap_low = vals[("KR", 5.0)] - vals[("KRG", 5.0)]
    gap_high = abs(vals[("KR", 30.0)] - vals[("KRG", 30.0)])
    elapsed = time.perf_counter() - start
    assert gap_low >= 0.5, \
        f"KRG gain at 5 dB is {gap_low:.2f} dB (< 0.5 dB)"
    assert gap_high < 1.0, \
        f"gap at 30 dB is {gap_high:.2f} dB (>= 1 dB)"
    assert elapsed < 300.0, f"runtime {elapsed:.0f}s exceeds 5 min"
    print(f"PASS criterion 5: ER M=50 N=50, 20 realizations: KRG beats KR by "
          f"{gap_low:.2f} dB at 5 dB SNR; gap {gap_high:.2f} dB at 30 dB; "
          f"{elapsed:.0f}s")


def test_criterion_6_graph_learning():
    # (a) sub-step monotonicity of the trace-constrained joint cost
    rng = np.random.default_rng(6)
    for run in range(10):
        K = random_psd(rng, 12) + 0.5 * np.eye(12)
        T = rng.standard_normal((12, 6))
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=8)
        _, _, costs = alternating_fit(
            K, T, Hyperparams(alpha=0.3, beta=1.0), cfg)
        for k in range(1, len(costs)):
            prev_after_l = costs[k - 1][1]
            cost_w, cost_l = costs[k]
            assert cost_w <= prev_after_l * (1 + 1e-10) + 1e-12
            assert cost_l <= cost_w * (1 + 1e-10) + 1e-12

    # (b) M=3 edge-weight step against an exhaustive simplex grid
    Y = rng.standard_normal((6, 3))
    cfg = GraphLearnConfig(nu=0.7, trace_budget=3.0)
    w, _ = _laplacian_step_constrained(Y, 2.0, cfg)
    c = _smoothness_costs(Y, 2.0)
    Q = edge_overlap_matrix(3)
    w_star, _ = simplex_grid_oracle(c, Q, cfg.nu, 1.5, steps=1000)
    np.testing.assert_allclose(w, w_star, atol=1.5e-3)

    # (c) support recovery: learned weights correlate with the true graph
    corrs = []
    for seed in range(20):
        g = erdos_renyi(10, 0.3, seed=seed)
        L_true = build_laplacian(g)
        rng_s = np.random.default_rng(600 + seed)
        K = random_psd(rng_s, 20) + 0.5 * np.eye(20)
        R = rng_s.standard_normal((20, 10))
        T = np.linalg.solve(np.eye(10) + 2.0 * L_true.matrix, R.T).T
        cfg = GraphLearnConfig(nu=0.05, max_outer_iters=10)
        model, _, _ = alternating_fit(
            K, T, Hyperparams(alpha=0.1, beta=2.0), cfg)
        w_learned = -model.laplacian.matrix[np.triu_indices(10, 1)]
        w_true = g.adjacency[np.triu_indices(10, 1)]
        rho = spearmanr(w_learned, w_true).statistic
        if not np.isnan(rho):
            corrs.append(rho)
    mean_rho = float(np.mean(corrs))
    assert mean_rho > 0
    print(f"PASS criterion 6: sub-steps monotone on 10 runs; M=3 step within "
          f"grid resolution of exhaustive oracle; mean Spearman "
          f"{mean_rho:.2f} > 0 over 20 seeds")


def test_criterion_7_krr_baseline():
    # hand-computable P=4, S=2 case, written out without the library
    K_bar = np.array([
        [2.0, 1.0, 0.5, 0.2],
        [1.0, 2.0, 1.0, 0.5],
        [0.5, 1.0, 2.0, 1.0],
        [0.2, 0.5, 1.0, 2.0],
    ])
    obs, x, mu = [2, 3], np.array([1.0, -1.0]), 0.25
    Phi = np.zeros((2, 4))
    Phi[0, 2] = Phi[1, 3] = 1.0
    inner = Phi @ K_bar @ Phi.T + mu * 2 * np.eye(2)
    expected = K_bar @ Phi.T @ np.linalg.inv(inner) @ x
    np.testing.assert_allclose(krr_baseline(K_bar, obs, x, mu), expected,
                               rtol=1e-12)

    # full observation, mu -> 0: estimate interpolates x
    rng = np.random.default_rng(7)
    K_full = random_psd(rng, 6) + np.eye(6)
    x_full = rng.standard_normal(6)
    est = krr_baseline(K_full, np.arange(6), x_full, mu=1e-10)
    err = np.abs(est - x_full).max()
    assert err <= 1e-6
    print(f"PASS criterion 7: hand-computed KRR case exact; full-observation "
          f"interpolation error {err:.1e} <= 1e-6")


def test_criterion_8_metric_and_cli_determinism(tmp_path):
    # exact metric values
    T0 = np.array([[3.0, 4.0]])
    assert nmse_db(T0, T0) == NMSE_FLOOR_DB
    assert nmse_db(np.zeros((1, 2)), T0) == 0.0
    Y = T0 + np.array([[0.3, 0.4]])  # error energy 1/100 of signal energy
    assert nmse_db(Y, T0) == pytest.approx(-20.0, abs=1e-12)

    # every CLI command byte-reproducible under a fixed config
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc), encoding="utf-8")
        return str(p)

    def run_twice(command, cfg_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            rc = cli_main([command, "--config", cfg_path,
                           "--out-dir", str(out)])
            assert rc == 0, f"{command} exited {rc}"
            outs.append(out)
        a, b = outs
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes(), \
                f"{command}: {p.name} not byte-identical"
        return a

    synth_cfg = write("synth.json", {
        "num_nodes": 8, "num_samples": 12, "graph_model": "erdos_renyi",
        "graph_param": 0.4, "snr_db": 5.0, "seed": 3})
    data = run_twice("synth", synth_cfg)

    (tmp_path / "inputs.csv").write_text(
        "f0\n" + (data / "X_train.csv").read_text(), encoding="utf-8")
    ingest_cfg = write("ingest.json", {
        "inputs_csv": str(tmp_path / "inputs.csv"),
        "targets_csv": str(data / "T_train.csv")})
    run_twice("ingest", ingest_cfg)

    fit_cfg = write("fit.json", {
        "x_csv": str(data / "X_train.csv"), "t_csv": str(data / "T_train.csv"),
        "graph_json": str(data / "graph.json"),
        "kernel": {"kind": "precomputed",
                   "matrix_csv": str(data / "kernel_full.csv")},
        "alpha": 0.1, "beta": 0.5})
    fit_out = run_twice("fit", fit_cfg)

    predict_cfg = write("predict.json", {
        "model_json": str(fit_out / "model.json"),
        "x_csv": str(data / "X_test.csv")})
    run_twice("predict", predict_cfg)

    lg_cfg = write("lg.json", {
        "x_csv": str(data / "X_train.csv"), "t_csv": str(data / "T_train.csv"),
        "kernel": {"kind": "precomputed",
                   "matrix_csv": str(data / "kernel_full.csv")},
        "alpha": 0.1, "beta": 1.0, "nu": 0.5, "max_outer_iters": 4})
    run_twice("learn-graph", lg_cfg)

    cv_cfg = write("cv.json", {
        "x_csv": str(data / "X_train.csv"), "t_csv": str(data / "T_train.csv"),
        "t0_csv": str(data / "T0_train.csv"),
        "graph_json": str(data / "graph.json"), "method": "KRG",
        "kernel": {"kind": "precomputed",
                   "matrix_csv": str(data / "kernel_full.csv")},
        "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3},
        "seed": 0})
    run_twice("cv", cv_cfg)

    bench_cfg = write("bench.json", {
        "methods": ["KR", "KRG"], "n_train": [6], "snr_db": [5.0],
        "realizations": 2, "num_nodes": 6, "num_samples": 16,
        "graph_model": "erdos_renyi", "graph_param": 0.4,
        "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3},
        "master_seed": 1})
    run_twice("bench", bench_cfg)

    krr_cfg = write("krr.json", {
        "kernel_csv": str(data / "kernel_full.csv"),
        "observed_idx": [0, 2, 5], "x": [1.0, -1.0, 0.5], "mu": 0.3})
    run_twice("krr", krr_cfg)

    print("PASS criterion 8: metric trivial cases exact; all 8 CLI commands "
          "byte-reproducible under fixed configs")
