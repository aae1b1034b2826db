import json
import logging
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from krgraph import cli, graphlearn, kernels, solver
from krgraph.cli import main
from krgraph.evaluation import krr_baseline
from krgraph.graphs import (Graph, Laplacian, load_matrix_csv, save_graph_json,
                            save_matrix_csv)
from krgraph.kernels import KernelSpec, gram_matrix, kernel_cross_matrix
from krgraph.solver import (Hyperparams, cost_terms, fit_krg, load_model,
                            sylvester_residual)
from oracles import (dense_eigh_dual_solve, dense_kron_dual_solve,
                     random_laplacian_matrix)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(args):
    return main([str(a) for a in args])


SYNTH_CFG = {
    "num_nodes": 8,
    "num_samples": 12,
    "graph_model": "erdos_renyi",
    "graph_param": 0.4,
    "snr_db": 5.0,
    "seed": 3,
}


def make_dataset_dir(tmp_path):
    cfg = write_config(tmp_path, "synth.json", SYNTH_CFG)
    out = tmp_path / "data"
    assert run(["synth", "--config", cfg, "--out-dir", out]) == 0
    return out


class TestSynth:
    def test_writes_expected_files(self, tmp_path):
        out = make_dataset_dir(tmp_path)
        names = {p.name for p in out.iterdir()}
        assert {"X_train.csv", "T_train.csv", "T0_train.csv", "X_test.csv",
                "T0_test.csv", "graph.json", "manifest.json",
                "kernel_full.csv"} <= names

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, "synth.json", SYNTH_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["synth", "--config", cfg, "--out-dir", a]) == 0
        assert run(["synth", "--config", cfg, "--out-dir", b]) == 0
        for p in sorted(a.iterdir()):
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name

    def test_lf_line_endings(self, tmp_path):
        out = make_dataset_dir(tmp_path)
        raw = (out / "T_train.csv").read_bytes()
        assert b"\r" not in raw

    def test_odd_sample_count_rejected_by_schema(self, tmp_path, capsys):
        bad = dict(SYNTH_CFG, num_samples=7)
        cfg = write_config(tmp_path, "bad.json", bad)
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "KrgraphError"
        assert "num_samples must be even" in err["message"]

    @pytest.mark.parametrize("model, message", [
        ("erdos_renyi", "edge probability must be in [0, 1]"),
        ("barabasi_albert", "need 1 <= m_attach < M"),
    ], ids=["erdos_renyi", "barabasi_albert"])
    def test_graph_param_beyond_int64_is_invalid_graph(self, tmp_path, capsys,
                                                       model, message):
        """JSON reads 100000000000000000000 as a Python int that numpy
        cannot hold in int64; the config rejects it as any too-large
        parameter, by the generator's own range check."""
        cfg = write_config(tmp_path, "big.json", dict(
            SYNTH_CFG, graph_model=model, graph_param=10**20))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["synth", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "InvalidGraphError", message)
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        bad = dict(SYNTH_CFG, extra_knob=1)
        cfg = write_config(tmp_path, "bad.json", bad)
        assert run(["synth", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        assert "ConfigError" in capsys.readouterr().err


class TestIngest:
    def _write_inputs(self, tmp_path, X):
        path = tmp_path / "inputs.csv"
        header = ",".join(f"f{j}" for j in range(X.shape[1]))
        body = "\n".join(",".join(repr(float(v)) for v in row) for row in X)
        path.write_text(header + "\n" + body + "\n", encoding="utf-8")
        return str(path)

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((5, 2))
        T = rng.standard_normal((5, 3))
        tpath = tmp_path / "targets.csv"
        save_matrix_csv(tpath, T)
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": self._write_inputs(tmp_path, X),
            "targets_csv": str(tpath),
        })
        out = tmp_path / "ingested"
        assert run(["ingest", "--config", cfg, "--out-dir", out]) == 0
        np.testing.assert_array_equal(load_matrix_csv(out / "X.csv"), X)
        np.testing.assert_array_equal(load_matrix_csv(out / "T.csv"), T)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 5
        assert manifest["num_nodes"] == 3

    def test_ragged_row_names_line(self, tmp_path, capsys):
        path = tmp_path / "inputs.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
        tpath = tmp_path / "targets.csv"
        save_matrix_csv(tpath, np.ones((2, 2)))
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": str(path), "targets_csv": str(tpath)})
        assert run(["ingest", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert "line 3" in err["message"]

    def test_missing_value_names_line(self, tmp_path, capsys):
        path = tmp_path / "inputs.csv"
        path.write_text("a,b\n1.0,\n", encoding="utf-8")
        tpath = tmp_path / "targets.csv"
        save_matrix_csv(tpath, np.ones((1, 2)))
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": str(path), "targets_csv": str(tpath)})
        assert run(["ingest", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        assert "line 2" in json.loads(capsys.readouterr().err)["message"]

    def test_row_count_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": self._write_inputs(tmp_path,
                                             np.ones((3, 2))),
            "targets_csv": str(tmp_path / "targets.csv"),
        })
        save_matrix_csv(tmp_path / "targets.csv", np.ones((4, 2)))
        assert run(["ingest", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        assert "mismatch" in json.loads(capsys.readouterr().err)["message"]

    def test_geodesic_graph_two_cities(self, tmp_path):
        # d12 = 1, normalizer over ordered pairs = 2, weight exp(-1/2)
        dpath = tmp_path / "dist.csv"
        save_matrix_csv(dpath, np.array([[0.0, 1.0], [1.0, 0.0]]))
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": self._write_inputs(tmp_path, np.ones((2, 1)) *
                                             np.array([[0.0], [1.0]])),
            "targets_csv": str(tmp_path / "targets.csv"),
            "distances_csv": str(dpath),
        })
        save_matrix_csv(tmp_path / "targets.csv", np.eye(2))
        out = tmp_path / "o"
        assert run(["ingest", "--config", cfg, "--out-dir", out]) == 0
        doc = json.loads((out / "graph.json").read_text())
        [[i, j, w]] = doc["edges"]
        assert {i, j} == {0, 1}
        assert w == pytest.approx(np.exp(-0.5))

    def test_distances_of_another_size_write_nothing(self, tmp_path, capsys):
        save_matrix_csv(tmp_path / "targets.csv", np.ones((3, 4)))
        save_matrix_csv(tmp_path / "dist.csv", 1.0 - np.eye(5))
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": self._write_inputs(tmp_path, np.ones((3, 2))),
            "targets_csv": str(tmp_path / "targets.csv"),
            "distances_csv": str(tmp_path / "dist.csv"),
        })
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["ingest", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "DataFormatError", "5 x 5", "4 columns")
        assert list(out.iterdir()) == []


def fit_configs(tmp_path, beta, with_laplacian):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 3))
    T = rng.standard_normal((8, 4))
    L = random_laplacian_matrix(rng, 4)
    save_matrix_csv(tmp_path / "X.csv", X)
    save_matrix_csv(tmp_path / "T.csv", T)
    save_matrix_csv(tmp_path / "L.csv", L)
    # the same graph for commands that read only graph_json
    save_graph_json(tmp_path / "graph.json", Graph(np.diag(np.diag(L)) - L))
    doc = {"x_csv": str(tmp_path / "X.csv"), "t_csv": str(tmp_path / "T.csv"),
           "kernel": {"kind": "linear"}, "alpha": 0.5, "beta": beta}
    if with_laplacian:
        doc["laplacian_csv"] = str(tmp_path / "L.csv")
    return write_config(tmp_path, "fit.json", doc), X, T, L


def large_fit_config(tmp_path, alpha):
    """fit on N = 600 rbf inputs in 2-D, whose Gram has numerical rank 21,
    so the fit takes the rank-revealing spectral cache."""
    rng = np.random.default_rng(12)
    X, T = rng.standard_normal((600, 2)), rng.standard_normal((600, 4))
    L = random_laplacian_matrix(rng, 4)
    for name, A in (("X600.csv", X), ("T600.csv", T), ("L4.csv", L)):
        save_matrix_csv(tmp_path / name, A)
    cfg = write_config(tmp_path, "fit600.json", {
        "x_csv": str(tmp_path / "X600.csv"), "t_csv": str(tmp_path / "T600.csv"),
        "laplacian_csv": str(tmp_path / "L4.csv"),
        "kernel": {"kind": "rbf", "sigma_sq": 1.0}, "alpha": alpha, "beta": 1.0})
    return cfg, X, T, L


class TestFitPredict:
    def test_large_low_rank_fit_matches_dense_oracle_and_logs(self, tmp_path,
                                                              caplog):
        caplog.set_level(logging.INFO, logger="krgraph")
        cfg, X, T, L = large_fit_config(tmp_path, alpha=0.1)
        assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "big"]) == 0
        small, *_ = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        assert run(["fit", "--config", small, "--out-dir", tmp_path / "s"]) == 0
        assert [m for m in caplog.messages if "spectral cache" in m] == [
            "spectral cache of the N=600 Gram: rank 21, pivoted Cholesky to "
            "the trace bound",
            "spectral cache of the N=8 Gram: rank 8, eigh"]
        psi = load_model(tmp_path / "big" / "model.json").psi
        K, _ = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=1.0))
        expected = dense_eigh_dual_solve(K, L, T, 0.1, 1.0)
        assert np.linalg.norm(psi - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_large_low_rank_alpha_zero_is_one_json_error(self, tmp_path):
        """theta is 0 on the complement of the Gram's numerical range, so
        alpha = 0 is singular; stderr holds the error line alone."""
        cfg, *_ = large_fit_config(tmp_path, alpha=0.0)
        out = tmp_path / "o"
        proc = _cli_subprocess("fit", cfg, out)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "SingularSystemError"
        assert "theta=0.000e+00" in err["message"]
        assert not (out / "model.json").exists()

    def test_fit_matches_dense_oracle(self, tmp_path):
        cfg, X, T, L = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 0
        model = load_model(out / "model.json")
        K = X @ X.T
        expected = dense_kron_dual_solve(K, L, T, 0.5, 0.8)
        np.testing.assert_allclose(model.psi, expected, atol=1e-8)

    def test_fit_report_residual_small(self, tmp_path):
        cfg, *_ = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        out = tmp_path / "fit"
        run(["fit", "--config", cfg, "--out-dir", out])
        report = json.loads((out / "fit_report.json").read_text())
        assert report["residual_norm"] <= 1e-8 * report["target_norm"]

    def test_fit_report_costs_are_the_shared_cost_terms(self, tmp_path):
        """For each kernel kind, fit's model and report are those of
        gram_matrix's K, bit for bit."""
        cfg, X, T, L = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        # symmetric only to roundoff, which the precomputed kernel accepts
        P = X @ X.T + np.eye(8)
        P += 1e-12 * np.abs(P).max() * np.random.default_rng(5).standard_normal(
            (8, 8))
        save_matrix_csv(tmp_path / "P.csv", P)
        idx = np.array([[5.0], [0.0], [7.0], [2.0], [1.0], [6.0], [3.0], [4.0]])
        save_matrix_csv(tmp_path / "idx.csv", idx)
        hyper, L = Hyperparams(alpha=0.5, beta=0.8), Laplacian(L)
        for kernel, spec, x, x_csv in [
            ({"kind": "linear"}, KernelSpec(kind="linear"), X, "X.csv"),
            ({"kind": "rbf", "sigma_sq": 0.7},
             KernelSpec(kind="rbf", sigma_sq=0.7), X, "X.csv"),
            ({"kind": "precomputed", "matrix_csv": str(tmp_path / "P.csv")},
             KernelSpec(kind="precomputed", precomputed=P), idx, "idx.csv"),
        ]:
            fit_doc = dict(doc, kernel=kernel, x_csv=str(tmp_path / x_csv))
            out = tmp_path / kernel["kind"]
            assert run(["fit", "--config", write_config(
                tmp_path, kernel["kind"] + ".json", fit_doc),
                "--out-dir", out]) == 0
            report = json.loads((out / "fit_report.json").read_text())
            model = load_model(out / "model.json")
            K, _ = gram_matrix(x, spec)
            assert np.array_equal(model.psi, fit_krg(K, T, L, hyper).psi)
            Y = K @ model.psi
            residual = sylvester_residual(Y, model.psi, T, L, hyper)
            assert report["residual_norm"] == np.linalg.norm(residual, "fro")
            terms = cost_terms(Y, model.psi, T, L, hyper)
            assert [report["data_cost"], report["coefficient_cost"],
                    report["roughness_cost"]] == list(terms)

    def test_report_forms_one_gram_product(self, tmp_path, monkeypatch):
        """The report's residual and costs share one Y = K Psi, formed from
        the Gram that the fit solved with; an rbf fit builds no other
        kernel matrix."""
        products, cross_kernels = [], []

        class CountingGram(np.ndarray):
            def __matmul__(self, other):
                products.append(np.shape(other))
                return np.asarray(self) @ other

        cfg, _, T, _ = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        doc = dict(json.loads(Path(cfg).read_text(encoding="utf-8")),
                   kernel={"kind": "rbf", "sigma_sq": 0.7})
        cfg = write_config(tmp_path, "rbf.json", doc)
        expected = tmp_path / "expected"
        assert run(["fit", "--config", cfg, "--out-dir", expected]) == 0

        def counting_gram(X, spec):
            K, spec = gram_matrix(X, spec)
            return K.view(CountingGram), spec

        def counting_cross_kernel(*args):
            cross_kernels.append(args)
            return kernel_cross_matrix(*args)

        monkeypatch.setattr(cli, "gram_matrix", counting_gram)
        for module in (kernels, solver):
            monkeypatch.setattr(module, "kernel_cross_matrix",
                                counting_cross_kernel)
        out = tmp_path / "counted"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 0
        assert products == [T.shape]
        assert cross_kernels == []
        for name in ("model.json", "fit_report.json"):
            assert (out / name).read_bytes() == (expected / name).read_bytes()

    def test_precomputed_indices_in_a_row_write_nothing(
            self, tmp_path, capsys, monkeypatch):
        """Sample indices for a precomputed kernel are one column; a row of
        them would give a model file that predict cannot read. The Gram
        rejects it, before any eigendecomposition."""
        cfg, X, T, L = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        save_matrix_csv(tmp_path / "P.csv", X @ X.T + np.eye(8))
        save_matrix_csv(tmp_path / "X.csv", np.arange(8.0)[None, :])
        doc = dict(json.loads(Path(cfg).read_text(encoding="utf-8")), kernel={
            "kind": "precomputed", "matrix_csv": str(tmp_path / "P.csv")})

        def eigh(*args, **kwargs):
            raise AssertionError("eigendecomposition before the index check")
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["fit", "--config", write_config(tmp_path, "p.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "DimensionError", "one index column")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("shape", [(7, 4), (8, 3)])
    def test_targets_of_another_shape_stop_before_the_fit(
            self, tmp_path, capsys, monkeypatch, shape):
        cfg, *_ = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        save_matrix_csv(tmp_path / "T.csv", np.ones(shape))
        calls = []
        monkeypatch.setattr(solver, "eigh_psd",
                            lambda *a, **kw: calls.append(a))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "DimensionError",
                               f"targets {shape} incompatible with N=8, M=4")
        assert calls == [] and list(out.iterdir()) == []

    def test_fit_checks_the_targets_and_builds_the_cache_once(
            self, tmp_path, monkeypatch, caplog):
        """fit_krg alone checks the targets, builds the spectral cache and
        logs it; fit repeats none of it."""
        calls = []
        check, build = solver.check_targets, solver.SpectralCache.build
        monkeypatch.setattr(solver, "check_targets",
                            lambda *a: calls.append("check") or check(*a))
        monkeypatch.setattr(solver.SpectralCache, "build", staticmethod(
            lambda *a: calls.append("build") or build(*a)))
        caplog.set_level(logging.INFO, logger="krgraph")
        cfg, *_ = fit_configs(tmp_path, beta=0.8, with_laplacian=True)
        assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
        assert calls == ["check", "build"]
        assert [m for m in caplog.messages if "spectral cache" in m] == [
            "spectral cache of the N=8 Gram: rank 8, eigh"]

    def test_learn_graph_checks_the_targets_before_the_build(
            self, tmp_path, capsys, monkeypatch):
        """A t_csv one row short stops learn-graph, as it stops fit, before
        any spectral cache is built, with the same one error line."""
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        save_matrix_csv(tmp_path / "T.csv", np.ones((7, 4)))
        builds, build = [], solver.SpectralCache.build
        monkeypatch.setattr(solver.SpectralCache, "build", staticmethod(
            lambda *a: builds.append(a) or build(*a)))
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        errors = []
        for command, extra in [("fit", {}), ("learn-graph", {"nu": 0.5})]:
            capsys.readouterr()
            out = tmp_path / command
            assert run([command, "--config",
                        write_config(tmp_path, "cmd.json", dict(doc, **extra)),
                        "--out-dir", out]) == 1
            errors.append(capsys.readouterr().err)
            assert list(out.iterdir()) == []
        assert builds == [] and errors[0] == errors[1]
        assert json.loads(errors[1]) == {
            "error": "DimensionError",
            "message": "targets (7, 4) incompatible with N=8, M=4"}

    @pytest.mark.parametrize("sigma_sq, origin, bound", [
        (1.0, "rank 48, pivoted Cholesky", 3.5),
        (1e-4, "rank 600, eigh, the pivoted Cholesky having reached its "
         "rank cap 150", 4.5),
    ], ids=["low_rank", "full_rank"])
    def test_fit_peak_in_gram_sizes(self, tmp_path, caplog, sigma_sq, origin,
                                    bound):
        """fit's traced peak, in N x N doubles. A Gram of low numerical rank
        takes the pivoted Cholesky, which only reads K and whose factor is
        at most N^2 / 4 doubles. A full-rank one is eigendecomposed: K, the
        copy that syevd works in and its 1 + 6N + 2N^2 workspace make about
        4 N^2. The report's Y = K Psi needs no N x N temporary."""
        N = 600
        rng = np.random.default_rng(21)
        save_matrix_csv(tmp_path / "X.csv", rng.standard_normal((N, 3)))
        save_matrix_csv(tmp_path / "T.csv", rng.standard_normal((N, 4)))
        save_matrix_csv(tmp_path / "L.csv", random_laplacian_matrix(rng, 4))
        cfg = write_config(tmp_path, "fit.json", {
            "x_csv": str(tmp_path / "X.csv"), "t_csv": str(tmp_path / "T.csv"),
            "laplacian_csv": str(tmp_path / "L.csv"),
            "kernel": {"kind": "rbf", "sigma_sq": sigma_sq}, "alpha": 0.5,
            "beta": 0.8})
        caplog.set_level(logging.INFO, logger="krgraph")
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"N=600 Gram: {origin}" in caplog.text
        assert (peak - base) / (8 * N**2) <= bound

    def test_positive_beta_without_graph_fails(self, tmp_path, capsys):
        cfg, *_ = fit_configs(tmp_path, beta=0.8, with_laplacian=False)
        assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_predict_on_training_inputs_matches_smoother(self, tmp_path):
        cfg, X, T, L = fit_configs(tmp_path, beta=0.3, with_laplacian=True)
        out = tmp_path / "fit"
        run(["fit", "--config", cfg, "--out-dir", out])
        pcfg = write_config(tmp_path, "predict.json", {
            "model_json": str(out / "model.json"),
            "x_csv": str(tmp_path / "X.csv"),
        })
        pout = tmp_path / "pred"
        assert run(["predict", "--config", pcfg, "--out-dir", pout]) == 0
        Y = load_matrix_csv(pout / "predictions.csv")
        K, _ = gram_matrix(X, KernelSpec(kind="linear"))
        model = fit_krg(K, T, Laplacian(L),
                        Hyperparams(alpha=0.5, beta=0.3))
        np.testing.assert_allclose(Y, K @ model.psi, atol=1e-10)

    def test_predict_new_points(self, tmp_path):
        cfg, X, T, L = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        out = tmp_path / "fit"
        run(["fit", "--config", cfg, "--out-dir", out])
        Xnew = np.random.default_rng(12).standard_normal((3, 3))
        save_matrix_csv(tmp_path / "Xnew.csv", Xnew)
        pcfg = write_config(tmp_path, "predict.json", {
            "model_json": str(out / "model.json"),
            "x_csv": str(tmp_path / "Xnew.csv"),
        })
        pout = tmp_path / "pred"
        assert run(["predict", "--config", pcfg, "--out-dir", pout]) == 0
        Y = load_matrix_csv(pout / "predictions.csv")
        model = load_model(out / "model.json")
        np.testing.assert_allclose(Y, (Xnew @ X.T) @ model.psi, atol=1e-10)


class TestRbfModelFile:
    """An RBF model carries its training normalizer, so predict builds
    only the test cross-kernel."""

    def _fit(self, tmp_path, command, **extra):
        cfg, X, T, _ = fit_configs(tmp_path, beta=0.6, with_laplacian=True)
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        if command == "learn-graph":
            del doc["laplacian_csv"]
        doc.update(kernel={"kind": "rbf", "sigma_sq": 0.8}, **extra)
        out = tmp_path / command
        assert run([command, "--config",
                    write_config(tmp_path, "cmd.json", doc),
                    "--out-dir", out]) == 0
        return out / "model.json", X

    def _predict(self, tmp_path, model_json, name):
        Xnew = np.random.default_rng(13).standard_normal((5, 3))
        save_matrix_csv(tmp_path / "Xnew.csv", Xnew)
        pcfg = write_config(tmp_path, "predict.json", {
            "model_json": str(model_json), "x_csv": str(tmp_path / "Xnew.csv")})
        assert run(["predict", "--config", pcfg,
                    "--out-dir", tmp_path / name]) == 0
        return Xnew, tmp_path / name / "predictions.csv"

    def test_file_without_normalizer_predicts_byte_identically(self, tmp_path):
        model_json, X = self._fit(tmp_path, "fit")
        doc = json.loads(model_json.read_text(encoding="utf-8"))
        Z = doc["kernel_spec"].pop("rbf_normalizer")
        assert Z == pytest.approx(
            sum(np.sum((a - b) ** 2) for a in X for b in X) / len(X),
            rel=1e-12)
        legacy = tmp_path / "legacy_model.json"
        legacy.write_text(json.dumps(doc), encoding="utf-8")
        _, new = self._predict(tmp_path, model_json, "new")
        _, old = self._predict(tmp_path, legacy, "old")
        assert new.read_bytes() == old.read_bytes()

    def test_learn_graph_then_predict(self, tmp_path):
        model_json, X = self._fit(tmp_path, "learn-graph", nu=0.5,
                                  max_outer_iters=4)
        model = load_model(model_json)
        assert model.spec.kind == "rbf" and model.spec.rbf_normalizer > 0
        Xnew, pred = self._predict(tmp_path, model_json, "pred")
        np.testing.assert_array_equal(
            load_matrix_csv(pred),
            kernel_cross_matrix(X, Xnew, model.spec) @ model.psi)


class TestLearnGraph:
    def test_outputs(self, tmp_path):
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "lg.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "alpha": 0.1, "beta": 1.0, "nu": 0.5, "max_outer_iters": 5,
        })
        out = tmp_path / "lg"
        assert run(["learn-graph", "--config", cfg, "--out-dir", out]) == 0
        for name in ("model.json", "laplacian.csv", "cost_trace.json",
                     "iterations.jsonl"):
            assert (out / name).exists()
        trace = json.loads((out / "cost_trace.json").read_text())["cost_trace"]
        assert len(trace) >= 1
        lines = (out / "iterations.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        assert "cost_after_l_step" in rec
        L = load_matrix_csv(out / "laplacian.csv")
        np.testing.assert_allclose(L.sum(axis=1), 0.0, atol=1e-8)

    def test_refit_on_laplacian_csv_reproduces_the_model(self, tmp_path,
                                                          caplog):
        """laplacian.csv is model.json's Laplacian over its spectral radius
        rho, the last record's spectral_radius, so a fit on it at beta * rho
        gives model.json's coefficients; the command logs that rule."""
        out_data = make_dataset_dir(tmp_path)
        data = {"x_csv": str(out_data / "X_train.csv"),
                "t_csv": str(out_data / "T_train.csv"), "alpha": 0.1,
                "kernel": {"kind": "precomputed",
                           "matrix_csv": str(out_data / "kernel_full.csv")}}
        learned = tmp_path / "lg"
        caplog.set_level(logging.INFO, logger="krgraph")
        assert run(["learn-graph", "--config", write_config(
            tmp_path, "lg.json", dict(data, beta=0.7, nu=0.5,
                                      max_outer_iters=5)),
            "--out-dir", learned]) == 0
        rho = _parsed(learned / "iterations.jsonl")[-1]["spectral_radius"]
        assert [m for m in caplog.messages if "laplacian.csv" in m] == [
            "laplacian.csv is model.json's Laplacian divided by its spectral "
            f"radius {rho!r}; a fit on laplacian.csv with beta {0.7 * rho!r} "
            "(beta times that radius) reproduces model.json"]
        assert run(["fit", "--config", write_config(
            tmp_path, "fit.json",
            dict(data, beta=0.7 * rho,
                 laplacian_csv=str(learned / "laplacian.csv"))),
            "--out-dir", tmp_path / "fit"]) == 0
        psi, ref = (load_model(path / "model.json").psi
                    for path in (tmp_path / "fit", learned))
        assert np.abs(psi - ref).max() <= 1e-12 * np.abs(ref).max()

    def _precomputed_config(self, tmp_path, X, T):
        B = np.random.default_rng(4).standard_normal((6, 6))
        save_matrix_csv(tmp_path / "P.csv", B @ B.T + np.eye(6))
        save_matrix_csv(tmp_path / "X.csv", X)
        save_matrix_csv(tmp_path / "T.csv", T)
        return write_config(tmp_path, "lg.json", {
            "x_csv": str(tmp_path / "X.csv"), "t_csv": str(tmp_path / "T.csv"),
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(tmp_path / "P.csv")},
            "alpha": 0.1, "beta": 1.0, "nu": 0.5, "max_outer_iters": 3,
        })

    @pytest.mark.parametrize("X, T, error, message", [
        (np.arange(6.0)[None, :], np.ones((6, 3)), "DimensionError",
         "one index column"),
        (np.arange(6.0)[:, None], np.ones((6, 1)), "DimensionError",
         "M >= 2 nodes, got shape (6, 1)"),
    ], ids=["indices_in_a_row", "one_node"])
    def test_rejected_before_any_file(self, tmp_path, capsys, X, T, error,
                                      message):
        cfg = self._precomputed_config(tmp_path, X, T)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["learn-graph", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, error, message)
        assert list(out.iterdir()) == []

    def test_final_refit_logs_its_spectral_cache(self, tmp_path, caplog):
        """Only the refit on the learned graph makes a model, through
        fit_krg, which logs the cache its solve used."""
        rng = np.random.default_rng(6)
        cfg = self._precomputed_config(tmp_path, np.arange(6.0)[:, None],
                                       rng.standard_normal((6, 3)))
        caplog.set_level(logging.INFO, logger="krgraph")
        assert run(["learn-graph", "--config", cfg, "--out-dir",
                    tmp_path / "o"]) == 0
        assert [m for m in caplog.messages if "spectral cache" in m] == [
            "spectral cache of the N=6 Gram: rank 6, eigh"]

    def test_nu_zero_puts_the_budget_on_one_edge(self, tmp_path):
        """Without the ||L||_F^2 term the L-step is linear, and its
        minimizer over the scaled simplex is a vertex: one edge."""
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "lg.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "alpha": 0.1, "beta": 1.0, "nu": 0, "max_outer_iters": 3,
        })
        out = tmp_path / "lg"
        assert run(["learn-graph", "--config", cfg, "--out-dir", out]) == 0
        # w (e_i - e_j)(e_i - e_j)^T has spectral radius 2w: rescaled, w = 1/2
        weights = -load_matrix_csv(out / "laplacian.csv")[np.triu_indices(8, 1)]
        assert np.count_nonzero(weights) == 1 and weights.max() == 0.5
        assert {record["edge_sparsity"] for record
                in _parsed(out / "iterations.jsonl")} == {1 / 28}

    def test_trace_budget_below_float_resolution(self, tmp_path, capsys):
        """Any trace_budget above 0 passes the schema; one too small for
        the edge-weight projection is one JSON error line, not a traceback."""
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "lg.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "alpha": 0.1, "beta": 1.0, "nu": 0.5, "trace_budget": 1e-300,
        })
        capsys.readouterr()
        out = tmp_path / "lg"
        assert run(["learn-graph", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError", "trace_budget 1e-300")
        assert list(out.iterdir()) == []   # iterations.jsonl included

    @pytest.mark.parametrize("nu", [1e9, 1e14])
    def test_huge_nu_learns_uniform_weights(self, tmp_path, nu):
        """The nu -> inf limit on M=60: the QP stops on its dual gradient,
        whose units do not grow with nu, so a large nu converges."""
        rng = np.random.default_rng(60)
        save_matrix_csv(tmp_path / "X.csv", rng.standard_normal((20, 3)))
        save_matrix_csv(tmp_path / "T.csv", rng.standard_normal((20, 60)))
        cfg = write_config(tmp_path, "lg.json", {
            "x_csv": str(tmp_path / "X.csv"), "t_csv": str(tmp_path / "T.csv"),
            "kernel": {"kind": "rbf", "sigma_sq": 1.0},
            "alpha": 0.1, "beta": 1.0, "nu": nu, "max_outer_iters": 3,
        })
        out = tmp_path / "lg"
        assert run(["learn-graph", "--config", cfg, "--out-dir", out]) == 0
        w = -load_matrix_csv(out / "laplacian.csv")[np.triu_indices(60, 1)]
        np.testing.assert_allclose(w, np.full(w.size, w.mean()), rtol=1e-6)

    def test_edge_qp_iteration_cap(self, tmp_path, capsys, monkeypatch):
        """An L-step that runs out of Newton steps fails the command: each
        L-step here needs one, and the cap allows none."""
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "lg.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "alpha": 0.1, "beta": 1.0, "nu": 0.5,
        })
        monkeypatch.setattr(graphlearn, "_MAX_QP_ITERS", 0)
        capsys.readouterr()
        out = tmp_path / "lg"
        assert run(["learn-graph", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConvergenceError", "KKT tolerance",
                               "residual")
        assert not (out / "iterations.jsonl").exists()


class TestCv:
    def test_writes_best_params(self, tmp_path):
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "cv.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "t0_csv": str(out_data / "T0_train.csv"),
            "graph_json": str(out_data / "graph.json"),
            "method": "KRG",
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3},
            "seed": 0,
        })
        out = tmp_path / "cv"
        assert run(["cv", "--config", cfg, "--out-dir", out]) == 0
        doc = json.loads((out / "cv_results.json").read_text())
        assert doc["best_params"]["alpha"] in (0.1, 1.0)
        assert len(doc["table"]) == 4

    def _rbf_cv(self, tmp_path, name, kernel, sigma_sqs=None):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        grid = {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3}
        if sigma_sqs is not None:
            grid["sigma_sqs"] = sigma_sqs
        doc = {"x_csv": fit_doc["x_csv"], "t_csv": fit_doc["t_csv"],
               "graph_json": str(tmp_path / "graph.json"),
               "method": "KRG", "kernel": kernel, "grid": grid, "seed": 0}
        doc = {k: v for k, v in doc.items() if v is not None}
        out = tmp_path / name
        code = run(["cv", "--config", write_config(tmp_path, name + ".json", doc),
                    "--out-dir", out])
        return code, out / "cv_results.json"

    def test_rbf_with_fixed_sigma_uses_it(self, tmp_path):
        code, path = self._rbf_cv(tmp_path, "fixed",
                                  {"kind": "rbf", "sigma_sq": 1.5})
        assert code == 0
        fixed = json.loads(path.read_text())["table"]
        _, path = self._rbf_cv(tmp_path, "grid", None, sigma_sqs=[1.5])
        from_grid = json.loads(path.read_text())["table"]
        assert [r["params"]["sigma_sq"] for r in fixed] == [None] * 4
        assert [r["nmse_db"] for r in fixed] == [r["nmse_db"] for r in from_grid]

    def test_rbf_without_sigma_takes_grid(self, tmp_path):
        """With no kernel given, KRG sweeps an rbf kernel over the grid."""
        code, path = self._rbf_cv(tmp_path, "rbf", None, sigma_sqs=[0.5, 2.0])
        assert code == 0
        table = json.loads(path.read_text())["table"]
        assert sorted({r["params"]["sigma_sq"] for r in table}) == [0.5, 2.0]

    def test_rbf_kernel_without_sigma_rejected(self, tmp_path, capsys):
        """A given kernel is that kernel, as in fit: a bare rbf is no
        second spelling of the sweep over grid.sigma_sqs."""
        capsys.readouterr()
        code, path = self._rbf_cv(tmp_path, "bare", {"kind": "rbf"},
                                  sigma_sqs=[0.5, 2.0])
        assert code == 1
        _assert_one_json_error(capsys, "KrgraphError",
                               "rbf kernel requires a finite sigma_sq")
        assert not path.exists()

    def test_rbf_sigma_in_kernel_and_grid_rejected(self, tmp_path, capsys):
        capsys.readouterr()
        code, path = self._rbf_cv(tmp_path, "both",
                                  {"kind": "rbf", "sigma_sq": 1.5},
                                  sigma_sqs=[0.5])
        assert code == 1
        _assert_one_json_error(capsys, "ConfigError", "sigma_sq")
        assert not path.exists()

    @pytest.mark.parametrize("kernel, sigma_sqs, message", [
        (None, [float("inf")], "config.grid.sigma_sqs[0] is not"),  # 1e400
        (None, [0.5, float("nan")], "config.grid.sigma_sqs[1] is not"),
        ({"kind": "rbf", "sigma_sq": float("inf")}, None,
         "config.kernel.sigma_sq is not"),
        ({"kind": "rbf", "sigma_sq": float("nan")}, None,
         "config.kernel.sigma_sq is not"),
    ], ids=["grid_inf", "grid_nan", "kernel_inf", "kernel_nan"])
    def test_nonfinite_bandwidth_rejected(self, tmp_path, capsys, kernel,
                                          sigma_sqs, message):
        capsys.readouterr()
        code, path = self._rbf_cv(tmp_path, "bad", kernel, sigma_sqs=sigma_sqs)
        assert code == 1
        _assert_one_json_error(capsys, "ConfigError", message)
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["linear", "precomputed"])
    def test_sigma_grid_with_non_rbf_kernel_rejected(self, tmp_path, capsys,
                                                     kind):
        out_data = make_dataset_dir(tmp_path)
        kernel = {"kind": kind}
        if kind == "precomputed":
            kernel["matrix_csv"] = str(out_data / "kernel_full.csv")
        cfg = write_config(tmp_path, "cv.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "graph_json": str(out_data / "graph.json"),
            "method": "KRG", "kernel": kernel,
            "grid": {"alphas": [0.1], "betas": [0.0, 0.5],
                     "sigma_sqs": [0.5, 2.0], "folds": 3},
            "seed": 0,
        })
        capsys.readouterr()
        out = tmp_path / "cv"
        assert run(["cv", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", "grid.sigma_sqs")
        assert not (out / "cv_results.json").exists()

    @pytest.mark.parametrize("method, code", [
        ("KRG", 1), ("LRG", 1), ("KR", 0), ("LR", 0)])
    def test_beta_grid_needs_a_graph(self, tmp_path, capsys, method, code):
        """Without a graph every beta fits the same edgeless model, so only
        the methods that pin beta = 0 may take a beta grid above 0."""
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        doc = {"x_csv": fit_doc["x_csv"], "t_csv": fit_doc["t_csv"],
               "method": method, "seed": 0,
               "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 1.0, 10.0],
                        "folds": 3}}
        if method.startswith("K"):
            doc["kernel"] = {"kind": "linear"}
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["cv", "--config", write_config(tmp_path, "cv.json", doc),
                    "--out-dir", out]) == code
        if code:
            _assert_one_json_error(capsys, "ConfigError", "beta")
        assert (out / "cv_results.json").exists() == (code == 0)

    def _graph_cv(self, tmp_path, name, method, graph_files):
        """cv on fit_configs' data, with graph_files ({config key: file})
        as the graph keys."""
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        doc = {"x_csv": fit_doc["x_csv"], "t_csv": fit_doc["t_csv"],
               "method": method, "seed": 0,
               "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5],
                        "folds": 3},
               **{key: str(path) for key, path in graph_files.items()}}
        if method == "KRG":
            doc["kernel"] = {"kind": "linear"}
        out = tmp_path / name
        code = run(["cv", "--config",
                    write_config(tmp_path, name + ".json", doc),
                    "--out-dir", out])
        return code, out / "cv_results.json"

    @pytest.mark.parametrize("method", ["KRG", "LRG"])
    def test_laplacian_csv_scores_as_its_graph_json(self, tmp_path, method):
        """fit_configs writes one graph as L.csv and as graph.json."""
        code_l, from_csv = self._graph_cv(
            tmp_path, "csv", method, {"laplacian_csv": tmp_path / "L.csv"})
        code_g, from_json = self._graph_cv(
            tmp_path, "json", method, {"graph_json": tmp_path / "graph.json"})
        assert code_l == code_g == 0
        assert from_csv.read_bytes() == from_json.read_bytes()

    def test_both_graph_keys_rejected(self, tmp_path, capsys):
        capsys.readouterr()
        code, path = self._graph_cv(tmp_path, "both", "KRG", {
            "graph_json": tmp_path / "graph.json",
            "laplacian_csv": tmp_path / "L.csv"})
        assert code == 1
        _assert_one_json_error(capsys, "ConfigError", "not both")
        assert not path.exists()

    @pytest.mark.parametrize("method", ["KRG", "LRG"])
    def test_graph_of_another_size_names_the_targets(self, tmp_path, capsys,
                                                     method):
        """For LRG the solver's right-hand side has a row per feature, so
        only the check on the targets names what the user gave."""
        save_graph_json(tmp_path / "graph5.json",
                        Graph(np.ones((5, 5)) - np.eye(5)))
        capsys.readouterr()
        code, path = self._graph_cv(tmp_path, "o", method,
                                    {"graph_json": tmp_path / "graph5.json"})
        assert code == 1
        _assert_one_json_error(capsys, "DimensionError",
                               "targets (8, 4) incompatible with N=8, M=5")
        assert not path.exists()

BENCH_CFG = {
    "methods": ["KR", "KRG"],
    "n_train": [6],
    "snr_db": [5.0],
    "realizations": 2,
    "num_nodes": 6,
    "num_samples": 16,
    "graph_model": "erdos_renyi",
    "graph_param": 0.4,
    "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3},
    "master_seed": 1,
}


class TestBench:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path, "bench.json", BENCH_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["bench", "--config", cfg, "--out-dir", a]) == 0
        assert run(["bench", "--config", cfg, "--out-dir", b]) == 0
        for name in ("results.csv", "results.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        lines = (a / "results.csv").read_text().splitlines()
        assert lines[0] == "method,n_train,snr_db,split,nmse_db,realizations,seed"
        assert len(lines) == 1 + 2 * 2  # two methods, train and test rows

    def test_plot_data_written_for_sweeps(self, tmp_path):
        doc = dict(BENCH_CFG, n_train=[6, 8], realizations=1)
        cfg = write_config(tmp_path, "bench.json", doc)
        out = tmp_path / "o"
        assert run(["bench", "--config", cfg, "--out-dir", out]) == 0
        plot = out / "plot_nmse_vs_n_snr5.csv"
        assert plot.exists()
        lines = plot.read_text().splitlines()
        assert lines[0] == "n_train,KR,KRG"
        assert len(lines) == 3

    def test_plot_tables_are_slices_of_results(self, tmp_path):
        """With both axes swept, each table holds its own n_train's (or
        SNR's) cells, as results.csv gives them."""
        doc = dict(BENCH_CFG, n_train=[6, 8], snr_db=[0.0, 20.0],
                   realizations=1)
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 0

        def rows(name):
            return [line.split(",")
                    for line in (out / name).read_text().splitlines()[1:]]

        test = {(m, int(n), float(snr)): db
                for m, n, snr, split, db, *_ in rows("results.csv")
                if split == "test"}
        plotted = [((m, n, float(snr)), db) for n in (6, 8)
                   for snr, *dbs in rows(f"plot_nmse_vs_snr_n{n}.csv")
                   for m, db in zip(("KR", "KRG"), dbs)]
        plotted += [((m, int(float(n)), float(snr)), db) for snr in (0, 20)
                    for n, *dbs in rows(f"plot_nmse_vs_n_snr{snr}.csv")
                    for m, db in zip(("KR", "KRG"), dbs)]
        assert len(test) == 8 and len(plotted) == 16
        assert [db for _, db in plotted] == [test[cell] for cell, _ in plotted]

    @pytest.mark.parametrize("seed", [1, 3])
    def test_huge_betas_give_the_same_limit(self, tmp_path, seed):
        """At beta 1e20 the smooth modes are already shrunk to nothing, so
        beta 1e250 changes no KRG row: both keep L's null space alone."""
        def krg_rows(beta):
            doc = dict(BENCH_CFG, master_seed=seed,
                       grid=dict(BENCH_CFG["grid"], betas=[beta]))
            out = tmp_path / f"b{beta:g}"
            assert run(["bench", "--config",
                        write_config(tmp_path, "b.json", doc),
                        "--out-dir", out]) == 0
            return [row.split(",") for row in
                    (out / "results.csv").read_text().splitlines()
                    if row.startswith("KRG,")]

        rows, limit = krg_rows(1e20), krg_rows(1e250)
        assert len(rows) == 2
        for row, expected in zip(rows, limit):
            assert row[:4] == expected[:4]
            assert float(row[4]) == pytest.approx(float(expected[4]), abs=1e-12)

    def test_dead_worker_is_one_json_line(self, tmp_path, capsys, monkeypatch):
        """A worker that dies (killed for memory, say; here os._exit) fails
        the command, not a cell: one JSON line, exit 1, nothing written and
        no process left behind."""
        parent, make = os.getpid(), cli.evaluation.make_synthetic_dataset

        def draw(cfg):
            if os.getpid() != parent:
                os._exit(1)
            return make(cfg)

        monkeypatch.setattr(cli.evaluation, "make_synthetic_dataset", draw)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config",
                    write_config(tmp_path, "bench.json", BENCH_CFG),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError",
                               "bench worker process died")
        assert list(out.iterdir()) == []
        assert multiprocessing.active_children() == []


class TestKrr:
    def test_estimate_matches_library_call(self, tmp_path):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((4, 4))
        K_bar = B @ B.T + np.eye(4)
        save_matrix_csv(tmp_path / "K.csv", K_bar)
        cfg = write_config(tmp_path, "krr.json", {
            "kernel_csv": str(tmp_path / "K.csv"),
            "observed_idx": [0, 2],
            "x": [1.0, -2.0],
            "mu": 0.3,
        })
        out = tmp_path / "krr"
        assert run(["krr", "--config", cfg, "--out-dir", out]) == 0
        est = load_matrix_csv(out / "estimate.csv").ravel()
        expected = krr_baseline(K_bar, [0, 2], np.array([1.0, -2.0]), 0.3)
        np.testing.assert_allclose(est, expected, rtol=1e-12)

    def test_heat_kernel_route(self, tmp_path):
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "krr.json", {
            "graph_json": str(out_data / "graph.json"),
            "tau": 0.5,
            "observed_idx": [0, 1, 2],
            "x": [1.0, 0.5, -0.5],
            "mu": 0.2,
        })
        out = tmp_path / "krr"
        assert run(["krr", "--config", cfg, "--out-dir", out]) == 0
        est = load_matrix_csv(out / "estimate.csv")
        assert est.shape == (8, 1)

    def test_no_kernel_source_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "krr.json", {
            "observed_idx": [0], "x": [1.0], "mu": 0.1})
        assert run(["krr", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("K_bar,observed,x,error,message", [
        (np.ones((3, 2)), [2], [1.0], "KrgraphError", "must be square"),
        (np.array([[2.0, 1.0, 0.0], [5.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
         [0, 1], [1.0, 2.0], "KrgraphError", "must be symmetric"),
        (np.array([[1.0, -3.0], [-3.0, 1.0]]), [0, 1], [1.0, 2.0],
         "KrgraphError", "must be PSD"),
        (np.eye(3), [0, 10**20], [1.0, 2.0], "DimensionError", "in range"),
        (np.eye(3), [0, 1], [1.0], "ConfigError", "x has 1 values"),
    ], ids=["non_square_kernel", "non_symmetric_kernel", "indefinite_kernel",
            "index_beyond_int64", "x_of_another_length"])
    def test_bad_kernel_is_krgraph_error(self, tmp_path, capsys, K_bar,
                                         observed, x, error, message):
        """x of another length than observed_idx is rejected with the
        config, which makes no --out-dir; the others with an empty one.
        kernel_csv is held to fit's rules for a precomputed kernel: square,
        symmetric and PSD."""
        save_matrix_csv(tmp_path / "K.csv", K_bar)
        cfg = write_config(tmp_path, "krr.json", {
            "kernel_csv": str(tmp_path / "K.csv"), "observed_idx": observed,
            "x": x, "mu": 0.5})
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["krr", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, error, message)
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("observed, x, message", [
        ([0, 1, 2], [1.0, 2.0], "x has 2 values and observed_idx 3 indices"),
        ([0, 1, 0], [1.0, 2.0, 3.0], "observed_idx repeats an index"),
    ], ids=["x_shorter", "repeated_index"])
    def test_observations_checked_before_the_kernel_is_read(
            self, tmp_path, capsys, observed, x, message):
        """The config rejects them: the missing graph_json is never read,
        and no --out-dir is made."""
        cfg = write_config(tmp_path, "krr.json", {
            "graph_json": str(tmp_path / "missing.json"), "tau": 0.5,
            "observed_idx": observed, "x": x, "mu": 0.5})
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["krr", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", message)
        assert not out.exists()

    @pytest.mark.parametrize("tau", [1e12, 1e20, 1e300, 1.7e308])
    def test_huge_tau_gives_the_exact_limit(self, tmp_path, tau):
        """The complete 4-node graph's heat kernel tends to J/4; where
        tau * lam overflows, exp(-inf) = 0 gives that limit exactly, with
        no numpy warning printed ahead of the log."""
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"nodes": 4, "edges": [
            [i, j, 1.0] for i in range(4) for j in range(i + 1, 4)]}),
            encoding="utf-8")
        cfg = write_config(tmp_path, "krr.json", {
            "graph_json": str(graph), "tau": tau, "observed_idx": [0, 1],
            "x": [1.0, 2.0], "mu": 0.2})
        out = tmp_path / "o"
        proc = _cli_subprocess("krr", cfg, out)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        est = load_matrix_csv(out / "estimate.csv").ravel()
        limit = krr_baseline(np.full((4, 4), 0.25), [0, 1],
                             np.array([1.0, 2.0]), 0.2)
        np.testing.assert_allclose(limit, 2.5 / 3)
        np.testing.assert_allclose(est, limit, rtol=1e-14)


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["synth", "--config", tmp_path / "nope.json",
                    "--out-dir", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["synth", "--config", path,
                    "--out-dir", tmp_path / "o"]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe")
        assert run(["synth", "--config", path,
                    "--out-dir", tmp_path / "o"]) == 1
        _assert_one_json_error(capsys, "ConfigError", "cfg.json")


class TestInputValidation:
    def _precomputed_model(self, tmp_path):
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "fit.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "graph_json": str(out_data / "graph.json"),
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "alpha": 0.1, "beta": 0.5,
        })
        assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "fit"]) == 0
        return tmp_path / "fit" / "model.json"

    def test_precomputed_predict_rejects_bad_indices(self, tmp_path, capsys):
        model_json = self._precomputed_model(tmp_path)
        capsys.readouterr()
        # the synthetic kernel covers samples 0..11
        for k, bad in enumerate(["-1", "1.5", "12"]):
            x_csv = tmp_path / f"x_bad{k}.csv"
            x_csv.write_text(f"0.0\n{bad}\n", encoding="utf-8")
            cfg = write_config(tmp_path, f"predict{k}.json", {
                "model_json": str(model_json), "x_csv": str(x_csv)})
            out = tmp_path / f"pred{k}"
            assert run(["predict", "--config", cfg, "--out-dir", out]) == 1
            err_lines = capsys.readouterr().err.splitlines()
            assert len(err_lines) == 1
            assert json.loads(err_lines[0])["error"] == "DimensionError"
            assert not (out / "predictions.csv").exists()

    def test_nonfinite_targets_rejected(self, tmp_path, capsys):
        cfg, X, T, L = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        rows = [",".join(repr(float(v)) for v in row) for row in T]
        rows[2] = rows[2].replace(rows[2].split(",")[1], "nan", 1)
        (tmp_path / "T.csv").write_text("\n".join(rows) + "\n",
                                        encoding="utf-8")
        out = tmp_path / "fit"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert "T.csv" in err["message"] and "line 3" in err["message"]
        assert not (out / "model.json").exists()

    def test_ingest_nonfinite_names_line(self, tmp_path, capsys):
        path = tmp_path / "inputs.csv"
        path.write_text("a,b\n1.0,2.0\ninf,3.0\n", encoding="utf-8")
        tpath = tmp_path / "targets.csv"
        save_matrix_csv(tpath, np.ones((2, 2)))
        cfg = write_config(tmp_path, "ingest.json", {
            "inputs_csv": str(path), "targets_csv": str(tpath)})
        assert run(["ingest", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DataFormatError"
        assert "inputs.csv" in err["message"] and "line 3" in err["message"]

    def test_overflowing_kernel_rejected(self, tmp_path, capsys):
        # finite inputs whose linear Gram overflows to inf
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        save_matrix_csv(tmp_path / "X_big.csv", np.array(
            [[1e200, 1.0], [2e200, -1.0], [3.0, 1e200], [1.0, 2.0]]))
        save_matrix_csv(tmp_path / "T4.csv", np.ones((4, 4)))
        big = write_config(tmp_path, "big.json", dict(
            fit_doc, x_csv=str(tmp_path / "X_big.csv"),
            t_csv=str(tmp_path / "T4.csv")))
        capsys.readouterr()
        out = tmp_path / "fit_big"
        assert run(["fit", "--config", big, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "DegenerateKernelError", "infinite")
        assert list(out.iterdir()) == []
        # a valid model and one test row whose cross-kernel overflows
        assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "fit"]) == 0
        save_matrix_csv(tmp_path / "x_big.csv", np.array([[1e308, -1e308, 0.0]]))
        pred = write_config(tmp_path, "pred.json", {
            "model_json": str(tmp_path / "fit" / "model.json"),
            "x_csv": str(tmp_path / "x_big.csv")})
        capsys.readouterr()
        out = tmp_path / "pred"
        assert run(["predict", "--config", pred, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "DegenerateKernelError", "infinite")
        assert not (out / "predictions.csv").exists()

    def test_bench_rejects_feature_methods(self, tmp_path, capsys):
        for method in ("LR", "LRG"):
            cfg = write_config(tmp_path, "bench.json",
                               dict(BENCH_CFG, methods=["KR", method]))
            capsys.readouterr()
            assert run(["bench", "--config", cfg,
                        "--out-dir", tmp_path / "o"]) == 1
            _assert_one_json_error(capsys, "KrgraphError",
                                   f"bench methods are KR/KRG cells, got "
                                   f"{method!r}")

    def test_cv_grid_rejects_nus(self, tmp_path, capsys):
        out_data = make_dataset_dir(tmp_path)
        cfg = write_config(tmp_path, "cv.json", {
            "x_csv": str(out_data / "X_train.csv"),
            "t_csv": str(out_data / "T_train.csv"),
            "method": "KR",
            "kernel": {"kind": "precomputed",
                       "matrix_csv": str(out_data / "kernel_full.csv")},
            "grid": {"alphas": [0.1], "betas": [0.0], "nus": [1.0]},
            "seed": 0,
        })
        capsys.readouterr()
        assert run(["cv", "--config", cfg, "--out-dir", tmp_path / "o"]) == 1
        assert "ConfigError" in capsys.readouterr().err


def _assert_one_json_error(capsys, error, *in_message):
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == error
    for text in in_message:
        assert text in err["message"]


class TestGridValues:
    @pytest.mark.parametrize("command", ["cv", "bench"])
    @pytest.mark.parametrize("grid_text, error, message", [
        ('"alphas": [-0.1, 1.0], "betas": [0.0]', "KrgraphError",
         "must be finite and >= 0"),
        ('"alphas": [0.1], "betas": [0.0, -1.0]', "KrgraphError",
         "must be finite and >= 0"),
        ('"alphas": [0.1], "betas": [NaN]', "ConfigError",
         "config.grid.betas[0] is not a finite number"),
    ], ids=["negative_alpha", "negative_beta", "nan_beta"])
    def test_bad_grid_values_rejected(self, tmp_path, capsys, command,
                                      grid_text, error, message):
        if command == "cv":
            out_data = make_dataset_dir(tmp_path)
            doc = {"x_csv": str(out_data / "X_train.csv"),
                   "t_csv": str(out_data / "T_train.csv"),
                   "graph_json": str(out_data / "graph.json"),
                   "method": "KRG",
                   "kernel": {"kind": "precomputed",
                              "matrix_csv": str(out_data / "kernel_full.csv")},
                   "seed": 0}
        else:
            doc = {k: v for k, v in BENCH_CFG.items() if k != "grid"}
        text = json.dumps(doc)[:-1] + ', "grid": {' + grid_text + ', "folds": 3}}'
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text, encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, error, message)
        assert list(out.glob("*")) == []


def _valid_model_doc(tmp_path):
    cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
    assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "fit"]) == 0
    return json.loads((tmp_path / "fit" / "model.json").read_text())


def _bad_file_case(tmp_path, case):
    """(command, config doc, bad file name) for one malformed input file."""
    cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
    fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
    bad = tmp_path / "bad_input"
    if case == "missing_matrix_csv":
        return "fit", dict(fit_doc, x_csv=str(bad)), bad.name
    if case == "missing_ingest_csv":
        return "ingest", {"inputs_csv": str(bad),
                          "targets_csv": fit_doc["t_csv"]}, bad.name
    if case.endswith("_not_utf8"):
        bad.write_bytes(b"\xff\xfe")
        if case == "graph_not_utf8":
            return "fit", dict(fit_doc, beta=0.5, graph_json=str(bad)), bad.name
        return "predict", {"model_json": str(bad),
                           "x_csv": fit_doc["x_csv"]}, bad.name
    if case.startswith("graph_"):
        text = {"graph_not_json": "{not json",
                "graph_edge_out_of_range": '{"nodes": 4, "edges": [[0, 99, 1]]}',
                "graph_edge_negative": '{"nodes": 4, "edges": [[0, -1, 1]]}',
                "graph_edge_fractional": '{"nodes": 4, "edges": [[0, 1.5, 1]]}',
                "graph_without_edges": '{"nodes": 4}',
                "graph_nodes_zero": '{"nodes": 0, "edges": []}',
                }[case]
        bad.write_text(text, encoding="utf-8")
        return "fit", dict(fit_doc, beta=0.5, graph_json=str(bad)), bad.name
    if case == "model_not_json":
        bad.write_text("{not json", encoding="utf-8")
    else:
        model = _valid_model_doc(tmp_path)
        if case == "model_version_2":
            model["version"] = 2
        elif case == "model_psi_rows":
            model["psi"] = model["psi"][:-1]
        elif case == "model_psi_cols":
            model["psi"] = [row[:-1] for row in model["psi"]]
        elif case == "model_psi_nan":
            model["psi"][1][0] = float("nan")
        elif case == "model_x_train_inf":
            model["x_train"][1][0] = float("inf")
        elif case == "model_x_train_flat":
            model["x_train"] = sum(model["x_train"], [])
        elif case.startswith("model_rbf_normalizer_"):
            z = case.removeprefix("model_rbf_normalizer_")
            kernel = ({"kind": "linear"} if z == "on_linear"
                      else {"kind": "rbf", "sigma_sq": 1.0})
            model["kernel_spec"] = dict(kernel, rbf_normalizer={
                "zero": 0.0, "negative": -1.0, "nan": float("nan"),
                "string": "1.0", "on_linear": 1.0}[z])
        elif case.startswith("model_kernel_spec_"):
            model["kernel_spec"] = {
                "list": [model["kernel_spec"]], "string": "linear",
                "null": None, "unknown_key": dict(model["kernel_spec"],
                                                  sigmasq=1.0),
            }[case.removeprefix("model_kernel_spec_")]
        elif case == "model_version_true":  # True == 1 in Python
            model["version"] = True
        elif case == "model_sigma_sq_true":
            model["kernel_spec"] = {"kind": "rbf", "sigma_sq": True}
        elif case == "model_sigma_sq_on_linear":  # read by no linear kernel
            model["kernel_spec"] = {"kind": "linear", "sigma_sq": 2.0}
        elif case == "model_precomputed_on_linear":  # read by no linear kernel
            model["kernel_spec"] = {"kind": "linear", "precomputed": [[1.0]]}
        elif case == "model_hyper_bool":  # True <= 1 in Python
            model["hyper"] = {"alpha": True, "beta": False}
        elif case.startswith("model_hyper_"):  # a grid, not one weight
            model["hyper"][case.removeprefix("model_hyper_").split("_")[0]] \
                = [1.0, 2.0]
        else:
            del model["kernel_spec"]
        bad.write_text(json.dumps(model), encoding="utf-8")
    return "predict", {"model_json": str(bad),
                       "x_csv": fit_doc["x_csv"]}, bad.name


class TestFileBoundaryErrors:
    @pytest.mark.parametrize("case", [
        "missing_matrix_csv", "missing_ingest_csv", "graph_not_json",
        "graph_edge_out_of_range", "graph_edge_negative",
        "graph_edge_fractional", "graph_without_edges", "graph_nodes_zero",
        "model_version_2", "model_not_json",
        "model_missing_kernel_spec", "model_psi_rows", "model_psi_cols",
        "graph_not_utf8", "model_not_utf8",
        # Python's JSON reader accepts NaN and Infinity
        "model_psi_nan", "model_x_train_inf", "model_x_train_flat",
        "model_rbf_normalizer_zero",
        "model_rbf_normalizer_negative", "model_rbf_normalizer_nan",
        "model_rbf_normalizer_string", "model_rbf_normalizer_on_linear",
        "model_kernel_spec_list", "model_kernel_spec_string",
        "model_kernel_spec_null", "model_kernel_spec_unknown_key",
        "model_version_true", "model_sigma_sq_true",
        "model_sigma_sq_on_linear", "model_precomputed_on_linear",
        "model_hyper_bool", "model_hyper_alpha_grid", "model_hyper_beta_grid",
    ])
    def test_bad_file_is_data_format_error(self, tmp_path, capsys, case):
        command, doc, name = _bad_file_case(tmp_path, case)
        cfg = write_config(tmp_path, "cmd.json", doc)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "DataFormatError", name)
        assert list(out.iterdir()) == []


class TestOutputBoundaryErrors:
    """An output that cannot be written ends in one JSON error line that
    names it, not in a traceback."""

    @pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
    def test_out_dir_blocked_by_a_file(self, tmp_path, capsys, out_dir):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        (tmp_path / "afile").write_text("x", encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / out_dir
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", f"--out-dir {out}")

    @pytest.mark.parametrize("command, name", [
        ("fit", "model.json"), ("fit", "fit_report.json"),
        ("predict", "predictions.csv"), ("learn-graph", "iterations.jsonl"),
    ])
    def test_output_path_is_a_directory(self, tmp_path, capsys, command, name):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        if command == "predict":
            assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "fit"]) == 0
            doc = {"model_json": str(tmp_path / "fit" / "model.json"),
                   "x_csv": doc["x_csv"]}
        elif command == "learn-graph":
            doc.update(alpha=0.5, beta=1.0, nu=0.5, max_outer_iters=2)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        capsys.readouterr()
        assert run([command, "--config",
                    write_config(tmp_path, "cmd.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError", str(out / name),
                               "cannot write")

    def test_unknown_log_level_is_a_usage_error(self, tmp_path, capsys):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--config", cfg, "--out-dir", tmp_path / "o",
                 "--log-level", "foo"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'FOO'" in err and "Traceback" not in err

    def test_log_level_is_case_insensitive(self, tmp_path):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        assert run(["fit", "--config", cfg, "--out-dir", tmp_path / "o",
                    "--log-level", "warning"]) == 0


class TestUnreadKeysRejected:
    """A config key that the command would not read is a ConfigError, and
    nothing is written."""

    def _fit_case(self, tmp_path, case):
        cfg, *_ = fit_configs(tmp_path, beta=0.5, with_laplacian=True)
        doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        missing = str(tmp_path / "missing.csv")
        if case == "graph_and_laplacian":
            graph = tmp_path / "graph.json"
            graph.write_text('{"nodes": 4, "edges": [[0, 1, 1.0]]}',
                             encoding="utf-8")
            return dict(doc, graph_json=str(graph), laplacian_csv=missing)
        kernel = {"linear_sigma_sq": {"kind": "linear", "sigma_sq": 3},
                  "linear_matrix_csv": {"kind": "linear", "matrix_csv": missing},
                  "rbf_matrix_csv": {"kind": "rbf", "sigma_sq": 1.0,
                                     "matrix_csv": missing},
                  "precomputed_sigma_sq": {"kind": "precomputed", "sigma_sq": 1.0,
                                           "matrix_csv": missing}}[case]
        return dict(doc, kernel=kernel)

    @pytest.mark.parametrize("case,words", [
        ("graph_and_laplacian", "not both"),
        ("linear_sigma_sq", "linear kernel does not read sigma_sq"),
        ("linear_matrix_csv", "linear kernel does not read matrix_csv"),
        ("rbf_matrix_csv", "rbf kernel does not read matrix_csv"),
        ("precomputed_sigma_sq", "precomputed kernel does not read sigma_sq"),
    ])
    def test_fit(self, tmp_path, capsys, case, words):
        cfg = write_config(tmp_path, "case.json", self._fit_case(tmp_path, case))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", words)
        assert not out.exists()

    @pytest.mark.parametrize("extra", [{"graph_json": "g.json"}, {"tau": 0.5},
                                       {"graph_json": "g.json", "tau": 0.5}],
                             ids=["graph_json", "tau", "both"])
    def test_krr_kernel_csv_with_heat_kernel_keys(self, tmp_path, capsys,
                                                  extra):
        save_matrix_csv(tmp_path / "K.csv", np.eye(3))
        cfg = write_config(tmp_path, "krr.json", {
            "kernel_csv": str(tmp_path / "K.csv"), "observed_idx": [0],
            "x": [1.0], "mu": 0.5, **extra})
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["krr", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", "not both")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["LR", "LRG"])
    @pytest.mark.parametrize("kernel,sigma_sqs", [
        ({"kind": "rbf", "sigma_sq": 3}, None), ({"kind": "linear"}, None),
        (None, [0.5, 2.0]), ({"kind": "rbf", "sigma_sq": 3}, [0.5]),
    ], ids=["rbf_kernel", "linear_kernel", "sigma_grid", "rbf_and_grid"])
    def test_cv_primal_methods(self, tmp_path, capsys, method, kernel,
                               sigma_sqs):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        grid = {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3}
        if sigma_sqs is not None:
            grid["sigma_sqs"] = sigma_sqs
        doc = {"x_csv": fit_doc["x_csv"], "t_csv": fit_doc["t_csv"],
               "graph_json": str(tmp_path / "graph.json"),
               "method": method, "grid": grid, "seed": 0}
        if kernel is not None:
            doc["kernel"] = kernel
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["cv", "--config", write_config(tmp_path, "cv.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", method, "raw features")
        assert not out.exists()

    def test_bench_sigma_grid(self, tmp_path, capsys):
        doc = dict(BENCH_CFG, grid=dict(BENCH_CFG["grid"], sigma_sqs=[0.5, 2.0]))
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError",
                               "bench does not read grid.sigma_sqs")
        assert not out.exists()

    def test_synth_wishart_dof_offset(self, tmp_path, capsys):
        """The benchmark draws C_S at dof S + 2 only, so synth does too."""
        doc = dict(SYNTH_CFG, wishart_dof_offset=2)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["synth", "--config", write_config(tmp_path, "s.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", "wishart_dof_offset")
        assert not out.exists()


class TestInvalidValuesRejected:
    def test_fit_nan_alpha(self, tmp_path, capsys):
        cfg, *_ = fit_configs(tmp_path, beta=0.5, with_laplacian=True)
        Path(cfg).write_text(Path(cfg).read_text(encoding="utf-8").replace(
            '"alpha": 0.5', '"alpha": NaN'), encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError",
                               "config.alpha is not a finite number")
        assert not out.exists()   # rejected before --out-dir is made

    @pytest.mark.parametrize("command, key, text, where", [
        ("krr", "tau", "NaN", "config.tau"),
        ("krr", "tau", "1e400", "config.tau"),
        ("krr", "mu", "Infinity", "config.mu"),
        ("krr", "mu", "1" + "0" * 400, "config.mu"),
        ("krr", "x", "[1.0, NaN]", "config.x[1]"),
        ("fit", "alpha", "-Infinity", "config.alpha"),
        ("fit", "alpha", "1e400", "config.alpha"),
        ("cv", "grid", '{"alphas": [0.1, 1e400], "betas": [0.0]}',
         "config.grid.alphas[1]"),
    ])
    def test_non_finite_config_number(self, tmp_path, capsys, command, key,
                                      text, where):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        fit_doc = json.loads(Path(cfg).read_text(encoding="utf-8"))
        graph = tmp_path / "graph.json"
        graph.write_text('{"nodes": 4, "edges": [[0, 1, 1.0], [1, 2, 0.5]]}',
                         encoding="utf-8")
        doc = {
            "fit": fit_doc,
            "cv": {"x_csv": fit_doc["x_csv"], "t_csv": fit_doc["t_csv"],
                   "method": "KR", "kernel": {"kind": "linear"}, "seed": 0,
                   "grid": {"alphas": [0.1, 1.0], "betas": [0.0]}},
            "krr": {"graph_json": str(graph), "tau": 0.5, "observed_idx": [0, 2],
                    "x": [1.0, -2.0], "mu": 0.3},
        }[command]
        assert run([command, "--config", write_config(tmp_path, "ok.json", doc),
                    "--out-dir", tmp_path / "ok"]) == 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, key: "@"}).replace('"@"', text),
                        encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([command, "--config", path, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError",
                               f"{where} is not a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("fit", "alpha"), ("fit", "beta"), ("cv", "grid.alphas"),
        ("learn-graph", "nu")])
    def test_weight_beyond_int64_runs_as_its_float(self, tmp_path, command,
                                                   key):
        """JSON reads 100000000000000000000 as a Python int that numpy
        cannot hold in int64; the weight checks compare it as a number, so
        every output equals that of 1e20, JSON values compared as numbers."""
        cfg, *_ = fit_configs(tmp_path, beta=0.5, with_laplacian=False)
        base = json.loads(Path(cfg).read_text(encoding="utf-8"))
        graph = str(tmp_path / "graph.json")

        def doc(weight):
            return {
                "fit": dict(base, graph_json=graph, **{key: weight}),
                "cv": {"x_csv": base["x_csv"], "t_csv": base["t_csv"],
                       "graph_json": graph, "method": "KRG",
                       "kernel": {"kind": "linear"}, "seed": 0,
                       "grid": {"alphas": [0.1, weight], "betas": [0.0, 1.0]}},
                "learn-graph": dict(base, nu=weight, max_outer_iters=3),
            }[command]

        outputs = []
        for name, weight in [("int", 10**20), ("float", 1e20)]:
            out = tmp_path / name
            assert run([command, "--config", write_config(
                tmp_path, f"{name}.json", doc(weight)), "--out-dir", out]) == 0
            outputs.append({p.name: _parsed(p) for p in out.iterdir()})
        assert "100000000000000000000" in (tmp_path / "int.json").read_text()
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("key", ["nu", "beta", "trace_budget", "tol"])
    def test_learn_graph_nan(self, tmp_path, capsys, key):
        cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
        doc = dict(json.loads(Path(cfg).read_text(encoding="utf-8")),
                   alpha=0.5, beta=1.0, nu=0.5, max_outer_iters=3)
        text = json.dumps({**doc, key: float("nan")})
        assert "NaN" in text
        path = tmp_path / "lg.json"
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["learn-graph", "--config", path, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", f"config.{key} is not")
        assert not out.exists()

    @pytest.mark.parametrize("key, values", [
        ("n_train", [6, 6]), ("snr_db", [5, 5.0]), ("methods", ["KR", "KR"]),
    ])
    def test_bench_repeated_axis_value(self, tmp_path, capsys, key, values):
        """A repeat would run its cells twice and write each row twice."""
        doc = dict(BENCH_CFG, **{key: values})
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", f"bench {key} repeats")
        assert not out.exists()

    def test_bench_snrs_sharing_a_plot_file(self, tmp_path, capsys):
        """Distinct to the schema, but one plot_nmse_vs_n_snr5.csv and one
        set of realization seeds: rejected before anything is written."""
        doc = dict(BENCH_CFG, n_train=[6, 8], snr_db=[5.0, 5.0000001])
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", "5.0 and 5.0000001",
                               "plot_nmse_vs_n_snr5.csv")
        assert not out.exists()

    def test_bench_law_synth_rejects(self, tmp_path, capsys):
        """synth's rules on the synthetic law run before any cell: no cell
        fails on it, and no results are written."""
        doc = dict(BENCH_CFG, graph_model="barabasi_albert", graph_param=2.5)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError", "graph_param")
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("synth", dict(SYNTH_CFG, num_nodes=6, graph_model="barabasi_albert",
                       graph_param=9),
         "need 1 <= m_attach < M, got m_attach=9, M=6"),
        ("bench", dict(BENCH_CFG, graph_param=1.5),
         "edge probability must be in [0, 1], got 1.5"),
    ], ids=["synth_barabasi_albert", "bench_erdos_renyi"])
    def test_graph_param_out_of_its_generator_range(self, tmp_path, capsys,
                                                    command, doc, message):
        """The generator's range check runs on the config, before any draw:
        no bench worker is forked, and no --out-dir is made."""
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([command, "--config",
                    write_config(tmp_path, "c.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "InvalidGraphError", message)
        assert not out.exists()

    def test_bench_n_train_above_the_pool(self, tmp_path, capsys):
        """num_samples fixes the training pool before any cell runs."""
        doc = dict(BENCH_CFG, n_train=[6, 9])
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConfigError", "n_train=9 exceeds",
                               "num_samples // 2 = 8")
        assert not out.exists()

    def test_bench_negative_snr(self, tmp_path, capsys):
        doc = dict(BENCH_CFG, snr_db=[5.0, -5.0])
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["bench", "--config", write_config(tmp_path, "b.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError", "snr_db >= 0", "-5.0")
        assert not out.exists()

    @pytest.mark.parametrize("command, seed", [("synth", -1), ("cv", -3)])
    def test_negative_seed(self, tmp_path, capsys, command, seed):
        """numpy seeds a generator only with a non-negative integer."""
        if command == "synth":
            doc = dict(SYNTH_CFG, seed=seed)
        else:
            data = make_dataset_dir(tmp_path)
            doc = {"x_csv": str(data / "X_train.csv"),
                   "t_csv": str(data / "T_train.csv"), "method": "KR",
                   "kernel": {"kind": "linear"}, "seed": seed,
                   "grid": {"alphas": [0.1], "betas": [0.0], "folds": 3}}
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([command, "--config", write_config(tmp_path, "s.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError",
                               f"seed must be >= 0, got {seed}")
        assert not out.exists()

    @pytest.mark.parametrize("command, doc, message", [
        ("fit", {"x_csv": "X.csv", "t_csv": "T.csv", "kernel": {"kind": "linear"},
                 "alpha": -1, "beta": 0.0},
         "alpha must be finite and >= 0, got [-1]"),
        ("cv", {"x_csv": "X.csv", "t_csv": "T.csv", "method": "KR", "seed": 0,
                "grid": {"alphas": [0.1], "betas": [0.0], "folds": 1}},
         "grid folds must be >= 2, got 1"),
        ("bench", dict(BENCH_CFG, methods=["KR", "LR"]),
         "bench methods are KR/KRG cells, got 'LR'"),
    ], ids=["fit_value", "cv_grid_value", "bench_list_item"])
    def test_schema_error_names_the_key(self, tmp_path, capsys, command, doc,
                                        message):
        """A range or enum rule's message is its dataclass's, and names
        the key, before any file is read."""
        capsys.readouterr()
        out = tmp_path / "o"
        assert run([command, "--config", write_config(tmp_path, "c.json", doc),
                    "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "KrgraphError", message)
        assert not out.exists()

    def test_eigh_failure_is_one_json_error(self, tmp_path, capsys,
                                            monkeypatch):
        cfg, *_ = fit_configs(tmp_path, beta=0.5, with_laplacian=True)

        def fail(a, **kw):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        capsys.readouterr()
        out = tmp_path / "o"
        assert run(["fit", "--config", cfg, "--out-dir", out]) == 1
        _assert_one_json_error(capsys, "ConvergenceError", "did not converge")
        assert list(out.iterdir()) == []


# (error, words in its message) of each input that a command must reject
# with exit 1 and one JSON line on stderr, writing no NaN
REJECTIONS = {
    # finite weights whose products overflow to inf, and inf * 0 to NaN
    "fit_huge_beta": ("KrgraphError", "beta=1e+308 overflow"),
    "cv_huge_beta": ("KrgraphError", "beta=1e+308 overflow"),
    "bench_huge_beta": ("KrgraphError", "2 benchmark cells failed"),
    "bench_huge_beta_seed_1": ("KrgraphError", "2 benchmark cells failed"),
    "learn_graph_huge_beta": ("KrgraphError", "beta=1e+308 overflow"),
    "learn_graph_huge_nu": ("KrgraphError", "nu=1e+308 is so large"),
    # every eigenvalue of the learned L below the null space's clamp
    "learn_graph_tiny_trace_budget": ("InvalidGraphError",
                                      "zero Laplacian; use a larger "
                                      "trace_budget"),
    "krr_huge_mu": ("KrgraphError", "mu must be > 0 with mu * S finite"),
    # targets whose squares overflow float64
    "cv_huge_targets": ("KrgraphError", "targets too large"),
    "learn_graph_huge_targets": ("KrgraphError", "targets too large"),
    # sizes whose dense float64 square numpy cannot hold
    "synth_num_nodes_1e20": ("KrgraphError", f"num_nodes={10**20} is"),
    "synth_num_samples_2_32": ("KrgraphError", f"num_samples={2**32}"),
    "bench_num_nodes_1e20": ("KrgraphError", f"num_nodes={10**20} is"),
    # Laplacian invariants of fit's laplacian_csv
    "laplacian_not_square": ("InvalidGraphError", "must be square"),
    "laplacian_not_symmetric": ("InvalidGraphError", "must be symmetric"),
    "laplacian_row_sums": ("InvalidGraphError", "row sums must be zero"),
    "laplacian_positive_off_diagonal": ("InvalidGraphError", "<= 0"),
    "laplacian_negative_diagonal": ("InvalidGraphError", ">= 0"),
    # ingest's distances_csv
    "distances_negative": ("InvalidGraphError", "nonnegative"),
    "distances_diagonal": ("InvalidGraphError", "diagonal must be zero"),
    "distances_all_zero": ("InvalidGraphError", "all distances are zero"),
    # a precomputed kernel's matrix_csv
    "precomputed_not_square": ("KrgraphError", "must be square"),
    "precomputed_not_symmetric": ("KrgraphError", "must be symmetric"),
    "precomputed_without_matrix_csv": ("ConfigError", "needs matrix_csv"),
    "cv_kr_without_kernel_or_sigmas": ("KrgraphError", "sigma_sq grid"),
}

# each a matrix in laplacian_csv, distances_csv or a precomputed matrix_csv
_REJECTED_MATRICES = {
    "laplacian_not_square": [[0.0, 0.0, 0.0]],
    "laplacian_not_symmetric": [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0],
                                [-1.0, 0.0, 1.0]],
    "laplacian_row_sums": np.eye(2),
    "laplacian_positive_off_diagonal": [[-1.0, 1.0], [1.0, -1.0]],
    # row sums within their tolerance, so only the diagonal check sees it
    "laplacian_negative_diagonal": [[-1e-11, 0.0], [0.0, 0.0]],
    "distances_negative": [[0.0, -1.0], [-1.0, 0.0]],
    "distances_diagonal": np.ones((2, 2)),
    "distances_all_zero": np.zeros((2, 2)),
    "precomputed_not_square": np.ones((12, 11)),
    "precomputed_not_symmetric": np.eye(12) + np.eye(12, k=1),
}


def _rejected_case(tmp_path, case):
    """(command, config doc) of one REJECTIONS case."""
    data = make_dataset_dir(tmp_path)
    matrix = tmp_path / "matrix.csv"
    if case in _REJECTED_MATRICES:
        save_matrix_csv(matrix, np.array(_REJECTED_MATRICES[case]))
    files = {"x_csv": str(data / "X_train.csv"),
             "t_csv": str(data / "T_train.csv")}
    kernel = {"kind": "precomputed", "matrix_csv": str(data / "kernel_full.csv")}
    fit = dict(files, graph_json=str(data / "graph.json"), kernel=kernel,
               alpha=0.1, beta=0.5)
    learn_graph = dict(files, kernel=kernel, alpha=0.1, beta=1.0, nu=0.5)
    krr = {"graph_json": str(data / "graph.json"), "tau": 0.5,
           "observed_idx": [0, 1], "x": [1.0, 2.0], "mu": 0.2}
    grid = {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3}
    cv = dict(files, graph_json=str(data / "graph.json"), method="KRG",
              kernel=kernel, grid=grid, seed=0)
    if case.startswith("laplacian_"):
        del fit["graph_json"]
        return "fit", dict(fit, laplacian_csv=str(matrix))
    if case.endswith("_huge_targets"):
        rng = np.random.default_rng(0)
        save_matrix_csv(tmp_path / "X.csv", rng.standard_normal((12, 3)))
        save_matrix_csv(tmp_path / "T.csv",
                        1e200 * rng.standard_normal((12, 4)))
        files = {"x_csv": str(tmp_path / "X.csv"),
                 "t_csv": str(tmp_path / "T.csv")}
        if case == "cv_huge_targets":
            return "cv", dict(files, method="KR", kernel={"kind": "linear"},
                              grid=dict(grid, betas=[0.0]), seed=0)
        return "learn-graph", dict(
            files, kernel={"kind": "rbf", "sigma_sq": 1.0}, alpha=0.1,
            beta=1.0, nu=0.5, max_outer_iters=2)
    if case.startswith("distances_"):
        (tmp_path / "inputs.csv").write_text("x\n1.0\n2.0\n3.0\n",
                                             encoding="utf-8")
        save_matrix_csv(tmp_path / "targets.csv", np.ones((3, 2)))
        return "ingest", {"inputs_csv": str(tmp_path / "inputs.csv"),
                          "targets_csv": str(tmp_path / "targets.csv"),
                          "distances_csv": str(matrix)}
    return {
        "fit_huge_beta": ("fit", dict(fit, beta=1e308)),
        "cv_huge_beta": ("cv", dict(cv, grid=dict(grid, betas=[0.0, 1e308]))),
        # seeds where beta * theta overflows beside L's exact eigenvalue 0;
        # at master_seed 3 it does not, and bench gives the beta -> inf limit
        "bench_huge_beta": ("bench", dict(
            BENCH_CFG, master_seed=0, grid=dict(grid, betas=[1e308]))),
        "bench_huge_beta_seed_1": ("bench", dict(
            BENCH_CFG, master_seed=1, grid=dict(grid, betas=[1e308]))),
        "learn_graph_huge_beta": ("learn-graph", dict(learn_graph, beta=1e308)),
        "learn_graph_huge_nu": ("learn-graph", dict(learn_graph, nu=1e308)),
        "learn_graph_tiny_trace_budget": ("learn-graph", dict(
            learn_graph, trace_budget=1e-12)),
        "krr_huge_mu": ("krr", dict(krr, mu=1e308)),
        "synth_num_nodes_1e20": ("synth", dict(SYNTH_CFG, num_nodes=10**20)),
        "synth_num_samples_2_32": ("synth", dict(SYNTH_CFG, num_samples=2**32)),
        "bench_num_nodes_1e20": ("bench", dict(BENCH_CFG, num_nodes=10**20)),
        "precomputed_not_square": ("fit", dict(fit, kernel=dict(
            kernel, matrix_csv=str(matrix)))),
        "precomputed_not_symmetric": ("fit", dict(fit, kernel=dict(
            kernel, matrix_csv=str(matrix)))),
        "precomputed_without_matrix_csv": ("fit", dict(
            fit, kernel={"kind": "precomputed"})),
        "cv_kr_without_kernel_or_sigmas": ("cv", dict(
            {k: v for k, v in cv.items() if k != "kernel"}, method="KR")),
    }[case]


def _strict_json(text):
    """JSON as a strict parser reads it: NaN and Infinity are no tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejected_with_one_json_line(tmp_path, capsys, monkeypatch, case):
    """Exit 1 with one JSON line and no numpy warning; what the command
    wrote before it failed (bench's results) holds only finite numbers.
    bench runs in this process, where the warnings are caught: a forked
    worker would record its warnings in its own copy of the list."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    command, doc = _rejected_case(tmp_path, case)
    cfg = write_config(tmp_path, "case.json", doc)
    capsys.readouterr()
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", cfg, "--out-dir", out]) == 1
    assert [str(w.message) for w in caught] == []
    _assert_one_json_error(capsys, *REJECTIONS[case])
    for path in out.glob("*"):   # a config rejected makes no --out-dir
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            _strict_json(text)
        else:   # a CSV, whose floats are written by repr
            assert "nan" not in text and "inf" not in text


def test_memory_error_is_one_json_line(tmp_path, capsys, monkeypatch):
    """An allocation below numpy's size limit can still fail."""
    class ArrayMemoryError(MemoryError):   # as numpy's, a private subclass
        pass

    def allocate(cfg):
        raise ArrayMemoryError("Unable to allocate 2.00 EiB for an array")

    monkeypatch.setattr(cli.synthdata, "make_synthetic_dataset", allocate)
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["synth", "--config", write_config(tmp_path, "s.json", SYNTH_CFG),
                "--out-dir", out]) == 1
    _assert_one_json_error(capsys, "MemoryError", "Unable to allocate")
    assert list(out.iterdir()) == []


def _parsed(path):
    """A JSON or JSON-lines file as its values, any other file as text."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return json.loads(text) if path.suffix == ".json" else text


def _cli_subprocess(command, cfg, out):
    """Run in a subprocess: pytest's warning capture would hide a numpy
    RuntimeWarning printed ahead of the JSON error."""
    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "krgraph", command, "--config", cfg,
         "--out-dir", str(out)],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=120)


def test_overflow_stderr_is_one_json_line(tmp_path):
    cfg, *_ = fit_configs(tmp_path, beta=0.0, with_laplacian=False)
    save_matrix_csv(tmp_path / "X_big.csv", np.array(
        [[1e200, 1.0], [2e200, -1.0], [3.0, 1e200], [1.0, 2.0]]))
    save_matrix_csv(tmp_path / "T4.csv", np.ones((4, 4)))
    doc = dict(json.loads(Path(cfg).read_text(encoding="utf-8")),
               x_csv=str(tmp_path / "X_big.csv"), t_csv=str(tmp_path / "T4.csv"))
    proc = _cli_subprocess("fit", write_config(tmp_path, "big.json", doc),
                           tmp_path / "o")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert json.loads(lines[0])["error"] == "DegenerateKernelError"


def _linear_fit_config(tmp_path, T):
    """fit on X = [1, 2, 3] and T, linear kernel, alpha 0.1, beta 0."""
    save_matrix_csv(tmp_path / "X.csv", np.array([[1.0], [2.0], [3.0]]))
    save_matrix_csv(tmp_path / "T.csv", np.array(T, dtype=float))
    return write_config(tmp_path, "fit.json", {
        "x_csv": str(tmp_path / "X.csv"), "t_csv": str(tmp_path / "T.csv"),
        "kernel": {"kind": "linear"}, "alpha": 0.1, "beta": 0.0})


def _run_without_warnings(args):
    """The exit code of run(args), asserting that numpy warned nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(args)
    assert [str(w.message) for w in caught] == []
    return code


def test_predict_that_overflows_writes_no_predictions(tmp_path, capsys):
    """At x = 3e307 one prediction overflows to inf: predict exits 1 with
    one JSON line, no numpy warning, and no predictions.csv."""
    fit = _linear_fit_config(tmp_path, [[1, 2], [2, 1], [3, 3.5]])
    assert run(["fit", "--config", fit, "--out-dir", tmp_path / "m"]) == 0
    save_matrix_csv(tmp_path / "X_new.csv", np.array([[3e307]]))
    cfg = write_config(tmp_path, "predict.json", {
        "model_json": str(tmp_path / "m" / "model.json"),
        "x_csv": str(tmp_path / "X_new.csv")})
    capsys.readouterr()
    out = tmp_path / "o"
    assert _run_without_warnings(
        ["predict", "--config", cfg, "--out-dir", out]) == 1
    _assert_one_json_error(capsys, "KrgraphError",
                           "predictions.csv: not written")
    assert list(out.iterdir()) == []


def test_fit_whose_report_overflows_leaves_no_model(tmp_path, capsys):
    """Targets of 1e300 fit, but the report's norms and costs overflow:
    fit exits 1 with one JSON line, no numpy warning, and neither
    model.json nor fit_report.json."""
    cfg = _linear_fit_config(tmp_path, [[1e300, 2], [2, -1e300], [3, 3.5]])
    capsys.readouterr()
    out = tmp_path / "o"
    assert _run_without_warnings(
        ["fit", "--config", cfg, "--out-dir", out]) == 1
    _assert_one_json_error(capsys, "KrgraphError",
                           "fit_report.json: not written")
    assert list(out.iterdir()) == []
