"""Tests of the benchmark itself (not of krgraph).

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q

The smoke runs use tiny inputs (--smoke), so every workload runs end to
end through child processes in a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    res = _result(_run_bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert sorted(res["metrics"]) == sorted(names)
    for spec in BENCH["end_to_end"]:
        metric = res["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    res = _result(_run_bench("--workload", workload, "--seed", "3",
                             "--seconds", "1", "--trace", "1", "--smoke"))
    assert res["correct"] is True and res["failed"] == 0
    names = [m["name"] for m in BENCH["per_layer"]]
    assert sorted(res["metrics"]) == sorted(names)


def test_snr_sweep_call_counts_match_closed_forms():
    res = _result(_run_bench("--workload", "snr_sweep", "--seed", "5",
                             "--seconds", "1", "--trace", "1", "--smoke"))
    with open(ROOT / "configs" / "bench_snr_sweep.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    cfg.update(run.SMOKE_SNR)
    expected = run.snr_expected_counts(cfg)
    measured = {k: res["metrics"][k]["value"] for k in expected}
    assert measured == expected
    # Folds + 1 builds per (method, realization).
    runs = expected["synthdata.make_synthetic_dataset.calls"]
    assert expected["solver.SpectralCache.build.calls"] == runs * (
        cfg["grid"]["folds"] + 1)


def test_closed_forms_at_the_shipped_config():
    with open(ROOT / "configs" / "bench_snr_sweep.json", encoding="utf-8") as fh:
        cfg = json.load(fh)
    counts = run.snr_expected_counts(cfg)
    assert counts["synthdata.make_synthetic_dataset.calls"] == 280
    assert counts["solver.SpectralCache.build.calls"] == 1680
    assert counts["graphs.Laplacian.eigendecomposition.calls"] == 1680
    assert counts["solver.solve_sylvester_spectral.calls"] == 19880
    assert counts["kernels.kernel_cross_matrix.calls"] == 19880


def test_project_simplex_count_repeats():
    counts = []
    for _ in range(2):
        res = _result(_run_bench("--workload", "learn_graph", "--seed", "2",
                                 "--seconds", "1", "--trace", "1", "--smoke"))
        counts.append(res["metrics"]["graphlearn.project_simplex.calls"]["value"])
    assert counts[0] == counts[1] > 0


def _pass(name, tmp_path):
    wl = run.prepare(name, tmp_path, seed=4, smoke=True)
    p = run.run_pass(wl, tmp_path, "t")
    assert p.commands_failed == 0
    assert all(ok for _, ok, _ in p.checks), p.checks
    return wl


def _perturb_csv(path, row, col, delta):
    mat = checks.load_csv(path)
    mat[row, col] += delta
    with open(path, "w", encoding="utf-8") as fh:
        for r in mat:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")


def test_perturbed_prediction_fails_the_check(tmp_path):
    wl = _pass("fit_predict", tmp_path)
    _perturb_csv(tmp_path / "predict_out" / "predictions.csv", 3, 2, 1e-3)
    failed = [name for name, ok, _ in wl.check() if not ok]
    assert failed == ["predictions"]


def test_perturbed_laplacian_fails_the_check(tmp_path):
    wl = _pass("learn_graph", tmp_path)
    _perturb_csv(tmp_path / "learn_out" / "laplacian.csv", 0, 1, -1e-3)
    failed = {name for name, ok, _ in wl.check() if not ok}
    assert "laplacian symmetric" in failed
    assert "laplacian zero row sums" in failed


def test_nonfinite_bench_row_fails_the_check(tmp_path):
    wl = _pass("snr_sweep", tmp_path)
    path = tmp_path / "bench_out" / "results.csv"
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[4] = "nan"
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    failed = [name for name, ok, _ in wl.check() if not ok]
    assert len(failed) == 1 and failed[0].startswith("cell ")


def test_reference_mismatch_fails_the_check(tmp_path):
    wl = _pass("snr_sweep", tmp_path)
    out = tmp_path / "bench_out"
    values = [float(line.split(",")[4])
              for line in (out / "results.csv").read_text().splitlines()[1:]]
    cfg = wl.info["config"]
    good = {"sha256": checks.sha256(out / "results.csv"), "nmse_db": values}
    assert all(ok for _, ok, _ in checks.check_snr_sweep(
        cfg, out / "results.csv", out / "results.json", good))
    bad = {"sha256": "0" * 64, "nmse_db": [v + 1e-3 for v in values]}
    results = checks.check_snr_sweep(cfg, out / "results.csv",
                                     out / "results.json", bad)
    assert [n for n, ok, _ in results if not ok] == [
        "results.csv matches reference"]


def test_tracer_wraps_names_imported_by_other_modules(tmp_path):
    wl = run.prepare("fit_predict", tmp_path, seed=1, smoke=True)
    _, cli_args, _ = wl.commands[0]
    spans = tmp_path / "fit.spans.json"
    res = run.spawn(tmp_path, "fit", cli_args, spans)
    assert res["exit_code"] == 0
    doc = json.loads(spans.read_text())
    assert "krgraph.evaluation.fit_krg" in doc["sites"]["solver.fit_krg"]
    assert "krgraph.graphlearn.fit_krg" in doc["sites"]["solver.fit_krg"]
    assert "krgraph.cli.gram_matrix" in doc["sites"]["kernels.gram_matrix"]
    assert "krgraph.cli.kernel_cross_matrix" in \
        doc["sites"]["kernels.kernel_cross_matrix"]
    assert "krgraph.evaluation.make_synthetic_dataset" in \
        doc["sites"]["synthdata.make_synthetic_dataset"]
    assert doc["absent"] == []
    metrics, _ = tracer.aggregate([doc])
    assert metrics["solver.fit_krg.calls"] == 1
    assert metrics["kernels.gram_matrix.calls"] == 1


def test_self_time_subtracts_nested_wrapped_calls():
    layers = [layer for layer, _, _, _ in tracer.LAYERS]
    idx = {name: i for i, name in enumerate(layers)}
    doc = {"layers": layers, "extras": {}, "absent": [], "spans": [
        [idx["solver.SpectralCache.build"], 0.0, 10.0, -1],
        [idx["graphs.Laplacian.eigendecomposition"], 1.0, 4.0, 0],
        [idx["graphs.Laplacian.eigendecomposition"], 5.0, 6.0, 0],
        [idx["cli.main"], 2.0, 3.0, 1],
    ]}
    metrics, _ = tracer.aggregate([doc])
    assert metrics["solver.SpectralCache.build.s"] == 10.0
    assert metrics["solver.SpectralCache.build.self_s"] == 6.0
    assert metrics["graphs.Laplacian.eigendecomposition.calls"] == 2
    assert metrics["cli.main.self_s"] == 1.0


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", (
        ("graphs.no_such_function", "krgraph.graphs", "no_such_function",
         ("calls",)),
        ("nomodule.f", "krgraph.no_such_module", "f", ("calls", "s")),
    ))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    t = tracer.Tracer()
    t.install()
    assert t.absent == ["graphs.no_such_function", "nomodule.f"]
    doc = {"layers": t.layers, "spans": [], "extras": {}, "absent": t.absent}
    metrics, absent = tracer.aggregate([doc])
    assert metrics == {} and absent == sorted(t.absent)


def test_outside_a_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "snr_sweep", "--seed", "0", "--seconds",
                      "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
