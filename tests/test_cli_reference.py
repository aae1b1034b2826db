"""Byte stability of the command outputs: one small seeded chain,
synth -> ingest -> fit (RBF, beta > 0) -> predict -> learn-graph -> cv
(KRG on a precomputed kernel; KRG sweeping grid.sigma_sqs on the learned
Laplacian; LRG on the ingested features) -> bench -> krr, run with BLAS on
one thread, must write the files whose sha256 digests
tests/cli_reference.json records.

The chain runs in its work directory with relative paths, so the configs
that manifests copy are the same in every run.

The test only reads the reference. After a change that is meant to move
an output, record it again with

    PYTHONPATH=src python tests/test_cli_reference.py > tests/cli_reference.json
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "cli_reference.json"

# output directory and file name of each digested output
OUTPUTS = [
    *(("data", name) for name in (
        "X_train.csv", "T_train.csv", "T0_train.csv", "X_test.csv",
        "T0_test.csv", "graph.json", "manifest.json", "kernel_full.csv")),
    *(("ingest", name) for name in (
        "X.csv", "T.csv", "graph.json", "manifest.json")),
    ("fit", "model.json"), ("fit", "fit_report.json"),
    ("predict", "predictions.csv"), ("learn", "model.json"),
    ("learn", "laplacian.csv"), ("learn", "cost_trace.json"),
    ("learn", "iterations.jsonl"), ("cv", "cv_results.json"),
    ("cv_sweep", "cv_results.json"), ("cv_lrg", "cv_results.json"),
    ("bench", "results.csv"), ("bench", "results.json"),
    ("bench", "plot_nmse_vs_snr_n8.csv"), ("krr", "estimate.csv"),
]

# one process runs every command of the chain, in order; argv is its JSON
_CHAIN = """
import json, sys
from krgraph.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit(f"{args[0]} failed")
"""

_PRECOMPUTED = {"kind": "precomputed", "matrix_csv": "data/kernel_full.csv"}

# (command, out-dir, config) of each step of the chain; paths are
# relative to its work dir
_STEPS = [
    ("synth", "data",
     {"num_nodes": 10, "num_samples": 40, "graph_model": "erdos_renyi",
      "graph_param": 0.4, "snr_db": 10.0, "seed": 7}),
    ("ingest", "ingest",
     {"inputs_csv": "inputs.csv", "targets_csv": "data/T_train.csv",
      "distances_csv": "distances.csv"}),
    ("fit", "fit",
     {"x_csv": "data/X_train.csv", "t_csv": "data/T_train.csv",
      "graph_json": "data/graph.json",
      "kernel": {"kind": "rbf", "sigma_sq": 2.0}, "alpha": 0.3, "beta": 0.7}),
    ("predict", "predict",
     {"model_json": "fit/model.json", "x_csv": "data/X_test.csv"}),
    ("learn-graph", "learn",
     {"x_csv": "data/X_train.csv", "t_csv": "data/T_train.csv",
      "kernel": _PRECOMPUTED, "alpha": 0.1, "beta": 1.0, "nu": 0.5,
      "max_outer_iters": 4}),
    ("cv", "cv",
     {"x_csv": "data/X_train.csv", "t_csv": "data/T_train.csv",
      "t0_csv": "data/T0_train.csv", "graph_json": "data/graph.json",
      "method": "KRG", "kernel": _PRECOMPUTED,
      "grid": {"alphas": [0.01, 0.1, 1.0], "betas": [0.0, 0.5, 2.0],
               "folds": 4},
      "seed": 5}),
    # no kernel: the rbf sweep over grid.sigma_sqs, a repeat included
    ("cv", "cv_sweep",
     {"x_csv": "data/X_train.csv", "t_csv": "data/T_train.csv",
      "t0_csv": "data/T0_train.csv", "laplacian_csv": "learn/laplacian.csv",
      "method": "KRG",
      "grid": {"alphas": [0.01, 0.1], "betas": [0.0, 0.5],
               "sigma_sqs": [4.0, 1.0, 4.0], "folds": 4},
      "seed": 9}),
    ("cv", "cv_lrg",
     {"x_csv": "ingest/X.csv", "t_csv": "ingest/T.csv",
      "graph_json": "ingest/graph.json", "method": "LRG",
      "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5, 2.0], "folds": 5},
      "seed": 11}),
    ("bench", "bench",
     {"methods": ["KR", "KRG"], "n_train": [8], "snr_db": [5.0, 15.0],
      "realizations": 2, "num_nodes": 6, "num_samples": 20,
      "graph_model": "barabasi_albert", "graph_param": 2,
      "grid": {"alphas": [0.1, 1.0], "betas": [0.0, 0.5], "folds": 3},
      "master_seed": 3}),
    ("krr", "krr",
     {"graph_json": "data/graph.json", "tau": 0.5,
      "observed_idx": [0, 3, 4, 8], "x": [1.0, -0.5, 0.25, 2.0], "mu": 0.2}),
]


def _write_inputs(work: Path):
    """ingest's inputs: a headed 20 x 2 feature table, one row per
    training target, and the path-graph distances of the 10 nodes."""
    rows = [f"{i / 4!r},{(i * i) % 7 - 3.5!r}" for i in range(20)]
    (work / "inputs.csv").write_text("\n".join(["a,b", *rows]) + "\n",
                                     encoding="utf-8")
    (work / "distances.csv").write_text("".join(
        ",".join(repr(float(abs(i - j))) for j in range(10)) + "\n"
        for i in range(10)), encoding="utf-8")


def chain_digests(work: Path):
    """Run the chain in work, BLAS on one thread; {output: sha256}."""
    _write_inputs(work)
    argv = []
    for command, out_dir, cfg in _STEPS:
        name = f"{out_dir}.json"
        (work / name).write_text(json.dumps(cfg), encoding="utf-8")
        argv.append([command, "--config", name, "--out-dir", out_dir,
                     "--log-level", "WARNING"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHAIN, json.dumps(argv)],
                          cwd=work, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {f"{d}/{name}": hashlib.sha256((work / d / name).read_bytes())
            .hexdigest() for d, name in OUTPUTS}


def test_chain_outputs_match_their_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert chain_digests(tmp_path) == reference


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        print(json.dumps(chain_digests(Path(work)), indent=2, sort_keys=True))
