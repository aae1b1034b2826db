"""Byte stability of the command outputs: one small seeded chain,
synth -> fit (RBF, beta > 0) -> predict -> learn-graph -> cv (KRG), run
with BLAS on one thread, must write the files whose sha256 digests
tests/cli_reference.json records.

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
OUTPUTS = [("fit", "model.json"), ("fit", "fit_report.json"),
           ("predict", "predictions.csv"), ("learn", "model.json"),
           ("learn", "laplacian.csv"), ("learn", "cost_trace.json"),
           ("learn", "iterations.jsonl"), ("cv", "cv_results.json")]

# one process runs every command of the chain, in order; argv is its JSON
_CHAIN = """
import json, sys
from krgraph.cli import main
for args in json.loads(sys.argv[1]):
    if main(args) != 0:
        sys.exit(f"{args[0]} failed")
"""


def _chain(work: Path):
    """(command, config) pairs of the chain, with every path under work."""
    data = work / "data"
    precomputed = {"kind": "precomputed",
                   "matrix_csv": str(data / "kernel_full.csv")}
    return [
        ("synth", {"num_nodes": 10, "num_samples": 40,
                   "graph_model": "erdos_renyi", "graph_param": 0.4,
                   "snr_db": 10.0, "seed": 7}),
        ("fit", {"x_csv": str(data / "X_train.csv"),
                 "t_csv": str(data / "T_train.csv"),
                 "graph_json": str(data / "graph.json"),
                 "kernel": {"kind": "rbf", "sigma_sq": 2.0},
                 "alpha": 0.3, "beta": 0.7}),
        ("predict", {"model_json": str(work / "fit" / "model.json"),
                     "x_csv": str(data / "X_test.csv")}),
        ("learn-graph", {"x_csv": str(data / "X_train.csv"),
                         "t_csv": str(data / "T_train.csv"),
                         "kernel": precomputed, "alpha": 0.1, "beta": 1.0,
                         "nu": 0.5, "max_outer_iters": 4}),
        ("cv", {"x_csv": str(data / "X_train.csv"),
                "t_csv": str(data / "T_train.csv"),
                "t0_csv": str(data / "T0_train.csv"),
                "graph_json": str(data / "graph.json"), "method": "KRG",
                "kernel": precomputed,
                "grid": {"alphas": [0.01, 0.1, 1.0], "betas": [0.0, 0.5, 2.0],
                         "folds": 4},
                "seed": 5}),
    ]


def chain_digests(work: Path):
    """Run the chain under work, BLAS on one thread; {output: sha256}."""
    out_dirs = {"synth": "data", "learn-graph": "learn"}
    argv = []
    for command, cfg in _chain(work):
        path = work / f"{command}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        argv.append([command, "--config", str(path), "--out-dir",
                     str(work / out_dirs.get(command, command)),
                     "--log-level", "WARNING"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _CHAIN, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {f"{d}/{name}": hashlib.sha256((work / d / name).read_bytes())
            .hexdigest() for d, name in OUTPUTS}


def test_chain_outputs_match_their_reference(tmp_path):
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert chain_digests(tmp_path) == reference


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        print(json.dumps(chain_digests(Path(work)), indent=2, sort_keys=True))
