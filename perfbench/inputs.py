"""Seeded inputs for the fit_predict and learn_graph workloads.

Plain numpy only: the generator never imports krgraph, so a change to the
program (for instance to its synthetic-data module) cannot change what the
benchmark feeds it. Every file is written in the formats the CLI reads:
headerless numeric CSV, the {"nodes", "edges"} graph JSON, and one JSON
config per command.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Workload sizes; the smoke sizes keep the benchmark's own tests fast.
FIT_PREDICT = {"n_train": 3000, "n_test": 3000, "dim": 8, "nodes": 150,
               "edge_prob": 0.05, "sigma_sq": 0.5, "alpha": 0.1, "beta": 1.0}
# learn_graph runs a fixed number of outer iterations (tol is far below any
# reachable relative change), so its work does not depend on how quickly
# one seed's data happens to converge.
LEARN_GRAPH = {"n_train": 200, "dim": 5, "nodes": 60, "edge_prob": 0.1,
               "sigma_sq": 0.5, "alpha": 0.1, "beta": 1.0, "nu": 0.5,
               "max_outer_iters": 5, "tol": 1e-12}
FIT_PREDICT_SMOKE = dict(FIT_PREDICT, n_train=60, n_test=40, nodes=12,
                         edge_prob=0.3)
LEARN_GRAPH_SMOKE = dict(LEARN_GRAPH, n_train=30, nodes=8, edge_prob=0.4)


def _rng(seed, tag):
    return np.random.default_rng([int(seed), tag])


def write_csv(path, mat):
    """Shortest round-trip decimals, as the program's own CSV writer."""
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        for row in mat:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def er_adjacency(M, p, rng):
    """Unit-weight Erdos-Renyi adjacency, symmetric with a zero diagonal."""
    A = np.zeros((M, M))
    iu = np.triu_indices(M, 1)
    A[iu] = (rng.random(len(iu[0])) < p).astype(float)
    return A + A.T


def graph_smooth_targets(X, A, noise, rng):
    """Nonlinear features of X mapped onto the nodes, then smoothed on the
    graph row by row with (I + L)^{-1}, plus white noise."""
    M = A.shape[0]
    L = np.diag(A.sum(axis=1)) - A
    W = rng.standard_normal((X.shape[1], M))
    F = np.sin(X @ W / np.sqrt(X.shape[1])) + 0.5 * (X @ W) / X.shape[1]
    T0 = np.linalg.solve(np.eye(M) + L, F.T).T
    return T0 + noise * T0.std() * rng.standard_normal(T0.shape)


def _edge_doc(A):
    iu = np.triu_indices(A.shape[0], 1)
    return {"nodes": int(A.shape[0]),
            "edges": [[int(i), int(j), float(A[i, j])]
                      for i, j in zip(*iu) if A[i, j] != 0]}


def make_fit_predict(out_dir, seed, sizes=FIT_PREDICT):
    """Training and test rows, a graph JSON, and fit/predict configs.

    Returns the config paths, the output directories the commands write
    to, the graph JSON path, and the generated arrays.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 1)
    A = er_adjacency(sizes["nodes"], sizes["edge_prob"], rng)
    X = rng.standard_normal((sizes["n_train"] + sizes["n_test"], sizes["dim"]))
    T = graph_smooth_targets(X[: sizes["n_train"]], A, 0.1, rng)
    paths = {name: out / name for name in
             ("x_train.csv", "t_train.csv", "x_test.csv", "graph.json",
              "fit.json", "predict.json")}
    write_csv(paths["x_train.csv"], X[: sizes["n_train"]])
    write_csv(paths["t_train.csv"], T)
    write_csv(paths["x_test.csv"], X[sizes["n_train"]:])
    write_json(paths["graph.json"], _edge_doc(A))
    fit_dir, predict_dir = out / "fit_out", out / "predict_out"
    write_json(paths["fit.json"], {
        "x_csv": str(paths["x_train.csv"]), "t_csv": str(paths["t_train.csv"]),
        "graph_json": str(paths["graph.json"]),
        "kernel": {"kind": "rbf", "sigma_sq": sizes["sigma_sq"]},
        "alpha": sizes["alpha"], "beta": sizes["beta"]})
    write_json(paths["predict.json"], {
        "model_json": str(fit_dir / "model.json"),
        "x_csv": str(paths["x_test.csv"])})
    return {"fit": paths["fit.json"], "predict": paths["predict.json"],
            "fit_dir": fit_dir, "predict_dir": predict_dir,
            "graph": paths["graph.json"], "x_train": X[: sizes["n_train"]],
            "t_train": T, "x_test": X[sizes["n_train"]:]}


def make_learn_graph(out_dir, seed, sizes=LEARN_GRAPH):
    """Rows that are smooth on a hidden graph, and a learn-graph config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 2)
    A = er_adjacency(sizes["nodes"], sizes["edge_prob"], rng)
    X = rng.standard_normal((sizes["n_train"], sizes["dim"]))
    T = graph_smooth_targets(X, A, 0.1, rng)
    x_csv, t_csv, cfg = out / "x.csv", out / "t.csv", out / "learn_graph.json"
    write_csv(x_csv, X)
    write_csv(t_csv, T)
    write_json(cfg, {
        "x_csv": str(x_csv), "t_csv": str(t_csv),
        "kernel": {"kind": "rbf", "sigma_sq": sizes["sigma_sq"]},
        "alpha": sizes["alpha"], "beta": sizes["beta"], "nu": sizes["nu"],
        "max_outer_iters": sizes["max_outer_iters"], "tol": sizes["tol"]})
    return {"learn_graph": cfg, "out_dir": out / "learn_out"}
