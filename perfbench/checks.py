"""Output checks that do not trust the program.

Every check recomputes what the output must be from the benchmark's own
inputs with plain numpy, never through krgraph. Each returns a list of
(check name, passed, detail) tuples; every failed tuple counts toward the
benchmark's failed operations.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

FIT_RESIDUAL_TOL = 1e-8      # relative Frobenius residual of the Sylvester system
PREDICTION_TOL = 1e-9        # relative Frobenius error of predictions
LAPLACIAN_TOL = 1e-10        # structural tolerances, relative to ||L||_F
COST_SLACK = 1e-12           # relative rounding slack in a nonincreasing trace
REFERENCE_DB_TOL = 1e-8      # NMSE agreement when results.csv bytes differ


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_csv(path):
    return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))


def laplacian_from_graph_json(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    M = doc["nodes"]
    A = np.zeros((M, M))
    for i, j, w in doc["edges"]:
        A[i, j] = A[j, i] = w
    return np.diag(A.sum(axis=1)) - A


def rbf_normalizer(X):
    """Z = sum over ordered pairs of ||x_m - x_n||^2, divided by N."""
    n = X.shape[0]
    sq_norms = np.einsum("ij,ij->i", X, X)
    col_sum = X.sum(axis=0)
    return (2.0 * n * sq_norms.sum() - 2.0 * col_sum @ col_sum) / n


def rbf_kernel(A, B, sigma_sq, Z):
    sq = (np.einsum("ij,ij->i", A, A)[:, None]
          + np.einsum("ij,ij->i", B, B)[None, :] - 2.0 * A @ B.T)
    return np.exp(-np.maximum(sq, 0.0) / (sigma_sq * Z))


def _rel(err, ref):
    return float(np.linalg.norm(err) / max(np.linalg.norm(ref), 1e-300))


def check_fit_predict(x_train, t_train, x_test, graph_json, sigma_sq, alpha,
                      beta, model_json, predictions_csv):
    """The fitted Psi solves (K+aI)Psi + b K Psi L = T, and the predictions
    are K_cross Psi, both rebuilt here from the benchmark's inputs."""
    out = []
    try:
        with open(model_json, encoding="utf-8") as fh:
            model = json.load(fh)
        psi = np.array(model["psi"], dtype=float)
        same_x = np.array_equal(np.array(model["x_train"], dtype=float), x_train)
        out.append(("model stores the training inputs", same_x, ""))
        L = laplacian_from_graph_json(graph_json)
        Z = rbf_normalizer(x_train)
        K = rbf_kernel(x_train, x_train, sigma_sq, Z)
        KP = K @ psi
        resid = alpha * psi + KP + beta * KP @ L - t_train
        rel = _rel(resid, t_train)
        out.append(("fit residual", rel <= FIT_RESIDUAL_TOL,
                    f"relative residual {rel:.3e}"))
    except (OSError, ValueError, KeyError) as exc:
        out.append(("fit residual", False, f"model unreadable: {exc}"))
        return out
    try:
        pred = load_csv(predictions_csv)
    except (OSError, ValueError) as exc:
        out.append(("predictions", False, f"predictions unreadable: {exc}"))
        return out
    ref = rbf_kernel(x_test, x_train, sigma_sq, Z) @ psi
    if pred.shape != ref.shape:
        out.append(("predictions", False,
                    f"shape {pred.shape}, expected {ref.shape}"))
        return out
    rel = _rel(pred - ref, ref)
    out.append(("predictions", bool(rel <= PREDICTION_TOL),
                f"relative error {rel:.3e}"))
    return out


def check_learn_graph(laplacian_csv, cost_trace_json):
    """A valid unit-spectral-radius Laplacian and a nonincreasing cost."""
    out = []
    try:
        L = load_csv(laplacian_csv)
    except (OSError, ValueError) as exc:
        return [("laplacian", False, f"unreadable: {exc}")]
    scale = max(1.0, float(np.linalg.norm(L)))
    square = L.ndim == 2 and L.shape[0] == L.shape[1]
    out.append(("laplacian square", square, f"shape {L.shape}"))
    if square:
        tol = LAPLACIAN_TOL * scale
        off = L - np.diag(np.diag(L))
        out.append(("laplacian symmetric",
                    bool(np.abs(L - L.T).max() <= tol), ""))
        out.append(("laplacian zero row sums",
                    bool(np.abs(L.sum(axis=1)).max() <= tol), ""))
        out.append(("laplacian nonpositive off-diagonal",
                    bool(off.max() <= tol), ""))
        rho = float(np.abs(np.linalg.eigvalsh((L + L.T) / 2)).max())
        out.append(("laplacian spectral radius 1",
                    abs(rho - 1.0) <= LAPLACIAN_TOL, f"radius {rho!r}"))
    try:
        with open(cost_trace_json, encoding="utf-8") as fh:
            costs = [float(c) for c in json.load(fh)["cost_trace"]]
    except (OSError, ValueError, KeyError) as exc:
        return out + [("cost trace", False, f"unreadable: {exc}")]
    ok = bool(costs) and all(math.isfinite(c) for c in costs) and all(
        b <= a + COST_SLACK * abs(a) for a, b in zip(costs, costs[1:]))
    out.append(("cost trace nonincreasing", ok, f"{len(costs)} iterations"))
    return out


def check_snr_sweep(cfg, results_csv, results_json, reference):
    """No failed cells, every (method, n, snr, split) row once and finite,
    and results.csv equal to the reference recorded for this seed."""
    out = []
    try:
        with open(results_json, encoding="utf-8") as fh:
            failures = json.load(fh)["failures"]
    except (OSError, ValueError, KeyError) as exc:
        failures = None
        out.append(("results.json", False, f"unreadable: {exc}"))
    failed_cells = {(f["method"], f["n_train"], float(f["snr_db"]))
                    for f in failures or ()}
    try:
        with open(results_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        rows = []
        out.append(("results.csv", False, f"unreadable: {exc}"))
    seen = {}
    for r in rows:
        key = (r["method"], int(r["n_train"]), float(r["snr_db"]), r["split"])
        seen.setdefault(key, []).append(r)
    for method in cfg["methods"]:
        for n in cfg["n_train"]:
            for snr in cfg["snr_db"]:
                cell = f"cell {method} n={n} snr={snr:g}"
                if (method, n, float(snr)) in failed_cells:
                    out.append((cell, False, "reported as failed"))
                    continue
                good = all(
                    len(seen.get((method, n, float(snr), split), ())) == 1
                    and math.isfinite(float(seen[(method, n, float(snr),
                                                  split)][0]["nmse_db"]))
                    and int(seen[(method, n, float(snr), split)][0]
                            ["realizations"]) == cfg["realizations"]
                    for split in ("train", "test"))
                out.append((cell, good, "train and test rows present, finite"))
    if reference is not None and rows:
        digest = sha256(results_csv)
        if digest == reference["sha256"]:
            out.append(("results.csv matches reference", True, "sha256"))
        else:
            values = [float(r["nmse_db"]) for r in rows]
            ref = reference["nmse_db"]
            close = len(values) == len(ref) and all(
                abs(a - b) <= REFERENCE_DB_TOL for a, b in zip(values, ref))
            out.append(("results.csv matches reference", close,
                        f"sha256 {digest} differs from the reference; NMSE "
                        + ("within" if close else "not within")
                        + f" {REFERENCE_DB_TOL:g} dB"))
    return out


def load_reference(path, seed):
    """The recorded results.csv digest and NMSE column for one seed."""
    path = Path(path)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))
