"""Metrics, cross-validation, the KRR subsampling baseline, and the
seeded NMSE benchmark harness."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import expm

from .errors import DimensionError, KrgraphError
from .graphs import Laplacian, build_laplacian
from .kernels import KernelSpec, gram_matrix, kernel_cross_matrix
from .solver import Hyperparams, SpectralCache, fit_krg, fit_lrg
from .synthdata import Dataset, SynthConfig, make_synthetic_dataset

NMSE_FLOOR_DB = -300.0

METHODS = ("LR", "LRG", "KR", "KRG", "KRR")
_GRAPH_FREE = ("LR", "KR")       # beta pinned to 0
_PRIMAL = ("LR", "LRG")          # fit on raw features, linear model


def nmse_db(Y, T0) -> float:
    """10 log10(||Y - T0||_F^2 / ||T0||_F^2), floored at -300 dB."""
    Y = np.asarray(Y, dtype=float)
    T0 = np.asarray(T0, dtype=float)
    if Y.shape != T0.shape:
        raise DimensionError(f"shape mismatch {Y.shape} vs {T0.shape}")
    denom = float(np.sum(T0**2))
    if denom == 0:
        raise KrgraphError("reference signal is zero; NMSE undefined")
    num = float(np.sum((Y - T0) ** 2))
    if num == 0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(num / denom), NMSE_FLOOR_DB)


def nmse_db_from_energies(error_energy, signal_energy) -> float:
    """NMSE with the expectations averaged before the ratio."""
    if signal_energy <= 0:
        raise KrgraphError("signal energy must be positive")
    if error_energy == 0:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(error_energy / signal_energy), NMSE_FLOOR_DB)


@dataclass(frozen=True)
class CvGrid:
    alphas: Sequence[float]
    betas: Sequence[float]
    sigma_sqs: Sequence[float] = ()
    folds: int = 5

    def __post_init__(self):
        if not self.alphas or not self.betas:
            raise KrgraphError("alpha and beta grids must be nonempty")
        if self.folds < 2:
            raise KrgraphError("need at least 2 folds")


@dataclass(frozen=True)
class BenchResult:
    method: str
    n_train: int
    snr_db: float
    split: str                 # "train" or "test"
    nmse_db: float             # energies averaged before the log-ratio
    nmse_db_mean: float        # mean of per-realization dB values
    num_realizations: int
    seed: int


def fold_assignment(n, folds, seed):
    """Deterministic partition of range(n) into `folds` validation folds."""
    if folds > n:
        raise KrgraphError(f"cannot split {n} samples into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def _fit_predict(method, hyper, sigma_sq, train: Dataset, L: Laplacian,
                 fit_rows, val_rows, kernel_spec, cache_store):
    """Fit on fit_rows, return predictions at val_rows."""
    X_fit, T_fit = train.X[fit_rows], train.T[fit_rows]
    X_val = train.X[val_rows]
    if method in _PRIMAL:
        key = ("primal", tuple(fit_rows))
        if key not in cache_store:
            G = X_fit.T @ X_fit
            cache_store[key] = SpectralCache.build(G, L)
        model = fit_lrg(X_fit, T_fit, L, hyper, cache=cache_store[key])
        return X_val @ model.w
    if kernel_spec is not None:
        spec = kernel_spec
        key = ("fixed", tuple(fit_rows))
    else:
        spec = KernelSpec(kind="rbf", sigma_sq=sigma_sq)
        key = ("rbf", sigma_sq, tuple(fit_rows))
    if key not in cache_store:
        gram = gram_matrix(X_fit, spec)
        cache_store[key] = (gram, SpectralCache.build(gram.matrix, L))
    gram, cache = cache_store[key]
    model = fit_krg(gram, T_fit, L, hyper, x_train=X_fit, spec=spec, cache=cache)
    K_cross = kernel_cross_matrix(X_fit, X_val, spec, gram)
    return K_cross @ model.psi


def cross_validate(train: Dataset, L: Laplacian, grid: CvGrid, method: str,
                   seed: int, kernel_spec: Optional[KernelSpec] = None):
    """Grid search by k-fold CV on the training set.

    Validation scores use clean targets (train.T0) when available, the
    noisy ones otherwise. Returns (best_params, cv_table) where
    best_params is a dict with alpha/beta/sigma_sq and cv_table lists a
    (params, mean NMSE dB) record per grid point. Ties break toward
    smaller (alpha, beta, sigma_sq).
    """
    if method not in METHODS or method == "KRR":
        raise KrgraphError(f"cross_validate does not handle method {method!r}")
    folds = fold_assignment(train.n, grid.folds, seed)
    betas = (0.0,) if method in _GRAPH_FREE else tuple(grid.betas)
    if method in _PRIMAL or kernel_spec is not None:
        sigmas = (None,)
    else:
        if not grid.sigma_sqs:
            raise KrgraphError("rbf kernel needs a sigma_sq grid")
        sigmas = tuple(grid.sigma_sqs)
    T_ref = train.T0 if train.T0 is not None else train.T
    all_rows = np.arange(train.n)
    points = sorted(product(grid.alphas, betas, sigmas),
                    key=lambda p: (p[0], p[1], p[2] if p[2] is not None else 0.0))
    cache_store = {}
    cv_table = []
    best = None
    for alpha, beta, sigma_sq in points:
        hyper = Hyperparams(alpha=alpha, beta=beta)
        scores = []
        for val_rows in folds:
            fit_rows = np.setdiff1d(all_rows, val_rows)
            Y_val = _fit_predict(method, hyper, sigma_sq, train, L,
                                 fit_rows, val_rows, kernel_spec, cache_store)
            scores.append(nmse_db(Y_val, T_ref[val_rows]))
        mean_score = float(np.mean(scores))
        params = {"alpha": alpha, "beta": beta, "sigma_sq": sigma_sq}
        cv_table.append({"params": params, "nmse_db": mean_score})
        if best is None or mean_score < best[0]:
            best = (mean_score, params)
    return best[1], cv_table


def krr_baseline(K_bar, observed_idx, x, mu: float):
    """Full-graph signal estimate K_bar Phi^T (Phi K_bar Phi^T + mu S I)^{-1} x.

    Phi selects the observed rows; any distinct index set is allowed, the
    block [0 | I] sampling structure being the contiguous special case.
    """
    K_bar = np.asarray(K_bar, dtype=float)
    obs = np.asarray(observed_idx, dtype=int)
    x = np.asarray(x, dtype=float).reshape(-1)
    P = K_bar.shape[0]
    S = len(obs)
    if len(np.unique(obs)) != S or obs.min() < 0 or obs.max() >= P:
        raise DimensionError("observed indices must be distinct and in range")
    if x.shape[0] != S:
        raise DimensionError(f"observation length {x.shape[0]} != {S} indices")
    if mu <= 0:
        raise KrgraphError("mu must be positive")
    A = K_bar[np.ix_(obs, obs)] + mu * S * np.eye(S)
    return K_bar[:, obs] @ np.linalg.solve(A, x)


def heat_kernel(L: Laplacian, tau: float):
    """expm(-tau L), a diffusion-style node kernel (approximation of the
    diffusion kernels used in graph-signal reconstruction baselines)."""
    return expm(-tau * L.matrix)


@dataclass(frozen=True)
class BenchScenario:
    """One synthetic benchmark: a grid of (method, n_train, snr) cells."""

    methods: Sequence[str]
    n_train: Sequence[int]
    snr_db: Sequence[float]
    realizations: int
    num_nodes: int
    num_samples: int
    graph_model: str = "erdos_renyi"
    graph_param: float = 0.1
    grid: CvGrid = field(default_factory=lambda: CvGrid(
        alphas=(0.01, 0.1, 1.0), betas=(0.0, 0.1, 1.0, 10.0)))
    master_seed: int = 0

    def __post_init__(self):
        for m in self.methods:
            if m not in ("KR", "KRG"):
                raise KrgraphError(
                    f"benchmark supports KR/KRG cells, got {m!r}; synthetic "
                    "data has no features, and KRR has its own command"
                )
        if self.realizations < 1:
            raise KrgraphError("need at least one realization")


def _realization_seed(master, n, snr, r):
    ss = np.random.SeedSequence((master, int(n), int(round(snr * 1000)), int(r)))
    return int(ss.generate_state(1)[0])


def run_benchmark(scenario: BenchScenario):
    """Evaluate every (method, n_train, snr) cell on seeded synthetic data.

    Data seeds depend only on (master_seed, n, snr, realization), so cells
    for different methods see identical data. Returns (results, failures).
    """
    results = []
    failures = []
    for method, n, snr in product(scenario.methods, scenario.n_train,
                                  scenario.snr_db):
        try:
            results.extend(_run_cell(scenario, method, n, snr))
        except Exception as exc:  # cell isolation: report, keep going
            failures.append({
                "method": method, "n_train": n, "snr_db": snr,
                "error": f"{type(exc).__name__}: {exc}",
            })
    return results, failures


def _run_cell(scenario, method, n, snr):
    err_tr = sig_tr = err_ts = sig_ts = 0.0
    dbs_tr, dbs_ts = [], []
    for r in range(scenario.realizations):
        seed = _realization_seed(scenario.master_seed, n, snr, r)
        cfg = SynthConfig(
            num_nodes=scenario.num_nodes,
            num_samples=scenario.num_samples,
            graph_model=scenario.graph_model,
            graph_param=scenario.graph_param,
            snr_db=snr,
            seed=seed,
        )
        train_full, test, graph, C_S = make_synthetic_dataset(cfg)
        if n > train_full.n:
            raise KrgraphError(f"n_train={n} exceeds training pool {train_full.n}")
        sub = np.sort(np.random.default_rng(seed + 17).permutation(train_full.n)[:n])
        train = Dataset(X=train_full.X[sub], T=train_full.T[sub],
                        T0=train_full.T0[sub],
                        indices=train_full.indices[sub])
        L = build_laplacian(graph)
        spec = KernelSpec(kind="precomputed", precomputed=C_S)
        best, _ = cross_validate(train, L, scenario.grid, method,
                                 seed=seed + 29, kernel_spec=spec)
        hyper = Hyperparams(alpha=best["alpha"], beta=best["beta"])
        gram = gram_matrix(train.X, spec)
        model = fit_krg(gram, train.T, L, hyper, x_train=train.X, spec=spec)
        Y_tr = gram.matrix @ model.psi
        Y_ts = kernel_cross_matrix(train.X, test.X, spec, gram) @ model.psi
        err_tr += float(np.sum((Y_tr - train.T0) ** 2))
        sig_tr += float(np.sum(train.T0**2))
        err_ts += float(np.sum((Y_ts - test.T0) ** 2))
        sig_ts += float(np.sum(test.T0**2))
        dbs_tr.append(nmse_db(Y_tr, train.T0))
        dbs_ts.append(nmse_db(Y_ts, test.T0))
    common = dict(method=method, n_train=n, snr_db=snr,
                  num_realizations=scenario.realizations,
                  seed=scenario.master_seed)
    return [
        BenchResult(split="train",
                    nmse_db=nmse_db_from_energies(err_tr, sig_tr),
                    nmse_db_mean=float(np.mean(dbs_tr)), **common),
        BenchResult(split="test",
                    nmse_db=nmse_db_from_energies(err_ts, sig_ts),
                    nmse_db_mean=float(np.mean(dbs_ts)), **common),
    ]


def save_results_csv(path, results):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "n_train", "snr_db", "split", "nmse_db",
                         "realizations", "seed"])
        for res in results:
            writer.writerow([res.method, res.n_train, repr(float(res.snr_db)),
                             res.split, repr(float(res.nmse_db)),
                             res.num_realizations, res.seed])


def save_results_json(path, results, failures=()):
    doc = {
        "results": [vars(r) for r in results],
        "failures": list(failures),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
