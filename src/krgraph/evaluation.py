"""Metrics, cross-validation, the KRR subsampling baseline, and the
seeded NMSE benchmark harness."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import combinations, product
from typing import Optional, Sequence

import numpy as np

from .errors import (ConfigError, DimensionError, KrgraphError,
                     SingularSystemError)
from .graphs import (Laplacian, build_laplacian, object_json, save_csv_rows,
                     save_json)
from .kernels import (_QUIET_OVERFLOW, KernelSpec, _finite, gram_matrix,
                      kernel_cross_matrix)
from .solver import (Hyperparams, SpectralCache, check_targets,
                     check_weights, grid_error_energies,
                     solve_sylvester_spectral)
from .synthdata import Dataset, SynthConfig, make_synthetic_dataset

NMSE_FLOOR_DB = -300.0

METHODS = ("LR", "LRG", "KR", "KRG")
GRAPH_FREE = ("LR", "KR")        # beta pinned to 0
BENCH_METHODS = ("KR", "KRG")
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
    return nmse_db_from_energies(float(np.sum((Y - T0) ** 2)), denom)


def nmse_db_from_energies(error_energy, signal_energy):
    """NMSE with the expectations averaged before the ratio, floored at
    -300 dB; elementwise over an array of error energies."""
    if signal_energy <= 0:
        raise KrgraphError("signal energy must be positive")
    with np.errstate(divide="ignore"):   # zero error: log10(0) = -inf
        db = np.maximum(10.0 * np.log10(np.divide(error_energy, signal_energy)),
                        NMSE_FLOOR_DB)
    return float(db) if np.ndim(db) == 0 else db


@dataclass(frozen=True)
class CvGrid:
    alphas: Sequence[float]
    betas: Sequence[float]
    sigma_sqs: Sequence[float] = ()
    folds: int = 5

    def __post_init__(self):
        if not self.alphas or not self.betas:
            raise KrgraphError("grid alphas and betas must be nonempty")
        check_weights(alphas=self.alphas, betas=self.betas)
        if not all(0 < s < np.inf for s in self.sigma_sqs):
            raise KrgraphError("sigma_sqs must be finite and > 0, "
                               f"got {list(self.sigma_sqs)}")
        if self.folds < 2:
            raise KrgraphError(f"grid folds must be >= 2, got {self.folds}")


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
    if seed < 0:
        raise KrgraphError(f"seed must be >= 0, got {seed}")
    if folds > n:
        raise KrgraphError(f"cannot split {n} samples into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(chunk) for chunk in np.array_split(perm, folds)]


def check_cv_plan(method, kernel, sigma_sqs):
    """cv's rules, run by CvConfig before any file is read and by
    cross_validate: method is one of METHODS; LR and LRG read neither a
    kernel (a KernelSpec or a config's) nor grid.sigma_sqs, KR and KRG one."""
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    if method in _PRIMAL and (kernel is not None or sigma_sqs):
        raise ConfigError(f"{method} fits the raw features and reads neither "
                          "kernel_spec nor grid.sigma_sqs")
    if kernel is not None and sigma_sqs:
        raise ConfigError("grid.sigma_sqs is read only for an rbf kernel "
                          f"without sigma_sq, not for a {kernel.kind} "
                          "kernel_spec")
    if method not in _PRIMAL and kernel is None and not sigma_sqs:
        raise KrgraphError("rbf kernel needs a sigma_sq grid")


def cross_validate(train: Dataset, L: Laplacian, grid: CvGrid, method: str,
                   seed: int, kernel_spec: Optional[KernelSpec] = None):
    """Grid search by k-fold CV on the training set.

    Validation scores use clean targets (train.T0) when available, the
    noisy ones otherwise. KR and KRG use kernel_spec, else an rbf kernel
    per grid.sigma_sqs (check_cv_plan). Returns (best_params, cv_table):
    the alpha/beta/sigma_sq dict that scores best, ties broken toward
    smaller values, and a (params, mean NMSE dB) record per grid point.
    Each fold and sigma_sq scores its whole (alpha, beta) grid at once,
    from one spectral cache (solver.grid_error_energies).
    """
    check_cv_plan(method, kernel_spec, grid.sigma_sqs)
    check_targets(train.T, train.n, L)
    folds = fold_assignment(train.n, grid.folds, seed)
    betas = (0.0,) if method in GRAPH_FREE else tuple(grid.betas)
    sigmas = tuple(grid.sigma_sqs) or (None,)
    T_ref = train.T0 if train.T0 is not None else train.T
    # scores[a, b, s, fold] over the distinct grid values, fold last so
    # that the mean adds the folds in order
    distinct = [sorted(set(v)) for v in (grid.alphas, betas, sigmas)]
    scores = np.empty([len(v) for v in distinct] + [len(folds)])
    for f, val_rows in enumerate(folds):
        fit_rows = np.delete(np.arange(train.n), val_rows)
        X_fit, T_fit, X_val = train.X[fit_rows], train.T[fit_rows], train.X[val_rows]
        T_val = T_ref[val_rows]
        signal = float(np.sum(T_val**2))
        for s, sigma_sq in enumerate(distinct[2]):
            if method in _PRIMAL:
                cache = SpectralCache.build(X_fit.T @ X_fit, L)
                rhs, A_val = X_fit.T @ T_fit, X_val
            else:
                K, spec = gram_matrix(X_fit, kernel_spec or KernelSpec(
                    kind="rbf", sigma_sq=sigma_sq))
                cache = SpectralCache.build(K, L)
                rhs, A_val = T_fit, kernel_cross_matrix(X_fit, X_val, spec)
            scores[:, :, s, f] = nmse_db_from_energies(grid_error_energies(
                cache, rhs, *distinct[:2], A_val, T_val), signal)
    mean = scores.mean(axis=-1)
    index_of = [{v: i for i, v in enumerate(values)} for values in distinct]
    # one row per grid entry, repeats included, in sorted (alpha, beta,
    # sigma_sq) order; a None sigma_sq is shared by all rows, so the sort
    # never compares it
    cv_table = [{"params": dict(zip(("alpha", "beta", "sigma_sq"), point)),
                 "nmse_db": float(mean[tuple(ix[v] for ix, v in zip(index_of, point))])}
                for point in sorted(product(grid.alphas, betas, sigmas))]
    best = min(cv_table, key=lambda row: row["nmse_db"])  # first minimum
    return best["params"], cv_table


def krr_baseline(K_bar, observed_idx, x, mu: float):
    """Full-graph signal estimate K_bar Phi^T (Phi K_bar Phi^T + mu S I)^{-1} x.

    Phi selects the observed rows; any distinct index set is allowed, the
    block [0 | I] sampling structure being the contiguous special case.
    """
    K_bar = np.asarray(K_bar, dtype=float)
    x = np.asarray(x, dtype=float).reshape(-1)
    if K_bar.ndim != 2 or K_bar.shape[0] != K_bar.shape[1]:
        raise DimensionError(f"kernel matrix must be square, got {K_bar.shape}")
    _finite(K_bar)
    P = K_bar.shape[0]
    S = len(observed_idx)
    # the range is checked on the given integers, which may not fit in int64
    if not all(0 <= i < P for i in observed_idx) or len(
            np.unique(obs := np.asarray(observed_idx, dtype=int))) != S:
        raise DimensionError("observed indices must be distinct and in range")
    if x.shape[0] != S:
        raise DimensionError(f"observation length {x.shape[0]} != {S} indices")
    # mu * S multiplies np.eye(S), whose zeros would make an infinite one NaN
    if not 0 < mu * S < np.inf:
        raise KrgraphError(f"mu must be > 0 with mu * S finite, got mu={mu}, "
                           f"S={S}")
    A = K_bar[np.ix_(obs, obs)] + mu * S * np.eye(S)
    try:
        return K_bar[:, obs] @ np.linalg.solve(A, x)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"Phi K_bar Phi^T + mu S I is singular: {exc}") from exc


@_QUIET_OVERFLOW
def heat_kernel(L: Laplacian, tau: float):
    """exp(-tau L) = V diag(exp(-tau lam)) V^T from L's eigenpairs, the
    diffusion kernel of graph-signal reconstruction (Romero, Ma & Giannakis
    2017). It is exact at every tau > 0, L's null space being exact: it
    tends to the per-component average, reached where tau * lam overflows
    and exp(-inf) = 0."""
    if not 0 < tau < np.inf:
        raise KrgraphError(f"tau must be finite and > 0, got tau={tau}")
    lam, V = L.eigendecomposition()
    return (V * np.exp(-tau * lam)) @ V.T


@dataclass(frozen=True)
class BenchScenario:
    """One synthetic benchmark: a grid of (method, n_train, snr) cells."""

    methods: Sequence[str]
    n_train: Sequence[int]
    snr_db: Sequence[float]
    realizations: int
    num_nodes: int
    num_samples: int
    graph_model: str
    graph_param: float
    grid: CvGrid
    master_seed: int

    def __post_init__(self):
        for m in self.methods:
            if m not in BENCH_METHODS:
                raise KrgraphError(
                    f"bench methods are KR/KRG cells, got {m!r}; synthetic "
                    "data has no features, and KRR has its own command"
                )
        # a cell's seeds come from (master_seed, n, round(1000 snr), r),
        # which SeedSequence takes only as non-negative integers
        if (self.master_seed < 0 or not all(n >= 1 for n in self.n_train)
                or not all(0 <= 1000 * snr < np.inf for snr in self.snr_db)):
            raise KrgraphError(
                "bench needs master_seed >= 0, n_train >= 1 and snr_db >= 0 "
                f"with 1000 snr_db finite, got {self.master_seed}, "
                f"{list(self.n_train)}, {list(self.snr_db)}")
        # distinct SNRs also clash on a seed key or a plot file
        for axis, values, keys in (
                ("methods", self.methods, lambda _: ()),
                ("n_train", self.n_train, lambda _: ()),
                ("snr_db", [float(snr) for snr in self.snr_db],
                 lambda snr: ("seed key round(1000 snr) = "
                              f"{_snr_seed_key(snr)}",
                              f"plot file {nmse_vs_n_file(snr)}"))):
            if not values:
                raise ConfigError(f"bench {axis} must be nonempty")
            for a, b in combinations(values, 2):
                if a == b:
                    raise ConfigError(f"bench {axis} repeats {b!r}: each "
                                      "cell would run and be written twice")
                shared = [k for k, k_b in zip(keys(a), keys(b)) if k == k_b]
                if shared:
                    raise ConfigError(f"bench {axis} values {a!r} and {b!r} "
                                      f"share the {' and the '.join(shared)}")
        if self.realizations < 1:
            raise KrgraphError("bench realizations must be >= 1")
        if self.grid.sigma_sqs:
            raise ConfigError("bench does not read grid.sigma_sqs: its kernel "
                              "is the synthetic precomputed covariance")
        # the synthetic law, checked before any cell runs; a realization
        # replaces its snr_db and seed. Not a field: no config key names it
        object.__setattr__(self, "law", SynthConfig(
            self.num_nodes, self.num_samples, self.graph_model,
            self.graph_param, snr_db=0.0, seed=self.master_seed))
        pool = self.num_samples // 2        # make_synthetic_dataset's split
        for n in self.n_train:
            if n > pool:
                raise ConfigError(f"bench n_train={n} exceeds the training "
                                  f"pool of num_samples // 2 = {pool} rows")
        # each realization cross-validates on its n_train rows
        if any(n < self.grid.folds for n in self.n_train):
            raise ConfigError(f"bench grid.folds={self.grid.folds} exceeds the "
                              f"smallest n_train={min(self.n_train)}: its "
                              "training rows cannot fill that many folds")


def _snr_seed_key(snr):
    """The SNR's part of a cell's seed; SeedSequence takes integers."""
    return int(round(snr * 1000))


def nmse_vs_n_file(snr):
    """The file name of the NMSE-against-n_train table at one SNR."""
    return f"plot_nmse_vs_n_snr{snr:g}.csv"


def _realization_seed(master, n, snr, r):
    ss = np.random.SeedSequence((master, int(n), _snr_seed_key(snr), int(r)))
    return int(ss.generate_state(1)[0])


def run_benchmark(scenario: BenchScenario):
    """Evaluate every (method, n_train, snr) cell on seeded synthetic data.

    Data seeds depend only on (master_seed, n, snr, realization), and the
    methods of an (n, snr) cell share each realization's data and CV
    table. The realizations run on one forked worker per CPU (_map_tasks)
    and each cell sums them in realization order, so the results do not
    depend on the worker count. Returns (results, failures), both in
    (method, n, snr) order.
    """
    cells = list(product(scenario.n_train, scenario.snr_db))
    R = scenario.realizations
    outcomes = _map_tasks(partial(_run_realization, scenario),
                          [(n, snr, r) for n, snr in cells for r in range(R)])
    reduced = [_reduce_cell(scenario, n, snr, outcomes[i * R:(i + 1) * R])
               for i, (n, snr) in enumerate(cells)]
    results, failures = [], []
    for method in scenario.methods:
        for (n, snr), outcome in zip(cells, reduced):
            if isinstance(outcome, str):
                failures.append({"method": method, "n_train": n,
                                 "snr_db": snr, "error": outcome})
            else:
                results.extend(outcome[method])
    return results, failures


def _map_tasks(fn, tasks):
    """[fn(task) for task in tasks], on min(CPUs this process may run on,
    tasks) workers; with one, in this process. The workers are forked, all
    before the pool starts its own thread, so they start with this
    process's imports and module attributes; a worker that dies is a
    KrgraphError."""
    workers = min(len(os.sched_getaffinity(0)), len(tasks))
    if workers <= 1:
        return list(map(fn, tasks))
    # imported here, as only bench's run uses the process pool: no other
    # command's start-up loads it
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            return list(pool.map(fn, tasks))
        except BrokenProcessPool as exc:
            raise KrgraphError(f"a bench worker process died, e.g. killed "
                               f"for lack of memory: {exc}") from None


def _run_realization(scenario, task):
    """Realization r of the (n, snr) cell, task = (n, snr, r): its train
    and test signal energies, and per method its train and test (error
    energy, NMSE dB) pairs. One KRG CV table, over the grid's betas plus
    0, selects for KR (beta = 0 rows) too. A KrgraphError comes back as
    the failure message of the cell."""
    n, snr, r = task
    grid = scenario.grid
    cv_grid = replace(grid, betas=sorted({0.0, *grid.betas}))
    try:
        seed = _realization_seed(scenario.master_seed, n, snr, r)
        train_full, test, graph, C_S = make_synthetic_dataset(
            replace(scenario.law, snr_db=snr, seed=seed))
        sub = np.sort(np.random.default_rng(seed + 17).permutation(train_full.n)[:n])
        train = Dataset(X=train_full.X[sub], T=train_full.T[sub],
                        T0=train_full.T0[sub])
        L = build_laplacian(graph)
        spec = KernelSpec(kind="precomputed", precomputed=C_S)
        _, table = cross_validate(train, L, cv_grid, "KRG",
                                  seed=seed + 29, kernel_spec=spec)
        K_train, spec = gram_matrix(train.X, spec)
        cache = SpectralCache.build(K_train, L)
        blocks = (K_train, kernel_cross_matrix(train.X, test.X, spec))
        refs = (train.T0, test.T0)
        signal = [float(np.sum(T0**2)) for T0 in refs]
        scores = {}
        for method in scenario.methods:
            betas = (0.0,) if method in GRAPH_FREE else grid.betas
            best = min((row for row in table if row["params"]["beta"] in betas),
                       key=lambda row: row["nmse_db"])["params"]
            hyper = Hyperparams(alpha=best["alpha"], beta=best["beta"])
            psi = solve_sylvester_spectral(cache, train.T, hyper)
            energies = [float(np.sum((K @ psi - T0) ** 2))
                        for K, T0 in zip(blocks, refs)]
            scores[method] = [(energy, nmse_db_from_energies(energy, total))
                              for energy, total in zip(energies, signal)]
    except KrgraphError as exc:
        return f"{type(exc).__name__}: {exc}"
    return signal, scores


def _reduce_cell(scenario, n, snr, outcomes):
    """The cell's train and test BenchResults per method from its
    realizations' outcomes, summed in realization order; the failure
    message of the first realization that failed, if one did."""
    failed = [outcome for outcome in outcomes if isinstance(outcome, str)]
    if failed:
        return failed[0]
    sig = [0.0, 0.0]                                  # train, test
    err = {m: [0.0, 0.0] for m in scenario.methods}
    dbs = {m: ([], []) for m in scenario.methods}
    for signal, scores in outcomes:
        for k in range(2):
            sig[k] += signal[k]
            for m in err:
                energy, db = scores[m][k]
                err[m][k] += energy
                dbs[m][k].append(db)
    return {m: [BenchResult(method=m, n_train=n, snr_db=snr, split=split,
                            nmse_db=nmse_db_from_energies(err[m][k], sig[k]),
                            nmse_db_mean=float(np.mean(dbs[m][k])),
                            num_realizations=scenario.realizations,
                            seed=scenario.master_seed)
                for k, split in enumerate(("train", "test"))]
            for m in err}


def save_results_csv(path, results):
    save_csv_rows(path, [
        ["method", "n_train", "snr_db", "split", "nmse_db", "realizations",
         "seed"],
        *([res.method, str(res.n_train), repr(float(res.snr_db)), res.split,
           repr(float(res.nmse_db)), str(res.num_realizations), str(res.seed)]
          for res in results)])


def save_results_json(path, results, failures=()):
    save_json(path, {"results": [object_json(r) for r in results],
                     "failures": list(failures)}, pretty=True)
