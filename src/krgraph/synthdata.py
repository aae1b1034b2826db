"""Synthetic experiment data: correlated Gaussian rows made graph-smooth,
split in half, and corrupted by SNR-calibrated noise on the training side.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, KrgraphError
from .graphs import (Graph, Laplacian, barabasi_albert, build_laplacian,
                     check_graph_param, erdos_renyi)


@dataclass(frozen=True)
class SynthConfig:
    num_nodes: int
    num_samples: int
    graph_model: str            # "erdos_renyi" or "barabasi_albert"
    graph_param: float          # edge probability p, or attachment count m
    snr_db: float
    seed: int

    def __post_init__(self):
        if self.num_samples % 2 != 0:
            raise KrgraphError("num_samples must be even (equal train/test split)")
        # each side is at least 2, and its dense float64 square, which the
        # data has, at most numpy's limit of sys.maxsize bytes
        for key in ("num_nodes", "num_samples"):
            side = getattr(self, key)
            if side < 2:
                raise KrgraphError(f"{key} must be >= 2, got {side}")
            if side**2 * 8 > sys.maxsize:
                raise KrgraphError(f"{key}={side} is too large: its dense "
                                   "float64 square exceeds numpy's limit of "
                                   f"{sys.maxsize} bytes")
        if self.graph_model not in ("erdos_renyi", "barabasi_albert"):
            raise KrgraphError("graph_model must be erdos_renyi or "
                               f"barabasi_albert, got {self.graph_model!r}")
        if not -np.inf < self.graph_param < np.inf:
            raise KrgraphError(f"graph_param must be finite, got {self.graph_param}")
        if (self.graph_model == "barabasi_albert"
                and self.graph_param != int(self.graph_param)):
            raise KrgraphError("barabasi_albert graph_param is an attachment "
                               f"count and must be an integer, got {self.graph_param}")
        # the generator's range check, run here before any draw
        check_graph_param(self.graph_model, self.num_nodes, self.graph_param)
        # every draw seeds a generator with seed + k, which numpy takes
        # only as a non-negative integer
        if self.seed < 0:
            raise KrgraphError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Dataset:
    """Paired inputs and targets; T0 carries clean targets when known."""

    X: np.ndarray
    T: np.ndarray
    T0: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.X.shape[0] != self.T.shape[0]:
            raise DimensionError("X and T row counts differ")
        if self.T0 is not None and self.T0.shape != self.T.shape:
            raise DimensionError("T0 shape differs from T")
        for name in ("X", "T", "T0"):
            values = getattr(self, name)
            if values is not None and not np.isfinite(values).all():
                raise KrgraphError(f"{name} has NaN or infinite entries")

    @property
    def n(self):
        return self.X.shape[0]


def sample_inverse_wishart_covariance(S: int, seed: int):
    """One S x S draw from InvWishart(dof=S+2, scale=I).

    dof S+2 is the smallest with a finite mean, which is then exactly the
    identity. Bartlett's construction (Smith & Hocking 1972, AS 53) on
    scipy.stats.invwishart's draws, in its order: A is lower triangular
    with N(0, 1) below the diagonal and chi(3 + i), that is
    chi(dof - S + 1 + i), on it, and the sample is the exactly symmetric
    A^{-1} A^{-T}, within 1e-12 of scipy's rvs(S + 2, np.eye(S),
    random_state=np.random.default_rng(seed)) relative to its largest
    entry. np.tril drops the roundoff the LU inverse leaves above the
    diagonal.
    """
    if S < 2:
        raise KrgraphError("covariance dimension must be >= 2")
    rng = np.random.default_rng(seed)
    A = np.zeros((S, S))
    A[np.tril_indices(S, -1)] = rng.normal(size=S * (S - 1) // 2)
    A[np.diag_indices(S)] = rng.chisquare(3 + np.arange(S), size=S) ** 0.5
    A_inv = np.tril(np.linalg.inv(A))
    return A_inv @ A_inv.T


def generate_correlated_rows(C_S, M: int, seed: int):
    """S x M matrix whose M columns are independent N(0, C_S) draws."""
    C_S = np.asarray(C_S, dtype=float)
    try:
        chol = np.linalg.cholesky(C_S)
    except np.linalg.LinAlgError:
        raise KrgraphError("covariance matrix is not positive definite")
    rng = np.random.default_rng(seed)
    return chol @ rng.standard_normal((C_S.shape[0], M))


def smooth_projection(r, L: Laplacian):
    """argmin_z ||r - z||^2 + z^T L z = (I + L)^{-1} r."""
    r = np.asarray(r, dtype=float)
    return np.linalg.solve(np.eye(L.num_nodes) + L.matrix, r)


def add_noise_snr(T0, snr_db: float, seed: int):
    """Add white Gaussian noise with variance set by the target SNR in dB."""
    T0 = np.asarray(T0, dtype=float)
    signal_energy = float(np.sum(T0**2))
    if signal_energy == 0:
        raise KrgraphError("cannot calibrate noise against a zero signal")
    try:
        noise_var = signal_energy / (T0.size * 10.0 ** (snr_db / 10.0))
    except (OverflowError, ZeroDivisionError):  # |snr_db| beyond ~3000 dB
        raise KrgraphError(f"snr_db={snr_db} is out of range") from None
    rng = np.random.default_rng(seed)
    return T0 + np.sqrt(noise_var) * rng.standard_normal(T0.shape)


def _make_graph(cfg: SynthConfig, seed: int) -> Graph:
    if cfg.graph_model == "erdos_renyi":
        return erdos_renyi(cfg.num_nodes, cfg.graph_param, seed)
    return barabasi_albert(cfg.num_nodes, int(cfg.graph_param), seed)


def make_synthetic_dataset(cfg: SynthConfig):
    """Full pipeline: graph -> C_S -> correlated rows -> per-row smoothing
    -> random equal split -> noise on training targets only.

    Returns (train, test, graph, C_S). Dataset.X holds the sample indices
    (as an N x 1 column) so the precomputed kernel K(i, j) = C_S(i, j) can
    be restricted to the train/test index sets.
    """
    S, M = cfg.num_samples, cfg.num_nodes
    graph = _make_graph(cfg, cfg.seed)
    L = build_laplacian(graph)
    C_S = sample_inverse_wishart_covariance(S, cfg.seed + 1)
    R = generate_correlated_rows(C_S, M, cfg.seed + 2)
    # (I + L)^{-1} applied to every row at once
    T0_all = smooth_projection(R.T, L).T
    perm = np.random.default_rng(cfg.seed + 3).permutation(S)
    tr_idx, ts_idx = np.sort(perm[: S // 2]), np.sort(perm[S // 2:])
    T_train = add_noise_snr(T0_all[tr_idx], cfg.snr_db, cfg.seed + 4)
    train = Dataset(
        X=tr_idx[:, None].astype(float),
        T=T_train,
        T0=T0_all[tr_idx],
    )
    test = Dataset(
        X=ts_idx[:, None].astype(float),
        T=T0_all[ts_idx].copy(),
        T0=T0_all[ts_idx],
    )
    return train, test, graph, C_S
