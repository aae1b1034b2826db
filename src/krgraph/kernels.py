"""Kernel functions, Gram matrices, and test-point cross-kernels.

Supported kernels:
  linear       k(x, x') = x^T x'
  rbf          k(x, x') = exp(-||x - x'||^2 / (sigma_sq * Z)) with the
               dataset normalizer Z = sum_{m,n} ||x_m - x_n||^2 / N over
               all ordered training pairs, frozen as spec.rbf_normalizer
  precomputed  entries looked up in a user-supplied PSD matrix; data
               matrices then hold integer sample indices into it
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DegenerateKernelError, DimensionError, KrgraphError

VALID_KINDS = ("linear", "rbf", "precomputed")


def _positive_number(value):
    """An int or float (not a bool) in (0, inf)."""
    return (type(value) is not bool and isinstance(value, (int, float))
            and 0 < value < np.inf)


@dataclass(frozen=True)
class KernelSpec:
    """Declarative kernel choice plus hyperparameters; a fitted rbf spec
    also carries its training-set normalizer Z."""

    kind: str
    sigma_sq: Optional[float] = None
    precomputed: Optional[np.ndarray] = None
    rbf_normalizer: Optional[float] = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise KrgraphError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not _positive_number(self.sigma_sq):
            raise KrgraphError("rbf kernel requires a finite sigma_sq > 0, "
                               f"got {self.sigma_sq!r}")
        for name in ("sigma_sq", "rbf_normalizer"):
            value = getattr(self, name)
            if value is not None and not (self.kind == "rbf"
                                          and _positive_number(value)):
                raise KrgraphError(f"{name} is a finite number > 0 on an rbf "
                                   f"kernel, got {value!r} on {self.kind}")
        if self.precomputed is not None and self.kind != "precomputed":
            raise KrgraphError("a precomputed matrix belongs to a precomputed "
                               f"kernel, got one on {self.kind}")
        if self.kind == "precomputed":
            if self.precomputed is None:
                raise KrgraphError("precomputed kernel requires a matrix")
            P = np.asarray(self.precomputed, dtype=float)
            if P.ndim != 2 or P.shape[0] != P.shape[1]:
                raise KrgraphError("precomputed kernel matrix must be square")
            if not np.isfinite(P).all():
                raise KrgraphError(
                    "precomputed kernel matrix has NaN or infinite entries")
            if not np.allclose(P, P.T, atol=1e-8 * max(1.0, np.abs(P).max())):
                raise KrgraphError("precomputed kernel matrix must be symmetric")
            evals = np.linalg.eigvalsh(P)
            if evals.min() < -1e-8 * max(1.0, evals.max()):
                raise KrgraphError("precomputed kernel matrix must be PSD")
            object.__setattr__(self, "precomputed", P)

    def __eq__(self, other):
        """Field-wise, with the precomputed matrices compared by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.sigma_sq, self.rbf_normalizer)
                == (other.kind, other.sigma_sq, other.rbf_normalizer)
                and np.array_equal(self.precomputed, other.precomputed))


def _indices(X, spec: KernelSpec):
    """X's one column as sample indices into the precomputed kernel matrix."""
    if X.shape[1:] != (1,):
        raise DimensionError("precomputed kernel expects one index column")
    idx = X[:, 0]
    out = idx.astype(int)
    if np.any(out != idx):
        raise DimensionError("precomputed kernel expects integer sample indices")
    if out.min(initial=0) < 0 or out.max(initial=-1) >= spec.precomputed.shape[0]:
        raise DimensionError("sample index out of range of precomputed kernel")
    return out


# Kernel blocks are built with floating-point warnings off, so that stderr
# stays one JSON error line: _finite rejects the block, or gram_matrix its
# normalizer, right after.
_QUIET_OVERFLOW = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _finite(block):
    """The kernel block itself, unless an entry overflowed to inf or NaN."""
    if not np.isfinite(block).all():
        raise DegenerateKernelError(
            "kernel has NaN or infinite entries; inputs too large")
    return block


# squared_distances fills its output this many entries at a time, so that
# the block and its one term buffer stay in the cache whatever the shape
_DISTANCE_BLOCK = 1 << 16


@_QUIET_OVERFLOW
def squared_distances(A, B):
    """The len(A) x len(B) matrix of ||a_i - b_j||^2, bit for bit as
    scipy.spatial.distance.cdist(A, B, "sqeuclidean") gives it: each entry
    adds (a_k - b_k)^2 into 0 one feature at a time, in feature order.
    A's rows go in blocks of _DISTANCE_BLOCK // len(B)."""
    A_cols = np.ascontiguousarray(np.asarray(A, dtype=float).T)
    B_cols = np.ascontiguousarray(np.asarray(B, dtype=float).T)
    out = np.zeros((A_cols.shape[1], B_cols.shape[1]))
    rows = max(1, _DISTANCE_BLOCK // max(1, B_cols.shape[1]))
    term = np.empty((min(rows, len(out)), B_cols.shape[1]))
    for start in range(0, len(out), rows):
        block = out[start:start + rows]
        step = term[:len(block)]
        for a, b in zip(A_cols[:, start:start + rows], B_cols, strict=True):
            np.subtract(a[:, None], b, out=step)
            step *= step
            block += step
    return out


@_QUIET_OVERFLOW
def gram_matrix(X, spec: KernelSpec):
    """(N x N training Gram matrix, spec fitted to X): an rbf spec gains X's
    normalizer Z, computed from the distance matrix that then becomes the
    Gram; any other spec is returned as it is, with kernel_cross_matrix(X, X)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if spec.kind != "rbf":
        return kernel_cross_matrix(X, X, spec), spec
    sq = squared_distances(X, X)
    Z = float(sq.sum()) / X.shape[0]
    if not 0 < Z < np.inf:
        raise DegenerateKernelError(
            f"rbf normalizer is {Z}: inputs all identical or too large")
    return (_finite(_rbf_in_place(sq, spec.sigma_sq, Z)),
            replace(spec, rbf_normalizer=Z))


def _rbf_in_place(sq, sigma_sq, Z):
    """exp(-sq / (sigma_sq Z)) over squared distances, overwriting sq."""
    sq /= -(sigma_sq * Z)
    return np.exp(sq, out=sq)


@_QUIET_OVERFLOW
def kernel_cross_matrix(X_train, X_test, spec: KernelSpec):
    """N_test x N matrix of k(x_test, x_train) over the rows of X_test; an
    rbf spec needs the training Z, as gram_matrix(X_train, ...) returns it."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    X_test = np.atleast_2d(np.asarray(X_test, dtype=float))
    if spec.kind == "precomputed":
        return spec.precomputed[np.ix_(_indices(X_test, spec),
                                       _indices(X_train, spec))]
    if X_test.shape[1] != X_train.shape[1]:
        raise DimensionError(
            f"test points have dim {X_test.shape[1]}, "
            f"training data dim {X_train.shape[1]}"
        )
    if spec.kind == "linear":
        return _finite(X_test @ X_train.T)
    if spec.rbf_normalizer is None:
        raise DegenerateKernelError("rbf cross-kernel needs the training normalizer")
    return _finite(_rbf_in_place(squared_distances(X_test, X_train),
                                 spec.sigma_sq, spec.rbf_normalizer))
