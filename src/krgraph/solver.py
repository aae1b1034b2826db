"""Fit/predict for LR, LRG, KR, KRG via the spectral Sylvester solve.

Both the primal and the dual normal equations have the generalized
Sylvester form A X + beta B X L = RHS with A = B + alpha*I and B
symmetric PSD. Jointly diagonalizing B and L turns the system into an
entrywise division, so one eigendecomposition pair and one projected
right-hand side U^T RHS V serve a whole (alpha, beta) grid at once.
solve_sylvester_eigenbasis returns the grid's solutions in the joint
eigenbasis, C = (U^T RHS V) / eta; grid_error_energies scores them there,
since V is orthogonal and ||A U C V^T - T||_F = ||A U C - T V||_F. A
single solve is the grid's one-point case, projected back: X = U C V^T.

A large Gram is often numerically low-rank: then U holds only the r
eigenvectors of its range, and on U's complement theta is 0, so eta is
alpha there and that part of the solution is (RHS - U U^T RHS) / alpha.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConvergenceError, DataFormatError, DimensionError,
                     KrgraphError, SingularSystemError)
from .graphs import (Laplacian, eigh_psd, load_json, object_json, read_object,
                     save_json)
from .kernels import (_QUIET_OVERFLOW, KernelSpec, gram_matrix,
                      kernel_cross_matrix)

log = logging.getLogger("krgraph")
_ETA_FLOOR = 1e-14

# SpectralCache.build first tries a pivoted Cholesky K ~ G^T G on a Gram of
# N >= _LOW_RANK_MIN_N, below which the eigh costs too little to be worth
# the attempt. It succeeds once the trace of the PSD remainder K - G^T G is
# at most _LOW_RANK_TOL * trace(K); that remainder's 2-norm is then at most
# eps * trace(K) <= N eps ||K||_2, the size of syevd's own backward error.
# Past rank N // 4 it gives up: from there on its cost nears the eigh's.
_LOW_RANK_MIN_N = 512
_LOW_RANK_TOL = np.finfo(float).eps


def check_weights(**named_values):
    """KrgraphError unless each weight (a number or a grid of numbers, not
    bools) is finite and >= 0."""
    for name, value in named_values.items():
        values = list(value) if np.ndim(value) else [value]
        if not all(not isinstance(v, (bool, np.bool_)) and 0 <= v < np.inf
                   for v in values):
            raise KrgraphError(f"{name} must be finite and >= 0, got {values}")


@dataclass(frozen=True)
class Hyperparams:
    """Regularization weights: alpha on coefficients, beta on roughness."""

    alpha: float
    beta: float

    def __post_init__(self):
        if np.ndim(self.alpha) or np.ndim(self.beta):
            raise KrgraphError("alpha and beta are numbers, got "
                               f"{self.alpha!r} and {self.beta!r}")
        check_weights(alpha=self.alpha, beta=self.beta)


@dataclass(frozen=True)
class SpectralCache:
    """Eigenpairs of the sample-side matrix (kernel or feature Gram) and L."""

    u: np.ndarray       # N x r orthonormal, r = N unless the Gram is low-rank
    theta: np.ndarray   # r kernel eigenvalues, [-1e-10, 0) roundoff set to 0;
    #                     on u's complement (r < N) every eigenvalue is 0
    v: np.ndarray       # M x M orthonormal
    lam: np.ndarray     # M Laplacian eigenvalues, the null space's exactly 0
    origin: str = "eigh"  # how u and theta were found, for the fit log

    @staticmethod
    def build(K, L: Laplacian) -> "SpectralCache":
        """At N >= _LOW_RANK_MIN_N, a pivoted Cholesky K ~ G^T G that meets
        the trace bound below rank N // 4 gives u and theta as G^T's left
        singular vectors and squared singular values. Otherwise K is
        eigendecomposed (graphs.eigh_psd). Either way K is only read."""
        K = np.asarray(K, dtype=float)
        n = K.shape[0]
        G = _pivoted_cholesky(K, n // 4) if n >= _LOW_RANK_MIN_N else None
        if G is not None:
            try:
                U, s, _ = np.linalg.svd(G.T, full_matrices=False)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(f"SVD of a {G.T.shape} pivoted "
                                       f"Cholesky factor: {exc}") from exc
            theta, origin = s**2, "pivoted Cholesky to the trace bound"
        else:
            theta, U = eigh_psd(K)
            origin = ("eigh" if n < _LOW_RANK_MIN_N else "eigh, the pivoted "
                      f"Cholesky having reached its rank cap {n // 4}")
        lam, V = L.eigendecomposition()
        return SpectralCache(u=U, theta=theta, v=V, lam=lam, origin=origin)

    def with_laplacian(self, L: Laplacian) -> "SpectralCache":
        """The same sample-side eigenpairs, paired with L's."""
        lam, V = L.eigendecomposition()
        return replace(self, v=V, lam=lam)


def _pivoted_cholesky(K, rank_cap):
    """Rows G (r x N) of a pivoted Cholesky factor, K ~ G^T G, that leave a
    PSD remainder K - G^T G of trace at most _LOW_RANK_TOL * trace(K)
    (Harbrecht, Peters & Schneider 2012); None if r would pass rank_cap."""
    d = np.diag(K).copy()  # the remainder's diagonal
    tol = _LOW_RANK_TOL * d.sum()
    G = np.empty((rank_cap, len(d)))
    r = 0
    while not d.sum() <= tol:  # a NaN sum runs to the cap
        if r == rank_cap:
            return None
        i = int(np.argmax(d))
        G[r] = (K[i] - G[:r, i] @ G[:r]) / np.sqrt(d[i])
        d -= G[r] ** 2
        d[i] = 0.0
        # roundoff can take an entry below its true value, which is >= 0
        np.maximum(d, 0.0, out=d)
        r += 1
    return G[:r]


@dataclass(frozen=True)
class KrgModel:
    """Fitted dual-coefficient model: predictions are psi^T k(x)."""

    psi: np.ndarray
    x_train: np.ndarray
    spec: KernelSpec
    laplacian: Laplacian
    hyper: Hyperparams


def _checked_eta(cache: SpectralCache, alphas, betas):
    """eta[a, b, n, m] = (theta_n + alpha_a) + beta_b * theta_n * lam_m,
    rejected if any entry is at or below the singularity floor, or NaN:
    weights so large that beta * theta overflows meet lam = 0 as inf * 0.
    u's complement, if any, is checked as theta = 0, where eta = alpha."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    theta = cache.theta
    if cache.u.shape[1] < cache.u.shape[0]:
        theta = np.append(theta, 0.0)  # u's complement
    theta = theta[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        eta = (theta + alphas[:, None, None, None]
               + betas[:, None, None] * theta * cache.lam)
    low = eta.min()
    if not low > _ETA_FLOOR:
        a, b, n, m = np.unravel_index(np.argmin(eta), eta.shape)
        if np.isnan(low):
            raise KrgraphError(
                f"weights alpha={alphas[a]:g}, beta={betas[b]:g} overflow the "
                f"solve at kernel eigenvalue theta={theta[n, 0]:.3e}, "
                f"Laplacian eigenvalue lam={cache.lam[m]:.3e}; use smaller "
                "weights")
        raise SingularSystemError(
            f"near-singular system: eta={low:.3e} at kernel eigenvalue "
            f"theta={theta[n, 0]:.3e}, Laplacian eigenvalue "
            f"lam={cache.lam[m]:.3e}; a rank-deficient kernel or feature "
            "Gram needs alpha > 0")
    return eta[:, :, :cache.theta.size]


def solve_sylvester_eigenbasis(cache: SpectralCache, RHS, alphas, betas):
    """(C, rest): C[a, b] = (U^T RHS V) / eta[a, b] is the solution of
    (K + alpha_a I) X + beta_b K X L = RHS in the joint eigenbasis for
    every grid point, from one projection P = U^T RHS; X[a, b] is
    U C[a, b] V^T + rest / alpha_a. rest is RHS's part on u's complement,
    where theta is 0 and eta is alpha, and None when u is square. It is
    projected out twice, the first pass reusing P: one pass leaves
    roundoff along u of the size of RHS's part there, which a kernel row
    would scale by theta / alpha ("twice is enough", Giraud et al. 2005)."""
    RHS = np.asarray(RHS, dtype=float)
    if RHS.shape != (cache.u.shape[0], cache.v.shape[0]):
        raise DimensionError(
            f"RHS shape {RHS.shape} incompatible with cache "
            f"({cache.u.shape[0]}, {cache.v.shape[0]})"
        )
    eta = _checked_eta(cache, alphas, betas)
    P = cache.u.T @ RHS
    # in eta's buffer, which this call made: one grid-sized array, not two
    C = np.divide(P @ cache.v, eta, out=eta)
    if cache.u.shape[1] == cache.u.shape[0]:
        return C, None
    rest = RHS - cache.u @ P
    rest -= cache.u @ (cache.u.T @ rest)
    return C, rest


def solve_sylvester_spectral(cache: SpectralCache, RHS, hyper: Hyperparams):
    """Solve (K + alpha I) X + beta K X L = RHS: X = U C V^T, with C the
    one-point grid's solution in the joint eigenbasis, plus RHS's part on
    u's complement over alpha."""
    C, rest = solve_sylvester_eigenbasis(cache, RHS, [hyper.alpha],
                                         [hyper.beta])
    X = cache.u @ C[0, 0] @ cache.v.T
    if rest is not None:
        X += rest / hyper.alpha
    return X


def grid_error_energies(cache: SpectralCache, RHS, alphas, betas, A, T_ref):
    """E[a, b] = ||A X[a, b] - T_ref||_F^2 over the (alpha, beta) grid of
    solves X[a, b] of (K + alpha_a I) X + beta_b K X L = RHS, without
    forming X: V is L's full orthogonal eigenbasis, so ||A U C V^T - T_ref||_F
    equals ||(A U) C - T_ref V||_F, one small product per grid point, and
    u's complement adds (A rest V) / alpha."""
    C, rest = solve_sylvester_eigenbasis(cache, RHS, alphas, betas)
    # one residual array, updated and squared in place
    residual = (A @ cache.u) @ C
    residual -= T_ref @ cache.v
    if rest is not None:
        residual += ((A @ rest @ cache.v)
                     / np.asarray(alphas, dtype=float)[:, None, None, None])
    return np.sum(np.square(residual, out=residual), axis=(2, 3))


def check_targets(T, n, L: Laplacian):
    """T as a float array; a DimensionError unless it is n x M, one row per
    sample and one column per node of L. Callers check before they build a
    spectral cache."""
    T = np.asarray(T, dtype=float)
    if T.shape != (n, L.num_nodes):
        raise DimensionError(
            f"targets {T.shape} incompatible with N={n}, M={L.num_nodes}"
        )
    return T


def fit_krg(K, T, L: Laplacian, hyper: Hyperparams,
            x_train=None, spec: KernelSpec | None = None,
            cache: SpectralCache | None = None) -> KrgModel:
    """Solve (K + alpha I) Psi + beta K Psi L = T for the dual coefficients;
    spec is the one gram_matrix returned with K. A given cache supplies
    only K's eigenpairs: the solve always pairs them with L's."""
    n = K.shape[0]
    T = check_targets(T, n, L)
    cache = (SpectralCache.build(K, L) if cache is None
             else cache.with_laplacian(L))
    psi = solve_sylvester_spectral(cache, T, hyper)
    # after the solve, so a failed fit logs only its error
    log.info("spectral cache of the N=%d Gram: rank %d, %s", *cache.u.shape,
             cache.origin)
    if x_train is None:
        x_train = np.zeros((n, 0))
    if spec is None:
        spec = KernelSpec(kind="linear")
    return KrgModel(
        psi=psi,
        x_train=np.asarray(x_train, dtype=float),
        spec=spec,
        laplacian=L,
        hyper=hyper,
    )


@_QUIET_OVERFLOW
def predict_krg(model: KrgModel, X):
    """Psi^T k(x) for each row x of X; a 1-D X is one point, one y. An
    overflow is inf, without a warning; save_matrix_csv refuses it."""
    Y = kernel_cross_matrix(model.x_train, X, model.spec) @ model.psi
    return Y[0] if np.ndim(X) == 1 else Y


def fit_lrg(Phi, T, L: Laplacian, hyper: Hyperparams):
    """The K_feat x M weights W of the primal model t = W^T x, solving
    (Phi^T Phi + alpha I) W + beta Phi^T Phi W L = Phi^T T.

    Solved through the eigendecomposition of the K_feat x K_feat feature
    Gram; the dense (M*K_feat)-sized Kronecker system is never formed.
    """
    Phi = np.atleast_2d(np.asarray(Phi, dtype=float))
    T = check_targets(T, Phi.shape[0], L)
    cache = SpectralCache.build(Phi.T @ Phi, L)
    return solve_sylvester_spectral(cache, Phi.T @ T, hyper)


def predict_lrg(W, x):
    """t = W^T x (identity feature map)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != W.shape[0]:
        raise DimensionError(f"input dim {x.shape[0]} != feature dim {W.shape[0]}")
    return W.T @ x


def cost_terms(Y, psi, T, L: Laplacian, hyper: Hyperparams):
    """(||T - Y||_F^2, alpha tr(Psi^T K Psi), beta tr(Y L Y^T)) of the
    fitted outputs Y = K Psi: the three terms of the objective that the
    fit minimizes. The traces are summed entrywise, as sum(Psi * Y) and
    sum((Y L) * Y): no N x N temporary."""
    psi = np.asarray(psi, dtype=float)
    return (float(np.sum((np.asarray(T, dtype=float) - Y) ** 2)),
            float(hyper.alpha * np.sum(psi * Y)),
            float(hyper.beta * np.sum((Y @ L.matrix) * Y)))


def sylvester_residual(Y, psi, T, L: Laplacian, hyper: Hyperparams):
    """(K + alpha I) Psi + beta K Psi L - T of the fitted outputs Y = K Psi,
    as Y + alpha Psi + beta Y L - T; zero at the exact fit."""
    psi = np.asarray(psi, dtype=float)
    return Y + hyper.alpha * psi + hyper.beta * (Y @ L.matrix) - T


def dual_cost(K, psi, T, L: Laplacian, hyper: Hyperparams):
    """The objective without its constant ||T||_F^2."""
    Y = K @ np.asarray(psi, dtype=float)
    return (sum(cost_terms(Y, psi, T, L, hyper))
            - float(np.sum(np.asarray(T, dtype=float) ** 2)))


def dual_cost_gradient(K, psi, T, L: Laplacian, hyper: Hyperparams):
    """Analytic gradient of dual_cost: 2 K [(K + alpha I) Psi + beta K Psi L - T]."""
    Y = K @ np.asarray(psi, dtype=float)
    return 2.0 * K @ sylvester_residual(Y, psi, T, L, hyper)


def shrinkage_factors(cache: SpectralCache, hyper: Hyperparams):
    """zeta[n, m] = theta_n / eta[n, m], each in [0, 1) for alpha > 0,
    for the r range rows of u only. On u's complement theta is 0, so each
    factor there would be 0; no row stands for it."""
    return cache.theta[:, None] / _checked_eta(cache, [hyper.alpha], [hyper.beta])[0, 0]


# ---------------------------------------------------------------------------
# Model serialization

MODEL_FORMAT_VERSION = 1


def save_model(path, model: KrgModel):
    save_json(path, {
        "version": MODEL_FORMAT_VERSION,
        "kernel_spec": object_json(model.spec),
        "hyper": object_json(model.hyper),
        "laplacian": model.laplacian.matrix.tolist(),
        "x_train": model.x_train.tolist(),
        "psi": model.psi.tolist(),
    })


def load_model(path) -> KrgModel:
    doc = load_json(path)
    try:
        version = doc.get("version") if isinstance(doc, dict) else None
        # True == 1 in Python, so the type is checked too
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise DataFormatError(f"unsupported model version {version!r}")
        spec = read_object(KernelSpec, doc["kernel_spec"], "kernel_spec")
        x_train = np.array(doc["x_train"], dtype=float)
        psi = np.array(doc["psi"], dtype=float)
        L = Laplacian(np.array(doc["laplacian"], dtype=float))
        if x_train.ndim != 2 or psi.shape != (x_train.shape[0], L.num_nodes):
            raise DataFormatError(f"psi shape {psi.shape} does not fit x_train "
                                  f"shape {x_train.shape} and {L.num_nodes} nodes")
        if not (np.isfinite(x_train).all() and np.isfinite(psi).all()):
            raise DataFormatError("x_train or psi has NaN or infinite entries")
        if spec.kind == "rbf" and spec.rbf_normalizer is None:
            # a file written before specs carried Z: recompute it from x_train
            _, spec = gram_matrix(x_train, spec)
        return KrgModel(psi=psi, x_train=x_train, spec=spec, laplacian=L,
                        hyper=read_object(Hyperparams, doc["hyper"], "hyper"))
    # malformed arrays raise ValueError or TypeError, a missing field
    # KeyError, and read_object's rejections are ConfigErrors
    except (ValueError, KeyError, TypeError, KrgraphError) as exc:
        raise DataFormatError(
            f"{path}: not a valid model file: {type(exc).__name__}: {exc}"
        ) from exc
