"""Independent brute-force oracles used to freeze expected values.

These deliberately build the dense (M*N) x (M*N) Kronecker systems and
naive loop-based sums that the library itself never forms.
"""

from functools import cache
from itertools import product

import numpy as np
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components


def dense_kron_dual_solve(K, L, T, alpha, beta):
    """Solve [(I_M (x) (K + aI)) + b (L (x) K)] vec(Psi) = vec(T) densely.

    vec stacks columns (Fortran order), matching vec(AXB) = (B^T (x) A) vec(X).
    """
    N, M = T.shape
    A = np.kron(np.eye(M), K + alpha * np.eye(N)) + beta * np.kron(L, K)
    vec_psi = np.linalg.solve(A, T.flatten(order="F"))
    return vec_psi.reshape((N, M), order="F")


def dense_eigh_dual_solve(K, L, T, alpha, beta):
    """Solve (K + aI) Psi + b K Psi L = T through numpy.linalg.eigh of the
    whole N x N K and of L: the joint eigenbasis with no rank truncation,
    no eigenvalue clamp and none of the library's code, for sizes whose
    dense Kronecker system is too large to form."""
    theta, U = np.linalg.eigh(np.asarray(K, dtype=float))
    lam, V = np.linalg.eigh(np.asarray(L, dtype=float))
    eta = theta[:, None] + alpha + beta * theta[:, None] * lam
    return U @ ((U.T @ T @ V) / eta) @ V.T


def eigenbasis_grid_out_of_place(cache, RHS, alphas, betas, A, T_ref):
    """(C, rest, E) of solver.solve_sylvester_eigenbasis and
    solver.grid_error_energies, each step written as an expression that
    makes a new array: C = (P V) / eta with P = U^T RHS, rest = RHS's part
    on U's complement (None for a square U), and E[a, b] the sum of the
    squared ((A U) C - T_ref V + (A rest V) / alpha_a). The library does
    the same operations in the same order in its own buffers, so the two
    agree bit for bit."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    U, V, theta = cache.u, cache.v, cache.theta[:, None]
    eta = (theta + alphas[:, None, None, None]
           + betas[:, None, None] * theta * cache.lam)
    P = U.T @ RHS
    C = (P @ V) / eta
    rest = None
    if U.shape[1] < U.shape[0]:
        rest = RHS - U @ P
        rest = rest - U @ (U.T @ rest)
    residual = (A @ U) @ C - T_ref @ V
    if rest is not None:
        residual = residual + (A @ rest @ V) / alphas[:, None, None, None]
    return C, rest, np.sum(residual**2, axis=(2, 3))


def dense_kron_primal_solve(Phi, L, T, alpha, beta):
    """Dense solve of the vectorized primal normal equations for W."""
    Kf = Phi.shape[1]
    M = T.shape[1]
    G = Phi.T @ Phi
    A = np.kron(np.eye(M), G + alpha * np.eye(Kf)) + beta * np.kron(L, G)
    rhs = (Phi.T @ T).flatten(order="F")
    return np.linalg.solve(A, rhs).reshape((Kf, M), order="F")


def edge_sum_quadratic_form(A, x):
    """Roughness as the explicit double sum over ordered pairs, halved."""
    M = A.shape[0]
    total = 0.0
    for i in range(M):
        for j in range(M):
            total += A[i, j] * (x[i] - x[j]) ** 2
    return 0.5 * total


def edge_overlap_matrix(M):
    """Dense E x E graph-learning QP matrix Q[e, f] = tr(E_e E_f).

    E_e = (e_i - e_j)(e_i - e_j)^T for edge e = (i, j), edges in
    np.triu_indices(M, 1) order. Each E_e is symmetric, so tr(E_e E_f) is
    the sum of the entrywise product of E_e and E_f.
    """
    eye = np.eye(M)
    flat = np.array([np.outer(eye[i] - eye[j], eye[i] - eye[j]).ravel()
                     for i, j in zip(*np.triu_indices(M, 1))])
    return flat @ flat.T


def dense_edge_qp(c, Q, radius, nu, kkt_tol=1e-12):
    """min c.w + nu w^T Q w over {w >= 0, sum(w) = radius} by plain
    projected gradient on the dense Q with an eigvalsh step, run to a KKT
    residual far below the library's, so it stands in for the optimum."""
    from krgraph.graphlearn import project_simplex

    step = 1.0 / (2.0 * nu * np.linalg.eigvalsh(Q).max())
    w = np.full(len(c), radius / len(c))
    for _ in range(20000):
        w_next = project_simplex(w - step * (c + 2.0 * nu * (Q @ w)), radius)
        residual = np.abs(w_next - w).max() / step
        w = w_next
        if residual <= kkt_tol:
            return w
    raise AssertionError("dense reference solver did not converge")


def random_graph_adjacency(rng, M, density=0.5):
    A = np.zeros((M, M))
    for i in range(M):
        for j in range(i + 1, M):
            if rng.random() < density:
                A[i, j] = A[j, i] = rng.uniform(0.1, 2.0)
    return A


def random_psd(rng, n, rank=None):
    B = rng.standard_normal((n, rank or n))
    return B @ B.T


def random_laplacian_matrix(rng, M):
    from krgraph.graphs import Graph, build_laplacian

    return build_laplacian(Graph(random_graph_adjacency(rng, M))).matrix


def null_space_projector(L):
    """The orthogonal projector onto the null space of Laplacian matrix L,
    from its connected components: the per-component averaging matrix,
    entry 1/|C| where both nodes lie in component C, 0 elsewhere. It is
    exp(-tau L)'s limit as tau -> inf. Returns (projector, components)."""
    L = np.asarray(L, dtype=float)
    count, labels = connected_components(L - np.diag(np.diag(L)) != 0,
                                         directed=False)
    E = (labels[:, None] == np.arange(count)).astype(float)
    return (E / E.sum(axis=0)) @ E.T, count


def heat_kernel_expm(L, tau):
    """expm(-tau L) by Pade scaling and squaring: a reference at moderate
    tau only, since its roundoff grows with tau * ||L||."""
    return expm(-tau * np.asarray(L, dtype=float))


def infinite_beta_dual_solve(K, L, T, alpha, kernel_range=None):
    """The beta -> inf limit of (K + alpha I) Psi + beta K Psi L = T for a
    full-rank K: (K + alpha I)^{-1} T P, with P the null-space projector.
    For a K of exact rank r, given an N x r orthonormal basis of its range,
    the limit adds T's part in K's null space off L's, (I - Q Q^T) T
    (I - P) / alpha: eta is alpha there whatever beta is."""
    P = null_space_projector(L)[0]
    psi = np.linalg.solve(K + alpha * np.eye(len(K)), T @ P)
    if kernel_range is not None:
        Q = kernel_range
        psi += (T - Q @ (Q.T @ T)) @ (np.eye(len(P)) - P) / alpha
    return psi


@cache
def null_space_laplacians():
    """{case id: Laplacian matrix} for the null-space oracles: connected
    ER(50, 0.3), disconnected ER(50, 0.03), complete geodesic graphs on 20
    random points in the plane, and a Laplacian learned by
    alternating_fit, three of each random kind."""
    from krgraph.graphlearn import GraphLearnConfig, alternating_fit
    from krgraph.graphs import build_laplacian, erdos_renyi, geodesic_adjacency
    from krgraph.solver import Hyperparams

    cases = {}
    for seed in range(3):
        cases[f"er50_p0.3_seed{seed}"] = erdos_renyi(50, 0.3, seed)
        cases[f"er50_p0.03_seed{seed}"] = erdos_renyi(50, 0.03, seed)
        points = np.random.default_rng(seed).uniform(size=(20, 2))
        cases[f"geodesic20_seed{seed}"] = geodesic_adjacency(
            np.linalg.norm(points[:, None] - points[None], axis=-1))
    cases = {k: build_laplacian(g).matrix for k, g in cases.items()}
    rng = np.random.default_rng(7)
    X, T = rng.standard_normal((30, 3)), rng.standard_normal((30, 12))
    _, learned, _ = alternating_fit(X @ X.T, T, Hyperparams(alpha=0.1, beta=1.0),
                                    GraphLearnConfig(nu=0.5, max_outer_iters=4))
    cases["learned12"] = learned.matrix
    return cases


def cv_table_refit(train, L, grid, method, seed, kernel_spec=None):
    """Reference k-fold CV table: each grid point refitted on each fold.

    Every fit starts afresh, from a new Gram matrix, and solves through
    dense_eigh_dual_solve: no eigendecomposition is reused, and none comes
    from the library's SpectralCache. Rows follow the sorted
    (alpha, beta, sigma_sq) order of cross_validate.
    """
    from krgraph.evaluation import fold_assignment, nmse_db
    from krgraph.kernels import KernelSpec, gram_matrix, kernel_cross_matrix

    primal = method in ("LR", "LRG")
    betas = [0.0] if method in ("LR", "KR") else list(grid.betas)
    sigmas = [None] if primal or kernel_spec is not None else grid.sigma_sqs
    T_ref = train.T0 if train.T0 is not None else train.T
    folds = fold_assignment(train.n, grid.folds, seed)
    points = sorted(product(grid.alphas, betas, sigmas),
                    key=lambda p: (p[0], p[1], 0.0 if p[2] is None else p[2]))
    table = []
    for alpha, beta, sigma_sq in points:
        scores = []
        for val_rows in folds:
            fit_rows = np.setdiff1d(np.arange(train.n), val_rows)
            X_fit, T_fit = train.X[fit_rows], train.T[fit_rows]
            X_val = train.X[val_rows]
            if primal:
                Y = X_val @ dense_eigh_dual_solve(
                    X_fit.T @ X_fit, L.matrix, X_fit.T @ T_fit, alpha, beta)
            else:
                spec = kernel_spec or KernelSpec(kind="rbf", sigma_sq=sigma_sq)
                K, spec = gram_matrix(X_fit, spec)
                psi = dense_eigh_dual_solve(K, L.matrix, T_fit, alpha, beta)
                Y = kernel_cross_matrix(X_fit, X_val, spec) @ psi
            scores.append(nmse_db(Y, T_ref[val_rows]))
        table.append({"params": {"alpha": alpha, "beta": beta,
                                 "sigma_sq": sigma_sq},
                      "nmse_db": float(np.mean(scores))})
    return table
