"""Independent brute-force oracles used to freeze expected values.

These deliberately build the dense (M*N) x (M*N) Kronecker systems and
naive loop-based sums that the library itself never forms.
"""

from itertools import product

import numpy as np


def dense_kron_dual_solve(K, L, T, alpha, beta):
    """Solve [(I_M (x) (K + aI)) + b (L (x) K)] vec(Psi) = vec(T) densely.

    vec stacks columns (Fortran order), matching vec(AXB) = (B^T (x) A) vec(X).
    """
    N, M = T.shape
    A = np.kron(np.eye(M), K + alpha * np.eye(N)) + beta * np.kron(L, K)
    vec_psi = np.linalg.solve(A, T.flatten(order="F"))
    return vec_psi.reshape((N, M), order="F")


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


def cv_table_refit(train, L, grid, method, seed, kernel_spec=None):
    """Reference k-fold CV table: each grid point refitted on each fold.

    Every fit starts afresh: a new Gram matrix, a new Laplacian
    object (so no eigendecomposition is reused) and no spectral cache.
    Rows follow the sorted (alpha, beta, sigma_sq) order of cross_validate.
    """
    from krgraph.evaluation import fold_assignment, nmse_db
    from krgraph.graphs import Laplacian
    from krgraph.kernels import KernelSpec, gram_matrix, kernel_cross_matrix
    from krgraph.solver import Hyperparams, fit_krg, fit_lrg

    primal = method in ("LR", "LRG")
    betas = [0.0] if method in ("LR", "KR") else list(grid.betas)
    sigmas = [None] if primal or kernel_spec is not None else grid.sigma_sqs
    T_ref = train.T0 if train.T0 is not None else train.T
    folds = fold_assignment(train.n, grid.folds, seed)
    points = sorted(product(grid.alphas, betas, sigmas),
                    key=lambda p: (p[0], p[1], 0.0 if p[2] is None else p[2]))
    table = []
    for alpha, beta, sigma_sq in points:
        hyper = Hyperparams(alpha=alpha, beta=beta)
        scores = []
        for val_rows in folds:
            fit_rows = np.setdiff1d(np.arange(train.n), val_rows)
            X_fit, T_fit = train.X[fit_rows], train.T[fit_rows]
            X_val = train.X[val_rows]
            fresh_L = Laplacian(L.matrix.copy())
            if primal:
                Y = X_val @ fit_lrg(X_fit, T_fit, fresh_L, hyper)
            else:
                spec = kernel_spec or KernelSpec(kind="rbf", sigma_sq=sigma_sq)
                K, spec = gram_matrix(X_fit, spec)
                psi = fit_krg(K, T_fit, fresh_L, hyper).psi
                Y = kernel_cross_matrix(X_fit, X_val, spec) @ psi
            scores.append(nmse_db(Y, T_ref[val_rows]))
        table.append({"params": {"alpha": alpha, "beta": beta,
                                 "sigma_sq": sigma_sq},
                      "nmse_db": float(np.mean(scores))})
    return table
