"""Joint estimation of the Laplacian and dual regression coefficients.

The Laplacian is parametrized by nonnegative edge weights w over the
M(M-1)/2 unordered node pairs, L(w) = sum_e w_e (e_i - e_j)(e_i - e_j)^T,
which satisfies symmetry, zero row sums, and nonpositive off-diagonals by
construction. The L-step objective

    beta * sum_n y_n^T L y_n + nu * tr(L^T L)  =  c.w + nu * w^T Q w

is minimized subject to w >= 0 and tr(L) = 2 * sum(w) = trace_budget.
Without the trace constraint the objective is minimized by L = 0 (both
terms are nonnegative), a collapse that per-iteration spectral rescaling
cannot repair, so the budget keeps the subproblem well-posed.

Edges are ordered as np.triu_indices(M, 1). Q = S S^T + 2I, with S the
unsigned edge-node incidence, is never formed: (Q w)_e = d_i + d_j + 2 w_e
for e = (i, j) and degrees d = S^T w, and lambda_max(Q) = 2M exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DimensionError, KrgraphError
from .graphs import (Graph, Laplacian, build_laplacian, save_json_lines,
                     spectral_rescale)
from .kernels import squared_distances
from .solver import (Hyperparams, SpectralCache, check_targets, check_weights,
                     cost_terms, fit_krg, solve_sylvester_spectral)

# the edge-weight QP stops at this KKT residual, or fails after this many steps
_KKT_TOL = 1e-6
_MAX_QP_ITERS = 20000


@dataclass(frozen=True)
class GraphLearnConfig:
    """Graph-learning settings; alpha and beta come from Hyperparams."""

    nu: float
    max_outer_iters: int = 20
    tol: float = 1e-4
    trace_budget: float | None = None  # defaults to M at call time

    def __post_init__(self):
        check_weights(nu=self.nu)
        if not self.max_outer_iters >= 1:
            raise KrgraphError("max_outer_iters must be >= 1")
        if not self.tol > 0:
            raise KrgraphError("tol must be > 0")
        if self.trace_budget is not None and not 0 < self.trace_budget < np.inf:
            raise KrgraphError("trace_budget must be finite and > 0")


def _overlap_product(w, i, j, M):
    """Q w = S S^T w + 2 w in O(E), through the degree vector d = S^T w."""
    d = np.bincount(i, w, M) + np.bincount(j, w, M)
    return d[i] + d[j] + 2.0 * w


def weights_to_laplacian(w, M) -> Laplacian:
    """L = sum_e w_e (e_i - e_j)(e_i - e_j)^T."""
    w = np.asarray(w, dtype=float)
    i, j = np.triu_indices(M, 1)
    A = np.zeros((M, M))
    A[i, j] = A[j, i] = w
    return build_laplacian(Graph(A))


def project_simplex(v, radius):
    """Euclidean projection onto {w >= 0, sum(w) = radius} (sort method)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    ks = np.arange(1, len(v) + 1)
    selected = ks[u - css / ks > 0]
    if not selected.size:  # roundoff in css hides k = 1
        raise KrgraphError(
            f"edge-weight radius {radius:.3g} (trace_budget {2 * radius:.3g}) "
            f"is lost to roundoff beside {u[0]:.3g}, the largest entry to "
            "project; use a larger trace_budget")
    rho = selected[-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def _smoothness_costs(Y, beta):
    """c_e = beta * sum_n (Y[n,i] - Y[n,j])^2 per edge e=(i,j); a cost that
    overflows is left for minimize_edge_weights to reject."""
    Y = np.asarray(Y, dtype=float)
    M = Y.shape[1]
    with np.errstate(over="ignore"):
        return beta * squared_distances(Y.T, Y.T)[np.triu_indices(M, 1)]


def minimize_edge_weights(c, M, radius, nu):
    """FISTA (Beck & Teboulle 2009) with gradient-scheme adaptive restart
    (O'Donoghue & Candes 2015) for min c.w + nu w^T Q w over the scaled
    simplex, with Q applied through the degree vector (module docstring).

    Each step projects a gradient step from the extrapolated point z, and
    the KKT residual max|w_next - z| / step is measured at z."""
    if not np.isfinite(c).all():
        raise KrgraphError("edge costs beta * ||y_i - y_j||^2 overflow; "
                           "use a smaller beta")
    i, j = np.triu_indices(M, 1)
    n = len(c)
    w = np.full(n, radius / n)
    if nu > 0:
        step = 1.0 / (2.0 * nu * 2.0 * M)  # 1 / (2 nu lambda_max(Q))
        if not step > 0:
            raise KrgraphError(f"nu={nu:g} is so large that the edge-weight "
                               f"step 1/(4 nu M) at M={M} underflows to 0")
    else:
        # linear objective; step scale only affects the convergence rate
        step = radius / (np.abs(c).max() + 1.0)
    z, t = w, 1.0
    for _ in range(_MAX_QP_ITERS):
        grad = c + 2.0 * nu * _overlap_product(z, i, j, M)
        w_next = project_simplex(z - step * grad, radius)
        residual = np.abs(w_next - z).max() / step
        if residual <= _KKT_TOL:
            return w_next
        if (z - w_next) @ (w_next - w) > 0:  # momentum points uphill: restart
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        z = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, t = w_next, t_next
    raise ConvergenceError(
        f"edge-weight QP did not reach KKT tolerance {_KKT_TOL:g} "
        f"in {_MAX_QP_ITERS} iterations (residual {residual:.3e})")


def _num_nodes(Y):
    """M of an N x M signal matrix; a graph to learn needs an edge, M >= 2."""
    if Y.ndim != 2 or Y.shape[1] < 2:
        raise DimensionError("graph learning needs an N x M signal matrix "
                             f"with M >= 2 nodes, got shape {Y.shape}")
    return Y.shape[1]


def _laplacian_step_constrained(Y, beta, cfg: GraphLearnConfig):
    """Trace-constrained minimizer, before spectral rescaling."""
    Y = np.asarray(Y, dtype=float)
    M = _num_nodes(Y)
    budget = cfg.trace_budget if cfg.trace_budget is not None else float(M)
    c = _smoothness_costs(Y, beta)
    w = minimize_edge_weights(c, M, budget / 2.0, cfg.nu)
    return w, weights_to_laplacian(w, M)


def joint_cost(Y, psi, T, L: Laplacian, hyper: Hyperparams,
               cfg: GraphLearnConfig) -> float:
    """The regression objective of the fitted outputs Y = K Psi
    (solver.cost_terms) plus nu ||L||_F^2."""
    return (sum(cost_terms(Y, psi, T, L, hyper))
            + cfg.nu * float(np.sum(L.matrix**2)))


def alternating_fit(K, T, hyper: Hyperparams,
                    cfg: GraphLearnConfig, log_path=None):
    """Alternate dual fits and L-steps starting from L = 0 (plain KR).

    hyper weighs the coefficient and roughness terms of both sub-steps,
    and cfg.nu weighs ||L||_F^2 in the trace-constrained L-step, so the
    joint cost is nonincreasing across each sub-step. Returns (model, with
    model.hyper = hyper; the final L rescaled to unit spectral radius; an
    (iterations, 2) array of the joint costs after each W- and L-step).
    K is eigendecomposed once; each new L brings only its own eigenpairs.
    """
    T = np.asarray(T, dtype=float)
    M = _num_nodes(T)
    L = Laplacian(np.zeros((M, M)))
    check_targets(T, K.shape[0], L)  # before the decomposition
    cache = SpectralCache.build(K, L)
    costs, records = [], []
    for it in range(cfg.max_outer_iters):
        psi = solve_sylvester_spectral(cache.with_laplacian(L), T, hyper)
        # one K Psi serves both costs and the L-step
        Y = K @ psi
        cost_w = joint_cost(Y, psi, T, L, hyper, cfg)
        w, L_new = _laplacian_step_constrained(Y, hyper.beta, cfg)
        cost_l = joint_cost(Y, psi, T, L_new, hyper, cfg)
        del Y   # N x M; not held through the next fit
        costs.append((cost_w, cost_l))
        records.append({
            "iter": it,
            "cost_after_w_step": cost_w,
            "cost_after_l_step": cost_l,
            # the eigendecomposition the next fit reuses
            "spectral_radius": float(L_new.eigendecomposition()[0][-1]),
            "edge_sparsity": float(np.mean(w > 1e-10)),
        })
        converged = (
            len(costs) > 1
            and abs(costs[-2][1] - cost_l)
            <= cfg.tol * max(abs(costs[-2][1]), 1e-30)
        )
        L = L_new
        if converged:
            break
    # refit so the returned coefficients match the final Laplacian
    model = fit_krg(K, T, L, hyper, cache=cache)
    # written only now, so a failed fit leaves no log behind
    if log_path:
        save_json_lines(log_path, records)
    return model, spectral_rescale(L), np.array(costs)
