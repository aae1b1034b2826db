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
unsigned edge-node incidence, is never formed.

For nu > 0 the QP is solved through its Lagrange dual, whose only
unknowns are a multiplier per node (for d = S^T w) and one for sum(w).
The edge costs are divided by 4 nu and shifted to least cost 0, which
moves only the trace multiplier; costs, weights and multipliers are then
divided by the radius r = trace_budget / 2, so that every quantity is of
order 1 and no product overflows. With those costs b, node multipliers u
and trace multiplier m, the dual is the concave, once differentiable

    phi(u, m) = -1/2 sum_e max(0, m - b_e - u_i - u_j)^2 - u.u + m,

maximized where w_e = max(0, m - b_e - u_i - u_j) has degrees S^T w = 2u
and sum(w) = 1: there its gradient (S^T w - 2u, 1 - sum(w)) is 0, and w
meets the QP's KKT conditions. Semismooth Newton (Qi & Sun 1993) with
Armijo backtracking finds that point: its system is the signless
Laplacian of the active edges plus 2I, bordered by their degrees and
their count, (M+1) x (M+1). On a fixed active set phi is quadratic, so
once the active set is right one step is exact. At the optimum an
active edge has b_e <= m <= 2, as (Q w)_e <= 4, so costlier edges stay
empty; capping b at 4 keeps it finite at any small nu and does not move
the optimum. For nu = 0 the QP is linear and its solution is closed form:
the budget split equally over the cheapest edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConvergenceError, DimensionError, InvalidGraphError,
                     KrgraphError)
from .graphs import Graph, Laplacian, build_laplacian
from .kernels import squared_distances
from .solver import (Hyperparams, SpectralCache, check_targets, check_weights,
                     cost_terms, fit_krg, solve_sylvester_spectral)

# the edge-weight QP stops at this dual gradient, in the dual's units, or
# fails after this many Newton steps
_KKT_TOL = 1e-12
_MAX_QP_ITERS = 50
# Armijo's sufficient-increase fraction, and the halvings allowed per step
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
# project_simplex's largest relative miss of the radius
_SIMPLEX_RTOL = 1e-9


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


def weights_to_laplacian(w, M) -> Laplacian:
    """L = sum_e w_e (e_i - e_j)(e_i - e_j)^T."""
    w = np.asarray(w, dtype=float)
    i, j = np.triu_indices(M, 1)
    A = np.zeros((M, M))
    A[i, j] = A[j, i] = w
    return build_laplacian(Graph(A))


def project_simplex(v, radius):
    """Euclidean projection onto {w >= 0, sum(w) = radius} (sort method).

    The point returned sums to the radius within a relative _SIMPLEX_RTOL.
    Roundoff beside the entries moves the sum further when the radius is
    within a few of the largest entry's ulps, and then KrgraphError."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - radius
    ks = np.arange(1, len(v) + 1)
    positive = u - css / ks > 0
    # k = 1 always passes unless roundoff in css hides it, and then the
    # sum check below fails
    rho = ks[positive][-1] if positive[0] else 1
    w = np.maximum(v - css[rho - 1] / rho, 0.0)
    if not abs(w.sum() - radius) <= _SIMPLEX_RTOL * radius:
        raise KrgraphError(
            f"edge-weight radius {radius:.3g} (trace_budget {2 * radius:.3g}) "
            f"is lost to roundoff beside {u[0]:.3g}, the largest entry to "
            "project; use a larger trace_budget")
    return w


def _smoothness_costs(Y, beta):
    """c_e = beta * sum_n (Y[n,i] - Y[n,j])^2 per edge e=(i,j); a cost that
    overflows is left for minimize_edge_weights to reject."""
    Y = np.asarray(Y, dtype=float)
    M = Y.shape[1]
    with np.errstate(over="ignore"):
        return beta * squared_distances(Y.T, Y.T)[np.triu_indices(M, 1)]


class EdgeWeights(NamedTuple):
    """An L-step's edge weights, the Newton steps taken and the final
    dual residual (0 and 0.0 for the closed form at nu = 0)."""

    w: np.ndarray
    newton_steps: int
    kkt_residual: float


def _dual(u, m, b, i, j):
    """phi(u, m) (module docstring), with m - b_e - u_i - u_j and the
    weights, its positive part, at (u, m)."""
    z = m - b - u[i] - u[j]
    w = np.maximum(z, 0.0)
    return -0.5 * (w @ w) - u @ u + m, z, w


def minimize_edge_weights(c, M, radius, nu) -> EdgeWeights:
    """min c.w + nu w^T Q w over {w >= 0, sum(w) = radius}, with the
    solve's Newton steps and final dual residual.

    nu = 0 takes the closed form (module docstring). For nu > 0,
    semismooth Newton on the dual starts from u = 0 and the m of the
    projection of -c / (4 nu), whose weights already sum to the radius;
    a radius lost to roundoff beside the least c / (4 nu) is rejected.
    It stops once the dual gradient's largest entry, in the dual's units
    (radius 1), is at most _KKT_TOL, and returns the dual's weights,
    scaled to sum to the radius."""
    if not np.isfinite(c).all():
        raise KrgraphError("edge costs beta * ||y_i - y_j||^2 overflow; "
                           "use a smaller beta")
    if nu == 0:
        cheapest = c == c.min()
        return EdgeWeights(
            np.where(cheapest, radius / np.count_nonzero(cheapest), 0.0),
            0, 0.0)
    if not 1.0 / (4.0 * nu * M) > 0:
        raise KrgraphError(f"nu={nu:g} is so large that the edge-weight "
                           f"step 1/(4 nu M) at M={M} underflows to 0")
    with np.errstate(over="ignore"):
        b = c / (4.0 * nu)
        least = b.min()
        if not np.isfinite(least):
            raise KrgraphError(f"nu={nu:g} is so small that every edge "
                               "cost c / (4 nu) overflows; use nu = 0")
        if not least + radius > least:
            raise KrgraphError(
                f"edge-weight radius {radius:.3g} (trace_budget "
                f"{2 * radius:.3g}) is lost to roundoff beside {least:.3g}, "
                "the least edge cost over 4 nu; use a larger trace_budget "
                "or nu")
        # the dual's units (module docstring)
        b = np.minimum((b - least) / radius, 4.0)
    i, j = np.triu_indices(M, 1)
    # the start: u = 0, and the m whose weights max(0, m - b) sum to 1,
    # that is the projection of -b; m is its largest weight, as min(b) = 0
    u, m = np.zeros(M), project_simplex(-b, 1.0).max()
    phi, z, w = _dual(u, m, b, i, j)
    for steps in range(_MAX_QP_ITERS + 1):
        dual_grad = np.append(
            np.bincount(i, w, M) + np.bincount(j, w, M) - 2.0 * u,
            1.0 - w.sum())
        residual = np.abs(dual_grad).max()
        if residual <= _KKT_TOL:
            return EdgeWeights(radius * w / w.sum(), steps, float(residual))
        if steps == _MAX_QP_ITERS:
            break
        active = z > 0
        ia, ja = i[active], j[active]
        deg = np.bincount(ia, minlength=M) + np.bincount(ja, minlength=M)
        H = np.zeros((M + 1, M + 1))
        H[ia, ja] = H[ja, ia] = 1.0
        np.fill_diagonal(H[:M, :M], deg + 2.0)
        H[M, :M] = H[:M, M] = -deg
        H[M, M] = len(ia)
        step = np.linalg.solve(H, dual_grad)
        slope = _ARMIJO * (dual_grad @ step)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = _dual(u + t * step[:M], m + t * step[M], b, i, j)
            # with no active edge the next system would be singular
            if trial[0] >= phi + t * slope and trial[2].any():
                break
            t /= 2.0
        else:
            break  # no ascent left that floating point resolves
        u, m = u + t * step[:M], m + t * step[M]
        phi, z, w = trial
    raise ConvergenceError(
        f"edge-weight QP did not reach relative KKT tolerance {_KKT_TOL:g} "
        f"in {steps} Newton steps (residual {residual:.3e})")


def _num_nodes(Y):
    """M of an N x M signal matrix; a graph to learn needs an edge, M >= 2."""
    if Y.ndim != 2 or Y.shape[1] < 2:
        raise DimensionError("graph learning needs an N x M signal matrix "
                             f"with M >= 2 nodes, got shape {Y.shape}")
    return Y.shape[1]


def _laplacian_step_constrained(Y, beta, cfg: GraphLearnConfig, record=None):
    """Trace-constrained minimizer, before spectral rescaling; the QP's
    Newton step count and final dual residual go into the dict record, if
    one is given."""
    Y = np.asarray(Y, dtype=float)
    M = _num_nodes(Y)
    budget = cfg.trace_budget if cfg.trace_budget is not None else float(M)
    c = _smoothness_costs(Y, beta)
    qp = minimize_edge_weights(c, M, budget / 2.0, cfg.nu)
    if record is not None:
        record.update(qp_newton_steps=qp.newton_steps,
                      qp_kkt_residual=qp.kkt_residual)
    return qp.w, weights_to_laplacian(qp.w, M)


def joint_cost(Y, psi, T, L: Laplacian, hyper: Hyperparams,
               cfg: GraphLearnConfig) -> float:
    """The regression objective of the fitted outputs Y = K Psi
    (solver.cost_terms) plus nu ||L||_F^2."""
    return (sum(cost_terms(Y, psi, T, L, hyper))
            + cfg.nu * float(np.sum(L.matrix**2)))


def alternating_fit(K, T, hyper: Hyperparams,
                    cfg: GraphLearnConfig, records=None):
    """Alternate dual fits and L-steps starting from L = 0 (plain KR).

    hyper weighs the coefficient and roughness terms of both sub-steps,
    and cfg.nu weighs ||L||_F^2 in the trace-constrained L-step, so the
    joint cost is nonincreasing across each sub-step. Returns (model, with
    model.hyper = hyper; the final L over its spectral radius; an
    (iterations, 2) array of the joint costs after each W- and L-step),
    and appends each outer iteration's record to the list records, if any.
    K is eigendecomposed once; each new L brings only its own eigenpairs.
    """
    T = np.asarray(T, dtype=float)
    M = _num_nodes(T)
    L = Laplacian(np.zeros((M, M)))
    check_targets(T, K.shape[0], L)  # before the decomposition
    cache = SpectralCache.build(K, L)
    costs = []
    records = [] if records is None else records
    for it in range(cfg.max_outer_iters):
        psi = solve_sylvester_spectral(cache.with_laplacian(L), T, hyper)
        # one K Psi serves both costs and the L-step
        Y = K @ psi
        with np.errstate(over="ignore", invalid="ignore"):
            cost_w = joint_cost(Y, psi, T, L, hyper, cfg)
        if not np.isfinite(cost_w):
            raise KrgraphError("targets too large: the joint cost overflows")
        qp_stats = {}
        w, L_new = _laplacian_step_constrained(Y, hyper.beta, cfg, qp_stats)
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
            **qp_stats,
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
    rho = records[-1]["spectral_radius"]
    # 0 if every eigenvalue is below Laplacian.eigendecomposition's clamp
    if not rho > 0:
        raise InvalidGraphError("cannot rescale the zero Laplacian; use a "
                                "larger trace_budget")
    return model, Laplacian(L.matrix / rho), np.array(costs)
