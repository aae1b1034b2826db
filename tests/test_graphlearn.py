import numpy as np
import pytest
from scipy.stats import spearmanr

from krgraph import graphlearn, solver
from krgraph.errors import ConvergenceError, DimensionError, KrgraphError
from krgraph.graphs import Laplacian, build_laplacian, erdos_renyi
from krgraph.graphlearn import (
    GraphLearnConfig,
    _laplacian_step_constrained,
    _smoothness_costs,
    alternating_fit,
    joint_cost,
    minimize_edge_weights,
    project_simplex,
    weights_to_laplacian,
)
from krgraph.kernels import KernelSpec, gram_matrix
from krgraph.solver import Hyperparams, SpectralCache, cost_terms, fit_krg
from oracles import dense_edge_qp, edge_overlap_matrix, random_psd


def simplex_grid_oracle(c, Q, nu, radius, steps=1000):
    """Exhaustive search of the 3-edge scaled simplex at given resolution."""
    best, best_val = None, np.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            w = radius * np.array([i, j, steps - i - j]) / steps
            val = c @ w + nu * w @ Q @ w
            if val < best_val:
                best, best_val = w, val
    return best, best_val


class TestProjectSimplex:
    def test_already_on_simplex(self):
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(w, 1.0), w, atol=1e-12)

    def test_sums_to_radius_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            v = rng.standard_normal(rng.integers(1, 20))
            radius = rng.uniform(0.1, 5.0)
            p = project_simplex(v, radius)
            assert p.min() >= 0
            assert np.sum(p) == pytest.approx(radius, rel=1e-10)

    def test_is_closest_point(self):
        # projection must beat random feasible points
        rng = np.random.default_rng(1)
        v = rng.standard_normal(6)
        p = project_simplex(v, 2.0)
        for _ in range(200):
            q = rng.dirichlet(np.ones(6)) * 2.0
            assert np.sum((v - p) ** 2) <= np.sum((v - q) ** 2) + 1e-10

    def test_radius_below_float_resolution_raises(self):
        """1 - 1e-20 rounds to 1, so no k passes the sort method's test."""
        with pytest.raises(KrgraphError, match="radius 1e-20.*trace_budget"):
            project_simplex(np.array([1.0, 0.5]), 1e-20)

    def test_radius_lost_at_k_1_raises_whatever_later_k_pass(self):
        """Beside entries near 1e15, 0.01 is lost, which hides k = 1, while
        roundoff in the cumulative sums lets k = 3 pass: that projection
        summed to 0.5, not 0.01."""
        v = np.array([1e15 - 0.25, 1e15 - 0.125, 1e15 - 0.25])
        with pytest.raises(KrgraphError, match="radius 0.01.*trace_budget"):
            project_simplex(v, 0.01)

    @pytest.mark.parametrize("v", [[1e15, 1e15, 1e15],
                                   [1e15, 1e15 - 0.125, 3.0]],
                             ids=["ties", "one_survivor"])
    def test_radius_lost_where_k_1_passes_raises(self, v):
        """1e15 - 0.1 rounds to 1e15 - 0.125, so k = 1 passes but every
        weight takes the rounded shift: the projections summed to 0.375
        and 0.125, not 0.1."""
        with pytest.raises(KrgraphError, match="radius 0.1 .*trace_budget"):
            project_simplex(np.array(v), 0.1)


class TestWeightsToLaplacian:
    def test_invariants_by_construction(self):
        rng = np.random.default_rng(2)
        for M in (2, 3, 6):
            w = rng.uniform(0, 2, M * (M - 1) // 2)
            L = weights_to_laplacian(w, M)  # constructor validates
            assert np.trace(L.matrix) == pytest.approx(2 * w.sum())

    def test_matches_edge_sum(self):
        rng = np.random.default_rng(17)
        M = 7
        w = rng.uniform(0, 2, M * (M - 1) // 2)
        eye = np.eye(M)
        expected = sum(w_e * np.outer(eye[i] - eye[j], eye[i] - eye[j])
                       for w_e, i, j in zip(w, *np.triu_indices(M, 1)))
        np.testing.assert_allclose(weights_to_laplacian(w, M).matrix,
                                   expected, rtol=0, atol=1e-14)

    def test_edge_order(self):
        w = np.array([1.0, 0.0, 0.0])  # edge (0, 1) only
        L = weights_to_laplacian(w, 3)
        assert L.matrix[0, 1] == -1.0
        assert L.matrix[0, 2] == 0.0


class TestLaplacianStep:
    def test_smoothness_costs_match_edge_loop(self):
        Y = np.random.default_rng(18).standard_normal((9, 6))
        expected = [1.5 * np.sum((Y[:, i] - Y[:, j]) ** 2)
                    for i, j in zip(*np.triu_indices(6, 1))]
        np.testing.assert_allclose(_smoothness_costs(Y, 1.5), expected,
                                   rtol=1e-13)

    def test_m2_single_weight(self):
        Y = np.random.default_rng(3).standard_normal((5, 2))
        cfg = GraphLearnConfig(nu=0.5, trace_budget=4.0)
        w, L = _laplacian_step_constrained(Y, 1.0, cfg)
        assert w[0] == pytest.approx(2.0)  # trace_budget / 2
        assert np.trace(L.matrix) == pytest.approx(4.0)

    def test_constant_signal_gives_uniform_weights(self):
        # every node sees the same value per sample: all c_e equal (zero)
        Y = np.outer(np.arange(4.0), np.ones(3))
        cfg = GraphLearnConfig(nu=1.0, trace_budget=3.0)
        w, _ = _laplacian_step_constrained(Y, 1.0, cfg)
        np.testing.assert_allclose(w, np.full(3, 0.5), atol=1e-6)
        # brute-force grid agrees
        c = _smoothness_costs(Y, 1.0)
        Q = edge_overlap_matrix(3)
        w_star, _ = simplex_grid_oracle(c, Q, 1.0, 1.5, steps=300)
        np.testing.assert_allclose(w, w_star, atol=1.5 / 300)

    def test_smooth_edge_gets_largest_weight(self):
        # nodes 0 and 1 nearly equal, node 2 far away
        rng = np.random.default_rng(4)
        base = rng.standard_normal(8)
        Y = np.stack([base, base + 0.01 * rng.standard_normal(8),
                      base + 5.0], axis=1)
        cfg = GraphLearnConfig(nu=0.3, trace_budget=3.0)
        w, _ = _laplacian_step_constrained(Y, 1.0, cfg)
        assert w[0] > w[1]  # edge (0,1) beats (0,2)
        assert w[0] > w[2]  # and (1,2)

    def test_matches_grid_oracle_m3(self):
        rng = np.random.default_rng(5)
        Y = rng.standard_normal((6, 3))
        cfg = GraphLearnConfig(nu=0.7, trace_budget=3.0)
        w, _ = _laplacian_step_constrained(Y, 2.0, cfg)
        c = _smoothness_costs(Y, 2.0)
        Q = edge_overlap_matrix(3)
        w_star, _ = simplex_grid_oracle(c, Q, cfg.nu, 1.5, steps=1000)
        np.testing.assert_allclose(w, w_star, atol=1.5e-3)

    def test_public_step_rescaled(self):
        Y = np.random.default_rng(6).standard_normal((5, 4))
        _, L = _laplacian_step_constrained(Y, 1.0, GraphLearnConfig(nu=0.5))
        L = Laplacian(L.matrix / L.eigendecomposition()[0][-1])
        assert np.linalg.norm(L.matrix, 2) == pytest.approx(1.0, abs=1e-8)

    def test_one_node_rejected(self):
        Y = np.random.default_rng(7).standard_normal((5, 1))
        with pytest.raises(DimensionError, match="M >= 2"):
            _laplacian_step_constrained(Y, 1.0, GraphLearnConfig(nu=0.5))

    def test_determinism(self):
        Y = np.random.default_rng(7).standard_normal((5, 4))
        cfg = GraphLearnConfig(nu=0.5)
        (w_a, a), (w_b, b) = (_laplacian_step_constrained(Y, 1.0, cfg)
                              for _ in range(2))
        assert np.array_equal(w_a, w_b)
        assert np.array_equal(a.matrix, b.matrix)


class TestEdgeOverlap:
    def test_qp_matrix_entries(self):
        # the oracle's Q: 4 on the diagonal, 1 for edges sharing one node,
        # else 0, i.e. S S^T + 2I for the unsigned incidence S
        M = 4
        Q = edge_overlap_matrix(M)
        pairs = list(zip(*np.triu_indices(M, 1)))
        S = np.zeros((len(pairs), M))
        for e, (i, j) in enumerate(pairs):
            S[e, i] = S[e, j] = 1.0
            for f, (k, l) in enumerate(pairs):
                shared = len({i, j} & {k, l})
                assert Q[e, f] == {2: 4.0, 1: 1.0, 0: 0.0}[shared]
        np.testing.assert_array_equal(Q, S @ S.T + 2.0 * np.eye(len(pairs)))

    def test_weights_match_dense_solver(self):
        """The optimum, not the iterates: a dense projected gradient on the
        primal, run to an absolute KKT residual of 1e-12."""
        for M, nu in [(3, 0.7), (12, 0.5), (12, 5.0), (30, 0.5), (12, 1e6),
                      (30, 1e-3), (60, 0.5)]:
            Y = np.random.default_rng(16).standard_normal((20, M))
            c = _smoothness_costs(Y, 1.0)
            Q, radius = edge_overlap_matrix(M), M / 2.0
            w = minimize_edge_weights(c, M, radius, nu).w
            w_ref = dense_edge_qp(c, Q, radius, nu)
            assert np.abs(w - w_ref).max() <= 1e-10
            obj, obj_ref = (c @ v + nu * v @ Q @ v for v in (w, w_ref))
            assert obj <= obj_ref + 1e-10 * abs(obj_ref)
            assert w.min() >= 0
            assert abs(w.sum() - radius) <= 1e-12 * radius

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projection_count(self, seed, monkeypatch):
        """The Newton L-step on M=60 projects once, for its start: it stops
        on the dual gradient that each step forms anyway. FISTA took
        131-159 projections here and plain projected gradient 689-884.
        The count goes through the module-level project_simplex, the name
        perfbench's tracer wraps."""
        calls = []

        def counted(v, radius):
            calls.append(radius)
            return project_simplex(v, radius)

        monkeypatch.setattr(graphlearn, "project_simplex", counted)
        Y = np.random.default_rng(seed).standard_normal((200, 60))
        minimize_edge_weights(_smoothness_costs(Y, 1.0), 60, 30.0, 0.5)
        assert len(calls) == 1

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(graphlearn, "_MAX_QP_ITERS", 2)
        Y = np.random.default_rng(16).standard_normal((20, 12))
        c = _smoothness_costs(Y, 1.0)
        with pytest.raises(ConvergenceError,
                           match=r"relative KKT tolerance 1e-12 in 2 Newton "
                                 r"steps \(residual \d"):
            minimize_edge_weights(c, 12, 6.0, 0.5)

    def test_line_search_without_ascent_raises(self, monkeypatch):
        """A Newton step whose line search finds no ascent within the
        halvings allowed ends the solve; none are allowed here."""
        monkeypatch.setattr(graphlearn, "_MAX_HALVINGS", 0)
        Y = np.random.default_rng(16).standard_normal((20, 12))
        c = _smoothness_costs(Y, 1.0)
        with pytest.raises(ConvergenceError,
                           match=r"relative KKT tolerance 1e-12 in 0 Newton "
                                 r"steps \(residual \d"):
            minimize_edge_weights(c, 12, 6.0, 0.5)

    def test_nu_zero_splits_the_budget_over_the_cheapest_edges(self):
        """The linear L-step's closed form: two edges share the least cost,
        and each takes half the budget."""
        c = np.array([3.0, 1.0, 2.0, 1.0, 5.0, 4.0])
        qp = minimize_edge_weights(c, 4, 2.0, 0.0)
        np.testing.assert_array_equal(qp.w, [0.0, 1.0, 0.0, 1.0, 0.0, 0.0])
        assert (qp.newton_steps, qp.kkt_residual) == (0, 0.0)

    @pytest.mark.parametrize("nu", [1e-12, 1e-3, 1.0, 1e9, 1e14, 1e100,
                                    1e306])
    def test_converges_at_any_nu_below_the_overflow_guard(self, nu):
        """The stop is on the dual gradient, whose units (costs over 4 nu,
        radius 1) do not grow with nu, so it is met at large nu too."""
        Y = np.random.default_rng(16).standard_normal((20, 12))
        qp = minimize_edge_weights(_smoothness_costs(Y, 1.0), 12, 6.0, nu)
        assert qp.kkt_residual <= graphlearn._KKT_TOL
        assert qp.w.min() >= 0
        assert abs(qp.w.sum() - 6.0) <= 1e-12 * 6.0

    @pytest.mark.parametrize("nu, message", [
        (5e-324, "nu=4.94066e-324 is so small that every edge cost"),
        (1e-300, "radius 6 .* lost to roundoff beside 5.87e\\+300, the "
                 "least edge cost over 4 nu; use a larger trace_budget or nu"),
        (3.8e306, "nu=3.8e\\+306 is so large that the edge-weight step"),
    ])
    def test_extreme_nu_rejected(self, nu, message):
        Y = np.random.default_rng(16).standard_normal((20, 12))
        with pytest.raises(KrgraphError, match=message):
            minimize_edge_weights(_smoothness_costs(Y, 1.0), 12, 6.0, nu)

    def test_overflowing_costs_rejected_quietly(self):
        """A finite but huge beta makes beta * ||y_i - y_j||^2 infinite."""
        c = _smoothness_costs(np.array([[0.0, 2.0, 1.0]]), 1e308)
        assert np.isinf(c).any()
        with pytest.raises(KrgraphError, match="smaller beta"):
            minimize_edge_weights(c, 3, 1.0, 0.5)


class TestJointCost:
    def test_zero_psi_zero_laplacian(self):
        rng = np.random.default_rng(8)
        T = rng.standard_normal((5, 3))
        K = random_psd(rng, 5)
        cfg = GraphLearnConfig(nu=1.0)
        psi = np.zeros((5, 3))
        c = joint_cost(K @ psi, psi, T, Laplacian(np.zeros((3, 3))),
                       Hyperparams(alpha=1.0, beta=1.0), cfg)
        assert c == pytest.approx(np.sum(T**2))

    def test_perfect_fit_no_regularization(self):
        rng = np.random.default_rng(9)
        K = random_psd(rng, 4) + np.eye(4)
        T = rng.standard_normal((4, 2))
        psi = np.linalg.solve(K, T)  # Y = K psi = T
        c = joint_cost(K @ psi, psi, T, Laplacian(np.zeros((2, 2))),
                       Hyperparams(alpha=0.0, beta=0.0),
                       GraphLearnConfig(nu=0.0))
        assert c == pytest.approx(0.0, abs=1e-16)

    def test_matches_naive_term_sums(self):
        rng = np.random.default_rng(10)
        K = random_psd(rng, 6)
        T = rng.standard_normal((6, 3))
        psi = rng.standard_normal((6, 3))
        Lmat = weights_to_laplacian(rng.uniform(0, 1, 3), 3).matrix
        hyper = Hyperparams(alpha=0.4, beta=1.3)
        cfg = GraphLearnConfig(nu=0.6)
        Y = K @ psi
        expected = 0.0
        for n in range(6):
            expected += np.sum((T[n] - Y[n]) ** 2)
            expected += hyper.beta * (Y[n] @ Lmat @ Y[n])
        expected += hyper.alpha * sum(
            psi[:, m] @ K @ psi[:, m] for m in range(3))
        expected += cfg.nu * np.sum(Lmat**2)
        got = joint_cost(Y, psi, T, Laplacian(Lmat), hyper, cfg)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_is_shared_cost_terms_plus_nu_norm(self):
        rng = np.random.default_rng(11)
        K = random_psd(rng, 7)
        T = rng.standard_normal((7, 4))
        psi = rng.standard_normal((7, 4))
        L = weights_to_laplacian(rng.uniform(0, 1, 6), 4)
        hyper = Hyperparams(alpha=0.3, beta=0.9)
        cfg = GraphLearnConfig(nu=0.7)
        Y = K @ psi
        data, coefficient, roughness = cost_terms(Y, psi, T, L, hyper)
        assert joint_cost(Y, psi, T, L, hyper, cfg) == (
            data + coefficient + roughness + 0.7 * np.sum(L.matrix**2))


class TestAlternatingFit:
    def _setup(self, seed, N=10, M=6):
        rng = np.random.default_rng(seed)
        K = random_psd(rng, N) + 0.1 * np.eye(N)
        T = rng.standard_normal((N, M))
        return K, T

    def test_first_w_step_is_plain_kr(self):
        K, T = self._setup(11)
        hyper = Hyperparams(alpha=0.5, beta=2.0)
        # initialization L = 0 makes the first fit independent of beta
        kr_psi = np.linalg.solve(K + 0.5 * np.eye(10), T)
        L0 = Laplacian(np.zeros((6, 6)))
        first = fit_krg(K, T, L0, hyper).psi
        np.testing.assert_allclose(first, kr_psi, rtol=1e-8)

    def test_substeps_monotone(self):
        for seed in range(10):
            K, T = self._setup(100 + seed)
            hyper = Hyperparams(alpha=0.3, beta=1.0)
            cfg = GraphLearnConfig(nu=0.5, max_outer_iters=8)
            _, _, costs = alternating_fit(K, T, hyper, cfg)
            # from the first trace-constrained L on, no sub-step may
            # increase the joint cost
            for k in range(1, len(costs)):
                prev_after_l = costs[k - 1][1]
                cost_w, cost_l = costs[k]
                assert cost_w <= prev_after_l * (1 + 1e-10) + 1e-12
                assert cost_l <= cost_w * (1 + 1e-10) + 1e-12

    def test_substeps_monotone_on_a_low_rank_gram(self):
        """At N = 600 the paper-normalized rbf Gram of 2-D inputs takes
        the rank-revealing cache, whose W-steps are still exact."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((600, 2))
        K, _ = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=1.0))
        T = np.sin(X @ rng.standard_normal((2, 8))) \
            + 0.1 * rng.standard_normal((600, 8))
        L0 = Laplacian(np.zeros((8, 8)))
        assert SpectralCache.build(K, L0).u.shape[1] < 600 // 4
        _, _, costs = alternating_fit(K, T, Hyperparams(alpha=0.3, beta=1.0),
                                      GraphLearnConfig(nu=0.5, max_outer_iters=6))
        for k in range(1, len(costs)):
            cost_w, cost_l = costs[k]
            assert cost_w <= costs[k - 1][1] * (1 + 1e-10) + 1e-12
            assert cost_l <= cost_w * (1 + 1e-10) + 1e-12

    def test_fits_and_learns_with_hyper_beta(self):
        K, T = self._setup(17)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=4)
        fits = {b: alternating_fit(K, T, Hyperparams(0.3, b), cfg)
                for b in (0.0, 7.0)}
        for b, (model, _, _) in fits.items():
            assert model.hyper == Hyperparams(0.3, b)
            refit = fit_krg(K, T, model.laplacian, Hyperparams(0.3, b)).psi
            np.testing.assert_allclose(model.psi, refit, rtol=1e-10)
        assert not np.array_equal(fits[0.0][0].psi, fits[7.0][0].psi)
        assert not np.array_equal(fits[0.0][1].matrix, fits[7.0][1].matrix)

    def test_huge_nu_gives_uniform_weights(self):
        K, T = self._setup(12)
        hyper = Hyperparams(alpha=0.3, beta=1.0)
        cfg = GraphLearnConfig(nu=1e6, max_outer_iters=3, trace_budget=6.0)
        model, L, _ = alternating_fit(K, T, hyper, cfg)
        w = -model.laplacian.matrix[np.triu_indices(6, 1)]
        np.testing.assert_allclose(w, np.full(15, 3.0 / 15), rtol=1e-3)

    def test_recovers_er_support_better_than_chance(self):
        # learned weights should correlate positively with the generating
        # graph's edge weights, averaged over seeds
        corrs = []
        for seed in range(20):
            rng = np.random.default_rng(300 + seed)
            g = erdos_renyi(10, 0.3, seed=seed)
            L_true = build_laplacian(g)
            # smooth targets over the true graph, well-conditioned kernel
            K = random_psd(rng, 20) + 0.5 * np.eye(20)
            R = rng.standard_normal((20, 10))
            T = np.linalg.solve(np.eye(10) + 2.0 * L_true.matrix, R.T).T
            cfg = GraphLearnConfig(nu=0.05, max_outer_iters=10)
            model, _, _ = alternating_fit(
                K, T, Hyperparams(alpha=0.1, beta=2.0), cfg)
            w_learned = -model.laplacian.matrix[np.triu_indices(10, 1)]
            w_true = g.adjacency[np.triu_indices(10, 1)]
            rho = spearmanr(w_learned, w_true).statistic
            if not np.isnan(rho):
                corrs.append(rho)
        assert np.mean(corrs) > 0

    def test_determinism_and_cost_trace(self):
        K, T = self._setup(13)
        hyper = Hyperparams(alpha=0.2, beta=1.5)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=6)
        out1 = alternating_fit(K, T, hyper, cfg)
        out2 = alternating_fit(K, T, hyper, cfg)
        np.testing.assert_array_equal(out1[2], out2[2])
        np.testing.assert_array_equal(out1[0].psi, out2[0].psi)
        assert len(out1[2]) >= 1

    def test_gram_eigendecomposed_once(self, monkeypatch):
        """Also with the records kept: their spectral radius, which the
        final rescale reads too, comes from the eigendecompositions that
        the fits use."""
        N, M = 10, 6
        K, T = self._setup(16, N=N, M=M)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=5, tol=1e-12)
        expected = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg)
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh",
            lambda a, **kw: shapes.append(np.shape(a)) or eigh(a, **kw))
        model, L, costs = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg,
                                          records=[])
        assert len(costs) == 5
        assert shapes.count((N, N)) == 1
        assert shapes.count((M, M)) == 6  # L = 0, four L-steps, final L
        np.testing.assert_array_equal(model.psi, expected[0].psi)
        np.testing.assert_array_equal(L.matrix, expected[1].matrix)

    @pytest.mark.parametrize("iterations", [1, 3, 5])
    def test_one_model_whatever_the_iterations(self, monkeypatch, iterations):
        """The W-steps need only psi; the final refit makes the one model."""
        models, make = [], solver.KrgModel
        monkeypatch.setattr(solver, "KrgModel",
                            lambda **kw: models.append(kw) or make(**kw))
        K, T = self._setup(17)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=iterations, tol=1e-12)
        model, _, costs = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg)
        assert len(costs) == iterations and len(models) == 1
        np.testing.assert_array_equal(model.psi, models[0]["psi"])

    def test_one_k_psi_per_outer_iteration(self):
        """Both joint costs and the L-step of an iteration share Y = K Psi."""
        products = []

        class CountingGram(np.ndarray):
            def __matmul__(self, other):
                products.append(np.shape(other))
                return np.asarray(self) @ other

        K, T = self._setup(18)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=4, tol=1e-12)
        expected = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg)
        model, L, costs = alternating_fit(K.view(CountingGram), T,
                                          Hyperparams(0.3, 1.0), cfg)
        assert len(costs) == 4
        assert products == [T.shape] * 4
        np.testing.assert_array_equal(costs, expected[2])
        np.testing.assert_array_equal(model.psi, expected[0].psi)
        np.testing.assert_array_equal(L.matrix, expected[1].matrix)

    def test_no_svd_of_a_laplacian(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("SVD called")
        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg._linalg, "svd", svd)  # norm(., 2)'s
        K, T = self._setup(15)
        records = []
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=3)
        _, L, costs = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg,
                                      records)
        radii = [record["spectral_radius"] for record in records]
        assert len(radii) == len(costs) and min(radii) > 0
        assert L.eigendecomposition()[0][-1] == pytest.approx(1.0, abs=1e-12)

    def test_one_node_rejected_before_the_log_is_opened(self):
        K, T = self._setup(15, M=1)
        records = []
        with pytest.raises(DimensionError, match="M >= 2"):
            alternating_fit(K, T, Hyperparams(0.3, 1.0),
                            GraphLearnConfig(nu=0.5), records)
        assert records == []

    def test_returned_laplacian_rescaled(self):
        K, T = self._setup(14)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=3)
        _, L, _ = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg)
        assert np.linalg.norm(L.matrix, 2) == pytest.approx(1.0, abs=1e-8)

    def test_jsonl_diagnostics(self):
        """One record per outer iteration, appended to the caller's list,
        with its keys in the order iterations.jsonl writes them."""
        K, T = self._setup(15)
        cfg = GraphLearnConfig(nu=0.5, max_outer_iters=3)
        records = []
        _, _, costs = alternating_fit(K, T, Hyperparams(0.3, 1.0), cfg,
                                      records)
        assert len(records) == len(costs) >= 1
        for it, rec in enumerate(records):
            assert list(rec) == ["iter", "cost_after_w_step",
                                 "cost_after_l_step", "spectral_radius",
                                 "edge_sparsity", "qp_newton_steps",
                                 "qp_kkt_residual"]
            assert rec["iter"] == it


class TestGraphLearnConfig:
    @pytest.mark.parametrize("field,value", [
        ("nu", np.nan), ("nu", -0.5), ("max_outer_iters", 0), ("tol", 0.0), ("tol", np.nan),
        ("trace_budget", 0.0), ("trace_budget", np.nan),
        ("trace_budget", np.inf),
    ])
    def test_bad_value_is_krgraph_error(self, field, value):
        with pytest.raises(KrgraphError, match=field):
            GraphLearnConfig(**{"nu": 0.5, field: value})

    def test_beta_is_not_a_field(self):
        with pytest.raises(TypeError):
            GraphLearnConfig(nu=0.5, beta=1.0)
