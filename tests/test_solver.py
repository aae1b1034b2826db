import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

from krgraph import kernels, solver
from krgraph.errors import (ConvergenceError, DataFormatError,
                            DimensionError, KrgraphError, SingularSystemError)
from krgraph.graphs import Laplacian, eigh_psd
from krgraph.kernels import KernelSpec, gram_matrix
from krgraph.solver import (
    Hyperparams,
    SpectralCache,
    check_weights,
    cost_terms,
    dual_cost,
    dual_cost_gradient,
    fit_krg,
    fit_lrg,
    grid_error_energies,
    load_model,
    predict_krg,
    predict_lrg,
    save_model,
    shrinkage_factors,
    solve_sylvester_eigenbasis,
    solve_sylvester_spectral,
    sylvester_residual,
)
from oracles import (
    dense_eigh_dual_solve,
    dense_kron_dual_solve,
    dense_kron_primal_solve,
    eigenbasis_grid_out_of_place,
    infinite_beta_dual_solve,
    null_space_laplacians,
    random_laplacian_matrix,
    random_psd,
)

NULL_SPACE_CASES = null_space_laplacians()


def make_instance(seed, N=12, M=8, d=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, d))
    T = rng.standard_normal((N, M))
    L = Laplacian(random_laplacian_matrix(rng, M))
    return X, T, L


class TestSpectralCache:
    def test_reconstructs_inputs(self):
        rng = np.random.default_rng(0)
        K = random_psd(rng, 9)
        L = Laplacian(random_laplacian_matrix(rng, 6))
        cache = SpectralCache.build(K, L)
        np.testing.assert_allclose(cache.u.T @ cache.u, np.eye(9), atol=1e-8)
        np.testing.assert_allclose(cache.v.T @ cache.v, np.eye(6), atol=1e-8)
        np.testing.assert_allclose(
            cache.u @ np.diag(cache.theta) @ cache.u.T, K,
            atol=1e-8 * np.linalg.norm(K))
        np.testing.assert_allclose(
            cache.v @ np.diag(cache.lam) @ cache.v.T, L.matrix, atol=1e-8)
        assert cache.theta.min() >= 0
        assert cache.lam.min() >= 0

    def test_no_build_overwrites_the_kernel(self):
        """Every caller reads its K again after the build: an eigh build, a
        pivoted Cholesky one and an eigh one past the rank cap only read K."""
        from krgraph.graphlearn import GraphLearnConfig, alternating_fit

        rng = np.random.default_rng(1)
        K = random_psd(rng, 9, rank=4)
        L = Laplacian(random_laplacian_matrix(rng, 5))
        T = rng.standard_normal((9, 5))
        K0, L0 = K.copy(), L.matrix.copy()
        hyper = Hyperparams(alpha=0.3, beta=0.5)
        SpectralCache.build(K, L)
        fit_krg(K, T, L, hyper)
        alternating_fit(K, T, hyper, GraphLearnConfig(nu=0.5, max_outer_iters=2))
        assert np.array_equal(K, K0) and np.array_equal(L.matrix, L0)
        for K, origin in [
                (large_gram("linear")[0], "pivoted Cholesky to the trace bound"),
                (random_psd(rng, 512), "eigh, the pivoted Cholesky having "
                 "reached its rank cap 128")]:
            K0 = K.copy()
            assert SpectralCache.build(K, L).origin == origin
            assert np.array_equal(K, K0)


class TestSylvesterSpectral:
    def test_identity_kernel_zero_laplacian(self):
        N, M = 6, 4
        cache = SpectralCache.build(np.eye(N), Laplacian(np.zeros((M, M))))
        RHS = np.random.default_rng(1).standard_normal((N, M))
        out = solve_sylvester_spectral(cache, RHS, Hyperparams(alpha=0.3, beta=2.0))
        np.testing.assert_allclose(out, RHS / 1.3, rtol=1e-12)

    def test_identity_kernel_diagonalized_by_hand(self):
        rng = np.random.default_rng(2)
        L = Laplacian(random_laplacian_matrix(rng, 5))
        lam, V = np.linalg.eigh(L.matrix)
        cache = SpectralCache.build(np.eye(7), L)
        RHS = rng.standard_normal((7, 5))
        out = solve_sylvester_spectral(cache, RHS, Hyperparams(alpha=0.2, beta=1.0))
        # columns of (out V) are (RHS V) columns scaled by 1/(1 + alpha + lam)
        np.testing.assert_allclose(out @ V, (RHS @ V) / (1.2 + lam), rtol=1e-8)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        K = random_psd(rng, 12)
        L = Laplacian(random_laplacian_matrix(rng, 8))
        T = rng.standard_normal((12, 8))
        cache = SpectralCache.build(K, L)
        out = solve_sylvester_spectral(cache, T, Hyperparams(alpha=0.1, beta=0.7))
        expected = dense_kron_dual_solve(K, L.matrix, T, 0.1, 0.7)
        np.testing.assert_allclose(out, expected, rtol=1e-8)

    def test_near_singular_reports_pair(self):
        K = np.zeros((3, 3))  # theta = 0 everywhere
        cache = SpectralCache.build(K, Laplacian(np.zeros((2, 2))))
        with pytest.raises(SingularSystemError, match="theta"):
            solve_sylvester_spectral(cache, np.ones((3, 2)),
                                     Hyperparams(alpha=0.0, beta=0.0))

    def test_dimension_check(self):
        cache = SpectralCache.build(np.eye(3), Laplacian(np.zeros((2, 2))))
        with pytest.raises(DimensionError):
            solve_sylvester_spectral(cache, np.ones((2, 3)),
                                     Hyperparams(alpha=1.0, beta=0.0))


class TestInfiniteBetaLimit:
    """At beta 1e20, every graph-smoothness mode but L's null space is
    shrunk to nothing; the null space itself must not be touched."""

    @pytest.mark.parametrize("case", NULL_SPACE_CASES)
    def test_huge_beta_keeps_only_the_null_space(self, case):
        L = Laplacian(NULL_SPACE_CASES[case])
        rng = np.random.default_rng(4)
        K = random_psd(rng, 20, rank=40)   # full rank, well conditioned
        T = rng.standard_normal((20, L.num_nodes))
        out = solve_sylvester_spectral(SpectralCache.build(K, L), T,
                                       Hyperparams(alpha=0.1, beta=1e20))
        expected = infinite_beta_dual_solve(K, L.matrix, T, 0.1)
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())


def large_gram(kind, N=600, seed=0, M=10):
    """A Gram past the rank-revealing gate: the paper-normalized rbf on 2-D
    inputs, whose Z grows with N so that K is flat and numerically of low
    rank, or the linear kernel on 3-D inputs, of rank 3. Returns
    (K, X, L, T)."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((N, 2 if kind == "rbf" else 3))
    spec = KernelSpec(kind=kind, sigma_sq=1.0 if kind == "rbf" else None)
    K, _ = gram_matrix(X, spec)
    L = Laplacian(random_laplacian_matrix(rng, M))
    return K, X, L, rng.standard_normal((N, M))


class TestRankRevealingCache:
    """At N >= 512 a pivoted Cholesky that meets the trace bound below
    rank N // 4 gives a cache of u's r columns, theta = 0 on the rest."""

    @pytest.mark.parametrize("kind, rank", [("rbf", 21), ("linear", 3)])
    def test_low_rank_gram_within_the_trace_bound(self, kind, rank):
        K, _, L, _ = large_gram(kind)
        cache = SpectralCache.build(K, L)
        assert cache.u.shape == (600, rank) and cache.theta.shape == (rank,)
        assert cache.origin == "pivoted Cholesky to the trace bound"
        assert cache.theta.min() >= 0
        np.testing.assert_allclose(cache.u.T @ cache.u, np.eye(rank),
                                   rtol=0, atol=1e-13)
        bound = np.finfo(float).eps * np.trace(K)
        assert np.linalg.norm(K - (cache.u * cache.theta) @ cache.u.T, 2) \
            <= 10 * bound

    @pytest.mark.parametrize("kind", ["rbf", "linear"])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_eigh_oracle(self, kind, beta, seed):
        K, _, L, T = large_gram(kind, seed=seed)
        cache = SpectralCache.build(K, L)
        assert cache.u.shape[1] < 600 // 4
        for alpha in (0.1, 0.01):
            out = solve_sylvester_spectral(cache, T, Hyperparams(alpha, beta))
            expected = dense_eigh_dual_solve(K, L.matrix, T, alpha, beta)
            assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(
                expected)

    @pytest.mark.parametrize("case", ["er50_p0.03_seed0", "learned12"])
    def test_huge_beta_is_the_limit(self, case):
        """The linear Gram has exact rank 3, so the limit keeps T's part in
        its null space off L's, over alpha; the rbf Gram is full rank only
        below roundoff, so there the fitted K Psi is what is determined."""
        L = Laplacian(NULL_SPACE_CASES[case])
        hyper = Hyperparams(alpha=0.1, beta=1e20)
        for kind in ("linear", "rbf"):
            K, X, _, _ = large_gram(kind, M=2)
            T = np.random.default_rng(5).standard_normal((600, L.num_nodes))
            out = solve_sylvester_spectral(SpectralCache.build(K, L), T, hyper)
            if kind == "linear":
                expected = infinite_beta_dual_solve(
                    K, L.matrix, T, 0.1, kernel_range=np.linalg.qr(X)[0])
            else:
                out, expected = K @ out, K @ infinite_beta_dual_solve(
                    K, L.matrix, T, 0.1)
            assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(
                expected)

    def test_alpha_zero_names_the_complement(self):
        K, _, L, T = large_gram("rbf")
        cache = SpectralCache.build(K, L)
        with pytest.raises(SingularSystemError,
                           match=r"eta=0\.000e\+00 at kernel eigenvalue "
                                 r"theta=0\.000e\+00.*needs alpha > 0"):
            solve_sylvester_spectral(cache, T, Hyperparams(0.0, 1.0))
        with pytest.raises(SingularSystemError, match=r"theta=0\.000e\+00"):
            fit_krg(K, T, L, Hyperparams(0.0, 0.0))

    def test_shrinkage_and_grid_cover_the_range_only(self):
        K, _, L, T = large_gram("linear")
        cache = SpectralCache.build(K, L)
        assert shrinkage_factors(cache, Hyperparams(0.1, 1.0)).shape == (3, 10)
        C, rest = solve_sylvester_eigenbasis(cache, T, [0.1, 1.0], [0.0, 2.0])
        assert C.shape == (2, 2, 3, 10) and rest.shape == T.shape
        assert np.abs(cache.u.T @ rest).max() <= 1e-12 * np.abs(T).max()

    @pytest.mark.parametrize("score", [False, True], ids=["solve", "grid"])
    def test_rhs_projected_onto_u_once(self, score):
        """A low-rank solve, or a grid score, forms u^T RHS once and reuses
        it for the complement's first pass; the second pass projects that
        pass's remainder. Two products with u^T, bit for bit the result."""
        K, _, L, T = large_gram("rbf")
        cache = SpectralCache.build(K, L)
        r, N = cache.u.T.shape
        operands = []

        class CountingBasis(np.ndarray):
            def __matmul__(self, other):
                if self.shape == (r, N):  # u^T
                    operands.append(other)
                return np.asarray(self) @ other

        rng = np.random.default_rng(8)
        A, T_ref = rng.standard_normal((7, N)), rng.standard_normal((7, 10))

        def run(cache):
            if score:
                return grid_error_energies(cache, T, [0.1, 1.0], [0.0, 2.0],
                                           A, T_ref)
            return solve_sylvester_spectral(cache, T, Hyperparams(0.1, 1.0))

        expected = run(cache)
        counted = dataclasses.replace(cache, u=cache.u.view(CountingBasis))
        assert np.array_equal(run(counted), expected)
        assert [other is T for other in operands] == [True, False]

    @pytest.mark.parametrize("case", ["full_rank", "low_rank", "primal"])
    def test_grid_error_energies_match_back_projected_solves(self, case):
        """||A X[a, b] - T_ref||_F^2 from the joint eigenbasis equals the
        same energy of each point's solve, formed and multiplied out."""
        rng = np.random.default_rng(9)
        if case == "low_rank":
            K, _, L, RHS = large_gram("rbf")
            A = rng.standard_normal((7, 600))
        elif case == "full_rank":
            K, L = random_psd(rng, 9), Laplacian(random_laplacian_matrix(rng, 10))
            RHS, A = rng.standard_normal((9, 10)), rng.standard_normal((7, 9))
        else:  # feature Gram: RHS = Phi^T T, scored on validation features
            Phi, L = rng.standard_normal((30, 4)), Laplacian(
                random_laplacian_matrix(rng, 10))
            K, RHS = Phi.T @ Phi, Phi.T @ rng.standard_normal((30, 10))
            A = rng.standard_normal((7, 4))
        cache = SpectralCache.build(K, L)
        assert (cache.u.shape[1] < cache.u.shape[0]) == (case == "low_rank")
        T_ref = rng.standard_normal((7, 10))
        alphas, betas = [0.05, 1.0, 0.3], [0.0, 2.0]
        energies = grid_error_energies(cache, RHS, alphas, betas, A, T_ref)
        assert energies.shape == (3, 2)
        for a, b in np.ndindex(3, 2):
            X = solve_sylvester_spectral(cache, RHS,
                                         Hyperparams(alphas[a], betas[b]))
            assert energies[a, b] == pytest.approx(
                np.sum((A @ X - T_ref) ** 2), rel=1e-10)

    @pytest.mark.parametrize("N, low_rank", [(511, True), (512, False)])
    def test_otherwise_eigh_psd_bit_for_bit(self, N, low_rank):
        """Below the gate even a low-rank Gram, and past the rank cap a
        full-rank one, get eigh_psd's eigenpairs."""
        if low_rank:
            K, _, L, _ = large_gram("rbf", N=N)
        else:
            rng = np.random.default_rng(6)
            K, L = random_psd(rng, N), Laplacian(random_laplacian_matrix(rng, 4))
        theta, U = eigh_psd(K)
        cache = SpectralCache.build(K, L)
        assert np.array_equal(cache.theta, theta)
        assert np.array_equal(cache.u, U)
        assert cache.origin == ("eigh" if low_rank else "eigh, the pivoted "
                                "Cholesky having reached its rank cap 128")


class TestSylvesterGrid:
    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        K = random_psd(rng, 9)
        L = Laplacian(random_laplacian_matrix(rng, 6))
        return K, L, rng.standard_normal((9, 6))

    def test_equals_per_point_solve_bitwise(self):
        K, L, T = self._instance(40)
        cache = SpectralCache.build(K, L)
        alphas, betas = [0.5, 0.01, 0.5, 2.0], [0.0, 3.0, 0.7]
        C, rest = solve_sylvester_eigenbasis(cache, T, alphas, betas)
        assert C.shape == (4, 3, 9, 6) and rest is None
        for a, alpha in enumerate(alphas):
            for b, beta in enumerate(betas):
                one = solve_sylvester_spectral(cache, T, Hyperparams(alpha, beta))
                assert np.array_equal(cache.u @ C[a, b] @ cache.v.T, one)

    def test_matches_dense_oracle(self):
        K, L, T = self._instance(41)
        cache = SpectralCache.build(K, L)
        alphas, betas = [0.05, 1.0], [0.0, 0.4, 5.0]
        C, _ = solve_sylvester_eigenbasis(cache, T, alphas, betas)
        X = cache.u @ C @ cache.v.T
        for a, alpha in enumerate(alphas):
            for b, beta in enumerate(betas):
                np.testing.assert_allclose(
                    X[a, b], dense_kron_dual_solve(K, L.matrix, T, alpha, beta),
                    rtol=1e-8, atol=1e-10)

    def test_one_singular_point_fails_the_grid(self):
        cache = SpectralCache.build(np.diag([0.0, 1.0, 2.0]),
                                    Laplacian(np.zeros((2, 2))))
        with pytest.raises(SingularSystemError, match="theta=0.000e\\+00"):
            solve_sylvester_eigenbasis(cache, np.ones((3, 2)), [1.0, 0.0], [0.5])

    def test_overflowing_beta_fails_the_grid_quietly(self):
        """beta * theta overflows to inf, and inf * lam = inf * 0 is NaN,
        which no ordered comparison with the floor rejects on its own."""
        cache = SpectralCache.build(np.diag([1.0, 2.0, 4.0]),
                                    Laplacian(np.zeros((2, 2))))
        with np.errstate(all="raise"), pytest.raises(
                KrgraphError, match=r"alpha=0\.5, beta=1e\+308 overflow"):
            solve_sylvester_eigenbasis(cache, np.ones((3, 2)), [0.5],
                                       [1.0, 1e308])

    def test_grid_is_eigenbasis_solution_back_projected(self):
        """U C V^T over the whole grid at once gives each point's single
        solve bit for bit."""
        rng = np.random.default_rng(42)
        K, L, T = self._instance(42)
        cache = SpectralCache.build(K, L)
        alphas, betas = rng.uniform(0.01, 2.0, 3), rng.uniform(0.0, 5.0, 4)
        C, _ = solve_sylvester_eigenbasis(cache, T, alphas, betas)
        X = cache.u @ C @ cache.v.T
        for a, b in np.ndindex(3, 4):
            assert np.array_equal(X[a, b], solve_sylvester_spectral(
                cache, T, Hyperparams(alphas[a], betas[b])))

    @pytest.mark.parametrize("case", ["full_rank", "low_rank", "primal",
                                      "unsorted_repeats"])
    def test_in_place_forms_equal_the_out_of_place_oracle(self, case):
        """C formed in eta's buffer, and the residual updated and squared
        in place, give the oracle's new-array expressions bit for bit: on a
        square cache, on a low-rank one with a complement, on a primal
        (feature Gram) one, and on a grid out of order with repeats."""
        rng = np.random.default_rng(44)
        alphas, betas = [0.05, 1.0, 0.3], [0.0, 2.0]
        if case == "low_rank":
            K, _, L, RHS = large_gram("rbf")
            A = rng.standard_normal((7, 600))
        elif case == "primal":
            Phi, L = rng.standard_normal((30, 4)), Laplacian(
                random_laplacian_matrix(rng, 10))
            K, RHS = Phi.T @ Phi, Phi.T @ rng.standard_normal((30, 10))
            A = rng.standard_normal((7, 4))
        else:
            K = random_psd(rng, 9)
            L = Laplacian(random_laplacian_matrix(rng, 10))
            RHS, A = rng.standard_normal((9, 10)), rng.standard_normal((7, 9))
            if case == "unsorted_repeats":
                alphas, betas = [1.0, 0.05, 1.0, 0.3], [2.0, 0.0, 2.0]
        cache = SpectralCache.build(K, L)
        assert (cache.u.shape[1] < cache.u.shape[0]) == (case == "low_rank")
        T_ref = rng.standard_normal((7, 10))
        C_ref, rest_ref, E_ref = eigenbasis_grid_out_of_place(
            cache, RHS, alphas, betas, A, T_ref)
        C, rest = solve_sylvester_eigenbasis(cache, RHS, alphas, betas)
        assert np.array_equal(C, C_ref)
        assert (rest is None if rest_ref is None
                else np.array_equal(rest, rest_ref))
        assert np.array_equal(
            grid_error_energies(cache, RHS, alphas, betas, A, T_ref), E_ref)

    def test_grid_scoring_peaks_below_two_grid_arrays(self):
        """One grid_error_energies call at the shipped sweep's fold shape
        (40 fit rows, 10 validation rows, M = 50, its 4 x 6 grid) holds at
        most 1.5 grid-sized (A, B, r, M) float64 arrays at its peak, as
        numpy reports its buffers to tracemalloc: C takes eta's buffer, and
        the residual is squared where it was formed."""
        rng = np.random.default_rng(45)
        X = rng.standard_normal((50, 3))
        K, spec = gram_matrix(X[:40], KernelSpec(kind="rbf", sigma_sq=1.0))
        L = Laplacian(random_laplacian_matrix(rng, 50))
        cache = SpectralCache.build(K, L)
        A = kernels.kernel_cross_matrix(X[:40], X[40:], spec)
        T, T_ref = rng.standard_normal((40, 50)), rng.standard_normal((10, 50))
        alphas = [0.001, 0.01, 0.1, 1.0]
        betas = [0.0, 0.1, 0.3, 1.0, 3.0, 10.0]
        grid_error_energies(cache, T, alphas, betas, A, T_ref)  # warm-up
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            grid_error_energies(cache, T, alphas, betas, A, T_ref)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (4 * 6 * 40 * 50 * 8)

    def test_eigenbasis_rejects_rhs_of_wrong_shape(self):
        K, L, _ = self._instance(43)
        with pytest.raises(DimensionError, match="RHS shape"):
            solve_sylvester_eigenbasis(SpectralCache.build(K, L),
                                       np.ones((6, 9)), [1.0], [0.0])

    def test_shrinkage_matches_solve(self):
        # zeta = theta / eta is the solve's per-eigenpair fitted gain
        K, L, T = self._instance(42)
        cache = SpectralCache.build(K, L)
        hyper = Hyperparams(alpha=0.3, beta=1.2)
        zeta = shrinkage_factors(cache, hyper)
        fitted = K @ solve_sylvester_spectral(cache, T, hyper)
        np.testing.assert_allclose(
            cache.u.T @ fitted @ cache.v, zeta * (cache.u.T @ T @ cache.v),
            atol=1e-10)


class TestFitKrg:
    def test_beta_zero_reduces_to_ridge(self):
        rng = np.random.default_rng(4)
        K = random_psd(rng, 10)
        T = rng.standard_normal((10, 4))
        L = Laplacian(random_laplacian_matrix(rng, 4))
        model = fit_krg(K, T, L, Hyperparams(alpha=0.5, beta=0.0))
        expected = np.linalg.solve(K + 0.5 * np.eye(10), T)
        np.testing.assert_allclose(model.psi, expected, rtol=1e-8)

    def test_zero_laplacian_same_as_beta_zero(self):
        rng = np.random.default_rng(5)
        K = random_psd(rng, 8)
        T = rng.standard_normal((8, 3))
        L0 = Laplacian(np.zeros((3, 3)))
        a = fit_krg(K, T, L0, Hyperparams(alpha=0.3, beta=5.0)).psi
        b = fit_krg(K, T, L0, Hyperparams(alpha=0.3, beta=0.0)).psi
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(6)
        K = random_psd(rng, 12)
        L = Laplacian(random_laplacian_matrix(rng, 8))
        T = rng.standard_normal((12, 8))
        model = fit_krg(K, T, L, Hyperparams(alpha=0.1, beta=0.7))
        expected = dense_kron_dual_solve(K, L.matrix, T, 0.1, 0.7)
        np.testing.assert_allclose(model.psi, expected, rtol=1e-8)

    def test_zero_targets(self):
        rng = np.random.default_rng(7)
        K = random_psd(rng, 6)
        L = Laplacian(random_laplacian_matrix(rng, 4))
        model = fit_krg(K, np.zeros((6, 4)), L,
                        Hyperparams(alpha=0.1, beta=1.0))
        assert np.allclose(model.psi, 0)

    def test_normal_equation_residual(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            K = random_psd(rng, 11)
            L = Laplacian(random_laplacian_matrix(rng, 7))
            T = rng.standard_normal((11, 7))
            hyper = Hyperparams(alpha=10.0 ** rng.uniform(-2, 1),
                                beta=10.0 ** rng.uniform(-2, 1))
            psi = fit_krg(K, T, L, hyper).psi
            resid = (K + hyper.alpha * np.eye(11)) @ psi \
                + hyper.beta * K @ psi @ L.matrix - T
            assert np.linalg.norm(resid, "fro") <= 1e-8 * np.linalg.norm(T, "fro")

    def test_given_cache_supplies_only_the_kernel_eigenpairs(self):
        """A cache built with another Laplacian solves with L, the one the
        model records, bit for bit as a fit that builds its own cache."""
        rng = np.random.default_rng(9)
        K = random_psd(rng, 12)
        L1, L2 = (Laplacian(random_laplacian_matrix(rng, 5)) for _ in "ab")
        assert not np.array_equal(L1.matrix, L2.matrix)
        T = rng.standard_normal((12, 5))
        hyper = Hyperparams(alpha=0.2, beta=0.8)
        model = fit_krg(K, T, L2, hyper, cache=SpectralCache.build(K, L1))
        assert model.laplacian is L2
        assert np.array_equal(model.psi, fit_krg(K, T, L2, hyper).psi)
        resid = sylvester_residual(K @ model.psi, model.psi, T, L2, hyper)
        assert np.linalg.norm(resid, "fro") <= 1e-10 * np.linalg.norm(T, "fro")

    def test_alpha_zero_singular_kernel_raises(self):
        K = np.zeros((4, 4))
        L = Laplacian(np.zeros((3, 3)))
        with pytest.raises(SingularSystemError):
            fit_krg(K, np.ones((4, 3)), L, Hyperparams(alpha=0.0, beta=0.0))


class TestPredictKrg:
    def _fitted(self, seed, alpha=0.2, beta=0.6):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((10, 3))
        T = rng.standard_normal((10, 5))
        L = Laplacian(random_laplacian_matrix(rng, 5))
        spec = KernelSpec(kind="rbf", sigma_sq=1.0)
        K, spec = gram_matrix(X, spec)
        model = fit_krg(K, T, L, Hyperparams(alpha=alpha, beta=beta),
                        x_train=X, spec=spec)
        return model, X, T, K

    def test_beta_zero_matches_kr_closed_form(self):
        model, X, T, K = self._fitted(8, beta=0.0)
        rng = np.random.default_rng(88)
        for _ in range(20):
            x = rng.standard_normal(3)
            k = np.exp(-np.sum((X - x) ** 2, axis=1) / model.spec.rbf_normalizer)
            expected = T.T @ np.linalg.solve(
                K + 0.2 * np.eye(10), k)
            np.testing.assert_allclose(predict_krg(model, x), expected,
                                       rtol=1e-10, atol=1e-12)

    def test_interpolation_limit(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((8, 2))
        T = rng.standard_normal((8, 4))
        L = Laplacian(random_laplacian_matrix(rng, 4))
        spec = KernelSpec(kind="rbf", sigma_sq=1.0)
        K, spec = gram_matrix(X, spec)
        model = fit_krg(K, T, L, Hyperparams(alpha=1e-10, beta=0.0),
                        x_train=X, spec=spec)
        y = predict_krg(model, X[3])
        np.testing.assert_allclose(y, T[3], atol=1e-5)

    def test_zero_cross_kernel_gives_zero(self):
        model, *_ = self._fitted(10)
        y = model.psi.T @ np.zeros(10)
        assert np.array_equal(y, np.zeros(5))


class TestFitLrg:
    def test_beta_zero_is_ridge(self):
        X, T, L = make_instance(11)
        W = fit_lrg(X, T, L, Hyperparams(alpha=0.4, beta=0.0))
        G = X.T @ X
        expected = np.linalg.solve(G + 0.4 * np.eye(5), X.T @ T)
        np.testing.assert_allclose(W, expected, rtol=1e-9)

    def test_zero_targets(self):
        X, T, L = make_instance(12)
        W = fit_lrg(X, np.zeros_like(T), L, Hyperparams(alpha=0.1, beta=0.5))
        assert np.allclose(W, 0)

    def test_matches_dense_oracle(self):
        X, T, L = make_instance(13)
        W = fit_lrg(X, T, L, Hyperparams(alpha=0.1, beta=0.5))
        expected = dense_kron_primal_solve(X, L.matrix, T, 0.1, 0.5)
        np.testing.assert_allclose(W, expected, rtol=1e-8)

    def test_rank_deficient_alpha_zero_raises(self):
        rng = np.random.default_rng(14)
        X = np.zeros((6, 4))
        T = rng.standard_normal((6, 3))
        L = Laplacian(random_laplacian_matrix(rng, 3))
        with pytest.raises(SingularSystemError):
            fit_lrg(X, T, L, Hyperparams(alpha=0.0, beta=0.0))

    def test_normal_equation_residual(self):
        X, T, L = make_instance(15)
        hyper = Hyperparams(alpha=0.05, beta=2.0)
        W = fit_lrg(X, T, L, hyper)
        G = X.T @ X
        resid = (G + hyper.alpha * np.eye(5)) @ W \
            + hyper.beta * G @ W @ L.matrix - X.T @ T
        rhs = np.linalg.norm(X.T @ T, "fro")
        assert np.linalg.norm(resid, "fro") <= 1e-8 * rhs


class TestPredictLrg:
    def test_zero_input(self):
        X, T, L = make_instance(16)
        W = fit_lrg(X, T, L, Hyperparams(alpha=0.1, beta=0.1))
        assert np.array_equal(predict_lrg(W, np.zeros(5)), np.zeros(8))

    def test_identity_weights(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(predict_lrg(np.eye(3), x), x)

    def test_matches_direct_multiply(self):
        X, T, L = make_instance(17)
        W = fit_lrg(X, T, L, Hyperparams(alpha=0.1, beta=0.5))
        np.testing.assert_allclose(predict_lrg(W, X[0]), W.T @ X[0])


class TestDualCostGradient:
    def test_finite_difference_match(self):
        rng = np.random.default_rng(18)
        K = random_psd(rng, 7)
        L = Laplacian(random_laplacian_matrix(rng, 5))
        T = rng.standard_normal((7, 5))
        hyper = Hyperparams(alpha=0.3, beta=0.8)
        for _ in range(10):
            psi = rng.standard_normal((7, 5))
            analytic = dual_cost_gradient(K, psi, T, L, hyper)
            fd = np.zeros_like(psi)
            h = 1e-5
            for i in range(7):
                for j in range(5):
                    dp = np.zeros_like(psi)
                    dp[i, j] = h
                    fd[i, j] = (dual_cost(K, psi + dp, T, L, hyper)
                                - dual_cost(K, psi - dp, T, L, hyper)) / (2 * h)
            assert np.linalg.norm(fd - analytic) <= \
                1e-4 * max(np.linalg.norm(analytic), 1.0)

    def test_gradient_vanishes_at_fit(self):
        rng = np.random.default_rng(19)
        K = random_psd(rng, 9)
        L = Laplacian(random_laplacian_matrix(rng, 6))
        T = rng.standard_normal((9, 6))
        hyper = Hyperparams(alpha=0.2, beta=1.5)
        psi = fit_krg(K, T, L, hyper).psi
        grad = dual_cost_gradient(K, psi, T, L, hyper)
        assert np.linalg.norm(grad, "fro") <= 1e-6 * np.linalg.norm(T, "fro")

    def test_built_from_the_shared_cost_and_residual(self):
        rng = np.random.default_rng(20)
        K = random_psd(rng, 6)
        L = Laplacian(random_laplacian_matrix(rng, 4))
        T = rng.standard_normal((6, 4))
        psi = rng.standard_normal((6, 4))
        hyper = Hyperparams(alpha=0.4, beta=1.1)
        # the residual and the traces are evaluated from Y = K Psi, in
        # another order than the textbook forms: equal to roundoff
        rtol = 1e-12
        Y = K @ psi
        resid = sylvester_residual(Y, psi, T, L, hyper)
        np.testing.assert_allclose(
            resid, (K + 0.4 * np.eye(6)) @ psi + 1.1 * K @ psi @ L.matrix - T,
            rtol=0, atol=rtol * np.abs(resid).max())
        assert np.array_equal(dual_cost_gradient(K, psi, T, L, hyper),
                              2.0 * K @ resid)
        data, coefficient, roughness = cost_terms(Y, psi, T, L, hyper)
        assert data == np.sum((T - Y) ** 2)
        assert coefficient == pytest.approx(
            0.4 * np.trace(psi.T @ K @ psi), rel=rtol)
        assert roughness == pytest.approx(
            1.1 * np.trace(Y @ L.matrix @ Y.T), rel=rtol)
        # the dual form drops the constant ||T||_F^2 of the data term
        expanded = (-2.0 * np.trace(T.T @ Y) + np.trace(Y.T @ Y)
                    + coefficient + roughness)
        assert dual_cost(K, psi, T, L, hyper) == pytest.approx(
            expanded, rel=1e-12, abs=1e-12 * np.sum(T**2))


class TestLrgKrgEquivalence:
    def test_linear_kernel_predictions_agree(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            X = rng.standard_normal((10, 4))
            T = rng.standard_normal((10, 6))
            L = Laplacian(random_laplacian_matrix(rng, 6))
            hyper = Hyperparams(alpha=0.3, beta=0.9)
            lrg = fit_lrg(X, T, L, hyper)
            spec = KernelSpec(kind="linear")
            K, spec = gram_matrix(X, spec)
            krg = fit_krg(K, T, L, hyper, x_train=X, spec=spec)
            for _ in range(4):
                x = rng.standard_normal(4)
                y_l = predict_lrg(lrg, x)
                y_k = predict_krg(krg, x)
                np.testing.assert_allclose(
                    y_k, y_l, rtol=1e-8, atol=1e-8 * np.linalg.norm(y_l))


class TestSmoothing:
    def test_shrinkage_half(self):
        cache = SpectralCache(u=np.eye(1), theta=np.array([1.0]),
                              v=np.eye(1), lam=np.array([0.0]))
        z = shrinkage_factors(cache, Hyperparams(alpha=1.0, beta=3.0))
        assert z[0, 0] == pytest.approx(0.5)

    def test_zero_theta_gives_zero(self):
        cache = SpectralCache(u=np.eye(2), theta=np.array([0.0, 2.0]),
                              v=np.eye(1), lam=np.array([1.0]))
        z = shrinkage_factors(cache, Hyperparams(alpha=0.5, beta=1.0))
        assert z[0, 0] == 0.0

    def test_monotone_decreasing_in_lambda(self):
        cache = SpectralCache(u=np.eye(1), theta=np.array([2.0]),
                              v=np.eye(3),
                              lam=np.array([0.0, 1.0, 4.0]))
        z = shrinkage_factors(cache, Hyperparams(alpha=0.1, beta=0.5))[0]
        assert z[0] > z[1] > z[2]

    def test_factors_in_unit_interval(self):
        rng = np.random.default_rng(20)
        K = random_psd(rng, 10)
        L = Laplacian(random_laplacian_matrix(rng, 6))
        cache = SpectralCache.build(K, L)
        z = shrinkage_factors(cache, Hyperparams(alpha=0.01, beta=2.0))
        assert np.all(z >= 0)
        assert np.all(z < 1)

    def test_fitted_smoother_identity_kernel_beta_zero(self):
        K = np.eye(5)
        L = Laplacian(np.zeros((3, 3)))
        T = np.random.default_rng(22).standard_normal((5, 3))
        Y = K @ fit_krg(K, T, L, Hyperparams(alpha=0.5, beta=0.0)).psi
        np.testing.assert_allclose(Y, T / 1.5, rtol=1e-12)

    def test_huge_alpha_kills_output(self):
        rng = np.random.default_rng(23)
        K = random_psd(rng, 6)
        L = Laplacian(random_laplacian_matrix(rng, 4))
        T = rng.standard_normal((6, 4))
        Y = K @ fit_krg(K, T, L, Hyperparams(alpha=1e12, beta=1.0)).psi
        assert np.abs(Y).max() < 1e-9

    def test_roughness_nonincreasing_in_beta(self):
        rng = np.random.default_rng(24)
        K = random_psd(rng, 10)
        L = Laplacian(random_laplacian_matrix(rng, 6))
        T = rng.standard_normal((10, 6))
        rough = []
        for beta in [0.0, 0.1, 1.0, 10.0, 100.0]:
            Y = K @ fit_krg(K, T, L, Hyperparams(alpha=0.2, beta=beta)).psi
            rough.append(np.trace(Y @ L.matrix @ Y.T))
        assert all(a >= b - 1e-10 for a, b in zip(rough, rough[1:]))


def kr_fitted(K, alpha, T):
    """KR's graph-free fitted outputs K (K + alpha I)^{-1} T: K Psi of the
    fit with the edgeless graph and beta = 0."""
    M = np.shape(T)[1]
    return K @ fit_krg(K, T, Laplacian(np.zeros((M, M))),
                       Hyperparams(alpha, 0.0)).psi


class TestKrFittedShrinkage:
    def test_identity_kernel(self):
        T = np.random.default_rng(25).standard_normal((4, 3))
        np.testing.assert_allclose(kr_fitted(np.eye(4), 1.0, T), T / 2.0,
                                   rtol=1e-12)

    def test_alpha_zero_nonsingular(self):
        rng = np.random.default_rng(26)
        K = random_psd(rng, 5) + np.eye(5)
        T = rng.standard_normal((5, 2))
        np.testing.assert_allclose(kr_fitted(K, 0.0, T), T, atol=1e-8)

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(27)
        K = random_psd(rng, 10)
        T = rng.standard_normal((10, 4))
        out = kr_fitted(K, 0.7, T)
        expected = K @ np.linalg.solve(K + 0.7 * np.eye(10), T)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_alpha_zero_singular_raises(self):
        K = random_psd(np.random.default_rng(28), 6, rank=3)
        with pytest.raises(SingularSystemError, match="rank-deficient"):
            kr_fitted(K, 0.0, np.ones((6, 2)))
        assert np.isfinite(kr_fitted(K, 0.5, np.ones((6, 2)))).all()


class TestModelSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(28)
        X = rng.standard_normal((6, 2))
        T = rng.standard_normal((6, 4))
        L = Laplacian(random_laplacian_matrix(rng, 4))
        spec = KernelSpec(kind="rbf", sigma_sq=1.2)
        K, spec = gram_matrix(X, spec)
        model = fit_krg(K, T, L, Hyperparams(alpha=0.3, beta=0.4),
                        x_train=X, spec=spec)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.psi, model.psi)
        assert loaded.spec == model.spec
        x = rng.standard_normal(2)
        np.testing.assert_allclose(predict_krg(loaded, x), predict_krg(model, x))

    def test_load_builds_no_gram_unless_the_file_lacks_the_normalizer(
            self, tmp_path, monkeypatch):
        X, T, L = make_instance(29, N=9, M=4, d=3)
        K, spec = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=0.7))
        path = tmp_path / "model.json"
        save_model(path, fit_krg(K, T, L, Hyperparams(alpha=0.2, beta=0.5),
                                 x_train=X, spec=spec))
        calls = []

        def counting(*args):
            calls.append(args)
            return gram_matrix(*args)

        monkeypatch.setattr(kernels, "gram_matrix", counting)
        monkeypatch.setattr(solver, "gram_matrix", counting)
        loaded = load_model(path)
        assert calls == []
        assert loaded.spec == spec
        # a file written before kernel specs carried Z: recomputed once
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc["kernel_spec"]["rbf_normalizer"]
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(doc), encoding="utf-8")
        assert load_model(legacy).spec == spec
        assert len(calls) == 1

    @pytest.mark.parametrize("key, value, message", [
        ("sigma_sq", None, "kernel_spec.sigma_sq: null is not a number"),
        ("sigmasq", 0.7, "kernel_spec.sigmasq: unknown key"),
        ("precomputed", None, "kernel_spec.precomputed: null is not a list"),
        ("precomputed", [["2", True], [True, "2"]],
         'kernel_spec.precomputed[0][0]: "2" is not a number'),
        ("precomputed", [[2.0, True], [True, 2.0]],
         "kernel_spec.precomputed[0][1]: true is not a number"),
        ("precomputed", [[2.0, None], [None, 2.0]],
         "kernel_spec.precomputed[0][1]: null is not a number"),
        ("precomputed", [[2.0, 1.0], "1, 2"],
         'kernel_spec.precomputed[1]: "1, 2" is not a number'),
        ("precomputed", [[10**400]], "kernel_spec.precomputed holds an "
                                      "integer beyond the float range"),
    ], ids=["sigma_sq_null", "unknown_key", "precomputed_null",
            "precomputed_strings", "precomputed_bools", "precomputed_nulls",
            "precomputed_string_row", "precomputed_huge_integer"])
    def test_kernel_spec_is_read_as_a_config(self, tmp_path, key, value,
                                             message):
        """The model file's kernel_spec is read by the config reader: a key
        is a field, and a null is no absent key (save_model writes none)."""
        X, T, L = make_instance(33, N=5, M=3, d=2)
        K, spec = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=0.7))
        path = tmp_path / "model.json"
        save_model(path, fit_krg(K, T, L, Hyperparams(alpha=0.2, beta=0.5),
                                 x_train=X, spec=spec))
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert None not in doc["kernel_spec"].values()
        doc["kernel_spec"][key] = value
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError, match=(
                f"{re.escape(str(path))}: not a valid model file: "
                f"ConfigError: {re.escape(message)}")):
            load_model(path)

    def test_type_error_quotes_a_bounded_prefix(self, tmp_path):
        """A kernel_spec that is a list holding a 300 x 300 precomputed spec
        is named by the start of its JSON text, not by all of it."""
        X, T, L = make_instance(34, N=5, M=3, d=2)
        K, spec = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=0.7))
        path = tmp_path / "model.json"
        save_model(path, fit_krg(K, T, L, Hyperparams(alpha=0.2, beta=0.5),
                                 x_train=X, spec=spec))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["kernel_spec"] = [{"kind": "precomputed",
                               "precomputed": np.eye(300).tolist()}]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataFormatError) as excinfo:
            load_model(path)
        message = str(excinfo.value)
        assert message.endswith('ConfigError: kernel_spec: [{"kind": '
                                '"precomputed", "precomputed": [[1.0, 0.0, '
                                '0.0, 0.0... is not an object')
        assert len(message) <= len(str(path)) + 150

    def test_predict_batch_rows_are_single_point_predictions(self):
        X, T, L = make_instance(31, N=9, M=4, d=3)
        K, spec = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=0.7))
        model = fit_krg(K, T, L, Hyperparams(alpha=0.2, beta=0.5),
                        x_train=X, spec=spec)
        Xt = np.random.default_rng(32).standard_normal((5, 3))
        Y = predict_krg(model, Xt)
        assert Y.shape == (5, 4)
        for x, y in zip(Xt, Y):
            assert predict_krg(model, x).shape == (4,)
            np.testing.assert_allclose(predict_krg(model, x), y, rtol=1e-12)
        # on the training inputs the prediction is the fitted K Psi
        np.testing.assert_allclose(predict_krg(model, X), K @ model.psi,
                                   rtol=1e-12, atol=1e-12)


class TestCheckWeights:
    @pytest.mark.parametrize("alpha,beta,name", [
        (np.nan, 0.0, "alpha"), (0.1, np.nan, "beta"), (np.inf, 0.0, "alpha"),
        (0.1, np.inf, "beta"), (-0.1, 0.0, "alpha"), (0.1, -1.0, "beta"),
        (True, 0.0, "alpha"), (0.1, False, "beta"),  # True <= 1 in Python
    ])
    def test_hyperparams_reject_nan_inf_and_negative(self, alpha, beta, name):
        with pytest.raises(KrgraphError,
                           match=f"{name} must be finite and >= 0, got"):
            Hyperparams(alpha=alpha, beta=beta)

    def test_scalars_and_grids(self):
        check_weights(alpha=0, beta=0.0, alphas=(0.0, 1e300), betas=[2])
        with pytest.raises(KrgraphError, match=r"nu must be finite and >= 0, "
                                               r"got \[-1\]"):
            check_weights(beta=1.0, nu=-1)
        with pytest.raises(KrgraphError, match=r"betas must be finite and >= 0, "
                                               r"got \[0.0, nan\]"):
            check_weights(alphas=[0.1], betas=[0.0, float("nan")])
        with pytest.raises(KrgraphError, match=r"alphas must be finite and "
                                               r">= 0, got \[0.5, True\]"):
            check_weights(alphas=[0.5, True])


class TestSingularityRule:
    def test_lrg_rank_deficient_message_names_theta_and_alpha(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((7, 2)) @ np.ones((2, 4))    # rank 2 of 4
        T = rng.standard_normal((7, 3))
        L = Laplacian(random_laplacian_matrix(rng, 3))
        with pytest.raises(SingularSystemError,
                           match="theta=.*rank-deficient.*alpha > 0"):
            fit_lrg(X, T, L, Hyperparams(alpha=0.0, beta=2.0))
        assert np.isfinite(fit_lrg(X, T, L, Hyperparams(0.1, 2.0))).all()

    def test_spectral_cache_eigh_failure_is_convergence_error(self,
                                                              monkeypatch):
        def fail(a, **kw):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        L = Laplacian(np.zeros((2, 2)))
        L.eigendecomposition()
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match=r"\(5, 5\)"):
            fit_krg(np.eye(5), np.ones((5, 2)), L,
                    Hyperparams(0.1, 0.0))

    def test_spectral_cache_svd_failure_is_convergence_error(self,
                                                             monkeypatch):
        def fail(a, **kw):
            raise np.linalg.LinAlgError("SVD did not converge")

        K, _, L, _ = large_gram("linear")
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError,
                           match=r"SVD of a \(600, 3\) pivoted Cholesky"):
            SpectralCache.build(K, L)
