import json
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from krgraph import kernels
from krgraph.errors import DegenerateKernelError, DimensionError, KrgraphError
from krgraph.graphs import object_json, read_object
from krgraph.kernels import (
    KernelSpec,
    gram_matrix,
    kernel_cross_matrix,
    squared_distances,
)
from krgraph.solver import Hyperparams


def _json_roundtrip(obj):
    """obj written by object_json, through JSON text, and read back by
    read_object, as save_model and load_model do."""
    text = json.dumps(object_json(obj))
    return read_object(type(obj), json.loads(text), "model")


class TestKernelSpec:
    def test_rbf_needs_positive_sigma(self):
        with pytest.raises(KrgraphError):
            KernelSpec(kind="rbf", sigma_sq=0.0)
        with pytest.raises(KrgraphError):
            KernelSpec(kind="rbf")

    @pytest.mark.parametrize("sigma_sq", [np.nan, np.inf, -np.inf, -1.0])
    def test_rbf_sigma_finite_and_positive(self, sigma_sq):
        with pytest.raises(KrgraphError, match="finite sigma_sq > 0"):
            KernelSpec(kind="rbf", sigma_sq=sigma_sq)

    def test_unknown_kind(self):
        with pytest.raises(KrgraphError):
            KernelSpec(kind="polynomial")

    def test_precomputed_needs_a_matrix(self):
        with pytest.raises(KrgraphError,
                           match="precomputed kernel requires a matrix"):
            KernelSpec(kind="precomputed")

    def test_precomputed_must_be_psd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(KrgraphError):
            KernelSpec(kind="precomputed", precomputed=bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_precomputed_must_be_finite(self, value):
        P = np.eye(3)
        P[1, 1] = value
        with pytest.raises(KrgraphError, match="NaN or infinite"):
            KernelSpec(kind="precomputed", precomputed=P)

    def test_json_roundtrip(self):
        spec = KernelSpec(kind="rbf", sigma_sq=2.5)
        assert _json_roundtrip(spec) == spec

    def test_fitted_json_roundtrip_keeps_normalizer(self):
        spec = KernelSpec(kind="rbf", sigma_sq=2.5, rbf_normalizer=0.1 + 0.2)
        assert object_json(spec)["rbf_normalizer"] == 0.1 + 0.2
        assert _json_roundtrip(spec) == spec

    def test_precomputed_json_roundtrip(self):
        P = np.array([[2.0, 0.1 + 0.2], [0.1 + 0.2, 1.0]])
        spec = KernelSpec(kind="precomputed", precomputed=P)
        assert object_json(spec) == {"kind": "precomputed",
                                     "precomputed": P.tolist()}
        back = _json_roundtrip(spec)
        assert back == spec
        assert back.precomputed.dtype == float

    def test_hyperparams_json_roundtrip(self):
        hyper = Hyperparams(alpha=0.1 + 0.2, beta=0)
        assert json.dumps(object_json(hyper)) == \
            '{"alpha": 0.30000000000000004, "beta": 0}'
        assert _json_roundtrip(hyper) == hyper

    def test_json_writes_fields_in_order_without_none(self):
        assert json.dumps(object_json(KernelSpec(kind="linear"))) == \
            '{"kind": "linear"}'
        assert list(object_json(KernelSpec(
            kind="rbf", sigma_sq=2.0, rbf_normalizer=3.0))) == [
            "kind", "sigma_sq", "rbf_normalizer"]

    def test_equality_with_another_class_is_left_to_it(self):
        spec = KernelSpec(kind="linear")
        assert spec.__eq__("linear") is NotImplemented
        assert spec != "linear"

    def test_equality_compares_matrices_by_value(self):
        eye = KernelSpec(kind="precomputed", precomputed=np.eye(3))
        assert eye == KernelSpec(kind="precomputed", precomputed=np.eye(3))
        assert eye != KernelSpec(kind="precomputed", precomputed=2 * np.eye(3))
        assert eye != KernelSpec(kind="precomputed", precomputed=np.eye(2))
        assert eye != KernelSpec(kind="linear")
        rbf = KernelSpec(kind="rbf", sigma_sq=1.5, rbf_normalizer=0.7)
        assert rbf == KernelSpec(kind="rbf", sigma_sq=1.5, rbf_normalizer=0.7)
        assert rbf != KernelSpec(kind="rbf", sigma_sq=1.5, rbf_normalizer=0.8)

    @pytest.mark.parametrize("kind,Z", [
        ("rbf", 0.0), ("rbf", -1.0), ("rbf", np.nan), ("rbf", np.inf),
        ("rbf", "1.0"), ("rbf", True), ("linear", 1.0), ("precomputed", 1.0),
    ])
    def test_rbf_normalizer_finite_positive_and_rbf_only(self, kind, Z):
        extra = {"sigma_sq": 1.0} if kind == "rbf" else {}
        if kind == "precomputed":
            extra = {"precomputed": np.eye(2)}
        with pytest.raises(KrgraphError, match="rbf_normalizer"):
            KernelSpec(kind=kind, rbf_normalizer=Z, **extra)

    @pytest.mark.parametrize("kind", ["linear", "precomputed"])
    @pytest.mark.parametrize("sigma_sq", [2.0, True, 0.0])
    def test_sigma_sq_on_rbf_only(self, kind, sigma_sq):
        """By the rbf_normalizer rule: a value that nothing reads is no
        part of a linear or precomputed spec."""
        extra = {"precomputed": np.eye(2)} if kind == "precomputed" else {}
        with pytest.raises(KrgraphError,
                           match=f"sigma_sq is a finite number > 0 on an "
                                 f"rbf kernel, got {sigma_sq!r} on {kind}"):
            KernelSpec(kind=kind, sigma_sq=sigma_sq, **extra)

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_precomputed_matrix_on_precomputed_only(self, kind):
        """By the same rule: no linear or rbf kernel reads the matrix, and
        object_json would write it into the model file."""
        extra = {"sigma_sq": 1.0} if kind == "rbf" else {}
        with pytest.raises(KrgraphError, match="a precomputed matrix belongs "
                           f"to a precomputed kernel, got one on {kind}"):
            KernelSpec(kind=kind, precomputed=np.eye(3), **extra)


class TestSquaredDistances:
    """Bit for bit against scipy's cdist, whose (a_k - b_k)^2 terms are
    added in feature order."""

    ROWS_PER_BLOCK = kernels._DISTANCE_BLOCK // 300  # at len(B) = 300

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3000, 8), None),                   # the fit_predict Gram
        ((60, 200), None),                   # graph learning's edge costs
        ((1, 7), (40, 7)), ((40, 7), (1, 7)),
        ((25, 1), (30, 1)),
        ((2 * ROWS_PER_BLOCK + 5, 4), (300, 4)),  # a partial last block
        ((13, 5), (300, 5)),
    ])
    def test_equals_cdist(self, a_shape, b_shape):
        rng = np.random.default_rng(a_shape[0])
        A = rng.standard_normal(a_shape) * np.logspace(-3, 3, a_shape[1])
        B = A if b_shape is None else (
            rng.standard_normal(b_shape) * np.logspace(-3, 3, b_shape[1]))
        D = squared_distances(A, B)
        assert np.array_equal(D, cdist(A, B, "sqeuclidean"))
        if b_shape is None:
            assert np.all(np.diag(D) == 0)

    def test_feature_counts_must_agree(self):
        with pytest.raises(ValueError):
            squared_distances(np.ones((3, 2)), np.ones((3, 4)))


class TestGramMatrix:
    def test_linear_identity_inputs(self):
        K, _ = gram_matrix(np.eye(2), KernelSpec(kind="linear"))
        assert np.array_equal(K, np.eye(2))

    def test_linear_is_xxt_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((6, 3))
        K, _ = gram_matrix(X, KernelSpec(kind="linear"))
        assert np.array_equal(K, X @ X.T)

    def test_rbf_unit_diagonal(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((8, 4))
        K, _ = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=0.7))
        np.testing.assert_allclose(np.diag(K), 1.0, atol=1e-14)

    def test_rbf_hand_example(self):
        # x1 = 0, x2 = 1: Z = (0 + 1 + 1 + 0) / 2 = 1, K12 = exp(-1)
        X = np.array([[0.0], [1.0]])
        K, spec = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=1.0))
        assert spec.rbf_normalizer == pytest.approx(1.0)
        assert K[0, 1] == pytest.approx(np.exp(-1.0))

    @pytest.mark.parametrize("kind", ["linear", "precomputed"])
    def test_non_rbf_spec_returned_as_it_is(self, kind):
        # not a re-validated copy: a precomputed spec runs eigvalsh when
        # it is validated
        spec = (KernelSpec(kind="linear") if kind == "linear" else
                KernelSpec(kind="precomputed", precomputed=np.eye(3)))
        X = np.array([[0.0], [2.0]])
        assert gram_matrix(X, spec)[1] is spec

    def test_rbf_spec_gains_normalizer(self):
        X = np.random.default_rng(14).standard_normal((5, 3))
        spec = KernelSpec(kind="rbf", sigma_sq=0.4)
        _, fitted = gram_matrix(X, spec)
        Z = sum(np.sum((a - b) ** 2) for a in X for b in X) / 5
        assert fitted.rbf_normalizer == pytest.approx(Z, rel=1e-12)
        assert (fitted.kind, fitted.sigma_sq) == ("rbf", 0.4)
        assert spec.rbf_normalizer is None
        with pytest.raises(DegenerateKernelError, match="normalizer"):
            kernel_cross_matrix(X, X, spec)

    def test_rbf_degenerate_inputs(self):
        X = np.ones((3, 2))
        with pytest.raises(DegenerateKernelError):
            gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=1.0))

    @pytest.mark.parametrize("kind,sigma,X,message", [
        ("linear", None, [[1e200, 1.0], [2e200, -1.0], [3.0, 1e200]],
         "infinite"),
        ("rbf", 0.8, [[1e200, 1.0], [2e200, -1.0], [3.0, 1e200]], "inf"),
        # finite squared distances whose sum overflows
        ("rbf", 0.8, [[0.0], [1e154]], "inf"),
        # sigma_sq * Z underflows to zero
        ("rbf", 1e-200, [[0.0], [1e-100]], "infinite"),
    ], ids=["linear", "rbf", "rbf_normalizer_overflow", "rbf_underflow"])
    def test_nonfinite_kernel_rejected(self, kind, sigma, X, message):
        # and no floating-point warning ahead of the error
        with warnings.catch_warnings(), \
                pytest.raises(DegenerateKernelError, match=message):
            warnings.simplefilter("error")
            gram_matrix(np.array(X), KernelSpec(kind=kind, sigma_sq=sigma))

    def test_rbf_entries_in_unit_interval(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((10, 2))
        K, _ = gram_matrix(X, KernelSpec(kind="rbf", sigma_sq=1.3))
        assert np.all(K > 0)
        assert np.all(K <= 1 + 1e-15)

    @pytest.mark.parametrize("kind,sigma", [("linear", None), ("rbf", 0.9)])
    def test_psd_on_random_inputs(self, kind, sigma):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((100, 5))
        K, _ = gram_matrix(X, KernelSpec(kind=kind, sigma_sq=sigma))
        evals = np.linalg.eigvalsh(K)
        assert evals.min() >= -1e-8 * np.linalg.norm(K, 2)

    def test_precomputed_restriction(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((6, 6))
        full = B @ B.T
        spec = KernelSpec(kind="precomputed", precomputed=full)
        idx = np.array([[1.0], [3.0], [4.0]])
        K, _ = gram_matrix(idx, spec)
        assert np.array_equal(K, full[np.ix_([1, 3, 4], [1, 3, 4])])

    @pytest.mark.parametrize("X", [[[1.0, 3.0, 4.0]], [[1.0, 3.0], [4.0, 0.0]]])
    def test_precomputed_indices_are_one_column(self, X):
        """The Gram reads indices by the cross-kernel's rule: a row of them
        is rejected, not flattened."""
        spec = KernelSpec(kind="precomputed", precomputed=np.eye(6))
        with pytest.raises(DimensionError, match="one index column"):
            gram_matrix(np.array(X), spec)


class TestKernelVector:
    def test_rbf_at_training_point_is_one(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((7, 3))
        spec = KernelSpec(kind="rbf", sigma_sq=1.0)
        _, spec = gram_matrix(X, spec)
        k = kernel_cross_matrix(X, X[2], spec)[0]
        assert k[2] == pytest.approx(1.0)

    def test_linear_zero_input(self):
        X = np.random.default_rng(6).standard_normal((5, 2))
        spec = KernelSpec(kind="linear")
        _, spec = gram_matrix(X, spec)
        assert np.array_equal(kernel_cross_matrix(X, np.zeros(2), spec)[0],
                              np.zeros(5))

    def test_rbf_hand_example(self):
        X = np.array([[0.0], [1.0]])
        spec = KernelSpec(kind="rbf", sigma_sq=1.0)
        _, spec = gram_matrix(X, spec)
        k = kernel_cross_matrix(X, np.array([0.0]), spec)[0]
        np.testing.assert_allclose(k, [1.0, np.exp(-1.0)], rtol=1e-12)

    @pytest.mark.parametrize("kind,sigma", [("linear", None), ("rbf", 1.7)])
    def test_gram_rows_match_cross_matrix(self, kind, sigma):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 4))
        spec = KernelSpec(kind=kind, sigma_sq=sigma)
        K, spec = gram_matrix(X, spec)
        for n in range(9):
            k = kernel_cross_matrix(X, X[n], spec)[0]
            np.testing.assert_allclose(K[n], k, atol=1e-12)

    def test_precomputed_cross(self):
        rng = np.random.default_rng(8)
        B = rng.standard_normal((5, 5))
        full = B @ B.T
        spec = KernelSpec(kind="precomputed", precomputed=full)
        X_train = np.array([[0.0], [2.0]])
        _, spec = gram_matrix(X_train, spec)
        k = kernel_cross_matrix(X_train, np.array([4.0]), spec)[0]
        assert np.array_equal(k, full[[0, 2], 4])

    def test_cross_matrix_stacks_vectors(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((6, 3))
        Xt = rng.standard_normal((4, 3))
        spec = KernelSpec(kind="rbf", sigma_sq=1.1)
        _, spec = gram_matrix(X, spec)
        K_cross = kernel_cross_matrix(X, Xt, spec)
        assert K_cross.shape == (4, 6)
        np.testing.assert_allclose(K_cross[1],
                                   kernel_cross_matrix(X, Xt[1], spec)[0])


class TestKernelCrossMatrix:
    @pytest.mark.parametrize("kind,sigma", [("linear", None), ("rbf", 0.8)])
    def test_matches_pairwise_definition(self, kind, sigma):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((7, 3))
        Xt = rng.standard_normal((5, 3))
        spec = KernelSpec(kind=kind, sigma_sq=sigma)
        _, spec = gram_matrix(X, spec)
        expected = np.empty((5, 7))
        for a in range(5):
            for b in range(7):
                if kind == "linear":
                    expected[a, b] = Xt[a] @ X[b]
                else:
                    d2 = np.sum((Xt[a] - X[b]) ** 2)
                    expected[a, b] = np.exp(-d2 / (sigma * spec.rbf_normalizer))
        np.testing.assert_allclose(kernel_cross_matrix(X, Xt, spec),
                                   expected, rtol=1e-12, atol=1e-14)

    def test_precomputed_is_lookup(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((6, 6))
        full = B @ B.T
        spec = KernelSpec(kind="precomputed", precomputed=full)
        X_train = np.array([[5.0], [0.0], [3.0]])
        _, spec = gram_matrix(X_train, spec)
        Xt = np.array([[1.0], [3.0]])
        K_cross = kernel_cross_matrix(X_train, Xt, spec)
        assert np.array_equal(K_cross, full[np.ix_([1, 3], [5, 0, 3])])

    @pytest.mark.parametrize("bad", [[[-1.0]], [[1.5]], [[6.0]], [[1.0, 2.0]]])
    def test_precomputed_rejects_bad_test_indices(self, bad):
        B = np.random.default_rng(12).standard_normal((6, 6))
        spec = KernelSpec(kind="precomputed", precomputed=B @ B.T)
        X_train = np.array([[0.0], [2.0]])
        _, spec = gram_matrix(X_train, spec)
        with pytest.raises(DimensionError):
            kernel_cross_matrix(X_train, np.array(bad), spec)

    def test_overflow_rejected_without_warning(self):
        small = np.array([[2.0, 2.0], [0.5, -1.0]])
        spec = KernelSpec(kind="linear")
        with warnings.catch_warnings(), pytest.raises(DegenerateKernelError):
            warnings.simplefilter("error")
            kernel_cross_matrix(small, [[1e308, 1e308]], spec)

    def test_dimension_mismatch(self):
        X = np.ones((4, 3))
        spec = KernelSpec(kind="linear")
        with pytest.raises(DimensionError):
            kernel_cross_matrix(X, np.ones((2, 2)), spec)

    @pytest.mark.parametrize("kind", ["linear", "rbf", "precomputed"])
    def test_gram_is_cross_kernel_of_training_set(self, kind):
        rng = np.random.default_rng(13)
        if kind == "precomputed":
            B = rng.standard_normal((9, 9))
            spec = KernelSpec(kind=kind, precomputed=B @ B.T)
            X = np.array([[4.0], [0.0], [7.0], [2.0]])
        else:
            spec = KernelSpec(kind=kind, sigma_sq=0.6 if kind == "rbf" else None)
            X = rng.standard_normal((37, 4))
        K, spec = gram_matrix(X, spec)
        assert np.array_equal(K, kernel_cross_matrix(X, X, spec))

