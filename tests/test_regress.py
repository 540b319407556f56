"""Kernel least-squares: Gram matrices, fits, maps, optimality."""


import numpy as np
import pytest

from tensorsplit.errors import ConfigInvalid, KernelAsymmetric, SolveFailed
from tensorsplit.indexing import IndexVector, ZERO_INDEX
from tensorsplit.regress import (
    AnchoredKernel,
    CustomKernel,
    SampleSet,
    TensorProductKernel,
    anchored_overlap,
    fit,
    fit_map,
    gram_matrix,
    objective,
    predict,
)

RNG = np.random.default_rng(13)


def random_instance(rng, n=None, d=None):
    n = n or int(rng.integers(2, 51))
    d = d or int(rng.integers(1, 5))
    X = rng.uniform(0.0, 1.0, (n, d))
    y = rng.normal(size=n)
    lam = float(rng.uniform(1e-3, 1.0))
    return SampleSet(X, y), AnchoredKernel(d), lam


class TestAnchoredOverlap:
    def test_same_side(self):
        assert anchored_overlap(0.7, 0.9, 0.5) == pytest.approx(0.2)

    def test_opposite_sides(self):
        assert anchored_overlap(0.2, 0.9, 0.5) == 0.0

    def test_at_anchor(self):
        assert anchored_overlap(0.5, 0.9, 0.5) == 0.0


class TestGramMatrix:
    def test_single_point(self):
        k = AnchoredKernel(1)
        G = gram_matrix(k, np.array([[0.75]]))
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(k([0.75], [0.75]))

    def test_constant_kernel_gives_ones(self):
        k = CustomKernel(2, lambda x, y: 1.0)
        G = gram_matrix(k, RNG.uniform(0, 1, (5, 2)))
        assert np.allclose(G, 1.0)

    def test_asymmetric_kernel_rejected(self):
        k = CustomKernel(1, lambda x, y: float(x[0] - y[0]))
        with pytest.raises(KernelAsymmetric):
            gram_matrix(k, np.array([[0.1], [0.9]]))

    def test_anchored_gram_is_psd(self):
        X = RNG.uniform(0, 1, (40, 3))
        G = gram_matrix(AnchoredKernel(3), X)
        np.linalg.cholesky(G + 1e-12 * np.eye(40))  # succeeds

    def test_vectorized_matches_pairwise(self):
        k = AnchoredKernel(2, anchor=0.3, scales=[1.0, 2.0])
        X = RNG.uniform(0, 1, (6, 2))
        G = gram_matrix(k, X)
        for i in range(6):
            for j in range(6):
                assert G[i, j] == pytest.approx(k(X[i], X[j]), abs=1e-15)

    @pytest.mark.parametrize("anchor,scales", [
        (0.5, None), (0.3, [1.0, 2.0, 0.5]), (0.0, [0.7, 1.0, 3.0]), (1.0, None),
    ])
    def test_batched_equals_pointwise_exactly(self, anchor, scales):
        """Every entry of ``gram`` is the pointwise kernel bit for bit,
        including points at the anchor, at 0 and 1 and on both sides."""
        rng = np.random.default_rng(29)
        k = AnchoredKernel(3, anchor=anchor, scales=scales)
        special = [anchor, 0.0, 1.0, np.nextafter(anchor, 0.0), np.nextafter(anchor, 1.0)]
        X = rng.uniform(0, 1, (300, 3))
        X[: 5 * 3].flat[:] = np.repeat(special, 3)
        X[15:20] = np.array(special)[:, None]
        Y = rng.uniform(0, 1, (7, 3))
        Y[0] = anchor
        Y[1] = [0.0, 1.0, anchor]
        for A, B in ((X, Y), (Y, X), (X[:40], X[:40])):
            K = k.gram(A, B)
            assert K.shape == (A.shape[0], B.shape[0])
            for i in range(A.shape[0]):
                for j in range(B.shape[0]):
                    assert K[i, j] == k(A[i], B[j])
        assert np.array_equal(gram_matrix(k, X[:40]), k.gram(X[:40], X[:40]))


class TestFit:
    def test_single_sample_closed_form(self):
        # kappa(x, x) = 1 at the anchor: (1 + 1) c = 1
        s = SampleSet(np.array([[0.5]]), np.array([1.0]))
        model = fit(s, AnchoredKernel(1), 1.0)
        assert model.coefficients[0] == pytest.approx(0.5, abs=1e-14)
        assert predict(model, np.array([0.5])) == pytest.approx(0.5, abs=1e-14)

    def test_zero_targets_give_zero_model(self):
        s = SampleSet(RNG.uniform(0, 1, (8, 2)), np.zeros(8))
        model = fit(s, AnchoredKernel(2), 0.1)
        assert np.allclose(model.coefficients, 0.0)
        assert predict(model, np.array([0.2, 0.8])) == 0.0

    def test_heavy_regularization_shrinks_coefficients(self):
        s = SampleSet(RNG.uniform(0, 1, (10, 2)), RNG.normal(size=10))
        norms = []
        for lam in (1.0, 10.0, 100.0):
            model = fit(s, AnchoredKernel(2), lam)
            norms.append(float(np.linalg.norm(model.coefficients)))
        assert norms[0] > norms[1] > norms[2]

    def test_interpolation_limit(self):
        X = np.array([[0.2], [0.5], [0.8]])
        y = np.array([1.0, -0.5, 2.0])
        s = SampleSet(X, y)
        k = AnchoredKernel(1, anchor=0.0)
        for lam, tol in ((1e-6, 1e-3), (1e-10, 1e-7)):
            model = fit(s, k, lam)
            pred = predict(model, X)
            assert np.max(np.abs(pred - y)) < tol

    def test_residuals_are_tiny(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s, k, lam = random_instance(rng)
            model = fit(s, k, lam)
            assert model.residual <= 1e-10

    def test_rejects_nonpositive_lambda(self):
        s = SampleSet(np.array([[0.5]]), np.array([1.0]))
        with pytest.raises(ConfigInvalid):
            fit(s, AnchoredKernel(1), 0.0)

    @pytest.mark.parametrize("outputs", [0.5, np.zeros((1, 0)), np.zeros((1, 1, 1))],
                             ids=["scalar", "no-columns", "3-d"])
    def test_sample_outputs_must_be_vector_or_matrix(self, outputs):
        with pytest.raises(ConfigInvalid):
            SampleSet(np.array([[0.5]]), outputs)


class TestObjectiveOptimality:
    def test_perturbations_never_improve(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            s, k, lam = random_instance(rng, n=int(rng.integers(3, 30)))
            model = fit(s, k, lam)
            base = objective(model, s)
            for _ in range(5):
                delta = rng.normal(size=model.coefficients.shape)
                delta *= 1e-3 / np.linalg.norm(delta)
                perturbed = objective(model, s, model.coefficients + delta)
                assert perturbed >= base - 1e-12


class TestFitMap:
    def test_single_output_matches_fit(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, (12, 2))
        y = rng.normal(size=12)
        k = AnchoredKernel(2)
        single = fit(SampleSet(X, y), k, 0.05)
        mapped = fit_map(SampleSet(X, y[:, None]), k, 0.05)
        assert np.allclose(single.coefficients, mapped.coefficients[:, 0], atol=1e-14)

    def test_rank_one_targets_scale_columns(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (15, 3))
        y = rng.normal(size=15)
        scales = np.array([2.0, -1.0, 0.25, 3.5])
        Y = np.outer(y, scales)
        k = AnchoredKernel(3)
        mapped = fit_map(SampleSet(X, Y), k, 0.2)
        base = fit(SampleSet(X, y), k, 0.2)
        expected = np.outer(base.coefficients, scales)
        assert np.max(np.abs(mapped.coefficients - expected)) < 1e-12

    def test_zero_targets(self):
        X = RNG.uniform(0, 1, (6, 2))
        mapped = fit_map(SampleSet(X, np.zeros((6, 3))), AnchoredKernel(2), 0.5)
        assert np.allclose(mapped.coefficients, 0.0)

    def test_shared_and_separate_paths_agree(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0, 1, (20, 2))
        Y = rng.normal(size=(20, 4))
        k = AnchoredKernel(2)
        lam = 0.3
        shared = fit_map(SampleSet(X, Y), k, lam)
        # nudging one lambda by zero through the per-output path
        separate = fit_map(SampleSet(X, Y), k, [lam, lam, lam, lam + 0.0])
        assert np.max(np.abs(shared.coefficients - separate.coefficients)) < 1e-12

    def test_per_output_lambdas(self):
        rng = np.random.default_rng(22)
        X = rng.uniform(0, 1, (10, 2))
        Y = rng.normal(size=(10, 2))
        k = AnchoredKernel(2)
        mapped = fit_map(SampleSet(X, Y), k, [0.1, 10.0])
        c0 = fit(SampleSet(X, Y[:, 0]), k, 0.1).coefficients
        c1 = fit(SampleSet(X, Y[:, 1]), k, 10.0).coefficients
        assert np.allclose(mapped.coefficients[:, 0], c0, atol=1e-14)
        assert np.allclose(mapped.coefficients[:, 1], c1, atol=1e-14)


class TestTensorProductKernel:
    def test_matches_manual_sum(self):
        coeffs = {
            ZERO_INDEX: 1.0,
            IndexVector({1: 1}): 0.5,
            IndexVector({1: 1, 2: 1}): 0.25,
        }

        def uni(k, j, x, y):
            return anchored_overlap(x, y, 0.5)

        kernel = TensorProductKernel(2, coeffs, uni)
        x, y = [0.7, 0.9], [0.8, 0.6]
        r1 = anchored_overlap(0.7, 0.8, 0.5)
        r2 = anchored_overlap(0.9, 0.6, 0.5)
        assert kernel(x, y) == pytest.approx(1.0 + 0.5 * r1 + 0.25 * r1 * r2)

    def test_usable_in_fit(self):
        coeffs = {ZERO_INDEX: 1.0, IndexVector({1: 1}): 1.0}
        kernel = TensorProductKernel(
            1, coeffs, lambda k, j, x, y: anchored_overlap(x, y, 0.0)
        )
        X = np.array([[0.2], [0.7]])
        model = fit(SampleSet(X, np.array([1.0, 2.0])), kernel, 0.01)
        assert model.residual <= 1e-10


class TestSampleValidation:
    def test_inputs_must_be_in_cube(self):
        with pytest.raises(ConfigInvalid):
            SampleSet(np.array([[1.5]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_inputs_must_be_finite(self, bad):
        with pytest.raises(ConfigInvalid):
            SampleSet(np.array([[0.5], [bad]]), np.array([1.0, 2.0]))

    def test_output_length_must_match(self):
        with pytest.raises(ConfigInvalid):
            SampleSet(np.array([[0.5]]), np.array([1.0, 2.0]))


class TestFittedValues:
    """``fitted`` and ``residual`` reuse the training Gram without changing a bit."""

    def test_fitted_equals_predict(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 1, (300, 3))
        k = AnchoredKernel(3, scales=[1.0, 0.5, 2.0])
        single = fit(SampleSet(X, rng.normal(size=300)), k, 1e-3)
        assert np.array_equal(single.fitted, predict(single, X))
        for lam in (1e-3, [1e-3, 2e-3, 1e-3]):
            mapped = fit_map(SampleSet(X, rng.normal(size=(300, 3))), k, lam)
            assert np.array_equal(mapped.fitted, predict(mapped, X))

    def test_residual_matches_identity_shift(self):
        rng = np.random.default_rng(37)
        n = 200
        X = rng.uniform(0, 1, (n, 2))
        k = AnchoredKernel(2)
        G = gram_matrix(k, X)

        def residual(C, Y, lams):
            out = []
            for l, lam in enumerate(lams):
                r = (G + n * lam * np.eye(n)) @ C[:, l] - Y[:, l]
                out.append(float(np.linalg.norm(r)) / float(np.linalg.norm(Y[:, l])))
            return max(out)

        y = rng.normal(size=n)
        single = fit(SampleSet(X, y), k, 1e-4)
        assert single.residual == residual(single.coefficients[:, None], y[:, None], [1e-4])
        Y = rng.normal(size=(n, 3))
        for lams in ([1e-4] * 3, [1e-4, 3e-4, 1e-4]):
            mapped = fit_map(SampleSet(X, Y), k, lams)
            assert mapped.residual == residual(mapped.coefficients, Y, lams)

    def test_repeated_lambda_matches_separate_fits(self):
        rng = np.random.default_rng(41)
        X = rng.uniform(0, 1, (30, 2))
        Y = rng.normal(size=(30, 3))
        k = AnchoredKernel(2)
        mapped = fit_map(SampleSet(X, Y), k, [0.1, 0.2, 0.1])
        for l, lam in enumerate((0.1, 0.2, 0.1)):
            alone = fit(SampleSet(X, Y[:, l]), k, lam)
            assert np.array_equal(mapped.coefficients[:, l], alone.coefficients)


class TestJitter:
    """An indefinite Gram is factored with the smallest sufficient jitter."""

    @staticmethod
    def kernel(eps):
        # Gram [[1, 1 + eps], [1 + eps, 1]] has eigenvalue -eps
        return CustomKernel(1, lambda x, y: 1.0 if x[0] == y[0] else 1.0 + eps)

    def test_escalates_until_it_factors(self):
        X = np.array([[0.2], [0.7]])
        y = np.array([1.0, 2.0])
        model = fit(SampleSet(X, y), self.kernel(5e-9), 1e-12)
        # 1e-12 * 10**4 is the first jitter that lifts the eigenvalue -5e-9
        assert model.jitter == pytest.approx(1e-8, rel=1e-12)
        G = np.array([[1.0, 1.0 + 5e-9], [1.0 + 5e-9, 1.0]])
        shift = 2 * 1e-12
        A = G + (shift + model.jitter) * np.eye(2)
        assert np.linalg.norm(A @ model.coefficients - y) <= 1e-6 * np.linalg.norm(y)
        # the residual is measured against the unjittered system
        unjittered = (G + shift * np.eye(2)) @ model.coefficients - y
        assert model.residual == np.linalg.norm(unjittered) / np.linalg.norm(y)

    def test_gives_up_past_the_limit(self):
        X = np.array([[0.2], [0.7]])
        with pytest.raises(SolveFailed):
            fit(SampleSet(X, np.array([1.0, 2.0])), self.kernel(1.0), 1e-3)


class TestFitIsFitMapColumn:
    """``fit`` equals the single column of ``fit_map`` bit for bit."""

    @staticmethod
    def assert_same(samples, kernel, lam):
        single = fit(samples, kernel, lam)
        mapped = fit_map(samples, kernel, lam)
        assert single.coefficients.shape == single.fitted.shape == (samples.n,)
        assert np.array_equal(single.coefficients, mapped.coefficients[:, 0])
        assert np.array_equal(single.fitted, mapped.fitted[:, 0])
        assert single.residual == mapped.residual
        assert single.jitter == mapped.jitter
        assert single.lam.shape == () and single.lam == lam

    @pytest.mark.parametrize("n,d", [(1, 1), (7, 2), (64, 3), (400, 5)])
    def test_random_instances(self, n, d):
        samples, kernel, lam = random_instance(np.random.default_rng(n), n=n, d=d)
        self.assert_same(samples, kernel, lam)

    def test_jitter_path(self):
        samples = SampleSet(np.array([[0.2], [0.7]]), np.array([1.0, 2.0]))
        self.assert_same(samples, TestJitter.kernel(5e-9), 1e-12)
        assert fit(samples, TestJitter.kernel(5e-9), 1e-12).jitter > 0.0

