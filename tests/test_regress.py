"""Kernel least-squares: Gram matrices, fits, maps, optimality."""

import hashlib
import importlib.util
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tensorsplit.regress
from tensorsplit.errors import ConfigInvalid, KernelAsymmetric, SolveFailed
from tensorsplit.regress import (
    AnchoredKernel,
    SampleSet,
    _GRAM_TILE,
    _solve_regularized,
    anchored_overlap,
    fit,
    fit_map,
    gram_matrix,
    objective,
    predict,
)

RNG = np.random.default_rng(13)


class PointwiseKernel:
    """A kernel given by its value ``fn(x, y)`` at two points: ``gram``
    evaluates it at every pair."""

    def __init__(self, dim, fn):
        self.dim = dim
        self.fn = fn

    def gram(self, X, Y):
        return np.array([[self.fn(x, y) for y in Y] for x in X], dtype=float)


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
        k = PointwiseKernel(2, lambda x, y: 1.0)
        G = gram_matrix(k, RNG.uniform(0, 1, (5, 2)))
        assert np.allclose(G, 1.0)

    def test_asymmetric_kernel_rejected(self):
        k = PointwiseKernel(1, lambda x, y: float(x[0] - y[0]))
        with pytest.raises(KernelAsymmetric):
            gram_matrix(k, np.array([[0.1], [0.9]]))

    @pytest.mark.parametrize("delta,asymmetric", [(1e-3, True), (1e-13, False)])
    def test_asymmetry_in_off_diagonal_tile(self, delta, asymmetric):
        """The tiled symmetry check sees an entry far from the diagonal tiles:
        above the tolerance it is an error, below it G is symmetrized."""
        n = _GRAM_TILE + 10
        X = np.random.default_rng(31).uniform(0, 1, (n, 2))
        G = AnchoredKernel(2).gram(X, X)
        G[3, n - 2] += delta

        class Fixed:
            dim = 2

            def gram(self, X, Y):
                return G.copy()

        if asymmetric:
            with pytest.raises(KernelAsymmetric):
                gram_matrix(Fixed(), X)
        else:
            S = gram_matrix(Fixed(), X)
            assert np.array_equal(S, S.T)
            assert S[3, n - 2] == 0.5 * (G[3, n - 2] + G[n - 2, 3])

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

    @pytest.mark.parametrize("anchor,scales", [
        (0.5, [0.0, 1.0, 2.7]), (0.3, [1.0, 0.35, 0.0]), (1.0, [1e-3, 0.0, 1.0]),
    ])
    def test_symmetric_tiles_equal_row_blocks_and_pointwise(self, monkeypatch, anchor, scales):
        """gram(X, X) builds half the tiles and mirrors them; gram(X, X.copy())
        builds row blocks.  Both equal the pointwise kernel entry for entry,
        over partial tiles and points at the anchor, at 0, at 1 and next to
        the anchor."""
        rng = np.random.default_rng(31)
        k = AnchoredKernel(3, anchor=anchor, scales=scales)
        n = 2 * _GRAM_TILE + 37
        special = [anchor, 0.0, 1.0, np.nextafter(anchor, 0.0), np.nextafter(anchor, 1.0)]
        X = rng.uniform(0, 1, (n, 3))
        X[: 5 * 3].flat[:] = np.repeat(special, 3)
        X[-5:] = np.array(special)[:, None]
        X[-10:-5] = rng.permutation(np.repeat(special, 3)).reshape(5, 3)
        built = []
        symmetric = tensorsplit.regress._symmetric_gram
        monkeypatch.setattr(tensorsplit.regress, "_symmetric_gram",
                            lambda *a: built.append(a) or symmetric(*a))
        tiles = k.gram(X, X)
        assert len(built) == 1
        rows = k.gram(X, X.copy())
        assert len(built) == 1
        pointwise = np.array([[k(x, y) for y in X] for x in X])
        assert (tiles == rows).all()
        assert (tiles == pointwise).all()


class TestGramCorners:
    """``gram`` equals the pointwise kernel bit for bit where a coordinate's
    factor is an exact 1.0 although the point is off the anchor, where every
    point lies on one side of the anchor, and where products overflow."""

    #: 200 points: one full tile and one partial, and a holdout of one full
    #: row block (_GRAM_BLOCK // 200 = 163 rows) and one partial
    N = 200

    @staticmethod
    def assert_pointwise(k, X, H):
        def pointwise(A, B):
            # Python floats: the same IEEE products and minima as numpy's, faster
            B = B.tolist()
            return np.array([[k(x, y) for y in B] for x in A.tolist()])

        P = pointwise(X, X)
        for K in (k.gram(X, X), k.gram(X, X.copy())):
            assert K.shape == P.shape and K.tobytes() == P.tobytes()
        K = k.gram(H, X)
        assert K.shape == (len(H), len(X)) and K.tobytes() == pointwise(H, X).tobytes()
        return P

    @pytest.mark.parametrize("anchor,scales", [
        (0.5, [1e-20, 1.0, 2.7]),   # 1 + s|a| == 1.0 above and below the anchor
        (0.3, [0.0, 1.0, 0.0]),
        (0.0, [1.0, 1e-20, 2.0]),   # every point above the anchor
        (1.0, [3.0, 0.5, 1e-20]),   # every point below it
        (0.4, [1e300, 1e300, 1.0]),  # products past the float range
    ], ids=["tiny", "zero", "anchor0", "anchor1", "overflow"])
    def test_equals_pointwise(self, anchor, scales):
        rng = np.random.default_rng(37)
        k = AnchoredKernel(3, anchor=anchor, scales=scales)
        near = [anchor, np.nextafter(anchor, -1.0), np.nextafter(anchor, 2.0)]
        special = [*near, 0.0, 1.0, min(anchor + 0.25, 1.0), max(anchor - 0.25, 0.0)]
        X = rng.uniform(0, 1, (self.N, 3))
        X[: len(special)] = np.array(special)[:, None]
        X[-len(special):] = rng.permutation(np.repeat(special, 3)).reshape(-1, 3)
        H = rng.uniform(0, 1, (self.N, 3))
        H[: len(special)] = np.array(special)[::-1, None]
        P = self.assert_pointwise(k, X, H)
        # a scale of 1e-20 gives the factor 1.0 off the anchor, on either side
        assert 1.0 + 1e-20 * max(anchor, 1.0 - anchor) == 1.0
        if 1e300 in scales:
            assert np.isinf(P).any() and np.isfinite(P).any()


#: sha256 of the training Gram and the holdout kernel matrix of every seed-1
#: regress request of ``perfbench/workloads.py``
GOLDEN_GRAM_DIGESTS = Path(__file__).parent / "golden" / "gram_digests_seed1.txt"


def gram_digest_lines(seed: int) -> list[str]:
    """One line per regress request of the benchmark: its number, label and
    the sha256 of its training Gram and holdout kernel matrix (``-`` without
    a holdout), as the CLI builds them with its default anchor.

    The benchmark writes each sample value as its ``repr``, which the CLI
    reads back to the same float, so the arrays the requests hold are the
    ones the CLI fits.  The fills use only minima and products, no BLAS, so
    the digests are the same with any BLAS build.
    """
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parent.parent / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    saved = sys.modules.get("workloads")
    sys.modules["workloads"] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        if saved is None:
            del sys.modules["workloads"]
        else:
            sys.modules["workloads"] = saved

    def sha(K):
        return hashlib.sha256(np.ascontiguousarray(K).tobytes()).hexdigest()

    lines = []
    for i, req in enumerate(workloads.regress_requests(seed)):
        X, _ = req.files[req.cfg["samples"]]
        k = AnchoredKernel(X.shape[1], scales=req.cfg["kernel"].get("scales"))
        holdout = "-"
        if "holdout" in req.cfg:
            holdout = sha(k.gram(req.files[req.cfg["holdout"]][0], X))
        lines.append(f"{i} {req.label} train={sha(gram_matrix(k, X))} holdout={holdout}")
    return lines


def test_gram_digests_match_golden():
    assert gram_digest_lines(1) == GOLDEN_GRAM_DIGESTS.read_text().splitlines()


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

    @pytest.mark.parametrize("call,lam,message", [
        ("fit", math.nan, "the regularization weight must be positive"),
        ("fit_map", math.nan, "regularization weights must be positive"),
        ("fit_map", [0.1, math.nan], "regularization weights must be positive"),
    ], ids=["fit", "fit_map-scalar", "fit_map-list"])
    def test_rejects_nan_lambda(self, call, lam, message):
        """A NaN weight fails every comparison: it is refused as not
        positive, before the Gram matrix or the shift n * lambda."""
        outputs = np.array([1.0]) if call == "fit" else np.array([[1.0, 2.0]])
        s = SampleSet(np.array([[0.5]]), outputs)
        with pytest.raises(ConfigInvalid, match=f"^{message}$"):
            {"fit": fit, "fit_map": fit_map}[call](s, AnchoredKernel(1), lam)

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


class TestSampleValidation:
    @pytest.mark.parametrize("scales", [[-1.0, 1.0], [1.0, np.nan], [np.inf, 1.0]],
                             ids=["negative", "nan", "inf"])
    def test_kernel_scales_must_be_nonnegative(self, scales):
        with pytest.raises(ConfigInvalid):
            AnchoredKernel(2, scales=scales)

    def test_zero_kernel_scale_drops_the_overlap(self):
        assert AnchoredKernel(2, scales=[0.0, 1.0])([0.9, 0.9], [0.8, 0.2]) == 1.0

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


class TestPointDimension:
    """Points with more or fewer coordinates than the kernel are refused,
    not cut to the kernel's coordinates or left to numpy's broadcasting."""

    @staticmethod
    def model():
        X = np.random.default_rng(53).uniform(0, 1, (8, 3))
        return fit(SampleSet(X, X.sum(axis=1)), AnchoredKernel(3), 0.1)

    @pytest.mark.parametrize("point", [[0.5, 0.5], [0.5, 0.5, 0.5, -7.0]], ids=["2", "4"])
    def test_predict(self, point):
        model = self.model()
        with pytest.raises(ConfigInvalid, match=f"points have {len(point)} coordinates, "
                                                "the kernel 3"):
            predict(model, point)
        with pytest.raises(ConfigInvalid, match=f"have {len(point)} coordinates"):
            predict(model, [point, point])
        assert isinstance(predict(model, [0.5, 0.5, 0.5]), float)

    @pytest.mark.parametrize("cols", [1, 3])
    @pytest.mark.parametrize("side", ["both", "rows", "columns"])
    def test_gram(self, cols, side):
        """``gram`` itself refuses them, as the pointwise kernel does."""
        k = AnchoredKernel(2, scales=[1.0, 1.0])
        good = np.full((4, 2), 0.9)
        bad = np.full((4, cols), 0.9)
        X, Y = {"both": (bad, bad), "rows": (bad, good), "columns": (good, bad)}[side]
        with pytest.raises(ConfigInvalid, match=f"points have {cols} coordinates, the kernel 2"):
            k.gram(X, X if side == "both" else Y)
        if side == "both":
            with pytest.raises(ConfigInvalid, match=f"points have {cols} coordinates"):
                k.gram(X, X.copy())

    @pytest.mark.parametrize("x,y", [([0.9, 0.9, 0.1], [0.8, 0.8, 0.9]), ([0.9], [0.8]), ([0.9, 0.9], [0.8])],
                             ids=["3-3", "1-1", "2-1"])
    def test_pointwise_kernel(self, x, y):
        """The pointwise kernel refuses them with ``gram``'s message; it had
        read the first ``dim`` coordinates of a longer point (1.69 on the
        first pair) and raised IndexError on a shorter one."""
        coords = len(x) if len(x) != 2 else len(y)
        with pytest.raises(ConfigInvalid, match=f"^points have {coords} coordinates, the kernel 2$"):
            AnchoredKernel(2)(x, y)
        assert AnchoredKernel(2)([0.9, 0.9], [0.8, 0.8]) == 1.6900000000000002

    def test_fit_on_extra_column(self):
        X = np.random.default_rng(59).uniform(0, 1, (8, 4))
        with pytest.raises(ConfigInvalid, match="points have 4 coordinates, the kernel 3"):
            fit(SampleSet(X, X.sum(axis=1)), AnchoredKernel(3), 0.1)


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

    @pytest.mark.parametrize("n", [30, 2 * _GRAM_TILE + 37])
    def test_repeated_lambda_matches_separate_fits(self, n):
        """Each output's solve gets the Gram back bit for bit, so it factors
        the bits its own one-output fit factors."""
        rng = np.random.default_rng(41)
        X = rng.uniform(0, 1, (n, 2))
        Y = rng.normal(size=(n, 3))
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
        return PointwiseKernel(1, lambda x, y: 1.0 if x[0] == y[0] else 1.0 + eps)

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



class TestSplitAcrossCPUs:
    """The Gram tiles and the holdout row blocks are filled on all workers,
    the symmetry check and the per-output solves on the calling thread; the
    bits are the same on any number of workers."""

    @staticmethod
    def workers(monkeypatch, count):
        monkeypatch.setattr(tensorsplit.regress, "_cpus", lambda: count)

    @staticmethod
    def run_all(X, H, Y, lambdas):
        k = AnchoredKernel(3, anchor=0.4, scales=[1.0, 0.35, 2.7])
        G = k.gram(X, X)
        bent = G.copy()
        bent[-1, 3] = np.nextafter(bent[-1, 3], 2.0)
        model = fit_map(SampleSet(X, Y), k, lambdas)
        return {
            "gram": G,
            "holdout": k.gram(H, X),
            "verdicts": (tensorsplit.regress._exactly_symmetric(G),
                         tensorsplit.regress._exactly_symmetric(bent)),
            "coefficients": model.coefficients,
            "fitted": model.fitted,
            "residual": model.residual,
            "jitter": model.jitter,
            "predict": predict(model, H),
        }

    def test_same_bits_on_one_and_more_workers(self, monkeypatch):
        rng = np.random.default_rng(41)
        n = 2 * _GRAM_TILE + 37
        X = rng.uniform(0, 1, (n, 3))
        H = rng.uniform(0, 1, (300, 3))
        Y = rng.normal(size=(n, 3))
        lambdas = [1e-3, 0.2, 1e-5]
        threads = set()
        fill = tensorsplit.regress._fill_block
        monkeypatch.setattr(tensorsplit.regress, "_fill_block",
                            lambda *a: threads.add(threading.current_thread().name) or fill(*a))
        results = {}
        old_interval = sys.getswitchinterval()
        try:
            # a short switch interval and more workers than CPUs interleave the workers often
            sys.setswitchinterval(1e-5)
            for count in (1, 2, 5):
                self.workers(monkeypatch, count)
                threads.clear()
                results[count] = self.run_all(X, H, Y, lambdas)
                # the six tiles of the training Gram alone use min(count, 6) workers
                assert len(threads) >= count and (count > 1) == (len(threads) > 1)
        finally:
            sys.setswitchinterval(old_interval)
        one = results[1]
        assert one["verdicts"] == (True, False)
        assert one["jitter"] == 0.0
        assert np.array_equal(one["fitted"], one["gram"] @ one["coefficients"])
        for count in (2, 5):
            other = results[count]
            assert other.keys() == one.keys()
            for key, value in one.items():
                if isinstance(value, np.ndarray):
                    assert value.shape == other[key].shape, key
                    assert (value == other[key]).all(), key
                else:
                    assert value == other[key], key

    def test_jitter_same_on_one_and_two_workers(self, monkeypatch):
        samples = SampleSet(np.array([[0.2], [0.7]]), np.array([[1.0, 2.0], [2.0, -1.0]]))
        models = []
        for count in (1, 2):
            self.workers(monkeypatch, count)
            models.append(fit_map(samples, TestJitter.kernel(5e-9), [1e-12, 2e-12]))
        assert models[0].jitter > 0.0
        assert models[0].jitter == models[1].jitter
        assert models[0].residual == models[1].residual
        assert np.array_equal(models[0].coefficients, models[1].coefficients)

    #: Gram [[5e307, 6e307], [6e307, 5e307]] on two points: lambda 1e307 fits;
    #: 7.5e307 makes the shifted diagonal overflow; 1.0 leaves the matrix
    #: indefinite up to the largest jitter
    LAMBDAS = {"ok": 1e307, "overflow": 7.5e307, "indefinite": 1.0}

    @pytest.mark.parametrize("order", list(itertools.permutations(LAMBDAS)),
                             ids=lambda order: "-".join(order))
    def test_lowest_failing_output_raises(self, monkeypatch, order):
        """Two outputs fail with different errors; every worker count raises
        the error of the first failing output, as one worker does, and
        leaves no thread behind."""
        kernel = PointwiseKernel(1, lambda x, y: 5e307 if x[0] == y[0] else 6e307)
        samples = SampleSet(np.array([[0.2], [0.7]]), np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0]]))
        lambdas = [self.LAMBDAS[name] for name in order]
        expected = {"overflow": ConfigInvalid, "indefinite": SolveFailed}[
            next(name for name in order if name != "ok")]
        raised = []
        for count in (1, 2, 3):
            self.workers(monkeypatch, count)
            before = threading.active_count()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises((ConfigInvalid, SolveFailed)) as info:
                    fit_map(samples, kernel, lambdas)
            assert threading.active_count() == before
            raised.append((type(info.value), str(info.value)))
        assert raised[0][0] is expected
        assert raised[1] == raised[0] and raised[2] == raised[0]

    def test_no_thread_left_behind(self, monkeypatch):
        """gram, fit_map and predict join their workers, also when one raises."""
        self.workers(monkeypatch, 2)
        rng = np.random.default_rng(43)
        X = rng.uniform(0, 1, (2 * _GRAM_TILE + 37, 2))
        samples = SampleSet(X, rng.normal(size=(len(X), 2)))
        k = AnchoredKernel(2)
        before = threading.active_count()
        model = fit_map(samples, k, [1e-3, 1e-2])
        predict(model, rng.uniform(0, 1, (500, 2)))
        k.gram(X, X)
        assert threading.active_count() == before

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker failed")
            return fill(*args)

        fill = tensorsplit.regress._fill_block
        monkeypatch.setattr(tensorsplit.regress, "_fill_block", failing)
        for call in (lambda: k.gram(X, X), lambda: fit_map(samples, k, [1e-3, 1e-2]),
                     lambda: predict(model, X[_GRAM_TILE:])):
            with pytest.raises(RuntimeError, match="worker failed"):
                call()
            assert threading.active_count() == before

    def test_per_output_solves_on_the_calling_thread(self, monkeypatch):
        """With two CPUs, per-output lambdas still solve every output on the
        calling thread, one after the other."""
        self.workers(monkeypatch, 2)
        solve = tensorsplit.regress._solve_regularized
        callers = []
        monkeypatch.setattr(tensorsplit.regress, "_solve_regularized",
                            lambda *a: callers.append(threading.get_ident()) or solve(*a))
        rng = np.random.default_rng(61)
        X = rng.uniform(0, 1, (40, 2))
        fit_map(SampleSet(X, rng.normal(size=(40, 3))), AnchoredKernel(2), [1e-3, 0.2, 1e-5])
        assert callers == [threading.get_ident()] * 3

    def test_symmetry_check_starts_no_thread(self, monkeypatch):
        """With two CPUs, the check of a matrix over several tiles runs on
        the calling thread."""
        self.workers(monkeypatch, 2)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda t: started.append(t) or start(t))
        n = _GRAM_TILE + 100
        G = np.arange(n * n, dtype=float).reshape(n, n)
        G = G + G.T
        bent = G.copy()
        bent[n - 1, 3] += 1.0
        assert tensorsplit.regress._exactly_symmetric(G)
        assert not tensorsplit.regress._exactly_symmetric(bent)
        assert started == []

    def test_overflow_on_several_tiles(self, monkeypatch):
        """Overflowing kernel entries over three tile rows and a 2000-row
        holdout matrix are inf on two workers, without a RuntimeWarning."""
        self.workers(monkeypatch, 2)
        rng = np.random.default_rng(47)
        X = rng.uniform(0, 1, (500, 2))
        k = AnchoredKernel(2, scales=[1e308, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigInvalid, match="non-finite entries"):
                fit_map(SampleSet(X, rng.normal(size=500)), k, 1e-3)
            holdout = k.gram(rng.uniform(0, 1, (2000, 2)), X)
        assert np.isinf(holdout).any()


class TestSolveInGramBuffer:
    """Each solve factors in the Gram's own buffer and gives the Gram back
    bit for bit on every exit, so a fit holds one n x n array."""

    N = 2 * _GRAM_TILE + 37  # three tile rows, the last one partial

    @staticmethod
    def flat_gram(n, eps):
        """(1 + eps) off the diagonal, 1 on it: eigenvalue -eps, n - 1 times;
        at n = 2 the Gram of ``TestJitter.kernel(eps)``."""
        G = np.full((n, n), 1.0 + eps)
        np.fill_diagonal(G, 1.0)
        return G

    @staticmethod
    def solve_keeps_bits(G, shift, rhs):
        before = G.tobytes()
        try:
            return _solve_regularized(G, shift, rhs)
        finally:
            assert G.tobytes() == before

    def test_solved_at_jitter_zero(self):
        rng = np.random.default_rng(71)
        X = rng.uniform(0, 1, (self.N, 3))
        G = gram_matrix(AnchoredKernel(3, scales=[1.0, 0.5, 2.0]), X)
        Y = rng.normal(size=(self.N, 2))
        C, jitter = self.solve_keeps_bits(G, self.N * 1e-3, Y)
        assert jitter == 0.0
        A = G + self.N * 1e-3 * np.eye(self.N)
        assert np.linalg.norm(A @ C - Y) <= 1e-10 * np.linalg.norm(Y)

    @pytest.mark.parametrize("n", [2, N])
    def test_solved_after_jitter(self, n):
        _, jitter = self.solve_keeps_bits(self.flat_gram(n, 5e-9), 2e-12, np.arange(1.0, n + 1.0))
        assert jitter > 0.0

    @pytest.mark.parametrize("n", [2, N])
    def test_solve_failed(self, n):
        with pytest.raises(SolveFailed):
            self.solve_keeps_bits(self.flat_gram(n, 1.0), 2e-3, np.ones(n))

    def test_overflowing_shifted_diagonal(self):
        G = np.array([[5e307, 6e307], [6e307, 5e307]])
        with pytest.raises(ConfigInvalid, match="plus the shift n \\* lambda overflows"):
            self.solve_keeps_bits(G, 2 * 7.5e307, np.array([1.0, 0.5]))

    @pytest.mark.parametrize("lambdas", [1e-3, [1e-3, 2e-3, 5e-4]], ids=["common", "per_output"])
    def test_traced_peak_below_one_and_a_quarter_grams(self, lambdas):
        """numpy reports its buffers to tracemalloc: one fit at n = 1000
        peaks below 1.25 Gram sizes (a copy of G, by the fit or by scipy,
        would make it 2)."""
        n = 1000
        rng = np.random.default_rng(79)
        samples = SampleSet(rng.uniform(0, 1, (n, 3)), rng.normal(size=(n, 3)))
        k = AnchoredKernel(3)
        fit_map(samples, k, lambdas)  # warm-up: imports and first-call caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fit_map(samples, k, lambdas)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * n
