"""Regularized least-squares recovery of functions and coefficient maps.

The hypothesis space is a reproducing-kernel Hilbert space on the unit
cube; the penalized least-squares minimizer is a finite kernel expansion
over the sample points, so fitting reduces to one symmetric positive
definite solve of (G + n * lambda * I) c = y per output.

The default kernel tensorizes the univariate kernel of the anchored
first-order Sobolev inner product f(a) g(a) + int f' g': on one coordinate
it is 1 plus the overlap length of the two intervals joining each argument
to the anchor (zero when the arguments lie on opposite sides).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .decomp import DEFAULT_ANCHOR
from .errors import ConfigInvalid, KernelAsymmetric, SolveFailed
from .indexing import IndexVector

__all__ = [
    "AnchoredKernel",
    "TensorProductKernel",
    "CustomKernel",
    "SampleSet",
    "FittedModel",
    "anchored_overlap",
    "gram_matrix",
    "fit",
    "fit_map",
    "predict",
]

_SYM_TOL = 1e-10
_JITTER_START = 1e-12
_JITTER_LIMIT = 1e-6
#: entries of one row block (256 KiB) in the Gram builder: a block and its
#: work buffers stay in cache across the coordinate passes
_GRAM_BLOCK = 1 << 15


def anchored_overlap(x: float, y: float, anchor: float) -> float:
    """Overlap length of the anchor-to-argument intervals, same side only."""
    sx = x - anchor
    sy = y - anchor
    if sx * sy <= 0.0:
        return 0.0
    return min(abs(sx), abs(sy))


class AnchoredKernel:
    """Tensor product of univariate anchored Sobolev kernels.

    Per coordinate the kernel is 1 + scale_k * overlap(x_k, y_k); the
    optional scales play the role of per-coordinate weights.
    """

    def __init__(self, dim: int, anchor: float = DEFAULT_ANCHOR, scales=None):
        if dim < 1:
            raise ConfigInvalid("kernel dimension must be positive")
        if not 0.0 <= anchor <= 1.0:
            raise ConfigInvalid("anchor must lie in [0, 1]")
        self.dim = int(dim)
        self.anchor = float(anchor)
        if scales is None:
            self.scales = (1.0,) * self.dim
        else:
            self.scales = tuple(float(s) for s in scales)
            if len(self.scales) != self.dim:
                raise ConfigInvalid("need one scale per coordinate")

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        v = 1.0
        for k in range(self.dim):
            v *= 1.0 + self.scales[k] * anchored_overlap(x[k], y[k], self.anchor)
        return v

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """K[i, j] = self(X[i], Y[j]), built in place one row block at a time.

        With a = x - anchor, the overlap on one coordinate is
        min(a+, b+) + min(a-, b-): one of the two minima is an exact 0.0, so
        the sum equals the same-side min(|a|, |b|) bit for bit.
        """
        sx = np.ascontiguousarray((X[:, : self.dim] - self.anchor).T)  # (d, n)
        sy = np.ascontiguousarray((Y[:, : self.dim] - self.anchor).T)  # (d, m)
        xp, xm = np.maximum(sx, 0.0), np.maximum(-sx, 0.0)
        yp, ym = np.maximum(sy, 0.0), np.maximum(-sy, 0.0)
        n, m = X.shape[0], Y.shape[0]
        block = max(1, _GRAM_BLOCK // max(m, 1))
        G = np.empty((n, m))
        t_buf = np.empty((min(n, block), m))
        u_buf = np.empty_like(t_buf)
        for i0 in range(0, n, block):
            rows = slice(i0, min(i0 + block, n))
            g = G[rows]
            t, u = t_buf[: len(g)], u_buf[: len(g)]
            for k, scale in enumerate(self.scales):
                # the first factor goes straight into g: 1.0 * t == t
                tk = g if k == 0 else t
                np.minimum(xp[k, rows, None], yp[k], out=tk)
                np.minimum(xm[k, rows, None], ym[k], out=u)
                tk += u
                if scale != 1.0:  # t * 1.0 == t
                    tk *= scale
                tk += 1.0
                if k:
                    g *= tk
        return G


class TensorProductKernel:
    """Weighted sum of tensorized univariate kernels over a finite index set.

    ``coefficients`` maps each active index to the inverse of its space
    weight; the zero index contributes the constant part.  ``univariate``
    evaluates the level-j kernel on coordinate k.
    """

    def __init__(
        self,
        dim: int,
        coefficients: dict[IndexVector, float],
        univariate: Callable[[int, int, float, float], float],
    ):
        if dim < 1:
            raise ConfigInvalid("kernel dimension must be positive")
        self.dim = int(dim)
        self.coefficients = dict(coefficients)
        self.univariate = univariate
        # the nonzero terms in canonical index order, which fixes the sum
        self._terms = sorted(((j, c) for j, c in self.coefficients.items() if c != 0.0),
                             key=lambda term: term[0].canonical_key())

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        total = 0.0
        for j, c in self._terms:
            v = c
            for k, jk in j.entries:
                v *= self.univariate(k, jk, x[k - 1], y[k - 1])
            total += v
        return total


class CustomKernel:
    def __init__(self, dim: int, fn: Callable):
        self.dim = int(dim)
        self.fn = fn

    def __call__(self, x, y) -> float:
        return float(self.fn(x, y))


@dataclass(frozen=True)
class SampleSet:
    """Training inputs in the unit cube with scalar or vector outputs."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        Y = np.asarray(self.outputs, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ConfigInvalid("inputs must be a nonempty (n, d) array")
        # NaN passes both cube comparisons below
        if not np.all(np.isfinite(X)):
            raise ConfigInvalid("inputs must be finite")
        if np.any(X < -1e-12) or np.any(X > 1.0 + 1e-12):
            raise ConfigInvalid("inputs must lie in the unit cube")
        if Y.ndim not in (1, 2) or Y.ndim == 2 and Y.shape[1] < 1:
            raise ConfigInvalid("outputs must be an (n,) or (n, L) array with L >= 1")
        if Y.shape[0] != X.shape[0]:
            raise ConfigInvalid("one output row per input required")
        if not np.all(np.isfinite(Y)):
            raise ConfigInvalid("outputs must be finite")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "outputs", Y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_outputs(self) -> int:
        return 1 if self.outputs.ndim == 1 else self.outputs.shape[1]


@dataclass
class FittedModel:
    """Kernel expansion coefficients with the data needed to predict."""

    coefficients: np.ndarray
    kernel: object
    lam: np.ndarray
    train_inputs: np.ndarray
    residual: float = 0.0
    jitter: float = 0.0
    #: values of the expansion at the training inputs, G @ coefficients
    fitted: np.ndarray | None = None

    def predict(self, x) -> float | np.ndarray:
        return predict(self, x)


def _kernel_matrix(kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """K[i, j] = kernel(X[i], Y[j]); batched when the kernel has ``gram``."""
    if hasattr(kernel, "gram"):
        return kernel.gram(X, Y)
    K = np.empty((X.shape[0], Y.shape[0]))
    for i in range(X.shape[0]):
        for j in range(Y.shape[0]):
            K[i, j] = kernel(X[i], Y[j])
    return K


def gram_matrix(kernel, xs) -> np.ndarray:
    """Kernel matrix over the sample points, validated for symmetry.

    An exactly symmetric matrix is returned as built (``0.5 * (G + G^T)``
    would equal it bit for bit); any other is symmetrized.
    """
    X = np.asarray(xs, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    G = _kernel_matrix(kernel, X, X)
    if np.array_equal(G, G.T):
        return G
    asym = float(np.max(np.abs(G - G.T))) if G.size else 0.0
    if asym > _SYM_TOL:
        raise KernelAsymmetric(f"max |G - G^T| = {asym:.3e}")
    # enforce exact symmetry so the factorization sees one consistent matrix
    return 0.5 * (G + G.T)


def _shifted(G: np.ndarray, shift: float, out: np.ndarray | None = None) -> np.ndarray:
    """G + shift*I, written into a copy of G (or into ``out``).

    Off the diagonal this is G itself, as G + 0.0 would be.
    """
    if out is None:
        out = G.copy()
    else:
        np.copyto(out, G)
    out.flat[:: G.shape[0] + 1] += shift
    return out


def _solve_regularized(G: np.ndarray, shift: float, rhs: np.ndarray, A: np.ndarray | None = None):
    """Cholesky solve of (G + shift*I) c = rhs with escalating jitter.

    Returns c, the jitter and G + shift*I, the matrix of the residual,
    written into ``A`` (a new array when None).
    """
    n = G.shape[0]
    base = float(np.trace(G)) / n if n else 1.0
    if base <= 0.0:
        base = 1.0
    jitter = 0.0
    while True:
        A = _shifted(G, shift + jitter, A)
        try:
            # G is exactly symmetric, so A.T is the same matrix in Fortran
            # order, which LAPACK factors in place instead of in a copy
            c = cho_solve(cho_factor(A.T, lower=True, overwrite_a=True), rhs)
            break
        except np.linalg.LinAlgError:
            jitter = _JITTER_START * base if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_LIMIT * base * (1.0 + 1e-12):
                raise SolveFailed(
                    f"factorization failed up to jitter {_JITTER_LIMIT:g} * trace/n"
                ) from None
    # the factor has taken A's place
    return c, jitter, _shifted(G, shift, A)


def fit(samples: SampleSet, kernel, lam: float) -> FittedModel:
    """Minimize mean squared sample error plus lam times the squared norm.

    This is ``fit_map`` on the single output column.
    """
    if lam <= 0:
        raise ConfigInvalid("the regularization weight must be positive")
    if samples.outputs.ndim != 1:
        raise ConfigInvalid("fit expects scalar outputs; use fit_map")
    model = fit_map(samples, kernel, lam)
    return replace(model, coefficients=model.coefficients[:, 0], fitted=model.fitted[:, 0],
                   lam=np.asarray(lam, dtype=float))


def fit_map(samples: SampleSet, kernel, lambdas) -> FittedModel:
    """Fit all output coordinates; one shared factorization when possible.

    ``lambdas`` is a scalar or one positive value per output.  Outputs are
    fitted independently; with a common regularization weight all columns
    reuse a single factorization.
    """
    Y = samples.outputs
    if Y.ndim == 1:
        Y = Y[:, None]
    L = Y.shape[1]
    lam_arr = np.asarray(lambdas, dtype=float)
    if lam_arr.ndim == 0:
        lam_arr = np.full(L, float(lam_arr))
    if lam_arr.shape != (L,):
        raise ConfigInvalid(f"need one regularization weight per output, got {lam_arr.shape}")
    if np.any(lam_arr <= 0):
        raise ConfigInvalid("regularization weights must be positive")

    G = gram_matrix(kernel, samples.inputs)
    shifts = samples.n * lam_arr
    if np.all(lam_arr == lam_arr[0]):
        C, jitter, A = _solve_regularized(G, shifts[0], Y)
        residuals = [_relative_residual(A, C[:, l], Y[:, l]) for l in range(L)]
    else:
        C = np.empty(Y.shape)
        residuals = []
        jitter = 0.0
        A = None  # one n x n buffer serves every column's shifted matrix
        for l in range(L):
            c, jit, A = _solve_regularized(G, shifts[l], Y[:, l], A)
            C[:, l] = c
            residuals.append(_relative_residual(A, C[:, l], Y[:, l]))
            jitter = max(jitter, jit)
    return FittedModel(
        coefficients=C,
        kernel=kernel,
        lam=lam_arr,
        train_inputs=samples.inputs,
        residual=max(residuals),
        jitter=jitter,
        fitted=G @ C,
    )


def _relative_residual(A, c, y) -> float:
    """||A c - y|| / ||y|| (absolute when y = 0), with A = G + shift*I."""
    r = A @ c - y
    ny = float(np.linalg.norm(y))
    return float(np.linalg.norm(r)) / ny if ny > 0 else float(np.linalg.norm(r))


def predict(model: FittedModel, x) -> float | np.ndarray:
    """Evaluate the kernel expansion at one point or a batch of points."""
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    out = _kernel_matrix(model.kernel, X, model.train_inputs) @ model.coefficients
    if single:
        return float(out[0]) if out.ndim == 1 else out[0]
    return out


def objective(model: FittedModel, samples: SampleSet, coefficients=None) -> float:
    """The penalized sample error at given (default: fitted) coefficients."""
    c = model.coefficients if coefficients is None else np.asarray(coefficients)
    G = gram_matrix(model.kernel, samples.inputs)
    Y = samples.outputs
    if c.ndim == 1:
        fit_vals = G @ c
        data = float(np.sum((Y - fit_vals) ** 2)) / samples.n
        smooth = float(model.lam) * float(c @ G @ c)
        return data + smooth
    fit_vals = G @ c
    data = float(np.sum((Y - fit_vals) ** 2)) / samples.n
    smooth = float(np.sum(model.lam * np.einsum("il,il->l", c, G @ c)))
    return data + smooth
