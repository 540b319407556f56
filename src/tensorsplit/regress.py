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

from dataclasses import dataclass
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
        sx = X - self.anchor  # (n, d)
        sy = Y - self.anchor  # (m, d)
        G = np.ones((X.shape[0], Y.shape[0]))
        for k in range(self.dim):
            a = sx[:, k][:, None]
            b = sy[:, k][None, :]
            overlap = np.where(a * b > 0.0, np.minimum(np.abs(a), np.abs(b)), 0.0)
            G *= 1.0 + self.scales[k] * overlap
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

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        total = 0.0
        for j, c in sorted(self.coefficients.items(), key=lambda kv: kv[0].canonical_key()):
            if c == 0.0:
                continue
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
        if np.any(X < -1e-12) or np.any(X > 1.0 + 1e-12):
            raise ConfigInvalid("inputs must lie in the unit cube")
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
    """Kernel matrix over the sample points, validated for symmetry."""
    X = np.asarray(xs, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    G = _kernel_matrix(kernel, X, X)
    asym = float(np.max(np.abs(G - G.T))) if G.size else 0.0
    if asym > _SYM_TOL:
        raise KernelAsymmetric(f"max |G - G^T| = {asym:.3e}")
    # enforce exact symmetry so the factorization sees one consistent matrix
    return 0.5 * (G + G.T)


def _solve_regularized(G: np.ndarray, rhs: np.ndarray, shift: float):
    """Cholesky solve of (G + shift*I) c = rhs with escalating jitter."""
    n = G.shape[0]
    base = float(np.trace(G)) / n if n else 1.0
    if base <= 0.0:
        base = 1.0
    jitter = 0.0
    while True:
        try:
            factor = cho_factor(G + (shift + jitter) * np.eye(n), lower=True)
            return cho_solve(factor, rhs), jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START * base if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_LIMIT * base * (1.0 + 1e-12):
                raise SolveFailed(
                    f"factorization failed up to jitter {_JITTER_LIMIT:g} * trace/n"
                ) from None


def fit(samples: SampleSet, kernel, lam: float) -> FittedModel:
    """Minimize mean squared sample error plus lam times the squared norm."""
    if lam <= 0:
        raise ConfigInvalid("the regularization weight must be positive")
    if samples.outputs.ndim != 1:
        raise ConfigInvalid("fit expects scalar outputs; use fit_map")
    G = gram_matrix(kernel, samples.inputs)
    n = samples.n
    c, jitter = _solve_regularized(G, samples.outputs, n * lam)
    residual = _relative_residual(G, n * lam, c, samples.outputs)
    return FittedModel(
        coefficients=c,
        kernel=kernel,
        lam=np.asarray(lam, dtype=float),
        train_inputs=samples.inputs,
        residual=residual,
        jitter=jitter,
    )


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
    n = samples.n
    if np.all(lam_arr == lam_arr[0]):
        C, jitter = _solve_regularized(G, Y, n * lam_arr[0])
    else:
        cols = []
        jitter = 0.0
        for l in range(L):
            c, jit = _solve_regularized(G, Y[:, l], n * lam_arr[l])
            cols.append(c)
            jitter = max(jitter, jit)
        C = np.column_stack(cols)
    residual = max(
        _relative_residual(G, n * lam_arr[l], C[:, l], Y[:, l]) for l in range(L)
    )
    return FittedModel(
        coefficients=C,
        kernel=kernel,
        lam=lam_arr,
        train_inputs=samples.inputs,
        residual=residual,
        jitter=jitter,
    )


def _relative_residual(G, shift, c, y) -> float:
    r = (G + shift * np.eye(G.shape[0])) @ c - y
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
