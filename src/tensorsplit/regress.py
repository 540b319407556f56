"""Regularized least-squares recovery of functions and coefficient maps.

The hypothesis space is a reproducing-kernel Hilbert space on the unit
cube; the penalized least-squares minimizer is a finite kernel expansion
over the sample points, so fitting reduces to one symmetric positive
definite solve of (G + n * lambda * I) c = y per output.

A kernel is an object with ``dim``, the number of coordinates of a point,
and ``gram(X, Y)``, the matrix of its values at two point sets.
``AnchoredKernel`` tensorizes the univariate kernel of the anchored
first-order Sobolev inner product f(a) g(a) + int f' g': on one coordinate
it is 1 plus the overlap length of the two intervals joining each argument
to the anchor (zero when the arguments lie on opposite sides).

scipy is imported by the solve alone, so importing this module (and the
CLI) loads numpy but not scipy.

The anchored kernel's matrices are filled from coded points: each point's
value on its own side of the anchor, that side, and its values on both
sides for use as a column.  Per coordinate a fill gathers each column's
value on the row's side, takes one minimum and multiplies it in once; the
minimum on the other side is an exact 1.0, so the entries have the bits
of the pointwise kernel.

The tiles of the training Gram and the row blocks of any other kernel
matrix are filled on all the CPUs this process may run on (``_split``),
each exactly as in a serial loop, so the results have the same bits on any
number of CPUs.  The symmetry check and the solves run on the calling
thread: scipy's LAPACK wrappers hold the GIL, so solves in threads would
gain nothing and each need a copy of G, which a solve factors in place.

A fit holds one n x n array, the Gram G.  Each solve shifts G's diagonal
and factors G in its own buffer: the factor overwrites the diagonal and
the upper triangle, and G is restored bit for bit from its untouched
strict lower triangle and a saved copy of the diagonal.
"""

from __future__ import annotations

import contextvars
import csv
import math
import os
import threading
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .decomp import DEFAULT_ANCHOR
from .errors import (ConfigInvalid, KernelAsymmetric, SolveFailed, check_keys, config_number,
                     config_numbers)

__all__ = [
    "AnchoredKernel",
    "SampleSet",
    "FittedModel",
    "anchored_overlap",
    "gram_matrix",
    "fit",
    "fit_map",
    "predict",
    "load_samples",
    "kernel_from_json",
    "rmse",
    "regression_report",
]

_SYM_TOL = 1e-10
_JITTER_START = 1e-12
_JITTER_LIMIT = 1e-6
#: entries of one row block (256 KiB) in the Gram builder: a block and its
#: work buffer stay in cache across the coordinate passes
_GRAM_BLOCK = 1 << 15
#: side of the square tiles of the symmetric Gram builder, the symmetry
#: check and the restore after a solve (288 KiB each): a tile and its work
#: buffer, or its mirror, stay in cache; also the rows of a finiteness strip
_GRAM_TILE = 192


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _split(run, tasks: Sequence, scratch) -> None:
    """``run(task, buf)`` for every task, the tasks dealt round-robin to the CPUs.

    Only the two Gram fills call this.  The calling thread takes tasks 0,
    w, 2w, ... and one thread for each further CPU this process may run on
    takes the others, with w workers, never more than there are tasks.
    Each worker makes one ``buf = scratch()`` for all its tasks.  With one
    worker this is a plain loop that starts no thread.  The tasks must be
    independent, so that every split gives the loop's result.

    Workers run in copies of the caller's context, which holds numpy's
    error state.  Every thread is joined before this returns, also on an
    error, and the error of the lowest-numbered failing task is raised:
    the one the plain loop would raise.
    """
    workers = min(_cpus(), len(tasks))
    if workers <= 1:
        buf = scratch()
        for task in tasks:
            run(task, buf)
        return
    errors = {}

    def work(w):
        i = w
        try:
            buf = scratch()
            for i in range(w, len(tasks), workers):
                run(tasks[i], buf)
        except BaseException as exc:  # re-raised by the caller below
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(work, w))
               for w in range(1, workers)]
    started = []
    try:
        for t in threads:
            t.start()
            started.append(t)
        work(0)
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[min(errors)]


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
    optional scales play the role of per-coordinate weights.  A scale is
    finite and nonnegative (zero drops the coordinate's overlap term), which
    keeps the kernel positive semidefinite.
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
            if not all(0.0 <= s < math.inf for s in self.scales):
                raise ConfigInvalid(
                    f"kernel scales must be finite and nonnegative, got {list(self.scales)}")

    def __call__(self, x: Sequence[float], y: Sequence[float]) -> float:
        _check_points(len(x), self.dim)
        _check_points(len(y), self.dim)
        v = 1.0
        for k in range(self.dim):
            v *= 1.0 + self.scales[k] * anchored_overlap(x[k], y[k], self.anchor)
        return v

    def gram(self, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """K[i, j] = self(X[i], Y[j]), equal to the pointwise kernel bit for bit.

        ``gram(X, X)`` (Y is X) builds the tiles on and below the diagonal
        in a cached buffer and stores each one twice, as itself and as its
        transpose; ``min`` is commutative, so the mirror has the same bits.
        Any other Y is built in place one row block at a time.  Every point
        must have exactly ``dim`` coordinates.
        """
        rows = self._half_lines(X)
        # a product past the float range is inf, as in the pointwise kernel
        with np.errstate(over="ignore"):
            if Y is X:
                return _symmetric_gram(*rows)
            return _row_block_gram(*rows[:2], self._half_lines(Y)[2])

    def _half_lines(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points of X coded for the fill: (v, xs, pair).

        With a = x_k - anchor, a point's values on the two half-lines are
        1 + s_k * max(-a, 0) below the anchor and 1 + s_k * max(a, 0) above
        it; ``pair`` (d, 2, n) holds them in that order.  At most one of
        them differs from 1.0.  ``xs`` (d, n, intp) is the point's side, 1
        where its value above the anchor exceeds 1.0, else 0, and ``v``
        (d, n) its value on that side, the larger of the two.

        Rounding is monotone, so 1 + s * min(|a|, |b|) for a, b on one side
        is the min of the two points' values on that side, bit for bit; on
        the other side both values, and so their min, are an exact 1.0.
        A point above the anchor whose value there rounds to 1.0 reads side
        0 and v = 1.0; its min with any value on either side is then 1.0,
        the factor the pointwise kernel gives.
        """
        _check_points(X.shape[1], self.dim)
        a = np.ascontiguousarray((X - self.anchor).T)
        s = np.array(self.scales)[:, None]
        pair = np.empty((self.dim, 2, len(X)))
        np.add(1.0, s * np.maximum(-a, 0.0), out=pair[:, 0])
        np.add(1.0, s * np.maximum(a, 0.0), out=pair[:, 1])
        xs = (pair[:, 1] > 1.0).astype(np.intp)
        return pair.max(axis=1), xs, pair


def _fill_block(out, v, xs, pair, t):
    """out[i, j] = prod over k of min(v[k, i], pair[k, xs[k, i], j]).

    Row i meets each column on row i's side of the anchor: the min of the
    two points' values there is the factor 1 + s_k * overlap.  The min on
    the other side, an exact 1.0, is not multiplied in, so each entry has
    the pointwise kernel's products in its coordinate order and its bits.
    ``t`` is a contiguous work buffer of out's shape.  ``take`` runs with
    ``mode="clip"`` (xs is 0 or 1, so nothing is clipped): under the default
    "raise" numpy fills a copy of ``t`` and copies it back.
    """
    for k in range(len(v)):
        np.take(pair[k], xs[k], axis=0, out=t, mode="clip")
        np.minimum(v[k, :, None], t, out=t if k else out)
        if k:
            out *= t


def _row_block_gram(v, xs, pair) -> np.ndarray:
    """The kernel matrix of two point sets: the rows' v and xs, the columns' pair."""
    n, m = v.shape[1], pair.shape[2]
    block = max(1, _GRAM_BLOCK // max(m, 1))
    G = np.empty((n, m))

    def fill(i0, t_buf):
        rows = slice(i0, min(i0 + block, n))
        g = G[rows]
        _fill_block(g, v[:, rows], xs[:, rows], pair, t_buf[: len(g)])

    _split(fill, range(0, n, block), lambda: np.empty((min(n, block), m)))
    return G


def _symmetric_gram(v, xs, pair) -> np.ndarray:
    """The kernel matrix of one point set from its coded points."""
    n = v.shape[1]
    G = np.empty((n, n))
    side = min(n, _GRAM_TILE)

    def fill(corner, bufs):
        i0, j0 = corner
        rows = slice(i0, min(i0 + _GRAM_TILE, n))
        cols = slice(j0, min(j0 + _GRAM_TILE, n))
        r, c = rows.stop - i0, cols.stop - j0
        # contiguous also for the partial tiles, so ``take`` writes in place
        tile, t = (buf[: r * c].reshape(r, c) for buf in bufs)
        _fill_block(tile, v[:, rows], xs[:, rows], pair[:, :, cols], t)
        G[rows, cols] = tile
        if j0 < i0:
            G[cols, rows] = tile.T

    corners = [(i0, j0) for i0 in range(0, n, _GRAM_TILE) for j0 in range(0, i0 + 1, _GRAM_TILE)]
    _split(fill, corners, lambda: np.empty((2, side * side)))
    return G


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


def _check_points(coords: int, dim: int) -> None:
    """Refuse points with ``coords`` coordinates unless that is exactly ``dim``."""
    if coords != dim:
        raise ConfigInvalid(f"points have {coords} coordinates, the kernel {dim}")


def _kernel_matrix(kernel, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``kernel.gram(X, Y)``, K[i, j] = k(X[i], Y[j]).

    Every point must have exactly ``kernel.dim`` coordinates.
    """
    for P in (X, Y):
        _check_points(P.shape[1], kernel.dim)
    return kernel.gram(X, Y)


def _exactly_symmetric(G: np.ndarray) -> bool:
    """``np.array_equal(G, G.T)`` for a square G, one tile pair at a time.

    Each tile on or above the diagonal is compared with the transpose of
    its mirror tile, so no n x n temporary is made and both tiles are read
    from cache; the check stops at the first pair that differs.
    """
    n, t = G.shape[0], _GRAM_TILE
    return all(np.array_equal(G[a:a + t, c:c + t], G[c:c + t, a:a + t].T)
               for a in range(0, n, t) for c in range(a, n, t))


def gram_matrix(kernel, xs) -> np.ndarray:
    """Kernel matrix over the sample points, validated for symmetry.

    An exactly symmetric matrix is returned as built (``0.5 * (G + G^T)``
    would equal it bit for bit); any other is symmetrized.
    """
    X = np.asarray(xs, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    G = _kernel_matrix(kernel, X, X)
    if _exactly_symmetric(G):
        return G
    asym = float(np.max(np.abs(G - G.T))) if G.size else 0.0
    if asym > _SYM_TOL:
        raise KernelAsymmetric(f"max |G - G^T| = {asym:.3e}")
    # enforce exact symmetry so the factorization sees one consistent matrix
    return 0.5 * (G + G.T)


def _solve_regularized(G: np.ndarray, shift: float, rhs: np.ndarray):
    """Cholesky solve of (G + shift*I) c = rhs with escalating jitter, in G's buffer.

    G must be exactly symmetric, C-contiguous and finite, and rhs finite
    (``fit_map`` and ``SampleSet`` check them), so scipy's own scans are
    skipped; only the diagonal, which the shift and the jitter change, is
    checked here.  Each attempt writes G's diagonal plus shift + jitter
    into G and factors G in place.  The factor covers the diagonal and the
    upper triangle only, so after a solve, before each retry and on every
    raise G is restored bit for bit by ``_restore_upper`` from its strict
    lower triangle and the saved diagonal.  Returns c and the jitter.
    """
    # the one scipy use in the package, imported here so that only a
    # regression loads scipy
    from scipy.linalg import cho_factor, cho_solve

    n = G.shape[0]
    base = float(np.trace(G)) / n if n else 1.0
    if base <= 0.0:
        base = 1.0
    diag = G.diagonal().copy()
    jitter = 0.0
    while True:
        # the entries G + (shift + jitter) * I would have, as one rounding each
        with np.errstate(over="ignore"):  # checked on the next line
            shifted = diag + (shift + jitter)
        if not np.isfinite(shifted).all():
            raise ConfigInvalid("the kernel matrix plus the shift n * lambda "
                                "overflows the float range")
        G.flat[:: n + 1] = shifted
        try:
            # G is exactly symmetric, so G.T is the same matrix in Fortran
            # order, whose lower triangle (G's upper one) LAPACK overwrites
            # with the factor; G's strict lower triangle is neither read
            # nor written
            factor = cho_factor(G.T, lower=True, overwrite_a=True, check_finite=False)
            return cho_solve(factor, rhs, check_finite=False), jitter
        except np.linalg.LinAlgError:
            jitter = _JITTER_START * base if jitter == 0.0 else jitter * 10.0
            if jitter > _JITTER_LIMIT * base * (1.0 + 1e-12):
                raise SolveFailed(
                    f"factorization failed up to jitter {_JITTER_LIMIT:g} * trace/n"
                ) from None
        finally:
            _restore_upper(G, diag)


def _restore_upper(G: np.ndarray, diag: np.ndarray) -> None:
    """Copy G's strict lower triangle onto its upper one and ``diag`` onto
    its diagonal, one tile pair at a time, so no n x n temporary is made."""
    n, t = G.shape[0], _GRAM_TILE
    upper = np.triu(np.ones((min(n, t),) * 2, dtype=bool), 1)
    for a in range(0, n, t):
        tile = G[a:a + t, a:a + t]
        np.copyto(tile, tile.T, where=upper[: len(tile), : len(tile)])
        for c in range(a + t, n, t):
            G[a:a + t, c:c + t] = G[c:c + t, a:a + t].T
    G.flat[:: n + 1] = diag


def fit(samples: SampleSet, kernel, lam: float) -> FittedModel:
    """Minimize mean squared sample error plus lam times the squared norm.

    This is ``fit_map`` on the single output column.
    """
    if not lam > 0:  # NaN too
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
    reuse a single factorization, and otherwise the outputs are solved one
    after the other on the calling thread.  Each solve factors in the
    Gram's own buffer and restores it, so a fit holds one n x n array.
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
    if not np.all(lam_arr > 0):  # NaN too
        raise ConfigInvalid("regularization weights must be positive")

    G = gram_matrix(kernel, samples.inputs)
    # the one finiteness scan of G, a row strip at a time so that no n x n
    # temporary is made: the solves skip scipy's scans
    if not all(np.isfinite(G[i:i + _GRAM_TILE]).all() for i in range(0, len(G), _GRAM_TILE)):
        raise ConfigInvalid("the kernel matrix has non-finite entries")
    with np.errstate(over="ignore"):
        shifts = samples.n * lam_arr
    if not np.isfinite(shifts).all():
        raise ConfigInvalid("the shift n * lambda overflows the float range")
    if np.all(lam_arr == lam_arr[0]):
        C, jitter = _solve_regularized(G, shifts[0], Y)
    else:
        C, jitters = np.empty(Y.shape), [0.0] * L
        for l in range(L):
            C[:, l], jitters[l] = _solve_regularized(G, shifts[l], Y[:, l])
        jitter = max(jitters)
    # every solve has returned, so G's diagonal may now be shifted in place
    residuals = _relative_residuals(G, shifts, C, Y)
    return FittedModel(
        coefficients=C,
        kernel=kernel,
        lam=lam_arr,
        train_inputs=samples.inputs,
        residual=max(residuals),
        jitter=jitter,
        fitted=G @ C,
    )


def _relative_residuals(G, shifts, C, Y) -> list[float]:
    """||A c_l - y_l|| / ||y_l|| per output l (absolute when y_l = 0), A = G + shifts[l]*I.

    A is G with its diagonal shifted in place, which is restored afterwards,
    so A has the entries and layout of a shifted copy without the copy.
    """
    diag = G.diagonal().copy()
    step = G.shape[0] + 1
    residuals = []
    try:
        for l in range(C.shape[1]):
            G.flat[::step] = diag + shifts[l]
            r = G @ C[:, l] - Y[:, l]
            ny = float(np.linalg.norm(Y[:, l]))
            residuals.append(float(np.linalg.norm(r)) / ny if ny > 0 else float(np.linalg.norm(r)))
    finally:
        G.flat[::step] = diag
    return residuals


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
    Gc = gram_matrix(model.kernel, samples.inputs) @ c
    data = float(np.sum((samples.outputs - Gc) ** 2)) / samples.n
    # c_l . (G c_l) per output column, or one number for a vector c
    return data + float(np.sum(model.lam * np.einsum("i...,i...->...", c, Gc)))


# ---------------------------------------------------------------------------
# the regress command: samples and kernel from JSON, and the report


def load_samples(spec, config_dir=".") -> SampleSet:
    """Samples from a CSV path (relative to ``config_dir``) whose header
    names x... input and y... output columns, or from an inline object
    ``{"inputs": ..., "outputs": ...}``; one y column gives scalar outputs."""
    if isinstance(spec, str):
        path = Path(spec)
        if not path.is_absolute():
            path = Path(config_dir) / path
        try:
            with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
                header = next(csv.reader(fh))
                # loadtxt warns on a body without rows; that is zero samples
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None, quotechar='"')
            if not data.size:
                data = np.empty((0, len(header)))
            if data.shape[1] != len(header):
                raise ValueError(f"every row needs {len(header)} values")
        except (OSError, StopIteration, ValueError) as exc:
            # loadtxt's advice on a ragged row names one of its own arguments
            reason = str(exc).partition("; use `usecols`")[0]
            raise ConfigInvalid(f"cannot read sample CSV {path}: {reason}") from exc
        x_cols = [i for i, name in enumerate(header) if name.startswith("x")]
        y_cols = [i for i, name in enumerate(header) if name.startswith("y")]
        if not x_cols or not y_cols:
            raise ConfigInvalid("sample CSV needs x... and y... columns")
        Y = data[:, y_cols]
        return SampleSet(data[:, x_cols], Y[:, 0] if Y.shape[1] == 1 else Y)
    if isinstance(spec, dict):
        check_keys(spec, "samples", {"inputs", "outputs"})
        try:
            X, Y = np.asarray(spec["inputs"], dtype=float), np.asarray(spec["outputs"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalid(f"bad inline samples: {exc}") from exc
        return SampleSet(X, Y)
    raise ConfigInvalid("samples must be a CSV path or an inline object")


def kernel_from_json(obj, dim: int, anchor: float = DEFAULT_ANCHOR) -> AnchoredKernel:
    """A kernel on ``dim`` coordinates: ``{"type": "anchored"}`` with
    optional ``scales`` and ``anchor`` (``anchor`` by default)."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigInvalid("kernel spec must be an object with 'type'")
    if obj["type"] == "anchored":
        check_keys(obj, "kernel spec", {"type"}, {"scales", "anchor"})
        anchor = config_number(obj.get("anchor", anchor), float, "anchor")
        scales = obj.get("scales")
        if scales is not None:
            scales = config_numbers(scales, float, "kernel scales")
        return AnchoredKernel(dim, anchor=anchor, scales=scales)
    raise ConfigInvalid(f"unknown kernel type {obj['type']!r}")


def rmse(pred: np.ndarray, target: np.ndarray) -> float:
    """Root mean squared difference over every entry."""
    return float(np.sqrt(np.mean((pred - target) ** 2)))


def regression_report(cfg: dict, anchor: float = DEFAULT_ANCHOR, config_dir=".") -> dict:
    """The ``regress`` report of a config with ``samples`` and ``lambda``,
    and optionally ``kernel`` (the anchored kernel at ``anchor`` by default)
    and ``holdout`` samples: the fit's coefficients, residual, jitter and
    training RMSE, and the holdout RMSE.  ``lambda`` is one number for
    scalar outputs, and one number or one per output for vector outputs.

    The holdout is read after the fit, and must have the training inputs'
    columns and the training outputs' shape past the first axis.
    """
    samples = load_samples(cfg["samples"], config_dir)
    kernel = kernel_from_json(cfg.get("kernel", {"type": "anchored"}), samples.inputs.shape[1], anchor)
    lam = cfg["lambda"]
    if samples.outputs.ndim == 1:
        model = fit(samples, kernel, config_number(lam, float, "lambda"))
    else:
        convert = config_numbers if isinstance(lam, list) else config_number
        model = fit_map(samples, kernel, convert(lam, float, "lambda"))
    report = {
        "n": samples.n,
        "outputs": samples.n_outputs,
        "lambda": lam,
        "coefficients": model.coefficients.tolist(),
        "residual": model.residual,
        "jitter": model.jitter,
        "rmse_train": rmse(model.fitted, samples.outputs),
    }
    if "holdout" in cfg:
        holdout = load_samples(cfg["holdout"], config_dir)
        if holdout.inputs.shape[1] != samples.inputs.shape[1]:
            raise ConfigInvalid(
                f"holdout inputs have {holdout.inputs.shape[1]} columns, "
                f"training inputs {samples.inputs.shape[1]}"
            )
        if holdout.outputs.shape[1:] != samples.outputs.shape[1:]:
            raise ConfigInvalid(
                f"holdout outputs have shape {holdout.outputs.shape}, "
                f"training outputs {samples.outputs.shape}: need the same number "
                "of output columns, both 1-D or both 2-D"
            )
        report["rmse_holdout"] = rmse(predict(model, holdout.inputs), holdout.outputs)
    return report
