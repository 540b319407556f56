"""Weighted total sensitivity indices and m-variate truncation bounds.

Sensitivity indices normalize each decomposition component's weighted
energy by the total; total indices sum over all supersets of a variable
group.  By default the constant component is excluded from both numerator
and denominator (the variance-based convention); ``include_empty=True``
switches to the literal all-sets quotient, which is the convention under
which index ratios inherit the norm-equivalence constant.

m-variate truncation keeps the components with at most m active variables.
Its L2 error is bounded a priori by the tail sum of contraction-scaled set
weights; the contraction factor per coordinate is anchor-dependent for the
anchored decomposition and 1/6 for the ANOVA one.  The error itself is the
L2 norm of the components left out, read off per-coordinate generating
polynomials of the term pairs.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .decomp import (
    DEFAULT_ANCHOR,
    MODE_ANCHORED,
    _check_mode,
    _components,
    _energy_sum,
    _projected_terms,
    _submasks,
    _term_pairs,
    _weighted,
    anchored_contraction,
    anova_contraction,
    decompose,
    weighted_norm,
)
from .errors import ConfigInvalid, DegenerateDenominator, GammaL1Violated, OrderOutOfRange
from .functions import SeparableFunction, Term, value_inner
from .gammas import GammaModel
from .indexing import SupportSet

__all__ = [
    "SobolTable",
    "TruncationReport",
    "sobol_indices",
    "truncate_order",
    "truncation_bound",
    "truncation_report",
    "l2_error",
]


@dataclass(frozen=True)
class SobolTable:
    """Normalized component energies of one decomposition of one function.

    The table lists every subset of 1..dim whose set weight is nonzero (the
    empty set only with ``include_empty``), in canonical order.  ``weights``
    holds every set weight by bitmask (coordinate k is bit k - 1), and
    ``indices`` the index of each listed component by bitmask, in canonical
    order; every other set of the table has index 0.0.
    """

    mode: str
    dim: int
    weights: list
    indices: dict
    denominator: float
    include_empty: bool

    def rows(self):
        """``(rank, mask, index)`` of each set of the table in canonical
        order; rank counts every subset of 1..dim before it."""
        for rank, mask in enumerate(_canonical_masks(self.dim)):
            if self.weights[mask] != 0.0 and (mask or self.include_empty):
                yield rank, mask, self.indices.get(mask, 0.0)

    @functools.cached_property
    def per_omega(self) -> dict:
        """``{omega: index}`` over the sets of the table, in canonical order."""
        return {SupportSet._from_coords(tuple(k + 1 for k in range(self.dim) if mask >> k & 1)): v
                for _, mask, v in self.rows()}

    def total(self, omega0: SupportSet) -> float:
        """Summed index over the table's supersets of ``omega0``."""
        return self.mask_total(_mask(omega0))

    def mask_total(self, m0: int) -> float:
        """``total`` of the set with bitmask ``m0``."""
        return self._totals.get(m0, 0.0)

    @functools.cached_property
    def _totals(self) -> dict:
        """``{mask: total}`` over the masks below a nonzero index: each
        nonzero index is added to every submask of its set, and each mask
        takes one ``math.fsum``; every other mask totals 0.0.  ``fsum`` is
        correctly rounded and never returns -0.0, so neither the order of
        the appends nor the skipped zeros change a bit."""
        found = collections.defaultdict(list)
        for mask, v in self.indices.items():
            for sub in _submasks(mask) if v != 0.0 else ():
                found[sub].append(v)
        return {m: math.fsum(vs) for m, vs in found.items()}


def _mask(omega: SupportSet) -> int:
    """The set as a bitmask: coordinate k is bit k - 1."""
    return sum(1 << (k - 1) for k in omega)


def _canonical_masks(dim: int):
    """The bitmask of every subset of 1..dim, in canonical order (size,
    then lexicographic)."""
    bits = [1 << k for k in range(dim)]
    for size in range(dim + 1):
        yield from map(sum, itertools.combinations(bits, size))


def sobol_indices(
    f: SeparableFunction,
    gamma: GammaModel,
    mode: str,
    anchor: float = DEFAULT_ANCHOR,
    include_empty: bool = False,
) -> SobolTable:
    """Weighted sensitivity indices of every component, from the energy
    pass and the weights of ``gamma.mask_values``.

    Raises ``DegenerateDenominator`` when nothing contributes (a constant
    function under the default convention) and ``NormInfinite`` when a
    component with energy meets a zero weight.  A set that no term reaches
    has energy 0.0: its index is 0.0 where its weight is nonzero.
    """
    components = _components(f, mode, anchor)
    weights = gamma.mask_values(f.dim)
    energies = {c[3]: v for c, v in _weighted(components, [weights[c[3]] for c in components])
                if c[3] or include_empty}
    denominator = _energy_sum(energies.values())
    if denominator <= 0.0:
        raise DegenerateDenominator(
            "no component carries energy under the chosen convention"
        )
    indices = {m: v / denominator for m, v in energies.items()}
    return SobolTable(mode, f.dim, weights, indices, denominator, include_empty)


def _check_order(m: int):
    if m < 0:
        raise OrderOutOfRange(f"truncation order must be nonnegative, got {m}")


def truncate_order(
    f: SeparableFunction, m: int, mode: str, anchor: float = DEFAULT_ANCHOR
) -> SeparableFunction:
    """The approximant keeping components with at most m active variables."""
    components = decompose(f, mode, anchor)
    _check_order(m)
    terms = [term for t in components if len(t.omega) <= m for term in t.func.terms]
    return SeparableFunction(f.dim, terms) if terms else SeparableFunction.constant(f.dim, 0.0)


def truncation_bound(
    gamma: GammaModel,
    m: int,
    mode: str,
    anchor: float = DEFAULT_ANCHOR,
) -> float:
    """A priori L2 error bound for the order-m truncation.

    Equals the square root of the tail sum over sets larger than m of
    contraction**|set| * gamma; dividing out the weighted norm of the
    function is the caller's business.  Requires the full contraction-scaled
    series to converge, else ``GammaL1Violated``.
    """
    return _truncation_bounds(gamma, [m], mode, anchor)[0]


@dataclass(frozen=True)
class TruncationReport:
    """The ``truncate`` numbers: the weighted norm of the function, and
    ``(m, error, bound, bound ratio)`` for each order m, where the bound is
    ``truncation_bound`` times the norm and the ratio is error / bound, or
    0.0 where the bound is 0."""

    norm: float
    rows: list


def truncation_report(
    f: SeparableFunction,
    gamma: GammaModel,
    mode: str,
    m_list: Sequence[int] | None = None,
    anchor: float = DEFAULT_ANCHOR,
) -> TruncationReport:
    """The L2 error of each order-m truncation of f and its a priori bound,
    for each m of ``m_list`` (every m from 0 to ``f.dim`` by default).

    The norm is ``weighted_norm``'s, so its mode and dimension are checked
    first; then every m, by the errors.
    """
    m_list = list(range(f.dim + 1)) if m_list is None else m_list
    norm = weighted_norm(f, gamma, mode, anchor)
    errors = _truncation_errors(f, m_list, mode, anchor)
    bounds = _truncation_bounds(gamma, m_list, mode, anchor)
    rows = []
    for m, err, bound in zip(m_list, errors, bounds):
        bound *= norm
        rows.append((m, err, bound, err / bound if bound > 0 else 0.0))
    return TruncationReport(norm, rows)


def _truncation_bounds(
    gamma: GammaModel, m_list: Sequence[int], mode: str, anchor: float = DEFAULT_ANCHOR
) -> list[float]:
    """``truncation_bound`` for each m of ``m_list``, from one
    ``order_sums`` call.

    Every m is checked first, in list order.  A gamma with a largest set
    size takes the sums up to it for every m.  Any other gamma takes them
    up to the largest m: Newton's e_l depends only on p_1..p_l, so a
    smaller m's sums are a bitwise prefix.  The one exception is a power
    sum p_i that is infinite where p_1 is not: Newton then writes every e_l
    as inf, and an m below the largest takes its own call.
    """
    _check_mode(mode)
    for m in m_list:
        _check_order(m)
    t = anchored_contraction(anchor) if mode == MODE_ANCHORED else anova_contraction()
    max_order = gamma.max_order()
    top = max(m_list, default=0) if max_order is None else max_order
    shared = None
    bounds = []
    for m in m_list:
        if max_order is not None and m >= max_order:
            bounds.append(0.0)
            continue
        try:
            if shared is None:
                shared = gamma.order_sums(t, top)
            by_order, total = shared
            if max_order is None and m < top and total != math.inf and by_order[1] == math.inf:
                by_order, total = gamma.order_sums(t, m)
            if total == math.inf:
                raise GammaL1Violated(
                    "contraction-scaled set weights are not summable; no truncation bound"
                )
            if max_order is not None:
                # bounded order: sum the surviving layers directly (no cancellation)
                bounds.append(math.sqrt(max(0.0, math.fsum(by_order[m + 1 :]))))
                continue
            tail = total - math.fsum(by_order[: m + 1])
        except (OverflowError, ValueError) as exc:  # **, exp or fsum past the float range
            raise ConfigInvalid(
                "the order sums of the set weights overflow the float range") from exc
        bounds.append(math.sqrt(max(0.0, tail)))
    return bounds


def l2_error(f: SeparableFunction, g: SeparableFunction) -> float:
    """L2([0,1]**d) distance between two separable functions.

    The square is the fsum, over unordered pairs of terms (r, s) of the
    difference, of c_r c_s prod_k <g_rk, g_sk>, doubled off the diagonal;
    the 1-D integrals are cached.  Terms of coefficient 0 of either
    function are left out: each is the zero function, and against a factor
    whose integrals overflow its pieces would be nan.  A squared distance
    that is not finite is ``ConfigInvalid``.
    """
    if f.dim != g.dim:
        raise ValueError("functions must share the active dimension")
    diff = [t for t in f.terms if t.coef != 0.0]
    diff += [Term(-t.coef, dict(t.factors)) for t in g.terms if t.coef != 0.0]
    inner = functools.cache(value_inner)
    pieces = []
    try:
        for j, ts in enumerate(diff):
            for i, tr in enumerate(diff[:j + 1]):
                piece = tr.coef * ts.coef
                for k in sorted(tr.factors.keys() | ts.factors.keys()):
                    piece *= inner(tr.factor(k), ts.factor(k))
                pieces.append(piece if i == j else 2.0 * piece)
        square = math.fsum(pieces)
    except (OverflowError, ValueError) as exc:  # an integral or fsum past the float range
        raise _overflow(0) from exc
    if not math.isfinite(square):
        raise _overflow(0)
    return math.sqrt(max(0.0, square))


def _truncation_errors(
    f: SeparableFunction, m_list: Sequence[int], mode: str, anchor: float = DEFAULT_ANCHOR
) -> list[float]:
    """The L2 error of ``truncate_order(f, m, mode, anchor)`` for each m of
    ``m_list``, from per-coordinate generating polynomials.

    Every m is checked first, in list order.  For a pair of terms (r, s),
    c_rk is the projection of r's factor at k (its mean, or its value at the
    anchor; 1 where it has none) and s_rk = g_rk - c_rk its shifted factor.
    Expanding f - S_m f = sum of the components above m::

        error**2(m) = sum_{r,s} c_r c_s sum_{i,j>m} [z**i w**j]
                      prod_k (c_rk c_sk + z c_sk int s_rk + w c_rk int s_sk
                              + z w <s_rk, s_sk>)

    with z counting r's active coordinates and w those of s.  In ANOVA mode
    int s_rk = 0 and only i = j is left: the components are L2-orthogonal.
    The z terms exist only where r is live, the w terms only where s is,
    and the z w term where both are; each distinct pair of shifted factors
    is integrated once.  A piece is c_r c_s times one coefficient, and each
    m takes one ``math.fsum`` of the pieces above it: exactly 0.0 where no
    component of any term lies above m.  Terms of coefficient 0 and
    coefficients exactly 0.0 add nothing, so no 0 * inf appears.  A 1-D
    integral past the float range reads nan and spoils only the
    coefficients that need it.  A nan square, or a sum that leaves the float
    range, is ``ConfigInvalid`` naming the position of the first such m; an
    inf square is written as it is.
    """
    for m in m_list:
        _check_order(m)
    anchored = mode == MODE_ANCHORED
    by_level = [[] for _ in range(f.dim + 1)]  # pieces by min(i, j)
    for scale, coords in _term_pairs(_projected_terms(f, mode, anchor)):
        poly = {(0, 0): 1.0}
        for _, a, g, b, h in coords:
            factor = [(0, 0, a * b)]
            if anchored and g is not None:
                factor.append((1, 0, b * g.mean))
            if anchored and h is not None:
                factor.append((0, 1, a * h.mean))
            if g is not None and h is not None:
                factor.append((1, 1, _inner(g, h)))
            poly = _times(poly, factor)
        for (zi, wj), p in poly.items():
            if zi and wj and p != 0.0:
                by_level[min(zi, wj)].append(scale * p)
    errors = []
    for i, m in enumerate(m_list):
        try:
            square = math.fsum(p for pieces in by_level[m + 1:] for p in pieces)
        except (OverflowError, ValueError) as exc:  # fsum past the float range
            raise _overflow(i) from exc
        if math.isnan(square):
            raise _overflow(i)
        errors.append(math.sqrt(max(0.0, square)))
    return errors


def _inner(g, h) -> float:
    """``value_inner`` of two shifted factors; nan where it leaves the float
    range, so that only the coefficients that need it are spoiled."""
    try:
        return value_inner(g, h)
    except (OverflowError, ValueError):  # a 1-D integral past the float range
        return math.nan


def _times(poly: dict, factor: list) -> dict:
    """The product of a polynomial ``{(i, j): coefficient}`` and the
    ``(di, dj, coefficient)`` terms of one factor; products with a
    coefficient exactly 0.0 are left out."""
    out: dict = {}
    for (i, j), p in poly.items():
        if p == 0.0:
            continue
        for di, dj, a in factor:
            if a != 0.0:
                key = (i + di, j + dj)
                out[key] = out.get(key, 0.0) + a * p
    return out


def _overflow(i: int) -> ConfigInvalid:
    return ConfigInvalid(f"the L2 error of approximant {i} overflows the float range")
