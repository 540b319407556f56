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
energy of the ANOVA components left out, which are L2-orthogonal, or the
pair sum of f minus its anchored approximant.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .decomp import (
    DEFAULT_ANCHOR,
    MODE_ANCHORED,
    MODE_ANOVA,
    DecompositionTerm,
    _check_mode,
    _energy_sum,
    _weighted_energies,
    anchored_contraction,
    anova_contraction,
    decompose,
)
from .errors import ConfigInvalid, DegenerateDenominator, GammaL1Violated, OrderOutOfRange
from .functions import SeparableFunction, Term, pair_pieces, value_inner
from .gammas import GammaModel
from .indexing import EMPTY_SUPPORT, SupportSet

__all__ = [
    "SobolTable",
    "sobol_indices",
    "truncate_order",
    "truncation_bound",
    "l2_error",
]


@dataclass(frozen=True)
class SobolTable:
    """Normalized component energies of one decomposition of one function."""

    mode: str
    per_omega: dict
    denominator: float
    include_empty: bool

    def total(self, omega0: SupportSet) -> float:
        """Summed index over the table's supersets of ``omega0``."""
        return self._total(_mask(omega0))

    def _total(self, m0: int) -> float:
        """``total`` of the set with bitmask ``m0`` (see ``_mask``).

        Entries equal to 0.0 add nothing to the sum, so only the N nonzero
        entries are kept.  With U the union of their sets, this walks the
        supersets of m0 inside U, or scans the N entries where that is
        shorter: min(2**|U - m0|, N) dictionary steps, so the totals of
        every set of a full table take O(3**|U|) steps together, not
        O(4**|U|).  ``math.fsum`` is correctly rounded and never returns
        -0.0, so neither the order of the walk nor the skipped zeros change
        a bit.
        """
        by_mask, union = self._by_mask
        if m0 & ~union:
            return 0.0
        free = union & ~m0
        if 1 << free.bit_count() > len(by_mask):
            return math.fsum(v for m, v in by_mask.items() if m & m0 == m0)
        found, sub = [], free
        while True:
            v = by_mask.get(m0 | sub)
            if v is not None:
                found.append(v)
            if not sub:
                return math.fsum(found)
            sub = (sub - 1) & free

    @functools.cached_property
    def _by_mask(self) -> tuple[dict, int]:
        """``{mask(omega): index}`` over the nonzero indices, and the union
        of their masks."""
        by_mask = {_mask(omega): v for omega, v in self.per_omega.items() if v != 0.0}
        return by_mask, functools.reduce(operator.or_, by_mask, 0)


def _mask(omega: SupportSet) -> int:
    """The set as a bitmask: coordinate k is bit k - 1."""
    return sum(1 << (k - 1) for k in omega)


def sobol_indices(
    f: SeparableFunction,
    gamma: GammaModel,
    mode: str,
    anchor: float = DEFAULT_ANCHOR,
    include_empty: bool = False,
) -> SobolTable:
    """Weighted sensitivity indices of every component.

    Raises ``DegenerateDenominator`` when nothing contributes (a constant
    function under the default convention) and ``NormInfinite`` when a
    component with energy meets a zero weight.
    """
    live = decompose(f, mode, anchor)
    live_energies = _weighted_energies(live, gamma)
    listed = {t.omega.coords: t.omega for t in live}
    energies = {}
    for size in range(f.dim + 1):
        for coords in itertools.combinations(range(1, f.dim + 1), size):
            omega = listed.get(coords)
            if omega is None:
                # a zero component is listed where its weight is nonzero,
                # which takes the product: it may underflow to 0
                omega = SupportSet._from_coords(coords)
                gv = gamma.value(omega)
                if gv != 0.0:
                    energies[omega] = 0.0 / gv
            elif omega in live_energies:
                energies[omega] = live_energies[omega]
    if not include_empty:
        energies.pop(EMPTY_SUPPORT, None)
    denominator = _energy_sum(energies.values())
    if denominator <= 0.0:
        raise DegenerateDenominator(
            "no component carries energy under the chosen convention"
        )
    per_omega = {omega: v / denominator for omega, v in energies.items()}
    return SobolTable(mode=mode, per_omega=per_omega, denominator=denominator,
                      include_empty=include_empty)


def _check_order(m: int):
    if m < 0:
        raise OrderOutOfRange(f"truncation order must be nonnegative, got {m}")


def truncate_order(
    f: SeparableFunction, m: int, mode: str, anchor: float = DEFAULT_ANCHOR
) -> SeparableFunction:
    """The approximant keeping components with at most m active variables."""
    components = decompose(f, mode, anchor)
    _check_order(m)
    terms = _kept_terms(components, m)
    return SeparableFunction(f.dim, terms) if terms else SeparableFunction.constant(f.dim, 0.0)


def _kept_terms(components: Sequence[DecompositionTerm], m: int) -> list[Term]:
    """The terms of the components of at most m active variables, in the
    canonical order of the components: cardinality first, so the kept
    terms of a smaller m are a prefix of those of a larger one."""
    return [term for t in components if len(t.omega) <= m for term in t.func.terms]


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

    f's terms of coefficient 0 are left out, as ``_truncation_errors``
    leaves them out: each is the zero function, and against a factor whose
    integrals overflow its pieces would be nan.  g's terms all stay, so an
    empty approximant, the constant 0.0, meets f as it does in ``truncate``.
    """
    if f.dim != g.dim:
        raise ValueError("functions must share the active dimension")
    diff = [t for t in f.terms if t.coef != 0.0] + _negated(g.terms)
    return _prefix_l2_errors([(diff, len(diff))], functools.cache(value_inner))[0]


def _negated(terms: Sequence[Term]) -> list[Term]:
    return [Term(-t.coef, dict(t.factors)) for t in terms]


def _truncation_errors(
    f: SeparableFunction, components: Sequence[DecompositionTerm], m_list: Sequence[int],
    mode: str,
) -> list[float]:
    """The L2 error of ``truncate_order(f, m, mode)`` for each m of
    ``m_list``, from the ``decompose`` list of f in that mode.

    Every m is checked first, in list order.  Each distinct pair of
    factors is integrated once over the whole list.  A squared error that
    overflows the float range, or is nan, is ``ConfigInvalid`` naming the
    position of the first such m.

    ANOVA components are L2-orthogonal, so the squared error is the sum of
    the squared L2 norms of the components above m: one fsum of their pair
    pieces, exactly 0.0 where no component lies above m, and without the
    cancellation of summing f against its approximant.  Anchored
    components are not orthogonal, so the pair sum of f - S_m f stays; the
    terms of S_m are a prefix of those of the largest S_M asked for, so
    the pieces of f - S_M f are built once and each m sums its prefix,
    bit for bit what ``l2_error`` gives for f and S_m f.  f's terms of
    coefficient 0 are left out, as there: each is the zero function, and
    against a factor whose square integrates to inf its pieces would be nan.
    """
    for m in m_list:
        _check_order(m)
    inner = functools.cache(value_inner)
    if mode == MODE_ANOVA:
        return _anova_errors(components, m_list, inner)
    top = max(m_list, default=0)
    terms = [t for t in f.terms if t.coef != 0.0]
    diff = terms + _negated(_kept_terms(components, top))
    # an empty approximant is the constant 0.0, whose negated term is -0.0
    empty = terms + [Term(-0.0, {})]
    approximants = []
    for m in m_list:
        n = len(terms) + len(_kept_terms(components, m))
        approximants.append((diff, n) if n > len(terms) else (empty, len(empty)))
    return _prefix_l2_errors(approximants, inner)


def _anova_errors(
    components: Sequence[DecompositionTerm], m_list: Sequence[int], inner
) -> list[float]:
    """The ANOVA route of ``_truncation_errors``: per cardinality above the
    smallest m, the pair pieces of its components."""
    low = min(m_list, default=0)
    by_order: dict[int, list[float]] = {}
    broken = -1  # the largest cardinality whose 1-D integrals overflow
    for t in components:
        order = len(t.omega)
        if order <= low:
            continue
        try:
            by_order.setdefault(order, []).extend(pair_pieces(t.func.terms, inner))
        except (OverflowError, ValueError):  # a 1-D integral past the float range
            broken = order
    errors = []
    for i, m in enumerate(m_list):
        if m < broken:
            raise _overflow(i)
        try:
            square = math.fsum(p for order, pieces in by_order.items() if order > m for p in pieces)
        except (OverflowError, ValueError) as exc:  # fsum past the float range
            raise _overflow(i) from exc
        errors.append(_root(square, i))
    return errors


def _prefix_l2_errors(approximants: Sequence[tuple[list[Term], int]], inner) -> list[float]:
    """``_root`` of pair_sum(terms[:n]) for each ``(terms, n)``; entries
    that share a term list share its pair pieces.  A list some of whose
    1-D integrals overflow is integrated again, prefix by prefix, so the
    ``ConfigInvalid`` names the first entry whose own pairs overflow."""
    pieces_of: dict = {}  # id of a term list -> its pieces, None where an integral overflows
    errors = []
    for i, (terms, n) in enumerate(approximants):
        if id(terms) not in pieces_of:
            try:
                pieces_of[id(terms)] = pair_pieces(terms, inner)
            except (OverflowError, ValueError):  # a 1-D integral past the float range
                pieces_of[id(terms)] = None
        try:
            pieces = pieces_of[id(terms)]
            if pieces is None:  # the integral may belong to later terms only
                pieces = pair_pieces(terms[:n], inner)
            square = math.fsum(itertools.islice(pieces, n * (n + 1) // 2))
        except (OverflowError, ValueError) as exc:  # an integral or fsum past the float range
            raise _overflow(i) from exc
        errors.append(_root(square, i))
    return errors


def _root(square: float, i: int) -> float:
    """The error of approximant i from its squared error, a rounding below 0
    read as 0; a nan square (0 times an overflowing integral) is
    ``ConfigInvalid``, as an overflow is."""
    if math.isnan(square):
        raise _overflow(i)
    return math.sqrt(max(0.0, square))


def _overflow(i: int) -> ConfigInvalid:
    return ConfigInvalid(f"the L2 error of approximant {i} overflows the float range")
