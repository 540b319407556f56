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
anchored decomposition and 1/6 for the ANOVA one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .decomp import (
    DEFAULT_ANCHOR,
    MODE_ANCHORED,
    DecompositionTerm,
    _check_mode,
    _weighted_energies,
    anchored_contraction,
    anova_contraction,
    decompose,
)
from .errors import DegenerateDenominator, GammaL1Violated, OrderOutOfRange
from .functions import SeparableFunction, Term, pair_sum, value_inner
from .gammas import GammaModel
from .indexing import EMPTY_SUPPORT, SupportSet

__all__ = [
    "SobolTable",
    "sobol_indices",
    "total_index",
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
        """Summed index over the table's supersets of ``omega0``.

        With U the union of the table's N sets, this walks the supersets of
        omega0 inside U, or scans the N entries where that is shorter:
        min(2**|U - omega0|, N) dictionary steps, so the totals of every
        set of a full table take O(3**|U|) steps together, not O(4**|U|).
        ``math.fsum`` is correctly rounded, so the order of the walk does
        not change a bit.
        """
        by_mask, union = self._by_mask
        m0 = _mask(omega0)
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
        """``{mask(omega): index}`` and the union of the masks."""
        by_mask = {_mask(omega): v for omega, v in self.per_omega.items()}
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
    _check_mode(mode)
    energies = _weighted_energies(decompose(f, mode, anchor), gamma)
    if not include_empty:
        energies.pop(EMPTY_SUPPORT, None)
    denominator = math.fsum(energies.values())
    if denominator <= 0.0:
        raise DegenerateDenominator(
            "no component carries energy under the chosen convention"
        )
    per_omega = {omega: v / denominator for omega, v in energies.items()}
    return SobolTable(mode=mode, per_omega=per_omega, denominator=denominator,
                      include_empty=include_empty)


def total_index(table: SobolTable, omega0: SupportSet) -> float:
    """Summed index over all supersets of the variable group."""
    return table.total(omega0)


def _check_order(m: int):
    if m < 0:
        raise OrderOutOfRange(f"truncation order must be nonnegative, got {m}")


def truncate_order(
    f: SeparableFunction, m: int, mode: str, anchor: float = DEFAULT_ANCHOR
) -> SeparableFunction:
    """The approximant keeping components with at most m active variables."""
    _check_mode(mode)
    return _truncated(f, decompose(f, mode, anchor), m)


def _truncated(
    f: SeparableFunction, components: Sequence[DecompositionTerm], m: int
) -> SeparableFunction:
    """``truncate_order`` from the components of one decomposition of f."""
    _check_order(m)
    terms: list[Term] = []
    for t in components:
        if len(t.omega) <= m:
            terms.extend(t.func.terms)
    if not terms:
        return SeparableFunction.constant(f.dim, 0.0)
    return SeparableFunction(f.dim, terms)


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
    _check_mode(mode)
    _check_order(m)
    t = anchored_contraction(anchor) if mode == MODE_ANCHORED else anova_contraction()
    max_order = gamma.max_order()
    if max_order is not None:
        # bounded order: sum the surviving layers directly (no cancellation)
        if m >= max_order:
            return 0.0
        by_order, total = gamma.order_sums(t, max_order)
        if total == math.inf:
            raise GammaL1Violated(
                "contraction-scaled set weights are not summable; no truncation bound"
            )
        return math.sqrt(max(0.0, math.fsum(by_order[m + 1 :])))
    by_order, total = gamma.order_sums(t, m)
    if total == math.inf:
        raise GammaL1Violated(
            "contraction-scaled set weights are not summable; no truncation bound"
        )
    tail = total - math.fsum(by_order)
    return math.sqrt(max(0.0, tail))


def l2_error(f: SeparableFunction, g: SeparableFunction) -> float:
    """L2([0,1]**d) distance between two separable functions."""
    if f.dim != g.dim:
        raise ValueError("functions must share the active dimension")
    diff = f.terms + [Term(-t.coef, dict(t.factors)) for t in g.terms]
    # each distinct pair of factors is integrated once
    return math.sqrt(max(0.0, pair_sum(diff, functools.cache(value_inner))))
