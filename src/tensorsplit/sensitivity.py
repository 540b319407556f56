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

import math
from dataclasses import dataclass

from .decomp import (
    DEFAULT_ANCHOR,
    MODE_ANCHORED,
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
        return math.fsum(
            v for omega, v in self.per_omega.items() if omega.issuperset(omega0)
        )


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
    _check_order(m)
    terms: list[Term] = []
    for t in decompose(f, mode, anchor):
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
    return math.sqrt(max(0.0, pair_sum(diff, value_inner)))
