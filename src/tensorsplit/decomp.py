"""ANOVA and anchored decompositions with their kernels and constants.

Both decompositions replace, per coordinate, a factor by a projection onto
constants: the mean-value projection (ANOVA) or evaluation at an anchor
point (anchored).  On separable functions each component is again separable,
so mixed derivatives and weighted norms reduce to one-dimensional integrals.

The univariate kernels tie function values to derivatives::

    g(x) = g(anchor) + integral of g'(t) * anchored_kernel(x, t) dt
    g(x) = mean(g)   + integral of g'(t) * anova_kernel(x, t) dt

and the derived constants (the energy of the averaged anchored kernel, and
the per-coordinate contraction factors) drive the norm-equivalence and
truncation bounds downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigInvalid, NormInfinite
from .functions import SeparableFunction, Term, deriv_inner, pair_sum
from .gammas import GammaModel
from .indexing import SupportSet
from .quadrature import QuadratureRule, gauss_legendre, integrate_piecewise

__all__ = [
    "MODE_ANOVA",
    "MODE_ANCHORED",
    "DecompositionTerm",
    "anchored_kernel",
    "anova_kernel",
    "averaged_anchored_kernel",
    "averaged_kernel_energy",
    "anchored_contraction",
    "anova_contraction",
    "anova_term",
    "anchored_term",
    "decompose",
    "weighted_norm",
    "reconstruct",
    "anchored_representation",
    "mean_representation",
    "DEFAULT_ANCHOR",
]

MODE_ANOVA = "anova"
MODE_ANCHORED = "anchored"

#: midpoint anchor minimizes both kernel constants
DEFAULT_ANCHOR = 0.5

_ZERO_TOL = 1e-12


def _check_anchor(anchor: float) -> float:
    anchor = float(anchor)
    if not 0.0 <= anchor <= 1.0:
        raise ConfigInvalid(f"anchor must lie in [0, 1], got {anchor}")
    return anchor


def _check_mode(mode: str) -> str:
    if mode not in (MODE_ANOVA, MODE_ANCHORED):
        raise ConfigInvalid(f"mode must be '{MODE_ANOVA}' or '{MODE_ANCHORED}'")
    return mode


# ---------------------------------------------------------------------------
# kernels and constants


def anchored_kernel(x: float, t: float, anchor: float = DEFAULT_ANCHOR) -> float:
    """Indicator difference 1_[0,x](t) - 1_[0,anchor](t)."""
    anchor = _check_anchor(anchor)
    return (1.0 if t <= x else 0.0) - (1.0 if t <= anchor else 0.0)


def anova_kernel(x: float, t: float) -> float:
    """t on [0, x), and -(1 - t) on [x, 1]."""
    return t if t < x else -(1.0 - t)


def averaged_anchored_kernel(t: float, anchor: float = DEFAULT_ANCHOR) -> float:
    """Integral of the anchored kernel over x: -t below the anchor, 1-t above."""
    anchor = _check_anchor(anchor)
    return -t if t < anchor else 1.0 - t


def averaged_kernel_energy(anchor: float = DEFAULT_ANCHOR) -> float:
    """Squared L2 norm of the averaged anchored kernel: 1/3 - a(1-a)."""
    anchor = _check_anchor(anchor)
    return 1.0 / 3.0 - anchor * (1.0 - anchor)


def anchored_contraction(anchor: float = DEFAULT_ANCHOR) -> float:
    """Per-coordinate L2 contraction of anchored components: max(a^2,(1-a)^2)/2."""
    anchor = _check_anchor(anchor)
    return 0.5 * max(anchor**2, (1.0 - anchor) ** 2)


def anova_contraction() -> float:
    """Per-coordinate L2 contraction of ANOVA components: 1/6."""
    return 1.0 / 6.0


def anchored_representation(
    factor, x: float, anchor: float = DEFAULT_ANCHOR, rule: QuadratureRule | None = None
) -> float:
    """Reconstruct g(x) from g(anchor) and the derivative, via the kernel."""
    rule = rule or gauss_legendre(8)
    integral = integrate_piecewise(
        lambda t: factor.deriv(t) * anchored_kernel(x, t, anchor), rule, (x, anchor)
    )
    return factor.value(anchor) + integral


def mean_representation(factor, x: float, rule: QuadratureRule | None = None) -> float:
    """Reconstruct g(x) from its mean and the derivative, via the kernel."""
    rule = rule or gauss_legendre(8)
    integral = integrate_piecewise(
        lambda t: factor.deriv(t) * anova_kernel(x, t), rule, (x,)
    )
    return factor.mean + integral


# ---------------------------------------------------------------------------
# decomposition terms


@dataclass(frozen=True)
class DecompositionTerm:
    """One component of a decomposition, with its active set and energy.

    ``mixed_norm_sq`` is the squared L2 norm of the component's mixed first
    derivative in the active directions; for the empty set it is the square
    of the constant component.
    """

    omega: SupportSet
    func: SeparableFunction
    mixed_norm_sq: float


def _component(f: SeparableFunction, omega: SupportSet, center) -> DecompositionTerm:
    """Component with active set omega of the projection ``center``.

    In every product term an active factor g becomes g - center(g) and an
    inactive one multiplies the coefficient by center(g); a term that is
    constant in an active coordinate vanishes.
    """
    terms = []
    for t in f.terms:
        if any(t.factor(k).degree == 0 for k in omega):
            continue
        coef, factors = t.coef, {}
        for k, g in sorted(t.factors.items()):
            if k in omega:
                factors[k] = g.shifted(center(g))
            else:
                coef *= center(g)
        if coef != 0.0:
            terms.append(Term(coef, factors))
    if omega:
        energy = pair_sum(terms, deriv_inner)
    else:
        energy = math.fsum(t.coef for t in terms) ** 2
    return DecompositionTerm(omega, SeparableFunction(f.dim, terms), energy)


def anova_term(f: SeparableFunction, omega: SupportSet) -> DecompositionTerm:
    """Component with active set omega of the mean-projection decomposition."""
    _check_support(f, omega)
    return _component(f, omega, lambda g: g.mean)


def anchored_term(
    f: SeparableFunction, omega: SupportSet, anchor: float = DEFAULT_ANCHOR
) -> DecompositionTerm:
    """Component with active set omega of the anchor-evaluation decomposition."""
    anchor = _check_anchor(anchor)
    _check_support(f, omega)
    return _component(f, omega, lambda g: g.value(anchor))


def _check_support(f: SeparableFunction, omega: SupportSet):
    if omega.max_coord > f.dim:
        raise ConfigInvalid(
            f"active set {omega!r} exceeds the function dimension {f.dim}"
        )


def decompose(
    f: SeparableFunction, mode: str, anchor: float = DEFAULT_ANCHOR
) -> list[DecompositionTerm]:
    """All components of the chosen decomposition, in canonical set order."""
    _check_mode(mode)
    supports = SupportSet(range(1, f.dim + 1)).subsets()
    if mode == MODE_ANOVA:
        return [anova_term(f, omega) for omega in supports]
    return [anchored_term(f, omega, anchor) for omega in supports]


def _weighted_energies(terms: Sequence[DecompositionTerm], gamma: GammaModel) -> dict:
    """``{omega: energy / gamma_omega}`` over the components with nonzero
    weight; ``NormInfinite`` if a component with energy has zero weight."""
    scale = max((t.mixed_norm_sq for t in terms), default=0.0)
    tol = _ZERO_TOL * (1.0 + scale)
    table = {}
    for t in terms:
        gv = gamma.value(t.omega)
        if gv == 0.0:
            if t.mixed_norm_sq > tol:
                raise NormInfinite(
                    f"component {t.omega!r} has energy {t.mixed_norm_sq} but zero weight"
                )
            continue
        table[t.omega] = t.mixed_norm_sq / gv
    return table


def weighted_norm(
    f: SeparableFunction,
    gamma: GammaModel,
    mode: str,
    anchor: float = DEFAULT_ANCHOR,
) -> float:
    """Weighted decomposition norm: sqrt of sum gamma^-1 * component energy.

    Raises ``NormInfinite`` when a component with nonzero energy meets a
    vanishing set weight: the function then lies outside the space.
    """
    energies = _weighted_energies(decompose(f, mode, anchor), gamma)
    return math.sqrt(max(0.0, math.fsum(energies.values())))


def reconstruct(terms: Sequence[DecompositionTerm], x: Sequence[float]) -> float:
    """Sum of all components at a point; equals the original function."""
    return math.fsum(t.func.value(x) for t in terms)
