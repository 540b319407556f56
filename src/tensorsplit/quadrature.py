"""Gauss-Legendre quadrature on the unit interval.

Nodes and weights are computed by Newton iteration on the Legendre
recurrence with a fixed 1e-15 convergence tolerance, which makes the rules
deterministic across platforms at double precision.  Rules are cached per
order.

The decomposition kernels used elsewhere are piecewise polynomials, so this
module also provides integration with explicit breakpoints: the rule is
applied on each subinterval, keeping piecewise-polynomial integrands exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .errors import OrderOutOfRange

__all__ = ["QuadratureRule", "gauss_legendre", "integrate_1d", "integrate_piecewise"]

MAX_ORDER = 64


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (0,1), positive weights summing to 1, exact to degree 2n-1."""

    nodes: tuple[float, ...]
    weights: tuple[float, ...]


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule mapped from (-1,1) to (0,1)."""
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order must lie in [1, {MAX_ORDER}], got {n}")
    x = [math.cos(math.pi * (k + 0.75) / (n + 0.5)) for k in range(n)]
    for _ in range(100):
        steps = [_legendre(n, xi)[0] for xi in x]
        x = [xi - dx for xi, dx in zip(x, steps)]
        if max(map(abs, steps)) < 1e-15:
            break
    x.sort()
    dps = [_legendre(n, xi)[1] for xi in x]
    nodes = tuple(0.5 * (xi + 1.0) for xi in x)
    weights = tuple(0.5 * (2.0 / ((1.0 - xi * xi) * dp * dp)) for xi, dp in zip(x, dps))
    return QuadratureRule(nodes, weights)


def _legendre(n: int, x: float) -> tuple[float, float]:
    """The Newton step P_n(x) / P_n'(x) and the derivative P_n'(x)."""
    p_prev, p = 1.0, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p / dp, dp


def integrate_1d(g: Callable[[float], float], rule: QuadratureRule) -> float:
    """Apply the rule to g over [0, 1]."""
    return math.fsum(w * g(x) for x, w in zip(rule.nodes, rule.weights))


def integrate_piecewise(
    g: Callable[[float], float],
    rule: QuadratureRule,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate g over [0, 1], applying the rule between breakpoints.

    Breakpoints outside (0, 1) are ignored; duplicates are merged.  With
    breakpoints at every kink of a piecewise polynomial of per-piece degree
    <= 2n-1 the result is exact up to rounding.
    """
    cuts = sorted({float(b) for b in breakpoints if 0.0 < float(b) < 1.0})
    edges = [0.0] + cuts + [1.0]
    pieces = []
    for a, b in zip(edges[:-1], edges[1:]):
        h = b - a
        if h <= 0:
            continue
        pieces.extend(h * w * g(a + h * x) for x, w in zip(rule.nodes, rule.weights))
    return math.fsum(pieces)
