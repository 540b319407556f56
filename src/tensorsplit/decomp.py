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

import functools
import math
import operator
import sys
from typing import Sequence

from .errors import ConfigInvalid, NormInfinite
from .functions import SeparableFunction, Term, deriv_inner
from .gammas import GammaModel, ProductGamma
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
    "decompose",
    "decomposition_table",
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
#: largest function dimension ``decompose`` accepts: the ``anova``, ``anchored``
#: and ``sobol`` outputs write a row for each of its 2**dim supports
MAX_DECOMP_DIM = 20


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


class DecompositionTerm:
    """One component of a decomposition, with its active set and energy.

    ``mixed_norm_sq`` is the squared L2 norm of the component's mixed first
    derivative in the active directions; for the empty set it is the square
    of the constant component.  ``func`` is the component itself: a
    ``SeparableFunction``, or a function of no arguments that builds it on
    first use, as ``decompose`` gives it, so that energies cost no function.
    """

    __slots__ = ("omega", "_func", "mixed_norm_sq")

    def __init__(self, omega: SupportSet, func, mixed_norm_sq: float):
        self.omega, self._func, self.mixed_norm_sq = omega, func, mixed_norm_sq

    @property
    def func(self) -> SeparableFunction:
        if not isinstance(self._func, SeparableFunction):
            self._func = self._func()
        return self._func


def _live_mask(t: Term) -> int:
    """The coordinates where the term is not constant, as a bitmask
    (coordinate k is bit k - 1)."""
    return sum(1 << (k - 1) for k, g in t.factors.items() if g.degree != 0)


def _submasks(bits: int):
    """Every submask of ``bits``, from ``bits`` itself down to 0."""
    sub = bits
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & bits


def _projected_terms(f: SeparableFunction, mode: str, anchor: float) -> list[tuple]:
    """``(coef, {k: (c, g - c)}, live mask)`` per term of f whose
    coefficient is not 0, with one entry per factor g in coordinate order:
    c is g's mean (ANOVA) or its value at the anchor (anchored), and g - c
    the shifted factor, built once per term and coordinate, or None where
    g is constant.  Terms of coefficient 0 are the zero function: they
    reach no component and add no piece."""
    if mode == MODE_ANCHORED:
        anchor = _check_anchor(anchor)
    out = []
    for t in f.terms:
        if t.coef == 0.0:
            continue
        projected = {}
        for k, g in sorted(t.factors.items()):
            c = g.mean if mode == MODE_ANOVA else g.value(anchor)
            projected[k] = (c, g.shifted(c) if g.degree != 0 else None)
        out.append((t.coef, projected, _live_mask(t)))
    return out


#: ``(c, shifted factor)`` of an absent factor, the constant 1
_ONE = (1.0, None)


def _term_pairs(terms: list[tuple]):
    """For each unordered pair r <= s of ``_projected_terms``: c_r c_s,
    doubled where r != s, and ``(k, a, g, b, h)`` per coordinate k where
    either term has a factor, in coordinate order, with (a, g) and (b, h)
    the two terms' ``(c, shifted factor)`` there; g or h is None where that
    term is constant at k.  Each unordered pair stands for both orders: a
    product of the factors' integrals is the same bit for bit in either."""
    for i, (cr, fr, _) in enumerate(terms):
        for j in range(i, len(terms)):
            cs, fs, _ = terms[j]
            yield (cr * cs if i == j else 2.0 * cr * cs,
                   [(k, *fr.get(k, _ONE), *fs.get(k, _ONE)) for k in sorted(fr.keys() | fs.keys())])


def table_pair_pieces(coefs: Sequence[float], columns) -> list[float]:
    """c_i * c_j * prod over ``(table, at)`` in ``columns`` of
    ``table[at[i]][at[j]]`` for i <= j, the off-diagonal pieces doubled;
    pair (i, j) comes after every pair of a smaller j, so the first
    L*(L+1)/2 pieces are those of the first L coefficients.

    Each unordered pair is visited once and counted twice: its product is
    the same bit for bit in either order, doubling loses no bits and fsum is
    correctly rounded, so the fsum of the pieces equals the sum over
    ordered pairs.
    """
    pieces = []
    for j, c in enumerate(coefs):
        col = [d * c for d in coefs[:j + 1]]
        for table, at in columns:
            entries = table[at[j]]
            col = [p * entries[a] for p, a in zip(col, at)]
        pieces.extend([2.0 * p for p in col[:-1]])
        pieces.append(col[-1])
    return pieces


def _energy_builder(terms: list[tuple], coords):
    """A function of a component's coordinates and bitmask, inside
    ``coords``, giving its energy and the ``(coefficient, projected
    factors)`` of each of ``terms`` that it keeps.

    Per term and coordinate, c projects the factor g onto constants: its
    mean (ANOVA) or its value at the anchor.  In every product term an
    active factor g becomes g - c and an inactive one multiplies the
    coefficient by c; a term that is constant in an active coordinate
    vanishes, so a component keeps the terms whose live mask holds its own
    and whose coefficient is then not 0.  ``deriv_inner`` of the shifted
    factors is taken once per unordered pair of terms and coordinate of
    ``coords``, and every energy is read from those tables.  A 1-D integral
    or an energy whose sum overflows the float range is ``ConfigInvalid``
    naming the coordinate or the component; an ``inf`` that no sum trips
    over is returned as it is.
    """
    tables = {}
    for k in coords:
        # entries of terms that are constant at k are never read
        table = tables[k] = [[0.0] * len(terms) for _ in terms]
        rows = [(r, factors[k][1]) for r, (_, factors, bits) in enumerate(terms)
                if bits >> (k - 1) & 1]
        try:
            for i, (r, g) in enumerate(rows):
                for s, h in rows[i:]:
                    table[r][s] = table[s][r] = deriv_inner(g, h)
        except (OverflowError, ValueError) as exc:  # fsum past the float range
            raise ConfigInvalid(
                f"a derivative inner product at coordinate {k} overflows the float range"
            ) from exc

    def energy(active: tuple, mask: int) -> tuple[float, list]:
        rows, coefs, kept = [], [], []
        for r, (coef, factors, bits) in enumerate(terms):
            if mask & ~bits:
                continue
            for k, (c, _) in factors.items():
                if not mask >> (k - 1) & 1:
                    coef *= c
            if coef != 0.0:
                rows.append(r)
                coefs.append(coef)
                kept.append((coef, factors))
        try:
            if active:
                return math.fsum(table_pair_pieces(coefs, [(tables[k], rows) for k in active])), kept
            return math.fsum(coefs) ** 2, kept
        except (OverflowError, ValueError) as exc:  # ** or fsum past the float range
            raise ConfigInvalid(f"the energy of component SupportSet({list(active)}) "
                                "overflows the float range") from exc

    return energy


def _component_function(dim: int, active: tuple, kept: list) -> SeparableFunction:
    """The component with coordinates ``active`` from the terms it keeps."""
    return SeparableFunction(dim, [Term(coef, {k: factors[k][1] for k in active})
                                   for coef, factors in kept])


def _component_builder(f: SeparableFunction, mode: str, anchor: float, coords):
    """A function of omega giving the component with active set omega, for
    omega inside ``coords``, by ``_energy_builder``."""
    energy = _energy_builder(_projected_terms(f, mode, anchor), coords)

    def component(omega: SupportSet) -> DecompositionTerm:
        e, kept = energy(omega.coords, sum(1 << (k - 1) for k in omega))
        return DecompositionTerm(omega, _component_function(f.dim, omega.coords, kept), e)

    return component


def _check_decomposable(f: SeparableFunction, mode: str):
    """``ConfigInvalid`` for an unknown mode or a dimension above
    ``MAX_DECOMP_DIM``."""
    _check_mode(mode)
    if f.dim > MAX_DECOMP_DIM:
        raise ConfigInvalid(
            f"a decomposition lists all 2**dim components; dim {f.dim} exceeds "
            f"{MAX_DECOMP_DIM}")


def _components(f: SeparableFunction, mode: str, anchor: float = DEFAULT_ANCHOR) -> list[tuple]:
    """The energy pass: ``(omega, energy, kept, mask)`` of each component
    some term of f can reach (its set lies inside the term's live mask), in
    canonical set order, with ``kept`` as ``_energy_builder`` gives it and
    ``mask`` the set's bitmask.  A dimension above ``MAX_DECOMP_DIM`` is
    rejected with ``ConfigInvalid``."""
    _check_decomposable(f, mode)
    terms = _projected_terms(f, mode, anchor)
    reach = {0, *(sub for bits in {bits for _, _, bits in terms} for sub in _submasks(bits))}
    union = functools.reduce(operator.or_, reach)
    coords = [k for k in range(1, f.dim + 1) if union >> (k - 1) & 1]
    energy = _energy_builder(terms, coords)
    order = sorted((m.bit_count(), tuple(k for k in coords if m >> (k - 1) & 1), m) for m in reach)
    return [(SupportSet._from_coords(active), *energy(active, mask), mask) for _, active, mask in order]


def decompose(
    f: SeparableFunction, mode: str, anchor: float = DEFAULT_ANCHOR
) -> list[DecompositionTerm]:
    """The components some term of f can reach, in canonical set order: the
    energy pass ``_components``, with each component's function built on
    first use.  Every other component is zero: energy 0.0 and a function
    without terms.  A dimension above ``MAX_DECOMP_DIM`` is rejected with
    ``ConfigInvalid``.
    """
    return [DecompositionTerm(omega, functools.partial(_component_function, f.dim, omega.coords, kept), e)
            for omega, e, kept, _ in _components(f, mode, anchor)]


def decomposition_table(f: SeparableFunction, gamma: GammaModel, mode: str,
                        anchor: float = DEFAULT_ANCHOR) -> list[tuple]:
    """The ``anova``/``anchored`` rows of the components some term of f
    reaches: ``(omega, term norm, weighted contribution)`` in canonical
    order, the norm the square root of the energy and the contribution the
    energy over the set weight.  A set weight of 0 gives 0 against an
    energy of 0 and inf against any other; every component left out reads
    0, 0 whatever its weight.  An energy that reads nan (of inf * 0 pieces,
    which the norm would write as 0) is ``ConfigInvalid``.
    """
    rows = []
    for term in decompose(f, mode, anchor):
        e = term.mixed_norm_sq
        if math.isnan(e):
            raise ConfigInvalid(f"the energy of component {term.omega!r} overflows the float range")
        gv = gamma.value(term.omega)
        if gv > 0.0:
            contribution = e / gv
        else:
            contribution = 0.0 if e == 0.0 else math.inf
        rows.append((term.omega, math.sqrt(max(0.0, e)), contribution))
    return rows


def _weighted_energies(terms: Sequence[DecompositionTerm], gamma: GammaModel) -> dict:
    """``{omega: energy / gamma_omega}`` over the components of a
    ``decompose`` list with nonzero weight, by ``_weighted``."""
    weighted = _weighted([(t.omega, t.mixed_norm_sq) for t in terms], [gamma.value(t.omega) for t in terms])
    return {c[0]: v for c, v in weighted}


def _weighted(components: Sequence[tuple], weights: Sequence[float]) -> list[tuple]:
    """``(component, energy / weight)`` for each ``(omega, energy, ...)``
    component whose weight, at its position in ``weights``, is not 0;
    ``NormInfinite`` if a component with energy has zero weight.

    The zero components that the energy pass leaves out would change
    nothing here: their energy 0.0 never exceeds the tolerance, and it
    would raise the scale only where every energy is negative, so that
    none exceeds it.
    """
    scale = max((c[1] for c in components), default=0.0)
    tol = _ZERO_TOL * (1.0 + scale)
    out = []
    for c, gv in zip(components, weights):
        if gv != 0.0:
            out.append((c, c[1] / gv))
        elif c[1] > tol:
            raise NormInfinite(f"component {c[0]!r} has energy {c[1]} but zero weight")
    return out


def weighted_norm(
    f: SeparableFunction,
    gamma: GammaModel,
    mode: str,
    anchor: float = DEFAULT_ANCHOR,
) -> float:
    """Weighted decomposition norm: sqrt of sum gamma^-1 * component energy.

    A ``ProductGamma`` takes the product form ``_product_norm`` where it
    applies; every other weight, and a product weight where it does not,
    sums the components of ``decompose``.  Raises ``NormInfinite`` when a
    component with nonzero energy meets a vanishing set weight: the
    function then lies outside the space.
    """
    _check_decomposable(f, mode)
    norm = _product_norm(f, gamma, mode, anchor)
    return _weighted_norm(decompose(f, mode, anchor), gamma) if norm is None else norm


def _weighted_norm(terms: Sequence[DecompositionTerm], gamma: GammaModel) -> float:
    """``weighted_norm`` from a ``decompose`` list."""
    return math.sqrt(max(0.0, _energy_sum(_weighted_energies(terms, gamma).values())))


#: a product of per-coordinate weights inside [_TINY, 1 / _TINY] stays a
#: normal float, so no set weight rounds to 0 or to inf
_TINY = sys.float_info.min


def _product_norm(f: SeparableFunction, gamma: GammaModel, mode: str,
                  anchor: float = DEFAULT_ANCHOR) -> float | None:
    """``weighted_norm`` for a ``ProductGamma`` from the factors alone, or
    None where the component route must decide.

    A product weight factors the norm over coordinates::

        ||f||_gamma**2 = sum_{r,s} c_r c_s prod_k (c_rk c_sk + D_k^{rs} / gamma_k)

    with c_rk the projection of term r's factor at k (1 where it has none)
    and D_k^{rs} the ``deriv_inner`` of the two shifted factors, 0 unless
    both are live at k.  This is the sum of every component's energy over
    its set weight.  It is used only where every gamma_k on the terms' live
    coordinates is positive and finite and the products of min(gamma_k, 1)
    and of max(gamma_k, 1) stay normal floats, so that no set weight rounds
    to 0 or inf, and only where the sum is finite.  Otherwise the result is
    None, and ``decompose`` with ``_weighted_norm`` gives the norm or the
    error line.  Terms of coefficient 0 add nothing.
    """
    if type(gamma) is not ProductGamma:
        return None
    terms = _projected_terms(f, mode, anchor)
    union = 0
    for _, _, bits in terms:
        union |= bits
    weights = {k: gamma.seq.value(k) for k in range(1, f.dim + 1) if union >> (k - 1) & 1}
    lo = hi = 1.0
    for v in weights.values():
        if not 0.0 < v < math.inf:
            return None
        lo *= min(v, 1.0)
        hi *= max(v, 1.0)
    if not _TINY <= lo <= hi <= 1.0 / _TINY:
        return None
    pieces = []
    try:
        for piece, coords in _term_pairs(terms):
            for k, a, g, b, h in coords:
                factor = a * b
                if g is not None and h is not None:
                    factor += deriv_inner(g, h) / weights[k]
                piece *= factor
            pieces.append(piece)
        square = math.fsum(pieces)
    except (OverflowError, ValueError):  # an integral or fsum past the float range
        return None
    return math.sqrt(max(0.0, square)) if math.isfinite(square) else None


def _energy_sum(energies) -> float:
    """``math.fsum`` of weighted energies; ``ConfigInvalid`` where the sum
    of the finite ones leaves the float range (fsum raises there even
    beside an ``inf``, which alone sums to ``inf``), and where it is nan:
    an energy of inf - inf or 0 * inf pieces, which a norm would otherwise
    read as 0."""
    try:
        total = math.fsum(energies)
    except OverflowError as exc:
        raise ConfigInvalid("the weighted energies sum past the float range") from exc
    if math.isnan(total):
        raise ConfigInvalid("the weighted energies sum past the float range")
    return total


def reconstruct(terms: Sequence[DecompositionTerm], x: Sequence[float]) -> float:
    """Sum of all components at a point; equals the original function."""
    return math.fsum(t.func.value(x) for t in terms)
