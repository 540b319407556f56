"""Separable test functions: sums of products of univariate factors.

Every function handled by the decomposition machinery is a finite sum of
products of univariate factors, each factor carrying its value, derivative,
and mean over [0, 1].  This makes projections and mixed derivatives
reducible to one-dimensional operations, which is what keeps the weighted
norms computable: mixed derivatives of black-box functions would not be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import ConfigInvalid, check_keys
from .quadrature import gauss_legendre, integrate_1d

__all__ = ["UnivariateFactor", "SeparableFunction", "Term", "function_from_json"]

#: Gauss-Legendre points for means and inner products of non-polynomial factors
DEFAULT_MEAN_ORDER = 32


class UnivariateFactor:
    """A univariate building block with value, derivative, and mean."""

    __slots__ = ("value", "deriv", "mean", "degree", "label")

    def __init__(
        self,
        value: Callable[[float], float],
        deriv: Callable[[float], float],
        mean: float | None = None,
        degree: int | None = None,
        label: str = "factor",
    ):
        self.value = value
        self.deriv = deriv
        self.degree = degree
        self.label = label
        if mean is None:
            self.mean = integrate_1d(value, gauss_legendre(DEFAULT_MEAN_ORDER))
        else:
            self.mean = float(mean)

    def __repr__(self):
        return f"UnivariateFactor({self.label})"

    # constructors -------------------------------------------------------

    @classmethod
    def polynomial(cls, coeffs: Sequence[float]) -> "UnivariateFactor":
        """Polynomial with ascending coefficients c0 + c1 x + c2 x**2 + ..."""
        cs = [float(c) for c in coeffs] or [0.0]
        while len(cs) > 1 and cs[-1] == 0.0:
            cs.pop()
        dcs = [i * cs[i] for i in range(1, len(cs))] or [0.0]

        def value(x, _cs=tuple(cs)):
            acc = 0.0
            for c in reversed(_cs):
                acc = acc * x + c
            return acc

        def deriv(x, _cs=tuple(dcs)):
            acc = 0.0
            for c in reversed(_cs):
                acc = acc * x + c
            return acc

        mean = math.fsum(c / (i + 1) for i, c in enumerate(cs))
        return cls(value, deriv, mean=mean, degree=len(cs) - 1,
                   label=f"poly{cs}")

    @classmethod
    def monomial(cls, power: int) -> "UnivariateFactor":
        return cls.polynomial([0.0] * int(power) + [1.0])

    @classmethod
    def constant(cls, c: float) -> "UnivariateFactor":
        return cls.polynomial([c])

    @classmethod
    def sine(cls, freq: float, phase: float = 0.0) -> "UnivariateFactor":
        w, b = float(freq), float(phase)
        if w == 0.0:
            return cls.constant(math.sin(b))
        return cls(
            lambda x: math.sin(w * x + b),
            lambda x: w * math.cos(w * x + b),
            mean=(math.cos(b) - math.cos(w + b)) / w,
            degree=None,
            label=f"sin({w}x+{b})",
        )

    @classmethod
    def cosine(cls, freq: float, phase: float = 0.0) -> "UnivariateFactor":
        w, b = float(freq), float(phase)
        if w == 0.0:
            return cls.constant(math.cos(b))
        return cls(
            lambda x: math.cos(w * x + b),
            lambda x: -w * math.sin(w * x + b),
            mean=(math.sin(w + b) - math.sin(b)) / w,
            degree=None,
            label=f"cos({w}x+{b})",
        )

    @classmethod
    def exponential(cls, rate: float) -> "UnivariateFactor":
        a = float(rate)
        if a == 0.0:
            return cls.constant(1.0)
        return cls(
            lambda x: math.exp(a * x),
            lambda x: a * math.exp(a * x),
            mean=math.expm1(a) / a,
            degree=None,
            label=f"exp({a}x)",
        )

    # derived factors ------------------------------------------------------

    def shifted(self, c: float) -> "UnivariateFactor":
        """The factor minus a constant; derivative unchanged."""
        base_value = self.value
        return UnivariateFactor(
            lambda x: base_value(x) - c,
            self.deriv,
            mean=self.mean - c,
            degree=self.degree,
            label=f"{self.label}-{c}",
        )


ONE_FACTOR = UnivariateFactor.polynomial([1.0])


def _pair_rule(f: UnivariateFactor, g: UnivariateFactor):
    if f.degree is not None and g.degree is not None:
        deg = f.degree + g.degree
        return gauss_legendre(min(max(1, deg // 2 + 1), 60))
    return gauss_legendre(DEFAULT_MEAN_ORDER)


def value_inner(f: UnivariateFactor, g: UnivariateFactor) -> float:
    """Integral over [0,1] of f * g; no quadrature error for polynomial pairs."""
    return integrate_1d(lambda x: f.value(x) * g.value(x), _pair_rule(f, g))


def deriv_inner(f: UnivariateFactor, g: UnivariateFactor) -> float:
    """Integral over [0,1] of f' * g'; no quadrature error for polynomial pairs."""
    return integrate_1d(lambda x: f.deriv(x) * g.deriv(x), _pair_rule(f, g))


@dataclass(frozen=True)
class Term:
    """One product term: coefficient times factors on selected coordinates.

    Coordinates absent from ``factors`` carry the constant factor 1.
    """

    coef: float
    factors: dict[int, UnivariateFactor] = field(default_factory=dict)

    def factor(self, k: int) -> UnivariateFactor:
        return self.factors.get(k, ONE_FACTOR)

    def value(self, x: Sequence[float]) -> float:
        v = self.coef
        for k, f in self.factors.items():
            v *= f.value(x[k - 1])
        return v


def pair_sum(terms: Sequence[Term], inner) -> float:
    """fsum over term pairs (r, s) of c_r * c_s * prod_k inner(g_rk, g_sk).

    Each unordered pair is visited once and counted twice: its product is
    the same bit for bit in either order, doubling loses no bits and fsum is
    correctly rounded, so the result equals the sum over ordered pairs.
    """
    pieces = []
    for r, tr in enumerate(terms):
        for s in range(r, len(terms)):
            ts = terms[s]
            prod = tr.coef * ts.coef
            for k in sorted(tr.factors.keys() | ts.factors.keys()):
                prod *= inner(tr.factor(k), ts.factor(k))
            pieces.append(prod if s == r else 2.0 * prod)
    return math.fsum(pieces)


class SeparableFunction:
    """A finite sum of product terms on [0, 1]**d."""

    def __init__(self, dim: int, terms: Sequence[Term]):
        if dim < 1:
            raise ConfigInvalid("active dimension must be at least 1")
        self.dim = int(dim)
        for t in terms:
            for k in t.factors:
                if not 1 <= k <= self.dim:
                    raise ConfigInvalid(f"factor coordinate {k} outside 1..{dim}")
        self.terms = list(terms)

    def __repr__(self):
        return f"SeparableFunction(dim={self.dim}, {len(self.terms)} terms)"

    def value(self, x: Sequence[float]) -> float:
        if len(x) < self.dim:
            raise ConfigInvalid(f"point has {len(x)} coordinates, need {self.dim}")
        return math.fsum(t.value(x) for t in self.terms)

    def __add__(self, other: "SeparableFunction") -> "SeparableFunction":
        if other.dim != self.dim:
            raise ConfigInvalid("dimensions differ")
        return SeparableFunction(self.dim, self.terms + other.terms)

    def scaled(self, c: float) -> "SeparableFunction":
        return SeparableFunction(
            self.dim, [Term(c * t.coef, dict(t.factors)) for t in self.terms]
        )

    @classmethod
    def constant(cls, dim: int, c: float) -> "SeparableFunction":
        return cls(dim, [Term(float(c), {})])


def function_from_json(obj) -> SeparableFunction:
    """Build a separable function from JSON.

    Shape: ``{"dim": d, "terms": [{"coef": c, "factors": {"k": factorspec}}]}``
    with factor kinds ``monomial`` (power), ``polynomial`` (coeffs),
    ``sin``/``cos`` (freq, phase), ``exp`` (rate), ``constant`` (value).
    """
    if not isinstance(obj, dict):
        raise ConfigInvalid("function spec must be an object")
    check_keys(obj, "function spec", {"dim", "terms"})
    try:
        dim = int(obj["dim"])
        terms = []
        for tobj in obj["terms"]:
            check_keys(tobj, "term spec", {"coef"}, {"factors"})
            factors = {
                int(k): _factor_from_json(fobj)
                for k, fobj in tobj.get("factors", {}).items()
            }
            terms.append(Term(float(tobj["coef"]), factors))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigInvalid(f"bad function spec: {exc}") from exc
    return SeparableFunction(dim, terms)


def _factor_from_json(obj) -> UnivariateFactor:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigInvalid(f"factor spec must be an object with 'kind': {obj!r}")
    kind = obj["kind"]
    keys = {  # kind -> (required, optional)
        "monomial": ({"kind", "power"}, set()),
        "polynomial": ({"kind", "coeffs"}, set()),
        "sin": ({"kind", "freq"}, {"phase"}),
        "cos": ({"kind", "freq"}, {"phase"}),
        "exp": ({"kind", "rate"}, set()),
        "constant": ({"kind", "value"}, set()),
    }
    if kind not in keys:
        raise ConfigInvalid(f"unknown factor kind {kind!r}")
    check_keys(obj, "factor spec", *keys[kind])
    if kind == "monomial":
        return UnivariateFactor.monomial(int(obj["power"]))
    if kind == "polynomial":
        return UnivariateFactor.polynomial(obj["coeffs"])
    if kind == "sin":
        return UnivariateFactor.sine(obj["freq"], obj.get("phase", 0.0))
    if kind == "cos":
        return UnivariateFactor.cosine(obj["freq"], obj.get("phase", 0.0))
    if kind == "exp":
        return UnivariateFactor.exponential(obj["rate"])
    return UnivariateFactor.constant(obj["value"])
