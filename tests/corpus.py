"""Shared test corpus: ten separable functions with d <= 4, and the
ordered-pair sum that the term-pair sums are checked against."""

import math

from tensorsplit.functions import SeparableFunction, Term, UnivariateFactor as F


def _product_term(coef, **factors):
    return Term(coef, {int(k.lstrip("x")): f for k, f in factors.items()})


def linear_1d():
    return SeparableFunction(1, [_product_term(1.0, x1=F.monomial(1))])


def square_1d():
    return SeparableFunction(1, [_product_term(1.0, x1=F.monomial(2))])


def product_2d():
    return SeparableFunction(2, [_product_term(1.0, x1=F.monomial(1), x2=F.monomial(1))])


def sum_2d():
    return SeparableFunction(2, [
        _product_term(1.0, x1=F.monomial(1)),
        _product_term(1.0, x2=F.monomial(1)),
    ])


def shifted_product_2d():
    # (x1 - 0.3) * (x2**2 + 1)
    return SeparableFunction(2, [
        _product_term(1.0, x1=F.polynomial([-0.3, 1.0]), x2=F.polynomial([1.0, 0.0, 1.0])),
    ])


def product_3d():
    return SeparableFunction(3, [
        _product_term(1.0, x1=F.monomial(1), x2=F.monomial(1), x3=F.monomial(1)),
    ])


def mixed_3d():
    # x1**2 + 2 x2 x3 + 0.5
    return SeparableFunction(3, [
        _product_term(1.0, x1=F.monomial(2)),
        _product_term(2.0, x2=F.monomial(1), x3=F.monomial(1)),
        Term(0.5, {}),
    ])


def trig_3d():
    # sin(pi x1) * x2 + 0.5 * x3
    return SeparableFunction(3, [
        _product_term(1.0, x1=F.sine(math.pi), x2=F.monomial(1)),
        _product_term(0.5, x3=F.monomial(1)),
    ])


def rank_one_4d():
    # prod_k (1 + c_k (x_k - 1/2))
    cs = (1.0, 0.8, 0.5, 0.3)
    factors = {
        k + 1: F.polynomial([1.0 - c / 2.0, c]) for k, c in enumerate(cs)
    }
    return SeparableFunction(4, [Term(1.0, factors)])


def trig_4d():
    # x1 x4 + cos(pi x2 / 2) * x3**2
    return SeparableFunction(4, [
        _product_term(1.0, x1=F.monomial(1), x4=F.monomial(1)),
        _product_term(1.0, x2=F.cosine(math.pi / 2.0), x3=F.monomial(2)),
    ])


def corpus():
    """The ten-function corpus used by decomposition-level tests."""
    return [
        ("linear_1d", linear_1d()),
        ("square_1d", square_1d()),
        ("product_2d", product_2d()),
        ("sum_2d", sum_2d()),
        ("shifted_product_2d", shifted_product_2d()),
        ("product_3d", product_3d()),
        ("mixed_3d", mixed_3d()),
        ("trig_3d", trig_3d()),
        ("rank_one_4d", rank_one_4d()),
        ("trig_4d", trig_4d()),
    ]


def ordered_pair_sum(terms, inner):
    """Reference: fsum over every ordered pair (r, s) of the term list."""
    pieces = []
    for tr in terms:
        for ts in terms:
            prod = tr.coef * ts.coef
            for k in sorted(set(tr.factors) | set(ts.factors)):
                prod *= inner(tr.factor(k), ts.factor(k))
            pieces.append(prod)
    return math.fsum(pieces)
