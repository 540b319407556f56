"""Sensitivity indices, truncation, and a priori error bounds."""

import collections
import math

import numpy as np
import pytest

import tensorsplit.sensitivity
from corpus import corpus
from tensorsplit.decomp import weighted_norm
from tensorsplit.equivalence import certify_equivalence
from tensorsplit.errors import DegenerateDenominator, GammaL1Violated, OrderOutOfRange
from tensorsplit.functions import SeparableFunction, Term, UnivariateFactor as F, pair_sum, value_inner
from tensorsplit.gammas import FiniteOrderGamma, ProductGamma, TableGamma
from tensorsplit.indexing import SupportSet
from tensorsplit.sensitivity import (
    l2_error,
    sobol_indices,
    truncate_order,
    truncation_bound,
)
from tensorsplit.sequences import ConstantSeq, FiniteSeq, GeometricSeq, PowerSeq

S = SupportSet.of
RNG = np.random.default_rng(4242)
UNIT_GAMMA = ProductGamma(ConstantSeq(1.0))


class TestSobolIndices:
    def test_additive_symmetric_function(self):
        f = SeparableFunction(2, [
            Term(1.0, {1: F.monomial(1)}),
            Term(1.0, {2: F.monomial(1)}),
        ])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.per_omega[S(1)] == pytest.approx(0.5, abs=1e-12)
        assert table.per_omega[S(2)] == pytest.approx(0.5, abs=1e-12)

    def test_single_active_variable(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.per_omega[S(1)] == pytest.approx(1.0)

    def test_constant_function_degenerate(self):
        f = SeparableFunction(1, [Term(5.0, {})])
        with pytest.raises(DegenerateDenominator):
            sobol_indices(f, UNIT_GAMMA, "anova")

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_indices_normalized_and_in_range(self, name, f, mode):
        try:
            table = sobol_indices(f, UNIT_GAMMA, mode)
        except DegenerateDenominator:
            return
        values = list(table.per_omega.values())
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert math.fsum(values) == pytest.approx(1.0, abs=1e-10)

    def test_include_empty_convention(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        table = sobol_indices(f, UNIT_GAMMA, "anova", include_empty=True)
        # energies: empty 1/4, {1} 1
        assert table.per_omega[S()] == pytest.approx(0.25 / 1.25)
        assert table.per_omega[S(1)] == pytest.approx(1.0 / 1.25)


class TestTotalIndex:
    def test_empty_group_totals_to_one(self):
        f = SeparableFunction(2, [
            Term(1.0, {1: F.monomial(1)}),
            Term(1.0, {2: F.monomial(1)}),
        ])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.total(S()) == pytest.approx(1.0, abs=1e-12)

    def test_additive_function_group(self):
        f = SeparableFunction(2, [
            Term(1.0, {1: F.monomial(1)}),
            Term(1.0, {2: F.monomial(1)}),
        ])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.total(S(1)) == pytest.approx(0.5, abs=1e-12)

    def test_interaction_included(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        # components: {1}: 1/4... energies ||d f_omega||^2: {1}: 1/4, {2}: 1/4, {1,2}: 1
        assert table.total(S(1)) == pytest.approx((0.25 + 1.0) / 1.5, abs=1e-12)

    def test_comparability_under_certificate(self):
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        anchor = 0.5
        cert = certify_equivalence(gamma, anchor=anchor)
        c2 = cert.c**2
        for name, f in corpus():
            tab_a = sobol_indices(f, gamma, "anova", anchor, include_empty=True)
            tab_an = sobol_indices(f, gamma, "anchored", anchor, include_empty=True)
            groups = set(tab_a.per_omega) | set(tab_an.per_omega)
            for omega0 in groups:
                sa = tab_a.total(omega0)
                san = tab_an.total(omega0)
                if sa <= 1e-13 and san <= 1e-13:
                    continue
                assert san > 0 and sa > 0, f"{name} {omega0}"
                assert 1.0 / c2 <= sa / san <= c2, f"{name} {omega0}: {sa/san}"


def _five_variable_function():
    """At most two variables interact, and coordinate 4 is inactive."""
    return SeparableFunction(5, [
        Term(1.0, {1: F.monomial(1), 2: F.sine(2.0, 0.3)}),
        Term(-0.6, {3: F.exponential(0.7)}),
        Term(0.4, {2: F.polynomial([0.5, -1.0, 2.0]), 5: F.cosine(1.5)}),
    ])


def scan_total(table, omega0):
    """The definition: fsum of the indices of every superset in the table."""
    return math.fsum(v for omega, v in table.per_omega.items() if omega.issuperset(omega0))


TOTAL_GAMMAS = [
    ("product", ProductGamma(PowerSeq(1.0, 2.0))),
    ("finite_order", FiniteOrderGamma(ProductGamma(GeometricSeq(1.0, 0.7)), 2)),
    ("table", TableGamma({S(1): 0.9, S(2): 0.6, S(3): 0.4, S(5): 0.3,
                          S(1, 2): 0.2, S(2, 5): 0.1})),
]


class TestTotalAgainstScan:
    @pytest.mark.parametrize("name,gamma", TOTAL_GAMMAS, ids=[n for n, _ in TOTAL_GAMMAS])
    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_every_group_equals_scan(self, name, gamma, include_empty, mode):
        """Every group of coordinates 1..d+1, inside the table's sets or not."""
        f = _five_variable_function()
        table = sobol_indices(f, gamma, mode, include_empty=include_empty)
        for omega0 in SupportSet(range(1, f.dim + 2)).subsets():
            assert table.total(omega0) == scan_total(table, omega0), omega0

    def test_signed_and_zero_entries(self):
        """Zero entries of either sign are skipped and a negative one (an
        energy rounded below zero) is kept: every total equals the scan."""
        per_omega = {S(): 0.5, S(1): -1e-17, S(2): 0.0, S(1, 2): -0.0, S(3): 0.25,
                     S(1, 3): 0.0, S(2, 3): 0.125}
        table = tensorsplit.sensitivity.SobolTable("anova", per_omega, 1.0, True)
        for omega0 in SupportSet(range(1, 5)).subsets():
            assert str(table.total(omega0)) == str(scan_total(table, omega0)), omega0

    def test_tables_are_sparse(self):
        """The finite-order table skips sets; the table gamma also coordinate 4."""
        f = _five_variable_function()
        sizes = {name: len(sobol_indices(f, gamma, "anova").per_omega)
                 for name, gamma in TOTAL_GAMMAS}
        assert sizes == {"product": 31, "finite_order": 15, "table": 6}


class TestTruncateOrder:
    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_full_order_reproduces_function(self, name, f, mode):
        s = truncate_order(f, f.dim, mode, 0.5)
        for x in RNG.uniform(0, 1, (20, f.dim)):
            assert s.value(x) == pytest.approx(f.value(x), abs=1e-10)

    def test_order_zero_anchored_is_anchor_value(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(2)})])
        s = truncate_order(f, 0, "anchored", 0.25)
        assert s.value([0.9, 0.9]) == pytest.approx(f.value([0.25, 0.25]))

    def test_order_zero_anova_is_mean(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(2)})])
        s = truncate_order(f, 0, "anova")
        # oracle: tensor quadrature mean
        from tensorsplit.quadrature import gauss_legendre, integrate_1d

        rule = gauss_legendre(16)
        mean = integrate_1d(
            lambda u: integrate_1d(lambda v: f.value([u, v]), rule), rule
        )
        assert s.value([0.123, 0.456]) == pytest.approx(mean, abs=1e-12)


    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_negative_order_is_out_of_range(self, mode):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        with pytest.raises(OrderOutOfRange):
            truncate_order(f, -1, mode)
        with pytest.raises(OrderOutOfRange):
            truncation_bound(ProductGamma(PowerSeq(1.0, 4.0)), -1, mode)


class TestL2Error:
    def test_identical_functions(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        assert l2_error(f, f) == pytest.approx(0.0, abs=1e-13)

    def test_linear_vs_mean(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        g = SeparableFunction(1, [Term(0.5, {})])
        assert l2_error(f, g) == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-13)

    def test_anova_truncation_error_of_product(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        s1 = truncate_order(f, 1, "anova")
        assert l2_error(f, s1) == pytest.approx(1.0 / 12.0, abs=1e-12)


class TestL2ErrorReuse:
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_each_factor_pair_integrated_once(self, monkeypatch, mode):
        """d(2R+1)**2 bounds the distinct pairs: per coordinate, R factors of
        f, R shifted factors and the constant 1."""
        pairs = collections.Counter()

        def counting(g, h):
            pairs[g, h] += 1
            return value_inner(g, h)

        monkeypatch.setattr(tensorsplit.sensitivity, "value_inner", counting)
        f = _five_variable_function()
        for m in range(f.dim + 1):
            approx = truncate_order(f, m, mode)
            pairs.clear()
            err = l2_error(f, approx)
            assert max(pairs.values()) == 1
            assert len(pairs) <= f.dim * (2 * len(f.terms) + 1) ** 2
            diff = f.terms + [Term(-t.coef, t.factors) for t in approx.terms]
            assert err == math.sqrt(max(0.0, pair_sum(diff, value_inner)))


class TestTruncationBound:
    def test_empty_support_gives_zero(self):
        gamma = TableGamma({})
        for m in range(3):
            assert truncation_bound(gamma, m, "anchored", 0.0) == 0.0

    def test_singleton_geometric_example(self):
        # weights 4^-k on singletons, anchor 0, order 0:
        # sqrt(sum (1/2) 4^-k) = sqrt(1/6)
        gamma = FiniteOrderGamma(ProductGamma(GeometricSeq(1.0, 0.25)), 1)
        got = truncation_bound(gamma, 0, "anchored", 0.0)
        assert got == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)

    def test_monotone_nonincreasing_in_order(self):
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        prev = math.inf
        for m in range(5):
            val = truncation_bound(gamma, m, "anova")
            assert val <= prev + 1e-15
            prev = val

    def test_divergent_series_raises(self):
        gamma = ProductGamma(ConstantSeq(1.0))
        with pytest.raises(GammaL1Violated):
            truncation_bound(gamma, 1, "anchored", 0.0)

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_bound_dominates_error_on_corpus(self, name, f, mode):
        anchor = 0.5
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        norm = weighted_norm(f, gamma, mode, anchor)
        for m in range(f.dim + 1):
            s_m = truncate_order(f, m, mode, anchor)
            err = l2_error(f, s_m)
            bound = truncation_bound(gamma, m, mode, anchor) * norm
            assert err <= bound * (1.0 + 1e-10) + 1e-12, f"m={m}: {err} > {bound}"

    def test_anchored_vs_anova_bound_ratio_at_midpoint(self):
        # common-scale weights on few coordinates: the layer of size m+1
        # dominates both tails, so the ratio approaches (3/4)**((m+1)/2)
        scale = 1e-3
        K = 4
        gamma = ProductGamma(FiniteSeq([scale] * K))
        for m in range(0, K):
            num = truncation_bound(gamma, m, "anchored", 0.5)
            den = truncation_bound(gamma, m, "anova", 0.5)
            expected = (3.0 / 4.0) ** ((m + 1) / 2.0)
            assert num / den == pytest.approx(expected, rel=0.01)
