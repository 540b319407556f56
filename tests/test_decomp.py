"""Decomposition kernels, projections, weighted norms, reconstruction."""

import collections

import numpy as np
import pytest

import tensorsplit.decomp
from corpus import corpus
from tensorsplit.decomp import (
    MAX_DECOMP_DIM,
    anchored_contraction,
    anchored_kernel,
    anchored_representation,
    anchored_term,
    anova_contraction,
    anova_kernel,
    anova_term,
    averaged_anchored_kernel,
    averaged_kernel_energy,
    decompose,
    mean_representation,
    reconstruct,
    weighted_norm,
)
from tensorsplit.errors import ConfigInvalid, NormInfinite
from tensorsplit.functions import (SeparableFunction, Term, UnivariateFactor as F, deriv_inner,
                                  value_inner)
from tensorsplit.gammas import ProductGamma, TableGamma
from tensorsplit.indexing import SupportSet
from tensorsplit.quadrature import gauss_legendre, integrate_1d, integrate_piecewise
from tensorsplit.sequences import ConstantSeq, PowerSeq

S = SupportSet.of
RNG = np.random.default_rng(20240811)


def sep_inner(f: SeparableFunction, g: SeparableFunction) -> float:
    """L2 inner product of two separable functions, factorwise."""
    total = 0.0
    for tr in f.terms:
        for ts in g.terms:
            prod = tr.coef * ts.coef
            for k in sorted(set(tr.factors) | set(ts.factors)):
                prod *= value_inner(tr.factor(k), ts.factor(k))
            total += prod
    return total


class TestKernels:
    def test_anchored_kernel_values(self):
        assert anchored_kernel(1.0, 0.5, 0.0) == 1.0
        assert anchored_kernel(0.7, 0.7, 0.7) == 0.0
        assert anchored_kernel(0.25, 0.4, 0.5) == -1.0

    def test_anova_kernel_values(self):
        assert anova_kernel(1.0, 0.3) == 0.3
        assert anova_kernel(0.0, 0.3) == -0.7

    def test_anova_kernel_mean_in_x(self):
        # integral over t of the kernel at fixed x is x^2/2 - (1-x)^2/2
        rule = gauss_legendre(6)
        for x in (0.0, 0.25, 0.5, 0.9):
            val = integrate_piecewise(lambda t: anova_kernel(x, t), rule, (x,))
            assert val == pytest.approx(x**2 / 2 - (1 - x) ** 2 / 2, abs=1e-14)
        assert integrate_piecewise(
            lambda t: anova_kernel(0.5, t), rule, (0.5,)
        ) == pytest.approx(0.0, abs=1e-15)

    def test_averaged_kernel_branches(self):
        assert averaged_anchored_kernel(0.25, 0.0) == 0.75
        assert averaged_anchored_kernel(0.25, 1.0) == -0.25

    def test_averaged_kernel_is_average(self):
        rule = gauss_legendre(4)
        for anchor in (0.0, 0.3, 0.5):
            for t in (0.1, 0.45, 0.8):
                avg = integrate_piecewise(
                    lambda x: anchored_kernel(x, t, anchor), rule, (t, anchor)
                )
                assert avg == pytest.approx(averaged_anchored_kernel(t, anchor), abs=1e-14)

    def test_midpoint_energy(self):
        assert averaged_kernel_energy(0.5) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_constants_at_endpoints(self):
        assert averaged_kernel_energy(0.0) == pytest.approx(1.0 / 3.0)
        assert anchored_contraction(0.0) == pytest.approx(0.5)
        assert anchored_contraction(0.5) == pytest.approx(1.0 / 8.0)
        assert anova_contraction() == pytest.approx(1.0 / 6.0)

    @pytest.mark.parametrize("anchor", [0.0, 0.3, 0.5])
    def test_energy_matches_quadrature(self, anchor):
        rule = gauss_legendre(8)
        val = integrate_piecewise(
            lambda t: averaged_anchored_kernel(t, anchor) ** 2, rule, (anchor,)
        )
        assert val == pytest.approx(averaged_kernel_energy(anchor), abs=1e-12)


class TestUnivariateIdentities:
    @pytest.mark.parametrize("degree", range(6))
    @pytest.mark.parametrize("anchor", [0.0, 0.5])
    def test_anchored_representation(self, degree, anchor):
        g = F.monomial(degree)
        rule = gauss_legendre(8)
        for x in RNG.uniform(0, 1, 20):
            rep = anchored_representation(g, float(x), anchor, rule)
            assert rep == pytest.approx(g.value(x), abs=1e-12)

    @pytest.mark.parametrize("degree", range(6))
    def test_mean_representation(self, degree):
        g = F.monomial(degree)
        rule = gauss_legendre(8)
        for x in RNG.uniform(0, 1, 20):
            rep = mean_representation(g, float(x), rule)
            assert rep == pytest.approx(g.value(x), abs=1e-12)


class TestAnovaTerms:
    def test_linear_function_components(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1)})])
        t_empty = anova_term(f, S())
        assert t_empty.func.value([0.0, 0.0]) == pytest.approx(0.5)
        t1 = anova_term(f, S(1))
        for x in (0.0, 0.3, 1.0):
            assert t1.func.value([x, 0.5]) == pytest.approx(x - 0.5)
        assert anova_term(f, S(2)).mixed_norm_sq == pytest.approx(0.0, abs=1e-15)
        assert anova_term(f, S(1, 2)).mixed_norm_sq == pytest.approx(0.0, abs=1e-15)

    def test_constant_function(self):
        f = SeparableFunction(2, [Term(3.0, {})])
        assert anova_term(f, S()).func.value([0.1, 0.2]) == pytest.approx(3.0)
        assert anova_term(f, S(1)).mixed_norm_sq == 0.0

    def test_product_function_factorizes(self):
        # components of a pure product are products of centered/mean factors
        g1, g2 = F.polynomial([0.5, 1.0]), F.polynomial([1.0, 0.0, 0.75])
        f = SeparableFunction(2, [Term(1.0, {1: g1, 2: g2})])
        t12 = anova_term(f, S(1, 2))
        for x in RNG.uniform(0, 1, (10, 2)):
            expected = (g1.value(x[0]) - g1.mean) * (g2.value(x[1]) - g2.mean)
            assert t12.func.value(x) == pytest.approx(expected, abs=1e-12)
        t1 = anova_term(f, S(1))
        for x in RNG.uniform(0, 1, (10, 2)):
            expected = (g1.value(x[0]) - g1.mean) * g2.mean
            assert t1.func.value(x) == pytest.approx(expected, abs=1e-12)


class TestAnchoredTerms:
    def test_linear_at_zero_anchor(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1)})])
        assert anchored_term(f, S(), 0.0).func.value([0.5, 0.5]) == pytest.approx(0.0)
        t1 = anchored_term(f, S(1), 0.0)
        for x in (0.0, 0.4, 1.0):
            assert t1.func.value([x, 0.2]) == pytest.approx(x)
        assert anchored_term(f, S(2), 0.0).mixed_norm_sq == 0.0

    def test_square_at_midpoint(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(2)})])
        assert anchored_term(f, S(), 0.5).func.value([0.0]) == pytest.approx(0.25)
        t1 = anchored_term(f, S(1), 0.5)
        assert t1.func.value([0.7]) == pytest.approx(0.49 - 0.25)

    def test_constant_function(self):
        f = SeparableFunction(1, [Term(2.5, {})])
        assert anchored_term(f, S(), 0.3).func.value([0.9]) == pytest.approx(2.5)
        assert anchored_term(f, S(1), 0.3).mixed_norm_sq == 0.0


class TestReconstruction:
    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_sum_of_components_recovers_function(self, name, f, mode):
        terms = decompose(f, mode, 0.5)
        for x in RNG.uniform(0, 1, (100, f.dim)):
            assert reconstruct(terms, x) == pytest.approx(f.value(x), abs=1e-10)

    def test_single_constant_term(self):
        f = SeparableFunction(1, [Term(4.0, {})])
        terms = decompose(f, "anova")
        assert reconstruct(terms, [0.77]) == pytest.approx(4.0)

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    def test_anchored_sum_at_anchor_point_is_constant_term(self, name, f):
        anchor = 0.5
        terms = decompose(f, "anchored", anchor)
        at_anchor = [anchor] * f.dim
        assert reconstruct(terms, at_anchor) == pytest.approx(f.value(at_anchor), abs=1e-12)
        const = [t for t in terms if len(t.omega) == 0][0]
        assert const.func.value(at_anchor) == pytest.approx(f.value(at_anchor), abs=1e-12)


class TestStructuralProperties:
    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    def test_anova_components_are_orthogonal(self, name, f):
        terms = decompose(f, "anova")
        active = [t for t in terms if t.mixed_norm_sq > 1e-14 or len(t.omega) == 0]
        for i, ti in enumerate(active):
            for tj in active[i + 1 :]:
                assert sep_inner(ti.func, tj.func) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    def test_anova_components_have_zero_marginal_means(self, name, f):
        rule = gauss_legendre(32)
        for t in decompose(f, "anova"):
            if len(t.omega) == 0:
                continue
            for k in t.omega:
                for _ in range(3):
                    x = RNG.uniform(0, 1, f.dim)

                    def marginal(s, x=x, k=k, t=t):
                        y = list(x)
                        y[k - 1] = s
                        return t.func.value(y)

                    assert integrate_1d(marginal, rule) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    def test_anchored_components_vanish_on_anchor_slices(self, name, f):
        anchor = 0.5
        for t in decompose(f, "anchored", anchor):
            if len(t.omega) == 0:
                continue
            for k in t.omega:
                x = RNG.uniform(0, 1, f.dim)
                x[k - 1] = anchor
                assert t.func.value(x) == pytest.approx(0.0, abs=1e-13)


class TestWeightedNorm:
    def test_constant_function_norm_is_its_magnitude(self):
        f = SeparableFunction(2, [Term(-2.0, {})])
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        assert weighted_norm(f, gamma, "anova") == pytest.approx(2.0)
        assert weighted_norm(f, gamma, "anchored", 0.3) == pytest.approx(2.0)

    def test_linear_anova_norm(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        gamma = ProductGamma(ConstantSeq(1.0))
        assert weighted_norm(f, gamma, "anova") ** 2 == pytest.approx(1.25, abs=1e-13)

    def test_linear_anchored_norm_at_zero(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        gamma = ProductGamma(ConstantSeq(1.0))
        assert weighted_norm(f, gamma, "anchored", 0.0) ** 2 == pytest.approx(1.0, abs=1e-13)

    def test_zero_weight_on_active_component_is_infinite(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        gamma = TableGamma({S(1): 1.0, S(2): 1.0})  # pair weight missing
        with pytest.raises(NormInfinite):
            weighted_norm(f, gamma, "anova")

    def test_zero_weight_on_inactive_component_is_fine(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1)})])
        gamma = TableGamma({S(1): 1.0})
        assert weighted_norm(f, gamma, "anova") > 0


class TestSupportIteration:
    def test_all_supports_order(self):
        sets = list(S(1, 2).subsets())
        assert sets == [S(), S(1), S(2), S(1, 2)]

    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_dimension_limit(self, mode):
        """2**dim components are listed only up to MAX_DECOMP_DIM; a single
        component of a larger function is still available."""
        f = SeparableFunction(MAX_DECOMP_DIM + 1, [Term(1.0, {1: F.monomial(1)})])
        with pytest.raises(ConfigInvalid, match=f"exceeds {MAX_DECOMP_DIM}$"):
            decompose(f, mode)
        one = anova_term(f, S(1)) if mode == "anova" else anchored_term(f, S(1))
        assert one.mixed_norm_sq == pytest.approx(1.0)


class TestFactorReuse:
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_one_shifted_factor_per_term_and_coordinate(self, monkeypatch, mode):
        made = []
        shifted = F.shifted

        def counting(g, c):
            made.append(g)
            return shifted(g, c)

        monkeypatch.setattr(F, "shifted", counting)
        for name, f in corpus():
            made.clear()
            decompose(f, mode)
            assert len(made) <= sum(len(t.factors) for t in f.terms), name

    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_each_derivative_pair_integrated_once(self, monkeypatch, mode):
        """At most n_k**2 integrals on coordinate k, where n_k terms act on k."""
        pairs = collections.Counter()

        def counting(g, h):
            pairs[g, h] += 1
            return deriv_inner(g, h)

        monkeypatch.setattr(tensorsplit.decomp, "deriv_inner", counting)
        for name, f in corpus():
            pairs.clear()
            decompose(f, mode)
            assert max(pairs.values(), default=0) <= 1, name
            acting = collections.Counter(k for t in f.terms for k in t.factors)
            assert len(pairs) <= sum(n * n for n in acting.values()), name

    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_decompose_equals_single_components(self, mode):
        """The shared factors and integrals change no bit of any component."""
        x = RNG.random(4)
        for name, f in corpus():
            for t in decompose(f, mode, 0.3):
                one = anova_term(f, t.omega) if mode == "anova" else anchored_term(f, t.omega, 0.3)
                assert t.mixed_norm_sq == one.mixed_norm_sq, (name, t.omega)
                assert t.func.value(x) == one.func.value(x), (name, t.omega)
