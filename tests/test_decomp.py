"""Decomposition kernels, projections, weighted norms, reconstruction."""

import collections
import math
import random
import struct

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorsplit.decomp
from corpus import corpus
from exact import ExactDecomposition, mp, poly_spec
from tensorsplit.decomp import (
    MAX_DECOMP_DIM,
    DecompositionTerm,
    _component_builder,
    _components,
    _product_norm,
    _weighted_energies,
    _weighted_norm,
    anchored_contraction,
    anchored_kernel,
    anchored_representation,
    anova_contraction,
    anova_kernel,
    averaged_anchored_kernel,
    averaged_kernel_energy,
    decompose,
    mean_representation,
    reconstruct,
    weighted_norm,
)
from tensorsplit.errors import ConfigInvalid, DegenerateDenominator, NormInfinite, TensorsplitError
from tensorsplit.functions import (SeparableFunction, Term, UnivariateFactor as F, deriv_inner,
                                  function_from_json, value_inner)
from tensorsplit.gammas import FiniteOrderGamma, ProductGamma, TableGamma
from tensorsplit.indexing import SupportSet
from tensorsplit.quadrature import gauss_legendre, integrate_1d, integrate_piecewise
from tensorsplit.sensitivity import sobol_indices, truncate_order
from tensorsplit.sequences import ConstantSeq, FiniteSeq, PowerSeq

S = SupportSet.of
RNG = np.random.default_rng(20240811)


def single_component(f: SeparableFunction, mode: str, omega: SupportSet,
                     anchor: float = 0.5) -> DecompositionTerm:
    """The component of f with active set omega, built alone."""
    return _component_builder(f, mode, anchor, omega)(omega)


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
        t_empty = single_component(f, "anova", S())
        assert t_empty.func.value([0.0, 0.0]) == pytest.approx(0.5)
        t1 = single_component(f, "anova", S(1))
        for x in (0.0, 0.3, 1.0):
            assert t1.func.value([x, 0.5]) == pytest.approx(x - 0.5)
        assert single_component(f, "anova", S(2)).mixed_norm_sq == pytest.approx(0.0, abs=1e-15)
        assert single_component(f, "anova", S(1, 2)).mixed_norm_sq == pytest.approx(0.0, abs=1e-15)

    def test_constant_function(self):
        f = SeparableFunction(2, [Term(3.0, {})])
        assert single_component(f, "anova", S()).func.value([0.1, 0.2]) == pytest.approx(3.0)
        assert single_component(f, "anova", S(1)).mixed_norm_sq == 0.0

    def test_product_function_factorizes(self):
        # components of a pure product are products of centered/mean factors
        g1, g2 = F.polynomial([0.5, 1.0]), F.polynomial([1.0, 0.0, 0.75])
        f = SeparableFunction(2, [Term(1.0, {1: g1, 2: g2})])
        t12 = single_component(f, "anova", S(1, 2))
        for x in RNG.uniform(0, 1, (10, 2)):
            expected = (g1.value(x[0]) - g1.mean) * (g2.value(x[1]) - g2.mean)
            assert t12.func.value(x) == pytest.approx(expected, abs=1e-12)
        t1 = single_component(f, "anova", S(1))
        for x in RNG.uniform(0, 1, (10, 2)):
            expected = (g1.value(x[0]) - g1.mean) * g2.mean
            assert t1.func.value(x) == pytest.approx(expected, abs=1e-12)


class TestAnchoredTerms:
    def test_linear_at_zero_anchor(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1)})])
        assert single_component(f, "anchored", S(), 0.0).func.value([0.5, 0.5]) == pytest.approx(0.0)
        t1 = single_component(f, "anchored", S(1), 0.0)
        for x in (0.0, 0.4, 1.0):
            assert t1.func.value([x, 0.2]) == pytest.approx(x)
        assert single_component(f, "anchored", S(2), 0.0).mixed_norm_sq == 0.0

    def test_square_at_midpoint(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(2)})])
        assert single_component(f, "anchored", S(), 0.5).func.value([0.0]) == pytest.approx(0.25)
        t1 = single_component(f, "anchored", S(1), 0.5)
        assert t1.func.value([0.7]) == pytest.approx(0.49 - 0.25)

    def test_constant_function(self):
        f = SeparableFunction(1, [Term(2.5, {})])
        assert single_component(f, "anchored", S(), 0.3).func.value([0.9]) == pytest.approx(2.5)
        assert single_component(f, "anchored", S(1), 0.3).mixed_norm_sq == 0.0


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
        """2**dim components are listed only up to MAX_DECOMP_DIM; the
        builder of a single component has no such limit."""
        f = SeparableFunction(MAX_DECOMP_DIM + 1, [Term(1.0, {1: F.monomial(1)})])
        with pytest.raises(ConfigInvalid, match=f"exceeds {MAX_DECOMP_DIM}$"):
            decompose(f, mode)
        one = single_component(f, mode, S(1))
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
                one = single_component(f, mode, t.omega, 0.3)
                assert t.mixed_norm_sq == one.mixed_norm_sq, (name, t.omega)
                assert t.func.value(x) == one.func.value(x), (name, t.omega)


# ---------------------------------------------------------------------------
# the live components against a dense oracle that builds all 2**dim of them


def dense_components(f, mode, anchor):
    """Oracle: every component, each built by ``_component_builder``."""
    everything = SupportSet(range(1, f.dim + 1))
    component = _component_builder(f, mode, anchor, everything)
    return [component(omega) for omega in everything.subsets()]


def dense_energies(components, gamma):
    """Oracle: the weighted energies of every component."""
    scale = max(t.mixed_norm_sq for t in components)
    tol = tensorsplit.decomp._ZERO_TOL * (1.0 + scale)
    table = {}
    for t in components:
        gv = gamma.value(t.omega)
        if gv == 0.0:
            if t.mixed_norm_sq > tol:
                raise NormInfinite(
                    f"component {t.omega!r} has energy {t.mixed_norm_sq} but zero weight")
            continue
        table[t.omega] = t.mixed_norm_sq / gv
    return table


def dense_sobol(components, gamma, include_empty):
    """Oracle: ``(per_omega, denominator)`` from every component's energy."""
    energies = dense_energies(components, gamma)
    if not include_empty:
        energies.pop(SupportSet(), None)
    denominator = math.fsum(energies.values())
    if denominator <= 0.0:
        raise DegenerateDenominator("no component carries energy under the chosen convention")
    return {omega: v / denominator for omega, v in energies.items()}, denominator


def outcome(fn):
    """The value of ``fn()``, or the type and message of its library error."""
    try:
        return "value", fn()
    except TensorsplitError as exc:
        return type(exc).__name__, str(exc)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def function_key(g: SeparableFunction):
    """Terms with their coefficient bits and factor labels, and a value."""
    terms = [(bits(t.coef), sorted((k, h.label) for k, h in t.factors.items()))
             for t in g.terms]
    return g.dim, terms, bits(g.value([0.3, 0.7, 0.1, 0.9, 0.45, 0.6]))


#: constants (ONE among them, and 0), polynomials and transcendental factors
ORACLE_FACTORS = [
    F.monomial(1), F.monomial(2), F.polynomial([0.5, -1.25, 0.75]), F.constant(1.0),
    F.constant(-0.3), F.constant(0.0), F.sine(2.0, 0.25), F.exponential(-0.7),
]


@st.composite
def oracle_functions(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    terms = draw(st.lists(st.builds(
        Term,
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]), st.floats(min_value=-4.0, max_value=4.0)),
        st.dictionaries(st.integers(min_value=1, max_value=dim), st.sampled_from(ORACLE_FACTORS),
                        max_size=dim),
    ), min_size=1, max_size=5))
    return SeparableFunction(dim, terms)


#: per-coordinate weights with zeros, and 1e-200, whose products underflow to 0
ORACLE_SEQS = st.one_of(
    st.builds(PowerSeq, st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.sampled_from([0.0, 1.0, 2.5])),
    st.builds(FiniteSeq, st.lists(st.sampled_from([0.0, 1e-200, 0.5, 1.0, 3.0]), max_size=7)),
)


@st.composite
def oracle_gammas(draw, dim):
    kind = draw(st.sampled_from(["product", "table", "finite_order"]))
    if kind == "table":
        sets = st.frozensets(st.integers(min_value=1, max_value=dim), min_size=1).map(SupportSet)
        return TableGamma(draw(st.dictionaries(sets, st.sampled_from([0.0, 0.25, 1.0, 2.0]))))
    gamma = ProductGamma(draw(ORACLE_SEQS))
    if kind == "finite_order":
        gamma = FiniteOrderGamma(gamma, draw(st.integers(min_value=0, max_value=dim)))
    return gamma


class TestLiveComponents:
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_oracle(self, mode, data):
        """decompose, the weighted norm, the Sobol table with every total,
        and every truncation agree bit for bit with the dense oracle, and a
        NormInfinite carries the same message."""
        f = data.draw(oracle_functions())
        gamma = data.draw(oracle_gammas(f.dim))
        anchor = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        dense = dense_components(f, mode, anchor)

        live = decompose(f, mode, anchor)
        reached = {t.omega for t in live}
        kept = [d for d in dense if d.omega in reached]
        assert [t.omega for t in live] == [d.omega for d in kept]
        for t, d in zip(live, kept):
            assert bits(t.mixed_norm_sq) == bits(d.mixed_norm_sq), t.omega
            assert function_key(t.func) == function_key(d.func), t.omega
        assert all(bits(d.mixed_norm_sq) == bits(0.0) and not d.func.terms
                   for d in dense if d.omega not in reached)

        def dense_norm():
            return math.sqrt(max(0.0, math.fsum(dense_energies(dense, gamma).values())))

        expect = outcome(dense_norm)
        assert outcome(lambda: _weighted_norm(live, gamma)) == expect
        # weighted_norm takes truncate's route: the product form where it
        # applies (TestProductNorm checks its value against tests/exact.py),
        # the components otherwise
        product = outcome(lambda: _product_norm(f, gamma, mode, anchor))
        assert outcome(lambda: weighted_norm(f, gamma, mode, anchor)) == \
            (expect if product == ("value", None) else product)

        for include_empty in (False, True):
            expect = outcome(lambda: dense_sobol(dense, gamma, include_empty))
            table = outcome(lambda: sobol_indices(f, gamma, mode, anchor, include_empty))
            if expect[0] != "value":
                assert table == expect
                continue
            per_omega, denominator = expect[1]
            table = table[1]
            assert [(omega, bits(v)) for omega, v in table.per_omega.items()] == \
                [(omega, bits(v)) for omega, v in per_omega.items()]
            assert bits(table.denominator) == bits(denominator)
            for omega in SupportSet(range(1, f.dim + 1)).subsets():
                total = math.fsum(v for w, v in per_omega.items() if w.issuperset(omega))
                assert bits(table.total(omega)) == bits(total), omega

        for m in range(f.dim + 1):
            kept = [t for d in dense if len(d.omega) <= m for t in d.func.terms]
            expect = SeparableFunction(f.dim, kept) if kept else SeparableFunction.constant(f.dim, 0.0)
            assert function_key(truncate_order(f, m, mode, anchor)) == function_key(expect), m

    def test_builds_only_reachable_components(self):
        """A sum of univariate terms and a constant: the empty set and the
        singletons are listed, and the other 2**10 - 11 components are zero."""
        f = SeparableFunction(10, [Term(1.0, {k: F.monomial(k)}) for k in range(1, 11)]
                              + [Term(2.0, {3: F.constant(5.0)})])
        got = decompose(f, "anova")
        assert len(got) == 11
        assert [t.omega for t in got] == [S()] + [S(k) for k in range(1, 11)]
        dense = {d.omega: d for d in dense_components(f, "anova", 0.5)}
        assert all(bits(t.mixed_norm_sq) == bits(dense[t.omega].mixed_norm_sq) for t in got)
        reached = {t.omega for t in got}
        assert all(d.mixed_norm_sq == 0.0 and not d.func.terms
                   for omega, d in dense.items() if omega not in reached)

    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_sparse_function_at_the_dimension_limit(self, mode):
        """Three terms in dim 20 reach 8 + 1 + 3 of the 2**20 supports."""
        f = SeparableFunction(MAX_DECOMP_DIM, [
            Term(1.0, {1: F.monomial(1), 2: F.monomial(2), 3: F.sine(2.0, 0.25)}),
            Term(-0.5, {10: F.exponential(-0.7)}),
            Term(2.0, {19: F.monomial(1), 20: F.polynomial([0.5, -1.25, 0.75])}),
        ])
        got = decompose(f, mode, 0.3)
        assert len(got) == 12
        assert [t.omega for t in got] == [
            S(), S(1), S(2), S(3), S(10), S(19), S(20),
            S(1, 2), S(1, 3), S(2, 3), S(19, 20), S(1, 2, 3)]
        for t in got:
            one = single_component(f, mode, t.omega, 0.3)
            assert bits(t.mixed_norm_sq) == bits(one.mixed_norm_sq), t.omega

    def test_zero_components_leave_the_zero_weight_check(self):
        """Energies rounded below zero put the scale below 0.0: listing the
        zero component [1, 2] raises it to 0.0, and no outcome changes."""
        empty = SeparableFunction(2, [])
        live = [DecompositionTerm(S(), empty, -3.0), DecompositionTerm(S(1), empty, -1e-13),
                DecompositionTerm(S(2), empty, -3.0)]
        gamma = TableGamma({S(2): 1.0})
        assert dense_energies(live + [DecompositionTerm(S(1, 2), empty, 0.0)], gamma) == \
            _weighted_energies(live, gamma) == {S(): -3.0, S(2): -3.0}


#: factors whose integrals, or products with large coefficients, leave the
#: float range
OVERFLOW_FACTORS = [F.polynomial([1e308, 0.0, 1.7e308]), F.constant(1e200), F.exponential(700.0)]


@st.composite
def overflow_functions(draw):
    """Terms of coefficient 0 of either sign, tiny or large, over the oracle
    factors and the overflowing ones."""
    dim = draw(st.integers(min_value=1, max_value=5))
    terms = draw(st.lists(st.builds(
        Term,
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-200, 1e200]),
        st.dictionaries(st.integers(min_value=1, max_value=dim),
                        st.sampled_from(ORACLE_FACTORS + OVERFLOW_FACTORS), max_size=dim),
    ), min_size=1, max_size=4))
    return SeparableFunction(dim, terms)


class TestEnergyPass:
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_decompose(self, mode, data):
        """The energy pass lists the sets of ``decompose`` in canonical
        order, each with its bitmask, and their energies and refusal lines
        bit for bit; every energy is also that of the component built
        alone."""
        f = data.draw(oracle_functions() | overflow_functions())
        anchor = data.draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
        passed = outcome(lambda: _components(f, mode, anchor))
        expect = outcome(lambda: decompose(f, mode, anchor))
        if expect[0] != "value":
            assert passed == expect
            return
        passed, terms = passed[1], expect[1]
        sets = [omega for omega, *_ in passed]
        assert sets == [t.omega for t in terms] == sorted(sets, key=SupportSet.canonical_key)
        for (omega, energy, _, mask), t in zip(passed, terms):
            assert mask == sum(1 << (k - 1) for k in omega)
            alone = single_component(f, mode, omega, anchor).mixed_norm_sq
            assert bits(energy) == bits(t.mixed_norm_sq) == bits(alone), omega


# ---------------------------------------------------------------------------
# the weighted norm of a product weight from the factors alone


def _random_poly_spec(rnd, dim):
    """Polynomial terms on random coordinates; one coefficient is a constant."""
    return poly_spec(dim, [
        (rnd.uniform(-2.0, 2.0), {k: [rnd.uniform(-1.0, 1.0) for _ in range(rnd.randint(1, 4))]
                                  for k in rnd.sample(range(1, dim + 1), rnd.randint(0, dim))})
        for _ in range(rnd.randint(1, 4))])


class TestProductNorm:
    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_matches_oracle_and_component_route(self, seed, mode):
        """Within 1e-13 of the exact product-weight norm, relative, and so
        within rounding of the sum over the components."""
        rnd = random.Random(f"{mode} {seed}")
        dim = rnd.randint(1, 6)
        spec = _random_poly_spec(rnd, dim)
        seq = FiniteSeq([rnd.choice([0.25, 0.5, 1.0, 3.0]) for _ in range(dim)])
        anchor = rnd.choice([0.0, 0.3, 0.5, 1.0])
        f, gamma = function_from_json(spec), ProductGamma(seq)
        got = _product_norm(f, gamma, mode, anchor)
        truth_sq = ExactDecomposition(spec, mode, anchor).weighted_norm_sq(seq.value)
        with mpmath.workdps(40):
            truth = mpmath.sqrt(mp(truth_sq))
            assert abs(mpmath.mpf(got) - truth) <= 1e-13 * truth
        assert got == pytest.approx(weighted_norm(f, gamma, mode, anchor), rel=1e-13)

    @pytest.mark.parametrize("gamma,norm", [
        (FiniteOrderGamma(ProductGamma(ConstantSeq(1.0)), 2), None),
        (ProductGamma(FiniteSeq([1.0, 0.0])), None),  # a zero weight where x2 is live
        (ProductGamma(FiniteSeq([1.0, 1.0, 0.0])), math.sqrt(3.0)),  # x3 is live in no term
        (ProductGamma(FiniteSeq([1e-200, 1e-200])), None),  # the set [1, 2] weighs 1e-400
        (ProductGamma(FiniteSeq([1e200, 1e200])), None),  # the set [1, 2] weighs 1e400
    ], ids=["finite_order", "zero_on_live", "zero_off_live", "underflow", "overflow"])
    def test_refers_to_the_component_route(self, gamma, norm):
        """None wherever a set weight may round to 0 or inf; the component
        route then gives the norm or the error.  f = x1 + x2: mean 1 and
        unit derivatives."""
        f = SeparableFunction(3, [Term(1.0, {1: F.monomial(1)}),
                                  Term(2.0, {2: F.monomial(1), 3: F.constant(0.5)})])
        got = _product_norm(f, gamma, "anova")
        assert got is None if norm is None else got == pytest.approx(norm, rel=1e-15)

    def test_infinite_sum_refers_to_the_component_route(self):
        """1e200 x1 has an infinite norm: the component route gives the
        error line."""
        f = SeparableFunction(1, [Term(1e200, {1: F.monomial(1)})])
        gamma = ProductGamma(ConstantSeq(1.0))
        assert _product_norm(f, gamma, "anova") is None
        with pytest.raises(ConfigInvalid, match=r"component SupportSet\(\[\]\) overflows"):
            weighted_norm(f, gamma, "anova")

    def test_zero_coefficient_terms_add_nothing(self):
        """0 * (1e308 + 1.7e308 x1**2): its pieces would be 0 * inf."""
        f = SeparableFunction(2, [Term(0.0, {1: F.polynomial([1e308, 0.0, 1.7e308])}),
                                  Term(1.0, {2: F.monomial(1)})])
        gamma = ProductGamma(ConstantSeq(1.0))
        assert _product_norm(f, gamma, "anova") == pytest.approx(math.sqrt(0.25 + 1.0), rel=1e-15)


class TestMaskValues:
    @pytest.mark.parametrize("gamma", [
        ProductGamma(PowerSeq(1.0, 2.0)),
        ProductGamma(FiniteSeq([1e200, 1e200, 0.0, math.inf, 0.5])),
        ProductGamma(FiniteSeq([math.inf, 0.0, 2.0])),
        FiniteOrderGamma(ProductGamma(FiniteSeq([0.5, 3.0, 1e-200, 1e-200])), 2),
        TableGamma({S(1): 0.5, S(2, 4): 0.25, S(1, 2, 3): 2.0}),
    ], ids=["power", "overflow_then_zero", "inf_times_zero", "finite_order", "table"])
    def test_equals_value_bit_for_bit(self, gamma):
        """Entry mask is ``value`` of the set with that bitmask, bit for bit
        (nan read as 0 as ``value`` reads it)."""
        dim = 5
        got = gamma.mask_values(dim)
        want = [gamma.value(SupportSet(k + 1 for k in range(dim) if mask >> k & 1))
                for mask in range(1 << dim)]
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_table_entries_beyond_the_dimension(self):
        """A table's own list holds only the sets inside 1..dim, and a set
        of weight 0 reads 0.0, as ``value`` reads them."""
        gamma = TableGamma({S(1): 0.5, S(6): 3.0, S(2, 7): 0.25, S(3): 0.0, S(2, 3): 2.0})
        got = gamma.mask_values(5)
        want = [gamma.value(SupportSet(k + 1 for k in range(5) if mask >> k & 1))
                for mask in range(1 << 5)]
        assert [bits(v) for v in got] == [bits(v) for v in want]
