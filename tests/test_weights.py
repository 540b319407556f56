"""Weight models, tail oracles, and the orthogonalizing transform."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplit.errors import (
    InclusionViolated,
    NormDegenerate,
    OracleUnavailable,
)
from tensorsplit.gammas import FiniteOrderGamma, ProductGamma, TableGamma
from tensorsplit.indexing import ZERO_INDEX, IndexSet, IndexVector, SupportSet
from tensorsplit.sequences import ConstantSeq, FiniteSeq, GeometricSeq, PowerSeq
from tensorsplit.weights import (
    ConditionBound,
    CustomWeights,
    ProductWeights,
    ScaledWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    check_embedding,
    optimal_split_value,
    orthogonalized_weight,
    redundant_condition_bound,
    redundant_norm_defined,
)


def geometric_single_coordinate(rho=0.5):
    """One active coordinate with weight rho**-j: gamma={1}, 2**(2s) = 1/rho."""
    s = -0.5 * math.log2(rho)
    return SplineWeights(ProductGamma(FiniteSeq([1.0])), s=s, lam=1.0)


class TestWeightEvaluation:
    def test_spline_formula(self):
        m = SplineWeights(ProductGamma(ConstantSeq(1.0)), s=1.0, lam=1.0)
        assert m.weight(IndexVector({1: 2})) == 16.0

    def test_zero_index_weight_is_one(self):
        models = [
            SplineWeights(ProductGamma(PowerSeq(1.0, 4.0)), s=1.0, lam=1.0),
            ProductWeights(PowerSeq(1.0, 4.0)),
            UnitWeights(),
        ]
        for m in models:
            assert m.weight(ZERO_INDEX) == 1.0

    def test_gamma_inverse_prefactor(self):
        m = SplineWeights(ProductGamma(PowerSeq(1.0, 2.0)), s=1.0, lam=1.0)
        # gamma_{2} = 1/4, so the weight is 4 * 2**2
        assert m.weight(IndexVector({2: 1})) == 16.0

    def test_product_weights_are_support_only(self):
        m = ProductWeights(FiniteSeq([0.5, 0.25]))
        assert m.weight(IndexVector({1: 1})) == 2.0
        assert m.weight(IndexVector({1: 1, 2: 1})) == 8.0
        assert m.weight(IndexVector({1: 2})) == 0.0  # outside the {0,1} universe
        assert m.weight(IndexVector({3: 1})) == math.inf  # suppressed coordinate

    def test_table_absent_entries_are_zero(self):
        m = TableWeights({ZERO_INDEX: 1.0})
        assert m.weight(IndexVector({1: 1})) == 0.0

    def test_anisotropic_sum_form(self):
        from tensorsplit.weights import AnisotropicWeights

        m = AnisotropicWeights(ProductGamma(FiniteSeq([0.5, 0.25])), s=1.0)
        assert m.weight(ZERO_INDEX) == 1.0
        # gamma_{1,2} = 1/8; levels (1, 2): (4 + 16) / (1/8)
        assert m.weight(IndexVector({1: 1, 2: 2})) == pytest.approx(160.0)

    def test_scaled_weights_and_oracle(self):
        base = TableWeights({ZERO_INDEX: 1.0, IndexVector({1: 1}): 1.0})
        doubled = ScaledWeights(base, 2.0)
        assert doubled.weight(ZERO_INDEX) == 2.0
        # halved inverse sums, same transform ratios
        assert doubled.tail_oracle().total() == pytest.approx(1.0)
        assert orthogonalized_weight(doubled, ZERO_INDEX) == pytest.approx(1.0)


class TestCheckEmbedding:
    def test_identity_embedding(self):
        a = TableWeights({ZERO_INDEX: 1.0, IndexVector({1: 1}): 2.0})
        search = IndexSet(a.support())
        assert check_embedding(a, a, search) == pytest.approx(1.0)

    def test_scaling_by_four_gives_two(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0, 0.5])), s=1.0, lam=1.0)
        b = ScaledWeights(a, 4.0)
        search = IndexSet([ZERO_INDEX, IndexVector({1: 1}), IndexVector({1: 1, 2: 2})])
        assert check_embedding(a, b, search) == pytest.approx(2.0)

    def test_support_violation(self):
        jstar = IndexVector({1: 1})
        a = TableWeights({ZERO_INDEX: 1.0})
        b = TableWeights({ZERO_INDEX: 1.0, jstar: 1.0})
        with pytest.raises(InclusionViolated):
            check_embedding(a, b, IndexSet([ZERO_INDEX, jstar]))


class TestNormDefiniteness:
    def test_geometric_series_is_summable(self):
        m = geometric_single_coordinate(0.5)  # weights 2**j, inverse sum = 2
        assert redundant_norm_defined(m)
        assert m.tail_oracle().total() == pytest.approx(2.0, rel=1e-14)

    def test_unit_weights_on_infinite_support_fail(self):
        m = ProductWeights(ConstantSeq(1.0))
        assert not redundant_norm_defined(m)
        with pytest.raises(NormDegenerate) as err:
            orthogonalized_weight(m, ZERO_INDEX)
        assert err.value.unit_seminorm == 0.0

    def test_finite_table_always_summable(self):
        m = TableWeights({ZERO_INDEX: 0.01, IndexVector({1: 1}): 5.0})
        assert redundant_norm_defined(m)

    def test_custom_without_oracle(self):
        m = CustomWeights(lambda j: 1.0)
        with pytest.raises(OracleUnavailable):
            redundant_norm_defined(m)


class TestOrthogonalizedWeight:
    def test_geometric_closed_form(self):
        # inverse weights rho**j: tail sum rho**j/(1-rho), transform = (1-rho)*a_j
        for rho in (0.5, 0.25, 0.1):
            m = geometric_single_coordinate(rho)
            oracle = m.tail_oracle()
            for j in range(6):
                idx = IndexVector({1: j}) if j else ZERO_INDEX
                got = orthogonalized_weight(m, idx, oracle)
                assert got / m.weight(idx) == pytest.approx(1.0 - rho, abs=1e-12)

    def test_single_entry_table(self):
        m = TableWeights({ZERO_INDEX: 1.0})
        assert orthogonalized_weight(m, ZERO_INDEX) == pytest.approx(1.0)

    def test_two_entry_table(self):
        e1 = IndexVector({1: 1})
        m = TableWeights({ZERO_INDEX: 1.0, e1: 1.0})
        assert orthogonalized_weight(m, e1) == pytest.approx(1.0)
        assert orthogonalized_weight(m, ZERO_INDEX) == pytest.approx(0.5)

    def test_transform_never_exceeds_weight(self):
        m = SplineWeights(ProductGamma(FiniteSeq([1.0, 0.3])), s=0.75, lam=1.3)
        oracle = m.tail_oracle()
        for j in [ZERO_INDEX, IndexVector({1: 1}), IndexVector({2: 2}),
                  IndexVector({1: 1, 2: 1})]:
            assert orthogonalized_weight(m, j, oracle) <= m.weight(j) + 1e-12

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
            ),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_partial_order_on_tables(self, levels, seed):
        rng = np.random.default_rng(seed)
        base = IndexSet(
            [IndexVector({1: l1, 2: l2}) for l1, l2 in levels]
        ).downward_closure()
        entries = {j: float(rng.uniform(0.5, 4.0)) for j in base}
        m = TableWeights(entries)
        oracle = m.tail_oracle()
        hat = {j: orthogonalized_weight(m, j, oracle) for j in base}
        for i in base:
            for j in base:
                if i <= j:
                    assert hat[i] <= hat[j] + 1e-12
                    assert hat[i] <= m.weight(i) + 1e-12


class TestSplineOracleAgainstBruteForce:
    @staticmethod
    def brute_tail(model, j, max_coord=4, max_level=16):
        """Direct summation of inverse weights over i >= j on a finite box.

        The box truncation error is controlled by the 4**-level decay per
        coordinate and the gamma decay across coordinates; the tolerances
        below leave it comfortable room while still pinning the structure.
        """
        import itertools

        pieces = []
        for levels in itertools.product(range(max_level + 1), repeat=max_coord):
            i = IndexVector({k + 1: l for k, l in enumerate(levels)})
            if not j <= i:
                continue
            w = model.weight(i)
            if w > 0 and not math.isinf(w):
                pieces.append(1.0 / w)
        return math.fsum(pieces)

    @pytest.mark.parametrize(
        "gamma,rel",
        [
            (ProductGamma(FiniteSeq([1.0, 0.4])), 5e-8),
            (ProductGamma(GeometricSeq(1.0, 0.05)), 1e-6),
            (ProductGamma(PowerSeq(1.0, 10.0)), 1e-6),
        ],
        ids=["finite", "geometric", "power"],
    )
    def test_tail_sums_match_direct_summation(self, gamma, rel):
        model = SplineWeights(gamma, s=1.0, lam=1.3)
        oracle = model.tail_oracle()
        for j in [ZERO_INDEX, IndexVector({1: 1}), IndexVector({2: 2}),
                  IndexVector({1: 1, 2: 1})]:
            direct = self.brute_tail(model, j)
            assert oracle.tail(j) == pytest.approx(direct, rel=rel)

    def test_condition_bound_dominates_sampled_ratios(self):
        from tensorsplit.gammas import TableGamma
        from tensorsplit.indexing import SupportSet

        gamma = TableGamma({
            SupportSet.of(1): 1.0,
            SupportSet.of(2): 0.5,
            SupportSet.of(1, 2): 0.3,
        })
        model = SplineWeights(gamma, s=0.75, lam=1.1)
        oracle = model.tail_oracle()
        bound = redundant_condition_bound(model)
        assert bound.certified
        worst = 0.0
        for l1 in range(0, 4):
            for l2 in range(0, 4):
                j = IndexVector({1: l1, 2: l2})
                w = model.weight(j)
                if w == 0.0 or math.isinf(w):
                    continue
                t = oracle.tail(j)
                if t > 0:
                    worst = max(worst, w * t)
        assert worst <= bound.c_squared * (1 + 1e-12)
        # the supremum is attained on some support pattern, so it is tight
        assert worst == pytest.approx(bound.c_squared, rel=1e-10)


class TestConditionBound:
    def test_geometric_bound_is_two(self):
        m = geometric_single_coordinate(0.5)
        bound = redundant_condition_bound(m)
        assert bound.certified
        assert bound.c_squared == pytest.approx(2.0, rel=1e-13)

    def test_single_entry_support(self):
        m = TableWeights({ZERO_INDEX: 1.0})
        bound = redundant_condition_bound(m)
        assert bound.c_squared == pytest.approx(1.0)

    def test_growing_smoothness_gives_finite_bound(self):
        # spline with s_k = k: per-level slack sums, so a finite bound exists
        m = SplineWeights(
            ProductGamma(GeometricSeq(1.0, 0.5)),
            s={"kind": "affine", "a": 0.0, "b": 1.0},
            lam=1.0,
        )
        bound = redundant_condition_bound(m)
        assert bound is not None and bound.certified
        assert 1.0 < bound.c_squared < math.inf
        # independent check: the bound dominates a_j/ahat_j on sampled indices
        oracle = m.tail_oracle()
        for j in [ZERO_INDEX, IndexVector({1: 1}), IndexVector({1: 2, 2: 1}),
                  IndexVector({2: 3}), IndexVector({1: 1, 3: 1})]:
            ratio = m.weight(j) / orthogonalized_weight(m, j, oracle)
            assert ratio <= bound.c_squared * (1 + 1e-12)

    def test_constant_smoothness_has_no_finite_bound(self):
        m = SplineWeights(ProductGamma(PowerSeq(1.0, 4.0)), s=1.0, lam=1.0)
        assert redundant_condition_bound(m) is None

    def test_divergent_inverse_sum_raises(self):
        m = ProductWeights(ConstantSeq(1.0))
        with pytest.raises(NormDegenerate):
            redundant_condition_bound(m)

    def test_scaling_keeps_search_set_and_oracle(self):
        # a_j * tail(j) is scale-invariant, so a scaled model has its base's bound
        table = TableWeights({ZERO_INDEX: 1.0, IndexVector({1: 1}): 4.0})
        search = list(table.support())
        custom = CustomWeights(table.weight, table.tail_oracle())
        base = redundant_condition_bound(custom, search)
        assert base == ConditionBound(1.25, certified=False)  # zero index: 1 * (1 + 1/4)
        assert redundant_condition_bound(ScaledWeights(custom, 2.0), search) == base
        no_oracle = ScaledWeights(CustomWeights(table.weight), 2.0)
        oracle = ScaledWeights(table, 2.0).tail_oracle()
        assert redundant_condition_bound(no_oracle, search, oracle) == base


def _tabled_gamma():
    return TableGamma({
        SupportSet.of(1): 1.0,
        SupportSet.of(2): 0.5,
        SupportSet.of(1, 2): 0.3,
        SupportSet.of(3): 0.2,
    })


#: label -> spline model with an enumerable gamma
SPLINE_MODELS = {
    "finite-product": lambda: SplineWeights(
        ProductGamma(FiniteSeq([1.0, 0.5, 0.25])), s=0.75, lam=1.3),
    "table": lambda: SplineWeights(_tabled_gamma(), s=0.75, lam=1.1),
    "finite-order": lambda: SplineWeights(
        FiniteOrderGamma(ProductGamma(FiniteSeq([0.8, 0.6, 0.4])), 2), s=[0.6, 0.9], lam=0.7),
}


class TestEnumerableSplineConditionBound:
    """a_j * tail(j) depends on j only through its support, so the bound
    over one level-1 index per support is the supremum over all levels."""

    @pytest.mark.parametrize("label", sorted(SPLINE_MODELS))
    def test_is_the_brute_force_maximum(self, label):
        model = SPLINE_MODELS[label]()
        oracle = model.tail_oracle()
        bound = redundant_condition_bound(model)
        assert bound.certified
        values = []
        for sigma in model.gamma.iter_support():
            for levels in itertools.product(range(1, 5), repeat=len(sigma)):
                j = IndexVector(dict(zip(sigma, levels)))
                w = model.weight(j)
                if w == 0.0 or math.isinf(w):
                    continue
                values.append(w * oracle.tail(j))
        assert len(values) > 10
        assert max(values) <= bound.c_squared
        assert bound.c_squared == pytest.approx(max(values), rel=1e-14)


class TestOptimalSplit:
    def test_symmetric_two_way(self):
        assert optimal_split_value([1.0, 1.0], 1.0) == pytest.approx(0.5)

    def test_single_space(self):
        assert optimal_split_value([1.0], 3.0) == pytest.approx(3.0)

    def test_three_way(self):
        assert optimal_split_value([1.0, 2.0, 4.0], 1.0) == pytest.approx(4.0 / 7.0)

    def test_divergent_family(self):
        assert optimal_split_value([1.0], 5.0, divergent=True) == 0.0

    def test_matches_projected_gradient_minimization(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.2, 5.0, size=n)
            u = float(rng.normal())
            # minimize sum a_i x_i^2 subject to sum x_i = u by projected gradient
            x = np.full(n, u / n)
            for _ in range(20000):
                g = 2.0 * a * x
                g -= g.mean()  # project the gradient onto the constraint plane
                x -= 0.05 / a.max() * g
            direct = float(np.sum(a * x * x))
            assert optimal_split_value(list(a), u * u) == pytest.approx(direct, abs=1e-8)
