"""Threshold-set enumeration against a brute-force box oracle."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplit.epsdim import (
    AllOneDims,
    ProductDecay,
    SplineDims,
    enumerate_threshold_set,
    eps_dimension,
    eps_dimension_restricted,
    spline_eps_dimension,
    stabilization_dim,
)
from tensorsplit.errors import EnumerationCap, NotCompact
from tensorsplit.gammas import FiniteOrderGamma, ProductGamma, TableGamma
from tensorsplit.indexing import ZERO_INDEX, IndexSet, IndexVector, SupportSet
from tensorsplit.sequences import ConstantSeq, FiniteSeq, GeometricSeq, PowerSeq
from tensorsplit.weights import (
    AnisotropicWeights,
    ProductWeights,
    ScaledWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    ratio,
)

EPS_GRID = [0.9, 0.6, 0.35, 0.2, 0.12, 0.07, 0.04, 0.025]

S = SupportSet.of


def _monotone_table(levels_values):
    entries = {}
    for levels, value in levels_values:
        entries[IndexVector(levels)] = value
    model = TableWeights(entries, assert_monotone=True)
    return model


def weight_configs():
    """Ten (a, b) pairs with at most three effective coordinates."""
    return [
        ("product_a", ProductWeights(FiniteSeq([0.9, 0.5, 0.2])), UnitWeights()),
        ("product_b", ProductWeights(FiniteSeq([1.0, 0.25])), UnitWeights()),
        (
            "spline_s1",
            SplineWeights(ProductGamma(FiniteSeq([1.0, 0.25, 0.0625])), s=1.0, lam=1.0),
            UnitWeights(),
        ),
        (
            "spline_s05",
            SplineWeights(ProductGamma(FiniteSeq([0.9, 0.3])), s=0.5, lam=2.0),
            UnitWeights(),
        ),
        (
            "spline_finite_order",
            SplineWeights(
                FiniteOrderGamma(ProductGamma(FiniteSeq([1.0, 0.5, 0.25])), 2),
                s=1.0,
                lam=1.0,
            ),
            UnitWeights(),
        ),
        (
            "spline_table_gamma",
            SplineWeights(
                TableGamma({S(1): 1.0, S(2): 0.5, S(1, 2): 0.25, S(3): 0.125}),
                s=1.0,
                lam=1.0,
            ),
            UnitWeights(),
        ),
        (
            "table_monotone",
            _monotone_table(
                [
                    ({}, 1.0),
                    ({1: 1}, 2.0),
                    ({1: 2}, 9.0),
                    ({2: 1}, 4.0),
                    ({1: 1, 2: 1}, 30.0),
                ]
            ),
            UnitWeights(),
        ),
        (
            "table_vs_scaled",
            _monotone_table(
                [({}, 1.0), ({1: 1}, 3.0), ({2: 1}, 5.0), ({1: 1, 2: 1}, 40.0)]
            ),
            ScaledWeights(UnitWeights(), 0.5),
        ),
        (
            "spline_per_coord_s",
            SplineWeights(
                ProductGamma(FiniteSeq([1.0, 0.6, 0.3])), s=[1.0, 0.75, 1.25], lam=1.0
            ),
            UnitWeights(),
        ),
        (
            "aniso",
            AnisotropicWeights(ProductGamma(FiniteSeq([1.0, 0.5])), s=1.0),
            UnitWeights(),
        ),
    ]


def box_ratios(a, b, max_coord=4, max_level=12):
    """All comparison ratios on a generous level box, computed once."""
    out = []
    for levels in itertools.product(range(max_level + 1), repeat=max_coord):
        j = IndexVector({k + 1: l for k, l in enumerate(levels)})
        out.append((j, ratio(a, b, j), max(levels)))
    return out


def brute_force_set(ratios, eps, max_level=12):
    eps2 = eps * eps
    members = []
    for j, c, top in ratios:
        if c >= eps2:
            assert top < max_level, "bounding box too small for this configuration"
            members.append(j)
    return IndexSet(members)


class TestOracleEquivalence:
    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_enumeration_matches_brute_force(self, name, a, b):
        ratios = box_ratios(a, b)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            got, truncated = enumerate_threshold_set(a, b, eps)
            assert not truncated
            assert got == expected, f"{name} at eps={eps}"

    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_restriction_matches_brute_force(self, name, a, b):
        ratios = box_ratios(a, b)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            for d in range(5):
                got = eps_dimension_restricted(a, b, eps, AllOneDims(), d)
                kept = IndexSet(j for j in expected.members if j.max_coord <= d)
                assert got.index_set == kept, f"{name} at eps={eps}, d={d}"
                assert got.n == len(kept)

    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_dimension_counts(self, name, a, b):
        ratios = box_ratios(a, b)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            res_flat = eps_dimension(a, b, eps, AllOneDims())
            assert res_flat.n == len(expected)
            res_spline = eps_dimension(a, b, eps, SplineDims())
            manual = sum(
                2 ** (j.total_level - j.num_active) for j in expected
            )
            assert res_spline.n == manual


class TestExamples:
    def test_boundary_inclusion(self):
        a = TableWeights({ZERO_INDEX: 1.0})
        got, _ = enumerate_threshold_set(a, UnitWeights(), 1.0)
        assert got == IndexSet([ZERO_INDEX])

    def test_single_coordinate_geometric(self):
        # weights 4**j, target L2, eps = 0.1: levels 0..3 survive
        a = SplineWeights(ProductGamma(FiniteSeq([1.0])), s=1.0, lam=1.0)
        got, _ = enumerate_threshold_set(a, UnitWeights(), 0.1)
        assert got == IndexSet([IndexVector({1: j}) if j else ZERO_INDEX for j in range(4)])
        assert eps_dimension(a, UnitWeights(), 0.1, AllOneDims()).n == 4
        assert eps_dimension(a, UnitWeights(), 0.1, SplineDims()).n == 8

    def test_constant_ratio_is_not_compact(self):
        a = ProductWeights(ConstantSeq(1.0))
        with pytest.raises(NotCompact):
            enumerate_threshold_set(a, UnitWeights(), 0.5)

    def test_large_eps_keeps_only_constants(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0, 0.5])), s=1.0, lam=1.0)
        res = eps_dimension(a, UnitWeights(), 0.9, AllOneDims())
        assert res.n == 1
        assert res.index_set == IndexSet([ZERO_INDEX])

    def test_enumeration_cap(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0, 1.0])), s=0.25, lam=1.0)
        with pytest.raises(EnumerationCap):
            enumerate_threshold_set(a, UnitWeights(), 0.001, cap=10)
        got, truncated = enumerate_threshold_set(
            a, UnitWeights(), 0.001, cap=10, on_cap="truncate"
        )
        assert truncated

    def test_custom_pair_needs_explicit_certificate(self):
        from tensorsplit.epsdim import ProductDecay
        from tensorsplit.errors import TailUnavailable
        from tensorsplit.weights import CustomWeights

        def evaluator(j):
            return 3.0**j.total_level if j.max_coord <= 1 else math.inf

        a = CustomWeights(evaluator)
        with pytest.raises(TailUnavailable):
            enumerate_threshold_set(a, UnitWeights(), 0.1)
        cert = ProductDecay(FiniteSeq([1.0 / 3.0]))
        got, _ = enumerate_threshold_set(a, UnitWeights(), 0.1, certificate=cert)
        # 3**-j >= 0.01 iff j <= 4
        expected = IndexSet(
            [IndexVector({1: j}) if j else ZERO_INDEX for j in range(5)]
        )
        assert got == expected


class TestRestriction:
    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_restriction_monotone_and_stabilizes(self, name, a, b):
        for eps in EPS_GRID[::2]:
            full = eps_dimension(a, b, eps, AllOneDims())
            d0 = stabilization_dim(a, b, eps)
            previous = -1
            for d in range(0, 5):
                res = eps_dimension_restricted(a, b, eps, AllOneDims(), d)
                assert res.n >= previous
                previous = res.n
                if d >= d0:
                    assert res.n == full.n
                else:
                    assert res.n <= full.n
            # minimality: below d0 the restricted count is strictly smaller
            if d0 > 0:
                assert (
                    eps_dimension_restricted(a, b, eps, AllOneDims(), d0 - 1).n < full.n
                )

    def test_zero_dimensional_restriction(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0])), s=1.0, lam=1.0)
        res = eps_dimension_restricted(a, UnitWeights(), 0.5, AllOneDims(), 0)
        assert res.n == 1  # the constants survive at eps <= 1
        gone = eps_dimension_restricted(a, UnitWeights(), 1.5, AllOneDims(), 0)
        assert gone.n == 0  # ... and drop out once eps**2 exceeds their ratio

    def test_stabilization_examples(self):
        only_zero = TableWeights({ZERO_INDEX: 1.0})
        assert stabilization_dim(only_zero, UnitWeights(), 0.5) == 0
        with_coord3 = TableWeights({ZERO_INDEX: 1.0, IndexVector({3: 1}): 1.0})
        assert stabilization_dim(with_coord3, UnitWeights(), 0.5) == 3

    def test_inactive_higher_coordinate(self):
        # only coordinate 1 carries weight: d = 1 and d = 2 agree
        a = ProductWeights(FiniteSeq([0.8]))
        r1 = eps_dimension_restricted(a, UnitWeights(), 0.3, AllOneDims(), 1)
        r2 = eps_dimension_restricted(a, UnitWeights(), 0.3, AllOneDims(), 2)
        assert r1.n == r2.n


class TestNonUnitTargets:
    def test_product_vs_product_pair(self):
        a = ProductWeights(FiniteSeq([0.9, 0.5, 0.2]))
        b = ProductWeights(FiniteSeq([0.7, 0.6, 0.5]))
        ratios = box_ratios(a, b)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            got, _ = enumerate_threshold_set(a, b, eps)
            assert got == expected

    def test_spline_vs_spline_pair(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0, 0.5])), s=1.0, lam=1.0)
        b = SplineWeights(ProductGamma(FiniteSeq([0.8, 0.8])), s=0.5, lam=1.0)
        ratios = box_ratios(a, b)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            got, _ = enumerate_threshold_set(a, b, eps)
            assert got == expected
            res = eps_dimension(a, b, eps, AllOneDims())
            assert res.n == len(expected)

    def test_spline_vs_spline_needs_smoothness_gap(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0])), s=0.5, lam=1.0)
        b = SplineWeights(ProductGamma(FiniteSeq([1.0])), s=0.5, lam=1.0)
        with pytest.raises(NotCompact):
            enumerate_threshold_set(a, b, 0.5)

    def test_boost_revives_subthreshold_branches(self):
        # a large first coordinate weight makes the ratio increase when the
        # coordinate enters, so the threshold set need not contain zero
        a = SplineWeights(ProductGamma(FiniteSeq([6.0, 0.5])), s=1.0, lam=1.0)
        b = UnitWeights()
        ratios = box_ratios(a, b)
        eps = math.sqrt(1.2)  # between c(zero) = 1 and c(e1) = 1.5
        expected = brute_force_set(ratios, eps)
        got, _ = enumerate_threshold_set(a, b, eps)
        assert got == expected
        assert IndexVector({1: 1}) in got and ZERO_INDEX not in got
        assert not got.is_monotone
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            got, _ = enumerate_threshold_set(a, b, eps)
            assert got == expected

    def test_randomized_tables_against_brute_force(self):
        rng = __import__("numpy").random.default_rng(777)
        for trial in range(25):
            entries = {}
            for levels in itertools.product(range(3), repeat=2):
                if rng.uniform() < 0.7:
                    entries[IndexVector({1: levels[0], 2: levels[1]})] = float(
                        rng.uniform(0.05, 20.0)
                    )
            if not entries:
                continue
            a = TableWeights(entries)
            ratios = box_ratios(a, UnitWeights(), max_coord=2, max_level=3)
            for eps in (0.9, 0.4, 0.15, 0.05):
                expected = brute_force_set(ratios, eps, max_level=3)
                got, _ = enumerate_threshold_set(a, UnitWeights(), eps)
                assert got == expected, f"trial {trial} eps={eps}"


class TestMonotonicityInvariants:
    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_count_nonincreasing_in_eps(self, name, a, b):
        counts = [eps_dimension(a, b, eps, AllOneDims()).n for eps in sorted(EPS_GRID)]
        assert counts == sorted(counts, reverse=True)

    def test_count_responds_to_weight_scaling(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0, 0.5])), s=1.0, lam=1.0)
        b = UnitWeights()
        for eps in (0.3, 0.1):
            base = eps_dimension(a, b, eps, AllOneDims()).n
            # raising the target weights enlarges the set ...
            more = eps_dimension(a, ScaledWeights(b, 4.0), eps, AllOneDims()).n
            assert more >= base
            # ... and raising the source weights shrinks it
            fewer = eps_dimension(ScaledWeights(a, 4.0), b, eps, AllOneDims()).n
            assert fewer <= base

    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_threshold_sets_are_monotone_for_monotone_ratios(self, name, a, b):
        # all bundled configurations have ratios nonincreasing in the
        # partial order, so every threshold set must be downward closed
        for eps in EPS_GRID[::3]:
            got, _ = enumerate_threshold_set(a, b, eps)
            assert got.is_monotone


class TestSplineCounting:
    def test_worked_singleton_example(self):
        # single active coordinate, s=1, eps=1/4: levels 1..2 survive
        gamma = ProductGamma(FiniteSeq([1.0]))
        res = spline_eps_dimension(gamma, 1.0, 1.0, 0.25)
        assert res.n == 4
        assert res.coarse_bound >= res.n

    def test_empty_gamma(self):
        res = spline_eps_dimension(ProductGamma(FiniteSeq([0.0])), 1.0, 1.0, 0.1)
        assert res.n == 1

    @pytest.mark.parametrize(
        "gamma",
        [
            ProductGamma(FiniteSeq([1.0, 0.25, 0.0625])),
            ProductGamma(FiniteSeq([0.9, 0.3])),
            FiniteOrderGamma(ProductGamma(FiniteSeq([1.0, 0.5, 0.25])), 2),
            TableGamma({S(1): 1.0, S(2): 0.5, S(1, 2): 0.25, S(3): 0.125}),
            ProductGamma(GeometricSeq(1.0, 0.5)),
            ProductGamma(PowerSeq(1.0, 4.0)),
        ],
        ids=["finite3", "finite2", "order2", "table", "geometric", "power"],
    )
    @pytest.mark.parametrize("s,lam", [(1.0, 1.0), (0.5, 2.0), (0.75, 1.3)])
    def test_counting_matches_enumeration(self, gamma, s, lam):
        a = SplineWeights(gamma, s=s, lam=lam)
        for eps in EPS_GRID:
            counted = spline_eps_dimension(gamma, s, lam, eps)
            enumerated = eps_dimension(a, UnitWeights(), eps, SplineDims())
            assert counted.n == enumerated.n, f"s={s} lam={lam} eps={eps}"
            assert counted.coarse_bound >= counted.n - 1

    def test_growth_rate_with_pair_weights(self):
        # a positive weight on a two-coordinate set pushes the growth beyond
        # the singleton rate eps**(-1/s); the reported closed-form bound
        # grows at eps**(-2/s) on a log-log grid (the exact count carries a
        # logarithmic factor on top of eps**(-1/s) instead, because the
        # population of a (support, excess) class is a binomial coefficient)
        gamma = TableGamma({S(1): 1.0, S(2): 1.0, S(1, 2): 1.0})
        s = 1.0
        eps_lo, eps_hi = 1e-5, 1e-3

        def slope(value_lo, value_hi):
            return (math.log(value_lo) - math.log(value_hi)) / (
                math.log(1 / eps_lo) - math.log(1 / eps_hi)
            )

        res_lo = spline_eps_dimension(gamma, s, 1.0, eps_lo)
        res_hi = spline_eps_dimension(gamma, s, 1.0, eps_hi)
        assert slope(res_lo.n, res_hi.n) > 1.0 / s  # strictly beyond singleton rate
        assert slope(res_lo.coarse_bound, res_hi.coarse_bound) > 1.8  # near 2/s

    def test_not_compact_gamma(self):
        with pytest.raises(NotCompact):
            spline_eps_dimension(ProductGamma(ConstantSeq(1.0)), 1.0, 1.0, 0.1)

    def test_underflowing_weight_counts_like_enumeration(self):
        # the lam product of a two-coordinate support underflows to 0, a
        # weight the enumerator maps to ratio 0
        gamma = ProductGamma(FiniteSeq([1.0, 1.0]))
        counted = spline_eps_dimension(gamma, 1.0, 1e-200, 0.5)
        enumerated = eps_dimension(SplineWeights(gamma, 1.0, 1e-200), UnitWeights(), 0.5, SplineDims())
        assert counted.n == enumerated.n


def carried_pairs():
    """(name, a, b, eps): one pair per way the walk carries a weight."""
    power = ProductGamma(PowerSeq(1.0, 2.0))

    def spline(s=1.0, lam=1.0, gamma=power):
        return SplineWeights(gamma, s=s, lam=lam)

    return [
        ("spline_const_s", spline(), UnitWeights(), 0.01),
        ("spline_listed_s", spline(s=[1.5, 0.75, 1.25]), UnitWeights(), 0.02),
        ("spline_affine_s", spline(s={"kind": "affine", "a": 0.5, "b": 0.25}), UnitWeights(), 0.02),
        ("spline_listed_lam", spline(lam=[0.5, 2.0, 1.5]), UnitWeights(), 0.01),
        ("scaled_both", ScaledWeights(spline(), 0.7), ScaledWeights(UnitWeights(), 1.3), 0.01),
        ("product_unit", ProductWeights(PowerSeq(0.85, 2.0)), UnitWeights(), 0.03),
        ("product_product", ProductWeights(PowerSeq(0.9, 3.0)), ProductWeights(PowerSeq(0.9, 1.5)), 0.1),
        ("spline_spline", spline(s=2.0, gamma=ProductGamma(PowerSeq(1.0, 3.0))), spline(), 0.05),
        ("support_table", spline(s=[1.0, 0.5], lam=[2.0, 1.0],
                                 gamma=TableGamma({S(1): 1.0, S(2): 0.5, S(1, 2): 0.25})),
         ScaledWeights(UnitWeights(), 2.0), 0.01),
        ("support_product", spline(s=0.5, gamma=ProductGamma(FiniteSeq([0.9, 0.8, 0.7]))),
         UnitWeights(), 0.05),
        ("aniso_by_vector", AnisotropicWeights(power, s=1.0), UnitWeights(), 0.03),
    ]


class TestCarriedWalk:
    """The walk carries running products instead of re-evaluating weights;
    its ratios must be the ones ``ratio`` computes, bit for bit."""

    @pytest.mark.parametrize("name,a,b,eps", carried_pairs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_member_ratios_equal_ratio(self, name, a, b, eps):
        got, truncated = enumerate_threshold_set(a, b, eps)
        assert not truncated and len(got) > 5
        for j, c in got.ratios.items():
            assert c == ratio(a, b, j), f"{name}: {j!r}"
            assert c >= eps * eps
            # the trusted vectors are canonical
            assert IndexVector(j.entries).entries == j.entries

    @pytest.mark.parametrize("name,a,b,eps", carried_pairs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_table_matches_one_enumeration_per_eps(self, name, a, b, eps):
        """Counts read from the smallest eps's set equal those of a fresh
        enumeration at each eps, and its d-restrictions."""
        eps_list = [eps * 3.0, eps, eps * 1.7]
        ds = [0, 1, 2, 4]
        walk = eps_dimension(a, b, eps, SplineDims())
        for eps_i, d0, counts in walk.table(eps_list, ds, SplineDims()):
            full = eps_dimension(a, b, eps_i, SplineDims())
            assert d0 == full.index_set.max_coord
            expected = [(full.n, len(full.index_set))]
            for d in ds:
                res = full.restricted(d, SplineDims())
                expected.append((res.n, len(res.index_set)))
            assert counts == expected, f"{name} at eps={eps_i}"

    @pytest.mark.parametrize("s,lam", [(1.0, 1.0), ([0.75, 1.25], [2.0, 0.5])])
    def test_non_product_gamma_walk(self, s, lam):
        """A gamma that is no product is read from each node's support; the
        walk is driven by the base product gamma's multipliers."""
        values = FiniteSeq([1.0, 0.5, 0.25])
        a = SplineWeights(FiniteOrderGamma(ProductGamma(values), 2), s=s, lam=lam)
        b = UnitWeights()
        certificate = ProductDecay(SplineWeights(ProductGamma(values), s=s, lam=lam).multiplier_seq())
        ratios = box_ratios(a, b, max_coord=3)
        for eps in EPS_GRID:
            got, truncated = enumerate_threshold_set(a, b, eps, certificate=certificate)
            assert not truncated
            assert all(c == ratio(a, b, j) for j, c in got.ratios.items())
            assert got == brute_force_set(ratios, eps), f"eps={eps}"

    def test_table_refuses_a_smaller_eps(self):
        a = SplineWeights(ProductGamma(PowerSeq(1.0, 2.0)), s=1.0)
        walk = eps_dimension(a, UnitWeights(), 0.1, AllOneDims())
        with pytest.raises(ValueError):
            list(walk.table([0.05], [], AllOneDims()))

    @given(
        values=st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3),
        s=st.one_of(
            st.floats(0.5, 2.0),
            st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
            st.tuples(st.floats(0.5, 1.0), st.just(0.0) | st.floats(0.05, 0.5)).map(
                lambda ab: {"kind": "affine", "a": ab[0], "b": ab[1]}),
        ),
        lam=st.one_of(st.floats(0.7, 2.0), st.lists(st.floats(0.7, 2.0), min_size=1, max_size=3)),
        scale_a=st.sampled_from([None, 0.6, 1.7]),
        scale_b=st.sampled_from([None, 0.8, 1.25]),
        eps=st.floats(0.12, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_spline_models_against_brute_force(self, values, s, lam, scale_a, scale_b, eps):
        """Both routes, the per-support scan (the automatic certificate for a
        finite gamma) and the depth-first walk, against the box oracle."""
        base = SplineWeights(ProductGamma(FiniteSeq(values)), s=s, lam=lam)
        a = base if scale_a is None else ScaledWeights(base, scale_a)
        b = UnitWeights() if scale_b is None else ScaledWeights(UnitWeights(), scale_b)
        expected = brute_force_set(box_ratios(a, b, max_coord=3, max_level=10), eps, max_level=10)
        for certificate in (None, ProductDecay(base.multiplier_seq())):
            got, _ = enumerate_threshold_set(a, b, eps, certificate=certificate)
            assert got == expected
            assert all(c == ratio(a, b, j) for j, c in got.ratios.items())
