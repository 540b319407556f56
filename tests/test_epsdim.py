"""Threshold-set enumeration against a brute-force box oracle."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tensorsplit.epsdim
from tensorsplit.epsdim import (
    COORD_GUARD,
    AllOneDims,
    DimensionModel,
    FiniteUniverse,
    ProductDecay,
    SplineDims,
    _BoostTable,
    _members,
    _walk,
    auto_certificate,
    enumerate_threshold_set,
    eps_dimension,
    spline_eps_dimension,
)
from tensorsplit.errors import ConfigInvalid, EnumerationCap, NotCompact, TensorsplitError
from tensorsplit.gammas import FiniteOrderGamma, ProductGamma, TableGamma
from tensorsplit.indexing import ZERO_INDEX, IndexSet, IndexVector, SupportSet
from tensorsplit.sequences import (ConstantSeq, FiniteSeq, GeometricSeq, ListTailSeq, PowerSeq,
                                   ProductOfSeqs)
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


@functools.cache
def config_ratios(name):
    """``box_ratios`` of the ``weight_configs`` pair of that name, computed
    once per test run."""
    a, b = next((a, b) for n, a, b in weight_configs() if n == name)
    return box_ratios(a, b)


def brute_force_set(ratios, eps, max_level=12):
    eps2 = eps * eps
    members = []
    for j, c, top in ratios:
        if c >= eps2:
            assert top < max_level, "bounding box too small for this configuration"
            members.append(j)
    return IndexSet(members)


class VectorDims(DimensionModel):
    """``dims`` under a type the grouped walk does not know, so that
    ``eps_dimension`` walks single indices: the same breadth-first walk
    keyed by entries, whose set, counts and errors the grouped walk must
    reproduce."""

    def __init__(self, dims):
        self.dims = dims

    def coord_dim(self, j, k):
        return self.dims.coord_dim(j, k)


def filtered_counts(members, ds, dims):
    """``(n, set size)`` of a set and then of its members on the coordinates
    <= d for each d in ``ds``, filtered and summed member by member."""
    subsets = [list(members)] + [[j for j in members if j.max_coord <= d] for d in ds]
    return [(sum(dims.subspace_dim(j) for j in kept), len(kept)) for kept in subsets]


class TestOracleEquivalence:
    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_enumeration_matches_brute_force(self, name, a, b):
        ratios = config_ratios(name)
        for eps in EPS_GRID:
            expected = brute_force_set(ratios, eps)
            got, truncated = enumerate_threshold_set(a, b, eps)
            assert not truncated
            assert got == expected, f"{name} at eps={eps}"

    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_restriction_matches_brute_force(self, name, a, b):
        """Every row of ``table`` counts the brute-force set filtered by
        max_coord, and its d0 is the set's largest coordinate."""
        ratios = config_ratios(name)
        ds = range(5)
        for dims in (AllOneDims(), SplineDims()):
            for eps in EPS_GRID:
                expected = brute_force_set(ratios, eps)
                res = eps_dimension(a, b, eps, dims)
                assert res.index_set == expected
                ((_, d0, counts),) = res.table([eps], ds)
                assert d0 == expected.max_coord
                assert counts == filtered_counts(expected, ds, dims), f"{name} at eps={eps}"

    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_dimension_counts(self, name, a, b):
        ratios = config_ratios(name)
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

    def test_custom_pair_needs_explicit_certificate(self):
        from tensorsplit.epsdim import ProductDecay
        from tensorsplit.errors import TailUnavailable
        from tensorsplit.weights import WeightModel

        class Opaque(WeightModel):
            """Weights 3**level on coordinate 1, with no certificate of their own."""

            def weight(self, j):
                return 3.0**j.total_level if j.max_coord <= 1 else math.inf

        a = Opaque()
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
    """The d rows of ``table``: counts over the coordinates <= d, and d0,
    the coordinate from which on they equal the full count."""

    @pytest.mark.parametrize("name,a,b", weight_configs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_restriction_monotone_and_stabilizes(self, name, a, b):
        ratios = config_ratios(name)
        ds = range(5)
        for eps in EPS_GRID[::2]:
            expected = brute_force_set(ratios, eps)
            full = eps_dimension(a, b, eps, AllOneDims())
            ((_, d0, (whole, *rows)),) = full.table([eps], ds)
            assert d0 == full.index_set.max_coord == expected.max_coord
            assert [whole, *rows] == filtered_counts(expected, ds, AllOneDims())
            assert whole[0] == full.n
            previous = -1
            for d, (n, _) in zip(ds, rows):
                assert n >= previous
                previous = n
                if d >= d0:
                    assert n == full.n
                else:
                    assert n <= full.n
            # minimality: below d0 the count is strictly smaller
            if d0 > 0:
                assert rows[d0 - 1][0] < full.n

    def test_zero_dimensional_restriction(self):
        a = SplineWeights(ProductGamma(FiniteSeq([1.0])), s=1.0, lam=1.0)
        res = eps_dimension(a, UnitWeights(), 0.5, AllOneDims())
        (_, _, kept), (_, _, gone) = res.table([0.5, 1.5], [0])
        assert kept[1] == (1, 1)  # the constants survive at eps <= 1
        assert gone[1] == (0, 0)  # ... and drop out once eps**2 exceeds their ratio

    def test_stabilization_examples(self):
        only_zero = TableWeights({ZERO_INDEX: 1.0})
        res = eps_dimension(only_zero, UnitWeights(), 0.5, AllOneDims())
        assert res.index_set.max_coord == 0
        assert [d0 for _, d0, _ in res.table([0.5], [])] == [0]
        with_coord3 = TableWeights({ZERO_INDEX: 1.0, IndexVector({3: 1}): 1.0})
        res = eps_dimension(with_coord3, UnitWeights(), 0.5, AllOneDims())
        assert res.index_set.max_coord == 3
        assert [d0 for _, d0, _ in res.table([0.5], [])] == [3]

    def test_inactive_higher_coordinate(self):
        # only coordinate 1 carries weight: d = 1 and d = 2 agree
        a = ProductWeights(FiniteSeq([0.8]))
        ((_, _, (_, r1, r2)),) = eps_dimension(a, UnitWeights(), 0.3, AllOneDims()).table([0.3], [1, 2])
        assert r1 == r2
        expected = brute_force_set(box_ratios(a, UnitWeights(), max_coord=2), 0.3)
        assert r2 == filtered_counts(expected, [2], AllOneDims())[1]


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
            enumerated = eps_dimension(a, UnitWeights(), eps, VectorDims(SplineDims()))
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
        enumerated = eps_dimension(SplineWeights(gamma, 1.0, 1e-200), UnitWeights(), 0.5,
                                   VectorDims(SplineDims()))
        assert counted.n == enumerated.n

    @pytest.mark.parametrize("gamma", [
        ProductGamma(PowerSeq(1, 2)),
        ProductGamma(FiniteSeq([0.9, 0.3])),
        TableGamma({S(1): 1.0, S(2): 0.5, S(1, 2): 0.25, S(3): 0.125}),
    ], ids=["power", "finite", "table"])
    def test_counted_table_equals_vector_walk(self, gamma):
        """The counting route keeps no index set, but its table reads its
        member groups: every row equals the vector walk's."""
        counted = spline_eps_dimension(gamma, 1.0, 1.0, 0.05)
        assert counted.index_set is None
        vector = eps_dimension(SplineWeights(gamma, s=1.0), UnitWeights(), 0.05, VectorDims(SplineDims()))
        assert counted.n == vector.n
        eps_list, ds = [0.05, 0.08, 0.3, 0.9], [0, 1, 2, 4]
        assert list(counted.table(eps_list, ds)) == list(vector.table(eps_list, ds))

    def test_counted_pinned_example(self):
        assert spline_eps_dimension(ProductGamma(PowerSeq(1, 2)), 1.0, 1.0, 0.05).n == 41


class TestRejectedArguments:
    """A NaN eps fails every ``c >= eps**2`` test, so a scan for it would
    never stop; it is refused before any scan, as a bool given for a spline
    parameter is."""

    gamma = ProductGamma(PowerSeq(1.0, 2.0))

    def test_nan_eps_enumeration(self):
        a = SplineWeights(self.gamma, s=1, lam=1)
        with pytest.raises(ConfigInvalid, match="eps"):
            eps_dimension(a, UnitWeights(), math.nan, AllOneDims())

    def test_nan_eps_counting(self):
        with pytest.raises(ConfigInvalid, match="eps"):
            spline_eps_dimension(self.gamma, 1.0, 1.0, math.nan)

    def test_nan_eps_table(self):
        walk = eps_dimension(SplineWeights(self.gamma, s=1.0), UnitWeights(), 0.1, AllOneDims())
        with pytest.raises(ConfigInvalid, match="eps"):
            list(walk.table([0.2, math.nan], []))

    @pytest.mark.parametrize("s,lam", [(True, 1.0), (1.0, True)], ids=["s", "lam"])
    def test_bool_spline_parameter(self, s, lam):
        with pytest.raises(ConfigInvalid):
            spline_eps_dimension(self.gamma, s, lam, 0.1)


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
        enumeration at each eps, filtered by max_coord member by member."""
        eps_list = [eps * 3.0, eps, eps * 1.7]
        ds = [0, 1, 2, 4]
        walk = eps_dimension(a, b, eps, SplineDims())
        for eps_i, d0, counts in walk.table(eps_list, ds):
            fresh, _ = enumerate_threshold_set(a, b, eps_i)
            assert d0 == fresh.max_coord
            assert counts == filtered_counts(fresh, ds, SplineDims()), f"{name} at eps={eps_i}"

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
            list(walk.table([0.05], []))

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


class CountingSeq(PowerSeq):
    """A power sequence that counts its evaluations by coordinate."""

    def __init__(self, c, p):
        super().__init__(c, p)
        self.calls = {}

    def value(self, k):
        self.calls[k] = self.calls.get(k, 0) + 1
        return super().value(k)


class TestCoordinateTables:
    """The models read gamma_k, lam_k and the dyadic factor of each total
    level from tables that live as long as the model object; walks and
    ``weight`` must read the same floats as fresh models compute."""

    @pytest.mark.parametrize("name,a,b,eps", carried_pairs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_used_models_equal_fresh_ones(self, name, a, b, eps):
        """Walks at several eps in shuffled order on one model pair, then
        ``weight`` on it: every ratio is ``ratio`` on fresh models, and the
        grouped walk's ratios are the vector walk's."""
        fresh_a, fresh_b = next((fa, fb) for n, fa, fb, _ in carried_pairs() if n == name)
        eps_list = [eps * 2.5, eps, eps * 1.6, eps * 4.0]
        random.Random(name).shuffle(eps_list)
        members = {}
        for eps_i in eps_list:
            res = eps_dimension(a, b, eps_i, SplineDims())
            ratios = res.index_set.ratios
            assert {m[3] for m in res.members} == set(ratios.values()), f"{name} at eps={eps_i}"
            for j, c in ratios.items():
                assert c == ratio(fresh_a, fresh_b, j), f"{name}: {j!r} at eps={eps_i}"
            members.update(ratios)
        assert len(members) > 5
        for j, c in members.items():
            assert ratio(a, b, j) == c

    @pytest.mark.parametrize("model", [
        lambda seq: SplineWeights(ProductGamma(seq), s=1.0, lam=[2.0, 0.5]),
        lambda seq: ScaledWeights(SplineWeights(ProductGamma(seq), s=[1.0, 0.75]), 0.5),
        lambda seq: ProductWeights(seq),
    ], ids=["spline_graded", "spline_vector", "product"])
    def test_each_gamma_read_once_per_model(self, model):
        """One pair of model objects serves walks at three eps, their
        tables and threshold sets and a ``weight`` call per member: each
        gamma_k is evaluated once.  The certificate comes from a plain
        copy, so the entry scans do not read the counting sequence."""
        counting = CountingSeq(0.85, 2.0)
        a, plain = model(counting), model(PowerSeq(0.85, 2.0))
        certificate = auto_certificate(plain, UnitWeights())
        for eps in (0.02, 0.01, 0.015):
            res = eps_dimension(a, UnitWeights(), eps, SplineDims(), certificate=certificate)
            list(res.table([eps, 2 * eps], [1, 3]))
            for j in res.index_set:
                a.weight(j)
        assert max(counting.calls) > 5
        assert set(counting.calls.values()) == {1}


_PINNED = SplineWeights(ProductGamma(PowerSeq(1.0, 2.0)), s=1.0, lam=1.0)
#: (name, a, eps, graded): the pinned spline/unit pair in both walks and a
#: product/unit pair in the vector walk
BOUNDARY_CASES = [
    ("pinned_grouped", _PINNED, 0.005, True),
    ("pinned_vector", _PINNED, 0.005, False),
    ("product_unit", ProductWeights(PowerSeq(0.85, 2.0)), 0.01, False),
]


class TestExactBoundary:
    """eps**2 equal to a member's carried ratio keeps that member, and one
    ulp above it drops it, in the grouped and in the vector walk: the
    push test and the member test compare the same floats."""

    @pytest.mark.parametrize("name,a,eps,graded", BOUNDARY_CASES, ids=[c[0] for c in BOUNDARY_CASES])
    def test_member_ratio_as_threshold(self, name, a, eps, graded):
        b = UnitWeights()
        mult = auto_certificate(a, b).mult

        def walk(eps2):
            if graded:
                return set(_members(a, b, eps2, None, math.inf, graded=True))
            return set(_walk(a, b, eps2, mult, math.inf, graded=False))

        members = walk(eps * eps)
        ratios = sorted({m[3] for m in members})
        # the smallest, a middle and the largest but one distinct ratio
        for c in {ratios[0], ratios[len(ratios) // 2], ratios[-2]}:
            kept = walk(c)
            assert kept == {m for m in members if m[3] >= c}
            assert any(m[3] == c for m in kept)
            assert walk(math.nextafter(c, math.inf)) == {m for m in members if m[3] > c}


def downward_search(a, b, eps2):
    """``{j: ratio}`` of the indices with ratio(a, b, j) >= eps2, by a search
    that tests each index's own ``ratio`` and prunes below a failing one.
    Valid when every entry multiplier is below 1 and does not increase with
    the coordinate: a child's ratio is then at most its parent's, and an
    entry that fails at k fails at every larger coordinate."""
    out, stack = {}, [()]
    while stack:
        entries = stack.pop()
        j = IndexVector._from_entries(entries)
        if (c := ratio(a, b, j)) < eps2:
            continue
        out[j] = c
        if entries:
            stack.append(entries[:-1] + ((entries[-1][0], entries[-1][1] + 1),))
        k = entries[-1][0] + 1 if entries else 1
        while ratio(a, b, IndexVector._from_entries(entries + ((k, 1),))) >= eps2:
            stack.append(entries + ((k, 1),))
            k += 1
    return out


#: dyadic cases (gamma, lam, n) at eps**2 = 2**-n: with s = 0.4 the dyadic
#: factor 2**(0.8 T) is a power of two at every fifth total level, so some
#: member ratios are exactly eps**2
DYADIC_GAMMAS = {**{f"power{p}": ProductGamma(PowerSeq(1.0, p)) for p in (1.5, 2.0, 2.5, 3.0, 4.0)},
                 **{f"geometric{r}": ProductGamma(GeometricSeq(1.0, r)) for r in (0.25, 0.5, 0.75)}}
DYADIC_CASES = [(g, lam, n) for g in DYADIC_GAMMAS for lam in (1.0, 2.0) for n in range(6, 13)]


class TestBoundaryMembersKept:
    """Members whose ratio is exactly eps**2 lie below an ancestor's pruning
    bound computed in other floats; both walks must keep them."""

    def test_pinned_dyadic_pair(self):
        """341 members, 25 of them with ratio exactly 2**-10."""
        a, b, eps = SplineWeights(ProductGamma(PowerSeq(1, 2)), s=0.4), UnitWeights(), 2.0 ** -5
        expected = downward_search(a, b, eps * eps)
        assert len(expected) == 341 and sum(c == eps * eps for c in expected.values()) == 25
        assert eps_dimension(a, b, eps, AllOneDims()).n == 341
        assert enumerate_threshold_set(a, b, eps)[0].ratios == expected

    @pytest.mark.parametrize("gamma,lam,n", DYADIC_CASES)
    def test_dyadic_cases_match_the_search(self, gamma, lam, n):
        """eps**2 = 2**-n, passed as it is: for odd n no float eps squares to it."""
        a, b, eps2 = SplineWeights(DYADIC_GAMMAS[gamma], s=0.4, lam=lam), UnitWeights(), 2.0 ** -n
        expected = downward_search(a, b, eps2)
        assert sum(group[2] for group in _members(a, b, eps2, None, math.inf, graded=True)) == len(expected)
        vector = _walk(a, b, eps2, auto_certificate(a, b).mult, math.inf, graded=False)
        assert {IndexVector._from_entries(key): c for key, _, _, c in vector} == expected


def sparse_box(max_coord, max_active, max_level):
    """Every index with coordinates <= max_coord, at most max_active of them
    active, and levels <= max_level."""
    for size in range(max_active + 1):
        for support in itertools.combinations(range(1, max_coord + 1), size):
            for levels in itertools.product(range(1, max_level + 1), repeat=size):
                yield IndexVector(zip(support, levels))


def box_threshold_ratios(a, b, eps, box):
    """``{j: ratio}`` of the box members at or above eps**2, checking that
    none touches the box's edge (the threshold set is downward closed, so
    then the box holds all of it)."""
    max_coord, max_active, max_level = box
    out = {j: c for j in sparse_box(*box) if (c := ratio(a, b, j)) >= eps * eps}
    for j in out:
        assert j.max_coord < max_coord and len(j.entries) < max_active, "box too small"
        assert all(level < max_level for _, level in j.entries), "box too small"
    return out


#: the smallest multiplier that boosts a ratio: 1 + 2**-52
BOOSTING = math.nextafter(1.0, math.inf)


def brute_k_last(mult, window=1000):
    """The last coordinate up to ``window`` whose multiplier boosts, by
    evaluating every one; none may lie in the window's second half, so a
    window too small for the sequence fails instead of cutting it short."""
    ks = [k for k in range(1, window + 1) if mult.value(k) >= BOOSTING]
    assert not ks or ks[-1] < window // 2, "window too small"
    return ks[-1] if ks else 0


def brute_after(mult, k_last, k0):
    """Product of max(1, M_i) over k0 < i <= k_last, from k_last down."""
    boost = 1.0
    for i in range(k_last, k0, -1):
        boost *= max(1.0, mult.value(i))
    return boost


def reference_entry_scan(mult, c, eps2, k):
    """The entry scan evaluated on the sequence at every coordinate, each
    coordinate i tested with the supremum over i and every later one.

    Returns the coordinates it enters and the message of the NotCompact it
    ends with (None when it stops), plus the coordinate it stops at (the
    first it does not enter) or raises at (the last it enters).
    """
    k_last = brute_k_last(mult)
    entered = []
    while True:
        if c * mult.tail_sup(k - 1) * brute_after(mult, k_last, k) < eps2:
            return entered, None, k
        entered.append(k)
        if k - 1 >= mult.nonincreasing_from and k - 1 > k_last and not mult.decays_to_zero:
            return entered, "entry multipliers do not decay; the threshold set is unbounded", k
        k += 1


def scanned_coords(table, c, eps2, k):
    """The coordinates the entry scan of ``table`` from k enters, read from
    the table as the walk reads them."""
    return list(range(k, table.scan_end(c, eps2, k)))


class _RecordingTable(tensorsplit.epsdim._BoostTable):
    """Keeps every table a walk builds, the coordinates its scans enter and
    the coordinates they stop at."""

    made = []

    def __init__(self, mult):
        super().__init__(mult)
        self.entered, self.ends = [], []
        _RecordingTable.made.append(self)

    def scan_end(self, c, eps2, k):
        end = super().scan_end(c, eps2, k)
        self.entered.extend(range(k, end))
        self.ends.append(end)
        return end


class TestEntryScanTable:
    """The entry scan reads a per-coordinate table grown as scans reach new
    coordinates; it must scan, stop and raise exactly as evaluating the
    multiplier sequence at every step does, and cover the coordinates that
    evaluation yields."""

    power = ProductGamma(PowerSeq(1.0, 2.0))

    @pytest.mark.parametrize("a,b,eps,box", [
        (ProductWeights(PowerSeq(0.85, 2.0)), UnitWeights(), 0.1, (11, 4, 2)),
        (ProductWeights(PowerSeq(0.85, 2.0)), UnitWeights(), 0.07, (15, 4, 2)),
        (SplineWeights(power, s=1.0, lam=1.5), UnitWeights(), 0.05, (10, 3, 5)),
        (SplineWeights(ProductGamma(PowerSeq(0.9, 2.0)), s=0.75), UnitWeights(), 0.07, (10, 3, 6)),
        # {1} lies below the threshold and only the boost of coordinate 2 lifts {1, 2} above it
        (ProductWeights(PowerSeq(5.0, 2.0)), ScaledWeights(UnitWeights(), 0.01), 0.235, (5, 3, 2)),
    ], ids=["product_unit_0.1", "product_unit_0.07", "spline_unit_lam", "spline_unit_s",
            "product_unit_boost"])
    def test_ratios_equal_box_brute_force(self, monkeypatch, a, b, eps, box):
        monkeypatch.setattr(_RecordingTable, "made", [])
        monkeypatch.setattr(tensorsplit.epsdim, "_BoostTable", _RecordingTable)
        got, truncated = enumerate_threshold_set(a, b, eps)
        assert not truncated
        assert got.ratios == box_threshold_ratios(a, b, eps, box)
        (table,) = _RecordingTable.made
        # the table reaches the last coordinate a scan stopped at, one past
        # the last it entered
        assert len(table.sup) == len(table.after) == max(table.ends) + 1 == max(table.entered) + 2

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_spline_counting_equals_box_brute_force(self, monkeypatch, eps):
        monkeypatch.setattr(_RecordingTable, "made", [])
        monkeypatch.setattr(tensorsplit.epsdim, "_BoostTable", _RecordingTable)
        counted = spline_eps_dimension(self.power, 1.0, 1.0, eps)
        members = box_threshold_ratios(SplineWeights(self.power, s=1.0), UnitWeights(), eps, (11, 3, 5))
        assert counted.n == sum(SplineDims().subspace_dim(j) for j in members)
        (table,) = _RecordingTable.made
        assert len(table.sup) == max(table.ends) + 1 == max(table.entered) + 2

    @pytest.mark.parametrize("mult", [
        ProductOfSeqs([PowerSeq(2.0, 1.5), ConstantSeq(0.8), ConstantSeq(1.1)]),
        FiniteSeq([0.5, 0.0, 1.5, 0.0, 0.25]),
        ListTailSeq([1.2, 0.9], 0.5),
        GeometricSeq(3.0, 0.5),
    ], ids=["product_boost", "finite_zeros", "list_tail_not_compact", "geometric"])
    def test_scans_match_direct_evaluation(self, mult):
        """Scans of one table, from several ratios and start coordinates, in
        an order that makes later scans read entries earlier ones added."""
        table = tensorsplit.epsdim._BoostTable(mult)
        eps2 = 0.01
        scanned = 0
        # on finite_zeros the last two scans go on only by the boost of coordinate 3
        for c, k in [(0.05, 2), (1.0, 1), (0.3, 4), (1e-3, 1), (1.0, 7), (0.2, 3), (0.005, 1), (0.0045, 2)]:
            entered, error, last = reference_entry_scan(mult, c, eps2, k)
            if error is None:
                assert scanned_coords(table, c, eps2, k) == entered, (c, k)
            else:
                with pytest.raises(NotCompact, match=error):
                    table.scan_end(c, eps2, k)
            # the scan grew the table up to the coordinate it stopped or raised at
            scanned = max(scanned, last)
            assert len(table.sup) == len(table.after) == scanned + 1


    def test_scan_that_would_reach_the_guard_raises_at_once(self, monkeypatch):
        """ProductWeights(PowerSeq(1, 1.1)) over unit at eps 1e-4: the
        root's scan keeps c * sup * after at or above eps**2 past
        COORD_GUARD, so it would enter a coordinate past the guard.  Its
        first step raises, before it enters coordinate 1 or adds a table
        entry to the one of slot 0."""
        mult = auto_certificate(ProductWeights(PowerSeq(1.0, 1.1)), UnitWeights()).mult
        table = _BoostTable(mult)
        assert table.k_unbounded == math.inf
        assert 1.0 * mult.tail_sup(COORD_GUARD) >= 1e-4 ** 2
        with pytest.raises(EnumerationCap, match="^coordinate scan exceeded the hard guard$"):
            table.scan_end(1.0, 1e-4 ** 2, 1)
        assert len(table.sup) == 1
        # one ulp of eps**2 above the guard value, the scan enters every
        # coordinate up to the guard itself and stops right after it; a
        # guard of 2000 keeps that scan short
        monkeypatch.setattr(tensorsplit.epsdim, "COORD_GUARD", 2000)
        table = _BoostTable(mult)
        above = math.nextafter(mult.tail_sup(2000), math.inf)
        assert table.scan_end(1.0, above, 1) == 2001
        assert scanned_coords(table, 1.0, above, 1) == list(range(1, 2001))
        assert len(table.sup) == 2002


class TestLastBoostingCoordinate:
    """``_BoostTable.k_last``, the last coordinate whose multiplier is at
    least 1 + 2**-52, and the suffix products built on it, against
    evaluating the sequence at every coordinate."""

    @pytest.mark.parametrize("mult,k_last", [
        # value(2135) is 1 + 2**-52: a closed form floor((c/t)**(1/p) + 1e-12) gave 2134
        (PowerSeq(98649.93854534326, 1.5), 2135),
        (PowerSeq(100.5, 2.0), 10),
        (PowerSeq(0.0, 2.0), 0),
        (PowerSeq(1.0, 0.0), 0),
        (GeometricSeq(4.5, 0.5), 2),
        (GeometricSeq(1.5, 0.999), 405),
        (GeometricSeq(3.0, 0.0), 0),
        (FiniteSeq([0.5, 0.0, 1.5, 0.0, 0.25]), 3),
        (FiniteSeq([2.0, 1.0, 3.0, 1.0]), 3),
        (ConstantSeq(1.0), 0),
        (ConstantSeq(0.3), 0),
        (ListTailSeq([1.2, 0.9, BOOSTING], 0.5), 3),
        (ProductOfSeqs([PowerSeq(2.0, 1.5), ConstantSeq(0.8), ConstantSeq(1.1)]), 1),
        (ProductOfSeqs([GeometricSeq(8.0, 0.5), FiniteSeq([1.0] * 5)]), 2),
        # the values rise through the head: the scan may not stop before coordinate 4
        (ProductOfSeqs([ListTailSeq([0.1, 0.5, 3.0], 0.2), ConstantSeq(1.0)]), 3),
    ], ids=["power_2135", "power", "power_zero", "power_flat", "geometric", "geometric_slow",
            "geometric_zero", "finite_zeros", "finite_one", "constant_one", "constant",
            "list_tail", "product_boost", "product_finite", "product_rising_head"])
    def test_equals_brute_force(self, mult, k_last):
        table = _BoostTable(mult)
        assert table.k_last == brute_k_last(mult, 5000) == k_last
        # slot 0 is a placeholder, and suffix[k] multiplies k too
        assert len(table.suffix) == k_last + 2
        for k in {1, k_last // 2 + 1, k_last, k_last + 1} - {0}:
            assert table.suffix[k] == brute_after(mult, k_last, k - 1)

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0])
    def test_power_at_the_threshold(self, p):
        """c the smallest float that puts value(k) at or above 1 + 2**-52:
        the last boosting coordinate is the brute-force one, at least k."""
        for k in range(1, 3001, 149):
            c = BOOSTING * float(k) ** p
            while PowerSeq(c, p).value(k) >= BOOSTING:
                c = math.nextafter(c, 0.0)
            while PowerSeq(c, p).value(k) < BOOSTING:
                c = math.nextafter(c, math.inf)
            seq = PowerSeq(c, p)
            k_last = _BoostTable(seq).k_last
            assert k_last >= k
            assert k_last == brute_k_last(seq, 4 * k + 10), (c, p)

    @pytest.mark.parametrize("mult", [
        PowerSeq(1.0, -2.0),  # the growing quotient of power weights p 2 over p 4
        PowerSeq(1.0, -400.0),  # value(COORD_GUARD + 1) leaves the float range
        ListTailSeq([0.1], 5.0),
        ConstantSeq(BOOSTING),
        ProductOfSeqs([ConstantSeq(1.0), ListTailSeq([0.1], 10.0), ConstantSeq(0.25)]),
    ], ids=["power_quotient", "power_quotient_overflow", "list_tail", "constant",
            "spline_listed_lam"])
    def test_multipliers_above_one_for_ever(self, mult):
        with pytest.raises(NotCompact, match="^entry multipliers stay above 1 for arbitrarily "
                                             "large coordinates$"):
            _BoostTable(mult)

    @pytest.mark.parametrize("mult", [
        PowerSeq(1e6, 0.5),
        GeometricSeq(4.0, 0.9999998 / 0.9999999),
        ProductOfSeqs([PowerSeq(1e6, 0.5), ConstantSeq(1.0), ConstantSeq(0.25)]),
    ], ids=["power_quotient", "geometric_quotient", "spline_unit"])
    def test_multipliers_above_one_past_the_guard(self, mult):
        """Decaying multipliers still above 1 at COORD_GUARD + 1: one value
        there decides, with no scan and no table."""
        assert mult.value(COORD_GUARD + 1) >= BOOSTING
        with pytest.raises(EnumerationCap, match="^coordinate scan exceeded the hard guard$"):
            _BoostTable(mult)

    def test_finite_support_past_the_guard_is_scanned(self):
        """A finite support needs no far value: its scan stops at its end."""
        mult = ProductOfSeqs([PowerSeq(1.0, -2.0), FiniteSeq([0.5, 0.5, 0.2])])
        assert _BoostTable(mult).k_last == 3 == brute_k_last(mult, 10)


#: the cap of the grouped-walk comparisons, small enough to keep each example quick
WALK_CAP = 3_000


def _gamma(draw, kinds):
    """A product or table gamma of one of ``kinds``."""
    kind, c = draw(st.sampled_from(kinds)), draw(st.floats(0.3, 3.0))
    if kind == "power":
        return ProductGamma(PowerSeq(c, draw(st.floats(2.0, 4.0))))
    if kind == "geometric":
        return ProductGamma(GeometricSeq(c, draw(st.floats(0.1, 0.6))))
    if kind == "constant":  # entry multipliers that never decay: NotCompact or the cap
        return ProductGamma(ConstantSeq(draw(st.floats(0.05, 1.0))))
    if kind == "list_tail":  # a boosting head, then constant: the cap races NotCompact
        return ProductGamma(ListTailSeq(draw(st.lists(st.sampled_from([0.05, 0.3, 3.0, 8.0]), min_size=1,
                                                      max_size=4)), draw(st.floats(0.05, 0.6))))
    values = draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3))
    if kind == "finite":
        return ProductGamma(FiniteSeq(values))
    return TableGamma({S(*w): values[i % len(values)] for i, w in enumerate([(1,), (2,), (1, 2), (3,)])})


@st.composite
def graded_pairs(draw):
    """(a, b, dims, eps, cap): spline weights over unit weights or over
    spline weights smoother by a margin with a gamma of the same kind, with
    constant or listed lam, each side perhaps scaled; a small cap now and
    then, to race the cap against NotCompact."""
    s_a = draw(st.floats(0.4, 1.2))
    if draw(st.booleans()):
        lam = draw(st.floats(0.3, 2.0) | st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3))
        a = SplineWeights(_gamma(draw, ["power", "power", "geometric", "constant", "list_tail", "finite", "table"]), s_a, lam)
        b = UnitWeights()
    else:
        # the gamma quotient must decay, and fast enough to keep the scans short
        c_a, c_b = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
        if draw(st.booleans()):
            p_b = draw(st.floats(1.0, 3.0))
            seq_a, seq_b = PowerSeq(c_a, p_b + draw(st.floats(2.0, 3.0))), PowerSeq(c_b, p_b)
        else:
            rho_b = draw(st.floats(0.3, 0.9))
            seq_a, seq_b = GeometricSeq(c_a, rho_b * draw(st.floats(0.1, 0.7))), GeometricSeq(c_b, rho_b)
        a = SplineWeights(ProductGamma(seq_a), s_a + draw(st.floats(0.15, 0.4)), draw(st.floats(0.3, 2.0)))
        b = SplineWeights(ProductGamma(seq_b), s_a, draw(st.floats(0.3, 2.0)))
    a, b = (m if (f := draw(st.sampled_from([None, 0.5, 2.0]))) is None else ScaledWeights(m, f)
            for m in (a, b))
    return (a, b, draw(st.sampled_from([AllOneDims(), SplineDims()])), draw(st.floats(0.01, 0.06) | st.floats(0.06, 0.3)),
            draw(st.sampled_from([WALK_CAP] * 4 + [2, 5, 30])))


@st.composite
def product_pairs(draw):
    """(a, b, dims, eps, cap): product weights over unit weights, or over
    product weights whose gamma decays slower by a margin, each side perhaps
    scaled; gammas above 1 on the first coordinates boost."""
    c_a = draw(st.floats(0.3, 5.0))
    kind = draw(st.sampled_from(["power", "geometric", "finite", "product"]))
    if kind == "power":
        a, b = ProductWeights(PowerSeq(c_a, draw(st.floats(1.5, 4.0)))), UnitWeights()
    elif kind == "geometric":
        a, b = ProductWeights(GeometricSeq(c_a, draw(st.floats(0.1, 0.7)))), UnitWeights()
    elif kind == "finite":  # a zero value suppresses its coordinate
        values = draw(st.lists(st.floats(0.05, 3.0) | st.just(0.0), min_size=1, max_size=4))
        a, b = ProductWeights(FiniteSeq(values)), UnitWeights()
    else:
        c_b, p_b = draw(st.floats(0.3, 3.0)), draw(st.floats(1.0, 3.0))
        a = ProductWeights(PowerSeq(c_a, p_b + draw(st.floats(1.5, 3.0))))
        b = ProductWeights(PowerSeq(c_b, p_b))
    a, b = (m if (f := draw(st.sampled_from([None, 0.5, 2.0]))) is None else ScaledWeights(m, f)
            for m in (a, b))
    return (a, b, draw(st.sampled_from([AllOneDims(), SplineDims()])), draw(st.floats(0.01, 0.06) | st.floats(0.06, 0.3)),
            draw(st.sampled_from([WALK_CAP] * 4 + [2, 5, 30])))


def outcome(run):
    """``run()``, or the type and message of the package error it raises."""
    try:
        return run()
    except TensorsplitError as exc:
        return type(exc), str(exc)


def assert_grouped_equals_vector(a, b, dims, eps, cap):
    """The grouped walk of a level-graded pair gives everything the vector
    walk gives, bit for bit: the same error, or the same dimension, index
    set and table, and the same smallest cap that passes.  Returns the
    grouped walk's outcome."""
    grouped = outcome(lambda: eps_dimension(a, b, eps, dims, cap=cap))
    vector = outcome(lambda: eps_dimension(a, b, eps, VectorDims(dims), cap=cap))
    if isinstance(vector, tuple):
        assert grouped == vector
        return grouped
    assert "ratios" not in vars(grouped.index_set)  # built when first read
    assert grouped.n == vector.n
    assert grouped.index_set.ratios == vector.index_set.ratios
    assert grouped.index_set == vector.index_set
    eps_list, ds = [eps, eps * 1.3, eps * 2.5], [0, 1, 2, 3, 5]
    assert list(grouped.table(eps_list, ds)) == list(vector.table(eps_list, ds))
    # the smallest cap the grouped walk passes is the vector walk's
    lo, hi = 0, cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _members(a, b, eps * eps, None, mid, graded=True)
            hi = mid
        except EnumerationCap:
            lo = mid
    assert eps_dimension(a, b, eps, VectorDims(dims), cap=hi).n == vector.n
    short = outcome(lambda: eps_dimension(a, b, eps, VectorDims(dims), cap=lo))
    assert short[0] is EnumerationCap
    assert outcome(lambda: eps_dimension(a, b, eps, dims, cap=lo)) == short
    return grouped


#: the ``carried_pairs`` whose weights depend only on support and total level
GRADED = {"spline_const_s", "spline_listed_lam", "scaled_both", "spline_spline", "support_product"}
#: the ``carried_pairs`` of product weights, level-graded with every level 1
PRODUCT = {"product_unit", "product_product"}


class TestGroupedWalk:
    """Level-graded pairs walk (support, total level) groups; everything the
    vector walk gives, they must give too, bit for bit."""

    @given(pair=graded_pairs())
    # boosting head, then constant multipliers: the cap races NotCompact, and
    # both walks meet NotCompact on the level where the count passes the cap
    @example(pair=(SplineWeights(ProductGamma(ListTailSeq([8.0, 3.0, 0.05, 3.0], 0.05)), 0.5), UnitWeights(),
                   AllOneDims(), 0.2, 4))
    # 25 of the 341 members have ratio exactly eps**2: walks whose pruning
    # tests compare with eps**2 itself keep 336 of them
    @example(pair=(SplineWeights(ProductGamma(PowerSeq(1, 2)), 0.4), UnitWeights(), AllOneDims(), 2.0 ** -5,
                   WALK_CAP))
    @settings(max_examples=100, deadline=None)
    def test_equals_vector_walk(self, pair):
        assert_grouped_equals_vector(*pair)

    @given(pair=product_pairs())
    # ratios 1/k**2 products: {8}, {2, 4} and {1, 2, 4} sit exactly at eps**2 = 2**-6
    @example(pair=(ProductWeights(PowerSeq(1.0, 2.0)), UnitWeights(), AllOneDims(), 2.0 ** -3, WALK_CAP))
    # {1} lies below the threshold and only the boost of coordinate 2 lifts {1, 2} above it
    @example(pair=(ProductWeights(PowerSeq(5.0, 2.0)), ScaledWeights(UnitWeights(), 0.01), SplineDims(),
                   0.235, WALK_CAP))
    @settings(max_examples=60, deadline=None)
    def test_product_pairs_equal_vector_walk(self, pair):
        """Product weights are level-graded with every level 1: each group
        is one index, with count 1 and dimension 1."""
        grouped = assert_grouped_equals_vector(*pair)
        if not isinstance(grouped, tuple):
            assert {m[1:3] for m in grouped.members} <= {(1, 1)}

    @given(
        values=st.lists(st.floats(0.05, 1.5) | st.sampled_from([1.0, 0.5, 0.25]), min_size=1, max_size=4),
        s=st.floats(0.3, 1.5) | st.just(0.4),
        lam=st.floats(0.5, 2.0) | st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3),
        scale_a=st.sampled_from([None, 0.6, 1.7]),
        scale_b=st.sampled_from([None, 0.8, 1.25]),
        n=st.integers(2, 14),
    )
    # dyadic: ratios 2**-(0.8 T) times a product of 1, 1/2 and 1/4, some exactly eps**2
    @example(values=[1.0, 0.5, 0.25], s=0.4, lam=1.0, scale_a=None, scale_b=None, n=8)
    @settings(max_examples=60, deadline=None)
    def test_walk_equals_support_route(self, values, s, lam, scale_a, scale_b, n):
        """Over a finite product gamma the walk, driven by the multiplier
        sequence, gives exactly the support route's groups, each (support,
        total level) with its binomial count and its ratio, at eps**2 = 2**-n."""
        base = SplineWeights(ProductGamma(FiniteSeq(values)), s=s, lam=lam)
        a = base if scale_a is None else ScaledWeights(base, scale_a)
        b = UnitWeights() if scale_b is None else ScaledWeights(UnitWeights(), scale_b)
        eps2 = 2.0 ** -n
        certificate = ProductDecay(base.multiplier_seq(), base.level_decay(1))
        walked = _members(a, b, eps2, certificate, math.inf, graded=True)
        assert sorted(walked) == sorted(_members(a, b, eps2, None, math.inf, graded=True))

    @pytest.mark.parametrize("name,a,b,eps", carried_pairs(), ids=lambda v: v if isinstance(v, str) else "")
    def test_route(self, monkeypatch, name, a, b, eps):
        """Only level-graded pairs walk groups; listed or affine s and
        anisotropic weights walk vectors.  Product weights cap every level
        at 1, so each of their groups is one index."""
        walks = []
        run = tensorsplit.epsdim._members
        monkeypatch.setattr(tensorsplit.epsdim, "_members",
                            lambda *args, graded: walks.append(graded) or run(*args, graded=graded))
        res = eps_dimension(a, b, eps, SplineDims())
        counts = {count for _, _, count, _ in res.members}
        if name in GRADED:
            assert walks == [True] and max(counts) > 1
        elif name in PRODUCT:
            assert walks == [True] and counts == {1}
        else:
            assert walks == [False] and counts == {1}
        assert eps_dimension(a, b, eps, VectorDims(SplineDims())).n == res.n

    def test_finite_universe_on_graded_pair(self):
        """A listed candidate set takes the vector route, level-graded pair
        or not: ratios 1, 1/4, 1/16, 1/64 and 1/256 against eps**2 = 0.01."""
        a = SplineWeights(ProductGamma(PowerSeq(1, 2)), 1)
        candidates = (ZERO_INDEX, *(IndexVector({1: l}) for l in range(1, 5)))
        res = eps_dimension(a, UnitWeights(), 0.1, SplineDims(), certificate=FiniteUniverse(candidates))
        assert res.n == 8 and [m[2] for m in res.members] == [1, 1, 1, 1]
        assert res.index_set == IndexSet(candidates[:4])

    @pytest.mark.parametrize("dims", [AllOneDims(), SplineDims(), VectorDims(SplineDims())],
                             ids=["all_one", "spline", "vector"])
    @pytest.mark.parametrize("head,tail,eps,cap,error", [
        # multipliers 4, 1.5, 0.025, 1.5, then 0.025 for ever: the root and
        # total level 1 (coordinates 1, 2 and 4) are 4 candidates, so a cap
        # below 4 trips before level 1's scans; from 4 on, the scan of
        # coordinate 1 meets NotCompact first
        *(([8.0, 3.0, 0.05, 3.0], 0.05, 0.2, cap, EnumerationCap) for cap in (2, 3)),
        *(([8.0, 3.0, 0.05, 3.0], 0.05, 0.2, cap, NotCompact) for cap in (4, 5, 8)),
        # multipliers 0.15, 1.5, 10, then 0.01 at eps**2 = 0.09: the children
        # of coordinates 1 and 2 pass the cap; coordinate 3 comes after them
        # and builds no children, but its scan still runs and meets NotCompact
        ([0.3, 3.0, 20.0], 0.02, 0.3, 7, NotCompact),
    ])
    def test_cap_races_not_compact(self, dims, head, tail, eps, cap, error):
        """An entry scan's error on the level that passes the cap wins over
        the cap, in both walks and in any node order."""
        a = SplineWeights(ProductGamma(ListTailSeq(head, tail)), 0.5)
        with pytest.raises(error, match="^entry multipliers do not decay|^visited more than"):
            eps_dimension(a, UnitWeights(), eps, dims, cap=cap)

    @pytest.mark.parametrize("a,dims", [(ProductWeights(PowerSeq(1.0, 1.5)), VectorDims(AllOneDims())),
                                        (SplineWeights(ProductGamma(PowerSeq(1.0, 1.5)), 0.2), AllOneDims())],
                             ids=["vector", "grouped"])
    def test_cap_bounds_the_nodes_built(self, monkeypatch, a, dims):
        """The root's entry scan enters thousands of coordinates, so the
        cap of 50 trips while total level 1 is built: the walk computes the
        ratio of the root and of each coordinate its scan enters, and of no
        node of level 2, before EnumerationCap.  Each ratio reads a's
        carried weight once."""
        ratios = []
        carried = a.carried
        monkeypatch.setattr(a, "carried", lambda *args: ratios.append(args) or carried(*args))
        with pytest.raises(EnumerationCap, match="^visited more than 50 candidate indices$"):
            eps_dimension(a, UnitWeights(), 1e-3, dims, cap=50)
        children = scanned_coords(_BoostTable(auto_certificate(a, UnitWeights()).mult), 1.0, 1e-6, 1)
        assert len(children) > 1000 and len(ratios) == 1 + len(children)


def level_vectors(coords, total):
    """Every index on the support ``coords`` with levels >= 1 summing to ``total``."""
    if not coords:
        yield ZERO_INDEX
        return
    for cuts in itertools.combinations(range(1, total), len(coords) - 1):
        yield IndexVector(zip(coords, (hi - lo for lo, hi in zip((0, *cuts), (*cuts, total)))))


#: finite-support gammas, whose spline weights over unit take the support scan
SUPPORT_GAMMAS = {
    "product": ProductGamma(FiniteSeq([0.9, 0.5, 0.2])),
    "table": TableGamma({S(): 1.0, S(1): 1.0, S(2): 0.5, S(1, 2): 0.25, S(3): 0.125, S(1, 2, 3): 0.5}),
}


class TestSupportScan:
    """The support scan in both modes: the graded scan's groups, each
    expanded into its level vectors, are the vector scan's members with
    their ratios, and both modes count the same members against the cap."""

    @pytest.mark.parametrize("gamma", SUPPORT_GAMMAS.values(), ids=SUPPORT_GAMMAS.keys())
    @pytest.mark.parametrize("s,lam,eps2", [(0.5, 1.0, 2.0 ** -9), (0.4, 2.0, 2.0 ** -8), (1.0, 0.5, 1e-3)])
    def test_groups_expand_to_the_vector_scan(self, gamma, s, lam, eps2):
        a, b = SplineWeights(gamma, s=s, lam=lam), UnitWeights()
        assert isinstance(auto_certificate(a, b), tensorsplit.epsdim.SupportDecay)
        grouped = _members(a, b, eps2, None, math.inf, graded=True)
        vector = {IndexVector._from_entries(key): c for key, _, _, c in _members(a, b, eps2, None, math.inf,
                                                                                  graded=False)}
        expanded = {}
        for coords, total, count, c in grouped:
            js = list(level_vectors(coords, total))
            assert len(js) == count
            expanded.update(dict.fromkeys(js, c))
        assert len(expanded) == sum(group[2] for group in grouped) == len(vector)
        assert expanded == vector
        assert max(group[1] - len(group[0]) for group in grouped) > 1  # some groups deepen

    @pytest.mark.parametrize("gamma", SUPPORT_GAMMAS.values(), ids=SUPPORT_GAMMAS.keys())
    def test_same_caps(self, gamma):
        """Both modes raise EnumerationCap exactly at the caps below the member count."""
        a, b, eps2 = SplineWeights(gamma, s=0.5), UnitWeights(), 2.0 ** -7
        size = len(_members(a, b, eps2, None, math.inf, graded=False))
        for cap in range(size + 2):
            for graded in (True, False):
                run = lambda: sum(m[2] for m in _members(a, b, eps2, None, cap, graded=graded))
                assert outcome(run) == (size if cap >= size else
                                        (EnumerationCap, f"threshold set exceeds cap {cap}"))


class TestChildrenBuilt:
    """The walk computes a child's ratio only where a bound says the child
    can pass its push test: an entered child below its scan's end, a
    deepened one where the parent's ratio times the certificate's
    ``level`` passes."""

    def test_pinned_walk_reads_one_weight_per_member_group(self, monkeypatch):
        """SplineWeights(ProductGamma(PowerSeq(1, 2)), s=1) over unit at eps
        0.002 has 1132 member groups, the root among them.  The walk reads
        a's carried weight 1132 times, once per group; building each scan's
        stopping coordinate and each support's last deepening took 2389."""
        a = SplineWeights(ProductGamma(PowerSeq(1, 2)), s=1)
        calls = []
        carried = a.carried
        monkeypatch.setattr(a, "carried", lambda *args: calls.append(args) or carried(*args))
        groups = _members(a, UnitWeights(), 0.002 ** 2, None, math.inf, graded=True)
        assert len(calls) == len(groups) == 1132
        assert all(c >= 0.002 ** 2 for _, _, _, c in groups)

    power = ProductGamma(PowerSeq(1.0, 2.0))

    @pytest.mark.parametrize("a,b,level", [
        (SplineWeights(power, s=1.0), UnitWeights(), 0.25),
        (ScaledWeights(SplineWeights(power, s=0.75, lam=[2.0, 0.5]), 2.0), ScaledWeights(UnitWeights(), 0.5),
         2.0 ** -1.5),
        (SplineWeights(ProductGamma(PowerSeq(1.0, 3.0)), s=2.0), SplineWeights(power, s=1.25), 2.0 ** -1.5),
        (SplineWeights(power, s=[1.5, 0.75]), UnitWeights(), 1.0),
        (AnisotropicWeights(power, s=1.0), UnitWeights(), 1.0),
        (ProductWeights(PowerSeq(0.85, 2.0)), UnitWeights(), 1.0),
        (ProductWeights(PowerSeq(0.9, 3.0)), ProductWeights(PowerSeq(0.9, 1.5)), 1.0),
    ], ids=["spline_unit", "scaled", "spline_spline", "listed_s", "anisotropic", "product_unit",
            "product_product"])
    def test_level_bounds_a_rising_level(self, a, b, level):
        """``auto_certificate``'s ``level`` is 2**(-2 s) over a unit target
        and 2**(-2 (s_a - s_b)) between splines, and 1.0 where the factor a
        rising level gives is not one constant; raising a level of any box
        index multiplies its ratio by at most ``level``, up to rounding."""
        certificate = auto_certificate(a, b)
        assert certificate.level == level
        for j in sparse_box(4, 3, 3):
            for k, level_k in j.entries:
                raised = IndexVector({**dict(j.entries), k: level_k + 1})
                assert ratio(a, b, raised) <= level * ratio(a, b, j) * (1 + 2.0 ** -40), (j, k)
