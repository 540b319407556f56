"""Threshold-set enumeration against a brute-force box oracle."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorsplit.epsdim
from tensorsplit.epsdim import (
    COORD_GUARD,
    AllOneDims,
    ProductDecay,
    SplineDims,
    _BoostTable,
    enumerate_threshold_set,
    eps_dimension,
    spline_eps_dimension,
)
from tensorsplit.errors import ConfigInvalid, EnumerationCap, NotCompact
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
    """The entry scan evaluated on the sequence at every coordinate.

    Returns the coordinates it yields and the message of the NotCompact it
    ends with (None when it stops), plus the last coordinate it scanned.
    """
    k_last = brute_k_last(mult)
    yielded = []
    while True:
        if mult.value(k) > 0.0:
            yielded.append(k)
        if c * mult.tail_sup(k) * brute_after(mult, k_last, k) < eps2:
            return yielded, None, k
        if k >= mult.nonincreasing_from and k > k_last and not mult.decays_to_zero:
            return yielded, "entry multipliers do not decay; the threshold set is unbounded", k
        k += 1


class _RecordingTable(tensorsplit.epsdim._BoostTable):
    """Keeps every table a walk builds and the coordinates its scans yield."""

    made = []

    def __init__(self, mult):
        super().__init__(mult)
        self.yielded = [0]
        _RecordingTable.made.append(self)

    def entry_coords(self, c, eps2, k):
        for k in super().entry_coords(c, eps2, k):
            self.yielded.append(k)
            yield k


class TestEntryScanTable:
    """The entry scan reads a per-coordinate table grown as scans reach new
    coordinates; it must scan, yield, stop and raise exactly as evaluating
    the multiplier sequence at every step does."""

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
        # every multiplier here is positive, so every scanned coordinate is yielded
        assert 1 < len(table.sup) <= max(table.yielded) + 1
        assert len(table.positive) == len(table.sup) == len(table.after)

    @pytest.mark.parametrize("eps", [0.1, 0.05])
    def test_spline_counting_equals_box_brute_force(self, monkeypatch, eps):
        monkeypatch.setattr(_RecordingTable, "made", [])
        monkeypatch.setattr(tensorsplit.epsdim, "_BoostTable", _RecordingTable)
        counted = spline_eps_dimension(self.power, 1.0, 1.0, eps)
        members = box_threshold_ratios(SplineWeights(self.power, s=1.0), UnitWeights(), eps, (11, 3, 5))
        assert counted.n == sum(SplineDims().subspace_dim(j) for j in members)
        (table,) = _RecordingTable.made
        assert 1 < len(table.sup) <= max(table.yielded) + 1

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
            yielded, error, last = reference_entry_scan(mult, c, eps2, k)
            got = []
            if error is None:
                got.extend(table.entry_coords(c, eps2, k))
            else:
                with pytest.raises(NotCompact, match=error):
                    for k_got in table.entry_coords(c, eps2, k):
                        got.append(k_got)
            assert got == yielded, (c, k)
            scanned = max(scanned, last)
            assert len(table.positive) == len(table.sup) == len(table.after) == scanned + 1


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
