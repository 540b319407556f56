"""Multi-index, support-set, and downward-closure behavior."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplit.indexing import (
    EMPTY_SUPPORT,
    ZERO_INDEX,
    IndexSet,
    IndexVector,
    SupportSet,
    componentwise_leq,
)

small_indices = st.dictionaries(
    st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3),
    max_size=4,
).map(IndexVector)


class TestIndexVector:
    def test_zero_index_has_empty_support(self):
        assert ZERO_INDEX.support == EMPTY_SUPPORT
        assert ZERO_INDEX.num_active == 0
        assert ZERO_INDEX.total_level == 0

    def test_support_examples(self):
        assert list(IndexVector({1: 2, 3: 1}).support) == [1, 3]
        assert list(IndexVector({5: 7}).support) == [5]

    def test_zero_levels_not_stored(self):
        j = IndexVector({1: 0, 2: 3})
        assert j.entries == ((2, 3),)
        assert j.level(1) == 0 and j.level(2) == 3

    def test_counts(self):
        j = IndexVector({1: 2, 3: 1, 7: 4})
        assert j.num_active == 3
        assert j.total_level == 7

    def test_equality_is_by_map(self):
        assert IndexVector({1: 2}) == IndexVector({1: 2, 2: 0})
        assert IndexVector({1: 2}) != IndexVector({1: 1})
        assert hash(IndexVector({1: 2})) == hash(IndexVector({1: 2}))

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexVector({0: 1})
        with pytest.raises(ValueError):
            IndexVector({1: -1})

    def test_json_round_trip(self):
        j = IndexVector({1: 2, 9: 5})
        assert IndexVector.from_json_obj(j.to_json_obj()) == j
        assert j.to_json_obj() == {"1": 2, "9": 5}

    def test_support_json(self):
        s = SupportSet.of(3, 1)
        assert s.to_json_obj() == [1, 3]
        assert SupportSet.from_json_obj([1, 3]) == s


class TestIntegralEntries:
    """The constructors refuse a bool or a non-integral coordinate or level
    with the ValueError they raise for a coordinate below 1, instead of
    truncating it; numpy integers and integral floats are read as ints."""

    @pytest.mark.parametrize("coords", [[1.5], [True, 2], [2, False], [2.9], [float("nan")],
                                        [float("inf")], ["3"]])
    def test_support_refuses(self, coords):
        with pytest.raises(ValueError, match="coordinates must be positive integers"):
            SupportSet(coords)

    @pytest.mark.parametrize("levels", [{1: 1.7}, {1: True}, {2: 0.5}, {1: float("nan")}])
    def test_index_refuses_level(self, levels):
        with pytest.raises(ValueError, match="levels must be nonnegative integers"):
            IndexVector(levels)

    @pytest.mark.parametrize("levels", [{2.9: 1}, {True: 1}, [(1.5, 2)]])
    def test_index_refuses_coordinate(self, levels):
        with pytest.raises(ValueError, match="coordinates must be positive integers"):
            IndexVector(levels)

    def test_add_refuses(self):
        with pytest.raises(ValueError, match="coordinates must be positive integers"):
            SupportSet.of(1).add(2.5)

    def test_integers_accepted(self):
        assert SupportSet([np.int64(3), 1, 2.0]).coords == (1, 2, 3)
        assert all(type(k) is int for k in SupportSet([np.int64(3), 2.0]).coords)
        j = IndexVector({np.int64(2): np.int32(3), 1.0: 2.0})
        assert j.entries == ((1, 2), (2, 3))
        assert all(type(v) is int for pair in j.entries for v in pair)
        assert IndexVector({1: np.int8(0)}) == ZERO_INDEX

    def test_add(self):
        s = SupportSet.of(1, 4)
        assert s.add(2).coords == (1, 2, 4)
        assert s.add(4) == s
        assert s.add(np.int64(7)).coords == (1, 4, 7)
        assert type(s.add(np.int64(7)).coords[-1]) is int


class TestSupportSubsets:
    @given(st.sets(st.integers(min_value=1, max_value=40), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_subsets_are_canonical_support_sets(self, coords):
        """The trusted subsets read as checked ones, in canonical order."""
        omega = SupportSet(coords)
        subsets = list(omega.subsets())
        expected = [SupportSet(combo) for size in range(len(coords) + 1)
                    for combo in itertools.combinations(sorted(coords), size)]
        assert subsets == expected
        assert [hash(u) for u in subsets] == [hash(u) for u in expected]
        assert subsets == sorted(subsets, key=SupportSet.canonical_key)
        assert len(set(subsets)) == 2 ** len(coords)


class TestPartialOrder:
    def test_zero_is_minimum(self):
        assert componentwise_leq(ZERO_INDEX, IndexVector({1: 3}))

    def test_level_comparison(self):
        assert not componentwise_leq(IndexVector({1: 2}), IndexVector({1: 1}))
        assert componentwise_leq(IndexVector({1: 1}), IndexVector({1: 2}))

    def test_support_containment_required(self):
        assert not componentwise_leq(IndexVector({1: 1, 2: 1}), IndexVector({1: 2}))

    @given(small_indices)
    @settings(max_examples=100, deadline=None)
    def test_reflexive(self, i):
        assert i <= i

    @given(small_indices, small_indices)
    @settings(max_examples=200, deadline=None)
    def test_antisymmetric(self, i, j):
        if i <= j and j <= i:
            assert i == j

    @given(small_indices, small_indices, small_indices)
    @settings(max_examples=200, deadline=None)
    def test_transitive(self, i, j, k):
        if i <= j and j <= k:
            assert i <= k

    @given(small_indices)
    @settings(max_examples=100, deadline=None)
    def test_level_sum_dominates_support_size(self, j):
        assert j.total_level >= j.num_active
        if j.total_level == j.num_active:
            assert all(l == 1 for _, l in j.entries)


class TestDownwardClosure:
    def test_chain_below_single_index(self):
        s = IndexSet([IndexVector({1: 2})])
        closed = s.downward_closure()
        assert closed == IndexSet([ZERO_INDEX, IndexVector({1: 1}), IndexVector({1: 2})])

    def test_empty_set(self):
        assert IndexSet().downward_closure() == IndexSet()

    def test_two_coordinate_box(self):
        j = IndexVector({1: 1, 2: 1})
        closed = IndexSet([j]).downward_closure()
        # oracle: brute-force enumeration of all i <= j
        expected = set()
        for l1, l2 in itertools.product(range(2), range(2)):
            expected.add(IndexVector({1: l1, 2: l2}))
        assert closed.members == expected

    @given(st.sets(small_indices, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, members):
        s = IndexSet(members)
        once = s.downward_closure()
        assert once.downward_closure() == once

    @given(st.sets(small_indices, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_closure_is_superset_and_complete(self, members):
        s = IndexSet(members)
        closed = s.downward_closure()
        assert s.members <= closed.members
        for j in closed:
            for k, jk in j.entries:
                assert j.with_level(k, jk - 1) in closed


class TestMonotonicity:
    def test_zero_alone_is_monotone(self):
        assert IndexSet([ZERO_INDEX]).is_monotone

    def test_missing_zero_breaks_monotonicity(self):
        assert not IndexSet([IndexVector({1: 1})]).is_monotone

    def test_closure_output_is_monotone(self):
        s = IndexSet([IndexVector({1: 2, 2: 1}), IndexVector({3: 1})])
        assert s.downward_closure().is_monotone

    def test_canonical_iteration_order(self):
        s = IndexSet([IndexVector({2: 1}), IndexVector({1: 1}), ZERO_INDEX,
                      IndexVector({1: 2})])
        keys = [j.canonical_key() for j in s]
        assert keys == sorted(keys)
