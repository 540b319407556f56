"""Certified tail sums of the coordinate-sequence kinds."""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsplit.epsdim import _BoostTable
from tensorsplit.errors import NotCompact, TailUnavailable
from tensorsplit.sequences import (
    ConstantSeq,
    FiniteSeq,
    GeometricSeq,
    ListTailSeq,
    PowerSeq,
    ProductOfSeqs,
    _hurwitz_zeta,
    seq_ratio,
)


class TestPowerSeq:
    def test_values(self):
        s = PowerSeq(2.0, 3.0)
        assert s.value(2) == 0.25

    def test_sum_via_zeta(self):
        assert PowerSeq(1.0, 2.0).sum() == pytest.approx(math.pi**2 / 6, rel=1e-14)

    def test_tail_matches_direct_summation(self):
        s = PowerSeq(1.0, 4.0)
        direct = sum(k**-4.0 for k in range(11, 200000))
        assert s.tail_sum(10) == pytest.approx(direct, rel=1e-9)

    def test_divergent(self):
        assert PowerSeq(1.0, 1.0).sum() == math.inf
        assert PowerSeq(1.0, 0.5).sum() == math.inf

    def test_last_k(self):
        """The last boosting coordinate: 100.5 k^-2 >= 1 + 2**-52 iff k <= 10."""
        assert _BoostTable(PowerSeq(100.5, 2.0)).k_last == 10
        assert _BoostTable(PowerSeq(100.0, 2.0)).k_last == 9  # value(10) is 1.0
        assert _BoostTable(PowerSeq(0.5, 2.0)).k_last == 0

    def test_log1p_sum_matches_product(self):
        s = PowerSeq(1.0, 2.0)
        # prod (1 + k^-2) = sinh(pi)/pi
        assert math.exp(s.log1p_sum()) == pytest.approx(math.sinh(math.pi) / math.pi, rel=1e-13)


def _zeta_grid():
    """(p, q) pairs through every branch of ``_hurwitz_zeta``, plus seeded draws.

    p = 60 leaves in the direct sum; p = 1.001 and p = 2 at q = 1 need the
    Bernoulli corrections; q > 1e8 takes the asymptotic branch; p = 400 at
    q = 10 underflows q**-p to 0.0.
    """
    ps = [1.001, 1.01, 1.5, 2.0, 3.7, 10.0, 60.0, 400.0]
    qs = [1.0, 2.0, 7.0, 10.0, 11.0, 1e3, 123456.0, 1e8, 1e8 + 1.0, 1e12]
    pairs = [(p, q) for p in ps for q in qs]
    rng = random.Random(20160719)
    for _ in range(2000):
        p = 1.0 + 10.0 ** rng.uniform(-4.0, 2.5)
        q = float(rng.choice([rng.randint(1, 20), rng.randint(1, 10**6),
                              int(10.0 ** rng.uniform(6.0, 12.0))]))
        pairs.append((p, q))
    return pairs


class TestHurwitzZeta:
    """The pure-Python port against scipy's Cephes ``zeta`` and mpmath."""

    def test_bit_identical_to_scipy(self):
        from scipy.special import zeta

        pairs = _zeta_grid()
        assert [_hurwitz_zeta(p, q) for p, q in pairs] == [float(zeta(p, q)) for p, q in pairs]

    def test_underflow_reads_zero(self):
        """q**-p underflows: C's 0/0 stopping tests give 0.0, Python's would raise."""
        assert _hurwitz_zeta(400.0, 10.0) == 0.0
        assert PowerSeq(1.0, 400.0).tail_sum(9) == 0.0

    def test_matches_mpmath(self):
        """Relative error at most 1e-14 wherever the value is a normal float.

        mpmath stops its own Euler--Maclaurin sum on an absolute tolerance,
        so at a fixed 40 digits it is wrong for tiny values (zeta(60, 1000)
        ~ 1.7e-179 in the 10th digit).  The value is at least q**-p, so
        p * log10(q) more digits give it 40 significant ones.
        """
        mpmath = pytest.importorskip("mpmath")
        for p, q in _zeta_grid()[::5]:
            if q**-p < sys.float_info.min:
                continue
            with mpmath.workdps(40 + math.ceil(p * math.log10(q))):
                exact = mpmath.zeta(p, q)
            assert abs(_hurwitz_zeta(p, q) - exact) <= 1e-14 * exact, (p, q)


class TestGeometricSeq:
    def test_tail_closed_form(self):
        s = GeometricSeq(3.0, 0.5)
        assert s.sum() == pytest.approx(3.0, rel=1e-15)
        assert s.tail_sum(2) == pytest.approx(3.0 * 0.125 / 0.5, rel=1e-15)

    def test_last_k(self):
        """The last boosting coordinate, at least 1 + 2**-52."""
        assert _BoostTable(GeometricSeq(4.0, 0.5)).k_last == 1  # value(2) is 1.0
        assert _BoostTable(GeometricSeq(5.0, 0.5)).k_last == 2
        assert _BoostTable(GeometricSeq(1.0, 0.5)).k_last == 0


class TestFiniteAndConstant:
    def test_finite(self):
        s = FiniteSeq([0.5, 0.25, 0.0])
        assert s.sum() == 0.75
        assert s.tail_sum(1) == 0.25
        assert s.max_support == 2

    def test_constant_diverges(self):
        s = ConstantSeq(1.0)
        assert s.sum() == math.inf
        assert not s.decays_to_zero

    def test_list_tail(self):
        s = ListTailSeq([4.0, 2.0], 0.0)
        assert s.value(1) == 4.0 and s.value(3) == 0.0
        assert s.sum() == 6.0


#: the smallest multiplier that boosts a ratio: 1 + 2**-52
BOOSTING = math.nextafter(1.0, math.inf)
_HEAD_VALUE = st.sampled_from([0.0, 0.5, 1.0, BOOSTING]) | st.floats(0.0, 10.0)


class TestHeadThenConstant:
    """ListTailSeq, FiniteSeq (tail 0) and ConstantSeq (empty head) against
    the definition: the listed values, then the tail value forever."""

    @settings(max_examples=200, deadline=None)
    @given(head=st.lists(_HEAD_VALUE, max_size=6),
           tail=st.just(0.0) | st.sampled_from([1.0, BOOSTING]) | st.floats(1e-3, 10.0))
    def test_matches_definition(self, head, tail):
        seqs = [ListTailSeq(head, tail)]
        if tail == 0.0:
            seqs.append(FiniteSeq(head))
        if not head:
            seqs.append(ConstantSeq(tail))
        nonzero = [k for k, v in enumerate(head, 1) if v > 0]
        boosting_ks = [k for k, v in enumerate(head, 1) if v >= BOOSTING]
        for s in seqs:
            for k in range(1, len(head) + 3):
                assert s.value(k) == (head[k - 1] if k <= len(head) else tail)
            for k0 in range(len(head) + 2):
                assert s.tail_sum(k0) == (math.fsum(head[k0:]) if tail == 0.0 else math.inf)
                assert s.tail_sup(k0) == max(head[k0:] + [tail])
            assert s.max_support == (max(nonzero, default=0) if tail == 0.0 else None)
            assert s.decays_to_zero == (tail == 0.0)
            # the last boosting coordinate; a tail that boosts does for ever
            if tail >= BOOSTING:
                with pytest.raises(NotCompact):
                    _BoostTable(s)
            else:
                assert _BoostTable(s).k_last == max(boosting_ks, default=0)

    @pytest.mark.parametrize("seq", [FiniteSeq([0.5, 0.0, 2.0]), ConstantSeq(3.0)],
                             ids=["finite", "constant"])
    def test_derived_sequences_keep_their_kind(self, seq):
        assert type(seq.scaled(2.0)) is type(seq)
        assert type(seq.powered(2)) is type(seq)
        assert seq.scaled(2.0).value(3) == 2.0 * seq.value(3)
        assert seq.powered(2).value(3) == seq.value(3) ** 2

    def test_ratio_of_finite_by_constant_stays_finite(self):
        r = seq_ratio(FiniteSeq([1.0, 0.5]), ConstantSeq(2.0))
        assert type(r) is FiniteSeq
        assert r.values == (0.5, 0.25)


class TestProductOfSeqs:
    def test_value_and_tail_bound(self):
        p = ProductOfSeqs([PowerSeq(1.0, 2.0), GeometricSeq(1.0, 0.5)])
        assert p.value(2) == 0.25 * 0.25
        direct = sum(k**-2.0 * 0.5**k for k in range(4, 200))
        assert p.tail_sum(3) >= direct
        assert p.tail_sum(3) <= 10 * direct

    def test_decay_flags(self):
        assert ProductOfSeqs([ConstantSeq(2.0), GeometricSeq(1.0, 0.5)]).decays_to_zero
        assert not ProductOfSeqs([ConstantSeq(2.0), ConstantSeq(1.0)]).decays_to_zero


class TestSeqRatio:
    def test_power_ratio(self):
        r = seq_ratio(PowerSeq(1.0, 4.0), PowerSeq(2.0, 1.0))
        assert r.value(3) == pytest.approx(0.5 * 3.0**-3.0, rel=1e-15)

    def test_growing_ratio_rejected(self):
        with pytest.raises(TailUnavailable):
            seq_ratio(GeometricSeq(1.0, 0.8), GeometricSeq(1.0, 0.4))

    def test_constant_denominator(self):
        r = seq_ratio(FiniteSeq([1.0, 0.5]), ConstantSeq(2.0))
        assert r.value(2) == 0.25
