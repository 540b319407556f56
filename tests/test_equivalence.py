"""Norm-equivalence certificates and their empirical validity."""

import math

import numpy as np
import pytest

from corpus import corpus
from tensorsplit.decomp import weighted_norm
from tensorsplit.equivalence import (
    certify_equivalence,
    default_alpha,
    product_weight_equivalence,
)
from tensorsplit.errors import QTildeOutOfRange
from tensorsplit.gammas import ProductGamma, TableGamma
from tensorsplit.indexing import SupportSet
from tensorsplit.sequences import FiniteSeq, PowerSeq

S = SupportSet.of
RNG = np.random.default_rng(99)


class TestDefaultAlpha:
    def test_empty_set_value(self):
        alpha = default_alpha(TableGamma({}), 1.0)
        assert alpha.value(S()) == pytest.approx(1.0)

    def test_formula(self):
        gamma = TableGamma({S(1, 2): 4.0})
        alpha = default_alpha(gamma, 1.5)
        assert alpha.value(S(1, 2)) == pytest.approx(1.5**2 * 2.0)

    def test_scale_range(self):
        with pytest.raises(QTildeOutOfRange):
            default_alpha(TableGamma({}), 2.0)
        with pytest.raises(QTildeOutOfRange):
            default_alpha(TableGamma({}), 0.5)

    def test_product_gamma_stays_product(self):
        alpha = default_alpha(ProductGamma(PowerSeq(1.0, 4.0)), 1.0)
        assert isinstance(alpha, ProductGamma)
        assert alpha.value(S(3)) == pytest.approx(3.0**-2.0)


class TestCertify:
    def test_empty_support_only(self):
        cert = certify_equivalence(TableGamma({}), q=1.0 / 3.0)
        assert cert is not None
        assert cert.c_prime == pytest.approx(1.0)
        assert cert.c_dprime == pytest.approx(1.0)
        assert cert.c == pytest.approx(1.0)

    def test_quartic_decay_is_certified(self):
        cert = certify_equivalence(ProductGamma(PowerSeq(1.0, 4.0)), anchor=0.5)
        assert cert is not None
        # closed forms: C' = prod(1 + q k^-2) with q = 1/12, C'' = prod(1 + k^-2)
        assert cert.c_dprime == pytest.approx(math.sinh(math.pi) / math.pi, rel=1e-12)
        assert cert.c == pytest.approx(math.sqrt(cert.c_prime * cert.c_dprime))
        assert cert.q == pytest.approx(1.0 / 12.0)

    def test_quadratic_decay_is_not(self):
        assert certify_equivalence(ProductGamma(PowerSeq(1.0, 2.0)), anchor=0.5) is None

    def test_finite_support_always_certified(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            entries = {}
            for omega in [S(1), S(2), S(3), S(1, 2), S(1, 3), S(2, 3), S(1, 2, 3)]:
                if rng.uniform() < 0.7:
                    entries[omega] = float(rng.uniform(0.1, 2.0))
            gamma = TableGamma(entries)
            cert = certify_equivalence(gamma, anchor=0.5)
            assert cert is not None and math.isfinite(cert.c)

    def test_finite_product_matches_table(self):
        values = [0.7, 0.2]
        gamma_seq = FiniteSeq(values)
        as_product = ProductGamma(gamma_seq)
        entries = {
            S(1): values[0],
            S(2): values[1],
            S(1, 2): values[0] * values[1],
        }
        as_table = TableGamma(entries)
        cp = certify_equivalence(as_product, anchor=0.0)
        ct = certify_equivalence(as_table, anchor=0.0)
        assert cp.c_prime == pytest.approx(ct.c_prime, rel=1e-12)
        assert cp.c_dprime == pytest.approx(ct.c_dprime, rel=1e-12)


class TestHalvingCondition:
    def test_implies_general_conditions(self):
        # wherever the stricter halving condition (kernel energy 1/2, alpha =
        # sqrt(gamma)) certifies, the general conditions with the default
        # alpha for any scale in [1, 3/2] and kernel energy 1/3 certify as well
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            entries = {}
            for omega in [S(1), S(2), S(1, 2), S(3), S(1, 3)]:
                if rng.uniform() < 0.8:
                    entries[omega] = float(rng.uniform(0.05, 3.0))
            gamma = TableGamma(entries)
            if certify_equivalence(gamma, q=0.5) is None:
                continue
            for q_tilde in (1.0, 1.25, 1.5):
                cert = certify_equivalence(gamma, q=1.0 / 3.0, q_tilde=q_tilde)
                assert cert is not None and math.isfinite(cert.c)


class TestProductWeightCriterion:
    def test_quartic(self):
        assert product_weight_equivalence(PowerSeq(1.0, 4.0))

    def test_quadratic(self):
        assert not product_weight_equivalence(PowerSeq(1.0, 2.0))

    def test_finitely_many(self):
        assert product_weight_equivalence(FiniteSeq([5.0, 2.0, 1.0]))


class TestEmpiricalNormEquivalence:
    def test_corpus_ratios_within_certificate(self):
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        anchor = 0.5
        cert = certify_equivalence(gamma, anchor=anchor)
        assert cert is not None
        for name, f in corpus():
            na = weighted_norm(f, gamma, "anova", anchor)
            nan = weighted_norm(f, gamma, "anchored", anchor)
            ratio = na / nan
            assert 1.0 / cert.c <= ratio <= cert.c, f"{name}: ratio {ratio}"

    def test_certificate_also_valid_for_random_table_weights(self):
        anchor = 0.5
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            entries = {
                S(1): float(rng.uniform(0.2, 2.0)),
                S(2): float(rng.uniform(0.2, 2.0)),
                S(1, 2): float(rng.uniform(0.05, 1.0)),
            }
            gamma = TableGamma(entries)
            cert = certify_equivalence(gamma, anchor=anchor)
            for name, f in corpus():
                if f.dim > 2:
                    continue
                na = weighted_norm(f, gamma, "anova", anchor)
                nan = weighted_norm(f, gamma, "anchored", anchor)
                ratio = na / nan
                assert 1.0 / cert.c <= ratio <= cert.c
