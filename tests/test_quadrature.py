"""Gauss-Legendre rules: exactness, normalization, piecewise integration."""

import hashlib
import math

import pytest

from tensorsplit.decomp import (
    anova_kernel,
    averaged_anchored_kernel,
    averaged_kernel_energy,
)
from tensorsplit.errors import OrderOutOfRange
from tensorsplit.quadrature import gauss_legendre, integrate_1d, integrate_piecewise


class TestRuleConstruction:
    def test_one_point_is_midpoint(self):
        r = gauss_legendre(1)
        assert r.nodes == (0.5,)
        assert r.weights == (1.0,)

    def test_two_point_rule(self):
        r = gauss_legendre(2)
        lo = 0.5 - 1.0 / (2.0 * math.sqrt(3.0))
        hi = 0.5 + 1.0 / (2.0 * math.sqrt(3.0))
        assert r.nodes[0] == pytest.approx(lo, abs=1e-15)
        assert r.nodes[1] == pytest.approx(hi, abs=1e-15)
        assert r.weights == pytest.approx((0.5, 0.5), abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 32, 64])
    def test_weights_sum_to_one(self, n):
        r = gauss_legendre(n)
        assert math.fsum(r.weights) == pytest.approx(1.0, abs=1e-14)
        assert all(w > 0 for w in r.weights)
        assert all(0.0 < x < 1.0 for x in r.nodes)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 10, 16, 32])
    def test_polynomial_exactness(self, n):
        r = gauss_legendre(n)
        for degree in range(2 * n):
            approx = integrate_1d(lambda x, d=degree: x**d, r)
            assert approx == pytest.approx(1.0 / (degree + 1), abs=1e-12)

    def test_order_bounds(self):
        with pytest.raises(OrderOutOfRange):
            gauss_legendre(0)
        with pytest.raises(OrderOutOfRange):
            gauss_legendre(65)

    def test_rules_are_cached_and_deterministic(self):
        assert gauss_legendre(17) is gauss_legendre(17)

    def test_rules_match_reference_digest(self):
        """Every rule, orders 1-64, bit for bit: the sha256 of the float.hex
        of its nodes and weights, recorded from the numpy implementation."""
        h = hashlib.sha256()
        for n in range(1, 65):
            r = gauss_legendre(n)
            h.update((" ".join(x.hex() for x in r.nodes) + "|"
                      + " ".join(w.hex() for w in r.weights) + "\n").encode())
        assert h.hexdigest() == "9cc2f6054df7f1f0fca38620dee61192271c13346ea468c061a0562eb4a7c91f"


class TestIntegrate:
    def test_constant(self):
        assert integrate_1d(lambda x: 1.0, gauss_legendre(4)) == pytest.approx(1.0, abs=1e-15)

    def test_identity(self):
        assert integrate_1d(lambda x: x, gauss_legendre(4)) == pytest.approx(0.5, abs=1e-15)

    def test_cubic_with_two_points(self):
        assert integrate_1d(lambda x: x**3, gauss_legendre(2)) == pytest.approx(0.25, abs=1e-14)

    def test_piecewise_splits_at_breakpoints(self):
        # |x - 0.3| is piecewise linear; exact once split
        val = integrate_piecewise(lambda x: abs(x - 0.3), gauss_legendre(2), (0.3,))
        assert val == pytest.approx(0.3**2 / 2 + 0.7**2 / 2, abs=1e-15)


class TestKernelIntegrals:
    def test_double_integral_of_squared_anova_kernel(self):
        # integral over x and t of anova_kernel(x,t)^2 equals 1/6
        rule = gauss_legendre(8)

        def inner(x):
            return integrate_piecewise(lambda t: anova_kernel(x, t) ** 2, rule, (x,))

        total = integrate_1d(inner, rule)
        assert total == pytest.approx(1.0 / 6.0, abs=1e-12)

    @pytest.mark.parametrize("anchor", [0.0, 0.25, 0.5])
    def test_averaged_kernel_energy_matches_quadrature(self, anchor):
        rule = gauss_legendre(8)
        val = integrate_piecewise(
            lambda t: averaged_anchored_kernel(t, anchor) ** 2, rule, (anchor,)
        )
        assert val == pytest.approx(averaged_kernel_energy(anchor), abs=1e-12)
