"""JSON construction of sequences, gammas, weights, and functions."""

import json
import math

import numpy as np
import pytest

from tensorsplit.errors import ConfigInvalid
from tensorsplit.functions import UnivariateFactor, function_from_json
from tensorsplit.gammas import gamma_from_json
from tensorsplit.indexing import IndexVector, SupportSet, ZERO_INDEX
from tensorsplit.sequences import seq_from_json
from tensorsplit.weights import weights_from_json


class TestSequenceSpecs:
    def test_power(self):
        s = seq_from_json({"kind": "power", "c": 2.0, "p": 3.0})
        assert s.value(2) == 0.25

    def test_geometric(self):
        s = seq_from_json({"kind": "geometric", "c": 1.0, "rho": 0.5})
        assert s.value(3) == 0.125

    def test_finite(self):
        s = seq_from_json({"kind": "finite", "values": [1.0, 0.5]})
        assert s.value(2) == 0.5 and s.value(3) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid):
            seq_from_json({"kind": "mystery"})

    def test_unknown_keys(self):
        with pytest.raises(ConfigInvalid):
            seq_from_json({"kind": "power", "c": 1.0, "p": 2.0, "bogus": 3})


class TestGammaSpecs:
    def test_product(self):
        g = gamma_from_json({"kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 2.0}})
        assert g.value(SupportSet.of(2)) == 0.25

    def test_table(self):
        g = gamma_from_json({"kind": "table", "entries": [[[1, 2], 0.5]]})
        assert g.value(SupportSet.of(1, 2)) == 0.5
        assert g.value(SupportSet()) == 1.0
        assert g.value(SupportSet.of(3)) == 0.0

    def test_finite_order(self):
        g = gamma_from_json({
            "kind": "finite_order",
            "base": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}},
            "order": 1,
        })
        assert g.value(SupportSet.of(5)) == 1.0
        assert g.value(SupportSet.of(1, 2)) == 0.0

    def test_empty_set_must_be_one(self):
        with pytest.raises(ConfigInvalid):
            gamma_from_json({"kind": "table", "entries": [[[], 2.0]]})


class TestWeightSpecs:
    def test_unit(self):
        w = weights_from_json({"type": "unit"})
        assert w.weight(IndexVector({4: 7})) == 1.0

    def test_product(self):
        w = weights_from_json(
            {"type": "product", "gamma": {"kind": "power", "c": 1.0, "p": 4.0}}
        )
        assert w.weight(IndexVector({2: 1})) == pytest.approx(16.0)

    def test_spline(self):
        w = weights_from_json({
            "type": "spline",
            "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}},
            "s": 1.0,
            "lam": 1.0,
        })
        assert w.weight(IndexVector({1: 2})) == 16.0

    def test_table(self):
        w = weights_from_json({
            "type": "table",
            "entries": [[{}, 1.0], [{"1": 1}, 2.0]],
        })
        assert w.weight(ZERO_INDEX) == 1.0
        assert w.weight(IndexVector({1: 1})) == 2.0

    def test_monotone_assertion(self):
        with pytest.raises(ConfigInvalid):
            weights_from_json({
                "type": "table",
                "entries": [[{"1": 2}, 1.0]],
                "assert_monotone": True,
            })

    def test_scaled(self):
        w = weights_from_json({"type": "scaled", "base": {"type": "unit"}, "factor": 3.0})
        assert w.weight(ZERO_INDEX) == 3.0

    def test_unknown_type(self):
        with pytest.raises(ConfigInvalid):
            weights_from_json({"type": "wavelet"})


class TestFunctionSpecs:
    def test_polynomial_term(self):
        f = function_from_json({
            "dim": 2,
            "terms": [
                {"coef": 2.0, "factors": {"1": {"kind": "polynomial", "coeffs": [0, 1]}}}
            ],
        })
        assert f.value([0.5, 0.9]) == pytest.approx(1.0)

    def test_trig_presets(self):
        f = function_from_json({
            "dim": 1,
            "terms": [
                {"coef": 1.0, "factors": {"1": {"kind": "sin", "freq": math.pi}}},
                {"coef": 1.0, "factors": {"1": {"kind": "cos", "freq": math.pi}}},
                {"coef": 1.0, "factors": {"1": {"kind": "exp", "rate": 1.0}}},
            ],
        })
        x = 0.37
        expected = math.sin(math.pi * x) + math.cos(math.pi * x) + math.exp(x)
        assert f.value([x]) == pytest.approx(expected, abs=1e-14)

    @staticmethod
    def _one_factor(factor):
        return {"dim": 1, "terms": [{"coef": 1.0, "factors": {"1": factor}}]}

    @pytest.mark.parametrize("power", [-1, 2.7, "2", True, float("inf"), 1e300, 1001])
    def test_monomial_power_must_be_nonnegative_integer(self, power):
        with pytest.raises(ConfigInvalid):
            function_from_json(self._one_factor({"kind": "monomial", "power": power}))

    def test_integral_float_power(self):
        f = function_from_json(self._one_factor({"kind": "monomial", "power": 2.0}))
        assert f.value([0.5]) == 0.25

    def test_monomial_takes_numpy_integer(self):
        assert UnivariateFactor.monomial(np.int64(2)).degree == 2

    def test_unknown_factor_kind(self):
        with pytest.raises(ConfigInvalid):
            function_from_json({
                "dim": 1,
                "terms": [{"coef": 1.0, "factors": {"1": {"kind": "wavelet"}}}],
            })

    def test_factor_coordinate_out_of_range(self):
        with pytest.raises(ConfigInvalid):
            function_from_json({
                "dim": 1,
                "terms": [{"coef": 1.0, "factors": {"2": {"kind": "monomial", "power": 1}}}],
            })


class TestNonFiniteNumbers:
    """Python's ``json`` reads the bare tokens NaN and Infinity; no spec takes them."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("build,template", [
        (function_from_json, '{"dim": 1, "terms": [{"coef": %s}]}'),
        (function_from_json,
         '{"dim": 1, "terms": [{"coef": 1.0, "factors": {"1": {"kind": "sin", "freq": %s}}}]}'),
        (function_from_json, '{"dim": 1, "terms": [{"coef": 1.0, "factors": '
                             '{"1": {"kind": "polynomial", "coeffs": [1.0, %s]}}}]}'),
        (seq_from_json, '{"kind": "power", "c": %s, "p": 2.0}'),
        (gamma_from_json, '{"kind": "table", "entries": [[[1], %s]]}'),
        (weights_from_json, '{"type": "scaled", "base": {"type": "unit"}, "factor": %s}'),
        (weights_from_json, '{"type": "spline", "gamma": {"kind": "product", '
                            '"seq": {"kind": "constant", "value": 1.0}}, "s": %s}'),
        (weights_from_json, '{"type": "table", "entries": [[{"1": 1}, %s]]}'),
    ], ids=["coef", "freq", "coeffs", "power-c", "gamma-table", "scale-factor",
            "spline-s", "weight-table"])
    def test_rejected(self, build, template, token):
        with pytest.raises(ConfigInvalid):
            build(json.loads(template % token))

    def test_finite_extremes_accepted(self):
        f = function_from_json({"dim": 1, "terms": [{"coef": 1.7976931348623157e308}]})
        assert f.terms[0].coef == 1.7976931348623157e308


class TestCoordinateKeys:
    """Coordinate keys are canonical decimals: ``int`` alone would read "1_0" as 10."""

    NON_CANONICAL = ["1_0", " 2", "2 ", "01", "+1", "1.0", "x", "", "١"]

    @pytest.mark.parametrize("key", NON_CANONICAL)
    def test_function_spec_rejects(self, key):
        with pytest.raises(ConfigInvalid):
            function_from_json({
                "dim": 10,
                "terms": [{"coef": 1.0, "factors": {key: {"kind": "monomial", "power": 1}}}],
            })

    @pytest.mark.parametrize("key", NON_CANONICAL)
    def test_index_spec_rejects(self, key):
        with pytest.raises(ConfigInvalid):
            IndexVector.from_json_obj({key: 1})

    def test_canonical_keys_accepted(self):
        f = function_from_json({
            "dim": 10,
            "terms": [{"coef": 1.0, "factors": {"10": {"kind": "monomial", "power": 1}}}],
        })
        assert list(f.terms[0].factors) == [10]
        assert IndexVector.from_json_obj({"10": 2, "3": 1}) == IndexVector({3: 1, 10: 2})


class TestAffineParameterSpec:
    @staticmethod
    def _spline(s):
        return {"type": "spline",
                "gamma": {"kind": "product", "seq": {"kind": "constant", "value": 1.0}},
                "s": s}

    def test_accepted(self):
        weights_from_json(self._spline({"kind": "affine", "a": 1.0, "b": 0.25}))

    @pytest.mark.parametrize("spec", [
        {"kind": "affine", "a": 1.0, "b": 0.25, "c": 7},
        {"kind": "affine", "a": 1.0},
    ], ids=["unknown-key", "missing-key"])
    def test_rejected(self, spec):
        with pytest.raises(ConfigInvalid):
            weights_from_json(self._spline(spec))
