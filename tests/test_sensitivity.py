"""Sensitivity indices, truncation, and a priori error bounds."""

import collections
import csv
import importlib.util
import json
import math
import random
import struct
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorsplit.gammas
import tensorsplit.sensitivity
from corpus import corpus, ordered_pair_sum
from exact import ExactDecomposition, assert_matches_truth, mp, poly_spec
from tensorsplit.cli import main
from tensorsplit.decomp import weighted_norm
from tensorsplit.equivalence import certify_equivalence
from tensorsplit.errors import ConfigInvalid, DegenerateDenominator, GammaL1Violated, OrderOutOfRange
from tensorsplit.functions import (SeparableFunction, Term, UnivariateFactor as F, function_from_json,
                                   value_inner)
from tensorsplit.gammas import FiniteOrderGamma, ProductGamma, TableGamma, gamma_from_json
from tensorsplit.indexing import SupportSet
from tensorsplit.sensitivity import (
    _truncation_bounds,
    _truncation_errors,
    l2_error,
    sobol_indices,
    truncate_order,
    truncation_bound,
    truncation_report,
)
from tensorsplit.sequences import ConstantSeq, FiniteSeq, GeometricSeq, PowerSeq

S = SupportSet.of
GOLDEN_DIR = Path(__file__).parent / "golden"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
RNG = np.random.default_rng(4242)
UNIT_GAMMA = ProductGamma(ConstantSeq(1.0))


class TestSobolIndices:
    def test_additive_symmetric_function(self):
        f = SeparableFunction(2, [
            Term(1.0, {1: F.monomial(1)}),
            Term(1.0, {2: F.monomial(1)}),
        ])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.per_omega[S(1)] == pytest.approx(0.5, abs=1e-12)
        assert table.per_omega[S(2)] == pytest.approx(0.5, abs=1e-12)

    def test_single_active_variable(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.per_omega[S(1)] == pytest.approx(1.0)

    def test_constant_function_degenerate(self):
        f = SeparableFunction(1, [Term(5.0, {})])
        with pytest.raises(DegenerateDenominator):
            sobol_indices(f, UNIT_GAMMA, "anova")

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_indices_normalized_and_in_range(self, name, f, mode):
        try:
            table = sobol_indices(f, UNIT_GAMMA, mode)
        except DegenerateDenominator:
            return
        values = list(table.per_omega.values())
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in values)
        assert math.fsum(values) == pytest.approx(1.0, abs=1e-10)

    def test_include_empty_convention(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        table = sobol_indices(f, UNIT_GAMMA, "anova", include_empty=True)
        # energies: empty 1/4, {1} 1
        assert table.per_omega[S()] == pytest.approx(0.25 / 1.25)
        assert table.per_omega[S(1)] == pytest.approx(1.0 / 1.25)


class TestTotalIndex:
    def test_empty_group_totals_to_one(self):
        f = SeparableFunction(2, [
            Term(1.0, {1: F.monomial(1)}),
            Term(1.0, {2: F.monomial(1)}),
        ])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.total(S()) == pytest.approx(1.0, abs=1e-12)

    def test_additive_function_group(self):
        f = SeparableFunction(2, [
            Term(1.0, {1: F.monomial(1)}),
            Term(1.0, {2: F.monomial(1)}),
        ])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        assert table.total(S(1)) == pytest.approx(0.5, abs=1e-12)

    def test_interaction_included(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        table = sobol_indices(f, UNIT_GAMMA, "anova")
        # components: {1}: 1/4... energies ||d f_omega||^2: {1}: 1/4, {2}: 1/4, {1,2}: 1
        assert table.total(S(1)) == pytest.approx((0.25 + 1.0) / 1.5, abs=1e-12)

    def test_comparability_under_certificate(self):
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        anchor = 0.5
        cert = certify_equivalence(gamma, anchor=anchor)
        c2 = cert.c**2
        for name, f in corpus():
            tab_a = sobol_indices(f, gamma, "anova", anchor, include_empty=True)
            tab_an = sobol_indices(f, gamma, "anchored", anchor, include_empty=True)
            groups = set(tab_a.per_omega) | set(tab_an.per_omega)
            for omega0 in groups:
                sa = tab_a.total(omega0)
                san = tab_an.total(omega0)
                if sa <= 1e-13 and san <= 1e-13:
                    continue
                assert san > 0 and sa > 0, f"{name} {omega0}"
                assert 1.0 / c2 <= sa / san <= c2, f"{name} {omega0}: {sa/san}"


def _five_variable_function():
    """At most two variables interact, and coordinate 4 is inactive."""
    return SeparableFunction(5, [
        Term(1.0, {1: F.monomial(1), 2: F.sine(2.0, 0.3)}),
        Term(-0.6, {3: F.exponential(0.7)}),
        Term(0.4, {2: F.polynomial([0.5, -1.0, 2.0]), 5: F.cosine(1.5)}),
    ])


def scan_total(table, omega0):
    """The definition: fsum of the indices of every superset in the table."""
    return math.fsum(v for omega, v in table.per_omega.items() if omega.issuperset(omega0))


TOTAL_GAMMAS = [
    ("product", ProductGamma(PowerSeq(1.0, 2.0))),
    ("finite_order", FiniteOrderGamma(ProductGamma(GeometricSeq(1.0, 0.7)), 2)),
    ("table", TableGamma({S(1): 0.9, S(2): 0.6, S(3): 0.4, S(5): 0.3,
                          S(1, 2): 0.2, S(2, 5): 0.1})),
]


class TestTotalAgainstScan:
    @pytest.mark.parametrize("name,gamma", TOTAL_GAMMAS, ids=[n for n, _ in TOTAL_GAMMAS])
    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_every_group_equals_scan(self, name, gamma, include_empty, mode):
        """Every group of coordinates 1..d+1, inside the table's sets or not."""
        f = _five_variable_function()
        table = sobol_indices(f, gamma, mode, include_empty=include_empty)
        for omega0 in SupportSet(range(1, f.dim + 2)).subsets():
            assert table.total(omega0) == scan_total(table, omega0), omega0

    def test_signed_and_zero_entries(self):
        """Zero entries of either sign are skipped and a negative one (an
        energy rounded below zero) is kept: every total equals the scan."""
        per_omega = {S(): 0.5, S(1): -1e-17, S(2): 0.0, S(3): 0.25, S(1, 2): -0.0,
                     S(1, 3): 0.0, S(2, 3): 0.125}
        indices = {sum(1 << (k - 1) for k in omega): v for omega, v in per_omega.items()}
        weights = [1.0] * 7 + [0.0]  # the set [1, 2, 3] has weight 0: not in the table
        table = tensorsplit.sensitivity.SobolTable("anova", 3, weights, indices, 1.0, True)
        assert [(omega, str(v)) for omega, v in table.per_omega.items()] == \
            [(omega, str(v)) for omega, v in per_omega.items()]
        for omega0 in SupportSet(range(1, 5)).subsets():
            assert str(table.total(omega0)) == str(scan_total(table, omega0)), omega0

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_tables_equal_scan(self, data):
        """Tables as ``sobol_indices`` builds them: an index at each set of
        nonzero weight (the empty set with ``include_empty``), drawn with
        zeros of either sign, tiny negative entries and cancelling pairs.
        Every total, over groups of coordinates 1..dim + 1, equals the scan
        bit for bit."""
        dim = data.draw(st.integers(min_value=1, max_value=5))
        include_empty = data.draw(st.booleans())
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1 << dim,
                                     max_size=1 << dim))
        entry = st.one_of(st.sampled_from([0.0, -0.0, -1e-17, 1e-17, -1e-300, 0.1, -0.1, 1 / 3]),
                          st.floats(min_value=-1.0, max_value=1.0))
        indices = {m: data.draw(entry) for m in range(1 << dim)
                   if weights[m] != 0.0 and (m or include_empty)}
        table = tensorsplit.sensitivity.SobolTable("anova", dim, weights, indices, 1.0,
                                                   include_empty)
        for omega0 in SupportSet(range(1, dim + 2)).subsets():
            assert struct.pack("<d", table.total(omega0)) == \
                struct.pack("<d", scan_total(table, omega0)), omega0

    def test_tables_are_sparse(self):
        """The finite-order table skips sets; the table gamma also coordinate 4."""
        f = _five_variable_function()
        sizes = {name: len(sobol_indices(f, gamma, "anova").per_omega)
                 for name, gamma in TOTAL_GAMMAS}
        assert sizes == {"product": 31, "finite_order": 15, "table": 6}


class TestTruncateOrder:
    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_full_order_reproduces_function(self, name, f, mode):
        s = truncate_order(f, f.dim, mode, 0.5)
        for x in RNG.uniform(0, 1, (20, f.dim)):
            assert s.value(x) == pytest.approx(f.value(x), abs=1e-10)

    def test_order_zero_anchored_is_anchor_value(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(2)})])
        s = truncate_order(f, 0, "anchored", 0.25)
        assert s.value([0.9, 0.9]) == pytest.approx(f.value([0.25, 0.25]))

    def test_order_zero_anova_is_mean(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(2)})])
        s = truncate_order(f, 0, "anova")
        # oracle: tensor quadrature mean
        from tensorsplit.quadrature import gauss_legendre, integrate_1d

        rule = gauss_legendre(16)
        mean = integrate_1d(
            lambda u: integrate_1d(lambda v: f.value([u, v]), rule), rule
        )
        assert s.value([0.123, 0.456]) == pytest.approx(mean, abs=1e-12)


    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_negative_order_is_out_of_range(self, mode):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        with pytest.raises(OrderOutOfRange):
            truncate_order(f, -1, mode)
        with pytest.raises(OrderOutOfRange):
            truncation_bound(ProductGamma(PowerSeq(1.0, 4.0)), -1, mode)


class TestL2Error:
    def test_identical_functions(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        assert l2_error(f, f) == pytest.approx(0.0, abs=1e-13)

    def test_linear_vs_mean(self):
        f = SeparableFunction(1, [Term(1.0, {1: F.monomial(1)})])
        g = SeparableFunction(1, [Term(0.5, {})])
        assert l2_error(f, g) == pytest.approx(1.0 / math.sqrt(12.0), abs=1e-13)

    def test_anova_truncation_error_of_product(self):
        f = SeparableFunction(2, [Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        s1 = truncate_order(f, 1, "anova")
        assert l2_error(f, s1) == pytest.approx(1.0 / 12.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_zero_term_of_f_is_the_zero_function(self, m):
        """0 * (1e308 + 1.7e308 x1^2)(x2 - 1/2) is the zero function: its
        anchored truncation error is 0 at every m, as ``truncate`` writes,
        although its x1 factor's integrals overflow and 0 times them is nan.
        The distance is 0 in either order: the zero-coefficient terms of
        both arguments are left out."""
        f = SeparableFunction(2, [Term(0.0, {1: F.polynomial([1e308, 0.0, 1.7e308]),
                                             2: F.polynomial([-0.5, 1.0])})])
        approx = truncate_order(f, m, "anchored")
        assert l2_error(f, approx) == 0.0
        assert l2_error(approx, f) == 0.0


class TestL2ErrorReuse:
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_each_factor_pair_integrated_once(self, monkeypatch, mode):
        """d(2R+1)**2 bounds the distinct pairs: per coordinate, R factors of
        f, R shifted factors and the constant 1."""
        pairs = collections.Counter()

        def counting(g, h):
            pairs[g, h] += 1
            return value_inner(g, h)

        monkeypatch.setattr(tensorsplit.sensitivity, "value_inner", counting)
        f = _five_variable_function()
        for m in range(f.dim + 1):
            approx = truncate_order(f, m, mode)
            pairs.clear()
            err = l2_error(f, approx)
            assert max(pairs.values()) == 1
            assert len(pairs) <= f.dim * (2 * len(f.terms) + 1) ** 2
            diff = f.terms + [Term(-t.coef, t.factors) for t in approx.terms]
            assert err == math.sqrt(max(0.0, ordered_pair_sum(diff, value_inner)))


class TestPrefixSweep:
    @pytest.mark.parametrize("cuts,index", [([1, 0], 1), ([0, 1], 0), ([1, 1, 0], 2)])
    def test_overflowing_integral_names_its_first_prefix(self, cuts, index):
        """A 1-D integral of +inf and -inf products, needed only by the
        components above m = 0, is ``ConfigInvalid`` naming the first entry
        of the m list that needs it; m = 1 still sums."""
        ramp = F.polynomial([-5e199, 1e200])  # 1e200 (x1 - 1/2)
        wave = F.polynomial([-1e200 / 6, 0, 0, 0, 0, 1e200])  # 1e200 (x1**5 - 1/6)
        f = SeparableFunction(2, [Term(1.0, {1: ramp}), Term(1.0, {1: wave}),
                                  Term(1.0, {1: F.monomial(1), 2: F.monomial(1)})])
        assert _truncation_errors(f, [1, 2], "anova") == [pytest.approx(1 / 12, rel=1e-15), 0.0]
        with pytest.raises(ConfigInvalid, match=f"approximant {index} overflows"):
            _truncation_errors(f, cuts, "anova")


def _benchmark_truncate_requests():
    """The ``truncate`` requests of the decomp benchmark, seeds 1 to 3."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
    try:  # its dataclasses look their module up in sys.modules
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["bench_workloads"]
    return [pytest.param(req.cfg, id=f"seed{seed}-{i}-{req.label}")
            for seed in (1, 2, 3) for i, req in enumerate(workloads.decomp_requests(seed))
            if req.kind == "truncate"]


class TestTruncateNorm:
    @pytest.mark.parametrize("cfg", _benchmark_truncate_requests())
    def test_artifact_bound_is_weighted_norm(self, tmp_path, cfg):
        """The truncate artifact's bounds are the unit bounds times library
        ``weighted_norm``, bit for bit, as is the report's norm: the library
        and the CLI take one norm route."""
        path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        path.write_text(json.dumps(cfg))
        assert main(["truncate", "--config", str(path), "--out", str(out)]) == 0
        f, gamma = function_from_json(cfg["function"]), gamma_from_json(cfg["gamma"])
        m_list = cfg.get("m", list(range(f.dim + 1)))
        norm = weighted_norm(f, gamma, cfg["mode"])
        assert struct.pack("<d", truncation_report(f, gamma, cfg["mode"], m_list).norm) == \
            struct.pack("<d", norm)
        units = _truncation_bounds(gamma, m_list, cfg["mode"])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [int(row["m"]) for row in rows] == m_list
        for row, unit in zip(rows, units):
            assert struct.pack("<d", float(row["bound"])) == struct.pack("<d", unit * norm), row["m"]


class TestTruncationBound:
    def test_empty_support_gives_zero(self):
        gamma = TableGamma({})
        for m in range(3):
            assert truncation_bound(gamma, m, "anchored", 0.0) == 0.0

    def test_singleton_geometric_example(self):
        # weights 4^-k on singletons, anchor 0, order 0:
        # sqrt(sum (1/2) 4^-k) = sqrt(1/6)
        gamma = FiniteOrderGamma(ProductGamma(GeometricSeq(1.0, 0.25)), 1)
        got = truncation_bound(gamma, 0, "anchored", 0.0)
        assert got == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-12)

    def test_monotone_nonincreasing_in_order(self):
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        prev = math.inf
        for m in range(5):
            val = truncation_bound(gamma, m, "anova")
            assert val <= prev + 1e-15
            prev = val

    def test_divergent_series_raises(self):
        gamma = ProductGamma(ConstantSeq(1.0))
        with pytest.raises(GammaL1Violated):
            truncation_bound(gamma, 1, "anchored", 0.0)

    @pytest.mark.parametrize("name,f", corpus(), ids=[n for n, _ in corpus()])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_bound_dominates_error_on_corpus(self, name, f, mode):
        anchor = 0.5
        gamma = ProductGamma(PowerSeq(1.0, 4.0))
        norm = weighted_norm(f, gamma, mode, anchor)
        for m in range(f.dim + 1):
            s_m = truncate_order(f, m, mode, anchor)
            err = l2_error(f, s_m)
            bound = truncation_bound(gamma, m, mode, anchor) * norm
            assert err <= bound * (1.0 + 1e-10) + 1e-12, f"m={m}: {err} > {bound}"

    def test_anchored_vs_anova_bound_ratio_at_midpoint(self):
        # common-scale weights on few coordinates: the layer of size m+1
        # dominates both tails, so the ratio approaches (3/4)**((m+1)/2)
        scale = 1e-3
        K = 4
        gamma = ProductGamma(FiniteSeq([scale] * K))
        for m in range(0, K):
            num = truncation_bound(gamma, m, "anchored", 0.5)
            den = truncation_bound(gamma, m, "anova", 0.5)
            expected = (3.0 / 4.0) ** ((m + 1) / 2.0)
            assert num / den == pytest.approx(expected, rel=0.01)


class TestElementarySums:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1b: Newton's identities lose accuracy; "
        "item 25's tail summary unmarks this"))
    def test_forty_equal_values(self):
        """e_l of forty values 0.9 is C(40, l) 0.9**l, exact in Fraction;
        Newton's identities miss it by up to 7.08e-5 relative today."""
        e = tensorsplit.gammas._newton_elementary(FiniteSeq([0.9] * 40), 40)
        assert len(e) == 41
        for l, got in enumerate(e):
            truth = math.comb(40, l) * Fraction(0.9) ** l
            assert abs(Fraction(got) - truth) <= Fraction(1, 10**12) * truth, l


class _InfiniteCubes(GeometricSeq):
    """A geometric sequence whose power sums from the third on read inf
    while the first two are finite: Newton's identities then write every
    e_l of an order sum above 2 as inf, and the sums of a smaller order are
    no prefix of them."""

    def scaled(self, t):
        return _InfiniteCubes(self.c * t, self.rho)

    def powered(self, i):
        return ConstantSeq(1.0) if i >= 3 else super().powered(i)


BOUND_GAMMAS = [
    ("power4", ProductGamma(PowerSeq(1.0, 4.0))),
    ("power2.5", ProductGamma(PowerSeq(0.8, 2.5))),
    ("geometric", ProductGamma(GeometricSeq(1.0, 0.5))),
    ("finite_order", FiniteOrderGamma(ProductGamma(PowerSeq(1.0, 2.0)), 3)),
    ("table", TableGamma({S(1): 0.9, S(2): 0.6, S(1, 2): 0.2, S(2, 5): 0.1, S(1, 3, 4): 0.05})),
    ("finite_product", ProductGamma(FiniteSeq([0.9, 0.5, 0.0, 0.25, 0.125]))),
    ("infinite_cubes", ProductGamma(_InfiniteCubes(2.0, 0.5))),
]


class TestTruncationBounds:
    """``_truncation_bounds`` serves an m list from one ``order_sums`` call;
    each entry is ``truncation_bound`` of its m alone, bit for bit, and a
    failing list raises what checking every m and then taking each bound
    in list order raises."""

    @pytest.mark.parametrize("name,gamma", BOUND_GAMMAS, ids=[n for n, _ in BOUND_GAMMAS])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    @pytest.mark.parametrize("m_list", [[3, 0, 3, 1], [5, 2, 7, 2, 0], [1], [], [12, 0, 12, 4]],
                             ids=["3031", "52720", "1", "none", "12_0_12_4"])
    def test_entries_equal_single_bounds(self, monkeypatch, name, gamma, mode, m_list):
        want = [truncation_bound(gamma, m, mode, 0.3) for m in m_list]
        calls = []
        order_sums = gamma.order_sums
        monkeypatch.setattr(gamma, "order_sums", lambda t, m: calls.append(m) or order_sums(t, m))
        got = _truncation_bounds(gamma, m_list, mode, 0.3)
        assert [b.hex() for b in got] == [w.hex() for w in want]
        if name != "infinite_cubes":
            assert len(calls) == (0 < len(m_list) and min(m_list) < (gamma.max_order() or math.inf))

    def test_an_infinite_power_sum_sends_smaller_orders_to_their_own_sums(self):
        gamma = ProductGamma(_InfiniteCubes(2.0, 0.5))
        by_order, total = gamma.order_sums(1 / 6, 3)
        assert by_order[1:] == [math.inf] * 3 and total < math.inf
        bounds = _truncation_bounds(gamma, [3, 1, 2], "anova")
        assert bounds[0] == 0.0 and bounds[1] > bounds[2] > 0.0

    @pytest.mark.parametrize("gamma,m_list,error", [
        (ProductGamma(FiniteSeq([1e300, 1e300])), [1, 0], ConfigInvalid),
        (ProductGamma(GeometricSeq(1e300, 0.5)), [0, 3, 1], ConfigInvalid),
        (ProductGamma(ConstantSeq(1.0)), [2, 0, 1], GammaL1Violated),
        (ProductGamma(PowerSeq(1.0, 0.5)), [0], GammaL1Violated),
        (ProductGamma(PowerSeq(1.0, 4.0)), [2, -1, 0, -3], OrderOutOfRange),
        (ProductGamma(ConstantSeq(1.0)), [0, 4, -2], OrderOutOfRange),
    ], ids=["finite_squares", "geometric_exp", "constant", "power_slow", "negative",
            "negative_after_divergent"])
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_errors_equal_per_m_loop(self, gamma, m_list, error, mode):
        def per_m_loop():
            for m in m_list:
                if m < 0:
                    truncation_bound(gamma, m, mode)
            return [truncation_bound(gamma, m, mode) for m in m_list]

        with pytest.raises(error) as want:
            per_m_loop()
        with pytest.raises(error) as got:
            _truncation_bounds(gamma, m_list, mode)
        assert str(got.value) == str(want.value)

# ---------------------------------------------------------------------------
# ANOVA truncation errors against the exact oracle


def _cli_errors(tmp_path, spec, gamma, m_list=None):
    cfg = {"function": spec, "gamma": gamma, "mode": "anova"}
    if m_list is not None:
        cfg["m"] = m_list
    path, out = tmp_path / "cfg.json", tmp_path / "out.csv"
    path.write_text(json.dumps(cfg))
    assert main(["truncate", "--config", str(path), "--out", str(out)]) == 0
    return [float(row.split(",")[1]) for row in out.read_text().splitlines()[1:]]


class TestAnovaErrorOracle:
    """ANOVA truncation errors against an exact oracle.  Summing f against
    its approximant (the route before the orthogonal component sum) is off
    by 2.5e-13 relative at m = 5 of the eight-variable product, and reads
    2.41126543210551e-4 for 2.4112654320987654e-4, 4.8225308645e-5 for
    12**-4 and 5.7e-10 for 0 at m = 6, 7, 8."""

    def test_golden_config(self, tmp_path):
        cfg = json.loads((GOLDEN_DIR / "truncate_anova_all_orders.json").read_text())
        with mpmath.workdps(40):
            truths = ExactDecomposition(cfg["function"]).errors_sq()
        assert truths[-1] == 0
        assert_matches_truth(_cli_errors(tmp_path, cfg["function"], cfg["gamma"]), truths)

    def test_product_of_eight_variables(self, tmp_path):
        spec = poly_spec(8, [(1.0, {k: [0.0, 1.0] for k in range(1, 9)})])
        truths = ExactDecomposition(spec).errors_sq()
        assert truths[7] == Fraction(1, 12**8) and truths[8] == 0
        gamma = {"kind": "product", "seq": {"kind": "power", "c": 1.0, "p": 4.0}}
        assert_matches_truth(_cli_errors(tmp_path, spec, gamma, list(range(9))), truths)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_polynomial_corpus(self, seed):
        """Within 1e-13 * ||f||_L2 of the truth, and exactly 0.0 where the
        truth is 0, for every m and one more than the dimension."""
        _check_seeded_corpus(random.Random(seed), "anova", 0.5)


def _seeded_spec(rnd: random.Random) -> dict:
    """A polynomial function of 1..6 variables and 1..5 terms; a factor
    with one coefficient is a constant."""
    dim = rnd.randint(1, 6)
    terms = []
    for _ in range(rnd.randint(1, 5)):
        coords = rnd.sample(range(1, dim + 1), rnd.randint(0, dim))
        terms.append((rnd.uniform(-2.0, 2.0), {
            k: [rnd.uniform(-1.0, 1.0) for _ in range(rnd.randint(1, 4))] for k in coords}))
    return poly_spec(dim, terms)


def _check_seeded_corpus(rnd: random.Random, mode: str, anchor: float):
    """Within 1e-13 * ||f||_L2 of the truth, and exactly 0.0 where the
    truth is 0, for every m and one more than the dimension."""
    spec = _seeded_spec(rnd)
    f = function_from_json(spec)
    m_list = list(range(f.dim + 2))
    errors = _truncation_errors(f, m_list, mode, anchor)
    oracle = ExactDecomposition(spec, mode, anchor)
    truths = oracle.errors_sq() + [Fraction(0)]
    with mpmath.workdps(40):
        norm = mpmath.sqrt(mp(oracle.l2_norm_sq()))
    assert_matches_truth(errors, truths, scale=norm)


class TestAnchoredErrorOracle:
    """Anchored truncation errors against the exact oracle.  Summing f
    against its approximant (the route before the generating polynomials)
    wrote 7.09e-9 for the errors 0 of the bundled example at m = 2 and 3,
    and 4.56e-9 for those of 1 + x1 / 2 at m = 1 and 2."""

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_polynomial_corpus(self, seed):
        rnd = random.Random(f"anchored {seed}")
        _check_seeded_corpus(rnd, "anchored", rnd.choice([0.0, 0.3, 0.5, 1.0]))

    def test_exact_zero_above_the_last_component(self):
        """1 + x1 / 2 and x2 (x3 - 1/4): nothing lies above order 2, and at
        an anchor where x3 - 1/4 vanishes nothing of the second term lies
        below it either."""
        spec = poly_spec(3, [(1.0, {}), (0.5, {1: [0.0, 1.0]}), (1.0, {2: [0.0, 1.0], 3: [-0.25, 1.0]})])
        f = function_from_json(spec)
        for anchor in (0.25, 0.5):
            errors = _truncation_errors(f, [3, 2, 1, 0], "anchored", anchor)
            assert errors[:2] == [0.0, 0.0]
            truths = ExactDecomposition(spec, "anchored", anchor).errors_sq()
            assert_matches_truth(errors, [truths[m] for m in (3, 2, 1, 0)])


#: a 32-point Gauss-Legendre rule is exact to degree 63 only, and nothing
#: checks its error on a fast sine
_ITEM_22 = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 22: 1-D integrals of high-frequency factors have no certified error"))


class TestHighFrequencyIntegrals:
    @_ITEM_22
    @pytest.mark.parametrize("w", [60.0, 100.0, 300.0])
    def test_value_inner_of_a_fast_sine(self, w):
        """The integral of sin(w x)**2 over [0, 1] against mpmath at 40
        digits; relative errors 6.4e-2, 1.6e-1 and 5.1e-3 today."""
        g = F.sine(w)
        with mpmath.workdps(40):
            truth = mpmath.quad(lambda x: mpmath.sin(w * x) ** 2, [0, 1])
            assert abs(mpmath.mpf(value_inner(g, g)) - truth) <= 1e-13 * truth

    @_ITEM_22
    def test_anova_errors_of_a_fast_sine(self):
        """sin(100 x1) x2 in ANOVA: 0.43989 / 0.21995 at m = 0 / 1 today,
        against 0.40914 / 0.20457 from the exact oracle."""
        spec = {"dim": 2, "terms": [{"coef": 1.0, "factors": {
            "1": {"kind": "sin", "freq": 100.0}, "2": {"kind": "monomial", "power": 1}}}]}
        with mpmath.workdps(40):
            truths = ExactDecomposition(spec).errors_sq()
        errors = _truncation_errors(function_from_json(spec), [0, 1, 2], "anova")
        assert_matches_truth(errors, truths)


# ---------------------------------------------------------------------------
# a sharp lower bound that every truncation bound must meet

#: name -> (product weight sequence, gamma_k to 40 digits)
_SHARP_SEQS = {
    "power4": (PowerSeq(1.0, 4.0), lambda k: mpmath.mpf(k) ** -4),
    "power2.5": (PowerSeq(1.0, 2.5), lambda k: mpmath.mpf(k) ** mpmath.mpf(-2.5)),
    "geometric": (GeometricSeq(1.0, 0.5), lambda k: mpmath.mpf(0.5) ** k),
}
#: (sequence, mode) -> the smallest m at which the bound cancels below the
#: sharp value (ROADMAP item 1a)
_CANCELS_FROM = {("power4", "anova"): 6, ("power4", "anchored"): 5, ("power2.5", "anova"): 8,
                 ("power2.5", "anchored"): 7, ("geometric", "anova"): 7}


def _sharp_cases():
    for name in _SHARP_SEQS:
        for mode in ("anova", "anchored"):
            for m in range(13):
                marks = ()
                if m >= _CANCELS_FROM.get((name, mode), math.inf):
                    marks = pytest.mark.xfail(strict=True, reason=(
                        "ROADMAP item 1a: truncation_bound's total - head cancels"))
                yield pytest.param(name, mode, m, marks=marks, id=f"{name}-{mode}-{m}")


class TestSharpLowerBound:
    @pytest.mark.parametrize("name,mode,m", _sharp_cases())
    def test_bound_meets_largest_omitted_term(self, name, mode, m):
        """For a product gamma, truncation_bound**2 sums c**|u| * gamma_u over
        the sets u above m with c = 1/6 (ANOVA) or max(a, 1-a)**2 / 2
        (anchored), so it is at least the term of u = {1..m+1} with the
        smaller 1-D constant pi**-2 or 4 * max(a, 1-a)**2 / pi**2, the sharp
        one: c**(m+1) * prod_{k<=m+1} gamma_k, here rounded down."""
        seq, gamma_k = _SHARP_SEQS[name]
        anchor = 0.5
        with mpmath.workdps(40):
            c = 1 / mpmath.pi ** 2
            if mode == "anchored":
                c *= 4 * mpmath.mpf(max(anchor, 1.0 - anchor)) ** 2
            sharp = c ** (m + 1) * mpmath.fprod(gamma_k(k) for k in range(1, m + 2))
            low = float(sharp)
            if mpmath.mpf(low) > sharp:
                low = math.nextafter(low, 0.0)
        assert low > 0.0
        assert truncation_bound(ProductGamma(seq), m, mode, anchor) ** 2 >= low
