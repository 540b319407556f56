"""Cross-cutting consistency properties: tails, codes, round trips."""

import ast
import functools
import importlib
import math
import pkgutil
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tensorsplit
import tensorsplit.errors as errors_mod
from corpus import corpus, ordered_pair_sum
from tensorsplit.decomp import decompose
from tensorsplit.epsdim import _BoostTable
from tensorsplit.functions import (ONE_FACTOR, SeparableFunction, Term, UnivariateFactor as F,
                                  deriv_inner, value_inner)
from tensorsplit.indexing import IndexVector
from tensorsplit.sensitivity import l2_error, truncate_order
from tensorsplit.sequences import (
    ConstantSeq,
    FiniteSeq,
    GeometricSeq,
    PowerSeq,
)

SEQS = [
    PowerSeq(1.0, 4.0),
    PowerSeq(2.5, 2.0),
    GeometricSeq(1.0, 0.5),
    GeometricSeq(0.3, 0.9),
    FiniteSeq([0.4, 0.0, 1.2]),
    ConstantSeq(0.0),
]


class TestTailConsistency:
    @pytest.mark.parametrize("seq", SEQS, ids=lambda s: type(s).__name__ + repr(s.value(1)))
    @pytest.mark.parametrize("k0", [0, 1, 3, 10])
    def test_head_plus_tail_is_total(self, seq, k0):
        head = math.fsum(seq.value(k) for k in range(1, k0 + 1))
        assert head + seq.tail_sum(k0) == pytest.approx(seq.sum(), rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("seq", SEQS, ids=lambda s: type(s).__name__ + repr(s.value(1)))
    def test_tail_sup_dominates_values(self, seq):
        for k0 in range(0, 6):
            sup = seq.tail_sup(k0)
            for k in range(k0 + 1, k0 + 20):
                assert seq.value(k) <= sup + 1e-15

    @pytest.mark.parametrize("seq", SEQS, ids=lambda s: type(s).__name__ + repr(s.value(1)))
    def test_last_k_threshold(self, seq):
        """The boost table's last coordinate at or above 1 + 2**-52, on the
        sequence scaled by 1/t so that the threshold cuts it in several places."""
        boosting = math.nextafter(1.0, math.inf)
        for t in (2.0, 0.5, 0.11, 0.01):
            mult = seq.scaled(1.0 / t)
            last = _BoostTable(mult).k_last
            if last > 0:
                assert mult.value(last) >= boosting
            for k in range(last + 1, last + 30):
                assert mult.value(k) < boosting

    def test_degenerate_geometric_has_empty_support(self):
        seq = GeometricSeq(3.0, 0.0)
        assert seq.max_support == 0
        assert seq.sum() == 0.0
        assert _BoostTable(seq).k_last == 0


class TestErrorCodes:
    def test_exit_codes_are_distinct(self):
        classes = [
            getattr(errors_mod, name)
            for name in dir(errors_mod)
            if isinstance(getattr(errors_mod, name), type)
            and issubclass(getattr(errors_mod, name), errors_mod.TensorsplitError)
            and getattr(errors_mod, name) is not errors_mod.TensorsplitError
        ]
        codes = [cls.exit_code for cls in classes]
        assert len(codes) == len(set(codes))
        assert all(code > 1 for code in codes)


class TestIndexRoundTrips:
    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=1, max_value=9),
            max_size=6,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip(self, levels):
        j = IndexVector(levels)
        assert IndexVector.from_json_obj(j.to_json_obj()) == j


FLOATS = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)

#: factors drawn into random terms: equal but distinct objects, explicit
#: constants (one of them the shared ONE_FACTOR) and sin/exp factors
FACTOR_POOL = [
    F.monomial(1), F.monomial(1), F.monomial(3), F.polynomial([0.5, -1.25, 0.75]),
    F.constant(1.0), F.constant(-0.3), ONE_FACTOR,
    F.sine(2.0, 0.25), F.cosine(1.5), F.exponential(-0.7), F.exponential(1.3),
]
TERMS = st.lists(st.builds(
    Term,
    st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(min_value=-4.0, max_value=4.0)),
    st.dictionaries(st.integers(min_value=1, max_value=5), st.sampled_from(FACTOR_POOL), max_size=5),
), max_size=12)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def norm_matches_ordered_pairs(f, inner=value_inner) -> bool:
    """``l2_error`` from the zero function, whose square sums unordered term
    pairs counted twice, against the ordered-pair sum, bit for bit."""
    norm = l2_error(f, SeparableFunction(f.dim, []))
    return bits(norm) == bits(math.sqrt(max(0.0, ordered_pair_sum(f.terms, inner))))


def energies_match_ordered_pairs(f, mode, inner=deriv_inner) -> bool:
    """Every nonempty component's energy, a table sum over unordered term
    pairs, against the ordered-pair sum of its terms, bit for bit."""
    return all(bits(t.mixed_norm_sq) == bits(ordered_pair_sum(t.func.terms, inner))
               for t in decompose(f, mode) if t.omega)


class TestPairSum:
    """Unordered pairs counted twice give the ordered-pair sum bit for bit."""

    @pytest.mark.parametrize("name,f", corpus())
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    @pytest.mark.parametrize("inner", [value_inner, deriv_inner], ids=["value", "deriv"])
    def test_components_match_ordered_pairs(self, name, f, mode, inner):
        if inner is value_inner:
            assert all(norm_matches_ordered_pairs(t.func) for t in decompose(f, mode))
        else:
            assert energies_match_ordered_pairs(f, mode)

    @pytest.mark.parametrize("name,f", corpus())
    @pytest.mark.parametrize("mode", ["anova", "anchored"])
    def test_truncation_error_matches_ordered_pairs(self, name, f, mode):
        for m in range(f.dim + 1):
            g = truncate_order(f, m, mode)
            diff = f.terms + [Term(-t.coef, dict(t.factors)) for t in g.terms]
            expected = math.sqrt(max(0.0, ordered_pair_sum(diff, value_inner)))
            assert l2_error(f, g) == expected

    @pytest.mark.parametrize("inner", [value_inner, deriv_inner], ids=["value", "deriv"])
    @given(terms=TERMS)
    @settings(max_examples=150, deadline=None)
    def test_random_terms_match_ordered_pairs(self, inner, terms):
        """Shared and absent factors, constants and zero coefficients of
        either sign: the table sum equals the ordered-pair sum bit for bit."""
        memo = functools.cache(inner)  # keyed by ordered pair: both orders are computed
        f = SeparableFunction(5, terms)
        if inner is value_inner:
            assert norm_matches_ordered_pairs(f, memo)
        else:
            assert energies_match_ordered_pairs(f, "anova", memo)
            assert energies_match_ordered_pairs(f, "anchored", memo)

    @pytest.mark.parametrize("inner", [value_inner, deriv_inner], ids=["value", "deriv"])
    def test_inner_is_symmetric(self, inner):
        """The premise of mirroring table entries."""
        for f in FACTOR_POOL:
            for g in FACTOR_POOL:
                assert bits(inner(f, g)) == bits(inner(g, f)), (f, g)

    @given(st.lists(FLOATS, max_size=20), st.lists(FLOATS, max_size=20), st.randoms())
    @settings(max_examples=200, deadline=None)
    def test_fsum_ignores_order_and_doubling(self, rest, doubled, rnd):
        pairs = rest + [q for p in doubled for q in (p, p)]
        twice = rest + [2.0 * p for p in doubled]
        shuffled = list(pairs)
        rnd.shuffle(shuffled)
        assert math.fsum(shuffled) == math.fsum(pairs) == math.fsum(twice)


class TestExports:
    @pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(tensorsplit.__path__)))
    def test_all_names_exist(self, name):
        """Every name in a submodule's ``__all__`` exists, so a star import works."""
        mod = importlib.import_module(f"tensorsplit.{name}")
        assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
        exec(f"from tensorsplit.{name} import *", {})

    @pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(tensorsplit.__path__)))
    def test_reexports_are_public(self, name):
        """Every name the package re-exports from a submodule with an
        ``__all__`` is in that ``__all__``, so no stale re-export survives."""
        tree = ast.parse(Path(tensorsplit.__file__).read_text(encoding="utf-8"))
        reexported = [alias.name for node in tree.body
                      if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == name
                      for alias in node.names]
        public = getattr(importlib.import_module(f"tensorsplit.{name}"), "__all__", None)
        if public is not None:
            assert [n for n in reexported if n not in public] == []
