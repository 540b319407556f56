"""Weight models over multi-indices and the redundant-splitting transform.

A weight model evaluates a nonnegative (possibly infinite) penalty ``a_j``
for every multi-index.  Zero encodes a dropped subspace; infinity encodes a
component that no admissible function may carry.  The variants:

* ``ProductWeights``      levels live in {0,1}; a_j is the inverse of the
                          product of per-coordinate set weights;
* ``SplineWeights``       a_j = gamma(support)^-1 * prod lam_k * 2**(2 s_k j_k),
                          the dyadic mixed-smoothness scale;
* ``AnisotropicWeights``  the same with the product replaced by a sum;
* ``TableWeights``        explicit finite table;
* ``UnitWeights``         a_j = 1 everywhere (the plain L2 target);
* ``ScaledWeights``       a constant multiple of another model;
* ``CustomWeights``       an opaque evaluator.

Product and spline models ship closed-form tail oracles (geometric series
per coordinate, products across coordinates), so the infinite sums behind
the norm-definiteness test and the orthogonalizing transform come with
convergence evidence instead of hope.

Every model also carries its weights down the index tree for the
threshold-set walks (``state``, ``enter``, ``deepen`` and ``carried``; see
``WeightModel``).  Product and spline models keep running products and
compute ``weight`` itself through ``carried``, so each weight formula is
written once; ``carried_ratio`` is ``ratio`` on carried weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .errors import (
    ConfigInvalid,
    InclusionViolated,
    NormDegenerate,
    OracleUnavailable,
    TailUnavailable,
    check_keys,
    config_bool,
    config_errors,
    config_number,
    config_numbers,
)
from .gammas import GammaModel, ProductGamma, gamma_from_json
from .indexing import ZERO_INDEX, IndexVector, SupportSet
from .sequences import (
    ConstantSeq,
    CoordSeq,
    GeometricSeq,
    ListTailSeq,
    ProductOfSeqs,
    seq_from_json,
)

__all__ = [
    "CoordParam",
    "WeightModel",
    "ProductWeights",
    "SplineWeights",
    "AnisotropicWeights",
    "TableWeights",
    "UnitWeights",
    "ScaledWeights",
    "CustomWeights",
    "TailOracle",
    "ConditionBound",
    "check_embedding",
    "redundant_norm_defined",
    "orthogonalized_weight",
    "redundant_condition_bound",
    "optimal_split_value",
    "ratio",
    "weights_from_json",
]


def exp2(x: float) -> float:
    """Base-2 exponential; one shared definition keeps comparisons bitwise stable."""
    return 2.0**x


class CoordParam:
    """A positive per-coordinate parameter: constant, listed, or affine."""

    def __init__(self, const=None, head=(), affine=None):
        self.head = tuple(float(v) for v in head)
        self.affine = affine
        if affine is not None:
            a, b = affine
            self.affine = (float(a), float(b))
            self.const = None
        else:
            if const is None:
                const = self.head[-1] if self.head else 1.0
            self.const = float(const)

    @classmethod
    def make(cls, spec) -> "CoordParam":
        """Accept a float, a list (tail = last entry), or an affine dict."""
        if isinstance(spec, CoordParam):
            return spec
        if isinstance(spec, (int, float)):
            return cls(const=float(spec))
        if isinstance(spec, (list, tuple)):
            if not spec:
                raise ConfigInvalid("parameter list must be nonempty")
            return cls(head=spec)
        if isinstance(spec, dict) and spec.get("kind") == "affine":
            return cls(affine=(spec["a"], spec["b"]))
        raise ConfigInvalid(f"bad per-coordinate parameter {spec!r}")

    @property
    def is_constant(self) -> bool:
        return self.affine is None and not self.head

    def value(self, k: int) -> float:
        if self.affine is not None:
            a, b = self.affine
            return a + b * k
        if 1 <= k <= len(self.head):
            return self.head[k - 1]
        return self.const

    def values_positive(self) -> bool:
        if self.affine is not None:
            a, b = self.affine
            return a + b > 0 and b >= 0
        return all(v > 0 for v in self.head) and self.const > 0

    def inv_seq(self) -> CoordSeq:
        """The sequence 1/value(k), for use in tail-sum bounds."""
        if self.affine is not None:
            a, b = self.affine
            # 1/(a+bk) is dominated by 1/(a+b); keep a safe constant bound
            return ConstantSeq(1.0 / (a + b))
        return self._listed_seq(lambda v: 1.0 / v)

    def dyadic_decay_seq(self) -> CoordSeq:
        """The sequence 2**(-2 * value(k)), exact per kind.

        An affine slope b so small that 2**(-2b) rounds to 1 gives the
        constant 2**(-2a), which bounds every term from above.
        """
        if self.affine is not None:
            a, b = self.affine
            rate = exp2(-2.0 * b)
            if rate == 1.0:
                return ConstantSeq(exp2(-2.0 * a))
            return GeometricSeq(exp2(-2.0 * a), rate)
        return self._listed_seq(lambda v: exp2(-2.0 * v))

    def _listed_seq(self, f) -> ListTailSeq:
        """f(value(k)) for a listed or constant parameter.  With no head it is
        a ConstantSeq, whose O(1) value and tail_sup the spline multipliers use."""
        if not self.head:
            return ConstantSeq(f(self.const))
        return ListTailSeq([f(v) for v in self.head], f(self.const))


class TailOracle:
    """Sums of inverse weights over upward-closed slices of the index set."""

    def total(self) -> float:
        """Sum of 1/a_j over the whole support (``inf`` when divergent)."""
        return self.tail(ZERO_INDEX)

    def tail(self, j: IndexVector) -> float:
        """Sum of 1/a_i over all supported i >= j."""
        raise NotImplementedError


class WeightModel:
    """Base class: a deterministic evaluator of index weights.

    Besides ``weight``, a model carries its weights down the index tree for
    the threshold-set walks.  A state holds the running products a weight
    is built from: ``state(sigma)`` is the state of the level-1 index on
    ``sigma``, ``enter(state, k)`` the state after coordinate k enters at
    level 1 and ``deepen(state, k)`` the state after the level at k rises by
    one.  ``carried(state, entries)`` is the weight of the index with those
    ``(coordinate, level)`` entries, equal to ``weight`` of that index.  By
    default there is no state and ``carried`` evaluates the index.
    """

    #: per-coordinate level cap (None = unbounded levels)
    max_level: int | None = None

    def weight(self, j: IndexVector) -> float:
        raise NotImplementedError

    def state(self, sigma: SupportSet):
        return None

    def enter(self, state, k: int):
        return None

    def deepen(self, state, k: int):
        return None

    def carried(self, state, entries: tuple[tuple[int, int], ...]) -> float:
        return self.weight(IndexVector._from_entries(entries))

    def tail_oracle(self) -> TailOracle:
        raise OracleUnavailable(f"{type(self).__name__} has no tail-sum oracle")


class UnitWeights(WeightModel):
    """a_j = 1 for every index; the support is all of the index universe."""

    def weight(self, j: IndexVector) -> float:
        return 1.0

    def carried(self, state, entries) -> float:
        return 1.0

    def tail_oracle(self) -> TailOracle:
        return _DivergentOracle()


class _DivergentOracle(TailOracle):
    def tail(self, j) -> float:
        return math.inf


class ScaledWeights(WeightModel):
    """A positive constant multiple of another model."""

    def __init__(self, base: WeightModel, factor: float):
        if factor <= 0:
            raise ConfigInvalid("scale factor must be positive")
        self.base = base
        self.factor = float(factor)
        self.max_level = base.max_level

    def weight(self, j: IndexVector) -> float:
        return self.factor * self.base.weight(j)

    def state(self, sigma: SupportSet):
        return self.base.state(sigma)

    def enter(self, state, k: int):
        return self.base.enter(state, k)

    def deepen(self, state, k: int):
        return self.base.deepen(state, k)

    def carried(self, state, entries) -> float:
        return self.factor * self.base.carried(state, entries)

    def tail_oracle(self) -> TailOracle:
        return _ScaledOracle(self.base.tail_oracle(), self.factor)


class _ScaledOracle(TailOracle):
    def __init__(self, base: TailOracle, factor: float):
        self.base = base
        self.factor = factor

    def tail(self, j):
        return self.base.tail(j) / self.factor


class ProductWeights(WeightModel):
    """Support-only weights over {0,1} levels.

    The weight of an index with support omega is the inverse of the product
    of the per-coordinate values on omega; indices with any level >= 2 lie
    outside the universe and evaluate to 0.  A vanishing coordinate value
    sends the weight to infinity (the component is suppressed entirely).
    The carried state is (gamma product, total level).
    """

    max_level = 1

    def __init__(self, gamma_seq: CoordSeq):
        self.gamma_seq = gamma_seq

    def __repr__(self):
        return f"ProductWeights({self.gamma_seq!r})"

    def weight(self, j: IndexVector) -> float:
        gw, _ = self.state(j.support)
        return self.carried((gw, j.total_level), j.entries)

    def state(self, sigma: SupportSet):
        gw = 1.0
        for k in sigma:
            gw *= self.gamma_seq.value(k)
        return gw, len(sigma)

    def enter(self, state, k: int):
        gw, total = state
        return gw * self.gamma_seq.value(k), total + 1

    def deepen(self, state, k: int):
        gw, total = state
        return gw, total + 1

    def carried(self, state, entries) -> float:
        gw, total = state
        if total > len(entries):  # some level is 2 or more: outside the universe
            return 0.0
        return math.inf if gw == 0.0 else 1.0 / gw

    def tail_oracle(self) -> TailOracle:
        return _ProductOracle(self.gamma_seq)


class _ProductOracle(TailOracle):
    def __init__(self, seq: CoordSeq):
        self.seq = seq

    @cached_property
    def _log_total(self) -> float:
        return self.seq.log1p_sum()

    def tail(self, j: IndexVector) -> float:
        gw = 1.0
        correction = 0.0
        for k, jk in j.entries:
            if jk > 1:
                return 0.0
            v = self.seq.value(k)
            if v == 0.0:
                return 0.0
            gw *= v
            correction += math.log1p(v)
        lt = self._log_total
        if lt == math.inf:
            return math.inf
        return gw * math.exp(lt - correction)


class SplineWeights(WeightModel):
    """Dyadic mixed-smoothness weights with set-dependent scaling.

    The carried state is (gamma value, lam product, total level).  The
    gamma value is carried into a new coordinate only for a gamma of exact
    type ``ProductGamma``, multiplied in coordinate order from 1.0 as its
    ``value`` does; for any other gamma ``enter`` leaves it None and
    ``carried`` reads it from the support of the entries.  The lam product
    is multiplied in ``math.prod``'s order.
    """

    def __init__(self, gamma: GammaModel, s, lam=1.0):
        self.gamma = gamma
        self.s = CoordParam.make(s)
        self.lam = CoordParam.make(lam)
        if not self.s.values_positive():
            raise ConfigInvalid("smoothness must be positive in every coordinate")
        if not self.lam.values_positive():
            raise ConfigInvalid("scale constants must be positive")

    def __repr__(self):
        return f"SplineWeights({self.gamma!r})"

    def lam_product(self, omega: SupportSet) -> float:
        return math.prod(self.lam.value(k) for k in omega)

    def weight(self, j: IndexVector) -> float:
        sigma = j.support
        return self.carried((self.gamma.value(sigma), self.lam_product(sigma), j.total_level),
                            j.entries)

    def state(self, sigma: SupportSet):
        return self.gamma.value(sigma), self.lam_product(sigma), len(sigma)

    def enter(self, state, k: int):
        gv, lam_prod, total = state
        # exact type: a subclass may define its own value
        if type(self.gamma) is ProductGamma:
            gv *= self.gamma.seq.value(k)
        else:
            gv = None
        return gv, lam_prod * self.lam.value(k), total + 1

    def deepen(self, state, k: int):
        gv, lam_prod, total = state
        return gv, lam_prod, total + 1

    def carried(self, state, entries) -> float:
        """lam_prod * 2**(2 sum_k s_k j_k) / gamma value, 1 at the zero index."""
        gv, lam_prod, total = state
        if total == 0:
            return 1.0
        if gv is None:
            gv = self.gamma.value(SupportSet(k for k, _ in entries))
        if gv == 0.0:
            return math.inf
        if self.s.is_constant:
            two_s_dot = 2.0 * self.s.const * total
        else:
            two_s_dot = math.fsum(2.0 * self.s.value(k) * jk for k, jk in entries)
        return lam_prod * exp2(two_s_dot) / gv

    def level_decay(self, k: int) -> float:
        """2**(-2 s_k): the inverse-weight shrink factor per extra level."""
        return exp2(-2.0 * self.s.value(k))

    def entry_sum(self, k: int) -> float:
        """t_k = gamma_k * lam_k^-1 * rho_k / (1 - rho_k) with rho_k = 2**(-2 s_k):
        the inverse-weight multiplier of coordinate k entering, summed over levels >= 1."""
        rho = self.level_decay(k)
        return _product_coord_value(self.gamma, k) * rho / ((1.0 - rho) * self.lam.value(k))

    def geometric_tail(self, k: int, level: int) -> float:
        """Sum over levels >= level of lam_k^-1 * 2**(-2 s_k l)."""
        rho = self.level_decay(k)
        return rho**level / ((1.0 - rho) * self.lam.value(k))

    def multiplier_seq(self) -> CoordSeq:
        """Certified upper bound on gamma_k * lam_k^-1 * 2**(-2 s_k), the
        inverse-weight multiplier of coordinate k entering at level 1 (product gamma)."""
        if not isinstance(self.gamma, ProductGamma):
            raise TailUnavailable("multiplier sequence needs product gamma")
        return ProductOfSeqs(
            [self.gamma.seq, self.lam.inv_seq(), self.s.dyadic_decay_seq()]
        )

    def tail_oracle(self) -> TailOracle:
        return _SplineOracle(self)


def _product_coord_value(gamma: GammaModel, k: int) -> float:
    if isinstance(gamma, ProductGamma):
        return gamma.seq.value(k)
    raise TailUnavailable("per-coordinate gamma value needs a product model")


class _SplineOracle(TailOracle):
    """Closed-form inverse-weight sums for spline models.

    For enumerable gamma supports the sums are finite sums of per-set
    geometric products.  For product gamma over infinitely many coordinates
    the total is the convergent product of (1 + t_k) with
    t_k = gamma_k * lam_k^-1 * rho_k / (1 - rho_k), evaluated with a
    certified remainder.
    """

    def __init__(self, model: SplineWeights):
        self.model = model
        self._enumerable = model.gamma.is_finite_support or not isinstance(
            model.gamma, ProductGamma
        )

    @cached_property
    def _log_total(self) -> float:
        """log prod_k (1 + t_k), for product gamma over infinitely many coordinates."""
        m = self.model
        mult = m.multiplier_seq()
        if mult.sum() == math.inf:
            return math.inf
        if m.s.affine is None and m.lam.affine is None:
            # beyond the listed heads both parameters are constant, so the
            # entry terms are an exactly scaled copy of the gamma sequence
            rho = exp2(-2.0 * m.s.const)
            u_tail = rho / ((1.0 - rho) * m.lam.const)
            base = m.gamma.seq.scaled(u_tail)
            total = base.log1p_sum()
            if total == math.inf:
                return math.inf
            head_len = max(len(m.s.head), len(m.lam.head))
            for k in range(1, head_len + 1):
                total += math.log1p(m.entry_sum(k)) - math.log1p(base.value(k))
            return total
        # affine smoothness: the terms decay geometrically, sum directly
        rho_seq = m.s.dyadic_decay_seq()
        return _certified_sum(lambda k: math.log1p(m.entry_sum(k)),
                              lambda k: mult.tail_sum(k) / (1.0 - rho_seq.tail_sup(k)))

    def tail(self, j: IndexVector) -> float:
        m = self.model
        sigma = j.support
        if self._enumerable:
            pieces = []
            for omega in m.gamma.iter_support():
                if not omega.issuperset(sigma):
                    continue
                term = m.gamma.value(omega)
                for k, jk in j.entries:
                    term *= m.geometric_tail(k, jk)
                for k in omega.minus(sigma):
                    term *= m.geometric_tail(k, 1)
                pieces.append(term)
            return math.fsum(pieces)
        lt = self._log_total
        if lt == math.inf:
            return math.inf
        head = 1.0
        correction = 0.0
        for k, jk in j.entries:
            gk = _product_coord_value(m.gamma, k)
            if gk == 0.0:
                return 0.0
            head *= gk * m.geometric_tail(k, jk)
            correction += math.log1p(m.entry_sum(k))
        return head * math.exp(lt - correction)


class AnisotropicWeights(WeightModel):
    """Sum-form dyadic weights: gamma(support)^-1 * sum_k 2**(2 s_k j_k)."""

    def __init__(self, gamma: GammaModel, s):
        self.gamma = gamma
        self.s = CoordParam.make(s)
        if not self.s.values_positive():
            raise ConfigInvalid("smoothness must be positive in every coordinate")

    def weight(self, j: IndexVector) -> float:
        if j.is_zero():
            return 1.0
        gv = self.gamma.value(j.support)
        if gv == 0.0:
            return math.inf
        acc = math.fsum(exp2(2.0 * self.s.value(k) * jk) for k, jk in j.entries)
        return acc / gv


class TableWeights(WeightModel):
    """Explicit finite table; absent entries evaluate to 0 (dropped)."""

    def __init__(self, entries: dict[IndexVector, float], assert_monotone: bool = False):
        table = {}
        for j, v in entries.items():
            v = float(v)
            if v < 0:
                raise ConfigInvalid("weights must be nonnegative")
            if v > 0:
                table[j] = v
        self.entries = table
        if assert_monotone:
            from .indexing import IndexSet

            if not IndexSet(table).is_monotone:
                raise ConfigInvalid("table support is not downward closed")

    def __repr__(self):
        return f"TableWeights({len(self.entries)} entries)"

    def weight(self, j: IndexVector) -> float:
        return self.entries.get(j, 0.0)

    def support(self):
        return sorted(self.entries, key=IndexVector.canonical_key)

    def tail_oracle(self) -> TailOracle:
        return _TableOracle(self)


class _TableOracle(TailOracle):
    def __init__(self, model: TableWeights):
        self.model = model

    def tail(self, j: IndexVector) -> float:
        return math.fsum(1.0 / v for i, v in self.model.entries.items() if j <= i)


class CustomWeights(WeightModel):
    """Opaque pure evaluator; tail sums require a caller-supplied oracle."""

    def __init__(self, fn: Callable[[IndexVector], float], oracle: TailOracle | None = None,
                 max_level: int | None = None):
        self.fn = fn
        self.oracle = oracle
        self.max_level = max_level

    def weight(self, j: IndexVector) -> float:
        return float(self.fn(j))

    def tail_oracle(self) -> TailOracle:
        if self.oracle is None:
            raise OracleUnavailable("custom weights need an explicit tail oracle")
        return self.oracle


# ---------------------------------------------------------------------------
# operations


def ratio(a: WeightModel, b: WeightModel, j: IndexVector) -> float:
    """The comparison ratio b_j / a_j, with dropped components mapped to 0."""
    aw = a.weight(j)
    if aw == 0.0 or math.isinf(aw):
        return 0.0
    return b.weight(j) / aw


def carried_ratio(a: WeightModel, b: WeightModel, sa, sb, entries) -> float:
    """``ratio`` of the index with these entries, from carried states of a and b."""
    aw = a.carried(sa, entries)
    if aw == 0.0 or math.isinf(aw):
        return 0.0
    return b.carried(sb, entries) / aw


def check_embedding(a: WeightModel, b: WeightModel, search) -> float | None:
    """Smallest C with b_j <= C**2 * a_j across the finite search set.

    Raises ``InclusionViolated`` when some searched index has a_j = 0 but
    b_j > 0, since no finite constant can absorb it.  Returns None when the
    search set contributes no comparable index.
    """
    sup = None
    for j in search:
        aw = a.weight(j)
        bw = b.weight(j)
        if aw == 0.0:
            if bw > 0.0:
                raise InclusionViolated(f"index {j!r} has zero a-weight but b-weight {bw}")
            continue
        if math.isinf(aw):
            continue
        q = bw / aw
        sup = q if sup is None else max(sup, q)
    return None if sup is None else math.sqrt(sup)


def redundant_norm_defined(model: WeightModel, oracle: TailOracle | None = None) -> bool:
    """True iff the inverse weights are summable over the support.

    This is exactly the condition under which the redundant-splitting
    seminorm separates points; when it fails, the constant function 1 has
    seminorm 0.
    """
    oracle = oracle or model.tail_oracle()
    return oracle.total() < math.inf


def orthogonalized_weight(
    model: WeightModel, j: IndexVector, oracle: TailOracle | None = None
) -> float:
    """Inverse tail sum of inverse weights above ``j``.

    Converts redundant-splitting weights into the equivalent weights for the
    orthogonal splitting.  Always bounded by the original weight at ``j``.
    """
    oracle = oracle or model.tail_oracle()
    if oracle.total() == math.inf:
        raise NormDegenerate(
            "inverse weights are not summable; the redundant seminorm vanishes on 1",
            unit_seminorm=0.0,
        )
    t = oracle.tail(j)
    return math.inf if t == 0.0 else 1.0 / t


@dataclass(frozen=True)
class ConditionBound:
    """A bound C**2 on the redundant/orthogonal norm ratio.

    ``certified`` distinguishes an analytically complete supremum from a
    finite-search lower bound.
    """

    c_squared: float
    certified: bool


def redundant_condition_bound(
    model: WeightModel,
    search=None,
    oracle: TailOracle | None = None,
) -> ConditionBound | None:
    """Smallest C**2 with tail-inverse sums dominated by each inverse weight.

    Returns a certified bound for product and spline models (closed forms)
    and for finite tables (exhaustive), a finite-search lower bound when only
    a search set is available, or None when the certified supremum diverges.
    Raises ``NormDegenerate`` when the inverse weights are not summable.
    """
    if isinstance(model, ScaledWeights):
        # a_j * tail(j) does not change under scaling, so the base's bound holds
        if oracle is not None:
            oracle = _ScaledOracle(oracle, 1.0 / model.factor)
        return redundant_condition_bound(model.base, search, oracle)
    oracle = oracle or model.tail_oracle()
    total = oracle.total()
    if total == math.inf:
        raise NormDegenerate(
            "inverse weights are not summable; no finite condition bound exists",
            unit_seminorm=0.0,
        )

    if isinstance(model, ProductWeights):
        # ratio a_j / ahat_j = prod over k outside the support of (1 + gamma_k),
        # maximized at the zero index where it equals the full total.
        return ConditionBound(total, certified=True)

    margin = 0.0
    if isinstance(model, TableWeights):
        indices, certified = model.entries, True
    elif isinstance(model, SplineWeights):
        if isinstance(model.gamma, ProductGamma) and not model.gamma.is_finite_support:
            return _spline_condition_bound(model)
        # a_j * tail(j) depends on j only through its support, so one
        # level-1 index per enumerable support covers every level vector
        try:
            supports = list(model.gamma.iter_support())
        except TailUnavailable:
            return None
        indices = [IndexVector(dict.fromkeys(sigma, 1)) for sigma in supports]
        certified = True
        margin = _level_one_error(model, supports)
    elif search is not None:
        indices, certified = search, False
    else:
        raise TailUnavailable("no closed form and no search set supplied")

    best = 0.0
    for j in indices:
        aw = model.weight(j)
        if aw == 0.0 or math.isinf(aw):
            continue
        best = max(best, aw * oracle.tail(j))
    if margin:
        best = math.nextafter(best * (1.0 + margin), math.inf)
    return ConditionBound(best, certified)


def _level_one_error(model: SplineWeights, supports) -> float:
    """Relative error bound of a_j * tail(j) computed at a level-1 index.

    Rounding the computed value up by it gives an upper bound of the exact
    level-independent value.  The count is first order, in units of
    u = 2**-53, for supports of at most M coordinates, with x = 2 s M the
    largest dyadic exponent and r the largest rho_k / (1 - rho_k):
      * weight: gamma and lam products (2M), the rounded exponent 2 s T,
        which moves 2**x by up to 2 ln 2 x < 1.4 x, the power (2, one ulp),
        the product and the quotient (2);
      * tail: the correctly rounded sum of positive pieces (1); per piece
        the gamma value and the products (2M), and per coordinate a
        geometric tail: the power rho (2), 1 - rho (1, plus 2r from the
        error of rho), the scale and the quotient (2);
      * the final product (1) and applying the margin (3).
    """
    coords = {k for sigma in supports for k in sigma}
    if not coords:
        return 0.0
    size = max(len(sigma) for sigma in supports)
    s_max = max(model.s.value(k) for k in coords)
    r = max(rho / (1.0 - rho) for rho in map(model.level_decay, coords))
    n = 2 * size + 1.4 * (2.0 * s_max * size) + 4 + 1 + size * (7 + 2 * r) + 4
    eps = n * 2.0**-53
    return eps / (1.0 - eps)


def _spline_condition_bound(model: SplineWeights) -> ConditionBound | None:
    # product gamma over infinitely many coordinates:
    #   sup over sigma = prod_k max(1/(1 - rho_k), 1 + t_k)
    rho_seq = model.s.dyadic_decay_seq()
    mult = model.multiplier_seq()
    if rho_seq.sum() == math.inf or mult.sum() == math.inf:
        return None  # the per-level slack or the entry multipliers are not summable
    log_bound = _certified_sum(
        lambda k: max(-math.log1p(-model.level_decay(k)), math.log1p(model.entry_sum(k))),
        lambda k: (rho_seq.tail_sum(k) + mult.tail_sum(k)) / (1.0 - rho_seq.tail_sup(k)),
    )
    return ConditionBound(math.exp(log_bound), certified=True)


def _certified_sum(term: Callable[[int], float], tail_bound: Callable[[int], float]) -> float:
    """term(1) + term(2) + ... closed at the upper end of a certified remainder.

    ``tail_bound(k)`` bounds the sum of the terms past k from above.  The
    head grows until that bound is below 1e-16 of it; the bound is then added
    in full, so the result stays an upper bound.
    """
    head = 0.0
    for k in range(1, 5_000_001):
        head += term(k)
        rem = tail_bound(k)
        if rem <= 1e-16 * (abs(head) + 1.0) or rem == math.inf:
            return head + rem
    raise TailUnavailable("spline product summation did not converge")


def optimal_split_value(a_list, u_norm_sq: float, divergent: bool = False) -> float:
    """Minimal weighted energy of a split of one vector across spaces.

    For positive weights a_1..a_n the minimum of sum a_i * ||u_i||**2 over
    all decompositions u = sum u_i equals (sum 1/a_i)**-1 * ||u||**2; a
    divergent infinite family is flagged by the caller and yields 0.
    """
    if divergent:
        return 0.0
    a_list = list(a_list)
    if not a_list:
        raise ConfigInvalid("need at least one weight")
    if any(a <= 0 for a in a_list):
        raise ConfigInvalid("weights must be positive")
    return u_norm_sq / math.fsum(1.0 / a for a in a_list)


# ---------------------------------------------------------------------------
# JSON construction


def weights_from_json(obj) -> WeightModel:
    """Build a weight model from JSON.

    Types: ``unit``; ``product`` (gamma sequence spec); ``spline`` (gamma
    model, s, lam); ``aniso`` (gamma model, s); ``table`` (entries as
    [index, value] pairs); ``scaled`` (base, factor).
    """
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigInvalid(f"weight spec must be an object with 'type': {obj!r}")
    t = obj["type"]
    with config_errors("weight spec"):
        if t == "unit":
            check_keys(obj, "weight spec", {"type"})
            return UnitWeights()
        if t == "product":
            check_keys(obj, "weight spec", {"type", "gamma"})
            return ProductWeights(seq_from_json(obj["gamma"]))
        if t == "spline":
            check_keys(obj, "weight spec", {"type", "gamma"}, {"s", "lam"})
            return SplineWeights(gamma_from_json(obj["gamma"]),
                                 _param_spec(obj.get("s", 1.0), "s"),
                                 _param_spec(obj.get("lam", 1.0), "lam"))
        if t == "aniso":
            check_keys(obj, "weight spec", {"type", "gamma"}, {"s"})
            return AnisotropicWeights(gamma_from_json(obj["gamma"]),
                                      _param_spec(obj.get("s", 1.0), "s"))
        if t == "table":
            check_keys(obj, "weight spec", {"type", "entries"}, {"assert_monotone"})
            entries = {}
            for pair in obj["entries"]:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ConfigInvalid(f"table entry must be [index, value]: {pair!r}")
                j = IndexVector.from_json_obj(pair[0])
                if j in entries:
                    raise ConfigInvalid(f"weight table repeats index {pair[0]!r}")
                entries[j] = config_number(pair[1], float, "weight table value")
            monotone = config_bool(obj.get("assert_monotone", False), "assert_monotone")
            return TableWeights(entries, assert_monotone=monotone)
        if t == "scaled":
            check_keys(obj, "weight spec", {"type", "base", "factor"})
            return ScaledWeights(weights_from_json(obj["base"]),
                                 config_number(obj["factor"], float, "scale factor"))
    raise ConfigInvalid(f"unknown weight type {t!r}")


def _param_spec(spec, name: str):
    """A number, list or affine ``s``/``lam`` spec, its numbers read by ``config_number``."""
    if isinstance(spec, dict) and spec.get("kind") == "affine":
        check_keys(spec, f"affine {name} spec", {"kind", "a", "b"})
        return {"kind": "affine", "a": config_number(spec["a"], float, f"{name} a"),
                "b": config_number(spec["b"], float, f"{name} b")}
    if isinstance(spec, list):
        return config_numbers(spec, float, name)
    return config_number(spec, float, name)
