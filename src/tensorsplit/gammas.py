"""Weight sequences indexed by finite coordinate sets (gamma models).

A gamma model assigns a nonnegative value to every finite set of
coordinates, with the empty set pinned to 1.  Three shapes are supported:

* ``ProductGamma``     gamma_omega = prod of per-coordinate values;
* ``TableGamma``       explicit finite table, absent sets evaluate to 0;
* ``FiniteOrderGamma`` any base model with sets larger than a cutoff zeroed.

Besides pointwise evaluation, models expose order-graded sums
``sum over |omega| = l of t**l * gamma_omega`` used by truncation bounds and
equivalence certificates; for product models these come from Newton's
identities on certified power sums, so no infinite support is ever
enumerated.
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import (ConfigInvalid, TailUnavailable, check_keys, config_bool, config_errors,
                     config_number)
from .indexing import EMPTY_SUPPORT, SupportSet
from .sequences import CoordSeq, seq_from_json

__all__ = ["GammaModel", "ProductGamma", "TableGamma", "FiniteOrderGamma", "gamma_from_json"]


class GammaModel:
    """Base class; values are nonnegative and the empty set maps to 1."""

    def value(self, omega: SupportSet) -> float:
        raise NotImplementedError

    @property
    def is_finite_support(self) -> bool:
        return False

    def iter_support(self) -> Iterator[SupportSet]:
        """Iterate supports with nonzero value (finite-support models only)."""
        raise TailUnavailable(f"{type(self).__name__} support is not enumerable")

    def order_sums(self, t: float, m: int) -> tuple[list[float], float]:
        """Return ``([e_0, ..., e_m], total)`` for the series in ``t``.

        ``e_l`` is the sum of ``t**l * gamma_omega`` over all sets of size l,
        and ``total`` is the sum over every finite set (``inf`` when the
        series diverges).
        """
        raise TailUnavailable(f"{type(self).__name__} has no order-sum oracle")

    def max_order(self) -> int | None:
        """Largest set size with nonzero weight, or None if unbounded."""
        return None

    def mask_values(self, dim: int) -> list[float]:
        """``value`` of every subset of 1..dim, at the subset's bitmask
        (coordinate k is bit k - 1)."""
        return [self.value(SupportSet._from_coords(tuple(k + 1 for k in range(dim) if mask >> k & 1)))
                for mask in range(1 << dim)]


class ProductGamma(GammaModel):
    """gamma_omega as a product of per-coordinate values."""

    def __init__(self, seq: CoordSeq):
        self.seq = seq

    def __repr__(self):
        return f"ProductGamma({self.seq!r})"

    def value(self, omega: SupportSet) -> float:
        v = 1.0
        for k in omega:
            v *= self.seq.value(k)
        if math.isnan(v):  # inf * 0: the product met a zero weight
            return 0.0
        return v

    def mask_values(self, dim: int) -> list[float]:
        """gamma_u = gamma_{u - max u} * gamma_{max u}: the multiplications
        of ``value`` in its order, the set with the top bit after the set
        without it; a nan (inf * 0) stays nan along the chain and is read as
        0, as ``value`` reads it."""
        values = [1.0]
        for k in range(1, dim + 1):
            g = self.seq.value(k)
            values += [v * g for v in values]
        return [0.0 if v != v else v for v in values]

    @property
    def is_finite_support(self) -> bool:
        return self.seq.max_support is not None

    def iter_support(self) -> Iterator[SupportSet]:
        last = self.seq.max_support
        if last is None:
            raise TailUnavailable("product gamma over an infinite sequence")
        active = SupportSet(k for k in range(1, last + 1) if self.seq.value(k) > 0)
        yield from active.subsets()

    def order_sums(self, t: float, m: int) -> tuple[list[float], float]:
        scaled = self.seq.scaled(t)
        if scaled.sum() == math.inf:
            return _newton_elementary(scaled, m), math.inf
        total = math.exp(scaled.log1p_sum())
        return _newton_elementary(scaled, m), total

    def max_order(self):
        last = self.seq.max_support
        if last is None:
            return None
        return sum(1 for k in range(1, last + 1) if self.seq.value(k) > 0)


class TableGamma(GammaModel):
    """Explicit finite table of set weights; the empty set is always 1."""

    def __init__(self, entries: dict[SupportSet, float], assert_monotone: bool = False):
        table = {EMPTY_SUPPORT: 1.0}
        for omega, v in entries.items():
            v = float(v)
            if v < 0:
                raise ConfigInvalid("gamma values must be nonnegative")
            if omega == EMPTY_SUPPORT:
                if v != 1.0:
                    raise ConfigInvalid("the empty-set gamma must equal 1")
                continue
            if v > 0:
                table[omega] = v
        self.entries = table
        if assert_monotone and not self._support_monotone():
            raise ConfigInvalid("gamma support is not closed under taking subsets")

    def _support_monotone(self) -> bool:
        for omega in self.entries:
            for k in omega:
                if omega.minus(SupportSet.of(k)) not in self.entries:
                    return False
        return True

    def __repr__(self):
        return f"TableGamma({len(self.entries)} entries)"

    def value(self, omega: SupportSet) -> float:
        return self.entries.get(omega, 0.0)

    def mask_values(self, dim: int) -> list[float]:
        values = [0.0] * (1 << dim)
        for omega, v in self.entries.items():
            if all(k <= dim for k in omega):
                values[sum(1 << (k - 1) for k in omega)] = v
        return values

    @property
    def is_finite_support(self) -> bool:
        return True

    def iter_support(self) -> Iterator[SupportSet]:
        yield from sorted(self.entries, key=SupportSet.canonical_key)

    def order_sums(self, t: float, m: int) -> tuple[list[float], float]:
        by_order = [0.0] * (m + 1)
        pieces = []
        for omega in self.iter_support():
            term = t ** len(omega) * self.entries[omega]
            pieces.append(term)
            if len(omega) <= m:
                by_order[len(omega)] += term
        return by_order, math.fsum(pieces)

    def max_order(self):
        return max((len(w) for w in self.entries), default=0)


class FiniteOrderGamma(GammaModel):
    """Wraps a base model, zeroing all sets larger than ``order``."""

    def __init__(self, base: GammaModel, order: int):
        if order < 0:
            raise ConfigInvalid("order must be nonnegative")
        self.base = base
        self.order = int(order)

    def __repr__(self):
        return f"FiniteOrderGamma({self.base!r}, order={self.order})"

    def value(self, omega: SupportSet) -> float:
        return self.base.value(omega) if len(omega) <= self.order else 0.0

    def mask_values(self, dim: int) -> list[float]:
        values = self.base.mask_values(dim)
        return [v if mask.bit_count() <= self.order else 0.0 for mask, v in enumerate(values)]

    @property
    def is_finite_support(self) -> bool:
        return self.base.is_finite_support

    def iter_support(self) -> Iterator[SupportSet]:
        for omega in self.base.iter_support():
            if len(omega) <= self.order:
                yield omega

    def order_sums(self, t: float, m: int) -> tuple[list[float], float]:
        upto = max(m, self.order)
        base_sums, _ = self.base.order_sums(t, upto)
        kept = [base_sums[l] if l <= self.order else 0.0 for l in range(m + 1)]
        total = math.fsum(base_sums[: self.order + 1])
        return kept, total

    def max_order(self):
        base_order = self.base.max_order()
        return self.order if base_order is None else min(self.order, base_order)


def _newton_elementary(seq: CoordSeq, m: int) -> list[float]:
    """Elementary symmetric sums e_0..e_m of a summable sequence.

    Uses Newton's identities on the power sums p_i = sum_k v_k**i.  The
    power sums of our sequence kinds stay in the same closed-form family,
    so each p_i carries its own certified tail.
    """
    if m < 0:
        return []
    p = [0.0]
    for i in range(1, m + 1):
        s = seq.powered(i).sum()
        if s == math.inf:
            return [1.0] + [math.inf] * m
        p.append(s)
    e = [1.0]
    for l in range(1, m + 1):
        acc = math.fsum((-1) ** (i - 1) * e[l - i] * p[i] for i in range(1, l + 1))
        e.append(acc / l)
    return e


def gamma_from_json(obj) -> GammaModel:
    """Build a gamma model from JSON.

    Kinds: ``product`` (seq), ``table`` (entries as [support, value] pairs),
    ``finite_order`` (base, order).
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigInvalid(f"gamma spec must be an object with 'kind': {obj!r}")
    kind = obj["kind"]
    with config_errors("gamma spec"):
        if kind == "product":
            check_keys(obj, "gamma spec", {"kind", "seq"})
            return ProductGamma(seq_from_json(obj["seq"]))
        if kind == "table":
            check_keys(obj, "gamma spec", {"kind", "entries"}, {"assert_monotone"})
            entries = {}
            for pair in obj["entries"]:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ConfigInvalid(f"table entry must be [support, value]: {pair!r}")
                omega = SupportSet.from_json_obj(pair[0])
                if omega in entries:
                    raise ConfigInvalid(f"gamma table repeats support {pair[0]!r}")
                entries[omega] = config_number(pair[1], float, "gamma table value")
            monotone = config_bool(obj.get("assert_monotone", False), "assert_monotone")
            return TableGamma(entries, assert_monotone=monotone)
        if kind == "finite_order":
            check_keys(obj, "gamma spec", {"kind", "base", "order"})
            return FiniteOrderGamma(gamma_from_json(obj["base"]),
                                    config_number(obj["order"], int, "finite_order order"))
    raise ConfigInvalid(f"unknown gamma kind {kind!r}")
