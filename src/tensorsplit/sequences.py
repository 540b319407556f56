"""Per-coordinate parameter sequences with certified infinite sums.

Weight models quantify over infinitely many coordinates, so convergence
evidence has to be explicit.  Every sequence kind here knows its exact or
rigorously bounded tail sums:

* ``PowerSeq``      c * k**(-p), tails via the Hurwitz zeta function
                    (``_hurwitz_zeta``, a pure-Python port of Cephes'
                    Euler--Maclaurin ``zeta`` that ``scipy.special.zeta``
                    evaluates, bit for bit the same);
* ``GeometricSeq``  c * rho**k, closed-form geometric tails;
* ``ListTailSeq``   explicit head values, constant tail, with the cases
                    ``FiniteSeq`` (tail 0) and ``ConstantSeq`` (no head);
* ``ProductOfSeqs`` pointwise product, tail-bounded factorwise.

Sums of non-summable sequences are reported as ``math.inf`` rather than
raising, so callers can branch on finiteness.
"""

from __future__ import annotations

import math

from .errors import (ConfigInvalid, TailUnavailable, check_keys, config_errors, config_number,
                     config_numbers)

__all__ = [
    "CoordSeq",
    "PowerSeq",
    "GeometricSeq",
    "FiniteSeq",
    "ConstantSeq",
    "ListTailSeq",
    "ProductOfSeqs",
    "seq_ratio",
    "seq_from_json",
]

# log1p terms below this relative size are folded into a certified remainder
_REL_TOL = 1e-16

#: Cephes' MACHEP, the stopping tolerance of ``_hurwitz_zeta``
_MACHEP = 2.0**-53
#: Cephes' Euler--Maclaurin denominators, (2j)! / B_2j for j = 1..12
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
           7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
           -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18)


def _hurwitz_zeta(x: float, q: float) -> float:
    """Sum over n >= 0 of (n + q)**-x, for x > 1 and q >= 1.

    Cephes' ``zeta(x, q)`` operation for operation: q**-x plus direct terms
    (n + q)**-x, stopping at the first below MACHEP of the sum.  When none
    is by the ninth term and n + q > 9, the Euler--Maclaurin remainder at
    w = n + q closes the sum, with up to twelve Bernoulli corrections.  Past
    q = 1e8 it is the asymptotic (1/(x-1) + 1/(2q)) q**(1-x).  Python's
    ``**`` is C's ``pow``, so the result is the one ``scipy.special.zeta``
    returns.
    """
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q**-x
    if s == 0.0:
        # every later term underflows too; C carries 0/0 = NaN through the
        # stopping tests and returns this 0.0, where Python would raise
        return 0.0
    a = q
    i = 0
    b = 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a = 1.0
    k = 0.0
    for denom in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / denom
        s += t
        if abs(t / s) < _MACHEP:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


class CoordSeq:
    """A nonnegative sequence indexed by coordinates k = 1, 2, ...

    Subclasses provide exact values plus certified tail machinery.  The
    ``nonincreasing_from`` attribute names an index from which on the values
    never increase; scans past it may stop at the first value under a
    threshold.  A growing ``PowerSeq`` quotient (p < 0) keeps the default 1,
    which does not hold for it: ``epsdim._BoostTable`` reads one value far
    out before its scan, and that value settles such a sequence.
    """

    nonincreasing_from = 1

    def value(self, k: int) -> float:
        raise NotImplementedError

    def sum(self) -> float:
        """Sum over all k >= 1 (``inf`` when divergent)."""
        return self.tail_sum(0)

    def tail_sum(self, k0: int) -> float:
        """Sum over k > k0 (``inf`` when divergent)."""
        raise NotImplementedError

    def tail_sup(self, k0: int) -> float:
        """Upper bound on sup over k > k0 of the values."""
        raise NotImplementedError

    @property
    def decays_to_zero(self) -> bool:
        raise NotImplementedError

    @property
    def max_support(self) -> int | None:
        """Last coordinate with a nonzero value, or None if unbounded."""
        return None

    def log1p_sum(self) -> float:
        """Sum of log(1 + value(k)) over all k, i.e. log of prod(1 + v_k).

        Exact head summation plus a second-order tail correction: past the
        head, log1p(v) = v - v**2/2 up to an error below v**3/3, so the
        remainder is tail_sum - tail_sum_of_squares/2 with a certified error
        bound.  Returns ``inf`` when the sequence is not summable, and
        raises ``ConfigInvalid`` when the squares past the head overflow.
        """
        if self.sum() == math.inf:
            return math.inf
        head = 0.0
        k = 0
        target = 16
        while True:
            while k < target:
                k += 1
                head += math.log1p(self.value(k))
            t1 = self.tail_sum(k)
            if t1 == 0.0:
                return head
            sup = self.tail_sup(k)
            if sup * sup == math.inf:
                raise ConfigInvalid(f"the squares of the terms of {self!r} past coordinate {k} "
                                    "overflow the float range")
            err = sup * sup * t1 / 3.0
            if err <= _REL_TOL * (abs(head) + 1.0):
                # the squares are built only here: a sequence whose tail is
                # 0 never needs them, and squaring its head may overflow
                return head + t1 - 0.5 * self.powered(2).tail_sum(k)
            target *= 2
            if target > 2**22:
                raise TailUnavailable("log1p summation did not converge")

    # derived sequences -------------------------------------------------

    def scaled(self, t: float) -> "CoordSeq":
        raise TailUnavailable(f"cannot scale {type(self).__name__}")

    def powered(self, i: float) -> "CoordSeq":
        raise TailUnavailable(f"cannot raise {type(self).__name__} to a power")

    def sqrt(self) -> "CoordSeq":
        return self.powered(0.5)


class PowerSeq(CoordSeq):
    """c * k**(-p) with c >= 0.

    A config gives p >= 0 (``seq_from_json``); a negative p is a growing
    quotient built by ``seq_ratio``, whose tails are infinite.
    """

    def __init__(self, c: float, p: float):
        if c < 0:
            raise ValueError("scale must be nonnegative")
        self.c = float(c)
        self.p = float(p)

    def __repr__(self):
        return f"PowerSeq(c={self.c}, p={self.p})"

    def value(self, k: int) -> float:
        return self.c * float(k) ** (-self.p)

    def tail_sum(self, k0: int) -> float:
        if self.c == 0:
            return 0.0
        if self.p <= 1:
            return math.inf
        return self.c * _hurwitz_zeta(self.p, float(k0 + 1))

    def tail_sup(self, k0: int) -> float:
        return self.value(k0 + 1) if self.p >= 0 else math.inf

    @property
    def decays_to_zero(self) -> bool:
        return self.c == 0 or self.p > 0

    @property
    def max_support(self):
        return 0 if self.c == 0 else None

    def scaled(self, t):
        return PowerSeq(self.c * t, self.p)

    def powered(self, i):
        return PowerSeq(self.c**i, self.p * i)


class GeometricSeq(CoordSeq):
    """c * rho**k with 0 <= rho < 1."""

    def __init__(self, c: float, rho: float):
        if c < 0:
            raise ValueError("scale must be nonnegative")
        if not 0 <= rho < 1:
            raise ValueError("ratio must lie in [0, 1)")
        self.c = float(c)
        self.rho = float(rho)

    def __repr__(self):
        return f"GeometricSeq(c={self.c}, rho={self.rho})"

    def value(self, k: int) -> float:
        return self.c * self.rho**k

    def tail_sum(self, k0: int) -> float:
        if self.c == 0 or self.rho == 0:
            return 0.0 if k0 >= 1 or self.c == 0 else self.value(1)
        return self.c * self.rho ** (k0 + 1) / (1.0 - self.rho)

    def tail_sup(self, k0: int) -> float:
        return self.value(k0 + 1)

    @property
    def decays_to_zero(self) -> bool:
        return True

    @property
    def max_support(self):
        return 0 if self.c == 0 or self.rho == 0 else None

    def scaled(self, t):
        return GeometricSeq(self.c * t, self.rho)

    def powered(self, i):
        return GeometricSeq(self.c**i, self.rho**i)


class ListTailSeq(CoordSeq):
    """Explicit head values followed by a constant tail value."""

    def __init__(self, head, tail_value: float):
        self.head = tuple(float(v) for v in head)
        self.tail_value = float(tail_value)
        if any(v < 0 for v in self.head) or self.tail_value < 0:
            raise ValueError("values must be nonnegative")
        self.nonincreasing_from = len(self.head) + 1

    def value(self, k: int) -> float:
        return self.head[k - 1] if 0 < k <= len(self.head) else self.tail_value

    def tail_sum(self, k0: int) -> float:
        return math.fsum(self.head[k0:]) if self.tail_value == 0 else math.inf

    def tail_sup(self, k0: int) -> float:
        return max(self.head[k0:] + (self.tail_value,))

    @property
    def decays_to_zero(self) -> bool:
        return self.tail_value == 0

    @property
    def max_support(self):
        if self.tail_value > 0:
            return None
        return max((k for k, v in enumerate(self.head, 1) if v > 0), default=0)

    def _like(self, head, tail_value) -> "ListTailSeq":
        """A sequence of this kind; ``scaled`` and ``powered`` keep the kind."""
        return ListTailSeq(head, tail_value)

    def scaled(self, t):
        return self._like([v * t for v in self.head], self.tail_value * t)

    def powered(self, i):
        return self._like([v**i for v in self.head], self.tail_value**i)


class FiniteSeq(ListTailSeq):
    """Explicit values for k = 1..len(values), zero beyond."""

    def __init__(self, values):
        super().__init__(values, 0.0)
        self.values = self.head

    def __repr__(self):
        return f"FiniteSeq({list(self.values)})"

    def _like(self, head, tail_value):
        return FiniteSeq(head)


class ConstantSeq(ListTailSeq):
    """The same value at every coordinate; decays only when zero."""

    def __init__(self, c: float):
        super().__init__((), c)
        self.c = self.tail_value

    def __repr__(self):
        return f"ConstantSeq({self.c})"

    # O(1): the spline entry multipliers call these for every coordinate
    def value(self, k: int) -> float:
        return self.c

    def tail_sup(self, k0: int) -> float:
        return self.c

    def _like(self, head, tail_value):
        return ConstantSeq(tail_value)


class ProductOfSeqs(CoordSeq):
    """Pointwise product of component sequences.

    Tail sums use that for k > k0 the product is bounded by one factor's
    value times the other factors' suprema, so summability of any one
    summable factor with bounded partners certifies the product tail.
    """

    def __init__(self, parts):
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("need at least one factor")
        self.nonincreasing_from = max(p.nonincreasing_from for p in self.parts)

    def value(self, k: int) -> float:
        v = 1.0
        for p in self.parts:
            v *= p.value(k)
        return v

    def tail_sum(self, k0: int) -> float:
        best = math.inf
        for i, p in enumerate(self.parts):
            s = p.tail_sum(k0)
            if s == math.inf:
                continue
            bound = s
            for jdx, q in enumerate(self.parts):
                if jdx != i:
                    bound *= q.tail_sup(k0)
            best = min(best, bound)
        return best

    def tail_sup(self, k0: int) -> float:
        v = 1.0
        for p in self.parts:
            v *= p.tail_sup(k0)
        return v

    @property
    def decays_to_zero(self) -> bool:
        if any(p.max_support == 0 for p in self.parts):
            return True
        bounded = all(p.tail_sup(0) < math.inf for p in self.parts)
        return bounded and any(p.decays_to_zero for p in self.parts)

    @property
    def max_support(self):
        sups = [p.max_support for p in self.parts if p.max_support is not None]
        return min(sups) if sups else None


def seq_ratio(num: CoordSeq, den: CoordSeq) -> CoordSeq:
    """Pointwise quotient num_k / den_k, staying inside the closed-form kinds.

    Raises ``TailUnavailable`` when the quotient leaves the family (for
    example when it grows), since its tails could not be certified.
    """
    if isinstance(den, ConstantSeq):
        if den.c == 0:
            raise TailUnavailable("division by a zero sequence")
        return num.scaled(1.0 / den.c)
    if isinstance(num, PowerSeq) and isinstance(den, PowerSeq):
        if den.c == 0:
            raise TailUnavailable("division by a zero sequence")
        return PowerSeq(num.c / den.c, num.p - den.p)
    if isinstance(num, GeometricSeq) and isinstance(den, GeometricSeq):
        if den.c == 0 or den.rho == 0:
            raise TailUnavailable("division by a degenerate geometric sequence")
        r = num.rho / den.rho
        if r < 1.0:
            return GeometricSeq(num.c / den.c, r)
        if r == 1.0:
            return ConstantSeq(num.c / den.c)
        raise TailUnavailable("quotient sequence grows geometrically")
    if isinstance(num, FiniteSeq):
        dens = [den.value(k) for k in range(1, len(num.values) + 1)]
        if any(d == 0.0 != v for v, d in zip(num.values, dens)):
            raise TailUnavailable("denominator vanishes where numerator does not")
        return FiniteSeq(v / d if v != 0.0 else 0.0 for v, d in zip(num.values, dens))
    raise TailUnavailable(f"cannot divide {type(num).__name__} by {type(den).__name__}")


def seq_from_json(obj) -> CoordSeq:
    """Build a sequence from its JSON description.

    Kinds: ``power`` (c, p), ``geometric`` (c, rho), ``finite`` (values),
    ``constant`` (value).
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigInvalid(f"sequence spec must be an object with 'kind': {obj!r}")
    kind = obj["kind"]
    with config_errors(f"sequence spec {obj!r}"):
        if kind == "power":
            check_keys(obj, "sequence spec", {"kind", "c", "p"})
            seq = PowerSeq(config_number(obj["c"], float, "power c"),
                           config_number(obj["p"], float, "power p"))
            if seq.p < 0:
                raise ValueError("exponent must be nonnegative")
            return seq
        if kind == "geometric":
            check_keys(obj, "sequence spec", {"kind", "c", "rho"})
            return GeometricSeq(config_number(obj["c"], float, "geometric c"),
                                config_number(obj["rho"], float, "geometric rho"))
        if kind == "finite":
            check_keys(obj, "sequence spec", {"kind", "values"})
            return FiniteSeq(config_numbers(obj["values"], float, "finite values"))
        if kind == "constant":
            check_keys(obj, "sequence spec", {"kind", "value"})
            return ConstantSeq(config_number(obj["value"], float, "constant value"))
    raise ConfigInvalid(f"unknown sequence kind {kind!r}")
