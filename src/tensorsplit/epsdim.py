"""Threshold index sets and exact eps-dimension computation.

The eps-dimension of a weighted-space pair (a, b) is the total dimension of
the subspaces whose comparison ratio c_j = b_j / a_j stays at or above
eps**2 (the boundary is included).  Enumeration is exact, so the returned
set is the full threshold set, not a heuristic approximation.

Every route yields members ``(key, total level, count, ratio)``, and the
decay certificate picks the route: a ``FiniteUniverse`` tests its listed
candidates, a ``SupportDecay`` scans each support's level lattice, and a
``ProductDecay`` walks the index tree breadth first, one total level at a
time, pruning branches with a certified bound on how much the ratio can
still grow when new coordinates enter.  A key is an index's entries, or,
for level-graded pairs (unit, product and common-smoothness spline
weights, scaled or not), a support's coordinates: all indices sharing a
support and a total level carry the same ratio and meet the same tests,
and their number, the count, is a binomial coefficient.  Both
``eps_dimension`` and ``spline_eps_dimension`` count these groups for such
pairs; the latter also reports the coarser closed-form bound in which the
per-(support, excess) population is replaced by |support|**excess.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import ConfigInvalid, EnumerationCap, NotCompact, TailUnavailable, TensorsplitError
from .gammas import GammaModel, ProductGamma
from .indexing import EMPTY_SUPPORT, IndexSet, IndexVector, SupportSet
from .sequences import ConstantSeq, CoordSeq, ProductOfSeqs, seq_ratio
from .weights import (
    AnisotropicWeights,
    ProductWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    WeightModel,
    _strip_scale,
    carried_ratio,
    exp2,
    ratio,
)

__all__ = [
    "DimensionModel",
    "AllOneDims",
    "SplineDims",
    "EpsDimResult",
    "ThresholdSet",
    "FiniteUniverse",
    "ProductDecay",
    "auto_certificate",
    "enumerate_threshold_set",
    "eps_dimension",
    "eps_dimension_table",
    "spline_eps_dimension",
]

DEFAULT_CAP = 10_000_000
#: last coordinate any coordinate scan reaches before raising EnumerationCap
COORD_GUARD = 10_000_000
_GUARD_HIT = "coordinate scan exceeded the hard guard"
_ABOVE_ONE = "entry multipliers stay above 1 for arbitrarily large coordinates"
#: most supports (the empty one too) a walk with an unbounded cap reaches
#: before raising EnumerationCap
SUPPORT_CAP = 1_000_000
#: ``_walk``'s scans, level prechecks and push tests compare with eps2 * _PRUNE_FLOOR.  A bound
#: (a node's ratio times boost-table floats) and a descendant's ratio below it round apart by
#: about 11 u (u = 2**-53) per support coordinate and 360 u per dyadic factor 2**(2 s T): four,
#: two in each ratio, and a fifth where a precheck's ``level`` stands in for the child's factors
#: at T + 1 (table entries about 2 * 360 u from the node's at T): < 2**13 u up to 500 coordinates
_PRUNE_FLOOR = 1.0 - 2.0**-40


class DimensionModel:
    """Dimensions of the per-coordinate subspaces W_{j,k}."""

    def coord_dim(self, j: int, k: int) -> int:
        raise NotImplementedError

    def subspace_dim(self, j: IndexVector) -> int:
        d = 1
        for k, jk in j.entries:
            d *= self.coord_dim(jk, k)
        return d


class AllOneDims(DimensionModel):
    """Every subspace is one-dimensional (orthonormal-system splittings)."""

    def coord_dim(self, j: int, k: int) -> int:
        return 1


class SplineDims(DimensionModel):
    """Dyadic complement dimensions: 1 at level 0, 2**(j-1) for j >= 1."""

    def coord_dim(self, j: int, k: int) -> int:
        return 1 if j == 0 else 2 ** (j - 1)


#: subspace dimension of every index with ``size`` active coordinates and
#: total level ``total``, for the dimension models where it depends on no more
_GROUP_DIM = {AllOneDims: lambda size, total: 1, SplineDims: lambda size, total: 2 ** (total - size)}


def dims_from_json(obj) -> DimensionModel:
    if obj == "all_one":
        return AllOneDims()
    if obj == "spline":
        return SplineDims()
    raise ConfigInvalid(f"unknown dimension model {obj!r}")


def _threshold(eps: float) -> float:
    """The ratio threshold eps**2 of a positive eps."""
    if not eps > 0:
        raise ConfigInvalid("eps must be positive")
    return eps * eps


def _check_restriction(d: int):
    if d < 0:
        raise ConfigInvalid("restriction dimension must be nonnegative")


class ThresholdSet(IndexSet):
    """A threshold set that keeps the comparison ratio of each member.

    ``ratios`` is that dict, or a function returning it, called when the
    set is first read.
    """

    def __init__(self, ratios):
        self._ratios = ratios

    @cached_property
    def ratios(self) -> dict[IndexVector, float]:
        return self._ratios() if callable(self._ratios) else self._ratios

    @cached_property
    def members(self):
        return frozenset(self.ratios)


@dataclass(frozen=True)
class EpsDimResult:
    """Exact dimension count for one threshold level.

    ``index_set`` is the threshold set (on the grouped route built when
    first read) and None for ``spline_eps_dimension``; ``coarse_bound``
    carries the coarser closed-form upper bound where available.
    ``members`` holds member groups ``(max_coord, dimension sum, count,
    ratio)`` sorted by max_coord: one per (support, total level) group on
    the grouped route, one per index with count 1 otherwise.  ``n`` is the
    sum of the dimensions and ``table`` reads the groups, including the
    counts over the coordinates <= d and the coordinate d0 where they
    stabilize (``index_set.max_coord``).
    """

    n: int
    eps: float
    index_set: IndexSet | None = None
    coarse_bound: int | None = None
    members: list = field(default_factory=list, compare=False, repr=False)

    def table(self, eps_list, ds):
        """Counts at each eps of ``eps_list``, none below this result's eps,
        read from the member ratios by the enumeration's own test.

        Threshold sets nest in eps, and so does the walk that finds them,
        so one enumeration at the smallest eps serves every larger one.
        Yields ``(eps, d0, counts)`` in order, where ``counts`` holds the
        ``(n, set size)`` of the full set and then of its members on the
        coordinates <= d for each d in ``ds``; d0, the set's largest
        coordinate, is the smallest d whose row equals the full one.  The d
        rows are prefix sums of the dimensions and counts of the member
        groups, which are sorted by max_coord.
        """
        for eps in eps_list:
            eps2 = _threshold(eps)
            if eps < self.eps:
                raise ValueError(f"eps {eps} lies below the enumerated eps {self.eps}")
            coords, n_upto, size_upto = [], [0], [0]
            for k, n, size, c in self.members:
                if c >= eps2:
                    coords.append(k)
                    n_upto.append(n_upto[-1] + n)
                    size_upto.append(size_upto[-1] + size)
            counts = [(n_upto[-1], size_upto[-1])]
            for d in ds:
                _check_restriction(d)
                i = bisect.bisect_right(coords, d)
                counts.append((n_upto[i], size_upto[i]))
            yield eps, (coords[-1] if coords else 0), counts


# ---------------------------------------------------------------------------
# decay certificates


@dataclass(frozen=True)
class FiniteUniverse:
    """All candidate indices are known in advance (finite tables)."""

    candidates: tuple[IndexVector, ...]


@dataclass(frozen=True)
class SupportDecay:
    """Finitely many admissible supports; the ratio decays in every level.

    Used for level-graded models whose set weights have enumerable support:
    per support the surviving levels form a downward-closed box scanned
    directly.
    """

    supports: tuple[SupportSet, ...]


@dataclass(frozen=True)
class ProductDecay:
    """Per-coordinate upper bounds on the ratio multiplier at entry, and one
    for raising a level.

    ``mult.value(k)`` bounds c_{j + l*e_k} / c_j over all levels l >= 1 and
    all j not containing k; ``level``, at most 1, bounds c_{j + e_k} / c_j
    over all j containing k, so raising an existing level never increases c.
    """

    mult: CoordSeq
    level: float = 1.0


class _BoostTable:
    """Cached suffix products of multipliers exceeding one, and a
    per-coordinate table of what the entry scan (``scan_end``) reads.

    ``k_last`` is the last coordinate whose multiplier is at least
    1 + 2**-52.  The constructor finds it with one scan of
    ``mult.value``, stopping where the sequence's own facts allow:
    ``nonincreasing_from``, ``max_support`` and ``decays_to_zero``.  Before
    it, one value past ``COORD_GUARD`` settles the sequences whose
    multipliers stay above one there: ``NotCompact`` if they do not decay,
    ``EnumerationCap`` if they do.

    For each k from 0 up to the last coordinate a scan has read,
    ``sup[k]`` is ``mult.tail_sup(k)``, a bound on the multiplier of every
    coordinate past k, and ``after[k]`` bounds the boost that coordinates
    past k can still give.  Neither increases with k, and ``after`` is 1.0
    from ``k_last`` on, so where the multipliers decay a scan enters every
    coordinate up to ``COORD_GUARD`` exactly when it does not stop there:
    ``guard_sup``, ``mult.tail_sup(COORD_GUARD)``, settles that at the start
    of the scan.  The lists grow one coordinate at a time as scans reach it,
    so a product of sequences walks its factors once per coordinate, not
    once per node; a walk reads ``after`` directly over the coordinates a
    scan entered.
    """

    def __init__(self, mult: CoordSeq):
        self.mult = mult
        boosting = math.nextafter(1.0, math.inf)
        settled = mult.nonincreasing_from
        support = mult.max_support
        decays = mult.decays_to_zero
        if support is None:
            try:
                far = mult.value(COORD_GUARD + 1)
            except OverflowError:  # a growing power quotient leaves the float range
                far = math.inf
            if far >= boosting:
                # the values do not increase past nonincreasing_from (a growing
                # quotient only grows), so they stay above one past the guard
                raise NotCompact(_ABOVE_ONE) if not decays else EnumerationCap(_GUARD_HIT)
        # the kept max(1, M_k), turned in place into
        # suffix[k] = prod over i in [k, k_last] of max(1, M_i)
        suffix = [1.0]
        k_last = 0
        for k in range(1, COORD_GUARD + 1):
            v = mult.value(k)
            if v >= boosting:
                k_last = k
            elif k >= settled:
                break
            suffix.append(max(1.0, v))
            if support is not None and k >= support:
                break
            if k >= settled and not decays:
                raise NotCompact(_ABOVE_ONE)
        else:
            raise EnumerationCap(_GUARD_HIT)
        del suffix[k_last + 1:]
        suffix.append(1.0)
        for k in range(k_last, 0, -1):
            suffix[k] *= suffix[k + 1]
        self.k_last = k_last
        self.suffix = suffix
        # from here on the multipliers neither decay nor boost: a scan that
        # gets past this coordinate without stopping would never stop
        self.k_unbounded = math.inf if decays else max(settled, k_last + 1)
        self.guard_sup = mult.tail_sup(COORD_GUARD) if decays else None
        self.sup, self.after = [], []
        self._grow()

    def _grow(self):
        """Add the table entries of the next coordinate."""
        k = len(self.sup)
        self.sup.append(self.mult.tail_sup(k))
        self.after.append(1.0 if k >= self.k_last else self.suffix[k + 1])

    def scan_end(self, c: float, eps2: float, k: int) -> int:
        """The first coordinate from k on that the entry scan of a ratio c
        does not enter.

        The scan enters k, k+1, ... and stops at the first coordinate i at
        which c * sup[i - 1] * after[i], a bound on the push value of a
        child entered at i or at any later coordinate, falls below eps2.  A
        zero multiplier needs no test of its own: its child's ratio is 0,
        which fails the push test.  A scan that would enter a coordinate
        past ``COORD_GUARD`` raises at its start.
        """
        if self.guard_sup is not None and not c * self.guard_sup < eps2:
            raise EnumerationCap(_GUARD_HIT)
        sup, after, k_unbounded = self.sup, self.after, self.k_unbounded
        while True:
            try:
                if c * sup[k - 1] * after[k] < eps2:
                    return k
            except IndexError:  # the scan reached a coordinate past the table
                self._grow()
                continue
            if k > k_unbounded:
                raise NotCompact("entry multipliers do not decay; the threshold set is unbounded")
            if k > COORD_GUARD:
                raise EnumerationCap(_GUARD_HIT)
            k += 1


def auto_certificate(a: WeightModel, b: WeightModel):
    """Derive a decay certificate for a model pair, or raise TailUnavailable."""
    if isinstance(a, TableWeights):
        return FiniteUniverse(tuple(a.support()))
    if isinstance(b, TableWeights):
        return FiniteUniverse(tuple(b.support()))

    a_base = _strip_scale(a)
    b_base = _strip_scale(b)

    if isinstance(b_base, UnitWeights):
        if (
            isinstance(a_base, (SplineWeights, AnisotropicWeights))
            and a_base.gamma.is_finite_support
        ):
            return SupportDecay(tuple(a_base.gamma.iter_support()))
        # a rising level multiplies a constant-smoothness spline weight by 2**(2 s)
        spline = isinstance(a_base, SplineWeights) and a_base.s.is_constant
        return ProductDecay(_inverse_growth_seq(a_base), a_base.level_decay(1) if spline else 1.0)
    if isinstance(a_base, ProductWeights) and isinstance(b_base, ProductWeights):
        return ProductDecay(seq_ratio(a_base.gamma_seq, b_base.gamma_seq))
    if isinstance(a_base, SplineWeights) and isinstance(b_base, SplineWeights):
        return _spline_pair_certificate(a_base, b_base)
    raise TailUnavailable(
        f"no automatic decay certificate for ({type(a).__name__}, {type(b).__name__})"
    )


def _inverse_growth_seq(model: WeightModel) -> CoordSeq:
    """Bound on how much 1/a grows when a coordinate enters the support."""
    if isinstance(model, ProductWeights):
        return model.gamma_seq
    if isinstance(model, SplineWeights):
        return model.multiplier_seq()
    if isinstance(model, AnisotropicWeights):
        if isinstance(model.gamma, ProductGamma):
            return model.gamma.seq
        raise TailUnavailable("anisotropic weights need product gamma for certificates")
    if isinstance(model, UnitWeights):
        return ConstantSeq(1.0)
    raise TailUnavailable(f"no growth bound for {type(model).__name__}")


def _spline_pair_certificate(a: SplineWeights, b: SplineWeights) -> ProductDecay:
    if not (a.s.is_constant and b.s.is_constant):
        raise TailUnavailable("spline/spline certificates need constant smoothness")
    ds = a.s.const - b.s.const
    if ds <= 0:
        raise NotCompact("target smoothness must be strictly smaller than the source")
    if not (isinstance(a.gamma, ProductGamma) and isinstance(b.gamma, ProductGamma)):
        raise TailUnavailable("spline/spline certificates need product gammas")
    gamma_ratio = seq_ratio(a.gamma.seq, b.gamma.seq)
    # entry multiplier: (gamma_a/gamma_b) * (lam_b/lam_a) * 2**(-2 ds)
    lam_b_over_a = _param_ratio(b.lam, a.lam)
    # a rising level multiplies the ratio by 2**(-2 ds) too
    level = exp2(-2.0 * ds)
    return ProductDecay(ProductOfSeqs([gamma_ratio, lam_b_over_a, ConstantSeq(level)]), level)


def _param_ratio(num, den) -> CoordSeq:
    if num.is_constant and den.is_constant:
        return ConstantSeq(num.const / den.const)
    raise TailUnavailable("per-coordinate parameter ratios need constant parameters")


# ---------------------------------------------------------------------------
# enumeration


def enumerate_threshold_set(
    a: WeightModel,
    b: WeightModel,
    eps: float,
    certificate=None,
    cap: int = DEFAULT_CAP,
) -> tuple[ThresholdSet, bool]:
    """Enumerate all indices with b_j / a_j >= eps**2 (boundary included).

    Returns ``(index_set, False)``; the set keeps each member's ratio.
    Finding more than ``cap`` candidates in ``_walk`` (on the support
    route: more than ``cap`` members) raises ``EnumerationCap``.  The
    second value is always False: ``perfbench/tracer.py``'s
    ``_after_enumerate`` reads ``len(result[0])``, and the tuple goes with
    the tracer's update (ROADMAP item 12).
    """
    return _threshold_set(_members(a, b, _threshold(eps), certificate, cap, graded=False)), False


def _threshold_set(members) -> ThresholdSet:
    """The threshold set of members keyed by their entries."""
    return ThresholdSet({IndexVector._from_entries(key): c for key, _, _, c in members})


def _level_graded(m: WeightModel) -> bool:
    """Unit, product or constant-smoothness spline weights of exact type,
    scaled or not: weights set by the support and the total level.  Only
    product weights cap the level, at 1: their groups never deepen, so each
    is the one index with every level 1."""
    m = _strip_scale(m)
    return type(m) in (UnitWeights, ProductWeights) or (type(m) is SplineWeights and m.s.is_constant)


def _members(a, b, eps2, certificate, cap, graded: bool):
    """Members ``(key, total level, count, ratio)`` with ratio >= eps2 along
    the certificate's route (``auto_certificate``'s if None): the listed
    candidates, keyed by entries, or ``_scan_supports`` or ``_walk``."""
    if certificate is None:
        certificate = auto_certificate(a, b)
    if isinstance(certificate, FiniteUniverse):
        return [(j.entries, j.total_level, 1, c) for j in dict.fromkeys(certificate.candidates)
                if (c := ratio(a, b, j)) >= eps2]
    if isinstance(certificate, SupportDecay):
        return _scan_supports(a, b, eps2, certificate.supports, cap, graded)
    if not isinstance(certificate, ProductDecay):
        raise ConfigInvalid(f"unknown certificate {certificate!r}")
    return _walk(a, b, eps2, certificate.mult, cap, graded, rise=certificate.level)


def _scan_supports(a, b, eps2, supports, cap, graded: bool):
    """Members of each support's level lattice, where no level raises the ratio.

    A depth-first scan from the support's index with every level 1 raises
    each level at or after the last one raised, so it visits each level
    vector once, and one below eps2 prunes its upward cone.  A ``graded``
    pair raises only the last level: its node at total level T, keyed by
    the support's coordinates σ, counts comb(T - 1, |σ| - 1) members.
    ``cap`` bounds the members, ``SUPPORT_CAP`` the supports when ``cap`` is
    unbounded, and ``COORD_GUARD`` the total level.
    """
    if cap == math.inf and len(supports) > SUPPORT_CAP:
        raise EnumerationCap(f"more than {SUPPORT_CAP} supports enumerated")
    deepen_a, deepen_b = a.deepen, b.deepen
    members, found = [], 0
    for sigma in supports:
        coords = sigma.coords
        size = len(coords)
        key = coords if graded else tuple((k, 1) for k in coords)
        # the empty support has no level to raise
        stack = [(key, size, a.state(sigma), b.state(sigma), size - 1 if graded and size else 0)]
        while stack:
            key, total, sa, sb, pos = stack.pop()
            if (c := carried_ratio(a, b, sa, sb, key)) < eps2:
                continue
            count = math.comb(total - 1, size - 1) if graded and size else 1
            if (found := found + count) > cap:
                raise EnumerationCap(f"threshold set exceeds cap {cap}")
            members.append((key, total, count, c))
            if total > COORD_GUARD:
                raise EnumerationCap("level scan exceeded the hard guard")
            for i in range(pos, size):
                k = coords[i]
                child = key if graded else key[:i] + ((k, key[i][1] + 1),) + key[i + 1:]
                stack.append((child, total + 1, deepen_a(sa, k), deepen_b(sb, k), i))
    return members


def _walk(a, b, eps2, mult: CoordSeq, cap, graded: bool, rise: float = 1.0):
    """Members ``(key, total level, count, ratio)`` of a breadth-first walk
    over the index tree, one total level at a time.

    An index's children are the index with its last level raised (up to
    the level cap) and with each coordinate of its entry scan entered; push
    tests prune.  A node is ``(key, count, state of a, state of b, ratio)``
    with one parent: one index keyed by its entries, or for a ``graded``
    pair the comb(T - 1, |σ| - 1) indices with support σ and total level T,
    keyed by σ's coordinates.  The ratio does not rise with the level and a
    scan from a smaller ratio stops no later, so the pushed groups of σ run
    up from its first (T = |σ|, every level 1): only that group scans (one
    ``scan_end`` call) and enters coordinates, a deeper one only deepens.
    A child is built only where a bound says it can pass its push test:
    an entered one below the scan's end, a deepened one where its parent's
    ratio times ``rise`` (the certificate's ``level``, a bound on the factor
    a rising level gives) passes.  Each child costs a's ``enter`` (or ``deepen``)
    and ``carried``, which multiply floats the model keeps in tables, and
    b's too unless b's weight is ``uniform``.

    ``cap`` bounds the candidates found (visited or built for the next
    level), ``SUPPORT_CAP`` the supports when ``cap`` is unbounded.  Past
    either, the level's other nodes run their scans but build no children,
    and EnumerationCap comes when the level is done: a scan's error on that
    level wins over it in any node order.
    """
    boost = _BoostTable(mult)
    after, scan_end = boost.after, boost.scan_end
    level_cap = min((m.max_level for m in (a, b) if m.max_level is not None), default=None)
    enter_a, deepen_a, carried_a = a.enter, a.deepen, a.carried
    enter_b, deepen_b, carried_b = b.enter, b.deepen, b.carried
    # None, or the weight of every index of a unit b, scaled or not, which
    # is positive: b's states are then skipped
    bw = b.uniform
    inf, comb, floor = math.inf, math.comb, eps2 * _PRUNE_FLOOR
    support_cap = SUPPORT_CAP if cap == inf else inf
    sa, sb = a.state(EMPTY_SUPPORT), b.state(EMPTY_SUPPORT)
    level = [((), 1, sa, sb, carried_ratio(a, b, sa, sb, ()))]
    members, found, supports, total = [], 1, 0, 0
    while level:
        if total > COORD_GUARD:
            raise EnumerationCap("level scan exceeded the hard guard")
        below, level = level, []
        for key, count, sa, sb, c in below:
            supports += (first := total == len(key))  # a support's first node has every level 1
            if c >= eps2:
                members.append((key, total, count, c))
            kmax = (key[-1] if graded else key[-1][0]) if key else 0
            if found > cap or supports > support_cap:
                if first or not graded:
                    scan_end(c, floor, kmax + 1)
                continue
            # a graded pair's level cap is product weights' 1: its groups never deepen
            if (kmax and (level_cap is None or not graded and key[-1][1] < level_cap)
                    and c * rise * after[kmax] >= floor):
                child = key if graded else key[:-1] + ((kmax, key[-1][1] + 1),)
                ca, cb = deepen_a(sa, kmax), (sb if bw else deepen_b(sb, kmax))
                aw = carried_a(ca, child)
                cc = 0.0 if aw == 0.0 or aw == inf else (bw or carried_b(cb, child)) / aw
                if cc * after[kmax] >= floor:
                    count = comb(total, len(key) - 1) if graded else 1
                    level.append((child, count, ca, cb, cc))
                    found += count
            if graded and not first:
                continue
            for k in range(kmax + 1, scan_end(c, floor, kmax + 1)):
                child = key + (k,) if graded else key + ((k, 1),)
                ca, cb = enter_a(sa, k), (sb if bw else enter_b(sb, k))
                aw = carried_a(ca, child)
                cc = 0.0 if aw == 0.0 or aw == inf else (bw or carried_b(cb, child)) / aw
                if cc * after[k] >= floor:
                    level.append((child, 1, ca, cb, cc))
                    found += 1
        if found > cap or supports > support_cap:
            raise EnumerationCap(f"visited more than {cap} candidate indices" if found > cap
                                 else f"more than {SUPPORT_CAP} supports enumerated")
        total += 1
    return members


def _result(members, dims: DimensionModel, eps: float, graded: bool, **fields) -> EpsDimResult:
    """The result with a row per member, keyed by support coordinates if ``graded``."""
    if graded:
        group_dim = _GROUP_DIM[type(dims)]
        rows = [(key[-1] if key else 0, count * group_dim(len(key), total), count, c)
                for key, total, count, c in members]
    else:
        rows = [(key[-1][0] if key else 0, dims.subspace_dim(IndexVector._from_entries(key)), 1, c)
                for key, _, _, c in members]
    rows.sort(key=itemgetter(0))  # ties in max_coord need no order: ``table`` sums them
    return EpsDimResult(n=sum(row[1] for row in rows), eps=eps, members=rows, **fields)


def eps_dimension(
    a: WeightModel,
    b: WeightModel,
    eps: float,
    dims: DimensionModel,
    certificate=None,
    cap: int = DEFAULT_CAP,
) -> EpsDimResult:
    """Total dimension of the threshold set's subspaces.

    Level-graded pairs with all-one or spline dimensions count groups
    unless the certificate lists the candidates; their ``index_set`` is
    ``enumerate_threshold_set``'s, run when first read.
    """
    eps2 = _threshold(eps)
    graded = (_level_graded(a) and _level_graded(b) and type(dims) in _GROUP_DIM
              and not isinstance(certificate, FiniteUniverse))
    members = _members(a, b, eps2, certificate, cap, graded=graded)
    index_set = ThresholdSet(lambda: enumerate_threshold_set(
        a, b, eps, certificate=certificate, cap=cap)[0].ratios) if graded else _threshold_set(members)
    return _result(members, dims, eps, graded, index_set=index_set)


def eps_dimension_table(
    a: WeightModel,
    b: WeightModel,
    eps_list,
    dims: DimensionModel,
    ds=(),
    cap: int = DEFAULT_CAP,
) -> list[tuple]:
    """The ``epsdim`` rows: ``(eps, d, n, set size, d0)`` for each eps of
    ``eps_list`` in order, first of the full threshold set (d is None), then
    of its members on the coordinates <= d for each d of ``ds``; d0 is the
    set's largest coordinate.

    One enumeration at the smallest eps serves every row: threshold sets
    nest in eps, and so does the walk.  Errors keep the order of one walk
    per eps: a nonpositive eps where it stands, a negative d right after
    the first eps's walk, and a failed walk as the first failing eps meets
    it (a larger eps visits fewer indices, so it may hit the cap before a
    deeper walk meets a different error).
    """
    if not eps_list:
        return []
    lead = list(itertools.takewhile(lambda eps: eps > 0, eps_list))
    if not lead or any(d < 0 for d in ds):
        lead = eps_list[:1]
    try:
        walk = eps_dimension(a, b, min(lead), dims, cap=cap)
    except TensorsplitError:
        for eps in lead:
            eps_dimension(a, b, eps, dims, cap=cap)
        raise
    keys = [None, *ds]
    return [(eps, d, n, size, d0) for eps, d0, counts in walk.table(eps_list, ds)
            for d, (n, size) in zip(keys, counts)]


# ---------------------------------------------------------------------------
# counting for common-smoothness spline weights


def spline_eps_dimension(
    gamma: GammaModel,
    s: float,
    lam: float,
    eps: float,
) -> EpsDimResult:
    """Count the dyadic-weight eps-dimension group by group.

    This is the grouped walk of ``eps_dimension`` on
    (SplineWeights(gamma, s, lam), UnitWeights()) with spline dimensions:
    the comb(T - 1, |support| - 1) indices with one support and one total
    level T share a ratio, and each has subspace dimension
    2**(T - |support|).  No index set is kept (``index_set`` is None), but
    ``table`` reads the member groups.  The coarser bound 1 + 2 * sum (2|support|)**m,
    with m the largest admissible excess T - |support| of each support, is
    reported alongside.
    """
    eps2 = _threshold(eps)
    if isinstance(s, bool) or not isinstance(s, (int, float)) or not s > 0:
        raise ConfigInvalid("common smoothness must be a positive number")
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not lam > 0:
        raise ConfigInvalid("the scale constant must be a positive number")
    model = SplineWeights(gamma, float(s), float(lam))
    members = _members(model, UnitWeights(), eps2, None, math.inf, graded=True)
    # a support's groups come in increasing total level: the last one wins
    excess = {sigma: total - len(sigma) for sigma, total, _, _ in members if sigma}
    return _result(members, SplineDims(), eps, True,
                   coarse_bound=1 + 2 * sum((2 * len(w)) ** m for w, m in excess.items()))
