"""Threshold index sets and exact eps-dimension computation.

The eps-dimension of a weighted-space pair (a, b) is the total dimension of
the subspaces whose comparison ratio c_j = b_j / a_j stays at or above
eps**2 (the boundary is included).  Enumeration is exact: a depth-first scan
over the index tree prunes branches with a certified bound on how much the
ratio can still grow when new coordinates enter, so the returned set is the
full threshold set, not a heuristic approximation.

For dyadic mixed-smoothness weights with a common smoothness exponent the
set can instead be counted support by support: all indices sharing a support
and an excess level total carry the same ratio, and their number is a
binomial coefficient.  ``spline_eps_dimension`` does this counting and also
reports the coarser closed-form bound in which the per-(support, excess)
population is replaced by |support|**excess.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from .errors import ConfigInvalid, EnumerationCap, NotCompact, TailUnavailable
from .gammas import GammaModel, ProductGamma
from .indexing import EMPTY_SUPPORT, IndexSet, IndexVector, SupportSet
from .sequences import ConstantSeq, CoordSeq, ProductOfSeqs, seq_ratio
from .weights import (
    AnisotropicWeights,
    ProductWeights,
    ScaledWeights,
    SplineWeights,
    TableWeights,
    UnitWeights,
    WeightModel,
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
    "spline_eps_dimension",
]

DEFAULT_CAP = 10_000_000
#: last coordinate any coordinate scan reaches before raising EnumerationCap
COORD_GUARD = 10_000_000
_GUARD_HIT = "coordinate scan exceeded the hard guard"
_ABOVE_ONE = "entry multipliers stay above 1 for arbitrarily large coordinates"
#: most supports ``spline_eps_dimension`` scans before raising EnumerationCap
SUPPORT_CAP = 1_000_000


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
    """A threshold set that keeps the comparison ratio of each member."""

    def __init__(self, ratios: dict[IndexVector, float]):
        super().__init__(ratios)
        self.ratios = ratios


@dataclass(frozen=True)
class EpsDimResult:
    """Exact dimension count for one threshold level.

    ``index_set`` is materialized for enumerative computations and None for
    the counting route; ``coarse_bound`` carries the coarser closed-form
    upper bound where available.  ``members`` holds the
    ``(max_coord, subspace dimension, ratio)`` of each member of an
    enumerated set, sorted by max_coord: ``n`` is the sum of its dimensions
    and ``table`` reads it, including the counts over the coordinates <= d
    and the coordinate d0 where they stabilize (``index_set.max_coord``).
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
        rows are prefix sums of the dimensions of the members, which are
        sorted by max_coord.
        """
        for eps in eps_list:
            eps2 = _threshold(eps)
            if eps < self.eps:
                raise ValueError(f"eps {eps} lies below the enumerated eps {self.eps}")
            coords, n_upto = [], [0]
            for k, n, c in self.members:
                if c >= eps2:
                    coords.append(k)
                    n_upto.append(n_upto[-1] + n)
            counts = [(n_upto[-1], len(coords))]
            for d in ds:
                _check_restriction(d)
                size = bisect.bisect_right(coords, d)
                counts.append((n_upto[size], size))
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
    """Per-coordinate upper bounds on the ratio multiplier at entry.

    ``mult.value(k)`` bounds c_{j + l*e_k} / c_j over all levels l >= 1 and
    all j not containing k; raising an existing level never increases c.
    """

    mult: CoordSeq


class _BoostTable:
    """Cached suffix products of multipliers exceeding one, and a
    per-coordinate table of what the entry scan reads.

    ``k_last`` is the last coordinate whose multiplier is at least
    1 + 2**-52.  The constructor finds it with one scan of
    ``mult.value``, stopping where the sequence's own facts allow:
    ``nonincreasing_from``, ``max_support`` and ``decays_to_zero``.  Before
    it, one value past ``COORD_GUARD`` settles the sequences whose
    multipliers stay above one there: ``NotCompact`` if they do not decay,
    ``EnumerationCap`` if they do.

    For each coordinate k the scan has reached, ``positive[k]`` is
    ``mult.value(k) > 0.0``, ``sup[k]`` is ``mult.tail_sup(k)`` and
    ``after[k]`` bounds the boost that coordinates past k can still give.
    The lists grow one coordinate at a time as scans reach it, so a product
    of sequences walks its factors once per coordinate, not once per node.
    Slot 0 is a placeholder: coordinates start at 1.
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
        self.positive, self.sup, self.after = [False], [0.0], [1.0]

    def _grow(self):
        """Add the table entries of the next coordinate."""
        k = len(self.sup)
        self.positive.append(self.mult.value(k) > 0.0)
        self.sup.append(self.mult.tail_sup(k))
        self.after.append(1.0 if k >= self.k_last else self.suffix[k + 1])

    def entry_coords(self, c: float, eps2: float, k: int):
        """Coordinates k, k+1, ... with a positive multiplier, in order.

        Stops after the first coordinate from which on no entry can lift a
        ratio of c back to eps2, even with every later boost applied.
        """
        positive, sup, after = self.positive, self.sup, self.after
        while True:
            while k >= len(sup):
                self._grow()
            if positive[k]:
                yield k
            if c * sup[k] * after[k] < eps2:
                return
            if k >= self.k_unbounded:
                raise NotCompact("entry multipliers do not decay; the threshold set is unbounded")
            k += 1
            if k > COORD_GUARD:
                raise EnumerationCap(_GUARD_HIT)


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
        return ProductDecay(_inverse_growth_seq(a_base))
    if isinstance(a_base, ProductWeights) and isinstance(b_base, ProductWeights):
        return ProductDecay(seq_ratio(a_base.gamma_seq, b_base.gamma_seq))
    if isinstance(a_base, SplineWeights) and isinstance(b_base, SplineWeights):
        return _spline_pair_certificate(a_base, b_base)
    raise TailUnavailable(
        f"no automatic decay certificate for ({type(a).__name__}, {type(b).__name__})"
    )


def _strip_scale(m: WeightModel) -> WeightModel:
    """The base model under any ScaledWeights wrappers."""
    while isinstance(m, ScaledWeights):
        m = m.base
    return m


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
    decay = ConstantSeq(exp2(-2.0 * ds))
    return ProductDecay(ProductOfSeqs([gamma_ratio, lam_b_over_a, decay]))


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
    Visiting more than ``cap`` candidates (on the support route: finding
    more than ``cap`` members) raises ``EnumerationCap``.  The second value
    is always False and is kept for callers that read ``result[0]``.
    """
    eps2 = _threshold(eps)
    if certificate is None:
        certificate = auto_certificate(a, b)

    if isinstance(certificate, FiniteUniverse):
        members = {j: c for j in certificate.candidates if (c := ratio(a, b, j)) >= eps2}
        return ThresholdSet(members), False

    if isinstance(certificate, SupportDecay):
        return _enumerate_by_support(a, b, eps2, certificate.supports, cap)

    if not isinstance(certificate, ProductDecay):
        raise ConfigInvalid(f"unknown certificate {certificate!r}")

    boost = _BoostTable(certificate.mult)
    after = boost.after
    level_cap = _combined_level_cap(a, b)
    enter_a, deepen_a, enter_b, deepen_b = a.enter, a.deepen, b.enter, b.deepen
    # a child raises the last level or enters a larger coordinate, so every
    # entry tuple is canonical and becomes a member without a check
    to_vector = IndexVector._from_entries

    out: dict[IndexVector, float] = {}
    visited = 0
    sa, sb = a.state(EMPTY_SUPPORT), b.state(EMPTY_SUPPORT)
    # (entries, state of a, state of b, ratio)
    stack = [((), sa, sb, carried_ratio(a, b, sa, sb, ()))]

    while stack:
        entries, sa, sb, cj = stack.pop()
        visited += 1
        if visited > cap:
            raise EnumerationCap(f"visited more than {cap} candidate indices")
        if cj >= eps2:
            out[to_vector(entries)] = cj
        kmax, level = entries[-1] if entries else (0, 0)

        if kmax > 0 and (level_cap is None or level < level_cap):
            child = entries[:-1] + ((kmax, level + 1),)
            ca_, cb_ = deepen_a(sa, kmax), deepen_b(sb, kmax)
            cc = carried_ratio(a, b, ca_, cb_, child)
            if cc * after[kmax] >= eps2:
                stack.append((child, ca_, cb_, cc))

        for k in boost.entry_coords(cj, eps2, kmax + 1):
            child = entries + ((k, 1),)
            ca_, cb_ = enter_a(sa, k), enter_b(sb, k)
            cc = carried_ratio(a, b, ca_, cb_, child)
            if cc * after[k] >= eps2:
                stack.append((child, ca_, cb_, cc))

    return ThresholdSet(out), False


def _combined_level_cap(a: WeightModel, b: WeightModel) -> int | None:
    caps = [m.max_level for m in (a, b) if m.max_level is not None]
    return min(caps) if caps else None


def _enumerate_by_support(a, b, eps2, supports, cap):
    """Per-support level scan; the ratio must be nonincreasing in each level.

    Levels of a fixed support form a lattice; bumping coordinates in
    nondecreasing position order visits each level vector once, and a
    subthreshold vector prunes its whole upward cone.  Each support's
    carried state (for spline weights its gamma value and lam product) is
    computed once; within the support only the total level changes.
    """
    deepen_a, deepen_b = a.deepen, b.deepen
    to_vector = IndexVector._from_entries
    out: dict[IndexVector, float] = {}
    for sigma in supports:
        stack = [(tuple((k, 1) for k in sigma), a.state(sigma), b.state(sigma), 0)]
        while stack:
            entries, sa, sb, pos = stack.pop()
            c = carried_ratio(a, b, sa, sb, entries)
            if c < eps2:
                continue
            out[to_vector(entries)] = c
            if len(out) > cap:
                raise EnumerationCap(f"threshold set exceeds cap {cap}")
            for i in range(pos, len(entries)):
                k, level = entries[i]
                stack.append((entries[:i] + ((k, level + 1),) + entries[i + 1:],
                              deepen_a(sa, k), deepen_b(sb, k), i))
    return ThresholdSet(out), False


def eps_dimension(
    a: WeightModel,
    b: WeightModel,
    eps: float,
    dims: DimensionModel,
    certificate=None,
    cap: int = DEFAULT_CAP,
) -> EpsDimResult:
    """Total dimension of the threshold set's subspaces."""
    index_set, _ = enumerate_threshold_set(a, b, eps, certificate=certificate, cap=cap)
    members = sorted(((j.max_coord, dims.subspace_dim(j), c)
                      for j, c in index_set.ratios.items()), key=lambda m: m[0])
    return EpsDimResult(n=sum(m[1] for m in members), eps=eps, index_set=index_set,
                        members=members)


# ---------------------------------------------------------------------------
# closed-form counting for common-smoothness spline weights


def spline_eps_dimension(
    gamma: GammaModel,
    s: float,
    lam: float,
    eps: float,
) -> EpsDimResult:
    """Count the dyadic-weight eps-dimension support by support.

    For every support with positive set weight, the largest admissible
    excess level total m is found by the same floating-point comparison the
    enumerator makes, and the indices are counted in closed form: there are
    comb(m + |support| - 1, |support| - 1) of them for each m, each carrying
    subspace dimension 2**m.  The coarser bound 1 + 2 * sum (2|support|)**m
    is reported alongside.
    """
    eps2 = _threshold(eps)
    if isinstance(s, bool) or not isinstance(s, (int, float)) or not s > 0:
        raise ConfigInvalid("common smoothness must be a positive number")
    if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not lam > 0:
        raise ConfigInvalid("the scale constant must be a positive number")
    model = SplineWeights(gamma, float(s), float(lam))
    unit = UnitWeights()

    def excess_cap(entries, state) -> int:
        """Largest excess m >= 0 whose ratio clears the threshold, -1 if none.

        Every index on a support with one total level has the same ratio;
        the scan raises the level of the first coordinate.
        """
        (k, _), rest = entries[0], entries[1:]
        m = -1
        while carried_ratio(model, unit, state, None, entries) >= eps2:
            m += 1
            if m > 10_000_000:
                raise EnumerationCap("excess-level scan exceeded the hard guard")
            state = model.deepen(state, k)
            entries = ((k, m + 2),) + rest
        return m

    n = 1  # the zero index always contributes its one-dimensional subspace
    bound_acc = 0
    processed = 0

    for entries, state in _viable_supports(model, unit, eps2):
        processed += 1
        if processed > SUPPORT_CAP:
            raise EnumerationCap(f"more than {SUPPORT_CAP} supports enumerated")
        m_omega = excess_cap(entries, state)
        if m_omega < 0:
            continue
        size = len(entries)
        n += sum(math.comb(m + size - 1, size - 1) * 2**m for m in range(m_omega + 1))
        bound_acc += (2 * size) ** m_omega

    return EpsDimResult(n=n, eps=eps, index_set=None, coarse_bound=1 + 2 * bound_acc)


def _viable_supports(model: SplineWeights, unit: UnitWeights, eps2: float):
    """Nonempty supports whose level-(1,...,1) ratio could clear eps2.

    Yields the entries and the carried state of each support's level-1
    index.  For enumerable gamma supports this is the stored list; for
    product gammas a depth-first scan over supports with the same boost
    pruning as the index enumerator.
    """
    gamma = model.gamma
    if gamma.is_finite_support or not isinstance(gamma, ProductGamma):
        for omega in gamma.iter_support():
            if len(omega) > 0:
                yield tuple((k, 1) for k in omega), model.state(omega)
        return

    boost = _BoostTable(model.multiplier_seq())
    stack = [((), model.state(EMPTY_SUPPORT), 1.0)]
    while stack:
        entries, state, c = stack.pop()
        if entries:
            yield entries, state
        for k in boost.entry_coords(c, eps2, entries[-1][0] + 1 if entries else 1):
            child, child_state = entries + ((k, 1),), model.enter(state, k)
            cc = carried_ratio(model, unit, child_state, None, child)
            if cc * boost.after[k] >= eps2:
                stack.append((child, child_state, cc))
