"""Sparse multi-indices, finite support sets, and downward-closed index sets.

A multi-index assigns a nonnegative level to every coordinate ``k >= 1`` but
only finitely many levels are nonzero, so it is stored sparsely as a sorted
tuple of ``(coordinate, level)`` pairs with all stored levels >= 1.  This
keeps "infinitely many variables" finite in memory: the zero index is the
empty tuple.

All values here are immutable and hashable; they are safe to share across
threads and to use as dictionary keys.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import config_coordinate, config_errors, config_number, config_numbers

__all__ = [
    "IndexVector",
    "SupportSet",
    "IndexSet",
    "ZERO_INDEX",
    "EMPTY_SUPPORT",
    "componentwise_leq",
]


_BAD_COORD = "coordinates must be positive integers"


def _integer(v, message: str) -> int:
    """``v`` as an int where it is an integer (a numpy integer or an
    integral float too); ``ValueError(message)`` for a bool or anything
    non-integral, which ``int`` would truncate."""
    if not isinstance(v, bool):
        try:
            k = int(v)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if k == v:
                return k
    raise ValueError(message)


class SupportSet:
    """A finite set of active coordinates, kept sorted and duplicate-free."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[int] = ()):
        cs = tuple(sorted({_integer(k, _BAD_COORD) for k in coords}))
        if cs and cs[0] < 1:
            raise ValueError(_BAD_COORD)
        object.__setattr__(self, "coords", cs)

    def __setattr__(self, name, value):
        raise AttributeError("SupportSet is immutable")

    @classmethod
    def of(cls, *coords: int) -> "SupportSet":
        return cls(coords)

    @classmethod
    def _from_coords(cls, coords: tuple[int, ...]) -> "SupportSet":
        """Trusted constructor: ``coords`` is already canonical, a tuple of
        increasing int coordinates >= 1.  Nothing is checked or copied."""
        omega = object.__new__(cls)
        object.__setattr__(omega, "coords", coords)
        return omega

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def __contains__(self, k: int) -> bool:
        return k in self.coords

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportSet) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(("SupportSet", self.coords))

    def __repr__(self) -> str:
        return f"SupportSet({list(self.coords)})"

    def add(self, k: int) -> "SupportSet":
        if type(k) is not int or k < 1:
            return SupportSet(self.coords + (k,))
        return self if k in self.coords else SupportSet._from_coords(tuple(sorted(self.coords + (k,))))

    def minus(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(k for k in self.coords if k not in other)

    def issubset(self, other: "SupportSet") -> bool:
        return all(k in other for k in self.coords)

    def issuperset(self, other: "SupportSet") -> bool:
        return other.issubset(self)

    def subsets(self) -> Iterator["SupportSet"]:
        """All subsets, in canonical order."""
        for size in range(len(self.coords) + 1):
            for combo in itertools.combinations(self.coords, size):
                yield SupportSet._from_coords(combo)

    def canonical_key(self):
        """Sort key fixing the global iteration order: cardinality, then
        lexicographic order of the coordinates."""
        return (len(self.coords), self.coords)

    def to_json_obj(self) -> list[int]:
        return list(self.coords)

    @classmethod
    def from_json_obj(cls, obj) -> "SupportSet":
        with config_errors(f"support {obj!r}"):
            coords = config_numbers(obj, int, "support")
            if len(set(coords)) != len(coords):
                raise ValueError("a coordinate is repeated")
            return cls(coords)


EMPTY_SUPPORT = SupportSet()


class IndexVector:
    """Finitely supported multi-index with the componentwise partial order."""

    __slots__ = ("entries",)

    def __init__(self, levels: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        if isinstance(levels, Mapping):
            items = levels.items()
        else:
            items = levels
        cleaned = {}
        for k, j in items:
            k, j = _integer(k, _BAD_COORD), _integer(j, "levels must be nonnegative integers")
            if k < 1:
                raise ValueError(_BAD_COORD)
            if j < 0:
                raise ValueError("levels must be nonnegative")
            if j > 0:
                if k in cleaned:
                    raise ValueError(f"duplicate coordinate {k}")
                cleaned[k] = j
        object.__setattr__(self, "entries", tuple(sorted(cleaned.items())))

    def __setattr__(self, name, value):
        raise AttributeError("IndexVector is immutable")

    @classmethod
    def _from_entries(cls, entries: tuple[tuple[int, int], ...]) -> "IndexVector":
        """Trusted constructor: ``entries`` is already canonical, a tuple of
        (coordinate, level) int pairs with increasing coordinates >= 1 and
        levels >= 1.  Nothing is checked or copied."""
        j = object.__new__(cls)
        object.__setattr__(j, "entries", entries)
        return j

    def level(self, k: int) -> int:
        for kk, j in self.entries:
            if kk == k:
                return j
            if kk > k:
                break
        return 0

    @property
    def support(self) -> SupportSet:
        return SupportSet._from_coords(tuple(k for k, _ in self.entries))

    @property
    def num_active(self) -> int:
        """Number of nonzero levels."""
        return len(self.entries)

    @property
    def total_level(self) -> int:
        """Sum of all levels."""
        return sum(j for _, j in self.entries)

    @property
    def max_coord(self) -> int:
        return self.entries[-1][0] if self.entries else 0

    def is_zero(self) -> bool:
        return not self.entries

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(("IndexVector", self.entries))

    def __le__(self, other: "IndexVector") -> bool:
        return componentwise_leq(self, other)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{j}" for k, j in self.entries)
        return "IndexVector({" + body + "})"

    def with_level(self, k: int, j: int) -> "IndexVector":
        d = dict(self.entries)
        if j == 0:
            d.pop(k, None)
        else:
            d[k] = j
        return IndexVector(d)

    def canonical_key(self):
        """Sort key fixing the global iteration order."""
        return (self.total_level, tuple(k for k, _ in self.entries),
                tuple(j for _, j in self.entries))

    def to_json_obj(self) -> dict[str, int]:
        return {str(k): j for k, j in self.entries}

    @classmethod
    def from_json_obj(cls, obj) -> "IndexVector":
        with config_errors(f"index {obj!r}"):
            return cls({config_coordinate(k, "index coordinate"): config_number(j, int, "index level")
                        for k, j in obj.items()})


ZERO_INDEX = IndexVector()


def componentwise_leq(i: IndexVector, j: IndexVector) -> bool:
    """True iff every level of ``i`` is bounded by the same level of ``j``."""
    return all(j.level(k) >= jk for k, jk in i.entries)


class IndexSet:
    """A finite set of multi-indices with a cached monotonicity flag.

    Iteration follows the canonical order (total level, then support, then
    levels), so every listing of a set comes out in the same order.
    The set is immutable; the lazily cached monotonicity flag is pure, so a
    concurrent double computation is harmless.
    """

    def __init__(self, members: Iterable[IndexVector] = (), *, known_monotone: bool | None = None):
        self.members = frozenset(members)
        if known_monotone is not None:
            self.__dict__["is_monotone"] = known_monotone

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[IndexVector]:
        return iter(sorted(self.members, key=IndexVector.canonical_key))

    def __contains__(self, j: IndexVector) -> bool:
        return j in self.members

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"IndexSet({sorted(self.members, key=IndexVector.canonical_key)!r})"

    @property
    def max_coord(self) -> int:
        """Largest coordinate active anywhere in the set (0 if none)."""
        return max((j.max_coord for j in self.members), default=0)

    @cached_property
    def is_monotone(self) -> bool:
        """True iff the set contains every index below any of its members.

        Checking the cover relation (each stored level lowered by one)
        suffices for finite sets.
        """
        for j in self.members:
            for k, jk in j.entries:
                if j.with_level(k, jk - 1) not in self.members:
                    return False
        return True

    def downward_closure(self) -> "IndexSet":
        """Smallest downward-closed superset.  Idempotent."""
        closed: set[IndexVector] = set()
        stack = list(self.members)
        while stack:
            j = stack.pop()
            if j in closed:
                continue
            closed.add(j)
            for k, jk in j.entries:
                stack.append(j.with_level(k, jk - 1))
        if not self.members:
            return IndexSet((), known_monotone=True)
        return IndexSet(closed, known_monotone=True)
