"""Subsets of {1..n}: how a set is parsed and printed, and its lattice path.

Every check runs on masks (``Subset.mask``, ``Subset.from_mask``); no other
module reads ``Subset.elements``.  The lattice path of G steps up at the
members of G and down elsewhere; ``lattice_path`` spells it out for the
``path`` drawing.  A subset carries its ground set size n explicitly and
refuses to interact with subsets over a different ground set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

# Hard cap on the ground set size.  Exhaustive sweeps stay well below it;
# it only guards against accidentally requesting 2^n-sized work.
MAX_N = 20


def check_ground(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"ground set size must be an integer, got {n!r}")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"ground set size must lie in 1..{MAX_N}, got {n}")


class FrozenValue:
    """Base of the immutable value types (``Subset``, ``Multidegree``).

    The fields are the slots, set once in ``__init__`` through
    ``object.__setattr__``; any later assignment raises ``AttributeError``.
    Equality, hash and repr go by the field values, and pickling rebuilds
    the value through the class's own validating constructor.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign to {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Subset(FrozenValue):
    """An immutable subset of {1..n} that remembers n."""

    __slots__ = ("n", "elements")
    n: int
    elements: frozenset[int]

    def __init__(self, n: int, elements: Iterable[int] = ()) -> None:
        check_ground(n)
        elems = frozenset(elements)
        for e in elems:
            if not isinstance(e, int) or isinstance(e, bool) or not 1 <= e <= n:
                raise ValueError(f"element {e!r} outside ground set 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", elems)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> Subset:
        """Bit e-1 of ``mask`` encodes membership of element e."""
        if mask < 0 or mask >> n:
            raise ValueError(f"mask {mask:#x} does not fit ground set 1..{n}")
        return cls(n, (e for e in range(1, n + 1) if (mask >> (e - 1)) & 1))

    @property
    def mask(self) -> int:
        m = 0
        for e in self.elements:
            m |= 1 << (e - 1)
        return m

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e: int) -> bool:
        return e in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.sorted_elements())

    def __str__(self) -> str:
        return format_subset(self)


def same_ground(a: Subset, b: Subset) -> None:
    if a.n != b.n:
        raise ValueError(f"mixed ground sets: n={a.n} vs n={b.n}")


class LatticePath(NamedTuple):
    """Height profile of a subset, with its peak positions.

    ``heights[g]`` is the running sum of the incidence steps up to position g,
    so ``heights[0] == 0`` and consecutive heights differ by exactly one.
    ``peaks`` lists the positions in G together with the origin where the
    height attains its maximum ``alpha``; ``nu`` and ``mu`` are the first and
    last of these.
    """

    heights: tuple[int, ...]
    peaks: tuple[int, ...]
    alpha: int
    nu: int
    mu: int


def lattice_path(G: Subset) -> LatticePath:
    heights = [0]
    for g in range(1, G.n + 1):
        heights.append(heights[-1] + (1 if g in G.elements else -1))
    candidates = (0, *G.sorted_elements())
    alpha = max(heights[g] for g in candidates)
    peaks = tuple(g for g in candidates if heights[g] == alpha)
    return LatticePath(tuple(heights), peaks, alpha, peaks[0], peaks[-1])


def format_subset(G: Subset) -> str:
    return "{" + ",".join(str(e) for e in G.sorted_elements()) + "}"


def parse_subset(n: int, text: str) -> Subset:
    """Parse the canonical brace form, or compact digits for n <= 9.

    Accepted: ``{1,4,7}`` (spaces tolerated), ``{}`` for the empty set, and
    ``147`` when n <= 9.
    """
    check_ground(n)
    s = text.strip()
    if s.startswith("{") and s.endswith("}"):
        inner = s[1:-1].strip()
        try:
            elems = [int(p) for p in inner.split(",")] if inner else []
        except ValueError:
            raise ValueError(f"cannot parse subset from {text!r}") from None
    elif s.isdigit():
        if n > 9:
            raise ValueError(f"compact digit form needs n <= 9 (n={n}); use braces")
        elems = [int(c) for c in s]
    else:
        raise ValueError(f"cannot parse subset from {text!r}")
    if len(set(elems)) != len(elems):
        raise ValueError(f"duplicate elements in {text!r}")
    return Subset(n, elems)
