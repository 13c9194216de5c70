"""Tridegrees (stem, Adams filtration, weight) and stem/coweight windows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterator, NamedTuple, Tuple


class TriDegree(NamedTuple):
    """A (stem, filtration, weight) triple.

    Stems and weights may be negative (rho and tau both have negative
    entries). The Adams filtration of any stored class is homological and
    >= 0 -- no window stores a degree with f < 0 and the E1 enumerators
    return nothing there -- while difference vectors (shifts) may carry
    f = -1. A NamedTuple: construction, hashing, ``==`` and ``<`` run in C
    on (s, f, w), and ``+`` adds componentwise.
    """

    s: int
    f: int
    w: int

    @property
    def coweight(self) -> int:
        return self.s - self.w

    def __add__(self, other: "TriDegree") -> "TriDegree":
        return TriDegree(self.s + other.s, self.f + other.f, self.w + other.w)

    def scale(self, n: int) -> "TriDegree":
        return TriDegree(n * self.s, n * self.f, n * self.w)

    def __str__(self) -> str:
        return f"({self.s},{self.f},{self.w})"


#: Degree shift of every Bockstein and Adams differential: stem drops by
#: one, filtration rises by one, weight is fixed.
DIFFERENTIAL_SHIFT = TriDegree(-1, 1, 0)


@dataclass(frozen=True)
class Window:
    """Finite stem/coweight/filtration box in which pages are computed.

    Only the top stem and the coweights are chosen: the lowest stem and the
    padding are class constants and ``max_f`` is ``max_stem + 2``. The
    asserted ranges are padded internally (``stem_pad``/``coweight_pad``) so
    that differentials leaving or entering the asserted box are still
    visible; classes inside the padding are treated as
    indeterminate-at-boundary and excluded from census assertions. A box
    of more stored degrees than ``max_degrees`` is refused.
    """

    min_stem: ClassVar[int] = -2
    stem_pad: ClassVar[int] = 4
    coweight_pad: ClassVar[int] = 1
    #: ``Window(256)``'s stored degrees (263 stems x 259 f x 5 coweights): stem
    #: 256 is the largest window measured (9.4 s run, 1.84 s checks, 339 MB),
    #: and work and memory grow with the box, so a larger one is refused
    max_degrees: ClassVar[int] = 340_585

    max_stem: int = 24
    min_coweight: int = -2
    max_coweight: int = 1

    def __post_init__(self):
        if self.max_stem < self.min_stem:
            raise ValueError("empty stem range")
        if not self.min_coweight <= 0 <= self.max_coweight:  # empty, or no region
            raise ValueError(f"coweights {self.min_coweight}..{self.max_coweight} leave out 0")
        degrees = ((self.stored_max_stem - self.min_stem + 1) * (self.max_f + 1)
                   * (self.max_coweight - self.stored_min_coweight + 1))
        if degrees > self.max_degrees:
            raise ValueError(f"the window stores {degrees} degrees, "
                             f"over stem 256's {self.max_degrees}")

    @property
    def max_f(self) -> int:
        return self.max_stem + 2

    # Stored = asserted plus padding; construction and page turning happen
    # over the stored box, assertions only over the asserted one.
    @property
    def stored_max_stem(self) -> int:
        return self.max_stem + self.stem_pad

    @property
    def stored_min_coweight(self) -> int:
        return self.min_coweight - self.coweight_pad

    def stores(self, d: TriDegree) -> bool:
        """Whether d lies in the stored box, in plain arithmetic (no properties)."""
        s, f, w = d
        return (
            self.min_stem <= s <= self.max_stem + self.stem_pad
            and 0 <= f <= self.max_stem + 2
            and self.min_coweight - self.coweight_pad <= s - w <= self.max_coweight
        )

    def asserts(self, d: TriDegree) -> bool:
        return (
            self.min_stem <= d.s <= self.max_stem
            and 0 <= d.f <= self.max_f
            and self.min_coweight <= d.coweight <= self.max_coweight
        )

    def region_degrees(self) -> Iterator[Tuple[int, int, int]]:
        """The region's degrees (s, f, s), stems 0..max_stem and f from above
        f = s/2 - 1 to ``max_f``, in (s, f) order: plain tuples, which hash
        and compare as the ``TriDegree`` keys of a run's states do."""
        for s in range(0, self.max_stem + 1):
            for f in range(s // 2, self.max_f + 1):  # f > s/2 - 1
                yield s, f, s

    def near_boundary(self, d: TriDegree, reach: int) -> bool:
        """True if d lies below ``min_stem``, within `reach` stems of the
        asserted top stem ``max_stem``, within `reach` of ``max_f``, or outside
        the asserted coweights (the coweight padding counts as boundary)."""
        return not (
            self.min_stem <= d.s <= self.max_stem - reach
            and d.f + reach <= self.max_f
            and self.min_coweight <= d.coweight <= self.max_coweight
        )
