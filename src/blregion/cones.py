"""Construction of the Bockstein E1 page inside a window.

The positive cone is the polynomial part (edge monomials times rho and tau
powers); the negative cone splits into the gamma part (tau-free edge classes
under the infinitely divisible gamma/(rho^j tau^i)) and the Q part (torsion
witnesses Q/rho^j on the tau-torsion families). Besides the windowed
builders, this module exposes exact per-degree enumerators that answer "what
does E1 contain in this tridegree" anywhere. The differential engine does not
call them directly: it asks an ``E1Index``, which answers degrees inside the
window from the run's stored bases and enumerates every other degree once.

Construction is a pure function of (catalog, window); per-degree work is
independent and merges deterministically in degree order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from .catalog import Catalog, Q_SHIFT
from .degrees import TriDegree, Window
from .monomials import (
    Cone,
    MonomialClass,
    degree_of,
    display,
    make_gamma,
    make_positive,
    make_q,
)


@dataclass
class TrigradedSpace:
    """Ordered monomial basis per tridegree."""

    basis: Dict[TriDegree, Tuple[MonomialClass, ...]] = field(default_factory=dict)

    def add(self, cat: Catalog, m: MonomialClass) -> None:
        d = degree_of(cat, m).require_filtration()
        cur = self.basis.get(d, ())
        if m not in cur:
            self.basis[d] = tuple(sorted(cur + (m,), key=lambda x: x.sort_key()))

    def at(self, d: TriDegree) -> Tuple[MonomialClass, ...]:
        return self.basis.get(d, ())

    def dimension(self, d: TriDegree) -> int:
        return len(self.basis.get(d, ()))

    def __iter__(self) -> Iterator[TriDegree]:
        return iter(sorted(self.basis))

    def classes(self) -> Iterator[MonomialClass]:
        for d in sorted(self.basis):
            yield from self.basis[d]

    def validate(self, cat: Catalog) -> None:
        seen = {}
        for d, monos in self.basis.items():
            for m in monos:
                if degree_of(cat, m) != d:
                    raise ValueError(f"{display(m)} filed under {d}, computed {degree_of(cat, m)}")
                if m in seen:
                    raise ValueError(f"{display(m)} stored in two degrees")
                seen[m] = d


@dataclass
class E1Page:
    window: Window
    positive: TrigradedSpace
    gamma_part: TrigradedSpace
    q_part: TrigradedSpace

    def spaces(self) -> Tuple[TrigradedSpace, ...]:
        return (self.positive, self.gamma_part, self.q_part)

    def at(self, d: TriDegree) -> Tuple[MonomialClass, ...]:
        return tuple(
            sorted(
                self.positive.at(d) + self.gamma_part.at(d) + self.q_part.at(d),
                key=lambda m: m.sort_key(),
            )
        )


# --- tau-free edge monomials (the "underlying" classes) -----------------------


def _underlying_with_filtration(cat: Catalog, f: int) -> Iterator[MonomialClass]:
    """All tau-reduced underlying monomials of Adams filtration exactly f.

    Covers 1, pure h0/h1 powers and bumped family members; complete relative
    to the catalog's wedge coverage.
    """
    if f == 0:
        m = make_positive(cat)
        if m is not None:
            yield m
        return
    for m in (make_positive(cat, h0=f), make_positive(cat, h1=f)):
        if m is not None:
            yield m
    for fam in sorted(cat.families.values(), key=lambda x: x.name):
        if fam.tau_torsion:
            continue  # torsion towers are pure h1 powers, already listed
        if fam.period.f <= 0:
            continue
        h0_max = 0 if fam.h0_height >= 10**8 else fam.h0_height
        h1_max = 0 if fam.h1_height >= 10**8 else fam.h1_height
        for b0 in range(h0_max + 1):
            for b1 in range(h1_max + 1):
                if b0 and b1:
                    continue
                rest = f - fam.base.f - b0 - b1
                if rest < 0 or rest % fam.period.f:
                    continue
                k = rest // fam.period.f
                if k < fam.k_min:
                    continue
                m = make_positive(cat, h0=b0, h1=b1, family=fam.name, k=k)
                if m is not None:
                    yield m


def enumerate_positive_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact E1 positive-cone basis of one tridegree (window-independent)."""
    if deg.f < 0 or deg.coweight < 0:
        return []
    out = []
    for z in _underlying_with_filtration(cat, deg.f):
        zdeg = degree_of(cat, z)
        b = deg.coweight - zdeg.coweight
        a = zdeg.s - deg.s
        if b < 0 or a < 0:
            continue
        m = make_positive(cat, rho=a, tau=b, h0=z.h0, h1=z.h1, family=z.family, k=z.k)
        if m is not None and degree_of(cat, m) == deg:
            out.append(m)
    return sorted(set(out), key=lambda m: m.sort_key())


def enumerate_gamma_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact gamma-part basis of one tridegree."""
    if deg.f < 0:
        return []
    out = []
    for x in _underlying_with_filtration(cat, deg.f):
        if not x.family and x.h1 >= 4:
            continue  # tau-torsion: not in the tau-free part
        xdeg = degree_of(cat, x)
        i = xdeg.coweight - 1 - deg.coweight
        j = deg.s - xdeg.s
        if i < 1 or j < 0:
            continue
        m = make_gamma(cat, j, i, x.h0, x.h1, x.family, x.k)
        if m is not None and degree_of(cat, m) == deg:
            out.append(m)
    return sorted(set(out), key=lambda m: m.sort_key())


def enumerate_q_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact Q-part basis of one tridegree."""
    out = []
    for fam in sorted(cat.families.values(), key=lambda x: x.name):
        if not fam.tau_torsion:
            continue
        if deg.coweight != (Q_SHIFT + fam.base).coweight:
            continue
        if fam.period.f <= 0:
            continue
        k, rem = divmod(deg.f - (Q_SHIFT + fam.base).f, fam.period.f)
        if rem or k < 0:
            continue
        j = deg.s - (Q_SHIFT + fam.degree(k)).s
        if j < 0:
            continue
        m = make_q(cat, j, fam.name, k)
        if m is not None and degree_of(cat, m) == deg:
            out.append(m)
    return sorted(set(out), key=lambda m: m.sort_key())


def enumerate_e1_at(cat: Catalog, deg: TriDegree, cone: Optional[Cone] = None) -> List[MonomialClass]:
    if cone is Cone.POSITIVE:
        return enumerate_positive_at(cat, deg)
    if cone is Cone.GAMMA:
        return enumerate_gamma_at(cat, deg)
    if cone is Cone.Q:
        return enumerate_q_at(cat, deg)
    return sorted(
        enumerate_positive_at(cat, deg)
        + enumerate_gamma_at(cat, deg)
        + enumerate_q_at(cat, deg),
        key=lambda m: m.sort_key(),
    )


class E1Index:
    """The E1 basis of any tridegree and cone, for the lifetime of one run.

    ``stored`` maps each nonempty stored degree of ``window`` to an object
    whose ``basis`` is that degree's sorted E1 basis (the run's degree
    states). Degrees the window stores are answered from it, filtered by
    cone; every other degree is enumerated once and memoized here. Without a
    window every degree takes the memoized path.
    """

    def __init__(self, cat: Catalog, window: Optional[Window] = None,
                 stored: Optional[Mapping[TriDegree, object]] = None):
        self.cat = cat
        self.window = window
        self.stored = stored if stored is not None else {}
        self._memo: Dict[Tuple[TriDegree, Cone], Tuple[MonomialClass, ...]] = {}

    def at(self, deg: TriDegree, cone: Cone) -> Tuple[MonomialClass, ...]:
        """Sorted basis of one cone of E1 in degree ``deg``."""
        if self.window is not None and self.window.stores(deg):
            st = self.stored.get(deg)
            return tuple(m for m in st.basis if m.cone is cone) if st else ()
        key = (deg, cone)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = tuple(enumerate_e1_at(self.cat, deg, cone))
        return hit


# --- windowed builders ---------------------------------------------------------


def _degree_box(window: Window) -> Iterator[TriDegree]:
    for s in range(window.min_stem, window.stored_max_stem + 1):
        for f in range(0, window.max_f + 1):
            for c in range(window.stored_min_coweight, window.max_coweight + 1):
                yield TriDegree(s, f, s - c)


def build_e1_positive(cat: Catalog, window: Window) -> TrigradedSpace:
    """Positive cone E1 = edge monomials times rho and tau powers, windowed."""
    space = TrigradedSpace()
    for deg in _degree_box(window):
        for m in enumerate_positive_at(cat, deg):
            space.add(cat, m)
    return space


def build_e1_negative(cat: Catalog, window: Window) -> Tuple[TrigradedSpace, TrigradedSpace]:
    """Gamma and Q parts of E1 in the window.

    Every Q class is infinitely rho-divisible; the window truncates the
    towers at its stem edge and the boundary policy marks the cut.
    """
    gamma_space = TrigradedSpace()
    q_space = TrigradedSpace()
    for deg in _degree_box(window):
        for m in enumerate_gamma_at(cat, deg):
            gamma_space.add(cat, m)
        for m in enumerate_q_at(cat, deg):
            q_space.add(cat, m)
    return gamma_space, q_space


def build_e1(cat: Catalog, window: Window) -> E1Page:
    gamma_space, q_space = build_e1_negative(cat, window)
    return E1Page(
        window=window,
        positive=build_e1_positive(cat, window),
        gamma_part=gamma_space,
        q_part=q_space,
    )
