"""Construction of the Bockstein E1 page inside a window.

The positive cone is the polynomial part (edge monomials times rho and tau
powers); the negative cone splits into the gamma part (tau-free edge classes
under the infinitely divisible gamma/(rho^j tau^i)) and the Q part (torsion
witnesses Q/rho^j on the tau-torsion families). ``build_e1`` generates the
per-degree bases of every degree a window stores, the one form of E1 a run
holds: it walks the underlying classes of each filtration once, emits every
class the stored box allows in the degree its construction gives, and
buckets them by degree. Exact per-degree enumerators answer "what does E1
contain in this tridegree" anywhere, by filtering candidates; they are the
reference ``build_e1`` is tested against. The differential engine does not
call either directly: it asks an ``E1Index`` for the classes d_r(m) can
hit. The index groups each target degree it is asked about by cone group
and filtration, once per run: a stored degree from the run's stored basis,
any other through the enumerators, from the underlying classes of its Adams
filtration, listed once per filtration. It answers "on which pages does a
positive class have a target" once per rho-tower (``positive_pages``).

Construction is a pure function of (catalog, window) and its result comes
in sorted degree order.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from .catalog import INF_HEIGHT, Q_SHIFT, Catalog
from .degrees import DIFFERENTIAL_SHIFT, TriDegree, Window
from .monomials import (
    Cone,
    MonomialClass,
    degree_of,
    make_gamma,
    make_positive,
    make_q,
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
        h0_max = 0 if fam.h0_height >= INF_HEIGHT else fam.h0_height
        h1_max = 0 if fam.h1_height >= INF_HEIGHT else fam.h1_height
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


def _underlying(cat: Catalog, f: int) -> List[Tuple[MonomialClass, TriDegree]]:
    """``_underlying_with_filtration(cat, f)``, each class with its degree."""
    return [(z, degree_of(cat, z)) for z in _underlying_with_filtration(cat, f)]


def _positive_at(cat: Catalog, deg: TriDegree, under) -> List[MonomialClass]:
    """Positive-cone basis of ``deg`` from ``_underlying(cat, deg.f)``."""
    if deg.f < 0 or deg.coweight < 0:
        return []
    out = []
    for z, zdeg in under:
        b = deg.coweight - zdeg.coweight
        a = zdeg.s - deg.s
        if b < 0 or a < 0:
            continue
        m = make_positive(cat, rho=a, tau=b, h0=z.h0, h1=z.h1, family=z.family, k=z.k)
        if m is not None and degree_of(cat, m) == deg:
            out.append(m)
    return sorted(set(out))


def _gamma_at(cat: Catalog, deg: TriDegree, under) -> List[MonomialClass]:
    """Gamma-part basis of ``deg`` from ``_underlying(cat, deg.f)``."""
    if deg.f < 0:
        return []
    out = []
    for x, xdeg in under:
        i = xdeg.coweight - 1 - deg.coweight
        j = deg.s - xdeg.s
        if i < 1 or j < 0:
            continue
        m = make_gamma(cat, j, i, x.h0, x.h1, x.family, x.k)
        if m is not None and degree_of(cat, m) == deg:
            out.append(m)
    return sorted(set(out))


def enumerate_positive_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact E1 positive-cone basis of one tridegree (window-independent)."""
    return _positive_at(cat, deg, _underlying(cat, deg.f))


def enumerate_gamma_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact gamma-part basis of one tridegree."""
    return _gamma_at(cat, deg, _underlying(cat, deg.f))


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
    return sorted(set(out))


def enumerate_e1_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact E1 basis of one tridegree, all three cones, sorted."""
    under = _underlying(cat, deg.f)
    return sorted(_positive_at(cat, deg, under) + _gamma_at(cat, deg, under)
                  + enumerate_q_at(cat, deg))


#: the filtration map of every empty cone group, shared and read-only
_NO_CLASSES: Mapping[int, Tuple[MonomialClass, ...]] = MappingProxyType({})


class E1Index:
    """The classes d_r can hit, by target degree, cone group and filtration.

    A positive class hits the positive cone of its target degree, a divided
    class the gamma and Q parts together; these are the two cone groups.
    For each (degree, group) it is asked about, the index keeps one map
    from Bockstein filtration to that filtration's sorted classes, and for
    each source degree it is asked about, the map of its target degree, so
    ``targets`` adds no degrees. Every empty group shares one read-only map.
    A run reads one group per rho-tower, not per class (``positive_pages``
    and ``BocksteinRun.movers``): a stem-40 run builds 1,954 groups, 144 of
    them through the per-degree enumerators. ``stored`` maps each
    nonempty stored degree of ``window`` to an object whose ``basis`` is
    that degree's sorted E1 basis (the run's degree states, built from
    ``build_e1``); one pass over it fills both groups of a stored degree.
    Any other degree is grouped by the per-degree enumerators, from the
    underlying classes of its Adams filtration (``_underlying``), listed
    once per filtration for the run.
    """

    def __init__(self, cat: Catalog, window: Window, stored: Mapping[TriDegree, object]):
        self.cat = cat
        self.window = window
        self.stored = stored
        self._groups: Dict[Tuple[TriDegree, bool], Mapping[int, Tuple[MonomialClass, ...]]] = {}
        self._under: Dict[int, List[Tuple[MonomialClass, TriDegree]]] = {}
        #: source degree -> its target degree's group, indexed by ``positive``
        self._from: Tuple[Dict[TriDegree, Mapping[int, Tuple[MonomialClass, ...]]], ...] = ({}, {})
        #: positive rho-tower (a class without its rho-exponent) -> ``positive_pages``
        self._pages: Dict[tuple, FrozenSet[int]] = {}

    def group(self, deg: TriDegree, positive: bool) -> Mapping[int, Tuple[MonomialClass, ...]]:
        """The classes of one cone group of E1 in ``deg``, by filtration: the
        positive cone, or the gamma and Q parts. Each tuple is sorted."""
        key = (deg, positive)
        hit = self._groups.get(key)
        if hit is None:
            if self.window.stores(deg):
                self._group_stored(deg)
            else:
                self._groups[key] = _by_filtration(self._enumerate(deg, positive))
            hit = self._groups[key]
        return hit

    def _group_stored(self, deg: TriDegree) -> None:
        """Both cone groups of a stored degree, from one pass over its basis."""
        st = self.stored.get(deg)
        split: Tuple[List[MonomialClass], List[MonomialClass]] = ([], [])
        for m in st.basis if st else ():
            split[m.cone is Cone.POSITIVE].append(m)
        self._groups[(deg, False)] = _by_filtration(split[False])
        self._groups[(deg, True)] = _by_filtration(split[True])

    def _enumerate(self, deg: TriDegree, positive: bool) -> List[MonomialClass]:
        """The sorted basis of one cone group of E1 in an unstored ``deg``."""
        under = self._under.get(deg.f)
        if under is None:
            under = self._under[deg.f] = _underlying(self.cat, deg.f)
        if positive:
            return _positive_at(self.cat, deg, under)
        return _gamma_at(self.cat, deg, under) + enumerate_q_at(self.cat, deg)

    def targets(self, m: MonomialClass, r: int) -> Tuple[MonomialClass, ...]:
        """The classes d_r(m) can hit: its target degree, its filtration plus r.

        A positive class hits the positive cone; a divided class hits the
        gamma and Q parts, and nothing once the filtration turns positive.
        """
        positive = m.cone is Cone.POSITIVE
        filt = (m.rho if positive else -m.rho) + r
        if filt > 0 and not positive:
            return ()
        deg = degree_of(self.cat, m)
        by_source = self._from[positive]
        hit = by_source.get(deg)
        if hit is None:
            hit = by_source[deg] = self.group(deg + DIFFERENTIAL_SHIFT, positive)
        return hit.get(filt, ())

    def positive_pages(self, m: MonomialClass) -> FrozenSet[int]:
        """The pages r >= 1 on which d_r of the positive class m has a target:
        ``r in positive_pages(m)`` exactly when ``targets(m, r)`` is nonempty.

        The classes of filtration a + r in the target degree of rho^a x are
        rho^(a + r) times the rho-free classes of one degree, whatever a is,
        so every member of m's rho-tower has the same pages; they are read
        once per tower, from the first member asked about.
        """
        key = m[:3] + m[4:]
        hit = self._pages.get(key)
        if hit is None:
            a = m.rho
            group = self.group(degree_of(self.cat, m) + DIFFERENTIAL_SHIFT, True)
            hit = self._pages[key] = frozenset(f - a for f in group if f > a)
        return hit


def _by_filtration(basis: Iterable[MonomialClass]) -> Mapping[int, Tuple[MonomialClass, ...]]:
    """A sorted basis split by Bockstein filtration, each part still sorted."""
    by_filt: Dict[int, List[MonomialClass]] = {}
    for m in basis:
        by_filt.setdefault(m.filtration(), []).append(m)
    return {filt: tuple(ms) for filt, ms in by_filt.items()} or _NO_CLASSES


# --- the windowed E1 page -----------------------------------------------------


def build_e1(cat: Catalog, window: Window) -> Dict[TriDegree, Tuple[MonomialClass, ...]]:
    """The sorted E1 basis of every nonempty degree the window stores.

    Keys come in sorted degree order. Each class is generated once, in its
    own degree, from the underlying classes of each filtration f
    (``_underlying``): rho^a tau^b z in (s - a, f, w - a - b) for every
    underlying z in (s, f, w), since rho sits in (-1, 0, -1) and tau in
    (0, 0, -1); gamma/(rho^j tau^i) z in (s + j, f, w + i + j + 1); and
    Q/rho^j over each member of a tau-torsion family, in
    Q_SHIFT plus the member's degree plus (j, 0, j), for exactly the a, b,
    i, j the stored box allows. The result equals ``enumerate_e1_at``
    degree by degree. Every Q class is infinitely rho-divisible; the window
    truncates the towers at its stem edge and the boundary policy marks the
    cut.
    """
    lo_s, hi_s = window.min_stem, window.stored_max_stem
    lo_c, hi_c = window.stored_min_coweight, window.max_coweight
    buckets: Dict[TriDegree, List[MonomialClass]] = {}
    for f in range(window.max_f + 1):
        for z, (zs, _, zw) in _underlying(cat, f):
            zc = zs - zw
            # rho^a tau^b z lies a stems below z and b coweights above it;
            # the positive cone has no negative coweight
            for b in range(max(0, lo_c - zc, -zc), hi_c - zc + 1):
                m0 = make_positive(cat, 0, b, z.h0, z.h1, z.family, z.k)
                if m0 is None:
                    continue
                cone, fam, k, _, tau, h0, h1 = m0
                for a in range(max(0, zs - hi_s), zs - lo_s + 1):
                    deg = TriDegree(zs - a, f, zw - a - b)
                    buckets.setdefault(deg, []).append(
                        MonomialClass(cone, fam, k, a, tau, h0, h1))
            # gamma/(rho^j tau^i) z lies i + 1 coweights below z, j stems above
            for i in range(max(1, zc - 1 - hi_c), zc - lo_c):
                m0 = make_gamma(cat, 0, i, z.h0, z.h1, z.family, z.k)
                if m0 is None:
                    continue
                cone, fam, k, _, tau, h0, h1 = m0
                for j in range(max(0, lo_s - zs), hi_s - zs + 1):
                    deg = TriDegree(zs + j, f, zw + i + j + 1)
                    buckets.setdefault(deg, []).append(
                        MonomialClass(cone, fam, k, j, tau, h0, h1))
    for fam in sorted(cat.families.values(), key=lambda x: x.name):
        if not fam.tau_torsion or fam.period.f <= 0:
            continue
        for k in itertools.count():
            qs, qf, qw = Q_SHIFT + fam.degree(k)
            if qf > window.max_f:
                break
            if qf < 0 or not lo_c <= qs - qw <= hi_c:
                continue
            for j in range(max(0, lo_s - qs), hi_s - qs + 1):
                buckets.setdefault(TriDegree(qs + j, qf, qw + j), []).append(
                    make_q(cat, j, fam.name, k))
    return {deg: tuple(sorted(buckets[deg])) for deg in sorted(buckets)}
