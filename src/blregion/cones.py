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
reference ``build_e1`` is tested against. The differential engine lists
the classes d_r(m) can hit from the run's degree states, the one copy of
E1 it keeps, and asks an ``E1Index`` only which filtrations one cone group
of a target degree occupies, once per degree and group for the run: a
stored degree from the run's stored basis, any other through the
enumerators, from the underlying classes of its Adams filtration, listed
once per filtration. It answers "on which pages does a positive class have
a target" once per rho-tower (``positive_pages``).

Construction is a pure function of (catalog, window) and its result comes
in sorted degree order.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Mapping, Tuple

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


class E1Index:
    """Which Bockstein filtrations each cone group of E1 occupies, by degree.

    A positive class hits the positive cone of its target degree, a divided
    class the gamma and Q parts together; these are the two cone groups.
    The index keeps one answer per (degree, group) it is asked about, the
    set of filtrations the group's classes have; the classes themselves
    live only in the run's degree states. A run asks once per rho-tower,
    not per class (``positive_pages`` and ``BocksteinRun.movers``): a
    stem-40 run keeps 401 filtration sets. ``stored`` maps each nonempty
    stored degree of ``window`` to an object whose ``basis`` is that
    degree's sorted E1 basis (the run's degree states, built from
    ``build_e1``). Any other degree is read through the per-degree
    enumerators, from the underlying classes of its Adams filtration
    (``_underlying``), listed once per filtration for the run.
    """

    def __init__(self, cat: Catalog, window: Window, stored: Mapping[TriDegree, object]):
        self.cat = cat
        self.window = window
        self.stored = stored
        self._filtrations: Dict[Tuple[TriDegree, bool], FrozenSet[int]] = {}
        self._under: Dict[int, List[Tuple[MonomialClass, TriDegree]]] = {}
        #: positive rho-tower (a class without its rho-exponent) -> ``positive_pages``
        self._pages: Dict[tuple, FrozenSet[int]] = {}

    def filtrations(self, deg: TriDegree, positive: bool) -> FrozenSet[int]:
        """The Bockstein filtrations of the classes of one cone group of E1 in
        ``deg``: the positive cone, or the gamma and Q parts."""
        key = (deg, positive)
        hit = self._filtrations.get(key)
        if hit is None:
            if self.window.stores(deg):
                st = self.stored.get(deg)
                classes = [m for m in (st.basis if st else ())
                           if (m.cone is Cone.POSITIVE) is positive]
            else:
                classes = self._enumerate(deg, positive)
            hit = self._filtrations[key] = frozenset(m.filtration() for m in classes)
        return hit

    def _enumerate(self, deg: TriDegree, positive: bool) -> List[MonomialClass]:
        """The sorted basis of one cone group of E1 in an unstored ``deg``."""
        under = self._under.get(deg.f)
        if under is None:
            under = self._under[deg.f] = _underlying(self.cat, deg.f)
        if positive:
            return _positive_at(self.cat, deg, under)
        return _gamma_at(self.cat, deg, under) + enumerate_q_at(self.cat, deg)

    def positive_pages(self, m: MonomialClass) -> FrozenSet[int]:
        """The pages r >= 1 on which d_r of the positive class m has a target:
        ``r in positive_pages(m)`` exactly when the positive cone of m's
        target degree has a class of filtration ``m.rho + r``.

        The classes of filtration a + r in the target degree of rho^a x are
        rho^(a + r) times the rho-free classes of one degree, whatever a is,
        so every member of m's rho-tower has the same pages; they are read
        once per tower, from the first member asked about.
        """
        key = m[:3] + m[4:]
        hit = self._pages.get(key)
        if hit is None:
            a = m.rho
            filts = self.filtrations(degree_of(self.cat, m) + DIFFERENTIAL_SHIFT, True)
            hit = self._pages[key] = frozenset(f - a for f in filts if f > a)
        return hit


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
