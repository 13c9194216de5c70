"""Construction of the Bockstein E1 page inside a window.

The positive cone is the polynomial part (edge monomials times rho and tau
powers); the negative cone splits into the gamma part (tau-free edge classes
under the infinitely divisible gamma/(rho^j tau^i)) and the Q part (torsion
witnesses Q/rho^j on the tau-torsion families). Exact per-degree
enumerators answer "what does E1 contain in this tridegree" anywhere;
``build_e1`` applies them to every degree a window stores, listing the
underlying classes once per filtration, and returns the per-degree bases,
the one form of E1 a run holds. The differential engine does not call the
enumerators directly: it asks an ``E1Index`` for the classes d_r(m) can
hit. The index groups each target degree it is asked about by cone group
and filtration, once per run: a stored degree from the run's stored basis,
any other from the underlying classes of its Adams filtration, which it
lists once per filtration as ``build_e1`` does.

Construction is a pure function of (catalog, window); per-degree work is
independent and merges deterministically in degree order.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

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


def _e1_at(cat: Catalog, deg: TriDegree, under) -> List[MonomialClass]:
    """All three cones of ``deg``, from ``_underlying(cat, deg.f)``, sorted."""
    return sorted(
        _positive_at(cat, deg, under) + _gamma_at(cat, deg, under) + enumerate_q_at(cat, deg)
    )


def enumerate_e1_at(cat: Catalog, deg: TriDegree) -> List[MonomialClass]:
    """Exact E1 basis of one tridegree, all three cones, sorted."""
    return _e1_at(cat, deg, _underlying(cat, deg.f))


#: the filtration map of every empty cone group, shared and read-only
_NO_CLASSES: Mapping[int, Tuple[MonomialClass, ...]] = MappingProxyType({})


class E1Index:
    """The classes d_r can hit, by target degree, cone group and filtration.

    A positive class hits the positive cone of its target degree, a divided
    class the gamma and Q parts together; these are the two cone groups.
    For each (degree, group) it is asked about, the index keeps one map
    from Bockstein filtration to that filtration's sorted classes, so
    ``targets`` is one lookup; every empty group shares one read-only map
    (1,482 of the 6,811 groups a stem-40 run asks about). ``stored`` maps
    each nonempty stored degree of ``window`` to an object whose ``basis``
    is that degree's sorted E1 basis (the run's degree states, built from
    ``build_e1``); a stored degree is grouped from it. Any other degree is
    grouped from the underlying classes of its Adams filtration
    (``_underlying``), listed once per filtration for the run, as
    ``build_e1`` lists them.
    """

    def __init__(self, cat: Catalog, window: Window, stored: Mapping[TriDegree, object]):
        self.cat = cat
        self.window = window
        self.stored = stored
        self._groups: Dict[Tuple[TriDegree, bool], Mapping[int, Tuple[MonomialClass, ...]]] = {}
        self._under: Dict[int, List[Tuple[MonomialClass, TriDegree]]] = {}

    def group(self, deg: TriDegree, positive: bool) -> Mapping[int, Tuple[MonomialClass, ...]]:
        """The classes of one cone group of E1 in ``deg``, by filtration: the
        positive cone, or the gamma and Q parts. Each tuple is sorted."""
        key = (deg, positive)
        hit = self._groups.get(key)
        if hit is None:
            by_filt: Dict[int, List[MonomialClass]] = {}
            for m in self._basis(deg, positive):
                by_filt.setdefault(m.filtration(), []).append(m)
            hit = {filt: tuple(ms) for filt, ms in by_filt.items()} or _NO_CLASSES
            self._groups[key] = hit
        return hit

    def _basis(self, deg: TriDegree, positive: bool) -> List[MonomialClass]:
        """The sorted basis of one cone group of E1 in ``deg``."""
        if self.window.stores(deg):
            st = self.stored.get(deg)
            return [m for m in st.basis if (m.cone is Cone.POSITIVE) is positive] if st else []
        under = self._under.get(deg.f)
        if under is None:
            under = self._under[deg.f] = _underlying(self.cat, deg.f)
        if positive:
            return _positive_at(self.cat, deg, under)
        return _gamma_at(self.cat, deg, under) + enumerate_q_at(self.cat, deg)

    def targets(self, m: MonomialClass, r: int,
                deg: Optional[TriDegree] = None) -> Tuple[MonomialClass, ...]:
        """The classes d_r(m) can hit: its target degree, its filtration plus r.

        ``deg`` is the degree of m when the caller knows it. A positive class
        hits the positive cone; a divided class hits the gamma and Q parts,
        and nothing once the filtration turns positive.
        """
        filt = m.filtration() + r
        positive = m.cone is Cone.POSITIVE
        if filt > 0 and not positive:
            return ()
        if deg is None:
            deg = degree_of(self.cat, m)
        return self.group(deg + DIFFERENTIAL_SHIFT, positive).get(filt, ())


# --- the windowed E1 page -----------------------------------------------------


def _degree_box(window: Window) -> Iterator[TriDegree]:
    """Every degree the window stores, in sorted order (weight rises as coweight falls)."""
    for s in range(window.min_stem, window.stored_max_stem + 1):
        for f in range(0, window.max_f + 1):
            for c in range(window.max_coweight, window.stored_min_coweight - 1, -1):
                yield TriDegree(s, f, s - c)


def build_e1(cat: Catalog, window: Window) -> Dict[TriDegree, Tuple[MonomialClass, ...]]:
    """The sorted E1 basis of every nonempty degree the window stores.

    Keys come in sorted degree order. The underlying classes of each
    filtration f and their degrees are computed once (``_underlying``) and
    shared by every stored degree of filtration f, so the result equals
    ``enumerate_e1_at`` degree by degree. Every Q class is infinitely
    rho-divisible; the window truncates the towers at its stem edge and the
    boundary policy marks the cut.
    """
    under = {f: _underlying(cat, f) for f in range(window.max_f + 1)}
    e1 = {}
    for deg in _degree_box(window):
        basis = _e1_at(cat, deg, under[deg.f])
        if basis:
            e1[deg] = tuple(basis)
    return e1
