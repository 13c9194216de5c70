"""Adams layer over the Bockstein output and the homotopy-level consequences.

The region survives the Adams spectral sequence untouched (verified class by
class against the vanishing wedge and the finite coweight-1 h1 towers), after
which the only hidden rho-extensions are the jumps from the torsion witnesses
Q h_1^k to h_1^k for k >= 4; no further extensions land in the region, taken
as a rule since its proof lives in connective K-theory. Everything downstream
(rho- and 2-divisibility of the Hopf-power classes, the image of geometric
fixed points, underlying detectors, Mahowald invariants of the powers of 2)
is derived from this extension-decorated page.

Each reader of a finished run asks each question once. ``region`` walks the
region's coweight-0 degrees, not every stored one, and yields each with its
survivors (``DegreeState.alive_classes``), so its readers -- the Adams
check, the chart and the census report -- take a class's degree from it.
``adams_no_differentials`` walks each candidate source's h0 or h1 tower once
per call with ``bockstein.walk_tower``, the structural check's walker, and
keeps the verdict per source and generator: it reads neither the target nor
the Adams page. ``divisibility_table`` walks the rho-division tower once per
k, and the 2-divisibility and the fixed-point image, row by row or one k at
a time, read that list. An ``AdamsPage`` lists the classical edge classes by
stem on first use and keeps the listing for its own life, so the Mahowald
report walks the underlying classes once, not once per k; nothing carries
over from one page to the next.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Dict, Iterator, List, Optional, Tuple

from .bockstein import BocksteinRun, Report, walk_tower
from .catalog import Catalog
from .cones import _underlying_with_filtration
from .degrees import TriDegree
from .monomials import (
    Cone,
    MonomialClass,
    degree_of,
    display,
    make_positive,
    make_q,
    rho_shift,
)


class OutOfWindowError(ValueError):
    """The requested derivation needs classes beyond the computed window."""


class AmbiguityError(ValueError):
    """A lookup demanded a unique answer and found several (or none)."""


@dataclass
class AdamsPage:
    """Bockstein output regarded as the Adams final page, plus extensions."""

    run: BocksteinRun
    hidden_rho: Dict[MonomialClass, MonomialClass] = field(default_factory=dict)

    @property
    def cat(self) -> Catalog:
        return self.run.cat

    @cached_property
    def classical_edge(self) -> Dict[int, List[MonomialClass]]:
        """``classical_edge_by_stem`` up to the window's filtration bound,
        listed on first use and kept for the page's life."""
        return classical_edge_by_stem(self.cat, self.run.window.max_f)


def region(run: BocksteinRun) -> Iterator[Tuple[TriDegree, Tuple[MonomialClass, ...]]]:
    """Each region degree (s, f, s) with survivors, and the survivors.

    The region's degrees are ``Window.region_degrees``, the census's too.
    Degrees come in (s, f) order and survivors in basis order, which is
    sorted. Only the region's degrees are looked up.
    """
    states = run.states
    for d in run.window.region_degrees():
        st = states.get(d)
        if st is not None and st.alive_classes():
            yield st.degree, st.alive_classes()


#: the last Adams page whose differentials ``adams_no_differentials`` excludes
MAX_ADAMS_PAGE = 12


def adams_no_differentials(run: BocksteinRun) -> Report:
    """Class-by-class exclusion of Adams differentials on the region.

    Targets of a differential on a region class drop into coweight -1, where
    the page vanishes above the wedge line; candidate sources sit in coweight
    1 and would have to be h1-periodic against the finite h1 towers there,
    or to hit the h0 tower from the empty stem-1 column. A nonzero d_r from
    beta onto a region class alpha would propagate along the tower: sym^t
    beta must stay alive as long as sym^t alpha does. Region classes belong
    to the census families, whose towers never terminate (validated by the
    census), so beta is excluded exactly when its own tower dies inside the
    stored box (``walk_tower``), whatever alpha is; a tower that leaves the
    box or exhausts the walk's bound cannot certify.
    """
    states, max_f = run.states, run.window.max_f
    rep = Report()
    #: (source, generator) -> whether its tower dies in the stored box
    verdicts: Dict[Tuple[MonomialClass, str], bool] = {}
    name = cache(display)  # each class is named once per call
    for (s, f, w), survivors in region(run):
        # the live target states (s-1, f+r, w) and the sources (s+1, f-r, w)
        # in coweight 1 depend on the degree only, so they are read once
        targets = [(r, st) for r in range(2, min(max_f - f, MAX_ADAMS_PAGE) + 1)
                   if (st := states.get((s - 1, f + r, w))) is not None and st.alive_classes()]
        sources = [(r, st.alive_classes()) for r in range(2, min(f, MAX_ADAMS_PAGE) + 1)
                   if (st := states.get((s + 1, f - r, w))) is not None]
        for alpha in survivors:
            for r, st in targets:  # (a) targets must be dead or out of the stored page
                rep.violations.append(f"unexcluded differential: d_{r}({name(alpha)}) has "
                                      f"live target {name(st.alive_classes()[0])} at {st.degree}")
            is_h0_tower = alpha.h1 == 0 and alpha.cone is Cone.POSITIVE and not alpha.family
            sym = "h_0" if is_h0_tower else "h_1"
            for r, betas in sources:  # (b) sources in coweight 1
                for beta in betas:
                    excludes = verdicts.get((beta, sym))
                    if excludes is None:
                        excludes = verdicts[(beta, sym)] = walk_tower(run, beta, sym) == "dies"
                    if excludes:
                        rep.notes.append(
                            f"d_{r}({name(beta)}) -> {name(alpha)} excluded: "
                            f"the source's {sym} tower dies while the target's persists"
                        )
                    else:
                        rep.violations.append(
                            f"unexcluded differential: d_{r}({name(beta)}) could hit "
                            f"{name(alpha)}"
                        )
    return rep


def install_hidden_rho_extensions(run: BocksteinRun) -> AdamsPage:
    """Link rho * [Q h_1^k] = [h_1^k] for k >= 4; nothing else enters the region."""
    page = AdamsPage(run)
    cat = run.cat
    k = 4
    while True:
        src = make_q(cat, 0, "h_1^{4+k}", k - 4)
        tgt = make_positive(cat, h1=k)
        if src is None or tgt is None:
            break
        if not run.window.asserts(run.degree(src)):
            break
        if not (run.monomial_alive(src) and run.monomial_alive(tgt)):
            break
        page.hidden_rho[src] = tgt
        k += 1
    return page


def rho_divisibility_formula(k: int) -> int:
    """Closed form: k-1 when k = 0 mod 4, else 4*floor(k/4)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k - 1 if k % 4 == 0 else 4 * (k // 4)


def rho_divisibility_engine(page: AdamsPage, k: int) -> int:
    """Maximal rho-power dividing the k-th Hopf-power class, from the page.

    Walks the extension-decorated page: one hidden step from h_1^k to
    Q h_1^k, then the surviving rho-divisions of the Q tower. Raises
    OutOfWindowError when the window cannot certify maximality.
    """
    run, cat = page.run, page.cat
    if k < 1:
        raise ValueError("k must be >= 1")
    top = make_positive(cat, h1=k)
    if top is None or not run.monomial_alive(top):
        raise OutOfWindowError(f"h_1^{k} not alive in the computed window")
    src = make_q(cat, 0, "h_1^{4+k}", k - 4) if k >= 4 else None
    if src is None or src not in page.hidden_rho:
        if k >= 4:
            raise OutOfWindowError(f"hidden extension for k={k} not installed")
        return 0
    j, deeper = 0, src
    while True:
        deeper = rho_shift(deeper, -1)
        ddeg = run.degree(deeper)
        if ddeg.s > run.window.max_stem:
            raise OutOfWindowError(
                f"rho-division tower of Q h_1^{k} leaves the window at stem {ddeg.s}"
            )
        if not run.monomial_alive(deeper):
            break
        j += 1
    return 1 + j


@dataclass(frozen=True)
class DivisibilityRecord:
    k: int
    max_rho_power: int
    max_two_power: Optional[int]
    fixed_point_generator_exponent: int


def rho_divisibility(k: int, page: AdamsPage) -> int:
    """Engine mode when the window certifies the answer, closed form beyond.

    In engine mode the two must agree; disagreement raises, it is never
    papered over.
    """
    formula = rho_divisibility_formula(k)
    try:
        engine = rho_divisibility_engine(page, k)
    except OutOfWindowError:
        return formula
    if engine != formula:
        raise AmbiguityError(
            f"engine rho-divisibility {engine} for k={k} disagrees with "
            f"the closed form {formula}"
        )
    return engine


def fixed_point_image(k: int, page: AdamsPage) -> int:
    """Exponent m with image of geometric fixed points = 2^m Z on stem k,
    read from ``divisibility_table``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return divisibility_table(page, k)[-1].fixed_point_generator_exponent


def two_divisibility(k: int, page: AdamsPage) -> int:
    """Maximal power of 2 dividing the k-th Hopf-power class, k >= 5, read
    from ``divisibility_table``."""
    if k < 5:
        raise ValueError("two-divisibility derivation requires k >= 5")
    return divisibility_table(page, k)[-1].max_two_power


def classical_edge_by_stem(cat: Catalog, max_f: int) -> Dict[int, List[MonomialClass]]:
    """Tau-free edge monomials up to filtration max_f, sorted within each
    stem: the classical detectors."""
    out: Dict[int, List[MonomialClass]] = {}
    for f in range(0, max_f + 1):
        for z in _underlying_with_filtration(cat, f):
            if not z.family and z.h1 >= 4:
                continue  # tau-torsion powers vanish classically
            out.setdefault(degree_of(cat, z).s, []).append(z)
    for edge in out.values():
        edge.sort()
    return out


def is_rho_divisible(page: AdamsPage, alpha: MonomialClass) -> bool:
    """Is the class detected by alpha a rho-multiple: is its rho-division a
    page class, or is it the target of a hidden extension?"""
    divided = rho_shift(alpha, -1)
    if divided is not None and page.run.monomial_alive(divided):
        return True
    return alpha in set(page.hidden_rho.values())


def underlying_map(page: AdamsPage, alpha: MonomialClass) -> Optional[MonomialClass]:
    """Detector of the underlying classical class of a region class.

    Positive-cone detectors name their own image. Negative-cone detectors
    force a strictly higher filtration downstairs; the edge catalog must
    offer exactly one candidate. Classes divisible by rho (page-level or
    hidden) map to zero: they make up the kernel of the underlying map.
    """
    cat = page.cat
    d = page.run.degree(alpha)
    if is_rho_divisible(page, alpha):
        return None
    if alpha.cone is Cone.POSITIVE:
        if alpha.rho >= 1:
            return None  # rho-divisible class whose witness left the window
        if alpha.tau or alpha.family:
            raise AmbiguityError(f"{display(alpha)} is not a region detector")
        return alpha
    candidates = [
        z for z in page.classical_edge.get(d.s, ()) if degree_of(cat, z).f > d.f
    ]
    if len(candidates) != 1:
        raise AmbiguityError(
            f"underlying detector of {display(alpha)} is ambiguous: "
            f"{[display(c) for c in candidates] or 'no candidates'}"
        )
    return candidates[0]


def maximal_desuspension_detector(page: AdamsPage, k: int) -> MonomialClass:
    """Detector of the deepest equivariant lift of the k-th Hopf power."""
    cat = page.cat
    if k == 0:
        return make_positive(cat)
    div = rho_divisibility(k, page)
    if div == 0:
        return make_positive(cat, h1=k)
    # one hidden step plus (div - 1) page-level divisions
    return make_q(cat, div - 1, "h_1^{4+k}", k - 4)


def mahowald_invariant_of_2k(page: AdamsPage, k: int) -> MonomialClass:
    """Classical detector of an element of the Mahowald invariant of 2^k.

    Selects the maximal rho-desuspension of the k-th Hopf power (not rho
    divisible, else the stem were not maximal) and takes its underlying
    detector. Indeterminacy is not computed.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    beta = maximal_desuspension_detector(page, k)
    out = underlying_map(page, beta)
    if out is None:
        raise AmbiguityError(
            f"selected desuspension {display(beta)} is rho-divisible"
        )
    return out


def divisibility_table(page: AdamsPage, k_max: int) -> List[DivisibilityRecord]:
    """The rho-, 2-divisibility and fixed-point image of eta^k for k = 1..k_max.

    ``rho_divisibility`` runs once per k, and the other two read its list,
    which they need only at n <= k. The fixed-points map sends the rho class
    to 1 and the Hopf class to -2 (sign immaterial), so the image on the k-th
    diagonal is generated by 2^n for the least n with the n-th Hopf power
    divisible by rho^(k-n). On h0-torsion classes multiplication by 2 agrees
    with rho times the Hopf class up to sign, so 2^m divides the k-th power,
    k >= 5, exactly when rho^m divides the (k-m)-th.
    """
    rho = [0] + [rho_divisibility(k, page) for k in range(1, k_max + 1)]
    rows = []
    for k in range(1, k_max + 1):
        two = 0
        while two + 1 <= k - 1 and rho[k - two - 1] >= two + 1:
            two += 1
        rows.append(DivisibilityRecord(
            k=k,
            max_rho_power=rho[k],
            max_two_power=two if k >= 5 else None,
            fixed_point_generator_exponent=next(n for n in range(k + 1) if rho[n] >= k - n),
        ))
    return rows
