"""The rho-Bockstein engine: rule seeding, Leibniz closure, page turning.

A ``BocksteinRun`` owns everything its page loop consults, built once from
its catalog, window, E1 states and rules: the ``E1Index``, the one index of
rule instances by page (``index_rules``), which keeps what the page resolver
and the positive oracle can read, the page schedule (pages 1..3 and every
page where a rule has a stored source) and the positive oracle.
``resolve_page(run, r)`` then needs only the run and the page.
Differentials are stored as values on basis monomials. A page turn touches
only the degrees a nonzero d_r leaves or enters, so its work follows the
differentials rather than the window, and it names each page class by one
E1 vector, reduced modulo the RREF boundaries.
A page differential is resolved from, in order: seeded rules, filtration or
empty-target vanishing, the positive-cone factorization oracle, the
factorization of a gamma class through one pure-gamma divisor, dead-target
vanishing (every cycle its candidate targets span is already a boundary),
h0/h1 Leibniz transfer and rho-tower transfer; the gamma factorization
runs on pages 1..3 only. A page class with no rule instance on page r and
nothing to hit is zero without an entry, so resolve work follows the classes
d_r can move: at stem 40, 9,888 entries over 12 pages, not 49,469.
The tau-power differentials and their gamma companions are closed forms, not
rules: ``TAU_STEP[r]`` (1, 2, 4 on pages 1..3) divides the tau exponent of
every tau power and pure gamma class alive on page r, and ``tau_power_d`` and
``pure_gamma_d`` give their d_r; ``index_rules`` refuses a rule that
contradicts them or their products with rho, h_0 and h_1 (``_closed_form_d``).
d_r is rho-linear, so every member of a rho-tower differentiates like the
tower's rho-free class moved along it (``monomials.rho_shift``): after the
rule lookup, a page resolves each tower once (``PageResolver._factor_tower``),
a positive one by the positive oracle, which works on rho-free classes, on
every page, and a gamma one on pages r <= 3 (a gamma class with rho < r has
no target) at one tau exponent n, the first multiple of ``TAU_STEP[r]`` at or
above its own, through the pure class gamma/(rho^j tau^n). The oracle
certifies survival by one rule: a class no d_q can hit survives to page r
exactly when every d_q of it, q < r, is known zero. A tower's members have
targets on the same pages: the movers and the oracle's empty-target tests
read one per tower.
A run holds E1 once: ``build_e1`` gives the basis of every stored degree,
and each becomes a ``DegreeState`` whose cycles and boundaries are ``gf2``
RREF row lists, with its page representatives, the basis classes they
select and its surviving basis classes cached until the rows change (an E1
state starts with all three, which its unit-vector cycles fix), so a page
re-derives page classes only where a turn touched the rows and a mover or a
transfer asks. Bases never change, so the run files each stored class under
its state once (``BocksteinRun.home``) and lists, once, the classes each
scheduled page can move (``BocksteinRun.movers``); the page loop, the
checks and the Adams layer read a stored class's degree from its home.
``walk_tower`` is the one walk along an h0 or h1 tower: the structural
check reads it for the coweight-1 h1 towers, and the Adams check for each
candidate source.
The run's ``E1Index`` says which filtrations a cone group of a target degree
occupies; the classes d_r(m) can hit are listed, where a mechanism needs
them, from the target's degree state (``targets_in``), so the states hold
the run's one copy of E1. Anything still unresolved, with a live target,
falls under the engine's declared closure assumption -- no differentials
beyond the seeded rules, the closed forms and their closure -- and is
assigned zero with a log entry, while conflicting derivations raise instead of guessing. No check
validates the logged zeros as such: the census compares only the asserted
coweight-0 page dimensions, the structural checks read rho-divisibility of
the nonzero negative-cone differentials and the coweight-1 h1 towers, and
the page turn checks d_r o d_r = 0; a logged zero can trip one of these only
where it changes what that check reads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

from . import gf2
from .catalog import Catalog
from .cones import E1Index, build_e1
from .degrees import DIFFERENTIAL_SHIFT, TriDegree, Window
from .monomials import (
    Cone,
    MonomialClass,
    degree_of,
    display,
    make_gamma,
    make_positive,
    module_action,
    multiply,
    rho_shift,
)
from .rules import DifferentialRule, RuleInstance, seed_rules


class EngineError(RuntimeError):
    pass


class ConflictError(EngineError):
    """Two derivations of the same differential disagree."""


_UNKNOWN = object()


class Chain(NamedTuple):
    """An F2 sum of basis monomials, split into stored and out-of-window
    terms; a NamedTuple (no ``__dict__``), true when it has a term."""

    terms: FrozenSet[MonomialClass] = frozenset()
    external: FrozenSet[MonomialClass] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.terms) or bool(self.external)

    def __xor__(self, other: "Chain") -> "Chain":
        return Chain(self.terms ^ other.terms, self.external ^ other.external)

    def describe(self) -> str:
        if not self:
            return "0"
        parts = [display(m) for m in sorted(self.terms)]
        parts += [display(m) + " (outside window)" for m in sorted(self.external)]
        return " + ".join(parts)


ZERO = Chain()


def chain_of(run: "BocksteinRun", monos: Iterable[Optional[MonomialClass]]) -> Chain:
    """The F2 sum of ``monos`` (None is zero), each term stored or external
    in ``run``'s window. A class with a home in the run is stored without a
    ``degree_of`` call. An empty sum returns ``ZERO``, so the many zero
    values a page resolves share one object."""
    cat, stores, home = run.cat, run.window.stores, run.home
    terms: Set[MonomialClass] = set()
    external: Set[MonomialClass] = set()
    for m in monos:
        if m is None:
            continue
        bucket = terms if m in home or stores(degree_of(cat, m)) else external
        bucket.symmetric_difference_update({m})
    if not terms and not external:
        return ZERO
    return Chain(frozenset(terms), frozenset(external))


def multiply_chain(run: "BocksteinRun", factor: MonomialClass, ch: Chain) -> Chain:
    return chain_of(
        run, (multiply(run.cat, factor, m) for m in itertools.chain(ch.terms, ch.external)))


# --- the tau-power differentials in closed form ---------------------------------


#: on page r <= 3, tau^b and gamma/(rho^j tau^b) (j >= r) are alive exactly when
#: TAU_STEP[r] divides b: d_1(tau) = rho h_0, d_2(tau^2) = rho^2 tau h_1, d_3(tau^4) = 0
TAU_STEP = {1: 1, 2: 2, 3: 4}


def tau_power_d(cat: Catalog, b: int, r: int):
    """d_r(tau^b) as a monomial (None = zero), or _UNKNOWN when tau^b is dead
    before page r or r is past the globally-run pages 1..3."""
    if b == 0:
        return None
    if r > 3 or b % TAU_STEP[r]:
        return _UNKNOWN
    if r == 1 and b % 2:
        return make_positive(cat, rho=1, tau=b - 1, h0=1)
    if r == 2 and b % 4 == 2:
        return make_positive(cat, rho=2, tau=b - 1, h1=1)
    return None


def pure_gamma_d(cat: Catalog, j: int, i: int, r: int) -> Optional[MonomialClass]:
    """d_r(gamma/(rho^j tau^i)) for r <= 3 and j >= r, None for zero: the class
    differentiates like rho^-j tau^-i, and on page 3 its target degree is empty."""
    if r == 1 and i % 2:
        return make_gamma(cat, j - 1, i + 1, h0=1)
    if r == 2 and i % 4 == 2:
        return make_gamma(cat, j - 2, i + 1, h1=1)
    return None


def _closed_form_d(cat: Catalog, m: MonomialClass, r: int):
    """d_r(m) on a page r <= 3 by the closed forms (None = zero), or _UNKNOWN,
    for an m with no family factor (rho, h_0 and h_1 are permanent cycles):
    d_r(tau^b) times the rest of a positive m, or d_r(gamma/(rho^j tau^i))
    times the h_0^a h_1^b of a gamma m, with the pure class alive, j >= r."""
    if m.family or m.cone is Cone.Q or not 1 <= r <= 3:
        return _UNKNOWN
    if m.cone is Cone.POSITIVE:
        dt = tau_power_d(cat, m.tau, r)
        return dt if dt is None or dt is _UNKNOWN else multiply(cat, dt, m._replace(tau=0))
    if m.rho < r or m.tau % TAU_STEP[r]:
        return _UNKNOWN
    dg = pure_gamma_d(cat, m.rho, m.tau, r)
    return dg if dg is None else multiply(cat, make_positive(cat, h0=m.h0, h1=m.h1), dg)


# --- positive-cone oracle -------------------------------------------------------


#: rule instances by page, then by source (``index_rules``)
RuleIndex = Dict[int, Dict[MonomialClass, RuleInstance]]


class PositiveOracle:
    """Symbolic page differentials and survival for rho-free positive-cone
    monomials (the page resolver moves a value along its tower).

    The knowledge atoms are the tau-power differentials in closed form
    (``tau_power_d``, _UNKNOWN past page 3 for b > 0, though the oracle is
    asked on every page), exact matches in the run's rule index modulo tau^4
    factors, the declared permanent cycles, and empty-target vanishing;
    composite values follow by the Leibniz rule over tau^b z. Only family
    classes are looked up in the rule index. No d_q can hit a rho-free class
    (a positive d_q raises the rho-exponent by q), so it survives to page r
    exactly when every d_q(m), q < r, is known zero (``alive``).
    """

    def __init__(self, cat: Catalog, rule_instances: RuleIndex, index: E1Index):
        self.cat = cat
        self.index = index
        self.rule_instances = rule_instances
        self._d_memo: Dict[Tuple[MonomialClass, int], object] = {}

    def d(self, m: MonomialClass, r: int):
        """d_r of the rho-free m as one monomial, None for zero, or _UNKNOWN."""
        key = (m, r)
        if key not in self._d_memo:
            self._d_memo[key] = self._d_raw(m, r)
        return self._d_memo[key]

    def _d_raw(self, m: MonomialClass, r: int):
        cat = self.cat
        b = m.tau
        pages = self.index.positive_pages
        if r not in pages(m):
            return None  # empty target degree: vanishing is forced
        # d_r(tau^b z) = d_r(tau^(b-p)) tau^p z when d_r(tau^p z) = 0
        p = 0
        if m.family:
            # exact rule match modulo tau^4 factors (tau^4 is a cycle here)
            on_page = self.rule_instances.get(r, {})
            for strip in range(0, b // 4 + 1):
                inst = on_page.get(m._replace(tau=b - 4 * strip))
                if inst is not None:
                    return inst.target if inst.target is None else multiply(
                        cat, make_positive(cat, tau=4 * strip), inst.target)
            fam = cat.families[m.family]
            if fam.permanent_cycle and b >= fam.perm_tau_prefix:
                p = fam.perm_tau_prefix  # tau^p z is a declared permanent cycle
            elif r in pages(m._replace(tau=0)):
                return _UNKNOWN  # the tau-free class z may support a d_r
        dt = tau_power_d(cat, b - p, r)
        if dt is None or dt is _UNKNOWN:
            return dt
        return multiply(cat, dt, m._replace(tau=p))

    def alive(self, m: MonomialClass, r: int) -> bool:
        """Survival of the rho-free class m to page r; False on unknowns."""
        return all(self.d(m, q) is None for q in range(1, r))


# --- page states ----------------------------------------------------------------


class DegreeState:
    """The page in one tridegree: cycles and boundaries as ``gf2`` RREF rows.

    Bit t of a vector is ``basis[t]``; ``vector`` and ``classes`` are the one
    way between basis classes and vectors. Three answers are cached:
    ``reps()`` (one representative per page class), ``page_classes()`` (the
    basis classes those representatives select) and ``alive_classes()`` (the
    basis classes that are themselves page classes: a cycle and not a
    boundary). An ``initial`` (E1) state starts with all three filled, since
    unit-vector cycles and no boundaries fix them. ``cycles`` and
    ``boundaries`` are read-only tuples, and ``set_rows`` is the only way to
    replace them; it drops all three caches, so a cached answer always
    belongs to the current rows.
    """

    __slots__ = ("degree", "basis", "_cycles", "_boundaries", "_reps", "_classes", "_alive")

    def __init__(self, degree: TriDegree, basis: Tuple[MonomialClass, ...],
                 cycles: Sequence[int], boundaries: Sequence[int] = ()):
        self.degree = degree
        self.basis = basis
        self.set_rows(cycles, boundaries)

    @classmethod
    def initial(cls, degree: TriDegree, basis: Tuple[MonomialClass, ...]) -> "DegreeState":
        """The E1 state: unit-vector cycles and no boundaries, so its
        representatives are the cycles and every basis class is a page
        class and a survivor."""
        st = cls(degree, basis, [1 << t for t in range(len(basis))])
        st._reps, st._classes, st._alive = st._cycles, tuple(basis), tuple(basis)
        return st

    @property
    def cycles(self) -> Tuple[int, ...]:
        return self._cycles

    @property
    def boundaries(self) -> Tuple[int, ...]:  # inside the cycles
        return self._boundaries

    def set_rows(self, cycles: Sequence[int], boundaries: Sequence[int]) -> None:
        self._cycles = tuple(cycles)
        self._boundaries = tuple(boundaries)
        self._reps = self._classes = self._alive = None

    def dim(self) -> int:
        return len(self._cycles) - len(self._boundaries)

    def reps(self) -> Tuple[int, ...]:
        if self._reps is None:
            self._reps = tuple(gf2.subquotient_basis(self._cycles, self._boundaries))
        return self._reps

    def page_classes(self) -> Tuple[MonomialClass, ...]:
        """The basis classes some page representative has a bit on, in basis order."""
        if self._classes is None:
            picked = 0
            for rep in self.reps():
                picked |= rep
            self._classes = self.classes(picked)
        return self._classes

    def vector(self, monos: Iterable[MonomialClass]) -> int:
        """The E1 vector of the sum of the basis classes ``monos``."""
        v, index = 0, self.basis.index
        for m in monos:
            v ^= 1 << index(m)
        return v

    def classes(self, v: int) -> Tuple[MonomialClass, ...]:
        """The basis classes v has a bit on, in basis order."""
        return tuple(m for t, m in enumerate(self.basis) if v >> t & 1)

    def sums_are_boundaries(self, vectors: Sequence[int], kernel: Iterable[int]) -> bool:
        """Whether each kernel vector, read as the sum of the ``vectors`` its
        bits select, is a boundary."""
        return not any(gf2.reduce(gf2.combine(vectors, kv), self.boundaries) for kv in kernel)

    def alive_classes(self) -> Tuple[MonomialClass, ...]:
        """The basis classes whose own vector is a cycle and not a boundary,
        in basis order."""
        if self._alive is None:
            cycles, boundaries = self._cycles, self._boundaries
            self._alive = tuple(m for t, m in enumerate(self.basis)
                                if not gf2.reduce(1 << t, cycles)
                                and gf2.reduce(1 << t, boundaries))
        return self._alive


def targets_in(st: DegreeState, m: MonomialClass, r: int) -> Tuple[MonomialClass, ...]:
    """The classes d_r(m) can hit, when ``st`` is the state of m's target
    degree: those of m's cone group (the positive cone, or the gamma and Q
    parts) at filtration ``m.filtration() + r``, in basis order."""
    positive, filt = m.cone is Cone.POSITIVE, m.filtration() + r
    return tuple(c for c in st.basis
                 if c.filtration() == filt and (c.cone is Cone.POSITIVE) is positive)


@dataclass
class AssumptionLog:
    entries: List[Tuple[int, str]] = field(default_factory=list)

    def note(self, page: int, mono: MonomialClass) -> None:
        self.entries.append((page, display(mono)))


@dataclass
class BocksteinRun:
    """One run of ``rules`` in ``window``: its pages and what resolves them.

    The E1 index, the rule instances, the page schedule, the positive
    oracle, the home index and the movers of each scheduled page are built
    once, from the first four fields, and live as long as the run, as do
    the index's caches. Bases never change, so ``home`` (each stored E1
    class to its degree state) holds for the whole run; ``degree`` reads
    it and falls back to ``degree_of`` for a class no stored basis holds,
    so every answer is the one ``degree_of`` gives; ``monomial_alive`` reads
    the home alone. The movers are read once per rho-tower.
    """

    cat: Catalog
    window: Window
    #: the page in every nonempty stored degree, in sorted degree order
    states: Dict[TriDegree, DegreeState]
    rules: Sequence[DifferentialRule]
    #: page-true nonzero values (raw chains reduced modulo boundaries)
    differentials: Dict[int, Dict[MonomialClass, Chain]] = field(default_factory=dict)
    #: values as resolved, before the page projection
    raw_differentials: Dict[int, Dict[MonomialClass, Chain]] = field(default_factory=dict)
    assumptions: AssumptionLog = field(default_factory=AssumptionLog)
    #: the filtrations of each cone group of every degree the run asks about
    index: E1Index = field(init=False, repr=False)
    oracle: PositiveOracle = field(init=False, repr=False)
    #: the rule instances a lookup can read (``index_rules``)
    rule_instances: RuleIndex = field(init=False, repr=False)
    #: pages 1..3, which run on every class, then each page with a stored rule source
    schedule: List[int] = field(init=False)
    #: each stored E1 class -> the state of its degree
    home: Dict[MonomialClass, DegreeState] = field(init=False, repr=False)
    #: scheduled page -> the stored classes with a rule instance or a nonempty
    #: target there, in state and basis order
    movers: Dict[int, Tuple[MonomialClass, ...]] = field(init=False, repr=False)

    def __post_init__(self):
        self.home = {m: st for st in self.states.values() for m in st.basis}
        self.index = E1Index(self.cat, self.window, self.states)
        self.rule_instances = index_rules(self.cat, self.window, self.rules)
        self.oracle = PositiveOracle(self.cat, self.rule_instances, self.index)
        stored = {r for r, insts in self.rule_instances.items()
                  if any(self.window.stores(degree_of(self.cat, s)) for s in insts)}
        self.schedule = sorted({1, 2, 3} | stored)
        self.movers = self._list_movers()

    def _list_movers(self) -> Dict[int, Tuple[MonomialClass, ...]]:
        """``movers``, with one target read per rho-tower.

        d_r is rho-linear, so the members of a rho-tower (keyed by the class
        without its rho-exponent, ``m[:3] + m[4:]``) have targets on the
        same pages. A positive tower's are ``E1Index.positive_pages``. A
        divided class with rho-exponent j hits the gamma and Q group at
        filtration r - j, which exists only for r <= j, and on those pages
        every member agrees: the group filtrations of the tower's deepest
        stored member are read once, and each member keeps its pages r <= j
        (none for a rho-free divided class, which moves only by a rule).
        """
        ruled: Dict[MonomialClass, List[int]] = {}
        for r, insts in self.rule_instances.items():
            for src in insts:
                if src in self.home:
                    ruled.setdefault(src, []).append(r)
        movers: Dict[int, List[MonomialClass]] = {r: [] for r in self.schedule}
        divided: Dict[tuple, List[int]] = {}
        filtrations, positive_pages = self.index.filtrations, self.index.positive_pages
        # backwards through the degree-ordered states: a divided tower's
        # members lie one stem apart, so its deepest comes first; the lists
        # are turned round at the end
        for st in reversed(self.states.values()):
            for m in reversed(st.basis):
                if m.cone is Cone.POSITIVE:
                    pages = positive_pages(m)
                else:
                    key, j = m[:3] + m[4:], m.rho
                    pages = divided.get(key)
                    if pages is None:
                        filts = filtrations(st.degree + DIFFERENTIAL_SHIFT, False) if j else ()
                        pages = divided[key] = sorted(j + f for f in filts if j + f in movers)
                    elif pages and pages[-1] > j:
                        pages = [r for r in pages if r <= j]
                for r in pages:
                    at = movers.get(r)
                    if at is not None:
                        at.append(m)
                for r in ruled.get(m, ()):  # a stored rule source's page is scheduled
                    if r not in pages:
                        movers[r].append(m)
        return {r: tuple(reversed(ms)) for r, ms in movers.items()}

    def degree(self, m: MonomialClass) -> TriDegree:
        """The degree of m: its home state's, or ``degree_of``'s for a class no
        stored basis holds."""
        st = self.home.get(m)
        return st.degree if st is not None else degree_of(self.cat, m)

    def dimension(self, d: TriDegree) -> int:
        st = self.states.get(d)
        return st.dim() if st else 0

    def monomial_alive(self, m: MonomialClass) -> bool:
        st = self.home.get(m)
        return st is not None and m in st.alive_classes()


# --- per-page resolution --------------------------------------------------------


class PageResolver:
    """Resolves d_r on the live movers of one page of ``run``; ``values``
    holds only theirs, as every other page class is zero (``resolved``).
    Each rho-tower is resolved once (``_factor_tower``), and member m gets
    its terms ``rho_shift(term, lift + m.filtration())``, each zero where
    its rho-exponent would turn negative."""

    def __init__(self, run: BocksteinRun, r: int):
        self.run = run
        self.r = r
        self.values: Dict[MonomialClass, Chain] = {}
        #: the page classes among ``run.movers[r]``, set by ``resolve_page``
        self.live: FrozenSet[MonomialClass] = frozenset()
        self.rule_instances = run.rule_instances.get(r, {})
        #: rho-tower (``m[:3] + m[4:]``) -> ``_factor_tower`` of its rho-free class
        self._towers: Dict[tuple, object] = {}

    def _resolve_raw(self, m: MonomialClass):
        """d_r(m) or _UNKNOWN for a class with a rule instance on page r or a
        nonempty target (``resolve_page`` zeroes every other class): its rule
        or its tower's terms; Q classes, and gamma past page 3, are _UNKNOWN."""
        inst = self.rule_instances.get(m)
        if inst is not None:
            return chain_of(self.run, [inst.target] if inst.target else [])
        if m.cone is Cone.Q or (m.cone is Cone.GAMMA and self.r > 3):
            return _UNKNOWN
        key, n = m[:3] + m[4:], m.filtration()
        tower = self._towers.get(key)
        if tower is None:
            tower = self._towers[key] = self._factor_tower(rho_shift(m, -n))
        if tower is _UNKNOWN:
            return _UNKNOWN
        return chain_of(self.run, (rho_shift(t, lift + n) for t, lift in tower))

    def _factor_tower(self, base: MonomialClass):
        """The d_r terms of the rho-tower of the rho-free ``base`` as (term,
        lift) pairs, each placed at member m as ``rho_shift(term, lift +
        m.filtration())``, or _UNKNOWN.

        A positive base has the positive oracle's value with lift 0. A gamma
        base gamma/tau^i x is factored through the one tau exponent n, the
        first multiple of ``TAU_STEP[r]`` at or above i, the least n with
        gamma/(rho^j tau^n) alive on page r: the Leibniz rule over
        m = tau^(n-i) x * gamma/(rho^j tau^n) gives d_r(m) when the positive
        oracle knows the first factor y alive and its d_r; otherwise d_r(m)
        is left to dead-target vanishing and transfer. No larger n is tried:
        the oracle's verdict on tau^b z for q < r depends on b only modulo
        ``TAU_STEP[q]``, which divides ``TAU_STEP[r]``. Nothing here reads j,
        since ``make_gamma`` reads a rho-exponent only to reject a negative
        one: the term t = d_r(y) times gamma/(rho^j tau^n) is the product at
        j = t.rho moved to j - t.rho, and y * d_r(gamma/(rho^j tau^n)) the
        product at j = r moved to j - r, so each is kept at rho-exponent 0
        with lift t.rho or r.
        """
        cat, oracle, r = self.run.cat, self.run.oracle, self.r
        if base.cone is Cone.POSITIVE:
            dm = oracle.d(base, r)
            return _UNKNOWN if dm is _UNKNOWN else [] if dm is None else [(dm, 0)]
        i = base.tau
        n = i + (-i) % TAU_STEP[r]
        y = make_positive(cat, 0, n - i, base.h0, base.h1, base.family, base.k)
        G = make_gamma(cat, 0, n)
        if y is None or multiply(cat, y, G) != base or not oracle.alive(y, r):
            return _UNKNOWN
        dy = oracle.d(y, r)
        if dy is _UNKNOWN:
            return _UNKNOWN
        terms = [] if dy is None else [(multiply(cat, dy, rho_shift(G, -dy.rho)), dy.rho)]
        dG = pure_gamma_d(cat, r, n, r)
        if dG is not None:
            terms.append((multiply(cat, y, dG), r))
        return [(t, lift) for t, lift in terms if t is not None]

    def dead_target(self, m: MonomialClass) -> bool:
        """Whether d_r(m) must vanish: every cycle in the span of its candidate
        targets is a boundary on page r.

        The test runs on the span, not monomial by monomial, because a sum of
        dead monomials can be a live class. A target degree with no stored
        page is never dead (an empty stored one is ``_resolve_raw``'s zero).
        """
        run = self.run
        st = run.states.get(run.degree(m) + DIFFERENTIAL_SHIFT)
        if st is None:
            return False
        units = [st.vector((c,)) for c in targets_in(st, m, self.r)]
        _, kernel = gf2.solve([gf2.reduce(u, st.cycles) for u in units], 0)
        return st.sums_are_boundaries(units, kernel)

    # --- transfer passes (use neighbors' resolved values) ------------------------

    def resolved(self, m: MonomialClass) -> Optional[Chain]:
        """d_r(m) if it is known, else None: the value found for a live
        mover, or zero for a page class that is no live mover."""
        val = self.values.get(m)
        if val is None and m not in self.live:
            st = self.run.home.get(m)
            if st is not None and m in st.page_classes():
                return ZERO
        return val

    def transfer_pass(self, needed: Sequence[MonomialClass]) -> bool:
        changed = False
        run, values, resolved = self.run, self.values, self.resolved
        for m in needed:
            if m in values or m.cone is Cone.POSITIVE:
                continue
            for u, nb in self._bump_parents(m):
                val = resolved(nb)
                if val is not None and run.monomial_alive(nb):
                    values[m] = multiply_chain(run, u, val)
                    changed = True
                    break
            if m in values:
                continue
            shallow = rho_shift(m, 1)
            if shallow is not None:
                val = resolved(shallow)
                if val is not None and run.monomial_alive(shallow):
                    solved = self._rho_lift(m, val)
                    if solved is not _UNKNOWN:
                        values[m] = solved
                        changed = True
        return changed

    def _bump_parents(self, m: MonomialClass):
        cat = self.run.cat
        out = []
        if m.cone is Cone.Q and m.k >= 1:
            out.append((make_positive(cat, h1=1), m._replace(k=m.k - 1)))
        if m.h0 >= 1:
            out.append((make_positive(cat, h0=1), m._replace(h0=m.h0 - 1)))
        if m.h1 >= 1:
            out.append((make_positive(cat, h1=1), m._replace(h1=m.h1 - 1)))
        return out

    def _rho_lift(self, m: MonomialClass, shallow_value: Chain):
        """Solve rho * X = d_r(rho * m) for X = d_r(m).

        The solve runs over the filtration-correct candidate monomials of the
        target degree, modulo the current boundary subspaces on both sides;
        a kernel combination that is nonzero in the page leaves the value
        ambiguous and the lift declines.
        """
        run, cat, r = self.run, self.run.cat, self.r
        if shallow_value.external:
            return _UNKNOWN
        target_deg = run.degree(m) + DIFFERENTIAL_SHIFT
        t_state = run.states.get(target_deg)
        s_state = run.states.get(target_deg + TriDegree(-1, 0, -1))
        if t_state is None or s_state is None:
            return _UNKNOWN
        rho, basis = make_positive(cat, rho=1), s_state.basis
        if not all(t in basis for t in shallow_value.terms):
            return _UNKNOWN
        candidates = targets_in(t_state, m, r)
        cols = [gf2.reduce(s_state.vector((p,) if p in basis else ()), s_state.boundaries)
                for p in (multiply(cat, rho, c) for c in candidates)]
        rhs = gf2.reduce(s_state.vector(shallow_value.terms), s_state.boundaries)
        sol, kernel = gf2.solve(cols, rhs)
        if sol is None:
            raise ConflictError(
                f"rho-tower transfer inconsistent at {display(m)} page {r}"
            )
        units = [t_state.vector((c,)) for c in candidates]
        if not t_state.sums_are_boundaries(units, kernel):
            return _UNKNOWN  # genuinely ambiguous in the page
        return chain_of(run, t_state.classes(gf2.combine(units, sol)))


def _resolution_order(monos: Iterable[MonomialClass]) -> List[MonomialClass]:
    return sorted(monos, key=lambda m: (m.rho, m.k, m.h0 + m.h1, m))


def resolve_page(run: BocksteinRun, r: int) -> Dict[MonomialClass, Chain]:
    """d_r of each live mover of page r, zero (and logged) where nothing
    resolves it; a page class the result does not hold has d_r = 0.

    ``r`` is a page of ``run.schedule``. Its live movers are its movers
    (``run.movers``) that are page classes of their home state, read only in
    the states a mover or a transfer asks about. An attempt reads no other
    class's value, so the attempts run in page order; what they leave
    unknown goes through the transfer passes, which read any other page
    class as a resolved zero, then the closure log in ``_resolution_order``.
    """
    resolver = PageResolver(run, r)
    values, home = resolver.values, run.home
    live = [m for m in run.movers[r] if m in home[m].page_classes()]
    resolver.live = frozenset(live)
    for m in live:
        val = resolver._resolve_raw(m)
        if val is _UNKNOWN and resolver.dead_target(m):
            val = ZERO
        if val is not _UNKNOWN:
            values[m] = val
    unknown = _resolution_order(m for m in live if m not in values)
    while resolver.transfer_pass(unknown):
        pass  # each productive pass adds a key to the finite ``values``
    for m in unknown:
        if m not in values:
            run.assumptions.note(r, m)
            values[m] = ZERO
    return values


# --- page turning ---------------------------------------------------------------


def _filtration_jump_ok(m: MonomialClass, val: Chain, r: int) -> bool:
    want = m.filtration() + r
    return all(t.filtration() == want for t in itertools.chain(val.terms, val.external))


def _sum_values(st: DegreeState, vec: int, diffs: Dict[MonomialClass, Chain]) -> Chain:
    """The sum of the d_r values on the monomials of ``st`` that ``vec`` selects."""
    if vec and not vec & (vec - 1):
        return diffs.get(st.basis[vec.bit_length() - 1], ZERO)
    ch = ZERO
    for mono in st.classes(vec):
        ch ^= diffs.get(mono, ZERO)
    return ch


def turn_page(run: BocksteinRun, diffs: Dict[MonomialClass, Chain], r: int) -> None:
    """Homology with respect to d_r, in the degrees a nonzero d_r leaves or enters.

    The source degrees (some class has a nonzero value) are visited once, in
    sorted order. The column of a page representative is its value's stored
    part as an E1 vector, reduced modulo the target's RREF boundaries, plus
    one bit per distinct ``external`` part above the target's basis. Each
    column is checked as it is made: its value has a stored home degree and
    is a page-r class, and d_r of its stored part is a boundary
    (d_r o d_r = 0; external parts are invisible downstream). Every check
    runs before any row changes. Source degrees then keep the kernel as
    their new cycles, and target degrees gain the images as boundaries.
    Every other degree keeps its rows: with d_r zero on all of its classes
    the kernel is the whole page, which is the cycles it has. A target that
    is no source keeps its cycles too (RREF rows are unique for their span,
    and the new boundaries were checked to lie in it).
    """
    turned = []
    new_boundaries: Dict[TriDegree, List[int]] = {}
    for d in sorted({run.degree(m) for m, v in diffs.items() if v}):
        st = run.states[d]
        t_state = run.states.get(d + DIFFERENTIAL_SHIFT)
        externals: Dict[FrozenSet[MonomialClass], int] = {}
        cols = []
        for rep in st.reps():
            ch = _sum_values(st, rep, diffs)
            col = 0
            if ch.terms:
                if t_state is None:
                    raise EngineError(
                        f"value {ch.describe()} of d_{r} has no stored home degree"
                    )
                raw = t_state.vector(ch.terms)
                if gf2.reduce(raw, t_state.cycles):
                    raise ConflictError(
                        f"d_{r} value {ch.describe()} is not a page-{r} class"
                    )
                new_boundaries.setdefault(t_state.degree, []).append(raw)
                col = gf2.reduce(raw, t_state.boundaries)
                # d_r o d_r: no row changes before the kernel step, and the
                # target, a source degree if d_r(col) has a stored term, sorts
                # before d, so its own home-degree check has already run
                second = _sum_values(t_state, col, diffs)
                if second.terms:
                    nxt = run.states[t_state.degree + DIFFERENTIAL_SHIFT]
                    if gf2.reduce(nxt.vector(second.terms), nxt.boundaries):
                        raise ConflictError(f"d_{r} o d_{r} != 0 on a class of degree {d}")
            if ch.external:
                at = externals.setdefault(ch.external, len(externals))
                col |= 1 << ((len(t_state.basis) if t_state else 0) + at)
            cols.append(col)
        turned.append((st, cols))
    for st, cols in turned:
        _, kernel = gf2.solve(cols, 0)
        lifted = tuple(gf2.combine(st.reps(), kv) for kv in kernel)
        st.set_rows(gf2.rref(st.boundaries + lifted), st.boundaries)
    sources = {st.degree for st, _ in turned}
    for d, add in new_boundaries.items():
        st = run.states[d]
        boundaries = gf2.rref(st.boundaries + tuple(add))
        cycles = gf2.rref(st.cycles + tuple(boundaries)) if d in sources else st.cycles
        st.set_rows(cycles, boundaries)


def index_rules(cat: Catalog, window: Window, rules: Iterable[DifferentialRule]) -> RuleIndex:
    """The rule instances a lookup can read, in the window's k range, by page
    and source.

    The page resolver reads only stored sources and the positive oracle
    only positive family sources (through rho and tau^4 factors), so only
    those are kept. Every instance of one ``instances_in`` pass per rule is
    still checked as it streams by: two rules that give the same source
    different targets on one page raise ``ConflictError``, wherever that
    source lies, and so does a rule that contradicts the closed forms
    (``_closed_form_d``) on a class with no family factor, such as
    d_1(tau h_0) = rho h_0^2 or d_2(gamma/(rho^2 tau^2) h_1) = gamma/tau^3 h_1^2.
    """
    by_page: RuleIndex = {}
    seen: Dict[Tuple[int, MonomialClass], Optional[MonomialClass]] = {}
    for rule in rules:
        for inst in rule.instances_in(cat, window):
            src, key = inst.source, (inst.page, inst.source)
            closed = _closed_form_d(cat, src, inst.page)
            if (seen.get(key, inst.target) != inst.target
                    or closed is not _UNKNOWN and closed != inst.target):
                raise ConflictError(f"two rules disagree on {display(src)} at page {inst.page}")
            seen[key] = inst.target
            if src.cone is Cone.POSITIVE and src.family or window.stores(degree_of(cat, src)):
                by_page.setdefault(inst.page, {})[src] = inst
    return by_page


def run_bockstein(
    cat: Catalog,
    window: Window,
    rules: Optional[Sequence[DifferentialRule]] = None,
    extra_rules: Sequence[DifferentialRule] = (),
) -> BocksteinRun:
    """Run the Bockstein spectral sequence to its last scheduled page; each
    page's nonzero values are picked out once, and the filtration-jump check,
    ``raw_differentials``, the page projection and ``turn_page`` read only them."""
    rules = list(rules if rules is not None else seed_rules(cat)) + list(extra_rules)
    e1 = build_e1(cat, window)
    run = BocksteinRun(cat, window, {d: DegreeState.initial(d, b) for d, b in e1.items()}, rules)
    for r in run.schedule:
        nonzero = {m: v for m, v in resolve_page(run, r).items() if v}
        for m, val in nonzero.items():
            if not _filtration_jump_ok(m, val, r):
                raise ConflictError(
                    f"d_{r}({display(m)}) = {val.describe()} breaks the filtration jump"
                )
        run.raw_differentials[r] = nonzero
        projected = {m: _page_reduce(run, v) for m, v in nonzero.items()}
        run.differentials[r] = {m: v for m, v in projected.items() if v}
        turn_page(run, nonzero, r)
    return run


def _page_reduce(run: BocksteinRun, ch: Chain) -> Chain:
    """Project a raw value chain to the current page (mod boundaries); with
    no boundaries in its state (all of page 1) a chain is its own projection."""
    if not ch.terms:
        return ch
    st = run.states.get(run.degree(next(iter(ch.terms))))
    if st is None or not st.boundaries:
        return ch
    return Chain(frozenset(st.classes(gf2.reduce(st.vector(ch.terms), st.boundaries))),
                 ch.external)


# --- structural checks and census -----------------------------------------------


@dataclass
class Report:
    violations: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_structural_constraints(run: BocksteinRun) -> Report:
    """Rho-divisibility of negative-cone differentials, the negative-coweight
    vanishing wedge, and finiteness of coweight-1 h1 towers (``walk_tower``:
    a tower leaving the window warns, one reaching the walk's bound fails)."""
    cat, window, home = run.cat, run.window, run.home
    rep = Report()

    # (a) towers carry their differentials: a negative-cone class in a
    # nonzero d_r must have its deeper rho-division in a nonzero d_r as
    # well, source-side and target-side, down to the window edge. A
    # division of a stored divided class is stored exactly when it is an
    # E1 class of the run, that is, when it has a home.
    for r, diffs in sorted(run.differentials.items()):
        target_monos = set()
        for val in diffs.values():
            target_monos.update(val.terms)
            target_monos.update(val.external)
        # (source, 0 for itself or 1 for a term, class, its division): sorted
        # only to write the messages, by source and then by term
        failing = []
        for src, val in diffs.items():
            if src.cone is Cone.POSITIVE:
                continue
            deeper = rho_shift(src, -1)
            if deeper in home and not diffs.get(deeper):
                failing.append((src, 0, src, deeper))
            for mono in val.terms:
                if mono.cone is Cone.POSITIVE:
                    continue
                deeper = rho_shift(mono, -1)
                dst = home.get(deeper)
                if dst is None:
                    continue  # tower leaves the window: boundary-marked
                s, f, w = dst.degree
                if not window.stores((s + 1, f - 1, w)):
                    continue  # its would-be source lies outside the window
                if deeper not in target_monos:
                    failing.append((src, 1, mono, deeper))
        for _, side, mono, deeper in sorted(failing):
            does, rest = ("receives", "receives none") if side else ("supports", "does not")
            rep.violations.append(f"page {r}: {display(mono)} {does} a differential but its "
                                  f"rho-division {display(deeper)} {rest}")

    # The negative-coweight vanishing wedge. Divided classes riding the
    # stem-0 h0 tower are exempt: the underlying vanishing line only
    # constrains positive underlying stems. Each underlying class's stem is
    # computed once, under its (family, k, h0, h1).
    under_stems: Dict[Tuple[str, int, int, int], int] = {}
    for d in sorted(run.states):
        if d.coweight < 0 and d.s > 0 and 2 * d.f > d.s + 3:
            for m in run.states[d].basis:
                if m.cone is Cone.GAMMA:
                    under = (m.family, m.k, m.h0, m.h1)
                    stem = under_stems.get(under)
                    if stem is None:
                        stem = under_stems[under] = degree_of(
                            cat, MonomialClass(Cone.POSITIVE, m.family, m.k, 0, 0, m.h0, m.h1)).s
                    if stem == 0:
                        continue
                rep.violations.append(
                    f"E1 should vanish in {d}: negative coweight above the wedge "
                    f"line, found {display(m)}"
                )

    for d in sorted(run.states):
        if d.coweight != 1 or window.near_boundary(d, reach=4):
            continue  # truncated towers near the edge are boundary-marked
        for m in run.states[d].alive_classes():
            fate = walk_tower(run, m, "h_1")
            if fate == "leaves":
                rep.warnings.append(f"h1 tower on {display(m)} leaves the window unresolved")
            elif fate == "unbounded":
                rep.violations.append(f"unbounded h1 tower on {display(m)} in coweight 1")
    return rep


def walk_tower(run: BocksteinRun, m: MonomialClass, sym: str) -> str:
    """Where the sym-multiplication tower over the page class m ends.

    "dies" when a product is zero, lies in a stored degree with no E1 class
    of that name (read as zero), or is not a survivor; "leaves" when a
    product falls outside the stored box; "unbounded" when max_f + 1 steps
    all survive. Every h0 or h1 step of a validated catalog raises f by one,
    so such a tower leaves the box first: only a hand-built catalog reaches
    the bound.
    """
    cat, home, window = run.cat, run.home, run.window
    for _ in range(window.max_f + 1):
        m = module_action(cat, sym, m)
        if m is None:
            return "dies"
        st = home.get(m)
        if st is None:
            return "dies" if window.stores(degree_of(cat, m)) else "leaves"
        if m not in st.alive_classes():
            return "dies"
    return "unbounded"


def expected_census_dimension(d: TriDegree, max_f: int) -> int:
    """Survivor count predicted by the three-family census in one degree.

    The census covers coweight 0 strictly above the line f = s/2 - 1:
    the h0 tower on the zero stem, the wedge rho^j h1^k, and the truncated
    towers Q/rho^j h1^m with j <= m - 2 for m = 0 mod 4 and
    j <= 4*floor(m/4) - 1 otherwise (m >= 4).
    """
    if d.coweight != 0 or d.s < 0 or d.f < 0 or d.f > max_f:
        return 0
    if 2 * d.f <= d.s - 2:
        return 0
    count = 0
    if d.s == 0:
        count += 1  # h_0^f (the unit when f = 0)
    if d.f >= max(d.s, 1):
        count += 1  # rho^(f-s) h_1^f
    m, j = d.f + 1, d.s - d.f - 2
    if m >= 4 and j >= 0:
        bound = m - 2 if m % 4 == 0 else 4 * (m // 4) - 1
        if j <= bound:
            count += 1  # Q/rho^j h_1^m
    return count


def census_report(run: BocksteinRun) -> Report:
    """Exact comparison with the three-family census over the asserted region."""
    rep = Report()
    window = run.window
    for d in map(TriDegree._make, window.region_degrees()):
        want = expected_census_dimension(d, window.max_f)
        got = run.dimension(d)
        if want != got:
            rep.violations.append(f"census mismatch in {d}: expected {want}, computed {got}")
    entries = run.assumptions.entries
    if entries:
        rep.notes.append(
            f"{len(entries)} differentials assigned zero under the closure assumption "
            f"({len({name for _, name in entries})} distinct classes); the census checks "
            "only the coweight-0 degrees it asserts"
        )
    return rep
