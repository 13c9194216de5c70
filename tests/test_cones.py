import itertools

import pytest

from blregion.bockstein import run_bockstein, targets_in
from blregion.cones import (
    build_e1,
    enumerate_e1_at,
    enumerate_gamma_at,
    enumerate_positive_at,
    enumerate_q_at,
)
from blregion.degrees import DIFFERENTIAL_SHIFT, TriDegree, Window
from blregion.monomials import (
    Cone,
    degree_of,
    display,
    make_gamma,
    make_positive,
    make_q,
    module_action,
)


def degree_box(window):
    """Every degree the window stores, in sorted order."""
    for s in range(window.min_stem, window.stored_max_stem + 1):
        for f in range(0, window.max_f + 1):
            for c in range(window.max_coweight, window.stored_min_coweight - 1, -1):
                yield TriDegree(s, f, s - c)


def brute_force_degree_buckets(cat, rho_cap=22, tau_cap=10, h_cap=9, k_cap=4):
    """Independent enumeration of all legal monomial tuples, bucketed by degree.

    Walks raw exponent tuples (cone, family, k, rho, tau, h0, h1) with no
    arithmetic shortcuts; normalization filters the zero ones. The caps are
    generous enough that every degree checked below is saturated.
    """
    buckets = {}

    def put(m):
        if m is not None:
            buckets.setdefault(degree_of(cat, m), set()).add(m)

    fams = [""] + sorted(n for n in cat.families if not cat.families[n].tau_torsion)
    for fam in fams:
        k_range = range(cat.families[fam].k_min, k_cap) if fam else [0]
        for k, rho, tau in itertools.product(k_range, range(rho_cap), range(tau_cap)):
            for h0, h1 in itertools.product(range(h_cap), range(h_cap)):
                if h0 and h1:
                    continue
                put(make_positive(cat, rho, tau, h0, h1, fam, k))
                if tau >= 1:
                    put(make_gamma(cat, rho, tau, h0, h1, fam, k))
    for name in (n for n in cat.families if cat.families[n].tau_torsion):
        for k, rho in itertools.product(range(0, 16), range(rho_cap)):
            put(make_q(cat, rho, name, k))
    return buckets


def test_e1_dimensions_match_brute_force(cat):
    buckets = brute_force_degree_buckets(cat)
    for s in range(0, 11):
        for f in range(0, 8):
            for c in (-2, -1, 0, 1):
                deg = TriDegree(s, f, s - c)
                fast = enumerate_e1_at(cat, deg)
                slow = sorted(buckets.get(deg, ()), key=lambda m: m.sort_key())
                assert fast == slow, f"mismatch at {deg}"


def positive_part(cat, window):
    """build_e1 restricted to the positive cone, empty degrees dropped."""
    e1 = {d: tuple(m for m in basis if m.cone is Cone.POSITIVE)
          for d, basis in build_e1(cat, window).items()}
    return {d: basis for d, basis in e1.items() if basis}


def cone_part(run, cone):
    """A run's E1 bases restricted to one cone, empty degrees dropped."""
    part = {d: tuple(m for m in st.basis if m.cone is cone) for d, st in run.states.items()}
    return {d: basis for d, basis in part.items() if basis}


def test_coweight_zero_slice_is_free_on_h0_h1_rho(cat):
    w = Window(max_stem=4)  # filtrations up to 6
    pos = positive_part(cat, w)
    names = sorted(
        display(m)
        for d, basis in pos.items()
        if d.coweight == 0 and 0 <= d.s <= 3
        for m in basis
    )
    expected = {"1"}
    for e in range(1, 7):
        expected.add(f"h_0^{e}" if e > 1 else "h_0")  # stem 0
    for a in range(0, 7):
        for e in range(1, 7):
            if 0 <= e - a <= 3:  # stem of rho^a h_1^e inside the window
                rho = "" if a == 0 else ("rho " if a == 1 else f"rho^{a} ")
                h1 = "h_1" if e == 1 else f"h_1^{e}"
                expected.add(f"{rho}{h1}")
    assert set(names) == expected


def test_stem_zero_column(cat):
    w = Window(max_stem=3)  # filtrations up to 5
    pos = positive_part(cat, w)
    cw0 = [
        display(m)
        for d, basis in pos.items()
        if d.coweight == 0 and d.s == 0
        for m in basis
    ]
    # the h0 tower plus the stem-0 tail of the rho/h1 wedge
    expected = {"1", "h_0", "h_0^2", "h_0^3", "h_0^4", "h_0^5",
                "rho h_1", "rho^2 h_1^2", "rho^3 h_1^3", "rho^4 h_1^4", "rho^5 h_1^5"}
    assert set(cw0) == expected


def test_dimension_at_4_4_4_is_one(cat):
    assert [display(m) for m in enumerate_e1_at(cat, TriDegree(4, 4, 4))] == ["h_1^4"]


def test_q_classes_present(cat, run10):
    q_part = cone_part(run10, Cone.Q)
    assert [display(m) for m in q_part[TriDegree(5, 3, 5)]] == ["Q h_1^4"]
    assert [display(m) for m in q_part[TriDegree(8, 3, 8)]] == ["Q/rho^3 h_1^4"]


def test_no_gamma_from_low_coweight_classes(cat):
    # h_1 has coweight 1 < 2: no corresponding gamma class in coweight 0
    assert enumerate_gamma_at(cat, TriDegree(1, 1, 1)) == []
    deg = TriDegree(2, 1, 2)
    assert all(m.cone is not Cone.GAMMA for m in enumerate_e1_at(cat, deg))


def test_q_towers_infinitely_divisible_in_window(cat, run10):
    q_part = cone_part(run10, Cone.Q)
    window = run10.window
    for d, basis in q_part.items():
        for m in basis:
            deeper = make_q(cat, m.rho + 1, m.family, m.k)
            ddeg = degree_of(cat, deeper)
            if window.stores(ddeg):
                assert deeper in q_part.get(ddeg, ())
                assert module_action(cat, "rho", deeper) == m


def test_gamma_vanishing_line_precheck(cat, run10):
    # negative coweight, positive stem, f > s/2 + 3/2: only stem-0 towers
    for d, basis in cone_part(run10, Cone.GAMMA).items():
        if d.coweight < 0 and d.s > 0 and 2 * d.f > d.s + 3:
            for m in basis:
                under = make_positive(cat, h0=m.h0, h1=m.h1, family=m.family, k=m.k)
                assert degree_of(cat, under).s == 0


def test_every_basis_label_filed_once(cat, run10):
    assert list(run10.states) == sorted(run10.states)
    seen = set()
    for d, st in run10.states.items():
        assert run10.window.stores(d)
        assert list(st.basis) == sorted(st.basis, key=lambda m: m.sort_key()), d
        for m in st.basis:
            assert degree_of(cat, m) == d, f"{display(m)} filed under {d}"
            assert m not in seen, f"{display(m)} stored twice"
            seen.add(m)
    assert len(seen) > 1000


def test_index_matches_enumerators(cat, run10):
    # stored degrees are read from the run's states, the degrees one
    # differential step past the stored box from the underlying classes;
    # each cone group must occupy the filtrations the enumerators give
    box = list(degree_box(run10.window))
    past = sorted({d + DIFFERENTIAL_SHIFT for d in box} - set(box))
    assert past and not any(run10.window.stores(d) for d in past)
    occupied = 0
    for deg in box + past:
        for positive, want in (
            (True, enumerate_positive_at(cat, deg)),
            (False, enumerate_gamma_at(cat, deg) + enumerate_q_at(cat, deg)),
        ):
            got = run10.index.filtrations(deg, positive)
            assert got == {m.filtration() for m in want}, (deg, positive)
            occupied += bool(got)
    assert occupied > 900


@pytest.mark.parametrize("stem, lo, hi", [
    pytest.param(16, -6, 1, id="s16-cw-6..1"),  # deep coweights: a large gamma and Q part
    pytest.param(16, -3, 2, id="s16-cw-3..2"),  # max_coweight 2
    pytest.param(24, 0, 0, id="s24-cw0..0"),  # one asserted coweight
    pytest.param(8, -2, 1, id="s8-cw-2..1"),  # the smallest report window
])
def test_build_e1_matches_enumerators_on_deep_coweights(cat, stem, lo, hi):
    # build_e1 generates each class once, in the degree its construction
    # gives; each degree must get exactly what the per-degree enumerator
    # gives, and every class must sit in the degree it is filed under
    window = Window(max_stem=stem, min_coweight=lo, max_coweight=hi)
    e1 = build_e1(cat, window)
    want = {}
    for deg in degree_box(window):
        basis = enumerate_e1_at(cat, deg)
        if basis:
            want[deg] = tuple(basis)
    assert list(e1) == list(want)
    assert e1 == want
    for deg, basis in e1.items():
        for m in basis:
            assert degree_of(cat, m) == deg, (display(m), deg)
    cones = {m.cone for basis in e1.values() for m in basis}
    assert cones == set(Cone)
    assert any(d.coweight == window.stored_min_coweight for d in e1)


def _filtered_targets(cat, m, r):
    """The classes d_r(m) can hit, listed straight from the enumerators."""
    target = degree_of(cat, m) + DIFFERENTIAL_SHIFT
    if target.f < 0:
        return []
    filt = m.filtration() + r
    if m.cone is Cone.POSITIVE:
        pool = enumerate_positive_at(cat, target)
    else:
        if filt > 0:
            return []
        pool = enumerate_gamma_at(cat, target) + enumerate_q_at(cat, target)
    return [c for c in pool if c.filtration() == filt]


def test_targets_match_filtered_enumeration(cat, run10):
    # a stored target's candidates are listed from its degree state
    # (``targets_in``); past the stored box only the index's filtration
    # sets say whether d_r(m) has a target. Every scheduled page is
    # compared, and in each window the nonempty targets include degrees
    # past each edge of the stored box.
    for run in (run10, run_bockstein(cat, Window(max_stem=12, min_coweight=-6))):
        window = run.window
        nonempty = 0
        past_edges = set()
        for st in run.states.values():
            target = st.degree + DIFFERENTIAL_SHIFT
            t_state = run.states.get(target)
            for m in st.basis:
                positive = m.cone is Cone.POSITIVE
                for r in run.schedule:
                    want = _filtered_targets(cat, m, r)
                    if t_state is not None:
                        assert list(targets_in(t_state, m, r)) == want, (display(m), r)
                    else:
                        has = m.filtration() + r in run.index.filtrations(target, positive)
                        assert has == bool(want), (display(m), r)
                    if not want:
                        continue
                    nonempty += 1
                    past_edges.update(edge for edge, past in (
                        ("coweight", target.coweight < window.stored_min_coweight),
                        ("max_f", target.f > window.max_f),
                        ("min_stem", target.s < window.min_stem),
                    ) if past)
        assert nonempty > 100, window
        assert past_edges == {"coweight", "max_f", "min_stem"}, window
