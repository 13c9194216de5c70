import itertools
import random

import pytest

from blregion.catalog import Q_SHIFT, CatalogError
from blregion.cones import build_e1
from blregion.degrees import TriDegree, Window
from blregion.monomials import (
    Cone,
    MonomialClass,
    ProductError,
    degree_of,
    display,
    make_gamma,
    make_positive,
    make_q,
    module_action,
    multiply,
    rho_shift,
)
from blregion.rules import parse_monomial


def test_degrees_of_named_classes(cat):
    assert degree_of(cat, make_q(cat, 0, "h_1^{4+k}", 0)) == TriDegree(5, 3, 5)
    assert degree_of(cat, make_q(cat, 3, "h_1^{4+k}", 0)) == TriDegree(8, 3, 8)
    assert degree_of(cat, make_gamma(cat, 0, 1)) == TriDegree(0, 0, 2)
    m = make_positive(cat, rho=3, tau=1, family="P^k h_1", k=1)
    assert degree_of(cat, m) == TriDegree(6, 5, 1)


def test_h0_h1_vanishing(cat):
    assert make_positive(cat, h0=1, h1=1) is None
    assert multiply(cat, make_positive(cat, h0=1), make_positive(cat, h1=3)) is None


def test_tau_torsion_powers(cat):
    assert make_positive(cat, tau=1, h1=4) is None
    assert make_positive(cat, tau=1, h1=3) is not None


def test_family_heights(cat):
    assert make_positive(cat, family="P^k h_1", k=1, h1=2) is not None  # P h_1^3
    assert make_positive(cat, family="P^k h_1", k=1, h1=3) is None      # P h_1^4 = 0
    assert make_positive(cat, family="P^k h_0 h_3", k=0, h0=3) is None  # h_0^4 h_3 = 0
    assert make_positive(cat, family="P^k c_0", k=0, h1=2) is None      # h_1^2 c_0 = 0


def test_edge_identification(cat):
    # h_0^2 h_2 = tau h_1^3, and its P-translates
    m = make_positive(cat, family="P^k h_2", k=0, h0=2)
    assert display(m) == "tau h_1^3"
    assert degree_of(cat, m) == TriDegree(3, 3, 2)
    m = make_positive(cat, family="P^k h_2", k=1, h0=2)
    assert display(m) == "tau P h_1^3"
    assert make_positive(cat, family="P^k h_2", k=0, h0=3) is None  # h_0^3 h_2 = 0


def test_p0_collapses_to_pure_power(cat):
    assert make_positive(cat, family="P^k h_1", k=0) == make_positive(cat, h1=1)


def test_module_action_examples(cat):
    g = make_gamma(cat, 1, 2)
    assert display(module_action(cat, "rho", g)) == "gamma/tau^2"
    assert module_action(cat, "tau", make_gamma(cat, 0, 1)) is None
    q = make_q(cat, 1, "h_1^{4+k}", 0)
    assert display(module_action(cat, "rho", q)) == "Q h_1^4"
    assert module_action(cat, "rho", make_q(cat, 0, "h_1^{4+k}", 0)) is None
    assert module_action(cat, "tau", q) is None
    assert module_action(cat, "h_0", q) is None
    assert display(module_action(cat, "h_1", q)) == "Q/rho h_1^5"


def test_gamma_action_reduces_tau_divisions(cat):
    g = make_gamma(cat, 2, 3, family="P^k h_1", k=1)
    up = module_action(cat, "tau", g)
    assert up == make_gamma(cat, 2, 2, family="P^k h_1", k=1)
    # the tau-division at depth 1 is annihilated by tau
    assert module_action(cat, "tau", make_gamma(cat, 2, 1, family="P^k h_2", k=1)) is None


def test_gamma_needs_tau_free_content(cat):
    # torsion powers do not feed the gamma part
    assert make_gamma(cat, 1, 2, h1=4) is None
    assert make_gamma(cat, 1, 2, h1=3) is not None


def test_product_of_two_families_rejected(cat):
    a = make_positive(cat, family="P^k h_1", k=1)
    b = make_positive(cat, family="P^k h_2", k=1)
    with pytest.raises(ProductError):
        multiply(cat, a, b)


def test_display_parse_roundtrip(cat):
    samples = [
        make_positive(cat, rho=2, tau=1, h0=3),
        make_positive(cat, tau=3, family="P^k h_0 h_3", k=1, h0=2),
        make_positive(cat, rho=3, family="P^k h_2", k=2),
        make_gamma(cat, 3, 4, family="P^k c_0", k=0, h1=1),
        make_gamma(cat, 0, 5, h0=2),
        make_q(cat, 4, "h_1^{4+k}", 2),
    ]
    for m in samples:
        assert parse_monomial(cat, display(m)) == m


def test_display_parse_roundtrip_over_e1(cat, run24):
    classes = [m for st in run24.states.values() for m in st.basis]
    assert make_positive(cat) in classes  # the unit displays as "1"
    assert [display(m) for m in classes if parse_monomial(cat, display(m)) != m] == []


def test_sort_key_orders_cones(cat):
    pos = make_positive(cat, h1=1)
    gam = make_gamma(cat, 0, 1)
    q = make_q(cat, 0, "h_1^{4+k}", 0)
    assert sorted([q, gam, pos], key=lambda m: m.sort_key()) == [pos, gam, q]


def test_classes_and_degrees_hash_and_sort_as_field_tuples(cat, run24):
    # set and dict iteration orders follow these hashes and every sort this
    # order, so both must stay those of the fields in their declared order
    classes = [m for st in run24.states.values() for m in st.basis]
    degrees = list(run24.states)
    for m in classes:
        assert hash(m) == hash((m.cone, m.family, m.k, m.rho, m.tau, m.h0, m.h1))
    for d in degrees:
        assert hash(d) == hash((d.s, d.f, d.w))
    shuffled = random.Random(15).sample(classes, len(classes))
    assert sorted(shuffled) == sorted(shuffled, key=MonomialClass.sort_key)
    shuffled = random.Random(15).sample(degrees, len(degrees))
    assert sorted(shuffled) == sorted(shuffled, key=lambda d: (d.s, d.f, d.w))
    # a class never equals a degree, so one dict can key both
    assert not set(classes) & set(degrees + [degree_of(cat, m) for m in classes])
    with pytest.raises(AttributeError):
        classes[0].rho = 1
    with pytest.raises(AttributeError):
        degrees[0].s = 0


def reference_degree(cat, m):
    """degree_of as a sum of TriDegree objects, the formula it replaced."""
    under = cat.symbols["h_0"].scale(m.h0) + cat.symbols["h_1"].scale(m.h1)
    if m.family:
        under = under + cat.families[m.family].degree(m.k)
    if m.cone is Cone.POSITIVE:
        return under + cat.rho.scale(m.rho) + cat.tau.scale(m.tau)
    if m.cone is Cone.GAMMA:
        return cat.gamma_degree(m.rho, m.tau) + under
    return Q_SHIFT + under + TriDegree(1, 0, 1).scale(m.rho)


def test_degree_of_matches_reference(cat, run24):
    deep = build_e1(cat, Window(max_stem=24, min_coweight=-6))
    classes = [m for st in run24.states.values() for m in st.basis]
    classes += [m for basis in deep.values() for m in basis]
    # E1 keeps only classes whose degree_of lands in the degree enumerated, so
    # also check monomials built straight from small exponents
    for family in [""] + sorted(cat.families):
        for k, j, i, e in itertools.product(range(4), range(4), range(1, 4), range(4)):
            for h0, h1 in ((e, 0), (0, e)):
                try:
                    classes += [make_positive(cat, j, i, h0, h1, family, k),
                                make_gamma(cat, j, i, h0, h1, family, k)]
                except ProductError:
                    continue  # k below the family's basis range
                if family and cat.families[family].tau_torsion:
                    classes.append(make_q(cat, j, family, k))
    classes = [m for m in classes if m is not None]
    assert {m.cone for m in classes} == set(Cone)
    for m in classes:
        assert degree_of(cat, m) == reference_degree(cat, m), display(m)


@pytest.mark.parametrize("cone", list(Cone))
def test_degree_of_rejects_negative_family_parameter(cat, cone):
    with pytest.raises(CatalogError):
        degree_of(cat, MonomialClass(cone, "P^k h_1", -1, 0, 1, 0, 0))


@pytest.mark.parametrize("window", [Window(max_stem=16, min_coweight=-3, max_coweight=2),
                                    Window(max_stem=24, min_coweight=-6), Window(max_stem=40)],
                         ids=["s16-cw-3..2", "s24-cw-6..1", "s40"])
def test_rho_shift_is_the_rho_product_and_its_division(cat, window):
    # one step up a tower is the product with rho, None at divided exponent
    # 0 on both sides; one step down undoes it, and only a rho-free positive
    # class has no rho-division
    rho = make_positive(cat, rho=1)
    classes = [m for basis in build_e1(cat, window).values() for m in basis]
    assert {m.cone for m in classes} == set(Cone)
    for m in classes:
        up, down = rho_shift(m, 1), rho_shift(m, -1)
        assert up == multiply(cat, rho, m), display(m)
        assert (up is None) == (m.cone is not Cone.POSITIVE and m.rho == 0), display(m)
        if up is not None:
            assert rho_shift(up, -1) == m, display(m)
        assert (down is None) == (m.cone is Cone.POSITIVE and m.rho == 0), display(m)
        if down is not None:
            assert rho_shift(down, 1) == m, display(m)
        assert rho_shift(m, -m.filtration()) == m._replace(rho=0), display(m)
