"""Property tests over randomly drawn monomials and F2 matrices (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from blregion import gf2  # noqa: E402
from blregion.cones import build_e1  # noqa: E402
from blregion.degrees import Window  # noqa: E402
from blregion.monomials import (  # noqa: E402
    Cone,
    MonomialClass,
    ProductError,
    degree_of,
    make_gamma,
    make_positive,
    make_q,
    multiply,
)

EXPONENT = st.integers(min_value=0, max_value=6)


def _family_and_k(draw, cat, names):
    """No family half the time: a product of two families raises ProductError."""
    family = draw(st.one_of(st.just(""), st.sampled_from(names)))
    k_min = cat.families[family].k_min if family else 0
    return family, draw(st.integers(min_value=k_min, max_value=4))


def _bumps(draw, cat, family, cap=6):
    """(h0, h1) within the family's heights; at most one is nonzero (h0 h1 = 0)."""
    fam = cat.families[family] if family else None
    if draw(st.booleans()):
        return draw(st.integers(0, min(fam.h0_height, cap) if fam else cap)), 0
    return 0, draw(st.integers(0, min(fam.h1_height, cap) if fam else cap))


@st.composite
def positive_monomials(draw, cat, cap=6):
    """A positive-cone monomial with every exponent at most ``cap``."""
    family, k = _family_and_k(draw, cat, sorted(cat.families))
    h0, h1 = _bumps(draw, cat, family, cap)
    torsion = cat.families[family].tau_torsion if family else h1 >= 4
    exponent = st.integers(0, cap)
    tau = 0 if torsion else draw(exponent)
    m = make_positive(cat, draw(exponent), tau, h0, h1, family, k)
    assume(m is not None)
    return m


@st.composite
def monomials(draw, cat):
    """A positive, gamma-part or Q-part basis monomial."""
    cone = draw(st.sampled_from(("positive", "gamma", "q")))
    if cone == "positive":
        return draw(positive_monomials(cat))
    if cone == "gamma":
        tau_free = sorted(n for n, f in cat.families.items() if not f.tau_torsion)
        family, k = _family_and_k(draw, cat, tau_free)
        h0, h1 = _bumps(draw, cat, family)
        m = make_gamma(cat, draw(EXPONENT), draw(st.integers(1, 8)), h0, h1, family, k)
    else:
        torsion = sorted(n for n, f in cat.families.items() if f.tau_torsion)
        m = make_q(cat, draw(EXPONENT), draw(st.sampled_from(torsion)), draw(st.integers(0, 8)))
    assume(m is not None)
    return m


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_degree_is_additive_on_products(cat, data):
    # small multipliers: most large products leave the truncated towers
    a = data.draw(positive_monomials(cat, cap=2), label="a")
    b = data.draw(monomials(cat), label="b")
    try:
        product = multiply(cat, a, b)
    except ProductError:
        product = None  # outside the wedge: no product to check
    assume(product is not None)
    assert degree_of(cat, product) == degree_of(cat, a) + degree_of(cat, b)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_classes_hash_and_sort_as_field_tuples(cat, data):
    xs = [data.draw(monomials(cat), label=f"m{i}") for i in range(data.draw(st.integers(1, 6)))]
    for m in xs:
        assert hash(m) == hash((m.cone, m.family, m.k, m.rho, m.tau, m.h0, m.h1))
        d = degree_of(cat, m)
        assert hash(d) == hash((d.s, d.f, d.w)) and m != d
        with pytest.raises(AttributeError):
            m.k = m.k + 1
    assert sorted(xs) == sorted(xs, key=MonomialClass.sort_key)


@pytest.fixture(scope="module")
def positive12(cat):
    """Every positive-cone class of the stem-12 E1, in degree order."""
    e1 = build_e1(cat, Window(max_stem=12))
    return [m for basis in e1.values() for m in basis if m.cone is Cone.POSITIVE]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_positive_products_associate(cat, positive12, data):
    a, b, c = (data.draw(st.sampled_from(positive12), label=x) for x in "abc")

    def times(x, y):
        return None if x is None or y is None else multiply(cat, x, y)

    try:
        left, right = times(times(a, b), c), times(a, times(b, c))
    except ProductError:
        assume(False)  # two family roots: outside the wedge
    assert left == right


MATRICES = st.lists(st.integers(0, 2**9 - 1), max_size=9)


@settings(max_examples=300, deadline=None)
@given(cols=MATRICES, rhs=st.integers(0, 2**9 - 1))
def test_gf2_rank_nullity_and_solutions(cols, rhs):
    sol, kernel = gf2.solve(cols, rhs)
    assert len(gf2.rref(cols)) + len(kernel) == len(cols)
    for kv in kernel:
        assert _combine(cols, kv) == 0
    if sol is None:
        assert gf2.reduce(rhs, gf2.rref(cols)) != 0  # rhs outside the span
    else:
        assert _combine(cols, sol) == rhs


@settings(max_examples=300, deadline=None)
@given(gens=MATRICES, v=st.integers(0, 2**9 - 1))
def test_gf2_reduce_idempotent_within_coset(gens, v):
    rows = gf2.rref(gens)
    once = gf2.reduce(v, rows)
    assert gf2.reduce(once, rows) == once
    assert gf2.reduce(once ^ v, rows) == 0  # changed only by an element of the span


def _combine(cols, mask):
    out = 0
    for i, c in enumerate(cols):
        if (mask >> i) & 1:
            out ^= c
    return out
