import random

import pytest

from blregion.cones import enumerate_e1_at
from blregion.degrees import DIFFERENTIAL_SHIFT, TriDegree, Window


def test_coweight_examples():
    assert TriDegree(0, 0, 0).coweight == 0
    assert TriDegree(5, 3, 5).coweight == 0
    assert TriDegree(2, 0, 5).coweight == -3


def test_degree_arithmetic_componentwise():
    a, b = TriDegree(3, 1, 2), TriDegree(-1, 0, -1)
    assert a + b == TriDegree(2, 1, 1)
    assert a.scale(3) == TriDegree(9, 3, 6)
    # + adds, it does not concatenate; str is the compact form reports print
    assert type(a + b) is TriDegree and type(a.scale(-2)) is TriDegree
    assert [str(a), str(b + b), str(a.scale(-2))] == ["(3,1,2)", "(-2,0,-2)", "(-6,-2,-4)"]


def test_coweight_additive_and_commutative():
    rng = random.Random(11)
    for _ in range(200):
        a = TriDegree(rng.randint(-9, 9), rng.randint(0, 9), rng.randint(-9, 9))
        b = TriDegree(rng.randint(-9, 9), rng.randint(0, 9), rng.randint(-9, 9))
        c = TriDegree(rng.randint(-9, 9), rng.randint(0, 9), rng.randint(-9, 9))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert (a + b).coweight == a.coweight + b.coweight


def test_negative_filtration_rejected_for_classes(cat):
    # no window stores a degree with f < 0, and E1 has no class there
    for deg in (TriDegree(0, -1, 0), TriDegree(1, -1, 1), TriDegree(6, -1, 3)):
        assert not Window().stores(deg)
        assert enumerate_e1_at(cat, deg) == []
    # shift vectors may carry f = -1
    assert TriDegree(1, -1, 1).f == -1


def test_differential_shift():
    assert DIFFERENTIAL_SHIFT == TriDegree(-1, 1, 0)
    assert (TriDegree(4, 4, 4) + DIFFERENTIAL_SHIFT).coweight == -1


def test_window_stores_and_asserts():
    w = Window(max_stem=10)
    assert w.stores(TriDegree(12, 3, 12))
    assert not w.asserts(TriDegree(12, 3, 12))
    assert w.asserts(TriDegree(5, 3, 5))
    assert w.stores(TriDegree(4, 1, 7))  # coweight -3 padding row
    assert not w.asserts(TriDegree(4, 1, 7))
    assert w.near_boundary(TriDegree(10, 3, 10), reach=1)


def test_window_refuses_a_box_larger_than_stem_256s():
    # constructed only: no window this large is ever run here
    assert Window.max_degrees == 263 * 259 * 5
    Window(256)
    for stem, lo, hi in ((128, -2, 1), (40, -6, 1), (24, -2, 8), (16, -3, 2), (24, 0, 0)):
        Window(max_stem=stem, min_coweight=lo, max_coweight=hi)
    for args in ((257,), (24, -100000, 1), (24, 0, 100000), (99999999999999999999,)):
        with pytest.raises(ValueError, match="stores .* degrees"):
            Window(*args)
