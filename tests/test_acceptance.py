"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts. All
comparisons are exact: integer equalities and F2 identities, no tolerances.
"""

import time

import pytest

from blregion.adams import (
    adams_no_differentials,
    fixed_point_image,
    install_hidden_rho_extensions,
    mahowald_invariant_of_2k,
    rho_divisibility,
    rho_divisibility_engine,
    two_divisibility,
)
from blregion.bockstein import (
    census_report,
    check_structural_constraints,
    expected_census_dimension,
    run_bockstein,
)
from blregion.charts import chart_from_page, render
from blregion.degrees import TriDegree, Window
from blregion.monomials import Cone, degree_of, display
from blregion.rules import parse_monomial

from test_bockstein import COWEIGHT1_TABLE, _strip_divisions


def _verdict(n, ok, text):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def timed_default(cat):
    t0 = time.monotonic()
    run = run_bockstein(cat, Window(max_stem=24))
    page = install_hidden_rho_extensions(run)
    for k in range(1, 21):
        rho_divisibility(k, page)
        fixed_point_image(k, page)
        if k >= 5:
            two_divisibility(k, page)
    return run, page, time.monotonic() - t0


@pytest.fixture(scope="module")
def wide_page(cat):
    # a stem-40 window certifies the divisibility walk for every k <= 20
    run = run_bockstein(cat, Window(max_stem=40))
    return install_hidden_rho_extensions(run)


def test_criterion_1_rho_divisibility(timed_default, wide_page):
    run, page, elapsed = timed_default
    closed = lambda k: k - 1 if k % 4 == 0 else 4 * (k // 4)
    ok = all(rho_divisibility(k, page) == closed(k) for k in range(1, 21))
    ok = ok and all(
        rho_divisibility_engine(wide_page, k) == closed(k) for k in range(1, 21)
    )
    ok = ok and elapsed < 10.0
    _verdict(1, ok, f"rho-divisibility table exact for k=1..20 in {elapsed:.2f}s")


def test_criterion_2_fixed_point_image(timed_default):
    _run, page, _ = timed_default

    def formula(k):
        j, eps = divmod(k, 8)
        return 4 * j + (1 if eps == 0 else eps if eps <= 4 else 4)

    ok = all(fixed_point_image(k, page) == formula(k) for k in range(1, 21))
    ok = ok and fixed_point_image(5, page) == 4  # image 16 Z on the fifth stem
    _verdict(2, ok, "fixed-point image exponents exact for k=1..20")


def test_criterion_3_two_divisibility(timed_default):
    _run, page, _ = timed_default

    def formula(k):
        j, eps = divmod(k, 8)
        return 4 * j + (-1 if eps == 0 else 0 if eps <= 4 else eps - 4)

    ok = all(two_divisibility(k, page) == formula(k) for k in range(5, 21))
    _verdict(3, ok, "2-divisibility exponents exact for k=5..20")


def test_criterion_4_mahowald_invariants(timed_default):
    _run, page, _ = timed_default

    def formula(k):
        j, eps = divmod(k, 4)
        return {
            0: f"{_p(j - 1)}h_0^3 h_3",
            1: f"{_p(j)}h_1",
            2: f"{_p(j)}h_1^2",
            3: f"{_p(j)}h_1^3",
        }[eps]

    def _p(j):
        return "" if j == 0 else ("P " if j == 1 else f"P^{j} ")

    ok = all(
        display(mahowald_invariant_of_2k(page, k)) == formula(k)
        for k in range(4, 13)
    )
    ok = ok and [display(mahowald_invariant_of_2k(page, k)) for k in (1, 2, 3)] == [
        "h_1", "h_1^2", "h_1^3",
    ]
    _verdict(4, ok, "Mahowald invariants of the powers of 2 exact for k=1..12")


def test_criterion_5_coweight1_closure(cat, timed_default):
    run, _page, _ = timed_default
    ok = True
    # every row reappears with the exact page, source degree and target
    for page_no, src_expr, deg_of_k, tgt_expr, k_min in COWEIGHT1_TABLE:
        k = k_min
        while True:
            src = parse_monomial(cat, src_expr, k=k)
            if src is None or degree_of(cat, src).s > 24:
                break
            got = run.differentials.get(page_no, {}).get(src)
            want = parse_monomial(cat, tgt_expr, k=k)
            ok = ok and degree_of(cat, src) == deg_of_k(k)
            ok = ok and got is not None and got.terms == {want}
            k += 1
    # and nothing else fires out of coweight 1 above the region line
    base = set()
    for page_no, src_expr, _deg, tgt_expr, k_min in COWEIGHT1_TABLE:
        for k in range(k_min, 6):
            s, t = parse_monomial(cat, src_expr, k=k), parse_monomial(cat, tgt_expr, k=k)
            if s is not None and t is not None:
                base.add((page_no, s, t))
    for page_no, diffs in run.differentials.items():
        for src, chain in diffs.items():
            d = degree_of(cat, src)
            if d.coweight != 1 or d.s > 24 or src.cone is Cone.POSITIVE:
                continue
            tdeg = d + TriDegree(-1, 1, 0)
            if 2 * tdeg.f <= tdeg.s - 2:
                continue
            stripped = _strip_divisions(cat, src, chain)
            ok = ok and stripped is not None and (page_no, *stripped) in base
    _verdict(5, ok, "coweight-1 closure reproduces all eight rows, nothing extra")


def test_criterion_6_census(timed_default):
    run, _page, _ = timed_default
    rep = census_report(run)
    _verdict(6, rep.ok, "final-page census exact in coweight 0, stems <= 24")


def test_criterion_7_property_suite(cat, timed_default):
    run, _page, _ = timed_default
    # d o d = 0 and the filtration jump are hard engine checks: reaching the
    # last page means every page passed them
    ok = run.schedule == sorted(run.schedule) and len(run.schedule) >= 5
    rep = check_structural_constraints(run)
    ok = ok and rep.ok
    adams = adams_no_differentials(run)
    ok = ok and adams.ok
    # independent dense homology oracle on a small window (see the engine
    # test module for the full version)
    from test_bockstein import test_page_turn_dimensions_against_dense_oracle

    test_page_turn_dimensions_against_dense_oracle(cat)
    _verdict(7, ok, "d o d = 0, divisibility and vanishing checks, dense oracle")


def test_criterion_8_chart_fidelity(timed_default):
    run, page, _ = timed_default
    doc = chart_from_page(page, "einf")
    dashes = sorted((l.x1, l.y1, l.x2, l.y2) for l in doc.lines if l.kind == "hidden")
    expected = sorted(
        (float(degree_of(run.cat, s).s), float(degree_of(run.cat, s).f),
         float(degree_of(run.cat, t).s), float(degree_of(run.cat, t).f))
        for s, t in page.hidden_rho.items()
        if degree_of(run.cat, s).s <= doc.x_max and degree_of(run.cat, s).f <= doc.y_max
    )
    ok = dashes == expected and dashes[0] == (5.0, 3.0, 4.0, 4.0)
    counts = doc.dot_census()
    for s in range(0, doc.x_max + 1):
        for f in range(0, doc.y_max + 1):
            want = expected_census_dimension(TriDegree(s, f, s), doc.y_max)
            ok = ok and counts.get((s, f), 0) == want
    ok = ok and render(doc, "svg") == render(chart_from_page(page, "einf"), "svg")
    _verdict(8, ok, "hidden-extension dashes and dot census exact, bytes stable")
