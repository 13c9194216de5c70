import gc
import weakref

import pytest

from blregion import adams
from blregion.adams import (
    AmbiguityError,
    DivisibilityRecord,
    OutOfWindowError,
    adams_no_differentials,
    classical_edge_by_stem,
    install_hidden_rho_extensions,
    divisibility_table,
    fixed_point_image,
    is_rho_divisible,
    mahowald_invariant_of_2k,
    region,
    rho_divisibility,
    rho_divisibility_engine,
    rho_divisibility_formula,
    two_divisibility,
    underlying_map,
)
from blregion.bockstein import (Report, census_report, check_structural_constraints,
                                run_bockstein, walk_tower)
from blregion.charts import chart_from_page, render
from blregion.cli import REPORT_KINDS, report_tables
from blregion.degrees import TriDegree, Window
from blregion.monomials import Cone, degree_of, display, make_positive, make_q, module_action


def closed_form_fixed_points(k):
    j, eps = divmod(k, 8)
    if eps == 0:
        return 4 * j + 1
    if eps <= 4:
        return 4 * j + eps
    return 4 * j + 4


def closed_form_two_div(k):
    j, eps = divmod(k, 8)
    if eps == 0:
        return 4 * j - 1
    if eps <= 4:
        return 4 * j
    return 4 * j + eps - 4


def test_no_adams_differentials_in_region(run24):
    rep = adams_no_differentials(run24)
    assert rep.ok, rep.violations[:5]
    assert rep.notes  # every exclusion carries its reason


def test_hidden_extensions_start_at_four(cat, page24):
    srcs = sorted(4 + m.k for m in page24.hidden_rho)
    assert srcs[0] == 4 and srcs == list(range(4, srcs[-1] + 1))
    src = make_q(cat, 0, "h_1^{4+k}", 0)
    assert degree_of(cat, src) == TriDegree(5, 3, 5)
    assert page24.hidden_rho[src] == make_positive(cat, h1=4)
    assert degree_of(cat, page24.hidden_rho[src]) == TriDegree(4, 4, 4)
    # no link out of the cube of the Hopf class
    assert make_positive(cat, h1=3) not in page24.hidden_rho.values()


def test_rho_divisibility_closed_form():
    expected = {1: 0, 2: 0, 3: 0, 4: 3, 5: 4, 6: 4, 7: 4, 8: 7,
                9: 8, 10: 8, 11: 8, 12: 11, 13: 12, 16: 15, 20: 19}
    for k, v in expected.items():
        assert rho_divisibility_formula(k) == v


def test_rho_divisibility_engine_agrees(page24):
    certified = 0
    for k in range(1, 21):
        try:
            engine = rho_divisibility_engine(page24, k)
        except OutOfWindowError:
            continue
        assert engine == rho_divisibility_formula(k), k
        certified += 1
    assert certified >= 12  # the default window certifies at least k <= 12


@pytest.mark.parametrize("stem", [8, 16, 24, 40])
def test_rho_divisibility_engine_certifies_half_the_stems(request, cat, stem):
    # the window certifies exactly k = 1..max_stem/2 and refuses the next k;
    # the report rows past that come from the closed form
    run = (request.getfixturevalue(f"run{stem}") if stem in (24, 40)
           else run_bockstein(cat, Window(max_stem=stem)))
    page = install_hidden_rho_extensions(run)
    for k in range(1, stem // 2 + 1):
        assert rho_divisibility_engine(page, k) == rho_divisibility_formula(k), k
    with pytest.raises(OutOfWindowError):
        rho_divisibility_engine(page, stem // 2 + 1)


def test_rho_divisibility_hybrid(page24):
    for k in range(1, 21):
        assert rho_divisibility(k, page24) == rho_divisibility_formula(k)


def test_total_divisibility_of_fourth_power(cat, run24, page24):
    # page-level divisions j <= 2 plus one hidden step
    assert run24.monomial_alive(make_q(cat, 2, "h_1^{4+k}", 0))
    assert not run24.monomial_alive(make_q(cat, 3, "h_1^{4+k}", 0))
    assert rho_divisibility(4, page24) == 3


def test_fixed_point_image_table(page24):
    for k in range(1, 21):
        assert fixed_point_image(k, page24) == closed_form_fixed_points(k), k
    assert fixed_point_image(5, page24) == 4  # image 16 Z on the fifth stem
    assert fixed_point_image(1, page24) == 1
    assert fixed_point_image(8, page24) == 5


def test_fixed_point_image_growth(page24):
    prev = fixed_point_image(1, page24)
    for k in range(2, 21):
        cur = fixed_point_image(k, page24)
        assert 0 <= cur - prev <= 1
        prev = cur


def test_two_divisibility_table(page24):
    for k in range(5, 21):
        assert two_divisibility(k, page24) == closed_form_two_div(k), k
    with pytest.raises(ValueError):
        two_divisibility(4, page24)


def test_two_divisibility_witness_consistency(page24):
    for k in range(5, 21):
        m = two_divisibility(k, page24)
        assert rho_divisibility(k - m, page24) >= m
        if m + 1 <= k - 1:
            assert rho_divisibility(k - m - 1, page24) < m + 1


def test_underlying_map_positive_detectors(cat, page24):
    for e in range(1, 4):
        a = make_positive(cat, h1=e)
        assert underlying_map(page24, a) == a
    assert underlying_map(page24, make_positive(cat)) == make_positive(cat)


def test_underlying_map_filtration_jump(cat, page24):
    # stem 7: the deepest division of the first torsion tower
    assert display(underlying_map(page24, make_q(cat, 2, "h_1^{4+k}", 0))) == "h_0^3 h_3"
    # stem 9 and the following legs
    assert display(underlying_map(page24, make_q(cat, 3, "h_1^{4+k}", 1))) == "P h_1"
    assert display(underlying_map(page24, make_q(cat, 3, "h_1^{4+k}", 2))) == "P h_1^2"
    assert display(underlying_map(page24, make_q(cat, 3, "h_1^{4+k}", 3))) == "P h_1^3"
    assert display(underlying_map(page24, make_q(cat, 6, "h_1^{4+k}", 4))) == "P h_0^3 h_3"


def test_underlying_map_kills_rho_divisible(cat, page24):
    assert underlying_map(page24, make_q(cat, 0, "h_1^{4+k}", 0)) is None
    assert underlying_map(page24, make_q(cat, 1, "h_1^{4+k}", 0)) is None
    assert underlying_map(page24, make_positive(cat, h1=4)) is None  # hidden division
    assert underlying_map(page24, make_positive(cat, rho=2, h1=5)) is None
    assert is_rho_divisible(page24, make_positive(cat, rho=1, h1=2))
    assert not is_rho_divisible(page24, make_positive(cat, h1=2))


def test_underlying_map_demands_uniqueness(cat, page24):
    # stem 8 offers no classical class above filtration 3: the lookup must
    # refuse rather than guess
    fake = make_q(cat, 3, "h_1^{4+k}", 0)
    assert degree_of(cat, fake).s == 8
    with pytest.raises(AmbiguityError, match="no candidates"):
        underlying_map(page24, fake)
    # and a non-detector positive class is rejected outright
    with pytest.raises(AmbiguityError, match="detector"):
        underlying_map(page24, make_positive(cat, tau=1, h1=1))


def test_classical_edge_catalog(cat):
    edge = classical_edge_by_stem(cat, 20)
    names = [display(z) for z in edge[7]]
    assert names == ["h_0 h_3", "h_0^2 h_3", "h_0^3 h_3"]
    names = [display(z) for z in edge[9]]
    assert sorted(names) == ["P h_1", "h_1 c_0"]
    assert [display(z) for z in edge[2]] == ["h_1^2"]


def test_mahowald_invariants(page24):
    expect = {
        0: "1", 1: "h_1", 2: "h_1^2", 3: "h_1^3",
        4: "h_0^3 h_3", 5: "P h_1", 6: "P h_1^2", 7: "P h_1^3",
        8: "P h_0^3 h_3", 9: "P^2 h_1", 10: "P^2 h_1^2", 11: "P^2 h_1^3",
        12: "P^2 h_0^3 h_3",
    }
    for k, name in expect.items():
        assert display(mahowald_invariant_of_2k(page24, k)) == name, k


def test_divisibility_records(page24):
    rows = divisibility_table(page24, 8)
    assert rows[3].k == 4 and rows[3].max_rho_power == 3
    assert rows[3].max_two_power is None
    assert rows[7].max_two_power == 3
    assert rows[4].fixed_point_generator_exponent == 4


@pytest.mark.parametrize("k_max", [8, 20])
def test_divisibility_table_walks_each_tower_once(page24, monkeypatch, k_max):
    # the table runs rho_divisibility once per k and reads the 2-divisibility
    # and the fixed-point image off that list; the per-k public functions
    # each walk the towers again and must give the same rows
    walks = []
    engine = adams.rho_divisibility_engine

    def counting(page, k):
        walks.append(k)
        return engine(page, k)

    monkeypatch.setattr(adams, "rho_divisibility_engine", counting)
    rows = divisibility_table(page24, k_max)
    assert sorted(walks) == list(range(1, k_max + 1))
    walks.clear()
    assert rows == [
        DivisibilityRecord(k, rho_divisibility(k, page24),
                           two_divisibility(k, page24) if k >= 5 else None,
                           fixed_point_image(k, page24))
        for k in range(1, k_max + 1)
    ]
    assert len(walks) > k_max  # the public functions walk again


def _adams_tower_excludes(run, beta, sym):
    """Reference for ``walk_tower``: the Adams check's stand-alone walk,
    whether beta's sym tower dies inside the stored box. It reads a product
    whose degree holds no state as unable to certify; ``walk_tower`` reads
    it as zero when the degree is stored."""
    cur, steps = beta, 0
    while steps <= run.window.max_f + 1:
        nxt = module_action(run.cat, sym, cur)
        if nxt is None:
            return True
        ndeg = run.degree(nxt)
        st = run.states.get(ndeg)
        if st is None or not run.window.stores(ndeg):
            return False
        if nxt not in st.alive_classes():
            return True
        cur, steps = nxt, steps + 1
    return False


def _structural_tower_fate(run, m, sym):
    """Reference for ``walk_tower``: the structural check's stand-alone
    h1-tower loop, for either generator: "dies", "leaves" or "unbounded"."""
    cat, window, cur, height = run.cat, run.window, m, 0
    while height <= window.max_f:
        nxt = module_action(cat, sym, cur)
        if nxt is None:
            return "dies"
        nst = run.home.get(nxt)
        if nst is None and not window.stores(degree_of(cat, nxt)):
            return "leaves"
        if nst is None or nxt not in nst.alive_classes():
            return "dies"
        cur, height = nxt, height + 1
    return "unbounded"


@pytest.mark.parametrize("window", [Window(max_stem=24, min_coweight=-6), Window(max_stem=40)],
                         ids=["stem24-cw-6..1", "stem40"])
def test_walk_tower_agrees_with_both_old_walks(cat, run40, window):
    # every survivor of every stored degree, under both generators: the
    # structural loop's fate, and the Adams walk's verdict exactly when the
    # tower dies; no walk here reaches a stored degree without a state,
    # the one place the two old walks read differently
    run = run40 if window == run40.window else run_bockstein(cat, window)
    fates = set()
    for st in run.states.values():
        for m in st.alive_classes():
            for sym in ("h_0", "h_1"):
                fate = walk_tower(run, m, sym)
                assert fate == _structural_tower_fate(run, m, sym), (display(m), sym)
                assert (fate == "dies") == _adams_tower_excludes(run, m, sym), (display(m), sym)
                fates.add(fate)
    assert fates == {"dies", "leaves"}


def _class_by_class_no_differentials(run):
    """``adams_no_differentials`` over the full-scan region, walking the
    source tower for every (target, source) pair with the Adams check's old
    walk, and the (source, generator) pairs it walked, in order."""
    rep, walked = Report(), []
    for alpha in _region_classes_full_scan(run):
        d = run.degree(alpha)
        for r in range(2, adams.MAX_ADAMS_PAGE + 1):
            t = TriDegree(d.s - 1, d.f + r, d.w)
            if t.f > run.window.max_f:
                break
            st = run.states.get(t)
            if st is not None and st.alive_classes():
                rep.violations.append(
                    f"unexcluded differential: d_{r}({display(alpha)}) has live "
                    f"target {display(st.alive_classes()[0])} at {t}"
                )
        for r in range(2, adams.MAX_ADAMS_PAGE + 1):
            if d.f - r < 0:
                break
            st = run.states.get(TriDegree(d.s + 1, d.f - r, d.w))
            if st is None:
                continue
            is_h0_tower = alpha.h1 == 0 and alpha.cone is Cone.POSITIVE and not alpha.family
            sym = "h_0" if is_h0_tower else "h_1"
            for beta in st.alive_classes():
                walked.append((beta, sym))
                if _adams_tower_excludes(run, beta, sym):
                    rep.notes.append(
                        f"d_{r}({display(beta)}) -> {display(alpha)} excluded: "
                        f"the source's {sym} tower dies while the target's persists"
                    )
                else:
                    rep.violations.append(
                        f"unexcluded differential: d_{r}({display(beta)}) could hit "
                        f"{display(alpha)}"
                    )
    return rep, walked


def test_adams_check_walks_each_source_tower_once(run24, run40, monkeypatch):
    # the verdict on a source's tower reads neither the target nor the page
    # of the differential, so the check calls walk_tower once per (source,
    # generator); its report, notes and their order included, is the
    # class-by-class walk's
    for run, distinct in ((run24, 100), (run40, 232)):
        want, walked = _class_by_class_no_differentials(run)
        assert len(set(walked)) == distinct and len(walked) > 4 * distinct
        walks = []

        def counting(run, beta, sym, walk=walk_tower):
            walks.append((beta, sym))
            return walk(run, beta, sym)

        monkeypatch.setattr(adams, "walk_tower", counting)
        got = adams_no_differentials(run)
        monkeypatch.undo()
        assert sorted(walks) == sorted(set(walked))
        assert (got.violations, got.warnings, got.notes) == (
            want.violations, want.warnings, want.notes)
        assert got.notes and not got.violations


def _finished_run_ref(cat, stem):
    """Run one window through the checks, the five reports and both charts,
    and return a weak reference to its run once nothing holds it."""
    run = run_bockstein(cat, Window(max_stem=stem))
    for check in (check_structural_constraints, census_report, adams_no_differentials):
        assert check(run).ok
    page = install_hidden_rho_extensions(run)
    refused = []
    for kind in REPORT_KINDS:
        try:
            report_tables(page, kind)
        except AmbiguityError as exc:
            refused.append((kind, str(exc)))
    for kind in ("einf", "e2"):
        doc = chart_from_page(page if kind == "einf" else run, kind)
        render(doc, "svg")
        render(doc, "tikz")
    ref = weakref.ref(run)
    del run, page
    return ref, refused


def test_finished_run_is_freed_without_the_cyclic_gc(cat):
    # a finished run and its page form no reference cycle, so reference
    # counting frees them: nothing may cache a page fact, or a refusal's
    # traceback, where it points back at the run
    gc.collect()
    gc.disable()
    try:
        for stem in (8, 24):
            ref, refused = _finished_run_ref(cat, stem)
            assert ref() is None, stem
            assert [kind for kind, _ in refused] == (["mahowald"] if stem == 8 else [])
    finally:
        gc.enable()


def test_hidden_links_raise_filtration(cat, page24):
    for src, tgt in page24.hidden_rho.items():
        sdeg, tdeg = degree_of(cat, src), degree_of(cat, tgt)
        assert tdeg.f > sdeg.f
        assert sdeg.s - tdeg.s == 1


def test_region_classes_all_in_region(cat, run24):
    for d, survivors in region(run24):
        assert d.coweight == 0 and 2 * d.f > d.s - 2 and 0 <= d.s <= 24
        assert survivors and all(degree_of(cat, m) == d for m in survivors)


def _region_classes_full_scan(run):
    """The region's survivors by a scan of every stored degree, sorted: the
    reference for ``region``'s direct lookup of the region's degrees."""
    out = []
    for d in sorted(run.states):
        if d.coweight != 0 or d.s < 0 or d.s > run.window.max_stem:
            continue
        if 2 * d.f <= d.s - 2:
            continue
        out.extend(run.states[d].alive_classes())
    return out


@pytest.mark.parametrize("stem, lo, hi", [(24, -6, 1), (16, -3, 2), (24, 0, 0), (8, -2, 1)])
def test_region_classes_equal_full_scan(cat, stem, lo, hi):
    run = run_bockstein(cat, Window(max_stem=stem, min_coweight=lo, max_coweight=hi))
    want = _region_classes_full_scan(run)
    assert want and [m for _, survivors in region(run) for m in survivors] == want


def test_mahowald_report_walks_underlying_classes_once_per_page(run24, monkeypatch):
    # the page lists the classical edge by stem on first use, one walk per
    # filtration, and keeps it; a fresh page walks again
    walks = []
    walk = adams._underlying_with_filtration

    def counting(cat, f):
        walks.append(f)
        return walk(cat, f)

    monkeypatch.setattr(adams, "_underlying_with_filtration", counting)
    max_f = run24.window.max_f
    report_tables(install_hidden_rho_extensions(run24), "mahowald")
    assert sorted(walks) == list(range(max_f + 1))
    report_tables(install_hidden_rho_extensions(run24), "mahowald")
    assert len(walks) == 2 * (max_f + 1)
