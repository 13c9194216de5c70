"""Engine tests: closure golden values, page turning, census, constraints."""

import random
from dataclasses import replace

import pytest

from blregion import bockstein, cones, gf2
from blregion.bockstein import (
    _UNKNOWN,
    TAU_STEP,
    ZERO,
    BocksteinRun,
    ConflictError,
    DegreeState,
    PageResolver,
    Report,
    census_report,
    chain_of,
    check_structural_constraints,
    expected_census_dimension,
    pure_gamma_d,
    resolve_page,
    run_bockstein,
    targets_in,
    tau_power_d,
    turn_page,
    walk_tower,
)
from blregion.catalog import Catalog
from blregion.cones import build_e1
from blregion.degrees import DIFFERENTIAL_SHIFT, TriDegree, Window
from blregion.monomials import (Cone, ProductError, degree_of, display, make_gamma,
                                make_positive, make_q, module_action, multiply)
from blregion.rules import parse_monomial, parse_rule_line, seed_rules

def fresh_run(cat, window, rules):
    """A run of ``rules`` on its E1 page, before any page is resolved or turned."""
    e1 = build_e1(cat, window)
    return BocksteinRun(cat, window, {d: DegreeState.initial(d, b) for d, b in e1.items()},
                        rules)


# The eight coweight-1 differential families, frozen: (page, source expr,
# source degree formula, target expr, smallest k). Their rho-divided
# extensions are the same differentials pushed down the towers.
COWEIGHT1_TABLE = [
    (2, "gamma/(rho^2 tau^{4k-2}) P^{k} h_1",
     lambda k: TriDegree(8 * k + 3, 4 * k + 1, 8 * k + 2),
     "gamma/tau^{4k-1} P^{k} h_1^2", 1),
    (1, "gamma/(rho tau^{4k-1}) P^{k} h_2",
     lambda k: TriDegree(8 * k + 4, 4 * k + 1, 8 * k + 3),
     "gamma/tau^{4k} P^{k} h_0 h_2", 1),
    (1, "gamma/(rho tau^{4k-1}) P^{k} h_0 h_2",
     lambda k: TriDegree(8 * k + 4, 4 * k + 2, 8 * k + 3),
     "gamma/tau^{4k-1} P^{k} h_1^3", 1),
    (1, "gamma/(rho tau^{4k+1}) P^{k} h_0 h_3",
     lambda k: TriDegree(8 * k + 8, 4 * k + 2, 8 * k + 7),
     "gamma/tau^{4k+2} P^{k} h_0^2 h_3", 0),
    (1, "gamma/(rho tau^{4k+1}) P^{k} h_0^2 h_3",
     lambda k: TriDegree(8 * k + 8, 4 * k + 3, 8 * k + 7),
     "gamma/tau^{4k+2} P^{k} h_0^3 h_3", 0),
    (2, "gamma/(rho^2 tau^{4k+1}) P^{k} c_0",
     lambda k: TriDegree(8 * k + 10, 4 * k + 3, 8 * k + 9),
     "gamma/tau^{4k+2} P^{k} h_1 c_0", 0),
    (3, "gamma/(rho^3 tau^{4k+1}) P^{k} h_0^3 h_3",
     lambda k: TriDegree(8 * k + 10, 4 * k + 4, 8 * k + 9),
     "gamma/tau^{4k+3} P^{k+1} h_1", 0),
    (3, "gamma/(rho^3 tau^{4k+1}) P^{k} h_1 c_0",
     lambda k: TriDegree(8 * k + 12, 4 * k + 4, 8 * k + 11),
     "gamma/tau^{4k+4} P^{k+1} h_2", 0),
]


def test_all_eight_coweight1_rows_derived(cat, run24):
    for page, src_expr, deg_of_k, tgt_expr, k_min in COWEIGHT1_TABLE:
        k = k_min
        while True:
            src = parse_monomial(cat, src_expr, k=k)
            if src is None or degree_of(cat, src).s > 24:
                break
            assert degree_of(cat, src) == deg_of_k(k)
            tgt = parse_monomial(cat, tgt_expr, k=k)
            got = run24.differentials.get(page, {}).get(src)
            assert got is not None, f"missing d{page}({display(src)})"
            assert got.terms == {tgt}, (
                f"d{page}({display(src)}) = {got.describe()}, expected {display(tgt)}"
            )
            k += 1


def _strip_divisions(cat, src, chain):
    """Undo the rho-division extension: multiply source and target back up."""
    terms = sorted(chain.terms | chain.external, key=lambda m: m.sort_key())
    if len(terms) != 1:
        return None
    tgt = terms[0]
    m = tgt.rho if tgt.cone is not Cone.POSITIVE else 0
    rho_m = make_positive(cat, rho=m)
    s0 = multiply(cat, rho_m, src)
    t0 = multiply(cat, rho_m, tgt)
    return s0, t0


def test_no_extra_coweight1_differentials_above_line(cat, run24):
    base_instances = set()
    for page, src_expr, _deg, tgt_expr, k_min in COWEIGHT1_TABLE:
        for k in range(k_min, 6):
            src = parse_monomial(cat, src_expr, k=k)
            tgt = parse_monomial(cat, tgt_expr, k=k)
            if src is not None and tgt is not None:
                base_instances.add((page, src, tgt))
    for page, diffs in run24.differentials.items():
        for src, chain in diffs.items():
            d = degree_of(cat, src)
            if d.coweight != 1 or d.s > 24 or src.cone is Cone.POSITIVE:
                continue
            tdeg = d + TriDegree(-1, 1, 0)
            if 2 * tdeg.f <= tdeg.s - 2:
                continue  # target below the region line
            stripped = _strip_divisions(cat, src, chain)
            assert stripped is not None, f"composite value at d{page}({display(src)})"
            s0, t0 = stripped
            assert (page, s0, t0) in base_instances, (
                f"unexpected coweight-1 differential d{page}({display(src)}) = "
                f"{chain.describe()}"
            )


def test_positive_coweight_zero_page_two(cat, run24):
    # after the first page the positive coweight-0 slice drops rho * h_0
    for a in range(1, 4):
        for b in range(1, 4):
            m = make_positive(cat, rho=a, h0=b)
            assert not run24.monomial_alive(m), display(m)
    for a in range(0, 4):
        for b in range(0, 4):
            if a and b:
                continue
            m = make_positive(cat, rho=a, h1=b) if b else make_positive(cat, h0=a)
            assert run24.monomial_alive(m)


def test_untouched_degree_copied_verbatim(cat, run10):
    # a degree with no differentials in or out keeps its basis: h_1^2 at (2,2,2)
    st = run10.states[TriDegree(2, 2, 2)]
    assert st.dim() == 1 and make_positive(cat, h1=2) in st.alive_classes()


def test_census_matches_and_examples(cat, run24):
    rep = census_report(run24)
    assert rep.ok, rep.violations[:5]
    # tower truncation: Q/rho^3 h_1^4 dies, Q/rho^2 h_1^4 survives
    assert not run24.monomial_alive(make_q(cat, 3, "h_1^{4+k}", 0))
    assert run24.monomial_alive(make_q(cat, 2, "h_1^{4+k}", 0))
    # j = 4k-1 is allowed for the odd-leg towers: Q/rho^3 h_1^5 at stem 9
    assert run24.monomial_alive(make_q(cat, 3, "h_1^{4+k}", 1))
    # stem 0: the h0 tower
    for f in range(0, 10):
        m = make_positive(cat, h0=f)
        assert run24.monomial_alive(m)


def test_expected_census_formula():
    assert expected_census_dimension(TriDegree(0, 0, 0), 26) == 1
    assert expected_census_dimension(TriDegree(0, 3, 0), 26) == 2  # h_0^3, rho^3 h_1^3
    assert expected_census_dimension(TriDegree(5, 3, 5), 26) == 1  # Q h_1^4
    assert expected_census_dimension(TriDegree(8, 3, 8), 26) == 0  # on the line
    assert expected_census_dimension(TriDegree(9, 4, 9), 26) == 1  # Q/rho^3 h_1^5
    assert expected_census_dimension(TriDegree(4, 4, 4), 26) == 1  # h_1^4
    assert expected_census_dimension(TriDegree(7, 3, 7), 26) == 1  # Q/rho^2 h_1^4
    assert expected_census_dimension(TriDegree(2, 1, 3), 26) == 0  # coweight != 0


def test_structural_constraints_clean(run24):
    rep = check_structural_constraints(run24)
    assert rep.ok, rep.violations[:5]


def test_rho_divisibility_of_differentials(cat, run24):
    # every negative-cone class in a nonzero differential has its deeper
    # rho-division present wherever the window stores it
    for r, diffs in run24.differentials.items():
        for src, val in diffs.items():
            if src.cone is Cone.POSITIVE:
                continue
            for mono in [src] + sorted(val.terms, key=lambda m: m.sort_key()):
                deeper = mono._replace(rho=mono.rho + 1)
                deg = degree_of(cat, deeper)
                if run24.window.stores(deg):
                    assert deeper in run24.states[deg].basis


def test_page_turn_dimensions_against_dense_oracle(cat):
    """Independent ker/im bookkeeping for every page, stems <= 10."""

    def dense_rank(rows):
        rows = [r for r in rows if r]
        rank = 0
        while rows:
            piv = min(r & -r for r in rows)
            chosen = next(r for r in rows if r & piv)
            rows = [r ^ chosen if r & piv else r for r in rows if (r ^ chosen if r & piv else r)]
            rank += 1
        return rank

    window = Window(max_stem=10)
    run = fresh_run(cat, window, seed_rules(cat))
    for r in run.schedule:
        diffs = resolve_page(run, r)
        # expected next-page dimensions, degree by degree, by dense ranks
        expected = {}
        for d, st in run.states.items():
            if not st.dim():
                continue
            reps = st.reps()
            target = d + TriDegree(-1, 1, 0)
            t_state = run.states.get(target)
            cols = []
            externals = {}
            for rep in reps:
                vec = 0
                ext = frozenset()
                for i, mono in enumerate(st.basis):
                    if (rep >> i) & 1 and mono in diffs:
                        ch = diffs[mono]
                        for t in ch.terms:
                            vec ^= 1 << t_state.basis.index(t)
                        ext = ext ^ ch.external
                if t_state is not None:
                    vec = gf2.reduce(vec, t_state.boundaries)
                if ext:
                    key = ext
                    if key not in externals:
                        externals[key] = len(externals)
                    vec |= 1 << (len(t_state.basis) if t_state else 0) + externals[key]
                cols.append(vec)
            expected[d] = ("out", len(reps) - dense_rank(cols), cols)
        # incoming ranks
        incoming = {}
        for d, (_, _, cols) in expected.items():
            target = d + TriDegree(-1, 1, 0)
            mask_cols = []
            t_state = run.states.get(target)
            if t_state is None:
                continue
            width = len(t_state.basis)
            mask_cols = [c & ((1 << width) - 1) for c in cols]
            incoming.setdefault(target, []).extend(mask_cols)
        turn_page(run, diffs, r)
        checked = 0
        for d, (_, kernel_dim, _) in expected.items():
            if not window.asserts(d):
                continue  # padding rows are boundary-marked, not asserted
            inc = dense_rank(incoming.get(d, []))
            assert run.states[d].dim() == kernel_dim - inc, f"page {r} at {d}"
            checked += 1
        assert checked > 50


def _dense_turn(states, diffs, r):
    """The dense page turn, kept as the reference for the sparse one.

    Every nonempty degree gets a d_r matrix, zero or not, and every degree
    with a matrix gets new cycles. Representatives come from a fresh
    ``gf2.subquotient_basis``, not from the states' cache.
    """
    reps_of = {d: gf2.subquotient_basis(st.cycles, st.boundaries)
               for d, st in states.items() if st.dim()}
    new_cycles, new_boundaries = {}, {}
    for d, reps in reps_of.items():
        st = states[d]
        target = d + DIFFERENTIAL_SHIFT
        t_state = states.get(target)
        t_reps = reps_of.get(target, [])
        externals = {}
        cols_page, cols_raw = [], []
        for rep in reps:
            ch = ZERO
            for t, mono in enumerate(st.basis):
                if (rep >> t) & 1:
                    ch ^= diffs.get(mono, ZERO)
            raw = 0
            for mono in ch.terms:
                raw ^= t_state.vector([mono])
            page_vec = 0
            reduced = gf2.reduce(raw, t_state.boundaries) if raw else 0
            if reduced:
                page_vec, _ = gf2.solve(t_reps, reduced)
            if ch.external:
                externals.setdefault(ch.external, len(externals))
                page_vec |= 1 << (len(t_reps) + externals[ch.external])
            cols_page.append(page_vec)
            cols_raw.append(raw)
        _, kernel = gf2.solve(cols_page, 0)
        lifted = [_sum_rows(reps, kv) for kv in kernel]
        new_cycles[d] = gf2.rref(list(st.boundaries) + lifted)
        new_boundaries.setdefault(target, []).extend(v for v in cols_raw if v)
    for d, st in states.items():
        cycles = new_cycles.get(d, st.cycles)
        boundaries = st.boundaries
        if new_boundaries.get(d):
            boundaries = gf2.rref(list(boundaries) + new_boundaries[d])
            cycles = gf2.rref(list(cycles) + boundaries)
        st.set_rows(cycles, boundaries)


def _sum_rows(rows, mask):
    """XOR of the rows picked by the bits of mask."""
    v = 0
    for t, row in enumerate(rows):
        if (mask >> t) & 1:
            v ^= row
    return v


def _pages(cat, window):
    """Yield (run, r, diffs) for each page of a hand-driven run, before its turn."""
    run = fresh_run(cat, window, seed_rules(cat))
    for r in run.schedule:
        yield run, r, resolve_page(run, r)


@pytest.mark.parametrize("window", [Window(max_stem=12), Window(max_stem=12, min_coweight=-6)],
                         ids=["cw-2..1", "cw-6..1"])
def test_sparse_turn_matches_dense_reference(cat, window):
    turned = 0
    for run, r, diffs in _pages(cat, window):
        ref = {d: DegreeState(d, st.basis, st.cycles, st.boundaries)
               for d, st in run.states.items()}
        _dense_turn(ref, diffs, r)
        turn_page(run, diffs, r)
        for d, st in run.states.items():
            assert (st.cycles, st.boundaries) == (ref[d].cycles, ref[d].boundaries), (
                f"page {r} at {d}"
            )
        turned += any(diffs.values())
    assert turned >= 4


def test_cached_reps_match_fresh_subquotient(cat):
    # E1 states start with their representatives cached (the unit vectors),
    # and every page turn recomputes them for the rows it changes
    pages = 0
    for run, r, diffs in _pages(cat, Window(max_stem=12)):
        if r == 1:
            for d, st in run.states.items():
                assert list(st.reps()) == gf2.subquotient_basis(st.cycles, st.boundaries), (
                    f"E1 at {d}"
                )
        turn_page(run, diffs, r)
        for d, st in run.states.items():
            assert list(st.reps()) == gf2.subquotient_basis(st.cycles, st.boundaries), (
                f"page {r} at {d}"
            )
        pages += 1
    assert pages >= 4


def test_cached_page_classes_follow_the_rows(cat):
    # resolve_page reads each state's cached page classes, filled on the
    # page before; after a page turn they must be the classes a fresh
    # subquotient basis of the new rows selects, in the degrees it changed
    run = fresh_run(cat, Window(max_stem=12), seed_rules(cat))
    before, moved = {}, 0
    for r in run.schedule:
        for d, st in run.states.items():
            picked = 0
            for rep in gf2.subquotient_basis(st.cycles, st.boundaries):
                picked |= rep
            want = tuple(m for t, m in enumerate(st.basis) if (picked >> t) & 1)
            assert st.page_classes() == want, f"page {r} at {d}"
            moved += d in before and before[d] != want
            before[d] = want
        turn_page(run, resolve_page(run, r), r)
    assert moved > 100


def test_classes_read_back_the_vector_of_a_subset(run24):
    # DegreeState.vector and .classes are the page layer's one way between
    # basis classes and E1 vectors: classes(vector(S)) is S in basis order,
    # whatever order S is given in
    rng = random.Random(5)
    checked = 0
    for st in run24.states.values():
        subsets = [[], list(st.basis)]
        subsets += [[m for m in st.basis if rng.random() < 0.5] for _ in range(3)]
        for subset in subsets:
            vec = st.vector(rng.sample(subset, len(subset)))
            assert bin(vec).count("1") == len(subset)
            assert st.classes(vec) == tuple(subset), st.degree
            checked += 1
    assert checked > 500


def test_home_index_files_every_class_in_its_state(cat, run24):
    # every stored class has one home, the state of its degree, whose basis
    # holds it; a class no basis holds falls back to degree_of
    assert len(run24.home) == sum(len(st.basis) for st in run24.states.values())
    for m, st in run24.home.items():
        assert st is run24.states[degree_of(cat, m)] and m in st.basis, display(m)
        assert run24.degree(m) == st.degree
    outside = make_q(cat, 30, "h_1^{4+k}", 0)
    assert outside not in run24.home and run24.degree(outside) == degree_of(cat, outside)
    assert not run24.monomial_alive(outside)


def test_cached_survivors_follow_the_rows(cat):
    # before each page of a hand-driven run, every state's cached survivors
    # are the basis classes whose own vector reduces, from scratch, to zero
    # modulo the cycles and not to zero modulo the boundaries
    run = fresh_run(cat, Window(max_stem=12), seed_rules(cat))
    before, moved = {}, 0
    for r in run.schedule:
        for d, st in run.states.items():
            want = tuple(m for t, m in enumerate(st.basis)
                         if gf2.reduce(1 << t, st.cycles) == 0
                         and gf2.reduce(1 << t, st.boundaries) != 0)
            assert st.alive_classes() == want, f"page {r} at {d}"
            assert all(run.monomial_alive(m) == (m in want) for m in st.basis)
            moved += d in before and before[d] != want
            before[d] = want
        turn_page(run, resolve_page(run, r), r)
    assert moved > 100


def test_only_classes_a_rule_or_a_target_can_move_are_attempted(cat, monkeypatch):
    # a page class with no rule instance on page r and an empty target is
    # zero without an attempt or an entry; every other page class reaches
    # _resolve_raw once, in state and basis order, and the result holds
    # exactly the classes attempted
    attempted = []
    resolve_raw = PageResolver._resolve_raw

    def recording(self, m):
        attempted.append(m)
        return resolve_raw(self, m)

    monkeypatch.setattr(PageResolver, "_resolve_raw", recording)
    skipped = 0
    for run, r, diffs in _pages(cat, Window(max_stem=12)):
        on_page = {m for st in run.states.values() for rep in st.reps()
                   for t, m in enumerate(st.basis) if (rep >> t) & 1}
        rules = run.rule_instances.get(r, {})
        live = {m for m in on_page if m in rules or m.filtration() + r in
                run.index.filtrations(run.degree(m) + DIFFERENTIAL_SHIFT, m.cone is Cone.POSITIVE)}
        assert attempted == [m for st in run.states.values() for m in st.page_classes()
                             if m in live], r
        assert set(diffs) == set(attempted) == on_page & live, r
        assert live, r
        skipped += len(on_page - live)
        attempted.clear()
        turn_page(run, diffs, r)
    assert skipped > 1000


def _filled_transfer_pass(resolver, needed):
    """``PageResolver.transfer_pass`` as it read when every page class had an
    entry: a neighbour is resolved when it is in ``values``."""
    changed, run, values = False, resolver.run, resolver.values
    for m in needed:
        if m in values or m.cone is Cone.POSITIVE:
            continue
        for u, nb in resolver._bump_parents(m):
            if nb in values and run.monomial_alive(nb):
                values[m] = bockstein.multiply_chain(run, u, values[nb])
                changed = True
                break
        if m in values:
            continue
        if m.rho >= 1:
            shallow = m._replace(rho=m.rho - 1)
            if shallow in values and run.monomial_alive(shallow):
                solved = resolver._rho_lift(m, values[shallow])
                if solved is not _UNKNOWN:
                    values[m] = solved
                    changed = True
    return changed


def _filled_resolve_page(run, r):
    """``resolve_page`` as it read before it kept only the movers' values:
    every page class enters as zero, the live movers are taken out and
    attempted, and the result holds every page class, the zeros first."""
    resolver = PageResolver(run, r)
    values = resolver.values = {m: ZERO for st in run.states.values()
                                for m in st.page_classes()}
    live = [m for m in run.movers[r] if m in values]
    for m in live:
        del values[m]
    for m in live:
        val = resolver._resolve_raw(m)
        if val is _UNKNOWN and resolver.dead_target(m):
            val = ZERO
        if val is not _UNKNOWN:
            values[m] = val
    unknown = bockstein._resolution_order(m for m in live if m not in values)
    while _filled_transfer_pass(resolver, unknown):
        pass
    for m in unknown:
        if m not in values:
            run.assumptions.note(r, m)
            values[m] = ZERO
    return values


@pytest.mark.parametrize("window", [Window(max_stem=24, min_coweight=-6),
                                    Window(max_stem=16, min_coweight=-3, max_coweight=2)],
                         ids=["s24-cw-6..1", "s16-cw-3..2"])
def test_sparse_resolve_matches_the_filled_reference(cat, window):
    # two hand-driven runs side by side: on every page the sparse result is
    # the filled reference restricted to its keys, in order, every other
    # reference entry is zero, and the closure logs agree
    rules = seed_rules(cat)
    run, ref_run = fresh_run(cat, window, rules), fresh_run(cat, window, rules)
    dropped = 0
    for r in run.schedule:
        diffs, ref = resolve_page(run, r), _filled_resolve_page(ref_run, r)
        assert list(diffs.items()) == [(m, v) for m, v in ref.items() if m in diffs], r
        assert all(v == ZERO for m, v in ref.items() if m not in diffs), r
        assert run.assumptions.entries == ref_run.assumptions.entries, r
        dropped += len(ref) - len(diffs)
        turn_page(run, diffs, r)
        turn_page(ref_run, ref, r)
    assert run.assumptions.entries and dropped > 1000


def _per_class_movers(run):
    """``run.movers`` listed class by class: one filtration set read for
    each stored class, the listing before the run read one per rho-tower."""
    ruled = {}
    for r, insts in run.rule_instances.items():
        for src in insts:
            if src in run.home:
                ruled.setdefault(src, []).append(r)
    movers = {r: [] for r in run.schedule}
    for st in run.states.values():
        target = st.degree + DIFFERENTIAL_SHIFT
        for m in st.basis:
            positive = m.cone is Cone.POSITIVE
            filts = run.index.filtrations(target, positive) if positive or m.rho else ()
            lift = m.rho if positive else -m.rho
            for f in filts:
                at = movers.get(f - lift)
                if at is not None:
                    at.append(m)
            for r in ruled.get(m, ()):
                if r + lift not in filts:
                    movers[r].append(m)
    return {r: tuple(ms) for r, ms in movers.items()}


TOWER_WINDOWS = [Window(max_stem=8), Window(max_stem=16, min_coweight=-3, max_coweight=2),
                 Window(max_stem=24, min_coweight=-6), Window(max_stem=24, min_coweight=0,
                                                              max_coweight=0),
                 Window(max_stem=40)]


@pytest.mark.parametrize("window", TOWER_WINDOWS,
                         ids=["s8", "s16-cw-3..2", "s24-cw-6..1", "s24-cw0..0", "s40"])
def test_tower_movers_and_target_tests_equal_the_per_class_ones(cat, window):
    # a run reads one filtration set per rho-tower; its movers must be the
    # per-class listing, in order, on every scheduled page, and a tower's
    # positive pages must answer every member's empty-target test
    run = fresh_run(cat, window, seed_rules(cat))
    want = _per_class_movers(run)
    assert list(run.movers) == run.schedule == list(want)
    for r in run.schedule:
        assert run.movers[r] == want[r], f"page {r}"
    assert sum(map(len, want.values())) > 100
    index, checked = run.index, 0
    for st in run.states.values():
        for m in st.basis:
            if m.cone is not Cone.POSITIVE:
                continue
            for c in (m, m._replace(rho=0, tau=0)):
                filts = index.filtrations(degree_of(cat, c) + DIFFERENTIAL_SHIFT, True)
                for r in (1, 2, 3):
                    assert (r in index.positive_pages(c)) == (c.rho + r in filts), \
                        f"{display(c)} on page {r}"
                    checked += 1
    assert checked > 500


def test_each_rho_tower_reads_one_target_group(cat, monkeypatch):
    # a stem-40 run keeps 401 E1Index filtration sets and calls the public
    # enumerators 44 times, once for each gamma and Q group outside the
    # window it reads (the cones.enumerate_calls metric). While the index
    # kept each group's classes for the page resolver too, the run built
    # 1,954 groups and made 45 enumerator calls; reading one group per
    # stored class, it built 11,458 groups and made 1,936 enumerator calls
    calls = []
    for name in ("enumerate_positive_at", "enumerate_gamma_at", "enumerate_q_at"):
        def counting(c, deg, _enumerate=getattr(cones, name)):
            calls.append(deg)
            return _enumerate(c, deg)
        monkeypatch.setattr(cones, name, counting)
    run = run_bockstein(cat, Window(max_stem=40))
    assert len(run.index._filtrations) == 401
    assert len(calls) == 44


def _per_class_gamma(resolver, m):
    """d_r(m) of one gamma class by its own factorization, with no tower
    shared: the Leibniz rule over m = tau^(n-i) x * gamma/(rho^j tau^n)."""
    cat, oracle, r = resolver.run.cat, resolver.run.oracle, resolver.r
    j, i = m.rho, m.tau
    n = i + (-i) % TAU_STEP[r]
    y = make_positive(cat, 0, n - i, m.h0, m.h1, m.family, m.k)
    G, dG = make_gamma(cat, j, n), pure_gamma_d(cat, j, n, r)
    if y is not None and multiply(cat, y, G) == m and oracle.alive(y, r):
        dy = oracle.d(y, r)
        if dy is not _UNKNOWN:
            terms = [] if dy is None else [multiply(cat, dy, G)]
            if dG is not None:
                terms.append(multiply(cat, y, dG))
            return chain_of(resolver.run, terms)
    return _UNKNOWN


def _per_class_positive(resolver, m):
    """d_r(rho^a x) of one positive class: rho^a times the oracle's value on
    the rho-free x, a product of its own."""
    cat = resolver.run.cat
    val = resolver.run.oracle.d(m._replace(rho=0), resolver.r)
    if val is _UNKNOWN:
        return _UNKNOWN
    if val is None:
        return ZERO
    return chain_of(resolver.run, [multiply(cat, make_positive(cat, rho=m.rho), val)])


@pytest.mark.parametrize("window", [Window(max_stem=24, min_coweight=-6),
                                    Window(max_stem=16, min_coweight=-3, max_coweight=2)],
                         ids=["s24-cw-6..1", "s16-cw-3..2"])
def test_tower_placement_equals_per_class_factorization(cat, window):
    # a page resolves each rho-tower once and places its terms at each
    # member; every positive mover on every scheduled page, and every gamma
    # mover with rho >= r on pages 1..3, must get the value its own
    # factorization gives, unknowns included
    gamma = positive = derived = moved = 0
    for run, r, diffs in _pages(cat, window):
        resolver = PageResolver(run, r)
        for m in run.movers[r]:
            if m in resolver.rule_instances:
                continue  # a rule is read before the tower path
            if m.cone is Cone.POSITIVE:
                want = _per_class_positive(resolver, m)
                positive += 1
                moved += bool(want) and want is not _UNKNOWN and m.rho > 0
            elif m.cone is Cone.GAMMA and m.rho >= r and r <= 3:
                want = _per_class_gamma(resolver, m)
                gamma += 1
            else:
                continue
            assert resolver._resolve_raw(m) == want, f"{display(m)} on page {r}"
            derived += want is not _UNKNOWN
        turn_page(run, diffs, r)
    # a nonzero value moved up its tower (rho > 0) is what the placement
    # can get wrong on the positive cone
    assert gamma > 2000 and positive > 100 and moved > 50
    assert gamma + positive > derived > 2000


def test_each_gamma_tower_is_factored_once_per_page(cat, monkeypatch):
    # one factorization per distinct (page, rho-free class) that reaches
    # the tower path, however many members of the tower move; the gamma
    # towers are counted
    factored, reached = [], set()
    factor, resolve = PageResolver._factor_tower, PageResolver._resolve_raw

    def counting_factor(self, base):
        factored.append((self.r, base))
        return factor(self, base)

    def recording_resolve(self, m):
        if m.cone is not Cone.Q and m not in self.rule_instances:
            if m.cone is Cone.POSITIVE or self.r <= 3:
                reached.add((self.r, m._replace(rho=0)))
        return resolve(self, m)

    monkeypatch.setattr(PageResolver, "_factor_tower", counting_factor)
    monkeypatch.setattr(PageResolver, "_resolve_raw", recording_resolve)
    for window, towers in ((Window(max_stem=40), 380), (Window(max_stem=24, min_coweight=-6), 505)):
        run_bockstein(cat, window)
        assert len(factored) == len(set(factored)), window
        assert set(factored) == reached, window
        assert sum(base.cone is Cone.GAMMA for _, base in factored) == towers, window
        factored.clear()
        reached.clear()


@pytest.mark.parametrize("window", [Window(max_stem=12), Window(max_stem=12, min_coweight=-6)],
                         ids=["cw-2..1", "cw-6..1"])
def test_positive_oracle_survival_is_sound_on_the_page(cat, window):
    # the gamma factorization trusts oracle.alive(y, r) for rho-free positive
    # y; every class it certifies must be alive on the page it is asked about
    run = fresh_run(cat, window, seed_rules(cat))
    for r in run.schedule:
        if r > 4:
            break
        if r > 1:
            certified = [m for st in run.states.values() for m in st.basis
                         if m.cone is Cone.POSITIVE and m.rho == 0 and run.oracle.alive(m, r)]
            for m in certified:
                assert run.monomial_alive(m), f"{display(m)} certified but dead on page {r}"
            assert len(certified) >= 30, r
        turn_page(run, resolve_page(run, r), r)


# The six differentials that seed the computation, frozen: (page, source,
# target, source degree). tau_power_d and pure_gamma_d are their only
# statement in the engine.
SEED_DIFFERENTIALS = [
    (1, "tau^{2k+1}", "rho tau^{2k} h_0", lambda k: TriDegree(0, 0, -(2 * k + 1))),
    (2, "tau^{4k+2}", "rho^2 tau^{4k+1} h_1", lambda k: TriDegree(0, 0, -(4 * k + 2))),
    (3, "tau^{4k+4}", "0", lambda k: TriDegree(0, 0, -(4 * k + 4))),
    (1, "gamma/(rho tau^{2k+1})", "gamma/tau^{2k+2} h_0", lambda k: TriDegree(1, 0, 2 * k + 3)),
    (2, "gamma/(rho^2 tau^{4k+2})", "gamma/tau^{4k+3} h_1",
     lambda k: TriDegree(2, 0, 4 * k + 5)),
    (3, "gamma/(rho^3 tau^{4k+4})", "0", lambda k: TriDegree(3, 0, 4 * k + 8)),
]


def test_closed_forms_agree_with_the_seeds(cat):
    for r, source, target, deg_of in SEED_DIFFERENTIALS:
        for k in range(20):
            m, want = parse_monomial(cat, source, k), parse_monomial(cat, target, k)
            assert degree_of(cat, m) == deg_of(k), (source, k)
            if want is not None:
                assert degree_of(cat, want) == deg_of(k) + DIFFERENTIAL_SHIFT
                assert want.filtration() - m.filtration() == r  # the jump is the page
            if m.cone is Cone.POSITIVE:
                got = tau_power_d(cat, m.tau, r)
            else:
                got = pure_gamma_d(cat, m.rho, m.tau, r)
            assert got == want, f"d{r} {source} at k = {k}"
    # on page 3 a pure gamma class has nothing to hit
    run = fresh_run(cat, Window(max_stem=24, min_coweight=-6), seed_rules(cat))
    for j in range(3, 30):
        for i in range(1, 40):
            target = degree_of(cat, make_gamma(cat, j, i)) + DIFFERENTIAL_SHIFT
            assert 3 - j not in run.index.filtrations(target, False), (j, i)


@pytest.mark.parametrize("window", [Window(max_stem=12), Window(max_stem=12, min_coweight=-6)],
                         ids=["cw-2..1", "cw-6..1"])
def test_tau_step_survival_is_sound_on_the_page(cat, window):
    # the gamma factorization takes gamma/(rho^j tau^n), j >= r, alive on page
    # r exactly when TAU_STEP[r] divides n; every stored pure class must agree
    run = fresh_run(cat, window, seed_rules(cat))
    live = dead = 0
    for r in (1, 2, 3):
        if r > 1:
            for st in run.states.values():
                for m in st.basis:
                    if m.cone is not Cone.GAMMA or m.rho < r or m.h0 or m.h1 or m.family:
                        continue
                    alive = run.monomial_alive(m)
                    assert alive == (m.tau % TAU_STEP[r] == 0), f"{display(m)} on page {r}"
                    live += alive
                    dead += not alive
        turn_page(run, resolve_page(run, r), r)
    assert live and dead


def test_rule_override_changes_outcome(cat):
    # declaring the first torsion-tower differential zero keeps the whole
    # tower alive, which the divisibility walk can no longer certify
    from blregion.adams import OutOfWindowError, install_hidden_rho_extensions, rho_divisibility_engine

    override = parse_rule_line(cat, "3 | Q/rho^{4k-1} h_1^{4k} | 0 | 1..1")
    base = [r for r in seed_rules(cat) if not r.label.startswith("4k-1 |")]
    window = Window(max_stem=10)
    run = run_bockstein(cat, window, rules=base + [override])
    assert run.monomial_alive(parse_monomial(cat, "Q/rho^3 h_1^4"))
    page = install_hidden_rho_extensions(run)
    with pytest.raises(OutOfWindowError):
        rho_divisibility_engine(page, 4)


def test_leibniz_closure_entry_point(cat):
    # the one-page closure resolves the first tau-power differentials
    run = fresh_run(cat, Window(max_stem=6), seed_rules(cat))
    diffs = resolve_page(run, 1)
    tau = make_positive(cat, tau=1)
    assert diffs[tau].terms == {make_positive(cat, rho=1, h0=1)}
    assert diffs[make_positive(cat, tau=1, h0=2)].terms == {
        make_positive(cat, rho=1, h0=3)
    }
    assert make_positive(cat, h1=2) not in diffs  # no mover on page 1: zero


def _per_term_structural(run):
    """``check_structural_constraints`` with a degree and a window test for
    every term, as it read before division checks became home lookups."""
    cat, window = run.cat, run.window
    rep = Report()
    for r, diffs in sorted(run.differentials.items()):
        target_monos = set()
        for val in diffs.values():
            target_monos.update(val.terms)
            target_monos.update(val.external)
        for src, val in sorted(diffs.items()):
            if src.cone is Cone.POSITIVE:
                continue
            deeper = src._replace(rho=src.rho + 1)
            if window.stores(run.degree(deeper)) and not diffs.get(deeper):
                rep.violations.append(
                    f"page {r}: {display(src)} supports a differential but its "
                    f"rho-division {display(deeper)} does not"
                )
            for mono in sorted(val.terms):
                if mono.cone is Cone.POSITIVE:
                    continue
                deeper = mono._replace(rho=mono.rho + 1)
                ddeg = run.degree(deeper)
                if not window.stores(ddeg):
                    continue
                if not window.stores(ddeg + TriDegree(1, -1, 0)):
                    continue
                if deeper not in target_monos:
                    rep.violations.append(
                        f"page {r}: {display(mono)} receives a differential but its "
                        f"rho-division {display(deeper)} receives none"
                    )
    for d in sorted(run.states):
        if d.coweight < 0 and d.s > 0 and 2 * d.f > d.s + 3:
            for m in run.states[d].basis:
                under_stem = degree_of(cat, m._replace(cone=Cone.POSITIVE, rho=0, tau=0)).s
                if m.cone is Cone.GAMMA and under_stem == 0:
                    continue
                rep.violations.append(
                    f"E1 should vanish in {d}: negative coweight above the wedge "
                    f"line, found {display(m)}"
                )
    for d in sorted(run.states):
        if d.coweight != 1 or window.near_boundary(d, reach=4):
            continue
        for m in run.states[d].alive_classes():
            cur, height = m, 0
            ended_by_zero = False
            while height <= window.max_f:
                nxt = module_action(cat, "h_1", cur)
                if nxt is None:
                    ended_by_zero = True
                    break
                ndeg = run.degree(nxt)
                nst = run.states.get(ndeg)
                if not window.stores(ndeg):
                    rep.warnings.append(
                        f"h1 tower on {display(m)} leaves the window unresolved"
                    )
                    break
                if nst is None or nxt not in nst.alive_classes():
                    ended_by_zero = True
                    break
                cur, height = nxt, height + 1
            if not ended_by_zero and height > window.max_f:
                rep.violations.append(f"unbounded h1 tower on {display(m)} in coweight 1")
    return rep


def test_structural_check_equals_the_per_term_one_on_clean_runs(cat, run40):
    for run in (run_bockstein(cat, Window(max_stem=24, min_coweight=-6)), run40):
        got, want = check_structural_constraints(run), _per_term_structural(run)
        assert (got.violations, got.warnings) == (want.violations, want.warnings) == ([], [])


def test_structural_check_equals_the_per_term_one_on_injected_failures(cat):
    # dropping the value of a deeper rho-division breaks the tower source-side
    # (its shallower source keeps a value) and target-side (the deeper
    # terms it hit are hit no more), here on pages 2 and 4; three E1 classes
    # land above the wedge line, one of them a gamma class exempt on the
    # stem-0 h0 tower
    run = run_bockstein(cat, Window(max_stem=16, min_coweight=-6))
    for r in (2, 4):
        diffs = run.differentials[r]
        src = next(m for m in sorted(diffs) if m.cone is not Cone.POSITIVE
                   and m._replace(rho=m.rho + 1) in diffs)
        del diffs[src._replace(rho=src.rho + 1)]
    wedge = TriDegree(2, 4, 3)
    assert wedge not in run.states
    run.states[wedge] = DegreeState.initial(wedge, (
        make_positive(cat, h1=1), make_gamma(cat, 1, 2, h0=3), make_gamma(cat, 1, 2, h1=2)))
    got, want = check_structural_constraints(run), _per_term_structural(run)
    assert (got.violations, got.warnings) == (want.violations, want.warnings)
    for r in (2, 4):
        assert any(v.startswith(f"page {r}:") and "supports a differential" in v
                   for v in got.violations), r
        assert any(v.startswith(f"page {r}:") and "receives a differential" in v
                   for v in got.violations), r
    assert sum(v.startswith(f"E1 should vanish in {wedge}") for v in got.violations) == 2


def test_structural_check_flags_a_tower_that_reaches_the_walk_bound(run24, monkeypatch):
    # a validated catalog cannot reach the bound: every h0 or h1 step raises
    # f by one, so the tower leaves the stored box first. An action that
    # returns its own survivor stands in for a hand-built catalog whose h_1
    # does not raise f.
    monkeypatch.setattr(bockstein, "module_action", lambda cat, sym, m: m)
    sources = [m for d, st in run24.states.items()
               if d.coweight == 1 and not run24.window.near_boundary(d, reach=4)
               for m in st.alive_classes()]
    assert sources and all(walk_tower(run24, m, "h_1") == "unbounded" for m in sources)
    rep = check_structural_constraints(run24)
    assert rep.violations == [f"unbounded h1 tower on {display(m)} in coweight 1"
                              for m in sources]


def test_injected_non_divisible_differential_flagged(cat):
    # a differential on a class whose rho-division does not carry one
    # violates the negative-cone divisibility constraint. The source has a
    # family factor: on a family-free gamma class the closed forms fix d_1,
    # so the run refuses such a rule before any check reads it
    contradicting = parse_rule_line(
        cat, "1 | gamma/(rho tau^{2}) h_0 | gamma/tau^{3} h_0^2 | 0..0")
    with pytest.raises(ConflictError, match="two rules disagree"):
        run_bockstein(cat, Window(max_stem=10), extra_rules=[contradicting])
    bad = parse_rule_line(cat, "1 | gamma/(rho tau^{2}) h_2 | gamma/tau^{3} h_0 h_2 | 0..0")
    run = run_bockstein(cat, Window(max_stem=10), extra_rules=[bad])
    rep = check_structural_constraints(run)
    assert any("supports a differential" in v for v in rep.violations)


def test_leibniz_soundness_on_permanent_multipliers(cat, run24):
    # for u in {h_0, h_1}: d(u * C) = u * d(C) as page classes, wherever all
    # three of C, u*C and the values are stored
    from blregion.bockstein import _page_reduce, multiply_chain

    checked = 0
    for r, diffs in run24.raw_differentials.items():
        for src, val in diffs.items():
            for u in ("h_0", "h_1"):
                u_mono = make_positive(cat, **{"h0" if u == "h_0" else "h1": 1})
                try:
                    u_src = multiply(cat, u_mono, src)
                except ProductError:
                    continue
                if u_src is None or u_src not in run24.raw_differentials.get(r, {}):
                    continue
                lhs = run24.raw_differentials[r][u_src]
                try:
                    rhs = multiply_chain(run24, u_mono, val)
                except ProductError:
                    continue
                if lhs.external or rhs.external:
                    continue
                diff = lhs ^ rhs
                assert not _page_reduce(run24, diff), (
                    f"d({u} * {display(u_src)}) != {u} * d({display(src)})"
                )
                checked += 1
    assert checked > 30


@pytest.mark.parametrize("window", [Window(max_stem=12), Window(max_stem=12, min_coweight=-6)],
                         ids=["cw-2..1", "cw-6..1"])
def test_logged_assumptions_have_live_targets(cat, window):
    # a differential assigned zero under the closure assumption has a live
    # target on its page: a dead-target zero is forced and stays off the log
    logged_by_page = {}
    for run, r, diffs in _pages(cat, window):
        by_name = {display(m): m for m in diffs}
        logged = [by_name[name] for page, name in run.assumptions.entries if page == r]
        resolver = PageResolver(run, r)
        for m in logged:
            assert not resolver.dead_target(m), f"{display(m)} logged on page {r}"
        logged_by_page[r] = len(logged)
        turn_page(run, diffs, r)
    assert all(logged_by_page[r] for r in (2, 3, 7)), logged_by_page
    # the closure assumption is visible, never silent
    count = len(run.assumptions.entries)
    assert count == sum(logged_by_page.values())
    distinct = len({name for _, name in run.assumptions.entries})
    [note] = [n for n in census_report(run).notes
              if n.startswith(f"{count} differentials assigned zero under the closure assumption")]
    # the census reads only the coweight-0 degrees it asserts, so the note
    # names the distinct classes and claims no validation of the log
    assert f"({distinct} distinct classes)" in note
    assert "validated" not in note


def test_dead_target_reads_the_span_not_each_monomial(cat):
    # Through stem 24 no d_r of the catalog has two candidate targets, so
    # the catalog gets a twin of h_0 h_2: a family y in its degree. Then
    # d_1(tau h_2) can hit rho h_0 h_2 and rho y.
    h0_h2 = degree_of(cat, make_positive(cat, h0=1, family="P^k h_2"))
    y = replace(cat.families["P^k h_2"], name="y", base=h0_h2, h0_height=0)
    twin = Catalog(cat.symbols, {**cat.families, "y": y})
    run = fresh_run(twin, Window(max_stem=6), seed_rules(twin))
    src = make_positive(twin, tau=1, family="P^k h_2")
    st = run.states[degree_of(twin, src) + DIFFERENTIAL_SHIFT]
    c1, c2 = targets_in(st, src, 1)
    both = st.vector([c1, c2])
    others = [st.vector([m]) for m in st.basis if m not in (c1, c2)]
    resolver = PageResolver(run, 1)
    # each candidate is dead (not a cycle) but their sum is a live class
    st.set_rows(gf2.rref(others + [both]), [])
    assert c1 not in st.alive_classes() and c2 not in st.alive_classes()
    assert not resolver.dead_target(src)
    # with the sum a boundary every cycle of the span is dead; the other
    # classes of the degree stay live, and are no candidates
    st.set_rows(gf2.rref(others + [both]), [both])
    assert others and all(gf2.reduce(v, st.boundaries) for v in others)
    assert resolver.dead_target(src)


def test_divided_targets_leave_out_the_positive_cone(cat):
    # d_r of a divided class with rho-exponent r lands in filtration 0, as
    # a rho-free positive class does. No target degree of a divided class
    # in the catalog holds a rho-free positive class, so one state is made
    # up with one of each: a divided source hits only the divided class.
    pos, div = make_positive(cat, h1=1), make_gamma(cat, 0, 2, h0=1)
    st = DegreeState.initial(TriDegree(0, 1, 0), tuple(sorted((pos, div))))
    for src in (make_gamma(cat, 1, 1), make_q(cat, 1, "h_1^{4+k}", 0)):
        assert targets_in(st, src, 1) == (div,), display(src)
    assert targets_in(st, make_positive(cat, tau=1), 1) == ()


def test_window_stability(run24, run40):
    # widening the window must not change any page the smaller one asserts
    asserted = {d for d in set(run24.states) | set(run40.states) if run24.window.asserts(d)}
    assert len(asserted) == 1712
    assert [d for d in sorted(asserted) if run24.dimension(d) != run40.dimension(d)] == []
