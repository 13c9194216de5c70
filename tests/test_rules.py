import pytest

from blregion.bockstein import ConflictError, index_rules, run_bockstein
from blregion.degrees import TriDegree, Window
from blregion.monomials import Cone, degree_of, make_gamma, make_positive, make_q
from blregion.rules import (
    SEED_LINES,
    load_rule_overrides,
    parse_monomial,
    parse_rule_line,
    seed_rules,
)

# Degree formulas of the seeded differential sources, frozen. Each entry:
# (rule line prefix, page at k, source degree at k, k_min). The tau-power
# differentials are closed forms, frozen in test_bockstein.
SEED_DEGREES = [
    ("3 | tau^3 P^{k} h_0^3 h_3 |", lambda k: 3,
     lambda k: TriDegree(8 * k + 7, 4 * k + 4, 4 * k + 1), 0),
    ("3 | tau^3 P^{k} h_1 c_0 |", lambda k: 3,
     lambda k: TriDegree(8 * k + 9, 4 * k + 4, 4 * k + 3), 0),
    ("4k-1 | Q/rho^{4k-1} h_1^{4k} |", lambda k: 4 * k - 1,
     lambda k: TriDegree(8 * k, 4 * k - 1, 8 * k), 1),
    ("4k | Q/rho^{4k} h_1^{4k+1} |", lambda k: 4 * k,
     lambda k: TriDegree(8 * k + 2, 4 * k, 8 * k + 2), 1),
]


def test_seed_rule_set_matches_frozen_degrees(cat):
    rules = seed_rules(cat)
    assert len(rules) == len(SEED_DEGREES)
    by_label = {r.label: r for r in rules}
    for frag, page_of, deg_of, k_min in SEED_DEGREES:
        matches = [r for r in by_label.values() if r.label.startswith(frag)]
        assert len(matches) == 1, frag
        rule = matches[0]
        assert rule.k_min == k_min
        for k in range(k_min, k_min + 3):
            inst = rule.instance(cat, k)
            assert inst.page == page_of(k)
            assert degree_of(cat, inst.source) == deg_of(k)
            if inst.target is not None:
                tdeg = degree_of(cat, inst.target)
                assert tdeg == deg_of(k) + TriDegree(-1, 1, 0)
                # the filtration jump equals the page number
                assert inst.target.filtration() - inst.source.filtration() == inst.page


def test_specific_rule_values(cat):
    rules = {r.source: r for r in seed_rules(cat)}
    inst = rules["tau^3 P^{k} h_0^3 h_3"].instance(cat, 0)
    assert degree_of(cat, inst.source) == TriDegree(7, 4, 1)
    assert inst.target == make_positive(cat, rho=3, tau=1, family="P^k h_1", k=1)
    inst = rules["Q/rho^{4k-1} h_1^{4k}"].instance(cat, 1)
    assert inst.page == 3
    assert inst.source == make_q(cat, 3, "h_1^{4+k}", 0)
    assert inst.target == make_gamma(cat, 0, 3, h0=2, family="P^k h_0 h_3", k=0)
    inst = rules["Q/rho^{4k} h_1^{4k+1}"].instance(cat, 1)
    assert inst.page == 4
    assert inst.target == make_gamma(cat, 0, 4, family="P^k h_1", k=1)


def test_monomial_expression_parser(cat):
    m = parse_monomial(cat, "tau^{2k+1}", k=3)
    assert m == make_positive(cat, tau=7)
    m = parse_monomial(cat, "rho^2 tau^{4k+1} h_1", k=1)
    assert m == make_positive(cat, rho=2, tau=5, h1=1)
    m = parse_monomial(cat, "gamma/(rho^{4k-1} tau^2) P^{k} h_1", k=1)
    assert m == make_gamma(cat, 3, 2, family="P^k h_1", k=1)
    m = parse_monomial(cat, "Q/rho^{4k} h_1^{4k+1}", k=2)
    assert m == make_q(cat, 8, "h_1^{4+k}", 5)
    assert parse_monomial(cat, "0") is None
    with pytest.raises(ValueError):
        parse_monomial(cat, "h_9^2")


def test_rule_override_line(cat):
    rule = parse_rule_line(cat, "2 | tau^{4k+2} | rho^2 tau^{4k+1} h_1 | 0..2")
    inst = rule.instance(cat, 1)
    assert inst.page == 2
    assert inst.source == make_positive(cat, tau=6)
    assert inst.target == make_positive(cat, rho=2, tau=5, h1=1)
    assert rule.instance(cat, 3) is None  # k_max respected
    with pytest.raises(ValueError):
        parse_rule_line(cat, "2 | tau^{4k+2} | rho^2 tau^{4k+1} h_1 | 2..1")


def test_override_file_parsed_at_load(cat, tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("3 | tau^{4k+4} | nosuch_symbol | 0..1\n")
    with pytest.raises(ValueError):
        load_rule_overrides(cat, path)
    path.write_text("# comment only\n3 | tau^{4k+4} | 0 | 0..1\n")
    assert [r.label for r in load_rule_overrides(cat, path)] == ["3 | tau^{4k+4} | 0 | 0..1"]
    # a target must lie at the source's degree plus (-1, 1, 0)
    path.write_text("1 | h_1 | rho h_0 | 0..0\n")
    with pytest.raises(ValueError, match="rho h_0"):
        load_rule_overrides(cat, path)
    path.write_text("1 | tau^{2k+1} | rho tau^{2k} h_0 | 0..3\n")
    assert len(load_rule_overrides(cat, path)) == 1


def test_seeds_and_overrides_are_one_language(cat, run24, tmp_path):
    # the seed lines, read back as an override file, restate every seed:
    # no conflict, and the same pages and differentials as the plain run
    assert [r.label for r in seed_rules(cat)] == list(SEED_LINES)
    path = tmp_path / "seeds.txt"
    path.write_text("\n".join(SEED_LINES) + "\n")
    extra = load_rule_overrides(cat, path)
    assert [r.label for r in extra] == list(SEED_LINES)
    run = run_bockstein(cat, Window(max_stem=24), extra_rules=extra)
    assert run.states.keys() == run24.states.keys()
    assert all(run.dimension(d) == run24.dimension(d) for d in run.states)
    assert run.differentials == run24.differentials


def test_one_rule_index_sets_the_schedule(cat, run10):
    assert run10.schedule == [1, 2, 3, 4]
    stored_pages = {
        r for r, insts in run10.rule_instances.items()
        for src in insts if run10.window.stores(degree_of(cat, src))
    }
    assert run10.schedule == sorted({1, 2, 3} | stored_pages)
    # the index keeps instances whose source lies outside the window
    src = make_positive(cat, tau=3, h0=2, family="P^k h_0 h_3", k=1)
    assert degree_of(cat, src).s == 15 > run10.window.stored_max_stem
    assert run10.rule_instances[3][src].target == make_positive(
        cat, rho=3, tau=1, family="P^k h_1", k=2)


def test_rule_index_keeps_only_what_a_lookup_can_read(cat, run10):
    # the page resolver reads stored sources and the positive oracle positive
    # family sources, so the index keeps no other instance; a conflict on an
    # instance it drops is still refused
    window = run10.window
    kept = [src for insts in run10.rule_instances.values() for src in insts]
    assert all(window.stores(degree_of(cat, src)) or src.cone is Cone.POSITIVE and src.family
               for src in kept)
    every = [inst for rule in seed_rules(cat) for inst in rule.instances_in(cat, window)]
    assert len(kept) < len(every)
    clash = parse_rule_line(cat, "4k | Q/rho^{4k} h_1^{4k+1} | 0 | 2..2")
    src = clash.instance(cat, 2).source
    assert not window.stores(degree_of(cat, src)) and src not in run10.rule_instances.get(8, {})
    with pytest.raises(ConflictError, match="two rules disagree on Q/rho\\^8 h_1\\^9 at page 8"):
        index_rules(cat, window, seed_rules(cat) + [clash])
