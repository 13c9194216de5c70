from dataclasses import replace

import pytest

from blregion.catalog import Catalog, CatalogError, load_catalog, validate
from blregion.degrees import TriDegree


def test_shipped_catalog_loads(cat):
    assert set(cat.symbols) >= {"rho", "tau", "h_0", "h_1", "h_2", "h_3", "c_0", "P"}
    # the degree of h_1 is pinned by the torsion-tower degree formulas
    assert cat.families["P^k h_1"].base == TriDegree(1, 1, 1)
    assert cat.tau == TriDegree(0, 0, -1)
    assert cat.rho == TriDegree(-1, 0, -1)


def test_family_degree_periodicity(cat):
    for fam in cat.families.values():
        for k in range(fam.k_min, fam.k_min + 4):
            step = fam.degree(k + 1) + fam.degree(k).scale(-1)
            assert step == fam.period
    p_fams = [f for f in cat.families.values() if f.name.startswith("P^k")]
    assert all(f.period == TriDegree(8, 4, 4) for f in p_fams)


def test_family_degree_examples(cat):
    # tau^3 P^k h_0^3 h_3 at k=0 sits in (7,4,1)
    f = cat.families["P^k h_0 h_3"]
    d = cat.tau.scale(3) + f.degree(0) + cat.symbols["h_0"].scale(2)
    assert d == TriDegree(7, 4, 1)
    assert cat.families["P^k h_1"].degree(1) == TriDegree(9, 5, 5)
    assert cat.families["P^k h_2"].degree(1) == TriDegree(11, 5, 6)


def test_torsion_flag_is_the_h1_tower(cat):
    torsion = [f.name for f in cat.families.values() if f.tau_torsion]
    assert torsion == ["h_1^{4+k}"]
    assert cat.families["h_1^{4+k}"].base == TriDegree(4, 4, 4)


def test_permanent_flags(cat):
    perm = sorted(f.name for f in cat.families.values() if f.permanent_cycle)
    assert perm == ["P^k c_0", "P^k h_1", "P^k h_2"]
    assert cat.families["P^k h_1"].perm_tau_prefix == 1
    assert cat.families["P^k h_2"].perm_tau_prefix == 0
    assert cat.families["P^k c_0"].perm_tau_prefix == 1


def _write_catalog(tmp_path, mutate=None):
    from importlib import resources

    text = resources.files("blregion").joinpath("data/catalog.txt").read_text("utf-8")
    if mutate:
        text = mutate(text)
    path = tmp_path / "catalog.txt"
    path.write_text(text, encoding="utf-8")
    return path


def test_roundtrip_from_file(tmp_path, cat):
    path = _write_catalog(tmp_path)
    again = load_catalog(path)
    assert again.families.keys() == cat.families.keys()


def test_mutated_h3_degree_rejected(tmp_path):
    # shifting h_3 moves tau^3 P^k h_0^3 h_3 off its pinned degree formula
    path = _write_catalog(
        tmp_path, lambda t: t.replace("h_3  |  7 1  4", "h_3  |  7 1  5")
    )
    with pytest.raises(CatalogError, match="h_0 h_3"):
        load_catalog(path)


def test_mutated_family_base_rejected(tmp_path):
    path = _write_catalog(
        tmp_path, lambda t: t.replace("P^k h_2     | 3 1 2", "P^k h_2     | 3 1 3")
    )
    with pytest.raises(CatalogError, match="P\\^k h_2"):
        load_catalog(path)


def test_parse_error_reports_line(tmp_path):
    path = _write_catalog(tmp_path, lambda t: t + "\nbroken row | 1 2\n")
    with pytest.raises(CatalogError, match="line"):
        load_catalog(path)


def test_negative_parameter_rejected(cat):
    with pytest.raises(CatalogError):
        cat.families["P^k h_1"].degree(-1)


def test_undeclared_symbol_in_code_built_catalog_rejected(cat):
    # load_catalog refuses an undeclared symbol line by line; a Catalog built
    # in code reaches validate, which must name the family and the symbol
    fam = replace(cat.families["P^k h_2"], name="P^k h_9")
    built = Catalog(symbols=dict(cat.symbols), families={**cat.families, fam.name: fam})
    with pytest.raises(CatalogError, match=r"P\^k h_9.*'h_9'"):
        validate(built)
