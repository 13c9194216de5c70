"""Catalog of Adams-edge generator families, loaded from a text file.

The catalog drives everything else: family base degrees, tau-torsion flags,
h0/h1 multiplication heights, and declared permanent cycles. Degrees of the
atomic symbols (rho, tau, h_0, h_1, h_2, h_3, c_0, P) live in the same file
and are cross-checked at load time against the degree formulas of the known
differential families, so a mutated file cannot drift silently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .degrees import TriDegree

INF_HEIGHT = 10**9

#: Degree contribution of the torsion witness Q relative to its underlying
#: monomial (pinned by the consistency rows below).
Q_SHIFT = TriDegree(1, -1, 1)

SYMBOL_NAMES = ("rho", "tau", "h_0", "h_1", "h_2", "h_3", "c_0", "P")


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class GeneratorFamily:
    """One parameterized family: degree base + k*period, with heights.

    ``h0_height``/``h1_height`` count how many further h0/h1 multiples of a
    family member are nonzero basis monomials. ``perm_tau_prefix`` is the
    tau-power whose product with the family member is a declared permanent
    cycle (only meaningful when ``permanent_cycle`` is set); it equals the
    weight parity of the base, which normalizes the declared classes to even
    weight. ``k_min`` is the smallest parameter stored as a basis family:
    families whose factors are bare h0/h1 powers start at k = 1 because the
    k = 0 member is already a pure monomial.
    """

    name: str
    base: TriDegree
    period: TriDegree
    tau_torsion: bool
    h0_height: int
    h1_height: int
    permanent_cycle: bool
    perm_tau_prefix: int
    k_min: int

    def degree(self, k: int) -> TriDegree:
        if k < 0:
            raise CatalogError(f"family parameter must be >= 0, got {k} for {self.name}")
        return self.base + self.period.scale(k)


@dataclass(frozen=True)
class Catalog:
    symbols: Dict[str, TriDegree]
    families: Dict[str, GeneratorFamily]

    @property
    def rho(self) -> TriDegree:
        return self.symbols["rho"]

    @property
    def tau(self) -> TriDegree:
        return self.symbols["tau"]

    def gamma_degree(self, rho_div: int, tau_div: int) -> TriDegree:
        """Degree of gamma/(rho^j tau^i); gamma/tau sits in (0,0,2)."""
        base = TriDegree(0, 0, 2)
        per_tau = TriDegree(0, 0, 1)  # each extra tau-division
        per_rho = TriDegree(1, 0, 1)  # each rho-division
        return base + per_tau.scale(tau_div - 1) + per_rho.scale(rho_div)


_NAME_TOKEN = re.compile(
    r"^(?P<sym>h_\d|c_0|P|rho|tau)(?:\^(?:(?P<exp>\d+)|\{(?P<base>\d+)\+k\}))?$"
)


def parse_family_name(name: str) -> Tuple[bool, List[Tuple[str, int]], Optional[str]]:
    """Split a family name into (has P^k prefix, [(symbol, exponent)], tower symbol).

    Supports "P^k h_0 h_3" style names and parameterized-exponent towers
    like "h_1^{4+k}"; the tower symbol (if any) is returned separately.
    """
    tokens = name.split()
    has_p = False
    if tokens and tokens[0] == "P^k":
        has_p = True
        tokens = tokens[1:]
    factors: List[Tuple[str, int]] = []
    tower: Optional[str] = None
    for tok in tokens:
        m = _NAME_TOKEN.match(tok)
        if not m:
            raise CatalogError(f"cannot parse name token {tok!r} in {name!r}")
        sym = m.group("sym")
        if m.group("base") is not None:
            if tower is not None or has_p:
                raise CatalogError(f"unsupported parameterized name {name!r}")
            tower = sym
            factors.append((sym, int(m.group("base"))))
        else:
            factors.append((sym, int(m.group("exp") or 1)))
    return has_p, factors, tower


def _parse_height(text: str, what: str, line_no: int) -> int:
    if text == "-":
        return 0
    if text == "inf":
        return INF_HEIGHT
    try:
        return int(text)
    except ValueError:
        raise CatalogError(f"line {line_no}: bad {what} {text!r}") from None


# Degree formulas of the sources of the seeded family and Q-tower rules and of
# the eight coweight-1 differential families, used as load-time consistency
# checks; each row reads at least one family row of the catalog. Each entry:
# (element expression, first k, affine degree in k, builder) where the builder
# recomputes the element's degree from catalog data. Checked for four k from
# the first (0, or 1 where the formula starts at k = 1).
def _consistency_rows(cat: Catalog):
    g = cat.gamma_degree

    def fam(name, k):
        if name not in cat.families:
            raise CatalogError(f"missing family row {name!r}")
        return cat.families[name].degree(k)

    tau_deg, rho_deg = cat.tau, cat.rho
    h0, h1 = cat.symbols["h_0"], cat.symbols["h_1"]

    return [
        ("tau^3 P^k h_0^3 h_3", 0,
         lambda k: TriDegree(8 * k + 7, 4 * k + 4, 4 * k + 1),
         lambda k: tau_deg.scale(3) + fam("P^k h_0 h_3", k) + h0.scale(2)),
        ("tau^3 P^k h_1 c_0", 0,
         lambda k: TriDegree(8 * k + 9, 4 * k + 4, 4 * k + 3),
         lambda k: tau_deg.scale(3) + fam("P^k c_0", k) + h1),
        ("Q/rho^{4k-1} h_1^{4k}", 1,
         lambda k: TriDegree(8 * k, 4 * k - 1, 8 * k),
         lambda k: Q_SHIFT + fam("h_1^{4+k}", 4 * k - 4)
         + rho_deg.scale(-(4 * k - 1))),
        ("Q/rho^{4k} h_1^{4k+1}", 1,
         lambda k: TriDegree(8 * k + 2, 4 * k, 8 * k + 2),
         lambda k: Q_SHIFT + fam("h_1^{4+k}", 4 * k - 3) + rho_deg.scale(-4 * k)),
        ("gamma/(rho^2 tau^{4k-2}) P^k h_1", 1,
         lambda k: TriDegree(8 * k + 3, 4 * k + 1, 8 * k + 2),
         lambda k: g(2, 4 * k - 2) + fam("P^k h_1", k)),
        ("gamma/(rho tau^{4k-1}) P^k h_2", 1,
         lambda k: TriDegree(8 * k + 4, 4 * k + 1, 8 * k + 3),
         lambda k: g(1, 4 * k - 1) + fam("P^k h_2", k)),
        ("gamma/(rho tau^{4k-1}) P^k h_0 h_2", 1,
         lambda k: TriDegree(8 * k + 4, 4 * k + 2, 8 * k + 3),
         lambda k: g(1, 4 * k - 1) + fam("P^k h_2", k) + h0),
        ("gamma/(rho tau^{4k+1}) P^k h_0 h_3", 0,
         lambda k: TriDegree(8 * k + 8, 4 * k + 2, 8 * k + 7),
         lambda k: g(1, 4 * k + 1) + fam("P^k h_0 h_3", k)),
        ("gamma/(rho tau^{4k+1}) P^k h_0^2 h_3", 0,
         lambda k: TriDegree(8 * k + 8, 4 * k + 3, 8 * k + 7),
         lambda k: g(1, 4 * k + 1) + fam("P^k h_0 h_3", k) + h0),
        ("gamma/(rho^2 tau^{4k+1}) P^k c_0", 0,
         lambda k: TriDegree(8 * k + 10, 4 * k + 3, 8 * k + 9),
         lambda k: g(2, 4 * k + 1) + fam("P^k c_0", k)),
        ("gamma/(rho^3 tau^{4k+1}) P^k h_0^3 h_3", 0,
         lambda k: TriDegree(8 * k + 10, 4 * k + 4, 8 * k + 9),
         lambda k: g(3, 4 * k + 1) + fam("P^k h_0 h_3", k) + h0.scale(2)),
        ("gamma/(rho^3 tau^{4k+1}) P^k h_1 c_0", 0,
         lambda k: TriDegree(8 * k + 12, 4 * k + 4, 8 * k + 11),
         lambda k: g(3, 4 * k + 1) + fam("P^k c_0", k) + h1),
    ]


def validate(cat: Catalog) -> None:
    """Degree and flag consistency of a parsed catalog; raises CatalogError."""
    for sym in SYMBOL_NAMES:
        if sym not in cat.symbols:
            raise CatalogError(f"missing symbol row {sym!r}")
    p_deg = cat.symbols["P"]

    for fam in cat.families.values():
        has_p, factors, tower = parse_family_name(fam.name)
        expected = TriDegree(0, 0, 0)
        for sym, exp in factors:  # the tower symbol is one of the factors
            if sym not in cat.symbols:
                raise CatalogError(f"family {fam.name!r} uses undeclared symbol {sym!r}")
            expected = expected + cat.symbols[sym].scale(exp)
        if expected != fam.base:
            raise CatalogError(
                f"family {fam.name!r}: declared base {fam.base} does not match "
                f"the degree {expected} of its factors"
            )
        expected_period = p_deg if has_p else (
            cat.symbols[tower] if tower else TriDegree(0, 0, 0)
        )
        if fam.period != expected_period:
            raise CatalogError(
                f"family {fam.name!r}: period {fam.period} should be {expected_period}"
            )
        if fam.tau_torsion and fam.base.coweight != 0:
            raise CatalogError(
                f"family {fam.name!r}: tau-torsion families must start in coweight 0"
            )

    torsion = sorted(f.name for f in cat.families.values() if f.tau_torsion)
    if torsion != ["h_1^{4+k}"]:
        raise CatalogError(
            f"tau-torsion flags must single out the h_1 power tower, got {torsion}"
        )

    for expr, k_lo, formula, builder in _consistency_rows(cat):
        for k in range(k_lo, k_lo + 4):
            want, got = formula(k), builder(k)
            if want != got:
                raise CatalogError(
                    f"degree consistency: {expr} should sit in {want} at k={k}, "
                    f"catalog places it in {got}"
                )


def load_catalog(path=None) -> Catalog:
    """Parse and validate a catalog file; defaults to the shipped catalog."""
    if path is None:
        text = (
            resources.files("blregion").joinpath("data/catalog.txt").read_text("utf-8")
        )
    else:
        with open(path, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise CatalogError(f"{path}: not UTF-8 ({exc.reason})") from None
    symbols: Dict[str, TriDegree] = {}
    families: Dict[str, GeneratorFamily] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 6:
            raise CatalogError(f"line {line_no}: expected 6 fields, got {len(parts)}")
        name, deg_text, torsion_text, h0_text, h1_text, perm_text = parts
        try:
            s, f, w = (int(x) for x in deg_text.split())
        except ValueError:
            raise CatalogError(f"line {line_no}: bad degree {deg_text!r}") from None
        if f < 0:
            raise CatalogError(f"line {line_no}: negative filtration in {name!r}")
        base = TriDegree(s, f, w)
        if name in SYMBOL_NAMES:
            symbols[name] = base
            continue
        has_p, factors, tower = parse_family_name(name)
        if not has_p and tower is None:
            raise CatalogError(
                f"line {line_no}: {name!r} is neither a symbol nor a parameterized family"
            )
        tau_torsion = torsion_text == "1"
        h0_height = _parse_height(h0_text, "h0_height", line_no)
        h1_height = _parse_height(h1_text, "h1_height", line_no)
        permanent = perm_text == "1"
        for sym in [sym for sym, _ in factors] + (["P"] if has_p else []):
            if sym not in symbols:
                raise CatalogError(f"line {line_no}: {name!r} uses {sym!r}, "
                                   "which no row above it declares")
        period = symbols["P"] if has_p else symbols[tower]
        pure = all(sym in ("h_0", "h_1") for sym, _ in factors)
        k_min = 1 if (has_p and pure) else 0
        families[name] = GeneratorFamily(
            name=name,
            base=base,
            period=period,
            tau_torsion=tau_torsion,
            h0_height=h0_height,
            h1_height=h1_height,
            permanent_cycle=permanent,
            perm_tau_prefix=(base.w % 2) if permanent else 0,
            k_min=k_min,
        )
    cat = Catalog(symbols=symbols, families=families)
    validate(cat)
    return cat
