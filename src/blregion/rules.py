"""Differential rules and the monomial/rule expression syntax.

Every rule is one line of text, ``page | source | target | k_min[..k_max]``,
with k standing for the family parameter. ``SEED_LINES`` holds the four
seeds: the two page-3 differentials off the tau^3-prefixed edge families and
the two Q-tower differentials. An override file (``--rules-override``) holds
more lines in the same syntax, and ``parse_rule_line`` parses and checks
seeds and overrides alike. The tau-power differentials and their
negative-cone companions are not rules: ``bockstein`` states them in closed
form (``tau_power_d``, ``pure_gamma_d``). Everything else the engine knows is
closure: Leibniz products, rho-tower transfer and dead-target vanishing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .catalog import Catalog
from .degrees import DIFFERENTIAL_SHIFT, Window
from .monomials import (
    MonomialClass,
    degree_of,
    display,
    make_gamma,
    make_positive,
    make_q,
)


@dataclass(frozen=True)
class RuleInstance:
    page: int
    source: MonomialClass
    target: Optional[MonomialClass]  # None encodes a declared-zero differential


@dataclass(frozen=True)
class DifferentialRule:
    """A k-parameterized source -> target rewrite, held as the texts of its
    rule line (``label``). A pass over k tokenizes each text once and then
    evaluates each k in integers."""

    label: str
    page: str
    source: str
    target: str
    k_min: int
    k_max: Optional[int]

    def instance(self, cat: Catalog, k: int) -> Optional[RuleInstance]:
        return next(self._instances(cat, k, k + 1), None)

    def instances_in(self, cat: Catalog, window: Window) -> Iterator[RuleInstance]:
        """Every instance from ``k_min`` on, whether or not the window stores
        its source, up to a k bound that grows with the window."""
        return self._instances(cat, self.k_min,
                               self.k_min + window.stored_max_stem + window.max_f + 16)

    def _instances(self, cat: Catalog, lo: int, hi: int) -> Iterator[RuleInstance]:
        """The instances at k in [lo, hi) and the k range, up to the first zero
        source, which ``parse_rule_line`` reports before a bad target."""
        hi = hi if self.k_max is None else min(hi, self.k_max + 1)
        (a, b), source, target = _linear(self.page), _tokenize(self.source), None
        for k in range(max(lo, self.k_min), hi):
            src = _monomial_at(cat, source, k)
            if src is None:
                return
            target = target or _tokenize(self.target)
            yield RuleInstance(a * k + b, src, _monomial_at(cat, target, k))


# The seeded rules: the two page-3 differentials off the tau^3-prefixed edge
# families and the two Q-tower truncations, in the override-file syntax.
SEED_LINES = (
    "3 | tau^3 P^{k} h_0^3 h_3 | rho^3 tau P^{k+1} h_1 | 0",
    "3 | tau^3 P^{k} h_1 c_0 | rho^3 P^{k+1} h_2 | 0",
    "4k-1 | Q/rho^{4k-1} h_1^{4k} | gamma/tau^{4k-1} P^{k-1} h_0^3 h_3 | 1",
    "4k | Q/rho^{4k} h_1^{4k+1} | gamma/tau^{4k} P^{k} h_1 | 1",
)


def seed_rules(cat: Catalog) -> List[DifferentialRule]:
    """The seeded rule list, ``SEED_LINES`` parsed and checked like an
    override file. The tau-power differentials and their gamma companions
    are stated once, in closed form, in ``bockstein``; every other
    differential is inferred closure."""
    return [parse_rule_line(cat, line) for line in SEED_LINES]


# --- monomial and rule expression parsing (seeds, override files, tests) --------

_LINEAR = re.compile(r"^(?:(?P<coef>\d*)k)?(?P<sign>[+-])?(?P<const>\d+)?$")

Linear = Tuple[int, int]  # (a, b) stands for the exponent a * k + b


def _linear(text: str) -> Linear:
    """Tokenize an exponent expression like '3', 'k', '2k+1', '4k-1'."""
    t = text.strip().replace(" ", "")
    m = _LINEAR.match(t)
    if not m or (m.group("coef") is None and m.group("const") is None and "k" not in t):
        raise ValueError(f"cannot parse linear expression {text!r}")
    coef = 0
    if "k" in t:
        coef = int(m.group("coef")) if m.group("coef") else 1
    const = int(m.group("const")) if m.group("const") else 0
    if m.group("sign") == "-":
        const = -const
    return coef, const


_FACTOR = re.compile(r"(rho|tau|h_\d|c_0|P)(?:\^(?:(\d+)|\{([^}]*)\}))?")


def _factors(text: str) -> Dict[str, Linear]:
    """The exponent of each symbol of a product like 'rho tau^{2k} h_0'."""
    exps: Dict[str, Linear] = {}
    pos = 0
    for m in _FACTOR.finditer(text):
        if text[pos:m.start()].strip():
            raise ValueError(f"cannot parse {text!r} near {text[pos:m.start()]!r}")
        pos = m.end()
        exp = m.group(2) if m.group(2) is not None else m.group(3)
        a, b = _linear(exp) if exp is not None else (0, 1)
        a0, b0 = exps.get(m.group(1), (0, 0))
        exps[m.group(1)] = (a0 + a, b0 + b)
    if text[pos:].strip():
        raise ValueError(f"cannot parse {text!r} near {text[pos:]!r}")
    return exps


def _resolve_family(cat: Catalog, exps: Dict[str, int]) -> Tuple[str, int, int, int]:
    """Map symbol exponents to (family, k, h0_bump, h1_bump)."""
    p = exps.pop("P", 0)
    h0 = exps.pop("h_0", 0)
    h1 = exps.pop("h_1", 0)
    h2 = exps.pop("h_2", 0)
    h3 = exps.pop("h_3", 0)
    c0 = exps.pop("c_0", 0)
    if exps:
        raise ValueError(f"unknown symbols {sorted(exps)}")
    if h3:
        if h3 != 1 or h0 < 1 or h1 or c0 or h2:
            raise ValueError("unsupported h_3 monomial")
        return "P^k h_0 h_3", p, h0 - 1, 0
    if h2:
        if h2 != 1 or h1 or c0:
            raise ValueError("unsupported h_2 monomial")
        return "P^k h_2", p, h0, 0
    if c0:
        if c0 != 1 or h0:
            raise ValueError("unsupported c_0 monomial")
        return "P^k c_0", p, 0, h1
    if p:
        if h1 < 1 or h0:
            raise ValueError("unsupported P monomial")
        return "P^k h_1", p, 0, h1 - 1
    return "", 0, h0, h1


def _tokenize(text: str) -> Tuple[str, str, Dict[str, Linear], Dict[str, Linear]]:
    """A monomial expression as its text, head ("0", "Q", "gamma", or "" for the
    positive cone), rho^j tau^i prefix (a divisor under gamma and Q) and factors."""
    text = text.strip()
    head, div, rest, allowed = "", "", text, set()
    if text in ("0", "1"):
        head, rest = ("0" if text == "0" else ""), ""
    elif text.startswith("Q"):
        head, rest, allowed = "Q", text[1:].strip(), {"rho"}
        if rest.startswith("/"):
            div, _, rest = rest[1:].partition(" ")
    elif text.startswith("gamma/"):
        head, rest, allowed = "gamma", text[len("gamma/"):], {"rho", "tau"}
        div, _, rest = rest[1:].partition(")") if rest.startswith("(") else rest.partition(" ")
    prefix = _factors(div)
    if set(prefix) - allowed:
        raise ValueError(f"bad {head} divisor in {text!r}")
    factors = _factors(rest)
    if not head:
        prefix = {s: factors.pop(s) for s in ("rho", "tau") if s in factors}
    return text, head, prefix, factors


def _monomial_at(cat: Catalog, form: tuple, k: int) -> Optional[MonomialClass]:
    text, head, prefix, factors = form
    if head == "0":
        return None
    p, exps = ({sym: a * k + b for sym, (a, b) in e.items()} for e in (prefix, factors))
    j, i = p.get("rho", 0), p.get("tau", 0)
    if head == "Q":
        h1 = exps.pop("h_1", 0)
        if exps or h1 < 4:
            raise ValueError(f"bad Q class {text!r}")
        return make_q(cat, j, "h_1^{4+k}", h1 - 4)
    fam, fk, h0, h1 = _resolve_family(cat, exps)
    return (make_gamma if head else make_positive)(cat, j, i, h0, h1, fam, fk)


def parse_monomial(cat: Catalog, text: str, k: int = 0) -> Optional[MonomialClass]:
    """Parse an expression like 'tau^3 P^{k} h_0^3 h_3', 'gamma/(rho^2 tau^{4k+2}) P^k h_1',
    'Q/rho^{4k} h_1^{4k+1}', '1' or '0' at a concrete parameter value k."""
    return _monomial_at(cat, _tokenize(text), k)


def parse_rule_line(cat: Catalog, line: str) -> DifferentialRule:
    """Parse ``page | source | target | k_min[..k_max]`` into a rule.

    The rule is evaluated at its ``k_min`` here, so a malformed page, a page
    below 1, a malformed or zero source, a malformed target, or a target
    outside the source's degree plus ``DIFFERENTIAL_SHIFT``, raises
    ValueError. A zero source would end ``instances_in`` at once and drop
    the rule unseen. The page never falls as k grows, because an exponent
    expression has no negative coefficient of k."""
    parts = [p.strip() for p in line.split("|")]
    if len(parts) not in (3, 4):
        raise ValueError(f"rule line needs 3 or 4 fields: {line!r}")
    k_min, k_max = 0, None
    if len(parts) == 4 and parts[3]:
        lo, _, hi = parts[3].partition("..")
        k_min = int(lo)
        k_max = int(hi) if hi else None
        if k_max is not None and k_max < k_min:
            raise ValueError(f"empty k range {parts[3]!r} in rule line {line!r}")
    line = line.strip()
    rule = DifferentialRule(line, *parts[:3], k_min=k_min, k_max=k_max)
    a, b = _linear(rule.page)
    if a * k_min + b < 1:
        raise ValueError(f"page below 1 in rule line {line!r}")
    inst = rule.instance(cat, k_min)
    if inst is None:
        raise ValueError(f"source is zero at k = {k_min} in rule line {line!r}")
    if inst.target is not None:
        want = degree_of(cat, inst.source) + DIFFERENTIAL_SHIFT
        got = degree_of(cat, inst.target)
        if got != want:
            raise ValueError(
                f"target {display(inst.target)} of rule {line!r} lies in {got}, "
                f"not in {want} (the degree of {display(inst.source)} plus "
                f"{DIFFERENTIAL_SHIFT})"
            )
    return rule


def load_rule_overrides(cat: Catalog, path) -> List[DifferentialRule]:
    """Read an override file: one rule line each, ``#`` starts a comment.
    Each line is parsed and checked by ``parse_rule_line``."""
    with open(path, encoding="utf-8") as fh:
        lines = [raw.split("#", 1)[0].strip() for raw in fh]
    return [parse_rule_line(cat, line) for line in lines if line]
