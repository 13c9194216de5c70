"""Basis monomials for the positive cone, the gamma part and the Q part.

A monomial carries a cone tag, an optional generator-family reference with
parameter k, and exponents of rho, tau, h0, h1. Normalization happens in the
constructors: the relations h0*h1 = 0, tau * h_1^e = 0 for e >= 4, the height
truncations of the edge families, the identification h_0^2 h_2 = tau h_1^3
(and its P^k translates), and the collapse of the k = 0 member of the P^k h_1
family into a bare h1 power. Products that would need two distinct family
roots never occur in the wedge and raise instead of guessing.
``MonomialClass`` is a NamedTuple, so the dict keys, set members and sort
keys of every engine mechanism hash, compare and sort in C.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional

from .catalog import Catalog, CatalogError, Q_SHIFT
from .degrees import TriDegree


class Cone(enum.IntEnum):
    POSITIVE = 0
    GAMMA = 1
    Q = 2


class ProductError(ValueError):
    """A product left the representable monomial universe."""


class MonomialClass(NamedTuple):
    """A basis monomial as a NamedTuple: hashing, ``==`` and ``<`` are its field
    tuple's, in C, so the natural order is ``sort_key``'s."""

    cone: Cone
    family: str  # "" for none; field order realizes the basis ordering
    k: int
    rho: int
    tau: int
    h0: int
    h1: int

    def sort_key(self):
        return (int(self.cone), self.family, (self.k, self.rho, self.tau, self.h0, self.h1))

    def filtration(self) -> int:
        """Bockstein filtration: rho-exponent, negated on the divided cones."""
        return self.rho if self.cone is Cone.POSITIVE else -self.rho


# Internal singleton-ish helpers ------------------------------------------------


def degree_of(cat: Catalog, m: MonomialClass) -> TriDegree:
    """Tridegree of a basis monomial, summed in plain integers.

    The underlying part is h0^a h1^b times the family member; the prefix is
    rho^j tau^i on the positive cone, gamma/(rho^j tau^i) on the gamma part
    (``Catalog.gamma_degree``: (j, 0, i + j + 1)) and Q/rho^j on the Q part
    (``Q_SHIFT`` plus (j, 0, j)). The engine calls this more than anything
    else, so it builds exactly one TriDegree.
    """
    h0, h1 = cat.symbols["h_0"], cat.symbols["h_1"]
    s = m.h0 * h0.s + m.h1 * h1.s
    f = m.h0 * h0.f + m.h1 * h1.f
    w = m.h0 * h0.w + m.h1 * h1.w
    if m.family:
        fam = cat.families[m.family]
        k = m.k
        if k < 0:
            raise CatalogError(f"family parameter must be >= 0, got {k} for {fam.name}")
        s += fam.base.s + k * fam.period.s
        f += fam.base.f + k * fam.period.f
        w += fam.base.w + k * fam.period.w
    j = m.rho
    if m.cone is Cone.POSITIVE:
        rho, tau = cat.symbols["rho"], cat.symbols["tau"]
        i = m.tau
        return TriDegree(s + j * rho.s + i * tau.s, f + j * rho.f + i * tau.f,
                         w + j * rho.w + i * tau.w)
    if m.cone is Cone.GAMMA:
        return TriDegree(s + j, f, w + m.tau + j + 1)
    return TriDegree(s + Q_SHIFT.s + j, f + Q_SHIFT.f, w + Q_SHIFT.w + j)


def make_positive(
    cat: Catalog,
    rho: int = 0,
    tau: int = 0,
    h0: int = 0,
    h1: int = 0,
    family: str = "",
    k: int = 0,
) -> Optional[MonomialClass]:
    """Normalized positive-cone monomial, or None when the product is zero."""
    if min(rho, tau, h0, h1, k) < 0:
        return None
    if family == "h_1^{4+k}":
        family, k, h1 = "", 0, h1 + 4 + k
    if family == "P^k h_1" and k == 0:
        family, h1 = "", h1 + 1
    if family:
        fam = cat.families[family]
        if k < fam.k_min:
            raise ProductError(f"{family} parameter {k} below its basis range")
        h0h, h1h = fam.h0_height, fam.h1_height
        if h0 and h1:
            return None
        # the edge identification h_0^2 * (P^k h_2) = tau * P^k h_1^3
        if family == "P^k h_2" and h0 >= 2:
            if h0 > 2:
                return None  # h_0^3 h_2 = tau h_0 h_1^3 = 0
            return make_positive(cat, rho, tau + 1, 0, 2, "P^k h_1", k)
        if h0 > h0h or h1 > h1h:
            return None
        if tau and cat.families[family].tau_torsion:
            return None
        return MonomialClass(Cone.POSITIVE, family, k, rho, tau, h0, h1)
    if h0 and h1:
        return None
    if tau and h1 >= 4:
        return None  # tau-torsion h1 powers
    return MonomialClass(Cone.POSITIVE, "", 0, rho, tau, h0, h1)


def make_gamma(
    cat: Catalog,
    rho_div: int,
    tau_div: int,
    h0: int = 0,
    h1: int = 0,
    family: str = "",
    k: int = 0,
) -> Optional[MonomialClass]:
    """Normalized gamma-part monomial gamma/(rho^j tau^i) * x, or None.

    The underlying x must come out tau-free and tau-reduced; a tau-power
    produced by normalization (the h_0^2 h_2 rewrite) is absorbed into the
    denominator, which can annihilate the class.
    """
    if rho_div < 0 or tau_div < 1:
        return None
    x = make_positive(cat, 0, 0, h0, h1, family, k)
    if x is None:
        return None
    if x.tau:
        tau_div -= x.tau  # absorb: gamma/tau^i (tau x') = gamma/tau^(i-1) x'
        if tau_div < 1:
            return None
        x = x._replace(tau=0)
    if not x.family and x.h1 >= 4:
        return None  # tau-torsion classes do not feed the gamma part
    return MonomialClass(Cone.GAMMA, x.family, x.k, rho_div, tau_div, x.h0, x.h1)


def make_q(
    cat: Catalog, rho_div: int, family: str, k: int, h1: int = 0
) -> Optional[MonomialClass]:
    """Normalized Q-part monomial Q/rho^j * (torsion family member)."""
    if rho_div < 0 or k < 0:
        return None
    fam = cat.families[family]
    if not fam.tau_torsion:
        raise ProductError(f"Q classes exist only over tau-torsion families, not {family}")
    # fold h1 bumps into the tower parameter
    if h1:
        if fam.period != cat.symbols["h_1"]:
            raise ProductError(f"cannot fold h1 bump into {family}")
        k += h1
    return MonomialClass(Cone.Q, family, k, rho_div, 0, 0, 0)


def multiply(cat: Catalog, a: MonomialClass, b: MonomialClass) -> Optional[MonomialClass]:
    """Product of a positive monomial with any monomial; None when zero."""
    if a.cone is not Cone.POSITIVE:
        if b.cone is Cone.POSITIVE:
            return multiply(cat, b, a)
        raise ProductError("at most one factor may live in the negative cone")
    if b.cone is Cone.POSITIVE:
        if a.family and b.family:
            raise ProductError(
                f"product of two family monomials is outside the wedge: "
                f"{display(a)} * {display(b)}"
            )
        family = a.family or b.family
        k = a.k if a.family else b.k
        return make_positive(
            cat, a.rho + b.rho, a.tau + b.tau, a.h0 + b.h0, a.h1 + b.h1, family, k
        )
    if b.cone is Cone.GAMMA:
        if a.family and b.family:
            raise ProductError(
                f"product needs two family roots: {display(a)} * {display(b)}"
            )
        j = b.rho - a.rho
        if j < 0:
            return None
        i = b.tau - a.tau  # tau multiplication decrements the division depth
        return make_gamma(
            cat, j, i, b.h0 + a.h0, b.h1 + a.h1, a.family or b.family,
            a.k if a.family else b.k,
        )
    # Q part: rho decrements the division, tau acts as zero, h0 kills, h1 bumps
    if a.family:
        raise ProductError(f"family times Q class: {display(a)} * {display(b)}")
    if a.tau:
        return None
    if a.h0:
        return None
    j = b.rho - a.rho
    if j < 0:
        return None
    return make_q(cat, j, b.family, b.k, h1=a.h1)


#: the unit classes ``module_action`` multiplies by, one per generator
_GENERATORS = {
    "rho": MonomialClass(Cone.POSITIVE, "", 0, 1, 0, 0, 0),
    "tau": MonomialClass(Cone.POSITIVE, "", 0, 0, 1, 0, 0),
    "h_0": MonomialClass(Cone.POSITIVE, "", 0, 0, 0, 1, 0),
    "h_1": MonomialClass(Cone.POSITIVE, "", 0, 0, 0, 0, 1),
}


def module_action(cat: Catalog, gen: str, cls: MonomialClass) -> Optional[MonomialClass]:
    """Action of rho, tau, h_0 or h_1; None encodes zero."""
    u = _GENERATORS.get(gen)
    if u is None:
        raise ValueError(f"unknown generator {gen!r}")
    return multiply(cat, u, cls)


def display(m: MonomialClass) -> str:
    """Human-readable name, composing family roots with their bumps."""

    def power(sym: str, e: int) -> str:
        return "" if e == 0 else (sym if e == 1 else f"{sym}^{e}")

    def family_name(name: str, k: int, h0: int, h1: int) -> str:
        if name == "h_1^{4+k}":
            return f"h_1^{4 + k + h1}"
        toks = name.split()
        out: List[str] = []
        if toks[0] == "P^k":
            out.append(power("P", k))
            toks = toks[1:]
        merged: Dict[str, int] = {}
        for t in toks:
            sym, _, e = t.partition("^")
            merged[sym] = merged.get(sym, 0) + (int(e) if e else 1)
        merged["h_0"] = merged.get("h_0", 0) + h0
        merged["h_1"] = merged.get("h_1", 0) + h1
        for sym in ("h_0", "h_1", "h_2", "h_3", "c_0"):
            if merged.get(sym):
                out.append(power(sym, merged[sym]))
        return " ".join(x for x in out if x)

    if m.cone is Cone.POSITIVE:
        parts = [power("rho", m.rho), power("tau", m.tau)]
        if m.family:
            parts.append(family_name(m.family, m.k, m.h0, m.h1))
        else:
            parts.extend([power("h_0", m.h0), power("h_1", m.h1)])
        name = " ".join(p for p in parts if p)
        return name or "1"
    under = (
        family_name(m.family, m.k, m.h0, m.h1)
        if m.family
        else " ".join(p for p in (power("h_0", m.h0), power("h_1", m.h1)) if p)
    )
    if m.cone is Cone.GAMMA:
        denom_parts = [power("rho", m.rho), power("tau", m.tau)]
        denom = " ".join(p for p in denom_parts if p)
        head = f"gamma/({denom})" if m.rho else f"gamma/{power('tau', m.tau) or 'tau'}"
        return f"{head} {under}".strip()
    head = f"Q/{power('rho', m.rho)}" if m.rho else "Q"
    return f"{head} {under}".strip()
