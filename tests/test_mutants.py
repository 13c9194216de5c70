"""Mutant table: every closure mechanism and seeded rule, broken in turn.

Each row breaks one mechanism of the page resolver (by monkeypatching it) or
drops one seeded rule, runs the default stem-24 window, and names the checks
that must report a violation. A mutant that a named check misses fails the
test, and every row pins its closure-log count. Two rows name no check, so
the count is all that pins them:

- Dead-target vanishing is "certificate only": it only certifies zeros that
  the closure assumption would otherwise assign, so no page moves and no
  check can catch it.
- "positive towers decline" is a gap. Withholding the positive oracle's
  values from the positive movers moves 133 asserted page dimensions (106
  at stems -2 and -1, 27 in coweight-1 region degrees; stem -2, f = 1,
  coweight 0 goes from 1 to 2), yet the structural, census and Adams checks
  all pass and all five reports stay byte-identical. ROADMAP item 3's
  planned rho-localization test (the stem -2 column equals classical Ext at
  coweights 0 and 1) would catch it.

Not asserted, because it is a gap rather than wanted behaviour: under every
mutant the Adams check still passes, and the divisibility, fixed-points and
two-divisibility reports do not change, since each uncertified row falls
back to its closed form (ROADMAP item 2). Only the structural and census
checks see these faults today.
"""

import pytest

from blregion import bockstein
from blregion.bockstein import census_report, check_structural_constraints, run_bockstein
from blregion.degrees import Window
from blregion.monomials import Cone
from blregion.rules import SEED_LINES, parse_rule_line

CHECKS = {"structural": check_structural_constraints, "census": census_report}


def _declines(*_args):
    return bockstein._UNKNOWN


def _towers_decline(cone):
    """A ``_factor_tower`` that declines the rho-towers of one cone."""
    factor = bockstein.PageResolver._factor_tower

    def declining(self, base):
        return bockstein._UNKNOWN if base.cone is cone else factor(self, base)
    return declining


#: mutant -> (the PageResolver attribute it replaces and its stand-in, or
#: the seed line it drops), the checks that must catch it, and its
#: closure-log count at stem 24
MUTANTS = {
    "dead_target always False": (("dead_target", lambda self, m: False), (), 199),
    "_bump_parents empty": (("_bump_parents", lambda self, m: []), ("census",), 206),
    "_rho_lift declines": (("_rho_lift", _declines), ("structural", "census"), 171),
    "gamma towers decline": (("_factor_tower", _towers_decline(Cone.GAMMA)), ("census",), 3636),
    "positive towers decline": (("_factor_tower", _towers_decline(Cone.POSITIVE)), (), 226),
    "drop seed 3 | tau^3 P^{k} h_0^3 h_3": (SEED_LINES[0], ("census",), 184),
    "drop seed 3 | tau^3 P^{k} h_1 c_0": (SEED_LINES[1], ("census",), 173),
    "drop seed 4k-1 | Q/rho^{4k-1} ...": (SEED_LINES[2], ("structural", "census"), 94),
    "drop seed 4k | Q/rho^{4k} ...": (SEED_LINES[3], ("structural", "census"), 146),
}


def test_unmutated_run_passes_every_check(run24):
    assert len(run24.assumptions.entries) == 118
    for name, check in CHECKS.items():
        assert check(run24).ok, name


@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_is_caught(cat, monkeypatch, mutant):
    change, caught_by, log = MUTANTS[mutant]
    rules = None
    if isinstance(change, str):
        rules = [parse_rule_line(cat, line) for line in SEED_LINES if line != change]
        assert len(rules) == len(SEED_LINES) - 1
    else:
        monkeypatch.setattr(bockstein.PageResolver, *change)
    run = run_bockstein(cat, Window(max_stem=24), rules=rules)
    failed = {name for name, check in CHECKS.items() if not check(run).ok}
    assert failed >= set(caught_by), f"{mutant} escapes {set(caught_by) - failed}"
    assert len(run.assumptions.entries) == log
