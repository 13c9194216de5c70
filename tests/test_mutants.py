"""Mutant table: every closure mechanism and seeded rule is caught when it breaks.

Each row breaks one mechanism of the page resolver (by monkeypatching it) or
drops one seeded rule, runs the default stem-24 window, and names the checks
that must report a violation. A mutant that no named check catches fails
the test. Dead-target vanishing is the one "certificate only" row: it only
certifies zeros that the closure assumption would otherwise assign, so no
page moves and no check can catch it; its row pins the closure-log count
instead.

Measured at stem 24 (closure-log entries per mutant): none 118, dead-target
199, ``_bump_parents`` 206, ``_rho_lift`` 171, ``_resolve_gamma`` 3,636, the
four seeds dropped in turn 184, 173, 94 and 146.

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
from blregion.rules import SEED_LINES, parse_rule_line

CHECKS = {"structural": check_structural_constraints, "census": census_report}


def _declines(*_args):
    return bockstein._UNKNOWN


#: mutant -> (the PageResolver attribute it replaces and its stand-in, or
#: the seed line it drops), the checks that must catch it, and the pinned
#: closure-log count of a certificate-only row
MUTANTS = {
    "dead_target always False": (("dead_target", lambda self, m: False), (), 199),
    "_bump_parents empty": (("_bump_parents", lambda self, m: []), ("census",), None),
    "_rho_lift declines": (("_rho_lift", _declines), ("structural", "census"), None),
    "_resolve_gamma declines": (("_resolve_gamma", _declines), ("census",), None),
    "drop seed 3 | tau^3 P^{k} h_0^3 h_3": (SEED_LINES[0], ("census",), None),
    "drop seed 3 | tau^3 P^{k} h_1 c_0": (SEED_LINES[1], ("census",), None),
    "drop seed 4k-1 | Q/rho^{4k-1} ...": (SEED_LINES[2], ("structural", "census"), None),
    "drop seed 4k | Q/rho^{4k} ...": (SEED_LINES[3], ("structural", "census"), None),
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
    if not caught_by:
        # certificate only: no check can see it, so its log count pins it
        assert len(run.assumptions.entries) == log
    else:
        assert failed >= set(caught_by), f"{mutant} escapes {set(caught_by) - failed}"
