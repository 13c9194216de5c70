"""Output bytes pinned to SHA-256 digests.

The five reports, the einf and e2 charts in SVG and TikZ at stems 24 and 40,
the ko chart in both formats, and the structural, census and Adams check
reports with their violations, warnings and notes. A
change that moves no answer keeps every digest; one that does move an answer
updates the digests it moves, in the open.
"""

import hashlib
import json

import pytest

from blregion.adams import adams_no_differentials, install_hidden_rho_extensions
from blregion.bockstein import census_report, check_structural_constraints
from blregion.charts import chart_from_page, ko_chart, render
from blregion.cli import REPORT_KINDS, report_tables

#: the divisibility, fixed-point, 2-divisibility and Mahowald reports read
#: the same at both stems: stem 24 already certifies their fixed k ranges;
#: "census-check" is the census check report, "census" the census report table
PINNED = {
    24: {
        "structural": "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
        "census-check": "7ce65699d22481a1396b3529b6b2e11f8850f584b43bba44dccb722e085b0f09",
        "adams": "c44f7d8761a25510e61ff47448e1e16c2a6a9c506f3dbc84d2042c733b91ee25",
        "divisibility": "4fd18afc3049eac690b664305958f9f3871dab430d3dd6d89d109c0e3718708b",
        "fixed-points": "a1a733e1040e706c434e795522e8a59814a61616a780b60124fd7fdfdc5651f1",
        "two-divisibility": "af8de53ede4d2280f0524936ea112aba2e900f4b82dfe7fb29ca60c1be4c39b7",
        "mahowald": "b5dde62f676b359a6264981505a3b2974fc9d8db37a1ee4597ae1cdb093fa54f",
        "census": "55e58d050b2bb6360e9b4b861a3d0531c31b37f86e389789f3507894fcfce07e",
        "einf.svg": "641f5471ff3d3cec17c11183bc51efba086d36061ee6013a619029c34bf2da74",
        "einf.tikz": "7cb2a7033da349e86fe87bf6daeab448ac47bfcc75221b4b41ee67831ec51089",
        "e2.svg": "55ab045c9e7663de7cec68b3cf52abe0db94536982640244a1ab6a49d2e5cb6d",
        "e2.tikz": "e69542f012538d5588c2c6ab86d29c07a00c52fd8e33eabac5117fcf8fb46ee8",
    },
    40: {
        "structural": "f865256c77f3fc9fb80d7c6a2cdc9716f594a132d8ed568eff51d23dc252eb20",
        "census-check": "1ed2f1f2b43a64d00256858ad9cd87ce68df989e935c43e70d84cb1aab0d88f0",
        "adams": "a3774ec4fa86766af6f866c2ad71618892acbc2ed4ffeb41c912dbedfb8d7f72",
        "divisibility": "4fd18afc3049eac690b664305958f9f3871dab430d3dd6d89d109c0e3718708b",
        "fixed-points": "a1a733e1040e706c434e795522e8a59814a61616a780b60124fd7fdfdc5651f1",
        "two-divisibility": "af8de53ede4d2280f0524936ea112aba2e900f4b82dfe7fb29ca60c1be4c39b7",
        "mahowald": "b5dde62f676b359a6264981505a3b2974fc9d8db37a1ee4597ae1cdb093fa54f",
        "census": "a848d1e5d606c88d6495f3d1b50e8d044ec51c8ce01facf4af0391c3edf945f3",
        "einf.svg": "1c857f51fb6a68bffb8623933029c06a30ef6b0dd0177efe5feb3f9fdd8a089b",
        "einf.tikz": "328357b328b42ea93b6ed345d41a6c123599509b5cf00f5ce1a005bb8012a589",
        "e2.svg": "183b63ccc4390424377535bf4154a7be38cd3242d5826fa658bf105029fe4975",
        "e2.tikz": "bbc5612e2b37245238e15bcb64bb33a58343f5d08817756c1489435f3799b7a7",
    },
}
PINNED_KO = {
    "svg": "93a19a0fed8ed0d2a7412ae681058b5634fb9484b8f61f8dbc80e82075fc548e",
    "tikz": "c1ee3e82dff0bd58395082c0351441fd483b10bcfea889c5d539be189aefb258",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(run):
    """Name -> bytes of every pinned output of one run."""
    out = {}
    for name, check in (("structural", check_structural_constraints),
                        ("census-check", census_report), ("adams", adams_no_differentials)):
        rep = check(run)
        out[name] = json.dumps([rep.violations, rep.warnings, rep.notes]).encode()
    page = install_hidden_rho_extensions(run)
    for kind in REPORT_KINDS:
        out[kind] = report_tables(page, kind).encode()
    for kind in ("einf", "e2"):
        doc = chart_from_page(page if kind == "einf" else run, kind)
        for fmt in ("svg", "tikz"):
            out[f"{kind}.{fmt}"] = render(doc, fmt)
    return out


@pytest.mark.parametrize("stem", sorted(PINNED))
def test_outputs_equal_pinned_digests(request, stem):
    run = request.getfixturevalue(f"run{stem}")
    got = {name: _sha(data) for name, data in _outputs(run).items()}
    assert got == PINNED[stem]


def test_ko_chart_equals_pinned_digests():
    doc = ko_chart()
    assert {fmt: _sha(render(doc, fmt)) for fmt in PINNED_KO} == PINNED_KO
