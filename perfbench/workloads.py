"""Workload definitions, operations and output digests shared by the scripts.

Nothing here runs at import time except locating the checkout.  Callers put
`SRC` on `sys.path` (see `use_source_tree`) before calling anything that
imports blregion.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import pstats
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("engine-s40", "sweep-s8-24", "derive-s40")

#: What the `blregion` console script runs, for `python3 -c`.
CLI_CODE = "import sys; from blregion.cli import main; sys.exit(main())"
#: The end-to-end CLI command of engine-s40, minus `--out <file>`.
ENGINE_ARGS = ["--report", "divisibility", "--chart", "einf", "--format", "svg",
               "--max-stem", "40"]
#: Stems x coweight ranges of sweep-s8-24.  The deep range -6..1 enlarges the
#: gamma and Q part of E1; stem 8 is where the Mahowald report refuses.
SWEEP_WINDOWS = [(stem, lo, hi) for stem in (8, 12, 16, 20, 24) for lo, hi in ((-2, 1), (-6, 1))]
DERIVE_STEM = 40
REPORT_KINDS = ("divisibility", "fixed-points", "two-divisibility", "mahowald", "census")
CHART_KINDS = ("einf", "e2")
CHART_FORMATS = ("svg", "tikz")


def use_source_tree() -> None:
    """Import blregion from the checkout's `src`, or exit 2 if it is not there."""
    if not (SRC / "blregion" / "__init__.py").is_file():
        print(f"perfbench: no blregion sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def window_key(stem: int, lo: int, hi: int) -> str:
    return f"s{stem}_cw{lo}..{hi}"


def sweep_order(seed: int):
    """The sweep's windows in the order the workload seed picks."""
    order = list(SWEEP_WINDOWS)
    random.Random(seed).shuffle(order)
    return order


def derive_steps(rng: random.Random):
    """The report and chart steps of one derive-s40 operation, in shuffled order."""
    steps = [("report", k) for k in REPORT_KINDS] + [("chart", k) for k in CHART_KINDS]
    rng.shuffle(steps)
    return steps


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def page_digest(run) -> str:
    """SHA-256 of the final page dimensions and the nonzero differential tables."""
    from blregion.monomials import display

    lines = []
    for d in sorted(run.states):
        dim = run.dimension(d)
        if dim:
            lines.append(f"dim {d.s} {d.f} {d.w} {dim}")
    for r in sorted(run.differentials):
        for m in sorted(run.differentials[r], key=lambda x: x.sort_key()):
            lines.append(f"d{r} {display(m)} = {run.differentials[r][m].describe()}")
    return sha("\n".join(lines))


def report_digest(rep) -> str:
    return sha(json.dumps([rep.violations, rep.warnings]))


def refusal(exc: Exception) -> dict:
    return {"refused": type(exc).__name__}


# --- operations: each returns raw outputs; `*_outcome` digests them untimed ---


def sweep_op(cat, stem: int, lo: int, hi: int, span) -> dict:
    """One sweep-s8-24 operation: run one window, check it, derive all reports."""
    from blregion import (Window, adams_no_differentials, census_report,
                          check_structural_constraints, install_hidden_rho_extensions,
                          run_bockstein)
    from blregion.adams import AmbiguityError
    from blregion.cli import report_tables

    window = Window(max_stem=stem, min_coweight=lo, max_coweight=hi)
    with span("bockstein.run"):
        run = run_bockstein(cat, window)
    with span("bockstein.checks"):
        structural = check_structural_constraints(run)
    with span("bockstein.checks"):
        census = census_report(run)
    with span("adams.no_diff"):
        adams = adams_no_differentials(run)
    with span("adams.hidden"):
        page = install_hidden_rho_extensions(run)
    reports = {}
    for kind in REPORT_KINDS:
        try:
            with span("adams.reports"):
                reports[kind] = report_tables(page, kind)
        except AmbiguityError as exc:
            reports[kind] = refusal(exc)
    return {"run": run, "checks": (structural, census, adams), "reports": reports}


def sweep_outcome(raw: dict) -> dict:
    structural, census, adams = raw["checks"]
    return {
        "page": page_digest(raw["run"]),
        "checks": {"structural": report_digest(structural), "census": report_digest(census),
                   "adams": report_digest(adams)},
        "reports": {k: v if isinstance(v, dict) else sha(v) for k, v in raw["reports"].items()},
    }


def derive_op(run, steps, span) -> dict:
    """One derive-s40 operation on a finished run: extensions, reports, charts."""
    from blregion import chart_from_page, install_hidden_rho_extensions, render
    from blregion.adams import AmbiguityError
    from blregion.cli import report_tables

    with span("adams.hidden"):
        page = install_hidden_rho_extensions(run)
    reports, charts = {}, {}
    for what, kind in steps:
        if what == "report":
            try:
                with span("adams.reports"):
                    reports[kind] = report_tables(page, kind)
            except AmbiguityError as exc:
                reports[kind] = refusal(exc)
        else:
            with span("charts.build"):
                doc = chart_from_page(page if kind == "einf" else run, kind)
            for fmt in CHART_FORMATS:
                with span("charts.render"):
                    charts[f"{kind}.{fmt}"] = render(doc, fmt)
    return {"reports": reports, "charts": charts}


def derive_outcome(raw: dict) -> dict:
    return {
        "reports": {k: v if isinstance(v, dict) else sha(v)
                    for k, v in sorted(raw["reports"].items())},
        "charts": {k: sha(v) for k, v in sorted(raw["charts"].items())},
    }


# --- counted run ---------------------------------------------------------------

#: (file name, function name) -> metric.  The enumerators sum into one metric.
COUNTED = {
    ("monomials.py", "degree_of"): "monomials.degree_of_calls",
    ("monomials.py", "multiply"): "monomials.multiply_calls",
    ("gf2.py", "rref"): "gf2.rref_calls",
    ("cones.py", "enumerate_positive_at"): "cones.enumerate_calls",
    ("cones.py", "enumerate_gamma_at"): "cones.enumerate_calls",
    ("cones.py", "enumerate_q_at"): "cones.enumerate_calls",
}


def counted_windows(workload: str):
    """The windows whose `run_bockstein` calls the counted run profiles.

    engine-s40 and derive-s40 run stem 40; sweep-s8-24 runs every window once,
    in a fixed order, on one shared catalog.
    """
    return SWEEP_WINDOWS if workload == "sweep-s8-24" else [(DERIVE_STEM, -2, 1)]


def count_calls(workload: str) -> dict:
    """Exact call counts and page statistics of `run_bockstein` alone.

    The stdlib profiler is switched on only around `run_bockstein`; each page's
    `resolve_page` result gives the number of classes whose differential was
    attempted.  A counted name the program no longer has is left out.
    """
    from blregion import Window, bockstein, load_catalog, run_bockstein

    cat = load_catalog()
    attempted = [0]
    resolve_page = getattr(bockstein, "resolve_page", None)
    if resolve_page is not None:
        def counting_resolve(*args, **kwargs):
            out = resolve_page(*args, **kwargs)
            attempted[0] += len(out)
            return out
        bockstein.resolve_page = counting_resolve

    prof = cProfile.Profile()
    classes = assumed = 0
    digests = []
    for stem, lo, hi in counted_windows(workload):
        window = Window(max_stem=stem, min_coweight=lo, max_coweight=hi)
        prof.enable()
        run = run_bockstein(cat, window)
        prof.disable()
        classes += sum(len(st.basis) for st in run.states.values())
        assumed += len(run.assumptions.entries)
        digests.append(page_digest(run))

    counts: dict = {}
    for (path, _line, func), (_cc, calls, *_rest) in pstats.Stats(prof).stats.items():
        metric = COUNTED.get((Path(path).name, func))
        if metric:
            counts[metric] = counts.get(metric, 0) + calls
    counts["cones.e1_classes"] = classes
    counts["bockstein.assumed_zero"] = assumed
    if resolve_page is not None:
        counts["bockstein.attempted"] = attempted[0]
        counts["bockstein.derived_ratio"] = (attempted[0] - assumed) / attempted[0]
        if "cones.enumerate_calls" in counts:
            counts["cones.enumerate_per_attempt"] = counts["cones.enumerate_calls"] / attempted[0]
    counts["pages"] = sha("\n".join(digests))
    return counts
