"""Command-line entry point: pipeline, reports and chart emission."""

from __future__ import annotations

import argparse
import gc
import sys
from typing import List, Optional, Sequence

from .adams import (
    AdamsPage,
    AmbiguityError,
    adams_no_differentials,
    divisibility_table,
    install_hidden_rho_extensions,
    mahowald_invariant_of_2k,
    region,
)
from .bockstein import (
    ConflictError,
    EngineError,
    census_report,
    check_structural_constraints,
    run_bockstein,
)
from .catalog import CatalogError, load_catalog
from .charts import chart_from_page, ko_chart, render
from .degrees import Window
from .monomials import display
from .rules import load_rule_overrides

USAGE_ERROR, CONSTRAINT_ERROR, IO_ERROR = 2, 3, 4

REPORT_KINDS = ("divisibility", "fixed-points", "two-divisibility", "mahowald", "census")
CHART_KINDS = ("e2", "einf", "ko", "none")


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The parsed options; ``coweights`` becomes a (min, max) pair."""
    parser = argparse.ArgumentParser(
        prog="blregion",
        description=(
            "Compute the coweight-0 wedge of the C2-equivariant stable stems "
            "and its number-theoretic consequences."
        ),
    )
    parser.add_argument("--max-stem", type=int, default=24)
    parser.add_argument(
        "--coweights", default="-2..1",
        help="MIN..MAX, default -2..1; write --coweights=-2..1 for negative bounds",
    )
    parser.add_argument("--catalog", default=None)
    parser.add_argument("--report", choices=REPORT_KINDS, default=None)
    parser.add_argument("--chart", choices=CHART_KINDS, default="none")
    parser.add_argument("--format", dest="fmt", choices=("svg", "tikz"), default="svg")
    parser.add_argument("--out", default=None)
    parser.add_argument("--rules-override", default=None)
    parser.add_argument(
        "--strict", action="store_true", help="turn census warnings into errors"
    )
    ns = parser.parse_args(argv)
    lo, _, hi = ns.coweights.partition("..")
    try:
        ns.coweights = int(lo), int(hi)
    except ValueError:
        parser.error(f"bad --coweights {ns.coweights!r}")
    return ns


def _table(header: List[str], rows: List[List[str]]) -> str:
    """Pretty table plus the same rows tab-separated, for machine reading."""
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.extend("\t".join(r) for r in rows)
    return "\n".join(lines) + "\n"


REPORT_K_MAX, MAHOWALD_K_MAX = 20, 12  # fixed k ranges, not yet taken from the window


def report_tables(page: AdamsPage, kind: str) -> str:
    """Render one report kind as pretty text plus tab-separated rows."""
    if kind == "divisibility":
        rows = [
            [str(rec.k), f"rho^{rec.max_rho_power}", str(rec.max_rho_power)]
            for rec in divisibility_table(page, REPORT_K_MAX)
        ]
        return _table(["k", "max rho power dividing eta^k", "exponent"], rows)
    if kind == "fixed-points":
        rows = [
            [str(rec.k), f"2^{rec.fixed_point_generator_exponent}",
             str(rec.fixed_point_generator_exponent)]
            for rec in divisibility_table(page, REPORT_K_MAX)
        ]
        return _table(["k", "fixed-point image generator", "exponent"], rows)
    if kind == "two-divisibility":
        rows = [
            [str(rec.k), f"2^{rec.max_two_power}", str(rec.max_two_power)]
            for rec in divisibility_table(page, REPORT_K_MAX)
            if rec.max_two_power is not None
        ]
        return _table(["k", "max 2-power dividing eta^k", "exponent"], rows)
    if kind == "mahowald":
        rows = []
        for k in range(0, MAHOWALD_K_MAX + 1):
            det = mahowald_invariant_of_2k(page, k)
            rows.append([f"2^{k}", display(det), "not computed"])
        return _table(["class", "Mahowald invariant detector", "indeterminacy"], rows)
    if kind == "census":
        rows = [[str(d.s), str(d.f), str(d.w), name]
                for d, survivors in region(page.run)
                for name in sorted(map(display, survivors))]
        return _table(["stem", "filtration", "weight", "class"], rows)
    raise ValueError(f"unknown report kind {kind!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    # The cyclic collector would rescan the run's many long-lived objects
    # again and again, though they form no cycle and reference counting
    # frees them (test_finished_run_is_freed_without_the_cyclic_gc). So one
    # CLI call pauses it and restores its state; the library never does.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: Optional[Sequence[str]]) -> int:
    try:
        args = _parse_args(list(sys.argv[1:] if argv is None else argv))
        if args.report and args.max_stem < 8:
            raise ValueError(
                "reports need --max-stem >= 8: the first torsion-witness tower "
                "differential lives on the eighth stem"
            )
        lo, hi = args.coweights
        window = Window(max_stem=args.max_stem, min_coweight=lo, max_coweight=hi)
    except SystemExit as exc:  # argparse reports usage problems itself
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        cat = load_catalog(args.catalog)
    except (CatalogError, OSError) as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return IO_ERROR if isinstance(exc, OSError) else CONSTRAINT_ERROR

    extra_rules = ()
    if args.rules_override:
        try:
            extra_rules = load_rule_overrides(cat, args.rules_override)
        except OSError as exc:
            print(f"rule override error: {exc}", file=sys.stderr)
            return IO_ERROR
        except ValueError as exc:
            print(f"rule override error: {exc}", file=sys.stderr)
            return USAGE_ERROR

    try:
        run = run_bockstein(cat, window, extra_rules=extra_rules)
    except (ConflictError, EngineError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return CONSTRAINT_ERROR

    structural = check_structural_constraints(run)
    census = census_report(run)
    adams = adams_no_differentials(run)
    page = install_hidden_rho_extensions(run)

    failed = False
    for label, rep in (("structural", structural), ("census", census), ("adams", adams)):
        for v in rep.violations:
            print(f"{label} violation: {v}", file=sys.stderr)
            failed = True
        for w in rep.warnings:
            print(f"{label} warning: {w}", file=sys.stderr)
            if args.strict:
                failed = True
    if failed:
        return CONSTRAINT_ERROR

    out_stream = sys.stdout
    if args.report:
        try:
            out_stream.write(report_tables(page, args.report))
        except AmbiguityError as exc:
            print(f"derivation error: {exc}", file=sys.stderr)
            return CONSTRAINT_ERROR

    if args.chart != "none":
        doc = ko_chart() if args.chart == "ko" else chart_from_page(
            page if args.chart == "einf" else run, args.chart
        )
        data = render(doc, args.fmt)
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                print(f"cannot write chart: {exc}", file=sys.stderr)
                return IO_ERROR
        else:
            out_stream.write(data.decode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
