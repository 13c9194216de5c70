"""In-memory spans around the benchmark's calls into blregion.

A span is (name, start, end, parent, op, page): `parent` is the index of the
enclosing span in the same process (-1 at the top), `op` the operation id the
span belongs to, `page` the Bockstein page for per-page spans and None
otherwise.  Times come from `time.perf_counter`, which is CLOCK_MONOTONIC on
Linux and so comparable between a parent and a child process.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: (module, attribute, span name, argument position of the page number).
#: `run_bockstein` looks these names up in its own module at call time, so
#: replacing the module attribute puts a span around every internal call.
ENGINE_HOOKS = (
    ("blregion.bockstein", "seed_rules", "rules.seed", None),
    ("blregion.bockstein", "build_e1", "cones.build_e1", None),
    ("blregion.bockstein", "resolve_page", "bockstein.resolve", 1),
    ("blregion.bockstein", "turn_page", "bockstein.turn", 2),
)

#: The calls `blregion.cli.main` makes, for the traced CLI operation.
CLI_HOOKS = (
    ("blregion.cli", "load_catalog", "catalog.load", None),
    ("blregion.cli", "run_bockstein", "bockstein.run", None),
    ("blregion.cli", "check_structural_constraints", "bockstein.checks", None),
    ("blregion.cli", "census_report", "bockstein.checks", None),
    ("blregion.cli", "adams_no_differentials", "adams.no_diff", None),
    ("blregion.cli", "install_hidden_rho_extensions", "adams.hidden", None),
    ("blregion.cli", "report_tables", "adams.reports", None),
    ("blregion.cli", "chart_from_page", "charts.build", None),
    ("blregion.cli", "render", "charts.render", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = "setup"
        self._stack: List[int] = []
        self.missing: List[str] = []

    @contextmanager
    def span(self, name: str, page: Optional[int] = None):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.op, page]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def add(self, name: str, start: float, end: float, op) -> int:
        """Record a finished top-level span, e.g. a child process seen from outside."""
        self.spans.append([name, start, end, -1, op, None])
        return len(self.spans) - 1

    def adopt(self, spans: List[list], parent: int) -> None:
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        for name, start, end, par, _op, page in spans:
            self.spans.append([name, start, end, parent if par < 0 else base + par,
                               self.spans[parent][4], page])

    def wrap(self, fn, name: str, page_arg: Optional[int]):
        def traced(*args, **kwargs):
            page = args[page_arg] if page_arg is not None and len(args) > page_arg else None
            with self.span(name, page):
                return fn(*args, **kwargs)
        return traced

    def install(self, hooks) -> None:
        """Replace each hooked module attribute by a spanned wrapper.

        A hooked name the program no longer has is noted in `missing`; the
        metrics fed by it are then reported as absent.
        """
        for module, attr, name, page_arg in hooks:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(fn, name, page_arg))

    def dumps(self) -> str:
        return json.dumps({"spans": self.spans, "missing": self.missing})


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _par, _op, _page in spans]
    for _name, start, end, par, _op, _page in spans:
        if par >= 0:
            own[par] -= end - start
    return own


def span_cost(n: int = 20000) -> float:
    """Measured seconds one span adds around a call, from a calibration loop."""
    tr = Tracer()

    def noop():
        return None

    traced = tr.wrap(noop, "calibrate", None)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / n


def aggregate(spans: List[list], n_ops: int) -> Dict[str, float]:
    """Per-layer seconds for one setup plus one average operation.

    Spans recorded during set-up (op "setup") count in full; spans of the
    timed operations are summed and divided by the operation count; spans of
    warm-up operations (op "warmup") are left out.
    """
    own = self_times(spans)
    out: Dict[str, float] = {}

    def add(key: str, value: float, op) -> None:
        out[key] = out.get(key, 0.0) + (value if op == "setup" else value / n_ops)

    for i, (name, start, end, _par, op, page) in enumerate(spans):
        if op == "warmup":
            continue
        if name == "op":
            add("cli.outside_s", own[i], op)
        elif name == "bockstein.run":
            add("bockstein.run_s", end - start, op)
            add("bockstein.other_s", own[i], op)
        elif name == "bockstein.resolve":
            add("bockstein.resolve_s", own[i], op)
            if page == 1:
                add("bockstein.resolve_p1_s", own[i], op)
        else:
            add(name + "_s", own[i], op)
    return out
