"""Layered benchmark of blregion: one workload per run, one JSON line at the end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports blregion from `src/`.
Workloads (closed loop, one client, single-threaded):

  engine-s40   each operation is a fresh interpreter running the CLI
               `blregion --report divisibility --chart einf --format svg
               --out <tmp> --max-stem 40`.  The seed has nothing to permute.
  sweep-s8-24  one process, one shared Catalog; each operation runs one
               window (stems 8..24 by 4, coweights -2..1 and -6..1): the
               Bockstein run, its checks, the hidden extensions and all five
               reports.  The seed shuffles the window order of each pass.
  derive-s40   one process runs stem 40 once during set-up; each operation
               installs the hidden extensions, derives the five reports and
               renders the einf and e2 charts as SVG and TikZ, in an order the
               seed shuffles.

With `--trace 0` the run is timed untraced and reports the end-to-end
metrics.  With `--trace 1` it makes a traced run (spans around every call into
blregion) and a counted run (the stdlib profiler around `run_bockstein`), and
reports the per-layer metrics.  Every operation's outputs are checked against
`perfbench/reference.json`.  See perfbench/README.md for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import workloads as wl
from tracer import CLI_HOOKS, ENGINE_HOOKS, Tracer, aggregate, span_cost

HERE = Path(__file__).resolve().parent

#: Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 9
SETUP_CODE = "from blregion import load_catalog, seed_rules; seed_rules(load_catalog())"
#: Untimed derive-s40 operations before timing, while allocation settles.
DERIVE_WARMUP = 2

#: Per-layer time metrics; a layer the workload never enters reads 0.
TIME_METRICS = (
    "catalog.load_s", "rules.seed_s", "cones.build_e1_s", "bockstein.run_s",
    "bockstein.resolve_s", "bockstein.resolve_p1_s", "bockstein.turn_s",
    "bockstein.other_s", "bockstein.checks_s", "adams.no_diff_s", "adams.hidden_s",
    "adams.reports_s", "charts.build_s", "charts.render_s", "cli.outside_s",
)
#: Span name of a hook -> the time metrics that are absent when it is missing.
HOOK_METRICS = {
    "rules.seed": ("rules.seed_s", "bockstein.other_s"),
    "cones.build_e1": ("cones.build_e1_s", "bockstein.other_s"),
    "bockstein.resolve": ("bockstein.resolve_s", "bockstein.resolve_p1_s", "bockstein.other_s"),
    "bockstein.turn": ("bockstein.turn_s", "bockstein.other_s"),
}


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, reference: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.reference = reference[workload]
        self.env = dict(os.environ, PYTHONPATH=str(wl.SRC))
        self.attempted = self.failed = 0
        self.setup_ok = True
        self.refused = set()
        self.notes = []
        out = wl.ROOT / ".bench_build" / "perfbench"
        out.mkdir(parents=True, exist_ok=True)
        self.out_dir = out
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out))

    # --- outcomes -------------------------------------------------------------

    def check(self, label: str, outcome: dict, expected: dict) -> None:
        self.attempted += 1
        for kind, value in outcome.get("reports", {}).items():
            if isinstance(value, dict) and "refused" in value:
                self.refused.add((label, kind, value["refused"]))
        if outcome != expected:
            self.failed += 1
            self.notes.append(f"operation {label} differs from the reference: "
                              f"{json.dumps(outcome, sort_keys=True)}")

    def measured(self, label: str, compute, digest, walls, span):
        """Time `compute()` inside an "op" span, then check its digested outputs.

        An unexpected exception is a failed operation, timed until it was
        raised; the run goes on.
        """
        t0 = time.perf_counter()
        try:
            with span("op"):
                raw = compute()
        except Exception as exc:  # counted as failed, never hidden
            walls.append((label, time.perf_counter() - t0))
            raw, outcome = None, {"error": f"{type(exc).__name__}: {exc}"}
        else:
            walls.append((label, time.perf_counter() - t0))
            outcome = digest(raw)
        self.check(label, outcome, self.reference[label])
        return raw

    # --- child processes --------------------------------------------------------

    def child(self, args, out_name: str):
        """Run a fresh interpreter; return (start, end, exit code, stdout, peak RSS KiB)."""
        out_path = self.tmp / out_name
        with open(out_path, "wb") as out, open(self.tmp / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=wl.ROOT)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t0, t1, proc.returncode, out_path.read_bytes(), usage.ru_maxrss

    def setup_s(self) -> float:
        self.child(["-c", SETUP_CODE], "setup.out")  # untimed: byte-compiles, warms caches
        walls = []
        for _ in range(SETUP_REPEATS):
            t0, t1, code, _out, _rss = self.child(["-c", SETUP_CODE], "setup.out")
            if code != 0:
                self.setup_ok = False
                self.notes.append(f"set-up interpreter exited with {code}")
            walls.append(t1 - t0)
        return statistics.median(walls)

    def engine_op(self, traced: bool):
        """One CLI process; return (start, end, peak RSS KiB, chart bytes, spans file)."""
        chart = self.tmp / "chart.svg"
        spans = self.tmp / "spans.json"
        prog = [str(HERE / "child.py"), "cli", str(spans)] if traced else ["-c", wl.CLI_CODE]
        t0, t1, code, stdout, rss = self.child([*prog, *wl.ENGINE_ARGS, "--out", str(chart)],
                                               "cli.out")
        data = chart.read_bytes() if chart.exists() else b""
        chart.unlink(missing_ok=True)
        self.check("op", {"exit": code, "stdout": wl.sha(stdout), "chart": wl.sha(data)},
                   self.reference["op"])
        return t0, t1, rss, len(data), spans

    # --- the timed loop ---------------------------------------------------------

    def loop(self, op, per_pass: int = 1) -> int:
        """Call op(i) for i = 0, 1, ... for about `self.seconds` seconds.

        Work goes in passes of `per_pass` operations that are never cut, so
        every run of the sweep measures each window equally often.  Another
        pass starts only if, at the last pass's pace, more than half of it
        would end before the deadline.  At least one pass runs.  Returns the
        number of operations.
        """
        deadline = time.perf_counter() + self.seconds
        i = 0
        while True:
            t0 = time.perf_counter()
            for _ in range(per_pass):
                op(i)
                i += 1
            now = time.perf_counter()
            if now + (now - t0) / 2 > deadline:
                return i

    # --- in-process workloads ---------------------------------------------------

    def in_process_setup(self, span) -> float:
        """Load the shared catalog; derive-s40 also builds its stem-40 page.

        Returns the seconds of the one `run_bockstein` call derive-s40 makes
        here (0 for the sweep), which belong to its setup_s.
        """
        from blregion import Window, load_catalog, run_bockstein

        with span("catalog.load"):
            self.cat = load_catalog()
        if self.workload != "derive-s40":
            return 0.0
        t0 = time.perf_counter()
        with span("bockstein.run"):
            self.run = run_bockstein(self.cat, Window(max_stem=wl.DERIVE_STEM))
        elapsed = time.perf_counter() - t0
        if wl.page_digest(self.run) != self.reference["setup_page"]:
            self.setup_ok = False
            self.notes.append("the stem-40 page built in set-up differs from the reference")
        return elapsed

    def in_process_loop(self, walls, tracer=None, chart_bytes=None) -> int:
        """Time operations of sweep-s8-24 or derive-s40; return how many were timed."""
        span = tracer.span if tracer else nullcontext_span
        rng = random.Random(self.seed)
        if self.workload == "sweep-s8-24":
            order = []

            def op(i):
                if i % len(wl.SWEEP_WINDOWS) == 0:
                    order[:] = wl.sweep_order(rng.randrange(2 ** 32))
                stem, lo, hi = order[i % len(order)]
                if tracer:
                    tracer.op = i
                self.measured(wl.window_key(stem, lo, hi),
                              lambda: wl.sweep_op(self.cat, stem, lo, hi, span),
                              wl.sweep_outcome, walls, span)
            return self.loop(op, per_pass=len(wl.SWEEP_WINDOWS))

        def op(i, walls=walls):
            steps = wl.derive_steps(rng)
            if tracer:
                tracer.op = i
            raw = self.measured("op", lambda: wl.derive_op(self.run, steps, span),
                                wl.derive_outcome, walls, span)
            if chart_bytes is not None and i != "warmup":
                chart_bytes.append(sum(map(len, raw["charts"].values())) if raw else 0)

        for _ in range(DERIVE_WARMUP):
            op("warmup", walls=[])
        return self.loop(op)

    # --- the two kinds of run -------------------------------------------------

    def run_untraced(self) -> dict:
        setup = self.setup_s()
        walls, rss = [], []
        if self.workload == "engine-s40":
            def op(_i):
                t0, t1, peak, _n, _s = self.engine_op(traced=False)
                walls.append(("op", t1 - t0))
                rss.append(peak)
            self.loop(op)
            peak_kib = statistics.median(rss)
        else:
            setup += self.in_process_setup(nullcontext_span)
            self.in_process_loop(walls)
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Each kind of operation counts at its fastest, and the kinds are
        # averaged: the sweep's ten windows differ 13-fold in size by design,
        # and the other workloads have one kind.  The fastest, not the
        # median: on a shared host the speed of the same operation drifts by
        # up to 40% in phases of seconds to minutes, and a run's median
        # follows how much of the run fell in a slow phase.  The fastest
        # operation tracks the program's own cost; a change that slows every
        # operation still shows in full.
        fastest = {}
        for label, seconds in walls:
            fastest[label] = min(seconds, fastest.get(label, seconds))
        return {"wall_s": statistics.mean(fastest.values()), "setup_s": setup,
                "peak_rss_mb": peak_kib / 1024}

    def run_traced(self) -> dict:
        tracer = Tracer()
        chart_bytes, dump_s = [], []
        if self.workload == "engine-s40":
            def op(i):
                t0, t1, _rss, nbytes, spans_path = self.engine_op(traced=True)
                head, _, body = spans_path.read_text().partition("\n")
                child = json.loads(body)
                tracer.adopt(child["spans"], tracer.add("op", t0, t1, i))
                tracer.missing = sorted(set(tracer.missing) | set(child["missing"]))
                dump_s.append(float(head))
                chart_bytes.append(nbytes)
            n_ops = self.loop(op)
        else:
            tracer.install(ENGINE_HOOKS)
            self.in_process_setup(tracer.span)
            n_ops = self.in_process_loop([], tracer, chart_bytes)
            t0 = time.perf_counter()
            text = tracer.dumps()
            dump_s.append(time.perf_counter() - t0)
            (self.out_dir / f"trace-{self.workload}-seed{self.seed}.json").write_text(text)
        metrics = self.layer_times(tracer, n_ops)
        timed_spans = [s for s in tracer.spans if s[4] != "warmup"]
        setup_spans = sum(1 for s in timed_spans if s[4] == "setup")
        per_run = setup_spans + (len(timed_spans) - setup_spans) / n_ops
        metrics["trace.overhead_s"] = span_cost() * per_run + statistics.mean(dump_s)
        metrics["charts.bytes"] = statistics.mean(chart_bytes) if chart_bytes else 0
        metrics["adams.refusals"] = len(self.refused)
        metrics.update(self.counted())
        return metrics

    def layer_times(self, tracer: Tracer, n_ops: int) -> dict:
        times = aggregate(tracer.spans, n_ops)
        metrics = {name: times.get(name, 0.0) for name in TIME_METRICS}
        for hook in tracer.missing:
            span = next(name for mod, attr, name, _ in CLI_HOOKS + ENGINE_HOOKS
                        if f"{mod}.{attr}" == hook)
            gone = HOOK_METRICS.get(span, (span + "_s",))
            self.notes.append(f"{hook} is gone; {', '.join(gone)} absent")
            for name in gone:
                metrics.pop(name, None)
        return metrics

    def counted(self) -> dict:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "count", self.workload],
                              capture_output=True, env=self.env, cwd=wl.ROOT)
        if proc.returncode != 0:
            self.setup_ok = False
            self.notes.append(f"the counted run exited with {proc.returncode}: "
                              f"{proc.stderr.decode()[-500:]}")
            return {}
        counts = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        if counts.pop("pages") != self.reference["counted_pages"]:
            self.setup_ok = False
            self.notes.append("the pages of the counted run differ from the reference")
        return counts

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def nullcontext_span(_name, _page=None):
    return nullcontext()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    wl.use_source_tree()
    if not wl.REFERENCE.is_file():
        sys.exit(f"perfbench: missing {wl.REFERENCE}")
    reference = json.loads(wl.REFERENCE.read_text())
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    bench = Bench(args.workload, args.seed, args.seconds, reference)
    try:
        metrics = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        bench.close()

    for note in bench.notes:
        print(f"note: {note}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {bench.attempted}  failed {bench.failed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'failed_ratio':32s} {bench.failed / max(bench.attempted, 1):.6g} ratio")
    for ref in reference[args.workload].get("refusals", []):
        seen = (ref["window"], ref["report"], ref["raises"]) in bench.refused
        print(f"  refusal: {ref['report']} report at {ref['window']} raises {ref['raises']} "
              f"(CLI exit {ref['cli_exit']}): recorded, {'seen' if seen else 'not reached'}")
    correct = bench.failed == 0 and bench.setup_ok and bench.attempted > 0
    print(f"verdict {args.workload}: {'pass' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
