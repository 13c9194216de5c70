"""Record perfbench/reference.json: the digests every benchmark operation must reproduce.

    python3 perfbench/record_reference.py

Run it once at the commit whose outputs are the reference.  For each
operation it stores SHA-256 digests of the outputs: CLI stdout, exit code and
chart bytes for engine-s40; the page digest, check reports and report tables
of every sweep-s8-24 window; the report tables and chart bytes of derive-s40
and the digest of its stem-40 page.  A report that refuses is stored as its
exception class, together with the exit code the CLI gives for it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import workloads as wl


def engine_reference() -> dict:
    with tempfile.TemporaryDirectory(dir=wl.ROOT) as tmp:
        chart = os.path.join(tmp, "chart.svg")
        proc = subprocess.run(
            [sys.executable, "-c", wl.CLI_CODE, *wl.ENGINE_ARGS, "--out", chart],
            capture_output=True, env=dict(os.environ, PYTHONPATH=str(wl.SRC)), cwd=wl.ROOT)
        with open(chart, "rb") as fh:
            data = fh.read()
    return {"exit": proc.returncode, "stdout": wl.sha(proc.stdout), "chart": wl.sha(data)}


def cli_exit(args) -> int:
    from blregion.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(args)


def main() -> int:
    wl.use_source_tree()
    from blregion import Window, load_catalog, run_bockstein

    cat = load_catalog()
    sweep, refusals, pages = {}, [], []
    for stem, lo, hi in wl.SWEEP_WINDOWS:
        key = wl.window_key(stem, lo, hi)
        raw = wl.sweep_op(cat, stem, lo, hi, lambda *_: contextlib.nullcontext())
        sweep[key] = wl.sweep_outcome(raw)
        pages.append(sweep[key]["page"])
        for kind, value in sweep[key]["reports"].items():
            if isinstance(value, dict):
                code = cli_exit([f"--max-stem={stem}", f"--coweights={lo}..{hi}", "--report", kind])
                refusals.append({"window": key, "report": kind, "raises": value["refused"],
                                 "cli_exit": code})
        print(key, "done", file=sys.stderr)
    sweep["counted_pages"] = wl.sha("\n".join(pages))
    sweep["refusals"] = refusals

    run = run_bockstein(cat, Window(max_stem=wl.DERIVE_STEM))
    setup_page = wl.page_digest(run)
    outcomes = {json.dumps(wl.derive_outcome(wl.derive_op(run, steps, lambda *_: contextlib.nullcontext())),
                           sort_keys=True)
                for steps in (wl.derive_steps(random.Random(s)) for s in range(3))}
    if len(outcomes) != 1:
        sys.exit("derive-s40 outputs depend on the step order")
    derive = {"op": json.loads(outcomes.pop()), "setup_page": setup_page,
              "counted_pages": wl.sha(setup_page)}
    engine = {"op": engine_reference(), "counted_pages": wl.sha(setup_page)}

    reference = {"engine-s40": engine, "sweep-s8-24": sweep, "derive-s40": derive}
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
