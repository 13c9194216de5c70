"""Child-process entry points of the benchmark.

    python3 perfbench/child.py cli SPANS_JSON CLI_ARGS...
        Run `blregion.cli.main(CLI_ARGS)` with spans around its calls and
        write to SPANS_JSON the seconds spent serializing them, a newline and
        the spans as JSON; exits with the CLI's exit code.
    python3 perfbench/child.py count WORKLOAD
        Print the counted run of WORKLOAD as one JSON line.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def traced_cli(spans_path: str, args) -> int:
    from tracer import CLI_HOOKS, ENGINE_HOOKS, Tracer

    tracer = Tracer()
    tracer.op = None
    tracer.install(CLI_HOOKS + ENGINE_HOOKS)
    from blregion.cli import main

    code = main(args)
    sys.stdout.flush()
    t0 = time.perf_counter()
    text = tracer.dumps()
    dump_s = time.perf_counter() - t0
    with open(spans_path, "w") as fh:
        fh.write(f"{dump_s!r}\n{text}")
    return code


def main(argv) -> int:
    workloads.use_source_tree()
    if argv[:1] == ["cli"] and len(argv) >= 2:
        return traced_cli(argv[1], argv[2:])
    if argv[:1] == ["count"] and len(argv) == 2 and argv[1] in workloads.WORKLOADS:
        print(json.dumps(workloads.count_calls(argv[1]), sort_keys=True))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
