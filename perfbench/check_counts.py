"""Check that the counted run repeats exactly.

    python3 perfbench/check_counts.py WORKLOAD

Makes the counted run of WORKLOAD twice under each of PYTHONHASHSEED=0 and
PYTHONHASHSEED=1, in fresh interpreters, and exits 1 unless all four give the
same call counts, page statistics and page digests.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in wl.WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for hash_seed in ("0", "0", "1", "1"):
        env = dict(os.environ, PYTHONPATH=str(wl.SRC), PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("child.py")),
                               "count", argv[0]], capture_output=True, env=env, cwd=wl.ROOT,
                              check=True)
        results.append(json.loads(proc.stdout.decode().strip().splitlines()[-1]))
        print(f"PYTHONHASHSEED={hash_seed}: {json.dumps(results[-1], sort_keys=True)}")
    same = all(r == results[0] for r in results)
    print(f"counts {'repeat exactly' if same else 'DIFFER'} across {len(results)} runs")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
