#!/usr/bin/env python3
"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

- No carry-over between ops: the first two ops of one process, both traced
  on census-m700-l1, report the same `canon.search.calls` and
  `perms.chain.builds`.  A cache that outlived its op would lower the second.
- Seed invariance: tower-42-m1500 at workload seeds 0 and 1 both match the
  pinned reference digest; the seed may change only the time.
- `BENCHMARK.json` lists exactly the per-layer metrics a traced run reports.

Prints one PASS or FAIL line per check and exits 1 if any fails.  It runs
four ops, about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main():
    if not run.prepare():
        return 2
    from workloads import WORKLOADS

    checks = []
    run.OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        census = run.Runner(WORKLOADS["census-m700-l1"], 0, scratch)
        seen = []
        for _ in range(2):
            spans, _ = census.traced()[0].summary()
            seen.append((spans["canon.search"][0], spans["perms.chain"][0]))
        checks.append(("no carry-over: (canon.search.calls, perms.chain.builds) "
                       "of ops 1 and 2 are %s and %s" % tuple(seen),
                       seen[0] == seen[1] and census.failed == 0))
        for seed in (0, 1):
            tower = run.Runner(WORKLOADS["tower-42-m1500"], seed, scratch)
            tower.op(tower.build())
            checks.append(("tower-42-m1500 at seed %d matches the reference" % seed,
                           tower.failed == 0))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    checks.append(("BENCHMARK.json per_layer matches run.PER_LAYER",
                   listed == [tuple(m) for m in run.PER_LAYER]))
    for name, ok in checks:
        print("%s %s" % ("PASS" if ok else "FAIL", name))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
