#!/usr/bin/env python3
"""hatd4 benchmark: one workload, one process, one program thread.

Run from the repository root, which holds `src/hatd4`:

    python3 perfbench/run.py --workload covers-42 --seed 1 --seconds 20 --trace 0

Workloads are described in `workloads.py` and `perfbench/README.md`.  An op
is one call sequence of the workload on inputs built fresh and untimed.  The
run repeats ops while the next one is expected to end within `--seconds`
(always at least one) and checks every op against `reference.json`.

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

- `wall_s`: median wall time per op;
- `cpu_s`: median process CPU time per op, children included;
- `setup_s`: median `import hatd4` time in a fresh interpreter plus median
  input build time, each taken over several repeats;
- `peak_rss_mb`: peak resident memory of this process.

With `--trace 1` the same untraced ops run first, then one more op with the
external tracer of `tracer.py` installed; the metrics are the per-layer ones
of `PER_LAYER`, and the spans are saved to `.bench_out/trace-<workload>.npz`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
                "import hatd4; print(time.perf_counter() - t)")

# (name, unit, better) of every metric a traced run reports
PER_LAYER = [
    ("canon.search.self_s", "s", "lower"),
    ("canon.search.calls", "count", "lower"),
    ("canon.leaves", "count", "lower"),
    ("canon.cache_hit_frac", "ratio", "higher"),
    ("perms.chain.self_s", "s", "lower"),
    ("perms.chain.builds", "count", "lower"),
    ("perms.chain.levels", "count", "lower"),
    ("perms.contains.calls", "count", "lower"),
    ("gfp.rref.self_s", "s", "lower"),
    ("gfp.rref.calls", "count", "lower"),
    ("gfp.insert.self_s", "s", "lower"),
    ("gfp.insert.calls", "count", "lower"),
    ("gfp.insert.useful_frac", "ratio", "higher"),
    ("gfp.matmul.self_s", "s", "lower"),
    ("gfp.matmul.calls", "count", "lower"),
    ("gfp.minimal_polynomial.self_s", "s", "lower"),
    ("gfp.packed.self_s", "s", "lower"),
    ("meataxe.minimal_submodules.s", "s", "lower"),
    ("meataxe.is_irreducible.calls", "count", "lower"),
    ("meataxe.spin.calls", "count", "lower"),
    ("meataxe.hom_space.dim", "count", "lower"),
    ("homology.covers.s", "s", "lower"),
    ("homology.dual_minimal_submodules.s", "s", "lower"),
    ("homology.lift_group.s", "s", "lower"),
    ("homology.covers_found", "count", "higher"),
    ("covers.derived_cover.self_s", "s", "lower"),
    ("universal.coset_graph.self_s", "s", "lower"),
    ("universal.epimorphism_search.s", "s", "lower"),
    ("universal.dedupe_base_pairs.s", "s", "lower"),
    ("universal.pair_isomorphic.calls", "count", "lower"),
    ("universal.dedupe_pairs.s", "s", "lower"),
    ("symmetry.aut_group.s", "s", "lower"),
    ("symmetry.aut_group.self_s", "s", "lower"),
    ("symmetry.is_relevant_pair.s", "s", "lower"),
    ("census.base_pairs.s", "s", "lower"),
    ("census.expand_level.s", "s", "lower"),
    ("census.records.s", "s", "lower"),
    ("census.emit.s", "s", "lower"),
    ("census.emit.bytes", "bytes", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _import_seconds():
    """`import hatd4` in a fresh interpreter with this run's environment."""
    cmd = [sys.executable, "-c", IMPORT_PROBE % str(SRC)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


class Runner:
    def __init__(self, workload, seed, scratch):
        self.wl = workload
        self.seed = seed
        self.scratch = scratch
        self.walls, self.cpus, self.builds = [], [], []
        self.attempted = self.failed = 0
        self.extra = {}

    def build(self):
        gc.collect()
        t = time.perf_counter()
        inputs = self.wl.build(self.seed, self.scratch)
        self.builds.append(time.perf_counter() - t)
        return inputs

    def op(self, inputs):
        """One timed op and its reference check; returns its wall and CPU seconds."""
        from workloads import matches_reference

        self.attempted += 1
        ok = False
        wall = cpu = None
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inputs)
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
            counts, digest, self.extra = self.wl.check(out)
            ok = matches_reference(self.wl.name, counts, digest)
            if not ok:
                print("reference mismatch on %s: counts=%s digest=%s"
                      % (self.wl.name, json.dumps(counts), digest), file=sys.stderr)
        except Exception:
            traceback.print_exc()
            if wall is None:
                wall, cpu = time.perf_counter() - t0, _cpu() - c0
        self.failed += not ok
        print("op %d: wall %.3f s, cpu %.3f s, %s"
              % (self.attempted, wall, cpu, "ok" if ok else "FAILED"), file=sys.stderr)
        return wall, cpu

    def untraced(self, seconds):
        """Ops while the next one is expected to end within `seconds`."""
        start = time.perf_counter()
        while True:
            wall, cpu = self.op(self.build())
            self.walls.append(wall)
            self.cpus.append(cpu)
            if time.perf_counter() - start + statistics.median(self.walls) > seconds:
                break

    def setup_seconds(self):
        while len(self.builds) < SETUP_REPEATS:
            self.build()
        imports = [_import_seconds() for _ in range(SETUP_REPEATS)]
        return statistics.median(imports) + statistics.median(self.builds)

    def traced(self):
        """One op under the external tracer; returns the tracer and the
        op's wall time.  The spans are saved before returning."""
        from tracer import Tracer

        inputs = self.build()
        tr = Tracer()
        tr.install()
        try:
            wall, _ = self.op(inputs)
        finally:
            tr.uninstall()
        tr.save(OUT / ("trace-%s.npz" % self.wl.name))
        return tr, wall


def layer_metrics(tr, traced_wall, untraced_wall, extra):
    spans, top = tr.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    c = tr.counters
    searches = calls("canon.search")
    canonical = calls("canon.canonical")
    inserts = calls("gfp.insert")
    values = {
        "canon.search.self_s": self_s("canon.search"),
        "canon.search.calls": searches,
        "canon.leaves": c["canon.leaves"],
        "canon.cache_hit_frac": 1 - searches / canonical if canonical else 0.0,
        "perms.chain.self_s": self_s("perms.chain"),
        "perms.chain.builds": calls("perms.chain"),
        "perms.chain.levels": c["perms.chain.levels"],
        "perms.contains.calls": calls("perms.contains"),
        "gfp.rref.self_s": self_s("gfp.rref"),
        "gfp.rref.calls": calls("gfp.rref"),
        "gfp.insert.self_s": self_s("gfp.insert"),
        "gfp.insert.calls": inserts,
        "gfp.insert.useful_frac": c["gfp.insert.useful"] / inserts if inserts else 0.0,
        "gfp.matmul.self_s": self_s("gfp.matmul"),
        "gfp.matmul.calls": calls("gfp.matmul"),
        "gfp.minimal_polynomial.self_s": self_s("gfp.minimal_polynomial"),
        "gfp.packed.self_s": self_s("gfp.packed"),
        "meataxe.minimal_submodules.s": incl("meataxe.minimal_submodules"),
        "meataxe.is_irreducible.calls": calls("meataxe.is_irreducible"),
        "meataxe.spin.calls": calls("meataxe.spin"),
        "meataxe.hom_space.dim": c["meataxe.hom_space.dim"],
        "homology.covers.s": incl("homology.covers"),
        "homology.dual_minimal_submodules.s": incl("homology.dual_minimal_submodules"),
        "homology.lift_group.s": incl("homology.lift_group"),
        "homology.covers_found": c["homology.covers_found"],
        "covers.derived_cover.self_s": self_s("covers.derived_cover"),
        "universal.coset_graph.self_s": self_s("universal.coset_graph"),
        "universal.epimorphism_search.s": incl("universal.epimorphism_search"),
        "universal.dedupe_base_pairs.s": incl("universal.dedupe_base_pairs"),
        "universal.pair_isomorphic.calls": calls("universal.pair_isomorphic"),
        "universal.dedupe_pairs.s": incl("universal.dedupe_pairs"),
        "symmetry.aut_group.s": incl("symmetry.aut_group"),
        "symmetry.aut_group.self_s": self_s("symmetry.aut_group"),
        "symmetry.is_relevant_pair.s": incl("symmetry.is_relevant_pair"),
        "census.base_pairs.s": incl("census.base_pairs"),
        "census.expand_level.s": incl("census.expand_level"),
        # the records stage is run_census minus the stages it calls
        "census.records.s": tr.remainder("census.run_census", (
            "census.base_pairs", "census.expand_level", "universal.dedupe_pairs")),
        "census.emit.s": incl("census.emit"),
        "census.emit.bytes": extra.get("census.emit.bytes", 0),
        "trace.coverage": top / traced_wall,
        "trace.overhead": traced_wall / untraced_wall - 1,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def prepare():
    """Check for the source tree and pin one program thread (hatd4's default
    single-thread path, single-thread BLAS); False if there is no tree."""
    if not (SRC / "hatd4" / "__init__.py").is_file():
        print("no hatd4 source tree at %s; run from the repository root" % SRC,
              file=sys.stderr)
        return False
    os.environ.pop("HATC_THREADS", None)
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not prepare():
        return 2
    import numpy
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        run = Runner(wl, args.seed, scratch)
        run.untraced(args.seconds)
        if args.trace:
            tr, wall = run.traced()
            metrics = layer_metrics(tr, wall, statistics.median(run.walls), run.extra)
        else:
            setup = run.setup_seconds()
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {
                "wall_s": {"value": statistics.median(run.walls), "unit": "s"},
                "cpu_s": {"value": statistics.median(run.cpus), "unit": "s"},
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"env": {
        "workload": wl.name, "seed": args.seed, "ops": run.attempted,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "HATC_THREADS": None, "OPENBLAS_NUM_THREADS": 1,
    }}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
