"""Compare `gfp.rref` and `gfp.minimal_polynomial` at p = 2 with those of an
earlier git revision, on every p = 2 input that one op of each benchmark
workload passes them.

Run from the repository root:  python tools/check_gf2_identity.py REV [WORKLOAD ...]

REV's `src/hatd4/gfp.py` (read with `git show`) is loaded beside the working
tree's as a separate module.  While one op of each workload runs (seed 3,
all four workloads unless some are named), every p = 2 call of the working
tree's `rref` and `minimal_polynomial`, including those from inside `gfp`,
is repeated on REV's functions, and the outputs must be equal: the same
pivots, and arrays of the same dtype, shape and entries.  Each op's output
is also checked against `perfbench/reference.json`.  Prints one line per
workload and exits 1 on any difference.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, matches_reference  # noqa: E402

from hatd4 import gfp  # noqa: E402


def load_revision(rev):
    src = subprocess.run(["git", "show", rev + ":src/hatd4/gfp.py"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    mod = types.ModuleType("gfp_" + rev)
    exec(compile(src, "%s:src/hatd4/gfp.py" % rev, "exec"), mod.__dict__)
    return mod


def same(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    ref = load_revision(argv[0])
    names = argv[1:] or list(WORKLOADS)
    tally = {}
    rref, minpoly = gfp.rref, gfp.minimal_polynomial

    def checked_rref(a, p):
        out = rref(a, p)
        if p == 2:
            want = ref.rref(np.array(a, copy=True), p)
            tally["rref"] += 1
            tally["bad"] += out[1] != want[1] or not same(out[0], want[0])
        return out

    def checked_minpoly(a, p):
        out = minpoly(a, p)
        if p == 2:
            tally["minpoly"] += 1
            tally["bad"] += not same(out, ref.minimal_polynomial(np.array(a, copy=True), p))
        return out

    gfp.rref, gfp.minimal_polynomial = checked_rref, checked_minpoly
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            wl = WORKLOADS[name]
            tally.update(rref=0, minpoly=0, bad=0)
            counts, digest, _ = wl.check(wl.op(wl.build(3, scratch)))
            ok = matches_reference(name, counts, digest)
            print("%s: %d rref and %d minimal_polynomial calls at p=2, %d differ; "
                  "output %s reference.json" % (name, tally["rref"], tally["minpoly"],
                                                tally["bad"], "matches" if ok else "DIFFERS FROM"))
            failed |= tally["bad"] > 0 or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
