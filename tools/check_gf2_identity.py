"""Compare `gfp.rref` at p = 2, and `gfp.minimal_polynomial` and
`gfp.factor_poly` at every prime, with those of an earlier git revision, on
every input that one op of each benchmark workload passes them.

Run from the repository root:  python tools/check_gf2_identity.py REV [WORKLOAD ...]

REV's `src/hatd4/gfp.py` (read with `git show`) is loaded beside the working
tree's as a separate module.  While one op of each workload runs (seed 3,
all four workloads unless some are named), every such call of the working
tree's functions, including those from inside `gfp`, is repeated on REV's,
and the outputs must be equal.  An rref must have the same pivots and an
array of the same dtype, shape and entries; polynomials are compared as
coefficient lists, lowest degree first without trailing zeros, so REV may
hold them as numpy arrays.  REV's `factor_poly` gets its polynomial as an
int64 array and a deep copy of the generator, so the op's own random stream
is untouched.  Each op's output is also checked against
`perfbench/reference.json`.  Prints one line per workload and exits 1 on any
difference.
"""

from __future__ import annotations

import copy
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


def coeffs(f):
    """A polynomial, list or array, as a list of ints without trailing zeros."""
    return np.trim_zeros(np.asarray(f, dtype=np.int64), "b").tolist()


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    ref = load_revision(argv[0])
    names = argv[1:] or list(WORKLOADS)
    tally = {}
    rref, minpoly, factor = gfp.rref, gfp.minimal_polynomial, gfp.factor_poly

    def checked_rref(a, p):
        out = rref(a, p)
        if p == 2:
            want = ref.rref(np.array(a, copy=True), p)
            tally["rref"] += 1
            tally["bad"] += out[1] != want[1] or not same(out[0], want[0])
        return out

    def checked_minpoly(a, p):
        out = minpoly(a, p)
        tally["minpoly"] += 1
        tally["bad"] += coeffs(out) != coeffs(ref.minimal_polynomial(np.array(a, copy=True), p))
        return out

    def checked_factor(f, p, rng=None):
        want = ref.factor_poly(np.array(f, dtype=np.int64), p, copy.deepcopy(rng))
        out = factor(f, p, rng)
        tally["factor"] += 1
        tally["bad"] += ([(coeffs(g), m) for g, m in out] != [(coeffs(g), m) for g, m in want])
        return out

    gfp.rref, gfp.minimal_polynomial, gfp.factor_poly = checked_rref, checked_minpoly, checked_factor
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            wl = WORKLOADS[name]
            tally.update(rref=0, minpoly=0, factor=0, bad=0)
            counts, digest, _ = wl.check(wl.op(wl.build(3, scratch)))
            ok = matches_reference(name, counts, digest)
            print("%s: %d rref calls at p=2, %d minimal_polynomial and %d factor_poly calls, "
                  "%d differ; output %s reference.json"
                  % (name, tally["rref"], tally["minpoly"], tally["factor"], tally["bad"],
                     "matches" if ok else "DIFFERS FROM"))
            failed |= tally["bad"] > 0 or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
