"""Digest every homology matrix, every stacked bit-packed (A - I) array,
every dual minimal submodule and every lifted cover that one op of each
benchmark workload builds, for comparing two revisions.

Run from the repository root, once per checkout, then compare the files:

    python tools/homology_digests.py CHECKOUT OUT.json [WORKLOAD ...]

CHECKOUT is the root of a checkout (this one or another, e.g. an extracted
`git archive` of an earlier revision); its `src/hatd4` and `perfbench` are
imported.  While one op of each workload runs (seed 1, all four unless some
are named), each `homology.homology_rep` result (the dtype, shape and bytes
of every generator matrix, the cotree and the generator orders), each
matrix passed to `gfp.gf2_nullspace_packed`, each result of
`homology.dual_minimal_submodules` (its dmax, then every basis in order)
and each result of `homology.lift_group` (p, d, the kernel hash, then
separate digests of the cover's beg and inv, the lifted generators, the
translations and the stabiliser generators) is digested in call order.  OUT holds, per workload, whether the op matched
`perfbench/reference.json` and the list of digests; equal files mean equal
matrices.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(("%s%s" % (a.dtype, a.shape)).encode() + a.tobytes())
    return h.hexdigest()


def main(root, out, names):
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import numpy as np
    from workloads import WORKLOADS, matches_reference

    from hatd4 import gfp, homology

    log = []
    rep, null = homology.homology_rep, gfp.gf2_nullspace_packed
    dual, lift = homology.dual_minimal_submodules, homology.lift_group

    def traced_rep(g, action, p):
        mod = rep(g, action, p)
        log.append(["rep", p, list(mod.orders),
                    digest(np.asarray(mod.cotree, dtype=np.int64), *mod.action)])
        return mod

    def traced_null(w, ncols):
        log.append(["packed", ncols, digest(w)])
        return null(w, ncols)

    def traced_dual(mod, dmax, seed=0):
        out = dual(mod, dmax, seed=seed)
        log.append(["dual", mod.p, dmax, len(out), digest(*out)])
        return out

    def traced_lift(g, action, zeta, dual_basis, qmats):
        lp = lift(g, action, zeta, dual_basis, qmats)
        log.append(["lift", lp.p, lp.d, lp.kernel_hash(),
                    digest(lp.cover.beg, lp.cover.inv), digest(*lp.action.group.gens),
                    digest(*lp.translations.group.gens), digest(*lp.stabiliser_gens)])
        return lp

    homology.homology_rep, gfp.gf2_nullspace_packed = traced_rep, traced_null
    homology.dual_minimal_submodules, homology.lift_group = traced_dual, traced_lift
    result = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in names or list(WORKLOADS):
            log = []
            wl = WORKLOADS[name]
            counts, dig, _ = wl.check(wl.op(wl.build(1, scratch)))
            result[name] = {"matches_reference": matches_reference(name, counts, dig),
                            "calls": log}
            print("%s: %d calls, reference %s" % (name, len(log), result[name]["matches_reference"]))
    Path(out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
