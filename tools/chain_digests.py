"""Compare every canonical search, every stabiliser chain built without a
base, and the order of every automorphism group with those of an earlier git
revision, on one op of each benchmark workload.

Run from the repository root:  python tools/chain_digests.py REV [WORKLOAD ...]

REV's `perms`, `canon` and `symmetry` (read with `git show`) are loaded
beside the working tree's as separate modules, each bound to REV's modules
before it; the graph layer is the working tree's.  While one op of each
workload runs (seed 3, all four workloads unless some are named):

- every `StabChain` the working tree builds without a base is built again by
  REV's `StabChain` from the same degree, generators and known order, and
  every later `add` is repeated on REV's chain.  After each, both chains
  must have the same levels: base point, orbit, `via`, `parent` and strong
  generators, in order.
- every `aut_group` call is repeated with REV's function on a fresh copy of
  its graph, and the two groups must have equal orders; every `digraph_aut`
  call likewise, and the two groups must also have the same generators, in
  order.
- every `canon.search` is repeated by REV's `search` on REV's view of the
  same graph, colours and arc set, with the same known generators.  Both
  results must have the same `cert`, `labeling`, `aut_gens` (in order),
  `base` and `leaves`.

Each op's output is also checked against `perfbench/reference.json`.  No
workload op calls `digraph_aut`, so the arc layer of the canonical search
is replayed apart: `digraph_aut` runs, checked as above (its canonical
searches included), on REPLAY_GRAPHS seeded random connected graphs with
loops and parallel edges, each with a random arc set.  Prints one line per
workload and one for the replay, and exits 1 on any difference.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import types
import weakref
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS, matches_reference  # noqa: E402

import hatd4  # noqa: E402
from hatd4 import canon, perms, symmetry  # noqa: E402
from hatd4.graphs import Graph  # noqa: E402

MODULES = ("perms", "canon", "symmetry")
REPLAY_GRAPHS = 200
REPLAY_SEED = 41


def load_revision(rev):
    """REV's modules of MODULES, each executed while the earlier ones stand
    in for the working tree's under their package names."""
    saved = {name: sys.modules["hatd4." + name] for name in MODULES}
    out = {}
    try:
        for name in MODULES:
            path = "src/hatd4/%s.py" % name
            src = subprocess.run(["git", "show", "%s:%s" % (rev, path)], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout
            mod = types.ModuleType("%s_%s" % (name, rev))
            sys.modules[mod.__name__] = mod
            exec(compile(src, "%s:%s" % (rev, path), "exec"), mod.__dict__)
            out[name] = sys.modules["hatd4." + name] = mod
            setattr(hatd4, name, mod)
    finally:
        for name, mod in saved.items():
            sys.modules["hatd4." + name] = mod
            setattr(hatd4, name, mod)
    return out


def levels(ch):
    return [(int(lev.base), lev.orbit.tolist(), lev.via.tolist(), lev.parent.tolist(),
             [np.asarray(g).tolist() for g in lev.gens]) for lev in ch.levels]


def same_result(a, b):
    """Whether two CanonResults agree field for field."""
    return (a.cert == b.cert and np.array_equal(a.labeling, b.labeling)
            and len(a.aut_gens) == len(b.aut_gens)
            and all(np.array_equal(x, y) for x, y in zip(a.aut_gens, b.aut_gens))
            and list(a.base) == list(b.base) and a.leaves == b.leaves)


def fresh(g):
    return Graph(g.n, g.beg, g.inv)


def same_group(a, b):
    """Whether two PermGroups have the same order and generators, in order."""
    return (a.order() == b.order() and len(a.gens) == len(b.gens)
            and all(np.array_equal(x, y) for x, y in zip(a.gens, b.gens)))


def random_digraphs(count, seed):
    """(graph, arcs) pairs: connected graphs on 1-9 vertices, a random tree
    plus up to n + 2 random links, loops and parallel links among them, in a
    random order, and one random dart of each edge as the arc."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 10))
        edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        edges += [tuple(int(x) for x in rng.integers(0, n, size=2))
                  for _ in range(int(rng.integers(0, n + 3)))]
        if not edges:
            edges = [(0, 0)]
        beg, inv = [], []
        for k in rng.permutation(len(edges)):
            u, w = edges[k]
            beg += [u, w]
            inv += [len(inv) + 1, len(inv)]
        first = rng.integers(0, 2, size=len(edges)).astype(bool)
        yield Graph(n, beg, inv), np.column_stack([first, ~first]).ravel()


def rebind(original, wrapper):
    """Replace original by wrapper wherever a hatd4 module binds it."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("hatd4.") and mod is not None:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    ref = load_revision(argv[0])
    names = argv[1:] or list(WORKLOADS)
    tally = {}
    twins = weakref.WeakKeyDictionary()   # working chain -> REV's chain
    init, add = perms.StabChain.__init__, perms.StabChain.add
    aut_group, digraph_aut = symmetry.aut_group, symmetry.digraph_aut
    view, search = canon._View, canon.search
    ref_views = {}   # id of a working view -> REV's view of the same graph

    def checked_init(self, degree, gens, base=None, known_order=None):
        gens = list(gens)
        init(self, degree, gens, base=base, known_order=known_order)
        if base is None:
            twins[self] = twin = ref["perms"].StabChain(degree, gens, known_order=known_order)
            tally["chains"] += 1
            tally["bad"] += levels(self) != levels(twin)

    def checked_add(self, g):
        out = add(self, g)
        twin = twins.get(self)
        if twin is not None:
            tally["adds"] += 1
            tally["bad"] += twin.add(g) != out or levels(self) != levels(twin)
        return out

    def checked_aut_group(g):
        out = aut_group(g)
        tally["aut_group"] += 1
        tally["bad"] += out.group.order() != ref["symmetry"].aut_group(fresh(g)).group.order()
        return out

    def checked_digraph_aut(dig):
        out = digraph_aut(dig)
        twin = ref["symmetry"].Digraph(fresh(dig.underlying), dig.arcs)
        tally["digraph_aut"] += 1
        tally["bad"] += not same_group(out, ref["symmetry"].digraph_aut(twin))
        return out

    def twinned_view(g, colors=None, arcs=None):
        out = view(g, colors=colors, arcs=arcs)
        ref_views[id(out)] = ref["canon"]._View(g, colors=colors, arcs=arcs)
        return out

    def checked_search(v, known_gens=()):
        known_gens = list(known_gens)
        out = search(v, known_gens=known_gens)
        twin = ref["canon"].search(ref_views.pop(id(v)), known_gens=known_gens)
        tally["searches"] += 1
        tally["bad"] += not same_result(out, twin)
        return out

    perms.StabChain.__init__, perms.StabChain.add = checked_init, checked_add
    canon._View, canon.search = twinned_view, checked_search
    rebind(aut_group, checked_aut_group)
    rebind(digraph_aut, checked_digraph_aut)
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for name in names:
            wl = WORKLOADS[name]
            tally.update(chains=0, adds=0, aut_group=0, digraph_aut=0, searches=0, bad=0)
            counts, digest, _ = wl.check(wl.op(wl.build(3, scratch)))
            ok = matches_reference(name, counts, digest)
            print("%s: %d chains without a base, %d adds, %d aut_group and %d digraph_aut "
                  "orders, %d canonical searches, %d differ; output %s reference.json"
                  % (name, tally["chains"], tally["adds"], tally["aut_group"],
                     tally["digraph_aut"], tally["searches"], tally["bad"],
                     "matches" if ok else "DIFFERS FROM"))
            failed |= tally["bad"] > 0 or not ok
    tally.update(digraph_aut=0, searches=0, bad=0)
    for g, arcs in random_digraphs(REPLAY_GRAPHS, REPLAY_SEED):
        checked_digraph_aut(symmetry.Digraph(g, arcs))
    print("replay: %d digraph_aut groups, %d canonical searches, %d differ"
          % (tally["digraph_aut"], tally["searches"], tally["bad"]))
    failed |= tally["bad"] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
