"""Replay every call of a fixed table of hatd4 entry points on an earlier git
revision, and compare the outputs.

Run from the repository root:  python tools/replay.py REV [WORKLOAD ...]

REV's `src/hatd4`, extracted with `git archive`, is loaded beside the working
tree as the package `hatd4_rev`, its `hatd4` imports rewritten, so neither
tree binds a module of the other, even in imports inside function bodies.
One op of each benchmark workload (seed 3, all four unless some are named),
input build included, runs on the working tree, and each call of an entry
point in TABLE is replayed on REV's with REV's copies of its inputs, taken
before the call: objects rebuilt by REV's constructors from the parameters
REV's classes declare, arrays copied, random generators deep-copied.  The
row's keys of both outputs must be equal, arrays in dtype, shape and
entries.  A replay that raises is a difference; an entry point REV lacks is
reported and skipped.  Each op must also match `perfbench/reference.json`.
No op calls `digraph_aut`, so it then runs on REPLAY_GRAPHS seeded random
digraphs.  Prints one line per workload and one for the digraphs, naming
the layers that differ, and exits 1 on any difference or mismatch.
"""

import copy
import importlib
import inspect
import io
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REV_PACKAGE = "hatd4_rev"
SEED = 3
REPLAY_GRAPHS = 200
REPLAY_SEED = 41


def coeffs(f):
    """A polynomial, list or array, as a list of ints without trailing zeros."""
    return np.trim_zeros(np.asarray(f, dtype=np.int64), "b").tolist()


def levels(ch):
    return [(int(lev.base), lev.orbit, lev.via, lev.parent, lev.gens) for lev in ch.levels]


def view_rows(v):
    return v.base_tuple, v.base_rank, v.eu, v.ew, v.emult, v.au, v.aw, v.amult, v.adj


# layer, hatd4 module, entry point, key(output, arguments) compared between the
# trees, and which calls are replayed (None: every call; a method other than
# __init__ only on an object that has a twin)
TABLE = [
    ("rref", "gfp", "rref", lambda out, a: ([int(c) for c in out[1]], out[0]), None),
    ("minimal_polynomial", "gfp", "minimal_polynomial", lambda out, a: coeffs(out), None),
    ("factor_poly", "gfp", "factor_poly", lambda out, a: [(coeffs(g), m) for g, m in out], None),
    ("homology_rep", "homology", "homology_rep",
     lambda mod, a: (mod.action, mod.cotree, getattr(mod, "orders", None)), None),
    ("packed A-I", "homology", "_gf2_fixed_rows", lambda out, a: out, None),
    ("dual_minimal_submodules", "homology", "dual_minimal_submodules", lambda out, a: out, None),
    ("lift_group", "homology", "lift_group",
     lambda lp, a: (lp.p, lp.d, lp.kernel_hash(), lp.cover.beg, lp.cover.inv,
                    lp.action.group.gens, lp.translations.group.gens, lp.stabiliser_gens), None),
    ("chain", "perms", "StabChain.__init__", lambda out, a: levels(a[0]),
     lambda self, degree, gens, base=None, known_order=None: base is None),
    ("add", "perms", "StabChain.add", lambda out, a: (out, levels(a[0])), None),
    ("aut_group", "symmetry", "aut_group", lambda out, a: out.group.order(), None),
    ("digraph_aut", "symmetry", "digraph_aut", lambda out, a: (out.order(), out.gens), None),
    # also builds the twin view that the search below replays on
    ("view", "canon", "_View.__init__", lambda out, a: view_rows(a[0]), None),
    ("search", "canon", "search",
     lambda r, a: (r.cert, r.labeling, r.aut_gens, [int(v) for v in r.base], r.leaves), None),
]


def resolve(module, path):
    """(owner, attribute name) of a dotted entry point inside a module."""
    *outer, attr = path.split(".")
    for name in outer:
        module = getattr(module, name, None)
    return module, attr


def load_revision(rev, into):
    """REV's src/hatd4 as the package REV_PACKAGE, extracted under into."""
    tar = subprocess.run(["git", "archive", rev, "src/hatd4"], cwd=ROOT, check=True,
                         capture_output=True).stdout
    tarfile.open(fileobj=io.BytesIO(tar)).extractall(into, filter="data")
    pkg = Path(into) / REV_PACKAGE
    (Path(into) / "src" / "hatd4").rename(pkg)
    for path in pkg.rglob("*.py"):
        path.write_text(re.sub(r"\bhatd4\b", REV_PACKAGE, path.read_text()))
    sys.path.insert(0, str(into))
    return importlib.import_module(REV_PACKAGE)


def equal(a, b):
    """Whether two keys agree; arrays must agree in dtype, shape and entries."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return (isinstance(b, (list, tuple)) and len(a) == len(b)
                and all(equal(x, y) for x, y in zip(a, b)))
    return a == b


class Replay:
    """The replaying wrappers of one run against REV's package, their
    tallies, and REV's twins of the stateful working objects."""

    def __init__(self, rev):
        self.rev = rev
        self.calls, self.bad = Counter(), Counter()
        self.errors = {}   # layer -> the first exception a replay of it raised
        self.twins = {}    # id of a working object -> (the object, REV's twin)

    def twin(self, x, memo):
        """REV's copy of a working-tree value; memo keeps shared objects shared."""
        if id(x) in self.twins:
            return self.twins[id(x)][1]
        if id(x) in memo:
            return memo[id(x)][1]
        if isinstance(x, np.ndarray):
            out = x.copy()
        elif isinstance(x, (list, tuple)):
            out = type(x)(self.twin(y, memo) for y in x)
        elif isinstance(x, dict):
            out = {k: self.twin(v, memo) for k, v in x.items()}
        elif isinstance(x, np.random.Generator):
            out = copy.deepcopy(x)
        elif type(x).__module__.startswith("hatd4."):
            cls = getattr(getattr(self.rev, type(x).__module__.split(".")[1]), type(x).__name__)
            out = cls(**{k: self.twin(getattr(x, k, getattr(x, "_" + k, None)), memo)
                         for k in inspect.signature(cls).parameters})
        else:
            out = x
        memo[id(x)] = x, out   # x kept alive, so that its id is not reused
        return out

    def wrap(self, layer, fn, rev_owner, attr, key, when):
        """fn, with each call it admits replayed on REV's entry point."""
        rev_fn, method = getattr(rev_owner, attr), isinstance(rev_owner, type)

        def replayed(*args, **kwargs):
            if (when and not when(*args, **kwargs)
                    or method and attr != "__init__" and id(args[0]) not in self.twins):
                return fn(*args, **kwargs)
            if attr == "__init__":
                self.twins[id(args[0])] = args[0], rev_owner.__new__(rev_owner)
            memo = {}
            try:   # REV's copies are taken before the call, which may change its inputs
                replay = self.twin(args, memo), self.twin(kwargs, memo)
            except Exception as exc:
                replay = exc
            out = fn(*args, **kwargs)
            self.calls[layer] += 1
            try:
                if isinstance(replay, Exception):
                    raise replay
                rargs, rkw = replay
                same = equal(key(out, args), key(rev_fn(*rargs, **rkw), rargs))
            except Exception as exc:   # REV cannot take the inputs, raises or lacks a field
                self.errors.setdefault(layer, "%s: %s" % (type(exc).__name__, exc))
                same = False
            self.bad[layer] += not same
            return out

        return replayed

    def install(self):
        """Put a replaying wrapper in place of every entry point of TABLE that REV
        has: a function wherever a hatd4 module binds it, a method on its class."""
        mods = [m for name, m in sys.modules.items()
                if m is not None and (name == "hatd4" or name.startswith("hatd4."))]
        for layer, module, path, key, when in TABLE:
            owner, attr = resolve(sys.modules["hatd4." + module], path)
            rev_owner, _ = resolve(getattr(self.rev, module, None), path)
            if getattr(rev_owner, attr, None) is None:
                print("%s: REV has no %s.%s; not replayed" % (layer, module, path))
                continue
            fn = vars(owner)[attr]
            wrapper = self.wrap(layer, fn, rev_owner, attr, key, when)
            bound = [(owner, attr)] if isinstance(owner, type) else [
                (m, name) for m in mods for name, val in vars(m).items() if val is fn]
            for target, name in bound:
                setattr(target, name, wrapper)

    def report(self, name, tail=""):
        """Print one line of per-layer call counts, then start a new tally;
        True if any call differed."""
        differ = ", ".join("%s %d%s" % (layer, self.bad[layer], " (%s)" % self.errors[layer]
                                        if layer in self.errors else "")
                           for layer, *_ in TABLE if self.bad[layer])
        counts = ", ".join("%d %s" % (self.calls[layer], layer) for layer, *_ in TABLE)
        print("%s: %s; %s%s" % (name, counts, "DIFFER: " + differ if differ else "0 differ", tail))
        for tally in (self.calls, self.bad, self.errors, self.twins):
            tally.clear()
        return bool(differ)


def random_digraphs(graph_cls, count, seed):
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
        yield graph_cls(n, beg, inv), np.column_stack([first, ~first]).ravel()


def main(argv):
    if not argv:
        print(__doc__)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, matches_reference

    from hatd4 import symmetry
    from hatd4.graphs import Graph

    names = argv[1:] or list(WORKLOADS)
    if not set(names) <= set(WORKLOADS):
        print("unknown workload; choose from %s" % ", ".join(WORKLOADS))
        return 2
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        replay = Replay(load_revision(argv[0], scratch))
        replay.install()
        for name in names:
            wl = WORKLOADS[name]
            counts, digest, _ = wl.check(wl.op(wl.build(SEED, scratch)))
            ok = matches_reference(name, counts, digest)
            failed |= replay.report(name, "; output %s reference.json"
                                    % ("matches" if ok else "DIFFERS FROM")) or not ok
        for g, arcs in random_digraphs(Graph, REPLAY_GRAPHS, REPLAY_SEED):
            symmetry.digraph_aut(symmetry.Digraph(g, arcs))
        failed |= replay.report("digraphs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
