"""External span tracer for hatd4, installed from the benchmark's own files.

`Tracer.install()` replaces each public entry point listed in `ENTRY_POINTS`
(and the three methods in `METHODS`) with a wrapper that records a span:
name, start, end and the id of the enclosing span.  Names re-bound by
`from ... import` in other hatd4 modules (for example `census.aut_group` or
`homology.derived_cover`) are found by identity and replaced too, so every
call path goes through the wrapper.  `uninstall()` restores the originals.

Spans live in compact in-memory arrays while the traced op runs and are
written once, at the end, by `save()`.  Self time is computed from the span
tree afterwards: a span's duration minus the durations of its children.
Counters are read only from values the program returns (or from the object
a constructor built), never from program internals.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (span name, hatd4 submodule, attribute); two functions may share a span name
ENTRY_POINTS = [
    ("canon.canonical", "canon", "canonical"),
    ("canon.search", "canon", "search"),
    ("gfp.rref", "gfp", "rref"),
    ("gfp.matmul", "gfp", "matmul"),
    ("gfp.minimal_polynomial", "gfp", "minimal_polynomial"),
    ("gfp.packed", "gfp", "gf2_nullspace_packed"),
    ("meataxe.chop", "meataxe", "chop"),
    ("meataxe.minimal_submodules", "meataxe", "minimal_submodules"),
    ("meataxe.is_irreducible", "meataxe", "is_irreducible"),
    ("meataxe.spin", "meataxe", "spin"),
    ("meataxe.hom_space", "meataxe", "hom_space"),
    ("homology.covers", "homology", "minimal_admissible_covers"),
    ("homology.homology_rep", "homology", "homology_rep"),
    ("homology.dual_minimal_submodules", "homology", "dual_minimal_submodules"),
    ("homology.lift_group", "homology", "lift_group"),
    ("covers.derived_cover", "covers", "derived_cover"),
    ("universal.epimorphism_search", "universal", "epimorphism_search"),
    ("universal.coset_graph", "universal", "coset_graph"),
    ("universal.dedupe_base_pairs", "universal", "dedupe_base_pairs"),
    ("universal.pair_isomorphic", "universal", "pair_isomorphic"),
    ("universal.dedupe_pairs", "universal", "dedupe_pairs"),
    ("symmetry.aut_group", "symmetry", "aut_group"),
    ("symmetry.is_relevant_pair", "symmetry", "is_relevant_pair"),
    ("census.run_census", "census", "run_census"),
    ("census.base_pairs", "census", "base_pairs"),
    ("census.expand_level", "census", "expand_level"),
    ("census.emit", "census", "emit_csv"),
    ("census.emit", "census", "emit_graphs"),
]

# span name -> (module, class, method)
METHODS = {
    "perms.chain": ("perms", "StabChain", "__init__"),
    "perms.contains": ("perms", "PermGroup", "contains"),
    "gfp.insert": ("gfp", "EchelonBasis", "insert"),
}


# span name -> (counter, increment read from the call's arguments and result)
COUNTERS = {
    "canon.search": ("canon.leaves", lambda args, out: out.leaves),
    "perms.chain": ("perms.chain.levels", lambda args, out: len(args[0].levels)),
    "gfp.insert": ("gfp.insert.useful", lambda args, out: out is not None),
    "meataxe.hom_space": ("meataxe.hom_space.dim", lambda args, out: len(out)),
    "homology.covers": ("homology.covers_found", lambda args, out: len(out)),
}


class Tracer:
    def __init__(self):
        self.names = []            # name table; spans refer to it by index
        self._index = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters = defaultdict(int)
        self._stack = [-1]
        self._patches = []          # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        nid = self._index[name]
        name_id, parent, t0s, t1s = self.name_id, self.parent, self.t0, self.t1
        stack = self._stack
        clock = time.perf_counter
        counter, count = COUNTERS.get(name, (None, None))
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(t0s)
            name_id.append(nid)
            parent.append(stack[-1])
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
            if count is not None:
                counters[counter] += count(args, out)
            return out

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        mods = {k.split(".", 1)[1]: m for k, m in sys.modules.items()
                if k.startswith("hatd4.") and m is not None}
        for name, mod, attr in ENTRY_POINTS:
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)
        for name, (mod, cls, meth) in METHODS.items():
            owner = getattr(mods[mod], cls)
            self._patch(owner, meth, self._wrap(name, vars(owner)[meth]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        return nid, par, dur

    def save(self, path):
        nid, par, _ = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=par,
                 t0=np.frombuffer(self.t0, dtype=np.float64),
                 t1=np.frombuffer(self.t1, dtype=np.float64))

    def remainder(self, name, minus):
        """Seconds inside spans `name` not covered by their direct children
        named in `minus`."""
        if name not in self._index:
            return 0.0
        nid, par, dur = self.arrays()
        own = self._index[name]
        kids = np.isin(nid, [self._index[n] for n in minus if n in self._index])
        kids &= par >= 0
        kids[kids] = nid[par[kids]] == own
        return float(dur[nid == own].sum() - dur[kids].sum())

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost spans of the
        name only, so recursion is not counted twice) and self seconds."""
        nid, par, dur = self.arrays()
        k = len(self.names)
        child = np.zeros(len(dur))
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        self_s = np.bincount(nid, weights=dur - child, minlength=k)
        calls = np.bincount(nid, minlength=k)
        outer = np.ones(len(dur), dtype=bool)
        pid = par.copy()
        while np.any(pid >= 0):        # walk ancestors one generation at a time
            live = pid >= 0
            idx = np.nonzero(live)[0]
            outer[idx[nid[pid[idx]] == nid[idx]]] = False
            pid[idx] = par[pid[idx]]
        incl = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        top = float(dur[~has_parent].sum())
        return {n: (int(calls[i]), float(incl[i]), float(self_s[i]))
                for i, n in enumerate(self.names)}, top
