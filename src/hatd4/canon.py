"""Partition-backtrack machinery: canonical forms, automorphisms, isomorphism.

The search works on the vertex set of the colored multigraph skeleton of a
dart graph (loops, semiedges and parallel multiplicities become vertex and
edge colors; an optional arc set adds an orientation layer).  Refinement is
the usual counting refinement to the coarsest equitable ordered partition,
run on plain ints: each vertex has one adjacency dict whose weights fold the
edge layer and the arcs in and out into one int, and a splitter's counts are
summed into a dict.  The individualization target is the first smallest
non-singleton cell.
Leaves are compared through (node-invariant path, leaf encoding); the best
leaf is the canonical labeling, leaves that tie with it yield automorphisms,
and a tie triggers a backjump to the deepest common ancestor with the best
path.  Automorphisms prune sibling branches through stabiliser orbits along
the first search path: the discovered ones, and from the root on any known
generators the caller passes in (McKay & Piperno, "Practical graph
isomorphism, II", 2014), such as the vertex parts of a group already known
to act on the graph.  Each node on that path keeps its orbit labels and
rebuilds them only when a new automorphism has been found.  The vertices
individualised on the first path are a base of the automorphism group
(`CanonResult.base`): refinement commutes with automorphisms, so one that
fixes them fixes the discrete partition at the first leaf and is the
identity, with or without an arc set or known generators.

One dart table per graph and arc set sorts the darts by class (semiedges,
or links and loops, of one arc flag from one vertex to another), then by
edge.  The skeleton is read off its classes: each vertex's semiedges,
loops, arc loop darts and arc semiedges, the links of each pair of
vertices and the arcs of each ordered pair.  A vertex map lifts to the
darts by sending each class to its image class rank for rank; the same
table gives the generators and the order of the group of dart maps fixing
every vertex.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from math import factorial

import numpy as np

from hatd4.graphs import GraphError
from hatd4.perms import inverse, orbit_labels

DTYPE = np.int32


# ---------------------------------------------------------------------------
# skeleton view
# ---------------------------------------------------------------------------


class _View:
    """Vertex-colored weighted skeleton (+ optional arc layer) of a graph."""

    __slots__ = (
        "n", "base_rank", "base_tuple",
        "eu", "ew", "emult",            # one row per unordered link pair
        "au", "aw", "amult",            # one row per ordered arc pair
        "adj", "has_arcs",
    )

    def __init__(self, g, arcs=None):
        n = self.n = g.n
        self.has_arcs = arcs is not None
        # any set of darts is an arc set here, not only one dart of each edge
        table = _cached_table(g, None if arcs is None else np.asarray(arcs, dtype=bool))
        u, w, kind, flag, size = table.classes().T
        semi, loop = kind == 0, (kind == 1) & (u == w)

        def per_vertex(rows):
            return np.bincount(u[rows], weights=size[rows], minlength=n).astype(np.int64)

        # the first column is zero for every vertex; it is kept so that
        # certificates keep their bytes
        base = np.stack([np.zeros(n, dtype=np.int64), per_vertex(semi), per_vertex(loop) // 2,
                         per_vertex(loop & (flag == 1)), per_vertex(semi & (flag == 1))], axis=1)
        self.base_tuple = base
        # rank of each distinct base tuple, ascending: initial cell order
        order = np.lexsort(base.T[::-1])
        ranked = np.zeros(n, dtype=np.int64)
        if n > 1:
            diff = np.any(base[order][1:] != base[order][:-1], axis=1)
            ranked[order] = np.concatenate([[0], np.cumsum(diff)])
        self.base_rank = ranked

        # undirected link multiplicities, one row per unordered pair: each
        # link has one dart from u to w, so the classes from u to a larger
        # w, of either arc flag, hold its edges
        e = (kind == 1) & (u < w)
        at = np.unique(u[e] * n + w[e], return_index=True)[1]
        self.eu = u[e][at].astype(DTYPE)
        self.ew = w[e][at].astype(DTYPE)
        self.emult = np.add.reduceat(size[e], at)

        # arc multiplicities, one row per ordered pair
        a = (kind == 1) & (u != w) & (flag == 1)
        self.au = u[a].astype(DTYPE)
        self.aw = w[a].astype(DTYPE)
        self.amult = size[a]

        # adj[x][y]: the edges of x and y, the arcs y -> x and the arcs
        # x -> y as one int in radix big, which exceeds any layer's count;
        # refinement adds it to y's count for a splitter holding x
        big = (int(self.emult.sum()) + int(self.amult.sum())) * 4 + 2
        adj = [{} for _ in range(n)]
        for x, y, k in zip(self.eu.tolist(), self.ew.tolist(), self.emult.tolist()):
            adj[x][y] = adj[y][x] = k * big * big
        for x, y, k in zip(self.au.tolist(), self.aw.tolist(), self.amult.tolist()):
            adj[x][y] = adj[x].get(y, 0) + k
            adj[y][x] = adj[y].get(x, 0) + k * big
        self.adj = adj


# ---------------------------------------------------------------------------
# ordered partitions
# ---------------------------------------------------------------------------


class _Partition:
    __slots__ = ("lab", "pos", "cstart")

    def __init__(self, lab, pos, cstart):
        self.lab = lab
        self.pos = pos
        self.cstart = cstart

    @classmethod
    def from_ranks(cls, ranks):
        n = len(ranks)
        lab = np.argsort(ranks, kind="stable").astype(DTYPE)
        vals = np.asarray(ranks)[lab]
        first = np.ones(n, dtype=bool)
        first[1:] = vals[1:] != vals[:-1]
        cstart = np.maximum.accumulate(np.where(first, np.arange(n), 0)).astype(DTYPE)
        return cls(lab, inverse(lab), cstart)

    def copy(self):
        return _Partition(self.lab.copy(), self.pos.copy(), self.cstart.copy())

    def colors(self):
        """Cell id (= start position) per vertex."""
        return self.cstart[self.pos]

    def cells(self):
        starts = np.unique(self.cstart)
        ends = np.append(starts[1:], len(self.lab))
        return starts, ends

    def cell_ends(self, starts):
        """End (exclusive) of each cell starting at starts; cstart ascends."""
        return np.searchsorted(self.cstart, starts, side="right")

    def target_cell(self):
        """Start of the first smallest non-singleton cell, or -1."""
        starts, ends = self.cells()
        sizes = ends - starts
        nontriv = sizes > 1
        if not np.any(nontriv):
            return -1, 0
        best = np.min(sizes[nontriv])
        return int(starts[np.argmax(sizes == best)]), int(best)

    def individualize(self, v):
        s = int(self.cstart[self.pos[v]])
        pv = int(self.pos[v])
        u = int(self.lab[s])
        self.lab[s], self.lab[pv] = v, u
        self.pos[v], self.pos[u] = s, pv
        self.cstart[s + 1 : self.cell_ends(s)] = s + 1


def _refine(part: _Partition, view: _View, splitters: deque):
    """Counting refinement to the coarsest equitable partition (in place).

    Splitters are lists of vertices.  The partition is worked on as lists
    of ints and written back at the end."""
    adj = view.adj
    lab, pos, cstart = part.lab.tolist(), part.pos.tolist(), part.cstart.tolist()
    while splitters:
        w = splitters.popleft()
        if len(w) == 1:
            key = adj[w[0]]     # read, never written
        else:
            key = {}
            for x in w:
                for y, k in adj[x].items():
                    key[y] = key.get(y, 0) + k
        # splitting a cell only rewrites cstart inside it, so every end
        # found here stays valid through the loop
        for s in sorted({cstart[pos[y]] for y in key}):
            e = bisect_right(cstart, s, s)
            if e - s == 1:
                continue
            members = lab[s:e]
            vals = [key.get(v, 0) for v in members]
            if min(vals) == max(vals):
                continue
            order = sorted(range(e - s), key=vals.__getitem__)
            members = [members[i] for i in order]
            vals = [vals[i] for i in order]
            lab[s:e] = members
            for i, v in enumerate(members, s):
                pos[v] = i
            breaks = [i for i in range(1, e - s) if vals[i] != vals[i - 1]]
            frags = list(zip([0] + breaks, breaks + [e - s]))
            largest = max(frags, key=lambda f: f[1] - f[0])
            for fs, fe in frags:
                cstart[s + fs : s + fe] = [s + fs] * (fe - fs)
                if fs != largest[0]:
                    splitters.append(members[fs:fe])
            splitters.append(members[largest[0]:largest[1]])
    part.lab[:], part.pos[:], part.cstart[:] = lab, pos, cstart


def _node_invariant(part: _Partition, view: _View):
    starts, ends = part.cells()
    c = part.colors()
    pieces = [starts.astype(np.int64).tobytes(),
              (ends - starts).astype(np.int64).tobytes(),
              view.base_rank[part.lab[starts]].tobytes()]
    n = view.n
    cu = c[view.eu].astype(np.int64)
    cw = c[view.ew].astype(np.int64)
    k = np.minimum(cu, cw) * n + np.maximum(cu, cw)
    uk, inv_ = np.unique(k, return_inverse=True)
    sums = np.bincount(inv_, weights=view.emult.astype(np.float64)).astype(np.int64)
    pieces.append(uk.tobytes())
    pieces.append(sums.tobytes())
    if view.has_arcs:
        ka = c[view.au].astype(np.int64) * n + c[view.aw].astype(np.int64)
        uk, inv_ = np.unique(ka, return_inverse=True)
        sums = np.bincount(inv_, weights=view.amult.astype(np.float64)).astype(np.int64)
        pieces.append(uk.tobytes())
        pieces.append(sums.tobytes())
    return b"".join(pieces)


def _leaf_bytes(part: _Partition, view: _View):
    lam = part.pos.astype(np.int64)  # vertex -> canonical position
    pieces = [np.int64(view.n).tobytes(), view.base_tuple[part.lab].tobytes()]
    if len(view.eu):
        a = lam[view.eu]
        b = lam[view.ew]
        rows = np.stack([np.minimum(a, b), np.maximum(a, b), view.emult], axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        pieces.append(rows.tobytes())
    pieces.append(b"|arcs|")
    if view.has_arcs and len(view.au):
        rows = np.stack([lam[view.au], lam[view.aw], view.amult], axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]
        pieces.append(rows.tobytes())
    return b"".join(pieces)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


class _Frame:
    __slots__ = ("part", "state", "cands", "idx", "explored", "on_spine",
                 "fixing", "orb", "orb_gens")

    def __init__(self, part, state):
        self.part = part
        self.state = state
        self.cands = None
        self.idx = 0
        self.explored = []
        self.on_spine = False
        self.fixing = []    # automorphisms that fix the prefix pointwise
        self.orb = None     # their orbit labels, or None while there are none
        self.orb_gens = 0   # how many automorphisms have been sorted into fixing

    def orbits(self, n, gens, prefix):
        """Orbit labels of the automorphisms in gens that fix prefix
        pointwise, rebuilt only when gens has grown since the last call."""
        if self.orb_gens < len(gens):
            pre = np.asarray(prefix, dtype=DTYPE)
            new = [g for g in gens[self.orb_gens:] if np.array_equal(g[pre], pre)]
            if new:
                self.fixing.extend(new)
                self.orb = orbit_labels(n, self.fixing, self.orb)
            self.orb_gens = len(gens)
        return self.orb


class CanonResult:
    __slots__ = ("cert", "labeling", "aut_gens", "base", "leaves")

    def __init__(self, cert, labeling, aut_gens, base, leaves):
        self.cert = cert
        self.labeling = labeling  # vertex -> canonical position
        self.aut_gens = aut_gens  # vertex permutations
        self.base = base          # the vertices of the first path, a base of the group
        self.leaves = leaves


def _known_automorphisms(view: _View, known_gens):
    """The non-identity permutations of known_gens as arrays, each checked
    to be an automorphism of the view: it keeps every vertex's base tuple
    and maps the edge rows and the arc rows onto themselves."""
    n = view.n
    ident = np.arange(n, dtype=DTYPE)
    ekeys = view.eu.astype(np.int64) * n + view.ew
    akeys = view.au.astype(np.int64) * n + view.aw
    out = []
    for p in known_gens:
        p = np.asarray(p)
        if p.shape != (n,) or not np.array_equal(np.sort(p), ident):
            raise GraphError("known generator is not a permutation of the %d vertices" % n)
        p = p.astype(DTYPE)
        if np.array_equal(p, ident):
            continue
        if not np.array_equal(view.base_tuple[p], view.base_tuple):
            raise GraphError("known generator moves a vertex to one of another kind")
        a = p[view.eu].astype(np.int64)
        b = p[view.ew].astype(np.int64)
        if not _rows_onto(ekeys, view.emult, np.minimum(a, b) * n + np.maximum(a, b)):
            raise GraphError("known generator does not preserve the edges")
        if not _rows_onto(akeys, view.amult, p[view.au].astype(np.int64) * n + p[view.aw]):
            raise GraphError("known generator does not preserve the arcs")
        out.append(p)
    return out


def _rows_onto(keys, mult, images):
    """Whether row i -> row with key images[i] permutes the rows (keys
    ascending and distinct) and keeps their multiplicities."""
    order = np.argsort(images)
    return np.array_equal(images[order], keys) and np.array_equal(mult[order], mult)


def search(view: _View, known_gens=()) -> CanonResult:
    n = view.n
    gens = _known_automorphisms(view, known_gens)
    known = len(gens)
    root = _Partition.from_ranks(view.base_rank)
    q = deque(root.lab[s:e].tolist() for s, e in zip(*root.cells()))
    _refine(root, view, q)

    best_path = []      # node invariant per depth (1-based)
    best_prefix = []
    best_leaf = None
    best_lab = None
    spine = None
    leaves = 0
    backjump = None

    frames = [_Frame(root, "gt")]
    prefix = []

    while frames:
        if backjump is not None:
            if len(frames) - 1 > backjump:
                frames.pop()
                if prefix:
                    prefix.pop()
                continue
            backjump = None
        fr = frames[-1]
        if fr.cands is None:
            tc, _size = fr.part.target_cell()
            if tc < 0:
                # leaf
                leaves += 1
                lb = _leaf_bytes(fr.part, view)
                if best_leaf is None or fr.state == "gt" or lb > best_leaf:
                    best_leaf = lb
                    best_lab = fr.part.pos.copy()
                    best_prefix = list(prefix)
                    if spine is None:
                        spine = list(prefix)
                    for f in frames:
                        f.state = "eq"
                elif fr.state == "eq" and lb == best_leaf:
                    sigma = inverse(best_lab)[fr.part.pos]
                    if not np.array_equal(sigma, np.arange(n, dtype=DTYPE)):
                        gens.append(sigma.astype(DTYPE))
                    div = 0
                    while (div < len(prefix) and div < len(best_prefix)
                           and prefix[div] == best_prefix[div]):
                        div += 1
                    backjump = div
                frames.pop()
                if prefix:
                    prefix.pop()
                continue
            fr.cands = np.sort(fr.part.lab[tc : tc + _size].copy())
            fr.on_spine = spine is None or list(prefix) == spine[: len(prefix)]
        if fr.idx >= len(fr.cands):
            frames.pop()
            if prefix:
                prefix.pop()
            continue
        v = int(fr.cands[fr.idx])
        fr.idx += 1
        if fr.on_spine and fr.explored and gens:
            orb = fr.orbits(n, gens, prefix)
            if orb is not None and np.any(orb[fr.explored] == orb[v]):
                continue
        fr.explored.append(v)
        child = fr.part.copy()
        child.individualize(v)
        _refine(child, view, deque([[v]]))
        inv_bytes = _node_invariant(child, view)
        depth = len(prefix)  # child depth-1 index into best_path
        state = fr.state
        if state == "eq" and best_leaf is not None:
            ref = best_path[depth] if depth < len(best_path) else None
            if ref is not None:
                if inv_bytes < ref:
                    continue
                if inv_bytes > ref:
                    state = "gt"
        frames.append(_Frame(child, state))
        prefix.append(v)
        # best_path bookkeeping: grow provisional path when strictly better
        if state == "gt":
            if len(best_path) <= depth:
                best_path.extend([None] * (depth + 1 - len(best_path)))
            best_path[depth] = inv_bytes
            best_path[depth + 1 :] = []
        # (when state == eq the stored invariant already matches)

    # discovered automorphisms first, then the known ones
    return CanonResult(best_leaf, best_lab, gens[known:] + gens[:known], spine, leaves)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def canonical(g, arcs=None, known_gens=()) -> CanonResult:
    """Canonical search result for a graph skeleton (cached on the graph).

    known_gens are vertex permutations of a group already known to act on
    the skeleton by automorphisms, for example the vertex parts of a
    `GraphAction`'s generators.  The search prunes by their orbits from the
    root on; a search checks each of them and raises GraphError for one that
    is not an automorphism.  The result's aut_gens lists the automorphisms
    the search found, then the known ones, and its base the vertices of the
    first path, a base of the group they generate.  The cache key leaves
    known_gens out: the certificate and the first path do not depend on
    them, and aut_gens generates the skeleton's automorphism group with or
    without them.
    """
    key = ("canon", None if arcs is None else np.asarray(arcs, bool).tobytes())
    hit = g._cache.get(key)
    if hit is None:
        hit = search(_View(g, arcs=arcs), known_gens=known_gens)
        g._cache[key] = hit
    return hit


def isomorphism(g1, g2):
    """Vertex and dart maps of an isomorphism g1 -> g2, or None.

    Complete: equal certificates guarantee an isomorphism of the colored
    skeletons, which always extends to the darts.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    c1 = canonical(g1)
    c2 = canonical(g2)
    if c1.cert != c2.cert:
        return None
    vmap = inverse(c2.labeling)[c1.labeling]
    dmap = extend_vertex_map_to_darts(g1, g2, vmap)
    if dmap is None:
        raise AssertionError("equal certificates but dart extension failed")
    return vmap.astype(DTYPE), dmap


class _DartTable:
    """The darts of a graph sorted into classes: a class is the semiedges,
    or the links and loops, of one arc flag from one vertex to another.

    ``order`` lists the darts by (class key, edge id, dart id), ``key``
    holds the class key at each position, and ``start`` and ``stop`` bound
    the class of each position.  Sorting by edge id lines class (u, w) up
    with class (w, u), so the darts at equal ranks are inverses; without
    arcs the two darts of a loop share one class, at ranks 2r and 2r+1.
    """

    __slots__ = ("n", "order", "key", "start", "stop")

    def __init__(self, g, arcs):
        m = g.m
        self.n = g.n
        flag = np.zeros(m, dtype=np.uint64) if arcs is None else arcs.astype(np.uint64)
        kind = (g.inv != np.arange(m)).astype(np.uint64)  # 0 semiedge, 1 loop or link
        key = _class_keys(g.n, g.beg, g.end(), kind * 2 + flag)
        # lexsort is stable: darts of one edge keep dart id order
        self.order = np.lexsort((g.edge_index(), key)).astype(DTYPE)
        self.key = key[self.order]
        new = np.ones(m, dtype=bool)
        new[1:] = self.key[1:] != self.key[:-1]
        first = np.flatnonzero(new)
        cls = np.cumsum(new) - 1
        self.start = first[cls]
        self.stop = np.append(first[1:], m)[cls]

    def classes(self):
        """One row (beg, end, kind, arc flag, size) per class, in ascending
        key order; kind is 0 for semiedges and 1 for links and loops."""
        first = np.flatnonzero(self.start == np.arange(len(self.key)))
        rest, low = np.divmod(self.key[first], np.uint64(4))
        beg, end = np.divmod(rest, np.uint64(self.n))
        size = (self.stop[first] - first).astype(np.uint64)
        return np.stack([beg, end, low // 2, low % 2, size], axis=1).astype(np.int64)


def _class_keys(n, beg, end, low):
    """Class key (beg * n + end) * 4 + low, in uint64 so that any two
    vertex ids below 2^31 fit."""
    n = np.uint64(n)
    return (beg.astype(np.uint64) * n + end.astype(np.uint64)) * np.uint64(4) + low


def dart_table(g, arcs=None) -> _DartTable:
    """The dart table of g, with the arc flag of a digraph's arc set arcs
    (one dart of each edge) in every class key; cached per (graph, arcs)."""
    if arcs is not None:
        arcs = np.asarray(arcs, dtype=bool)
        if np.any(arcs == arcs[g.inv]):
            raise GraphError("arc set must contain exactly one dart of each edge")
    return _cached_table(g, arcs)


def _cached_table(g, arcs):
    """The dart table of g and a boolean dart set arcs (or None), unchecked;
    the skeleton view and `dart_table` share this one entry per dart set."""
    key = ("darts", None if arcs is None else arcs.tobytes())
    hit = g._cache.get(key)
    if hit is None:
        hit = g._cache[key] = _DartTable(g, arcs)
    return hit


def extend_vertex_map_to_darts(g1, g2, vmap, arcs=None):
    """Extend a skeleton isomorphism to a dart bijection commuting with
    beg and inv, or None if the multiplicity structure disagrees.  Each dart
    goes to the dart of the same rank in the image of its class.  With an
    arc set arcs of both graphs, the arc flag is part of every class key,
    so arcs go to arcs."""
    vmap = np.asarray(vmap, dtype=DTYPE)
    m = g1.m
    if g2.n != g1.n or g2.m != m:
        return None
    t1, t2 = dart_table(g1, arcs), dart_table(g2, arcs)
    x = t1.order
    want = _class_keys(g1.n, vmap[g1.beg[x]], vmap[g1.end()[x]], t1.key % np.uint64(4))
    at = np.minimum(np.searchsorted(t2.key, want), m - 1)
    if not (np.array_equal(t2.key[at], want)
            and np.array_equal(t2.stop[at] - at, t1.stop - t1.start)):
        return None
    dmap = np.empty(m, dtype=DTYPE)
    dmap[x] = t2.order[at + np.arange(m) - t1.start]
    # verify the morphism laws
    if not np.array_equal(g2.beg[dmap], vmap[g1.beg]):
        return None
    if not np.array_equal(g2.inv[dmap], dmap[g1.inv]):
        return None
    return dmap


def local_dart_gens(g, arcs=None):
    """(generators, order) of the group of dart automorphisms that fix
    every vertex (and the arc set arcs): swaps of adjacent edges within each
    class, and without arcs a flip of the first loop of each class of
    loops.  Its order is k! per class of k edges, times 2^k for a class of
    k unoriented loops.  Generators come in the order of the first edge of
    their class, the flip first."""
    t = dart_table(g, arcs)
    i = np.arange(g.m)
    loops = (g.beg == g.end()) & (g.inv != i)
    unoriented = loops[t.order] if arcs is None else np.zeros(g.m, dtype=bool)
    step = 1 + unoriented
    # of the classes (u, w) and (w, u), the one whose first dart is the
    # smaller dart of its edge
    first = t.order[t.start]
    primary = first <= g.inv[first]
    heads = np.flatnonzero(primary & (i == t.start))
    flips = heads[unoriented[heads]]
    swaps = np.flatnonzero(primary & ((i - t.start) % step == 0) & (i + step < t.stop))
    at = np.concatenate([flips, swaps])
    a = t.order[at]
    b = np.concatenate([g.inv[t.order[flips]], t.order[swaps + step[swaps]]])
    sub = np.concatenate([np.full(len(flips), -1), (swaps - t.start[swaps]) // step[swaps]])
    pick = np.lexsort((sub, g.edge_index()[first[at]]))
    a, b = a[pick], b[pick]
    gens = np.tile(i.astype(DTYPE), (len(a), 1))
    rows = np.arange(len(a))
    gens[rows, a], gens[rows, b] = b, a
    gens[rows, g.inv[a]], gens[rows, g.inv[b]] = g.inv[b], g.inv[a]
    sizes = (t.stop - t.start)[heads] // step[heads]
    order = 2 ** int(sizes[unoriented[heads]].sum())
    for k in sizes[sizes > 1].tolist():
        order *= factorial(k)
    return list(gens), order
