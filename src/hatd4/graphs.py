"""Dart-based graphs: (darts, vertices, beg, inv) with semiedges allowed.

A graph is a pair of arrays over dart indices 0..m-1: ``beg`` maps a dart
to its initial vertex and ``inv`` is an involution pairing each dart with
its reverse.  Edges are the orbits of ``inv``; an edge is a semiedge when
fixed, a loop when both darts start at the same vertex, and a link
otherwise.  This is the graph model in which quotients by arbitrary
subgroups stay graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.int32
MAX_ID = int(np.iinfo(DTYPE).max)  # largest vertex or dart id


class GraphError(ValueError):
    pass


def parse_ints(tokens, path, lineno, error=GraphError):
    """The tokens of one input line as integers; a token that is not an
    integer raises `error` naming path:line."""
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise error("%s:%d: expected integers, got %r"
                    % (path, lineno, " ".join(tokens))) from None


def read_lines(path, error=GraphError):
    """(line number, text) for each line of a text file that has content
    once its `#` comment is cut and its ends are stripped; a byte that is
    not UTF-8 raises `error` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise error("%s: not UTF-8 text (%s)" % (path, exc.reason)) from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


class Graph:
    __slots__ = ("n", "m", "beg", "inv", "_cache")

    def __init__(self, n, beg, inv):
        self.n = int(n)
        self.beg = np.asarray(beg, dtype=DTYPE)
        self.inv = np.asarray(inv, dtype=DTYPE)
        self.m = len(self.beg)
        self._cache = {}
        if self.n < 1:
            raise GraphError("a graph needs at least one vertex")
        if len(self.inv) != self.m:
            raise GraphError("beg and inv must have equal length")
        if self.m and (self.beg.min() < 0 or self.beg.max() >= self.n):
            raise GraphError("beg maps outside the vertex range")
        if self.m and (self.inv.min() < 0 or self.inv.max() >= self.m):
            raise GraphError("inv maps outside the dart range")
        bad = np.nonzero(self.inv[self.inv] != np.arange(self.m, dtype=DTYPE))[0]
        if bad.size:
            raise GraphError("inv not involution at dart %d" % int(bad[0]))
        self.beg.setflags(write=False)
        self.inv.setflags(write=False)

    # -- basic accessors -----------------------------------------------------

    def __repr__(self):
        return "<Graph n=%d m=%d>" % (self.n, self.m)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.beg, other.beg)
            and np.array_equal(self.inv, other.inv)
        )

    def __hash__(self):
        return hash((self.n, self.beg.tobytes(), self.inv.tobytes()))

    def end(self, x=None):
        """Terminal vertex of a dart (initial vertex of its inverse)."""
        if x is None:
            return self.beg[self.inv]
        return int(self.beg[self.inv[x]])

    def valences(self):
        return np.bincount(self.beg, minlength=self.n)

    def darts_by_vertex(self):
        """CSR-style (indptr, darts sorted by initial vertex)."""
        key = "csr"
        if key not in self._cache:
            order = np.argsort(self.beg, kind="stable")
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.beg, minlength=self.n), out=indptr[1:])
            self._cache[key] = (indptr, order.astype(DTYPE))
        return self._cache[key]

    def edges(self):
        """Positive dart of each edge (min of the inv-orbit), ascending."""
        key = "edges"
        if key not in self._cache:
            pos = np.nonzero(np.arange(self.m, dtype=DTYPE) <= self.inv)[0]
            self._cache[key] = pos.astype(DTYPE)
        return self._cache[key]

    def edge_index(self):
        """Array mapping each dart to its edge id (edges() order)."""
        key = "edge_index"
        if key not in self._cache:
            pos = self.edges()
            idx = np.empty(self.m, dtype=DTYPE)
            idx[pos] = np.arange(len(pos), dtype=DTYPE)
            idx[self.inv[pos]] = np.arange(len(pos), dtype=DTYPE)
            self._cache[key] = idx
        return self._cache[key]

    def semiedge_darts(self):
        return np.nonzero(self.inv == np.arange(self.m, dtype=DTYPE))[0]

    def is_connected(self):
        _, layers = self.spanning_tree()
        return 1 + sum(len(vs) for vs, _ in layers) == self.n

    def spanning_tree(self):
        """Breadth-first tree of vertex 0's component, darts explored in id
        order, cached: ``(parent_dart, layers)``.  parent_dart[v] is the dart
        from v's parent to v (-1 at the root and off the component); layers
        holds one (vertices, parent darts) pair per distance 1, 2, ..., in
        order of discovery, which is the order of the vertex-by-vertex search.
        """
        key = "tree"
        if key not in self._cache:
            parent = np.full(self.n, -1, dtype=DTYPE)
            seen = np.zeros(self.n, dtype=bool)
            seen[0] = True
            ends = self.end()
            indptr, darts = self.darts_by_vertex()
            layers = []
            frontier = np.zeros(1, dtype=DTYPE)
            while True:
                out = darts[csr_rows(indptr, frontier)]
                out = out[~seen[ends[out]]]
                _, first = np.unique(ends[out], return_index=True)
                via = out[np.sort(first)]
                if not len(via):
                    break
                frontier = ends[via]
                seen[frontier] = True
                parent[frontier] = via
                layers.append((frontier, via))
            self._cache[key] = (parent, tuple(layers))
        return self._cache[key]


def csr_rows(indptr, rows):
    """Positions of the entries of the given CSR rows, row after row."""
    if len(rows) == 1:
        r = int(rows[0])
        return np.arange(indptr[r], indptr[r + 1])
    lens = indptr[rows + 1] - indptr[rows]
    total = int(lens.sum())
    offs = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(indptr[rows], lens) + offs


@dataclass(frozen=True)
class StructuralProfile:
    connected: bool
    simple: bool
    valences: tuple
    semiedges: int
    loops: int
    parallel_classes: int


@dataclass(frozen=True)
class GraphCertificate:
    data: bytes


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_simple_edges(n, edge_list):
    """Graph of a simple graph given by unordered vertex pairs."""
    norm = []
    seen = set()
    for u, v in edge_list:
        u, v = int(u), int(v)
        if u == v:
            raise GraphError("self-pair {%d,%d} not allowed in a simple graph" % (u, v))
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError("edge endpoint out of range: (%d,%d)" % (u, v))
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError("duplicate edge {%d,%d}" % key)
        seen.add(key)
        norm.append(key)
    norm.sort()
    m = 2 * len(norm)
    beg = np.empty(m, dtype=DTYPE)
    inv = np.empty(m, dtype=DTYPE)
    for k, (u, v) in enumerate(norm):
        beg[2 * k] = u
        beg[2 * k + 1] = v
        inv[2 * k] = 2 * k + 1
        inv[2 * k + 1] = 2 * k
    return Graph(n, beg, inv)


def doubled_cycle(n):
    """Cycle on n vertices with every edge doubled; dart (i,eps,j) -> 4i+2eps+j."""
    if n < 1:
        raise GraphError("doubled cycle needs n >= 1")
    m = 4 * n
    beg = np.repeat(np.arange(n, dtype=DTYPE), 4)
    inv = np.empty(m, dtype=DTYPE)
    for i in range(n):
        for eps in (0, 1):
            for j in (0, 1):
                x = 4 * i + 2 * eps + j
                target_i = (i + (1 if eps == 0 else -1)) % n
                inv[x] = 4 * target_i + 2 * (1 - eps) + j
    return Graph(n, beg, inv)


def four_semiedge_vertex():
    """Single vertex with four semiedges."""
    return Graph(1, np.zeros(4, dtype=DTYPE), np.arange(4, dtype=DTYPE))


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def structural_profile(g: Graph) -> StructuralProfile:
    from hatd4.canon import dart_table

    u, w, kind, _, size = dart_table(g).classes().T
    semi = int(size[kind == 0].sum())
    loops = int(size[(kind == 1) & (u == w)].sum()) // 2
    # the class from u to a larger w holds one dart of each of their edges
    parallel = int(np.count_nonzero((kind == 1) & (u < w) & (size >= 2)))
    simple = semi == 0 and loops == 0 and parallel == 0
    return StructuralProfile(
        connected=g.is_connected(),
        simple=simple,
        valences=tuple(sorted(int(v) for v in g.valences())),
        semiedges=semi,
        loops=loops,
        parallel_classes=parallel,
    )


def certificate(g: Graph, known_gens=()) -> GraphCertificate:
    """Canonical byte certificate; equal certificates iff isomorphic graphs.

    known_gens, vertex permutations of a group known to act on g, speed up
    the search and leave the certificate unchanged (see `canon.canonical`).
    """
    if not g.is_connected():
        raise GraphError("certificate requires a connected graph")
    from hatd4 import canon

    return GraphCertificate(canon.canonical(g, known_gens=known_gens).cert)


# ---------------------------------------------------------------------------
# normal forms for non-simple tetravalent edge-transitive graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DoubledCycleForm:
    n: int
    vertex_map: tuple  # this graph -> doubled_cycle(n)
    dart_map: tuple


@dataclass(frozen=True)
class FourSemiedgesForm:
    dart_map: tuple


NOT_APPLICABLE = "not-applicable"


def classify_nonsimple_tetravalent_et(g: Graph, action):
    """Match a connected tetravalent edge-transitive graph against the two
    non-simple normal forms (doubled cycle / four semiedges).

    Returns DoubledCycleForm, FourSemiedgesForm, or NOT_APPLICABLE for a
    simple graph.  The action must be edge-transitive; this is checked.
    """
    from hatd4 import canon, symmetry

    prof = structural_profile(g)
    if not prof.connected:
        raise GraphError("classification requires a connected graph")
    if set(prof.valences) != {4}:
        raise GraphError("classification requires a tetravalent graph")
    tp = symmetry.transitivity_profile(g, action)
    if not tp.edge_transitive:
        raise GraphError("classification requires an edge-transitive action")
    if prof.simple:
        return NOT_APPLICABLE
    if prof.semiedges:
        if g.n == 1 and g.m == 4 and prof.semiedges == 4:
            return FourSemiedgesForm(dart_map=(0, 1, 2, 3))
        raise GraphError("connected tetravalent edge-transitive semiedge graph "
                         "must be the single-vertex form")
    target = doubled_cycle(g.n)
    iso = canon.isomorphism(g, target)
    if iso is None:
        raise GraphError("non-simple edge-transitive graph matches no normal form")
    vmap, dmap = iso
    return DoubledCycleForm(n=g.n, vertex_map=tuple(vmap), dart_map=tuple(dmap))


# ---------------------------------------------------------------------------
# dart-table file format
# ---------------------------------------------------------------------------


def read_graph(path) -> Graph:
    """Read the dart-table format (or the `simple` edge-list variant)."""
    mode = None
    n = m = None
    darts = {}  # dart -> (beg, inv); arrays are built once every line is read
    edges = []
    for lineno, line in read_lines(path):
        parts = line.split()
        if mode is None:
            if parts[0] == "graph" and len(parts) == 3:
                mode = "graph"
                n, m = parse_ints(parts[1:], path, lineno)
            elif parts[0] == "simple" and len(parts) == 2:
                mode = "simple"
                n = parse_ints(parts[1:], path, lineno)[0]
            else:
                raise GraphError("%s:%d: expected 'graph <n> <m>' or 'simple <n>'"
                                 % (path, lineno))
            if not (1 <= n <= MAX_ID and 0 <= (m or 0) <= MAX_ID):
                raise GraphError("%s:%d: need 1..%d vertices and 0..%d darts"
                                 % (path, lineno, MAX_ID, MAX_ID))
            continue
        if mode == "simple":
            if len(parts) != 2:
                raise GraphError("%s:%d: expected '<u> <v>'" % (path, lineno))
            edges.append(parse_ints(parts, path, lineno))
            continue
        if len(parts) != 3:
            raise GraphError("%s:%d: expected '<dart> <beg> <inv>'" % (path, lineno))
        x, b, y = parse_ints(parts, path, lineno)
        if not (0 <= x < m):
            raise GraphError("%s:%d: dart id %d out of range" % (path, lineno, x))
        if x in darts:
            raise GraphError("%s:%d: duplicate dart %d" % (path, lineno, x))
        if not (0 <= b < n):
            raise GraphError("%s:%d: beg %d out of range" % (path, lineno, b))
        if not (0 <= y < m):
            raise GraphError("%s:%d: inv %d out of range" % (path, lineno, y))
        darts[x] = (b, y)
    if mode is None:
        raise GraphError("%s: empty graph file" % path)
    if mode == "simple":
        return from_simple_edges(n, edges)
    if len(darts) != m:
        missing = next(x for x in range(m) if x not in darts)
        raise GraphError("%s: dart %d has no line" % (path, missing))
    beg = np.array([darts[x][0] for x in range(m)], dtype=DTYPE)
    inv = np.array([darts[x][1] for x in range(m)], dtype=DTYPE)
    bad = np.nonzero(inv[inv] != np.arange(m, dtype=DTYPE))[0]
    if bad.size:
        raise GraphError("%s: inv not involution at dart %d" % (path, int(bad[0])))
    return Graph(n, beg, inv)


def write_graph(g: Graph, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("graph %d %d\n" % (g.n, g.m))
        for x in range(g.m):
            fh.write("%d %d %d\n" % (x, int(g.beg[x]), int(g.inv[x])))
