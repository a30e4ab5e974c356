"""Normal quotients, covering projections, and voltage covers.

Quotients of a graph by a group of automorphisms are taken orbit-wise on
vertices and darts; the projection is a covering exactly when the group is
semiregular on vertices (the equivalence the test suite exercises).
Regular covers over GF(p)^d are built from voltage assignments with
inverse-dart antisymmetry; cover vertices and darts are indexed
lexicographically by (base index, vector in little-endian base-p order).
`fibre_index` is the one place that encoding is computed: the derived
cover, the translations and the lifted automorphisms all map fibres
through it.  The last two lift whole vertex+dart permutations in one
call: point n + x of the base (dart x) has fibre ids
(n + x) p^d + e = n p^d + x p^d + e, the ids of the cover's dart points.
Voltages need not vanish on any tree: `tree_potential` integrates dart
values along the breadth-first tree that `Graph.spanning_tree` builds once
per graph and caches, and its residual is what connectivity and lifting
are decided on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hatd4 import gfp
from hatd4.graphs import DTYPE, MAX_ID, Graph, GraphError, parse_ints, read_lines
from hatd4.perms import PermGroup, inverse, is_semiregular, orbit_labels
from hatd4.symmetry import GraphAction


class CoverError(GraphError):
    pass


@dataclass(frozen=True)
class Projection:
    source: Graph
    target: Graph
    vertex_map: np.ndarray
    dart_map: np.ndarray

    def __post_init__(self):
        vm = np.asarray(self.vertex_map, dtype=DTYPE)
        dm = np.asarray(self.dart_map, dtype=DTYPE)
        s, t = self.source, self.target
        if len(vm) != s.n or len(dm) != s.m:
            raise CoverError("projection maps do not match the source graph")
        if len(np.unique(vm)) != t.n or len(np.unique(dm)) != t.m:
            raise CoverError("projection must be surjective on vertices and darts")
        if not np.array_equal(t.beg[dm], vm[s.beg]):
            raise CoverError("projection does not commute with beg")
        if not np.array_equal(t.inv[dm], dm[s.inv]):
            raise CoverError("projection does not commute with inv")
        object.__setattr__(self, "vertex_map", vm)
        object.__setattr__(self, "dart_map", dm)

    def fibre_sizes(self):
        return np.bincount(self.vertex_map, minlength=self.target.n)


def identity_projection(g: Graph) -> Projection:
    return Projection(g, g, np.arange(g.n, dtype=DTYPE), np.arange(g.m, dtype=DTYPE))


def compose(p2: Projection, p1: Projection) -> Projection:
    """p2 after p1 (target of p1 must be the source of p2)."""
    if p1.target != p2.source:
        raise CoverError("projections do not compose: target/source mismatch")
    return Projection(p1.source, p2.target,
                      p2.vertex_map[p1.vertex_map], p2.dart_map[p1.dart_map])


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def _orbit_ids(degree, gens):
    """Orbit label per point (labels dense, ordered by minimal element)."""
    reps, ids = np.unique(orbit_labels(degree, gens), return_inverse=True)
    return ids.astype(DTYPE), reps


def quotient(g: Graph, action: GraphAction):
    """Quotient graph by the orbits of the acting group, with its projection."""
    if action.graph != g:
        raise CoverError("action does not act on this graph")
    gens = action.group.gens
    vids, _ = _orbit_ids(g.n, [p[: g.n] for p in gens])
    dids, dreps = _orbit_ids(g.m, [p[g.n :] - g.n for p in gens]) if g.m else (
        np.zeros(0, dtype=DTYPE), np.zeros(0, dtype=DTYPE))
    nq = int(vids.max()) + 1 if g.n else 0
    mq = len(dreps)
    beg_q = np.empty(mq, dtype=DTYPE)
    inv_q = np.empty(mq, dtype=DTYPE)
    beg_q[dids] = vids[g.beg]
    inv_q[dids] = dids[g.inv]
    quot = Graph(nq, beg_q, inv_q)
    return quot, Projection(g, quot, vids, dids)


def is_covering(proj: Projection) -> bool:
    """Local bijectivity of the dart restriction at every vertex."""
    s, t = proj.source, proj.target
    if not (s.is_connected() and t.is_connected()):
        raise CoverError("covering test requires connected graphs")
    at_vertex = s.beg.astype(np.int64) * t.m + proj.dart_map
    return (len(np.unique(at_vertex)) == s.m
            and np.array_equal(s.valences(), t.valences()[proj.vertex_map]))


@dataclass(frozen=True)
class LemmaNQReport:
    semiregular: bool
    valence_preserving: bool
    covering: bool


def check_lemma_nq(g: Graph, action: GraphAction) -> LemmaNQReport:
    """The three independently computed quotient predicates (their
    equivalence is what the randomized suite asserts)."""
    if not g.is_connected():
        raise CoverError("quotient predicates require a connected graph")
    semiregular = is_semiregular(action.group, range(g.n))
    quot, proj = quotient(g, action)
    val_ok = bool(np.all(g.valences() == quot.valences()[proj.vertex_map]))
    covering = is_covering(proj)
    return LemmaNQReport(semiregular, val_ok, covering)


def quotient_group_action(big: GraphAction, normal: GraphAction, proj: Projection) -> GraphAction:
    """Faithful action of G/N on the quotient graph along a covering quotient.

    Checks normality of N in G, that proj is the covering quotient by N, and
    that the induced action has order |G|/|N| (faithfulness).
    """
    g = big.graph
    if normal.graph != g:
        raise CoverError("subgroup acts on a different graph")
    if not is_covering(proj):
        raise CoverError("quotient projection is not a covering")
    for ngen in normal.group.gens:
        if not big.group.contains(ngen):
            raise CoverError("N is not contained in G")
    for ggen in big.group.gens:
        ginv = inverse(ggen)
        for ngen in normal.group.gens:
            conj = ggen[ngen[ginv]]
            if not normal.group.contains(conj):
                raise CoverError("N is not normal in G")
    quot = proj.target
    t = np.concatenate([proj.vertex_map, proj.dart_map + quot.n])
    induced = []
    for ggen in big.group.gens:
        out = np.full(quot.n + quot.m, -1, dtype=DTYPE)
        out[t] = t[ggen]
        if np.any(out < 0) or not np.array_equal(out[t], t[ggen]):
            raise CoverError("group action does not descend to the quotient")
        induced.append(out)
    want = big.group.order() // normal.group.order()
    grp = PermGroup(quot.n + quot.m, induced, known_order=want)
    if grp.order() != want:
        raise CoverError("quotient action is not faithful: %d != %d"
                         % (grp.order(), want))
    return GraphAction(quot, grp)


# ---------------------------------------------------------------------------
# voltage assignments and derived covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VoltageAssignment:
    base: Graph
    p: int
    d: int
    volt: np.ndarray  # (m, d) entries mod p

    def __post_init__(self):
        g = self.base
        if g.semiedge_darts().size:
            raise CoverError("voltage base graphs must not have semiedges")
        v = gfp.normalize(self.volt, self.p).reshape(g.m, self.d)
        if np.any((v + v[g.inv]) % self.p):
            raise CoverError("voltages must negate along inverse darts")
        object.__setattr__(self, "volt", v)


def tree_potential(g: Graph, delta, p):
    """Potentials and residual of the dart values delta (m x d, mod p) on a
    connected graph: ``(s, res)``.

    s (n x d) integrates delta along the cached breadth-first tree
    (`Graph.spanning_tree`) from s = 0 at vertex 0, so that
    s[end t] = s[beg t] + delta[t] on every tree dart t.  res[x] is
    s[beg x] + delta[x] - s[end x], the net value of delta around the
    fundamental closed walk through x; it is zero on tree darts, and
    delta is a potential difference iff res is zero.
    """
    if not g.is_connected():
        raise CoverError("tree potentials require a connected graph")
    _, layers = g.spanning_tree()
    s = np.zeros((g.n, delta.shape[1]), dtype=np.int64)
    for vs, ts in layers:
        s[vs] = (s[g.beg[ts]] + delta[ts]) % p
    return s, (s[g.beg] + delta - s[g.end()]) % p


def spanning_tree_mask(g: Graph):
    """Boolean mask of the tree darts (both darts of each tree edge) of a
    connected graph."""
    if not g.is_connected():
        raise CoverError("spanning tree requires a connected graph")
    parent_dart, _ = g.spanning_tree()
    mask = np.zeros(g.m, dtype=bool)
    used = parent_dart[parent_dart >= 0]
    mask[used] = True
    mask[g.inv[used]] = True
    return mask


def base_p_digits(p, d):
    """(q x d table of the base-p digits of 0..q-1, place values), q = p^d,
    little-endian: row k @ place values == k."""
    powers = p ** np.arange(d, dtype=np.int64)
    return (np.arange(p**d, dtype=np.int64)[:, None] // powers) % p, powers


def fibre_index(ids, shifts, p, d, qmat=None):
    """Cover indices of the fibres over ids, mapped by a -> a Q + shifts[i].

    Row i, column k of the (len(ids), p^d) result, flattened row-major, is
    ids[i] * p^d + enc((a_k Q + shifts[i]) mod p), where a_k is the k-th
    vector of GF(p)^d in little-endian base-p order and Q is qmat (the
    identity if None).  shifts broadcasts to (len(ids), d).
    """
    vecs, powers = base_p_digits(p, d)
    if qmat is not None:
        vecs = vecs @ qmat % p
    ids = np.asarray(ids, dtype=np.int64)
    shifts = np.broadcast_to(shifts, (len(ids), d))
    # one digit at a time: a matmul with powers would run numpy's slow
    # integer product on an (ids, p^d, d) stack
    enc = np.repeat(ids[:, None] * p**d, p**d, axis=1)
    for j in range(d):
        enc += (vecs[None, :, j] + shifts[:, j, None]) % p * powers[j]
    return enc.reshape(-1).astype(DTYPE)


def derived_cover(zeta: VoltageAssignment):
    """Derived graph of a voltage assignment, with the forgetful projection.

    Cover vertex (v, a) gets index v*p^d + enc(a), little-endian digits;
    dart (x, a) starts at (beg x, a) and its inverse is (inv x, a + zeta(x)).

    The base graph is connected, so the cover is connected iff the local
    group at vertex 0 (the net voltages of its closed walks) is all of
    GF(p)^d (Gross & Tucker, Topological Graph Theory, 1987, 2.5).  That
    group is spanned by the net voltages of the fundamental cycles, the
    residual of `tree_potential`, so the check is one rank over GF(p) and
    the cover itself is never searched.  Tree darts may carry voltages.
    """
    g = zeta.base
    p, d = zeta.p, zeta.d
    q = p**d
    span = gfp.rank(tree_potential(g, zeta.volt, p)[1], p)
    if span != d:
        raise CoverError(
            "voltages span only a %d-dimensional subspace of GF(%d)^%d; cover disconnected"
            % (span, p, d)
        )
    n2 = g.n * q
    m2 = g.m * q
    beg2 = fibre_index(g.beg, 0, p, d)
    inv2 = fibre_index(g.inv, zeta.volt, p, d)
    cover = Graph(n2, beg2, inv2)
    vm = (np.arange(n2, dtype=np.int64) // q).astype(DTYPE)
    dm = (np.arange(m2, dtype=np.int64) // q).astype(DTYPE)
    return cover, Projection(cover, g, vm, dm)


def translation_action(zeta: VoltageAssignment, cover: Graph) -> GraphAction:
    """The GF(p)^d translation group acting on the derived cover: generator i
    adds the i-th unit vector in every fibre."""
    g = zeta.base
    p, d = zeta.p, zeta.d
    gens = [fibre_index(np.arange(g.n + g.m), unit, p, d)
            for unit in np.eye(d, dtype=np.int64)]
    return GraphAction(cover, PermGroup(cover.n + cover.m, gens, known_order=p**d))


# ---------------------------------------------------------------------------
# voltage files
# ---------------------------------------------------------------------------


def read_voltages(path, base: Graph) -> VoltageAssignment:
    p = d = None
    volt = None
    for lineno, line in read_lines(path, CoverError):
        parts = line.split()
        if p is None:
            if parts[0] != "voltage" or len(parts) != 3:
                raise CoverError("%s:%d: expected 'voltage <p> <d>'" % (path, lineno))
            p, d = parse_ints(parts[1:], path, lineno, CoverError)
            # more coordinates than edges never give a connected cover
            if not (2 <= p <= MAX_ID and 0 <= d <= len(base.edges())):
                raise CoverError("%s:%d: need 2 <= p <= %d and 0 <= d <= %d"
                                 % (path, lineno, MAX_ID, len(base.edges())))
            # voltages live in the vector space GF(p)^d
            if not gfp.is_prime(p):
                raise CoverError("%s:%d: %d is not a prime" % (path, lineno, p))
            volt = np.zeros((base.m, d), dtype=np.int64)
            continue
        if len(parts) != d + 1:
            raise CoverError("%s:%d: expected dart id and %d coordinates"
                             % (path, lineno, d))
        x, *coords = parse_ints(parts, path, lineno, CoverError)
        if not (0 <= x < base.m):
            raise CoverError("%s:%d: dart %d out of range" % (path, lineno, x))
        if x > int(base.inv[x]):
            raise CoverError("%s:%d: voltages belong on the smaller dart of an edge"
                             % (path, lineno))
        vec = np.array([c % p for c in coords], dtype=np.int64)
        volt[x] = vec
        volt[base.inv[x]] = (-vec) % p
    if p is None:
        raise CoverError("%s: empty voltage file" % path)
    return VoltageAssignment(base, p, d, volt)


def write_voltages(zeta: VoltageAssignment, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("voltage %d %d\n" % (zeta.p, zeta.d))
        for x in map(int, zeta.base.edges()):
            if np.any(zeta.volt[x]):
                fh.write("%d %s\n" % (x, " ".join(str(int(c)) for c in zeta.volt[x])))
