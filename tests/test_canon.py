"""Partition-backtrack search seeded with known automorphisms, equitable
refinement, certificates against networkx, the cached dart table, the
breadth-first spanning tree and the structural profile."""

from __future__ import annotations

import random
from collections import deque

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatd4 import canon
from hatd4 import census as CE
from hatd4.graphs import Graph, GraphError, certificate, structural_profile
from hatd4.perms import PermGroup
from hatd4.symmetry import Digraph, aut_group, digraph_aut
from tests.conftest import (random_arcs, random_simple_connected, relabel_graph,
                            vertex_automorphisms)


def fresh(g):
    """A copy of g with an empty cache, so that each search runs anew."""
    return Graph(g.n, g.beg, g.inv)


def vertex_gens(action):
    n = action.graph.n
    return [h[:n] for h in action.group.gens]


def skeleton_order(res, n):
    return PermGroup(n, res.aut_gens).order() if res.aut_gens else 1


def check_seeding(g, known, arcs=None):
    """Seeded and unseeded searches agree on the certificate, on the order
    of the group their automorphisms generate and, without arcs, on the
    order of `aut_group`; returns both results."""
    h1, h2 = fresh(g), fresh(g)
    plain = canon.canonical(h1, arcs=arcs)
    seeded = canon.canonical(h2, arcs=arcs, known_gens=known)
    assert seeded.cert == plain.cert
    assert skeleton_order(seeded, g.n) == skeleton_order(plain, g.n)
    if arcs is None:
        assert aut_group(h2).group.order() == aut_group(h1).group.order()
    return plain, seeded


# ---------------------------------------------------------------------------
# census pairs, seeded with their own group
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pairs_m300():
    """The census base pairs at M=300 and their level-1 covers."""
    cfg = CE.CensusConfig(max_order=300)
    p0, _ = CE.base_pairs(cfg)
    return p0 + CE.expand_level(p0, cfg, 1)


def test_seeded_search_matches_unseeded_on_census_pairs(pairs_m300):
    assert sorted(p.graph.n for p in pairs_m300)[:3] == [42, 84, 90]
    assert len(pairs_m300) == 15
    for pair in pairs_m300:
        g = pair.graph
        known = vertex_gens(pair.action)
        plain, seeded = check_seeding(g, known)
        assert seeded.leaves <= plain.leaves
        assert (certificate(fresh(g), known_gens=known).data
                == certificate(fresh(g)).data == pair.certificate())


def test_seeding_prunes_the_order_42_pair(base_pair_42):
    g, action = base_pair_42
    known = vertex_gens(action)
    plain, seeded = check_seeding(g, known)
    assert seeded.leaves < plain.leaves
    # discovered automorphisms come first, the known ones after them
    k = len(known)
    assert all(np.array_equal(a, b) for a, b in zip(seeded.aut_gens[-k:], known))


def test_cache_key_ignores_seeds(base_pair_42):
    g, action = base_pair_42
    h = fresh(g)
    seeded = canon.canonical(h, known_gens=vertex_gens(action))
    assert canon.canonical(h) is seeded


def test_frame_orbits_rebuilt_only_for_new_automorphisms(monkeypatch):
    calls = []
    orbit_labels = canon.orbit_labels
    monkeypatch.setattr(canon, "orbit_labels",
                        lambda *args: calls.append(args) or orbit_labels(*args))
    n = 8
    rot = (np.arange(n) + 1) % n
    refl = (-np.arange(n)) % n
    times3 = (3 * np.arange(n)) % n
    fr = canon._Frame(None, "eq")
    # no automorphism fixes the prefix yet, so there are no orbits to build
    assert fr.orbits(n, [rot], [0]) is None and not calls
    gens = [rot, refl]
    orb = fr.orbits(n, gens, [0])
    assert orb.tolist() == [0, 1, 2, 3, 4, 3, 2, 1]
    assert fr.orbits(n, gens, [0]) is orb and len(calls) == 1
    gens.append(times3)
    assert fr.orbits(n, gens, [0]).tolist() == [0, 1, 2, 1, 4, 1, 2, 1]
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# relabelled circulant multigraphs seeded with their rotation
# ---------------------------------------------------------------------------


def circulant(n, jumps, loops, semis):
    """Dart graph of a circulant multigraph on Z_n with `loops` loops and
    `semis` semiedges at every vertex, and its arc set (the dart v -> v+j
    of every link, one dart of every loop, every semiedge)."""
    beg, inv, arcs = [], [], []

    def add(vs, arc):
        ids = list(range(len(beg), len(beg) + len(vs)))
        beg.extend(vs)
        inv.extend(ids)
        arcs.extend([arc] * len(vs))
        return ids

    verts = list(range(n))
    for j in jumps:
        fwd = add(verts, True)
        back = fwd if 2 * j == n else add([(v + j) % n for v in verts], False)
        for v in verts:
            x, y = fwd[v], back[(v + j) % n if 2 * j == n else v]
            inv[x], inv[y] = y, x
    for _ in range(loops):
        a, b = add(verts, True), add(verts, False)
        for x, y in zip(a, b):
            inv[x], inv[y] = y, x
    for _ in range(semis):
        add(verts, True)
    return Graph(n, beg, inv), np.array(arcs, dtype=bool)


@st.composite
def seeded_circulants(draw):
    n = draw(st.integers(3, 12))
    jumps = [1] + draw(st.lists(st.integers(1, n // 2), max_size=3))
    g, arcs = circulant(n, jumps, draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    vp = np.array(draw(st.permutations(range(n))), dtype=np.int32)
    dp = np.array(draw(st.permutations(range(g.m))), dtype=np.int32)
    dinv = np.empty_like(dp)
    dinv[dp] = np.arange(g.m, dtype=np.int32)
    h = Graph(n, vp[g.beg[dinv]], dp[g.inv[dinv]])
    rot = np.empty(n, dtype=np.int32)
    rot[vp] = vp[(np.arange(n) + 1) % n]
    refl = np.empty(n, dtype=np.int32)
    refl[vp] = vp[(-np.arange(n)) % n]
    return g, arcs, h, arcs[dinv], rot, refl


@settings(max_examples=60, deadline=None)
@given(seeded_circulants(), st.booleans())
def test_seeded_circulants_match_unseeded(case, reflect):
    g, arcs, h, harcs, rot, refl = case
    known = [rot, refl] if reflect else [rot]
    plain, seeded = check_seeding(h, known)
    assert seeded.cert == canon.canonical(fresh(g)).cert
    assert seeded.leaves <= plain.leaves
    # the rotation also keeps the arc set; the reflection reverses it
    _, seeded_arcs = check_seeding(h, [rot], arcs=harcs)
    assert seeded_arcs.cert == canon.canonical(fresh(g), arcs=arcs).cert


# ---------------------------------------------------------------------------
# the first path is a base
# ---------------------------------------------------------------------------


def test_first_path_is_a_base():
    """On the random graphs of test_aut_small_graphs_vs_brute_force, with
    and without a random arc set, the only automorphism that fixes every
    vertex of CanonResult.base is the identity."""
    rng = random.Random(23)
    for _ in range(30):
        g = random_simple_connected(rng, 3, 8)
        for arcs in (None, random_arcs(g, rng)):
            base = canon.canonical(g, arcs=arcs).base
            auts = vertex_automorphisms(g, arcs)
            fixing = auts[np.all(auts[:, base] == base, axis=1)]
            assert np.array_equal(fixing, [np.arange(g.n)])


# ---------------------------------------------------------------------------
# seeds that are not automorphisms
# ---------------------------------------------------------------------------


def test_seed_that_is_not_an_automorphism_raises():
    c5, c5arcs = circulant(5, [1], 0, 0)
    rot = (np.arange(5) + 1) % 5
    refl = (-np.arange(5)) % 5
    with pytest.raises(GraphError, match="edges"):
        canon.canonical(c5, known_gens=[rot, [1, 0, 2, 3, 4]])
    with pytest.raises(GraphError, match="edges"):
        certificate(fresh(c5), known_gens=[[1, 0, 2, 3, 4]])
    with pytest.raises(GraphError, match="arcs"):
        canon.canonical(fresh(c5), arcs=c5arcs, known_gens=[refl])
    with pytest.raises(GraphError, match="permutation"):
        canon.canonical(fresh(c5), known_gens=[[0, 0, 1, 2, 3]])
    with pytest.raises(GraphError, match="permutation"):
        canon.canonical(fresh(c5), known_gens=[rot[:4]])
    # a semiedge at vertex 0 only: the rotation keeps the cycle's edges but
    # moves the semiedge's vertex to one without a semiedge
    beg = np.concatenate([c5.beg, [0]])
    inv = np.concatenate([c5.inv, [c5.m]])
    with pytest.raises(GraphError, match="kind"):
        canon.canonical(Graph(5, beg, inv), known_gens=[rot])
    # the identity is dropped, not checked against anything
    assert canon.canonical(fresh(c5), known_gens=[np.arange(5)]).cert == \
        canon.canonical(fresh(c5)).cert


def test_dart_table_cached_per_graph_and_arcs(monkeypatch):
    g, arcs = circulant(6, [1, 2], 2, 0)
    plain = canon.dart_table(g)
    assert canon.dart_table(g) is plain
    directed = canon.dart_table(g, arcs)
    assert directed is not plain and canon.dart_table(g, arcs.copy()) is directed
    darts = np.arange(g.m)
    for t in (plain, directed):
        # every dart once, in classes of equal keys, ascending
        assert np.array_equal(np.sort(t.order), darts)
        assert np.all(t.key[1:] >= t.key[:-1])
        assert np.all((t.start <= darts) & (darts < t.stop))
        assert np.array_equal(t.key[t.start], t.key) and np.array_equal(t.key[t.stop - 1], t.key)
        inner = t.start > 0
        assert np.all(t.key[t.start[inner] - 1] != t.key[inner])
    # without arcs the two darts of each loop are one class; with them, two
    loops = (g.beg == g.end()) & (g.inv != darts)
    for t, together in ((plain, True), (directed, False)):
        key = np.empty(g.m, dtype=t.key.dtype)
        key[t.order] = t.key
        assert np.all((key[loops] == key[g.inv[loops]]) == together)
    with pytest.raises(GraphError, match="one dart"):
        canon.dart_table(g, np.ones(g.m, dtype=bool))
    # the skeleton view and the dart lifts of `digraph_aut` share one table
    builds = []

    class Counted(canon._DartTable):
        def __init__(self, g, arcs):
            builds.append(g)
            super().__init__(g, arcs)

    monkeypatch.setattr(canon, "_DartTable", Counted)
    g, arcs = circulant(5, [1], 0, 0)  # the oriented 5-cycle
    assert digraph_aut(Digraph(g, arcs)).order() == 5
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# spanning tree and connectivity
# ---------------------------------------------------------------------------


def component_size_by_loop(g, start):
    """Size of the component of start, by depth-first search."""
    seen = {start}
    stack = [start]
    ends = g.end()
    while stack:
        v = stack.pop()
        for x in np.nonzero(g.beg == v)[0]:
            w = int(ends[x])
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def tree_by_queue(g):
    """The vertex-by-vertex breadth-first search that `Graph.spanning_tree`
    replaced: (parent dart per vertex, order of discovery)."""
    parent_dart = np.full(g.n, -1, dtype=np.int32)
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    order = [0]
    ends = g.end()
    indptr, darts = g.darts_by_vertex()
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for x in darts[indptr[v] : indptr[v + 1]]:
            w = int(ends[x])
            if not seen[w]:
                seen[w] = True
                parent_dart[w] = x
                order.append(w)
    return parent_dart, order


@st.composite
def dart_graphs(draw, max_n=14, max_edges=20):
    """Random dart graphs, disconnected ones included: links, loops and
    semiedges between random vertices."""
    n = draw(st.integers(1, max_n))
    beg, inv = [], []
    for u, w, semi in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                              st.integers(0, n - 1),
                                              st.booleans()), max_size=max_edges)):
        x = len(beg)
        if semi:
            beg.append(u)
            inv.append(x)
        else:
            beg.extend([u, w])
            inv.extend([x + 1, x])
    return Graph(n, np.array(beg, dtype=np.int32), np.array(inv, dtype=np.int32))


@settings(max_examples=150, deadline=None)
@given(dart_graphs())
def test_spanning_tree_matches_queue_search(g):
    """Same parents and discovery order as the queue, disconnected graphs
    included; one cached tree; connectivity as depth-first search finds it."""
    parent, layers = g.spanning_tree()
    want_parent, want_order = tree_by_queue(g)
    assert np.array_equal(parent, want_parent)
    assert [0] + [int(v) for vs, _ in layers for v in vs] == want_order
    for vs, ts in layers:
        assert vs.dtype == ts.dtype == parent.dtype == np.int32
        assert np.array_equal(parent[vs], ts)
    assert g.spanning_tree() is g.spanning_tree()
    assert g.is_connected() == (component_size_by_loop(g, 0) == g.n)


@settings(max_examples=150, deadline=None)
@given(dart_graphs())
def test_structural_profile_matches_edge_loop(g):
    loops, pair_count = 0, {}
    for x in map(int, g.edges()):
        u, w = int(g.beg[x]), g.end(x)
        if int(g.inv[x]) == x:
            continue
        if u == w:
            loops += 1
        else:
            key = (min(u, w), max(u, w))
            pair_count[key] = pair_count.get(key, 0) + 1
    prof = structural_profile(g)
    assert prof.semiedges == sum(int(g.inv[x]) == x for x in range(g.m))
    assert prof.loops == loops
    assert prof.parallel_classes == sum(c >= 2 for c in pair_count.values())


# ---------------------------------------------------------------------------
# refinement reaches an equitable partition
# ---------------------------------------------------------------------------


@st.composite
def graphs_with_arcs(draw, **sizes):
    """A random dart graph, and either no arc set or a random set of darts.
    Such a set may hold both darts of an edge or neither, so the arcs in
    and out of a vertex do not follow from its edges and the other layer."""
    g = draw(dart_graphs(**sizes))
    if not draw(st.booleans()):
        return g, None
    return g, np.array(draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m)), dtype=bool)


def layer_counts(g, arcs):
    """The edges between each two distinct vertices and the arcs from each
    vertex to another, as n x n matrices."""
    link = (g.inv != np.arange(g.m)) & (g.beg != g.end())
    und = np.zeros((g.n, g.n), dtype=np.int64)
    np.add.at(und, (g.beg[link], g.end()[link]), 1)
    out = np.zeros((g.n, g.n), dtype=np.int64)
    if arcs is not None:
        np.add.at(out, (g.beg[link & arcs], g.end()[link & arcs]), 1)
    return und, out


@settings(max_examples=150, deadline=None)
@given(graphs_with_arcs())
def test_refined_root_partition_is_equitable(case):
    """After refining the root partition, every vertex of a cell has the
    same number of edges, of arcs out and of arcs in to each cell."""
    g, arcs = case
    view = canon._View(g, arcs=arcs)
    part = canon._Partition.from_ranks(view.base_rank)
    canon._refine(part, view, deque(part.lab[s:e].tolist() for s, e in zip(*part.cells())))
    assert np.array_equal(part.pos[part.lab], np.arange(g.n))
    starts, ends = part.cells()
    member = np.zeros((g.n, len(starts)), dtype=np.int64)
    for c, (s, e) in enumerate(zip(starts, ends)):
        assert np.all(part.cstart[s:e] == s)
        member[part.lab[s:e], c] = 1
    und, out = layer_counts(g, arcs)
    for layer in (und, out, out.T):
        counts = layer @ member
        for s, e in zip(starts, ends):
            cell = counts[part.lab[s:e]]
            assert np.all(cell == cell[0])


@settings(max_examples=200, deadline=None)
@given(graphs_with_arcs(max_n=5, max_edges=14))
def test_view_rows_match_dart_counts(case):
    """The skeleton view's rows, counted dart by dart: per vertex the
    semiedges, loops, arc loop darts and arc semiedges, per unordered pair
    of distinct vertices the links, per ordered pair the arc links."""
    g, arcs = case
    view = canon._View(g, arcs=arcs)
    base = np.zeros((g.n, 5), dtype=np.int64)
    links, arc_links = {}, {}
    for x in range(g.m):
        u, w, y = int(g.beg[x]), g.end(x), int(g.inv[x])
        arc = arcs is not None and bool(arcs[x])
        if x == y:
            base[u, 1] += 1
            base[u, 4] += arc
        elif u == w:
            base[u, 2] += x < y
            base[u, 3] += arc
        else:
            if x < y:
                links[min(u, w), max(u, w)] = links.get((min(u, w), max(u, w)), 0) + 1
            if arc:
                arc_links[u, w] = arc_links.get((u, w), 0) + 1
    assert np.array_equal(view.base_tuple, base)
    ranks = {t: r for r, t in enumerate(sorted(set(map(tuple, base.tolist()))))}
    assert view.base_rank.tolist() == [ranks[tuple(t)] for t in base.tolist()]
    for rows, want in (((view.eu, view.ew, view.emult), links),
                       ((view.au, view.aw, view.amult), arc_links)):
        assert [r.dtype for r in rows] == [np.int32, np.int32, np.int64]
        assert list(zip(*(r.tolist() for r in rows))) == [(a, b, k) for (a, b), k in sorted(want.items())]


# ---------------------------------------------------------------------------
# certificates against networkx
# ---------------------------------------------------------------------------


def nx_graph(g):
    """g as a networkx graph: the multiplicity of each pair of distinct
    adjacent vertices on its edge, semiedge and loop counts on the vertices."""
    out = nx.Graph()
    for v in range(g.n):
        out.add_node(v, semis=0, loops=0)
    for x in range(g.m):
        u, w, y = int(g.beg[x]), int(g.end()[x]), int(g.inv[x])
        if x == y:
            out.nodes[u]["semis"] += 1
        elif u == w:
            out.nodes[u]["loops"] += x < y
        elif x < y:
            mult = out.edges[u, w]["mult"] + 1 if out.has_edge(u, w) else 1
            out.add_edge(u, w, mult=mult)
    return out


def nx_isomorphic(g1, g2):
    return nx.is_isomorphic(nx_graph(g1), nx_graph(g2),
                            node_match=lambda a, b: a == b,
                            edge_match=lambda a, b: a["mult"] == b["mult"])


@settings(max_examples=200, deadline=None)
@given(dart_graphs(max_n=6, max_edges=9), dart_graphs(max_n=6, max_edges=9),
       st.randoms(use_true_random=False))
def test_certificates_agree_with_networkx(g1, g2, rng):
    """Certificates are equal exactly when networkx finds the multigraphs
    (loops, parallel edges and semiedges counted) isomorphic."""
    for other in (relabel_graph(g1, rng), g2):
        same = canon.canonical(g1).cert == canon.canonical(other).cert
        assert same == nx_isomorphic(g1, other)
