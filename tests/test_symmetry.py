import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatd4 import canon
from hatd4.graphs import (Graph, GraphError, doubled_cycle, four_semiedge_vertex,
                          from_simple_edges)
from hatd4.perms import PermGroup, StabChain, is_dihedral_8
from hatd4.symmetry import (ARC_TRANSITIVE, HALF_ARC_TRANSITIVE, OTHER, Digraph,
                            GraphAction, aut_group, digraph_aut,
                            extract_digraph, is_relevant_pair,
                            transitivity_profile)
from tests.conftest import random_arcs, random_simple_connected, vertex_automorphisms


def brute_vertex_aut_count(g):
    ends = g.end()
    adj = np.zeros((g.n, g.n), dtype=int)
    for x in range(g.m):
        adj[g.beg[x], ends[x]] += 1
    count = 0
    for perm in itertools.permutations(range(g.n)):
        pm = np.array(perm)
        if np.array_equal(adj[np.ix_(pm, pm)], adj):
            count += 1
    return count


def rotation_action(g, vmap):
    dmap = canon.extend_vertex_map_to_darts(g, g, np.asarray(vmap, dtype=np.int32))
    return GraphAction.from_vertex_dart(g, [(np.asarray(vmap, dtype=np.int32), dmap)])


def test_aut_small_graphs_vs_brute_force():
    rng = random.Random(23)
    for _ in range(30):
        g = random_simple_connected(rng, 3, 8)
        assert aut_group(g).group.order() == brute_vertex_aut_count(g)


def test_aut_action_compatibility():
    g = from_simple_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    act = aut_group(g)
    for perm in act.group.gens:
        vp, dp = act.split(perm)
        assert np.array_equal(vp[g.beg], g.beg[dp])
        assert np.array_equal(dp[g.inv], g.inv[dp])


def test_aut_group_is_cached_per_graph():
    """A second call returns the first call's action; a disconnected graph
    raises on every call and caches nothing."""
    pentagon = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
    g = from_simple_edges(5, pentagon)
    assert aut_group(g) is aut_group(g)
    assert aut_group(g) is not aut_group(from_simple_edges(5, pentagon))
    two = from_simple_edges(4, [(0, 1), (2, 3)])
    for _ in range(2):
        with pytest.raises(GraphError, match="connected"):
            aut_group(two)


def test_triangle_profiles():
    tri = from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])
    full = aut_group(tri)
    assert full.group.order() == 6
    assert transitivity_profile(tri, full).classification == ARC_TRANSITIVE
    rot = rotation_action(tri, [1, 2, 0])
    prof = transitivity_profile(tri, rot)
    assert prof.vertex_transitive and prof.edge_transitive
    assert not prof.dart_transitive
    assert prof.classification == HALF_ARC_TRANSITIVE


def test_path_profile_other():
    path = from_simple_edges(3, [(0, 1), (1, 2)])
    act = aut_group(path)
    assert transitivity_profile(path, act).classification == OTHER


def test_holt_profile(holt_graph):
    act = aut_group(holt_graph)
    prof = transitivity_profile(holt_graph, act)
    assert prof.classification == HALF_ARC_TRANSITIVE
    # derived observation recorded by the suite: |Aut| = 2 * 27
    assert act.group.order() == 54


def test_extract_digraph_triangle():
    tri = from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])
    rot = rotation_action(tri, [1, 2, 0])
    dig = extract_digraph(tri, rot)
    assert int(dig.arcs.sum()) == 3
    assert np.all(dig.out_valences() == 1)
    # the chosen orbit contains the minimal dart id
    assert dig.arcs[0]


def test_extract_digraph_holt(holt_graph):
    act = aut_group(holt_graph)
    dig = extract_digraph(holt_graph, act)
    assert np.all(dig.out_valences() == 2)
    full = aut_group(holt_graph)
    with pytest.raises(GraphError):
        extract_digraph(from_simple_edges(3, [(0, 1), (1, 2), (0, 2)]),
                        aut_group(from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])))


def test_extract_digraph_rejects_semiedges():
    fs = four_semiedge_vertex()
    act = aut_group(fs)
    with pytest.raises(GraphError):
        extract_digraph(fs, act)


def consistently_oriented(n):
    g = doubled_cycle(n)
    arcs = np.zeros(g.m, dtype=bool)
    for i in range(n):
        arcs[4 * i] = True
        arcs[4 * i + 1] = True
    return g, arcs


def test_doubled_cycle_digraph_orders():
    for n, want in [(1, 2), (2, 8), (3, 24), (4, 64), (5, 160)]:
        g, arcs = consistently_oriented(n)
        assert digraph_aut(Digraph(g, arcs)).order() == want, n


def test_digraph_aut_vs_brute_force():
    """Random simple graphs with a random arc set: a simple graph has no
    vertex-fixing dart maps, so the group's order is the number of vertex
    permutations that keep the arcs."""
    rng = random.Random(31)
    for _ in range(40):
        g = random_simple_connected(rng, 3, 7)
        arcs = random_arcs(g, rng)
        assert digraph_aut(Digraph(g, arcs)).order() == len(vertex_automorphisms(g, arcs))


def test_lifted_order_that_is_not_reached_raises(monkeypatch):
    """A known order the lifted chain cannot reach is an error, not a
    smaller group reported as the automorphism group."""
    real = canon.local_dart_gens

    def inflated(g, arcs=None):
        gens, order = real(g, arcs)
        return gens, 2 * order

    monkeypatch.setattr(canon, "local_dart_gens", inflated)
    with pytest.raises(GraphError, match="order"):
        aut_group(doubled_cycle(3))
    with pytest.raises(GraphError, match="order"):
        digraph_aut(Digraph(*consistently_oriented(3)))


def test_generated_rejects_an_order_its_generators_miss():
    """The doubled 3-cycle's automorphism group, of order 48, less its first
    generator generates a group of order 16: an error, not order 48."""
    g = doubled_cycle(3)
    aut = aut_group(g)
    assert GraphAction.generated(g, aut.group.gens, 48).group.order() == 48
    with pytest.raises(GraphError, match="order 16"):
        GraphAction.generated(g, aut.group.gens[1:], 48)


def test_digraph_invariant_one_dart_per_edge():
    g, arcs = consistently_oriented(3)
    dig = Digraph(g, arcs)
    hit = dig.arcs.astype(int) + dig.arcs[g.inv].astype(int)
    assert np.all(hit == 1)
    bad = arcs.copy()
    bad[0] = False
    with pytest.raises(GraphError):
        Digraph(g, bad)


def test_digraph_aut_subgroup_of_full_aut():
    g, arcs = consistently_oriented(4)
    full = aut_group(g)
    sub = digraph_aut(Digraph(g, arcs))
    for gen in sub.gens:
        assert full.group.contains(gen)


def test_relevant_pair_negative_cases(holt_graph, base_pair_42):
    # Holt graph with its full group: stabiliser order 2, not relevant
    act = aut_group(holt_graph)
    assert not is_relevant_pair(holt_graph, act)
    # doubled cycle: not simple, profile fails relevance
    dc = doubled_cycle(5)
    assert not is_relevant_pair(dc, aut_group(dc))
    # the order-42 pair is relevant
    graph, action = base_pair_42
    assert is_relevant_pair(graph, action)
    stab = action.group.point_stabiliser(0)
    assert stab.order() == 8 and is_dihedral_8(stab)
    assert action.group.order() == 8 * graph.n


def test_table1_row1_aut_order(base_pair_42):
    graph, action = base_pair_42
    aut = aut_group(graph)
    assert aut.group.order() == 672
    assert transitivity_profile(graph, aut).classification == ARC_TRANSITIVE


# ---------------------------------------------------------------------------
# the dart lift against brute force
# ---------------------------------------------------------------------------


@st.composite
def connected_dart_graphs(draw):
    """(graph, arcs): a random connected dart graph on at most 4 vertices
    with loops, parallel links and semiedges, and a random arc set (one
    dart of each edge) when it has no semiedges, else None."""
    n = draw(st.integers(1, 4))
    edges = [(draw(st.integers(0, v - 1)), v, False) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                     st.booleans()), max_size=4))
    edges = draw(st.permutations(edges))
    beg, inv, arcs = [], [], []
    for u, w, semi in edges:
        x = len(beg)
        if semi:
            beg.append(u)
            inv.append(x)
        else:
            beg.extend([u, w])
            inv.extend([x + 1, x])
            first = draw(st.booleans())
            arcs.extend([first, not first])
    g = Graph(n, beg, inv)
    return g, (np.array(arcs, dtype=bool) if len(arcs) == g.m else None)


def brute_automorphisms(g):
    """Every (vertex map, dart map) pair that commutes with beg and inv: each
    vertex permutation, extended dart by dart."""
    out = []
    dmap = [-1] * g.m
    beg, inv = g.beg.tolist(), g.inv.tolist()

    def extend(vp, x):
        if x == g.m:
            out.append((vp, np.array(dmap, dtype=np.int64)))
            return
        if dmap[x] >= 0:
            extend(vp, x + 1)
            return
        for y in range(g.m):
            if y in dmap or beg[y] != vp[beg[x]] or (inv[x] == x) != (inv[y] == y):
                continue
            if inv[x] != x and (inv[y] in dmap or beg[inv[y]] != vp[beg[inv[x]]]):
                continue
            dmap[x], dmap[inv[x]] = y, inv[y]
            extend(vp, x + 1)
            dmap[x] = dmap[inv[x]] = -1

    for vp in itertools.permutations(range(g.n)):
        extend(np.array(vp), 0)
    return out


def digraph_aut_by_enumeration(dig):
    """The arc-preserving elements of Aut(g), listed and filtered, generated
    by those that grow a chain (digraph_aut's former route for graphs that
    are not simple)."""
    g = dig.underlying
    els, _ = aut_group(g).group.elements()
    keeps_arcs = dig.arcs[els[:, np.nonzero(dig.arcs)[0] + g.n] - g.n]
    kept = els[np.all(keeps_arcs, axis=1)]
    chain = StabChain(g.n + g.m, [])
    grew = []
    for x in kept:
        if chain.order() == len(kept):
            break
        if chain.add(x):
            grew.append(x)
    return PermGroup(g.n + g.m, grew, known_order=len(kept))


def check_lift(g, vmap, arcs):
    dmap = canon.extend_vertex_map_to_darts(g, g, vmap, arcs)
    assert dmap is not None
    assert np.array_equal(g.beg[dmap], np.asarray(vmap)[g.beg])
    assert np.array_equal(g.inv[dmap], dmap[g.inv])
    assert arcs is None or np.array_equal(arcs[dmap], arcs)


@settings(max_examples=150, deadline=None)
@given(connected_dart_graphs())
def test_dart_lift_matches_brute_force(case):
    g, arcs = case
    auts = brute_automorphisms(g)
    act = aut_group(g)
    assert act.group.order() == len(auts)
    ident = np.arange(g.n)
    assert canon.local_dart_gens(g)[1] == sum(np.array_equal(vp, ident) for vp, _ in auts)
    for vp, _ in auts:
        check_lift(g, vp, None)
    if arcs is None:
        return
    kept = [vp for vp, dp in auts if np.array_equal(arcs[dp], arcs)]
    dig = digraph_aut(Digraph(g, arcs))
    assert dig.order() == len(kept)
    ref = digraph_aut_by_enumeration(Digraph(g, arcs))
    assert dig.order() == ref.order()
    assert all(ref.contains(x) for x in dig.gens) and all(dig.contains(x) for x in ref.gens)
    assert canon.local_dart_gens(g, arcs)[1] == sum(np.array_equal(vp, ident) for vp in kept)
    for vp in kept:
        check_lift(g, vp, arcs)
