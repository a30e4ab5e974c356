import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from hatd4.perms import (GroupError, PermGroup, StabChain, check_perm, compose,
                         derived_subgroup, from_cycles, identity_perm, inverse,
                         is_dihedral_8, is_elementary_abelian, is_semiregular,
                         is_solvable, normal_closure, orbit_labels, perm_order,
                         write_group_file, read_group_file)
from tests.conftest import BAD_TOKENS, file_bytes


def S(n, *cycles_list):
    return PermGroup(n, [from_cycles(n, [c]) for c in cycles_list])


@pytest.fixture(scope="module")
def s4():
    return S(4, (0, 1), (0, 1, 2, 3))


@pytest.fixture(scope="module")
def a5():
    return S(5, (0, 1, 2, 3, 4), (2, 3, 4))


def test_group_orders(s4, a5, catalog):
    assert s4.order() == 24
    assert a5.order() == 60
    assert catalog["pgl_2_7"].order() == 336  # q(q-1)(q+1) at q = 7


def test_orbits(s4):
    triv = PermGroup(5, [])
    assert triv.orbit(3) == {3}
    z5 = S(5, (0, 1, 2, 3, 4))
    assert z5.orbit(0) == {0, 1, 2, 3, 4}
    assert sorted(map(sorted, s4.orbits())) == [[0, 1, 2, 3]]


def test_point_stabiliser(s4):
    st0 = s4.point_stabiliser(0)
    assert st0.order() == 6
    assert all(g[0] == 0 for g in st0.gens)
    # semiregular group: trivial stabilisers
    sr = S(4, ((0, 1), (2, 3))) if False else PermGroup(
        4, [from_cycles(4, [(0, 1), (2, 3)])])
    assert sr.point_stabiliser(2).order() == 1


def test_point_stabiliser_reads_the_group_chain(catalog):
    """At the first base point of a group's chain, the stabiliser's
    generators are that chain's level-1 generators, which are the ones a
    second chain on the point and the same base finds."""
    anchored = 0
    for grp in catalog.values():
        ch = grp.chain()
        point = ch.levels[0].base
        stab = grp.point_stabiliser(point)
        twin = StabChain(grp.degree, grp.gens, base=(point, *ch.base()), known_order=grp.order())
        assert twin.levels[0].base == point
        assert [g.tolist() for g in stab.gens] == \
            [g.tolist() for g in PermGroup(grp.degree, twin.stabiliser_gens(1)).gens]
        assert stab.order() * len(ch.levels[0].orbit) == grp.order()
        anchored += point == 0
    assert anchored == 24


@pytest.mark.parametrize("point", [-1, 4, 7, 2**70])
def test_points_out_of_range_raise(point):
    """A point outside 0..degree-1 is refused, not wrapped round (-1 would
    read point 3) or sifted towards a base point it never reaches."""
    g = PermGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])
    calls = [lambda: g.orbit(point), lambda: g.orbits([0, point]),
             lambda: g.point_stabiliser(point), lambda: is_semiregular(g, [point, 0])]
    for call in calls:
        with pytest.raises(GroupError, match="out of range"):
            call()


def test_orbit_stabiliser_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = int(rng.integers(4, 9))
        gens = [np.array(rng.permutation(deg), dtype=np.int32) for _ in range(2)]
        g = PermGroup(deg, gens)
        p = int(rng.integers(0, deg))
        assert len(g.orbit(p)) * g.point_stabiliser(p).order() == g.order()


def test_membership(s4):
    assert s4.contains(identity_perm(4))
    assert s4.contains(from_cycles(4, [(1, 2, 3)]))
    z3 = S(4, (0, 1, 2))
    assert not z3.contains(from_cycles(4, [(0, 1)]))
    with pytest.raises(GroupError):
        s4.contains(identity_perm(5))


def test_membership_vs_enumeration():
    g = S(6, (0, 1, 2, 3, 4, 5), (0, 1))
    els, _ = g.elements()
    rng = np.random.default_rng(3)
    sub = S(6, (0, 1, 2), (3, 4, 5))
    _, sub_locate = sub.elements()
    for _ in range(40):
        w = els[int(rng.integers(0, len(els)))]
        assert g.contains(w)
        assert sub.contains(w) == (sub_locate(w) >= 0)


def _bfs_reference(g):
    """Breadth-first enumeration with a dict of row bytes (test oracle)."""
    rows = [identity_perm(g.degree)]
    seen = {rows[0].tobytes()}
    frontier = rows[:]
    while frontier:
        fresh = []
        for h in g.gens:
            for x in frontier:
                y = h[x]
                if y.tobytes() not in seen:
                    seen.add(y.tobytes())
                    fresh.append(y)
        rows += fresh
        frontier = fresh
    return np.stack(rows)


def test_locate_round_trips_and_rejects_base_lookalikes(catalog):
    # 14 disjoint transpositions: 28**14 overflows int64, so rows are keyed
    # by the bytes of their base images instead
    wide = PermGroup(28, [from_cycles(28, [(2 * i, 2 * i + 1)]) for i in range(14)])
    for g in (wide, catalog["psl_2_17"]):
        els, locate = g.elements()
        assert np.array_equal(els, _bfs_reference(g))
        assert np.array_equal(locate(els), np.arange(len(els)))
        assert np.array_equal(locate(els[None, ::-1]), np.arange(len(els))[None, ::-1])
        # same base images as an element, swapped images off the base
        base = g.chain().base()
        i, j = [x for x in range(g.degree) if x not in base][:2]
        fakes = els[:50].copy()
        fakes[:, [i, j]] = fakes[:, [j, i]]
        assert not any(g.contains(f) for f in fakes)
        assert np.all(locate(fakes) == -1)
    assert wide.elements()[1](from_cycles(28, [(0, 2)])) == -1


def test_chain_and_elements_built_once_per_group(monkeypatch):
    """One stabiliser chain and one enumeration (one element key) per group."""
    from hatd4 import perms

    built = []
    real = perms._base_key
    monkeypatch.setattr(perms, "_base_key", lambda *a: built.append(a) or real(*a))
    g = S(5, (0, 1, 2, 3, 4), (2, 3, 4))
    assert g.chain() is g.chain()
    first = g.elements()
    assert g.elements() is first and len(built) == 1
    assert not first[0].flags.writeable


def test_closure_membership_random_products(s4):
    rng = np.random.default_rng(1)
    w = identity_perm(4)
    for _ in range(10):
        w = compose(w, s4.gens[int(rng.integers(0, len(s4.gens)))])
        assert s4.contains(w)


def test_semiregular():
    assert is_semiregular(PermGroup(3, []), [0, 1, 2])
    fpf = PermGroup(4, [from_cycles(4, [(0, 1), (2, 3)])])
    assert is_semiregular(fpf, [0, 1, 2, 3])
    fixer = S(3, (0, 1))
    assert not is_semiregular(fixer, [0, 1, 2])
    with pytest.raises(GroupError):
        is_semiregular(fixer, [])


def test_semiregular_orbit_size_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(20):
        deg = int(rng.integers(3, 8))
        g = PermGroup(deg, [np.array(rng.permutation(deg), dtype=np.int32)])
        points = list(range(deg))
        expected = all(len(g.orbit(p)) == g.order() for p in points)
        assert is_semiregular(g, points) == expected


def test_solvability(s4, a5, catalog):
    assert is_solvable(s4)
    assert not is_solvable(a5)
    assert not is_solvable(catalog["pgl_2_7"])
    # p-groups are solvable
    d4 = S(4, (0, 1, 2, 3), (0, 2))
    assert is_solvable(d4)
    # a group with an A5 section
    s5 = S(5, (0, 1), (0, 1, 2, 3, 4))
    assert not is_solvable(s5)


def test_dihedral_recognition():
    d4 = S(4, (0, 1, 2, 3), (0, 2))
    assert d4.order() == 8 and is_dihedral_8(d4)
    z8 = S(8, tuple(range(8)))
    assert not is_dihedral_8(z8)
    klein3 = PermGroup(6, [from_cycles(6, [(0, 1)]), from_cycles(6, [(2, 3)]),
                           from_cycles(6, [(4, 5)])])
    assert not is_dihedral_8(klein3)  # abelian of order 8


def test_q8_is_not_dihedral():
    # Q8 as a regular permutation group of degree 8 via left multiplication
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("i", "i"): "-1", ("i", "j"): "k", ("i", "k"): "-j",
            ("j", "1"): "j", ("j", "i"): "-k", ("j", "j"): "-1", ("j", "k"): "i",
            ("k", "1"): "k", ("k", "i"): "j", ("k", "j"): "-i", ("k", "k"): "-1"}

    def mul(x, y):
        s = 1
        if x.startswith("-"):
            s, x = -s, x[1:]
        if y.startswith("-"):
            s, y = -s, y[1:]
        z = base[(x, y)]
        return z if s > 0 else ("-" + z if not z.startswith("-") else z[1:])

    uidx = {u: i for i, u in enumerate(units)}
    q8 = PermGroup(8, [np.array([uidx[mul(g, v)] for v in units], dtype=np.int32)
                       for g in ("i", "j")])
    assert q8.order() == 8
    assert not is_dihedral_8(q8)


def test_elementary_abelian():
    assert is_elementary_abelian(PermGroup(4, []))
    klein = PermGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(2, 3)])])
    assert is_elementary_abelian(klein)
    z4 = S(4, (0, 1, 2, 3))
    assert not is_elementary_abelian(z4)
    z6 = S(6, tuple(range(6)))
    assert not is_elementary_abelian(z6)
    z3z3 = PermGroup(6, [from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(3, 4, 5)])])
    assert is_elementary_abelian(z3z3)


def test_normal_closure(s4, a5):
    triv = normal_closure(s4, [identity_perm(4)])
    assert triv.order() == 1
    klein = normal_closure(s4, [from_cycles(4, [(0, 1), (2, 3)])])
    assert klein.order() == 4
    whole = normal_closure(a5, [from_cycles(5, [(0, 1, 2)])])
    assert whole.order() == 60  # simple group
    with pytest.raises(GroupError):
        normal_closure(PermGroup(4, [from_cycles(4, [(0, 1, 2)])]),
                       [from_cycles(4, [(0, 1)])])


def test_normal_closure_sifts_new_schreier_pairs():
    # <(0 2), (0 3 1)> is S4; the closure of a 4-cycle in it is all of S4
    g = S(4, (0, 2), (0, 3, 1))
    assert normal_closure(g, [from_cycles(4, [(0, 3, 1, 2)])]).order() == 24


def test_a5_pair_is_not_solvable():
    a5 = S(5, (0, 3, 1, 4, 2), (0, 3, 4, 2, 1))
    assert a5.order() == 60
    assert not is_solvable(a5)


@st.composite
def small_groups(draw):
    """A group with 2-3 generators of degree at most 7, and 1-2 seed
    elements given as words in the generators."""
    deg = draw(st.integers(1, 7))
    gens = [np.array(x, dtype=np.int32) for x in
            draw(st.lists(st.permutations(range(deg)), min_size=2, max_size=3))]
    words = draw(st.lists(st.lists(st.integers(0, len(gens) - 1), max_size=4),
                          min_size=1, max_size=2))
    seeds = []
    for word in words:
        w = identity_perm(deg)
        for i in word:
            w = compose(w, gens[i])
        seeds.append(w)
    return deg, gens, seeds


def _sympy_perms(perms):
    return [Permutation([int(x) for x in p]) for p in perms]


@given(small_groups())
@settings(max_examples=300, deadline=None)
def test_closures_and_solvability_match_sympy(case):
    deg, gens, seeds = case
    g = PermGroup(deg, gens)
    ref = PermutationGroup(_sympy_perms(gens))
    assert g.order() == ref.order()
    closure = ref.normal_closure(PermutationGroup(_sympy_perms(seeds)))
    assert normal_closure(g, seeds).order() == closure.order()
    assert derived_subgroup(g).order() == ref.derived_subgroup().order()
    assert is_solvable(g) == ref.is_solvable


def test_unreached_known_order_keeps_its_one_chain(monkeypatch):
    built = []
    real = StabChain.__init__
    monkeypatch.setattr(StabChain, "__init__",
                        lambda self, *a, **k: built.append(a) or real(self, *a, **k))
    s4 = S(4, (0, 1), (0, 1, 2, 3))
    g = PermGroup(4, s4.gens, known_order=48)
    assert g.order() == 24 and len(built) == 1
    assert g.contains(from_cycles(4, [(1, 3)]))


def test_normal_closure_builds_one_chain(monkeypatch):
    g = S(5, (0, 1, 2, 3, 4), (2, 3, 4))
    g.order()
    built = []
    real = StabChain.__init__
    monkeypatch.setattr(StabChain, "__init__",
                        lambda self, *a, **k: built.append(a) or real(self, *a, **k))
    closure = normal_closure(g, [from_cycles(5, [(0, 1, 2)])])
    assert closure.order() == 60 and closure.contains(from_cycles(5, [(1, 2, 3)]))
    assert len(built) == 1


def _point_queue(gens, tree, first=0):
    """The Schreier tree a point-by-point queue builds (oracle).  tree maps
    each point of an orbit, in orbit order, to (depth, the point it was
    reached from, the generator that reached it); generators first.. are
    new.  They are applied to every point in turn, then every generator to
    each point that joins, in (point, generator) order."""
    tree = dict(tree)
    queue = []
    for x in list(tree):
        for k in range(first, len(gens)):
            y = int(gens[k][x])
            if y not in tree:
                tree[y] = (tree[x][0] + 1, x, k)
                queue.append(y)
    for x in queue:
        for k, g in enumerate(gens):
            y = int(g[x])
            if y not in tree:
                tree[y] = (tree[x][0] + 1, x, k)
                queue.append(y)
    return tree


def _schreier_tree(lev):
    """The same triple for each orbit point of a chain level, checking that
    every tree edge is the generator it names."""
    tree = {lev.base: (0, -1, -1)}
    for x in map(int, lev.orbit):
        if x != lev.base:
            up, k = int(lev.parent[x]), int(lev.via[x])
            assert int(lev.gens[k][up]) == x
            tree[x] = (tree[up][0] + 1, up, k)
    return tree


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4))))
@settings(max_examples=200, deadline=None)
def test_schreier_trees_are_breadth_first(case):
    n, gens = case
    gens = [np.array(g, dtype=np.int32) for g in gens]
    ch = StabChain(n, gens)
    movers = [g for g in gens if np.any(g != np.arange(n))]
    if not movers:
        assert ch.levels == []
        return
    # level 0 holds the generators and is built in one breadth-first pass
    lev = ch.levels[0]
    assert lev.base == int(np.flatnonzero(movers[0] != np.arange(n))[0])
    want = _point_queue(movers, {lev.base: (0, -1, -1)})
    assert _schreier_tree(lev) == want
    for lev in ch.levels:
        # later levels grow as residues join them; each tree still spans
        # exactly the orbit of the level's generators
        orbit = _point_queue(lev.gens, {lev.base: (0, -1, -1)})
        assert set(_schreier_tree(lev)) == set(orbit)
        assert np.count_nonzero(lev.via != -2) == len(lev.orbit)


@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.permutations(range(n)), st.permutations(range(n)))))
@settings(max_examples=200, deadline=None)
def test_orbit_extension_matches_point_queue(case):
    n, a, b = case
    ch = StabChain(n, [np.array(a, dtype=np.int32)])
    if not ch.levels:
        return
    lev = ch.levels[0]
    before = _schreier_tree(lev)
    if ch.add(np.array(b, dtype=np.int32)):
        assert _schreier_tree(lev) == _point_queue(lev.gens, before, first=1)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3),
    st.lists(st.permutations(range(n)), min_size=1, max_size=4))))
@settings(max_examples=200, deadline=None)
def test_order_and_membership_match_sympy(case):
    n, gens, probes = case
    gens = [np.array(g, dtype=np.int32) for g in gens]
    ref = PermutationGroup(_sympy_perms(gens))
    for known in (None, ref.order()):
        g = PermGroup(n, gens, known_order=known)
        assert g.order() == ref.order()
        for x in probes:
            assert g.contains(np.array(x, dtype=np.int32)) == ref.contains(Permutation(x))
        for x in gens:
            assert g.contains(x)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3),
    st.lists(st.permutations(range(n)), min_size=1, max_size=4),
    st.permutations(range(n)), st.integers(0, n))))
@settings(max_examples=300, deadline=None)
def test_chain_on_a_given_base_matches_sympy(case):
    """A chain that sifts on the images of a given base: the base of an
    unguided chain plus extra points, all shuffled."""
    n, gens, probes, shuffle, extra = case
    gens = [np.array(g, dtype=np.int32) for g in gens]
    ref = PermutationGroup(_sympy_perms(gens))
    points = set(StabChain(n, gens).base()) | set(shuffle[:extra])
    base = [x for x in shuffle if x in points]
    for known in (None, ref.order()):
        ch = StabChain(n, gens, base=base, known_order=known)
        assert ch.order() == ref.order()
        assert all(b in base for b in ch.base())
        for x in probes:
            assert ch.contains(np.array(x, dtype=np.int32)) == ref.contains(Permutation(x))
        assert all(ch.contains(x) for x in gens)


def _chain_digest(ch):
    return [(lev.base, lev.orbit.tolist(), lev.via.tolist(), lev.parent.tolist(),
             [g.tolist() for g in lev.gens]) for lev in ch.levels]


def _close_pair_by_pair(ch):
    """Sift every pending Schreier pair in full, one at a time, deepest
    level first (reference for the batched sift on base images)."""
    while not ch.complete:
        i = len(ch.levels) - 1
        while i >= 0 and ch.levels[i].cursor == len(ch.levels[i].pending):
            i -= 1
        if i < 0:
            ch._drop_pairs()
            return
        lev = ch.levels[i]
        pt, k = lev.pending[lev.cursor]
        lev.cursor += 1
        u = ch._transversal(lev, int(pt))
        w = lev.gens[k] if u is None else lev.gens[k][u]
        resid, j = ch._strip(w, i)
        if not np.array_equal(resid, np.arange(ch.degree)):
            ch._install(i + 1, j, [resid])


@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), min_size=1, max_size=3),
    st.permutations(range(n)))))
@settings(max_examples=200, deadline=None)
def test_base_image_sift_builds_the_pair_by_pair_chain(case):
    n, gens, base = case
    gens = [np.array(g, dtype=np.int32) for g in gens]
    batched = StabChain(n, gens, base=base)
    real = StabChain._close
    StabChain._close = _close_pair_by_pair
    try:
        single = StabChain(n, gens, base=base)
    finally:
        StabChain._close = real
    assert _chain_digest(batched) == _chain_digest(single)


def test_base_sift_on_the_symmetric_group():
    """S8 from an 8-cycle and a transposition on a base that repeats a
    point; its first level is the first base point, and seven levels fix
    every point."""
    gens = [from_cycles(8, [tuple(range(8))]), from_cycles(8, [(0, 1)])]
    ch = StabChain(8, gens, base=[5, 2, 5, 7, 0, 1, 3, 6, 4])
    assert ch.order() == math.factorial(8)
    assert ch.base()[0] == 5 and len(set(ch.base())) == len(ch.base()) == 7


def test_points_that_are_not_a_base_raise():
    """A generator or an added element that fixes every base point."""
    with pytest.raises(GroupError):
        StabChain(4, [from_cycles(4, [(2, 3)]), from_cycles(4, [(0, 1)])], base=[2])
    ch = StabChain(4, [from_cycles(4, [(2, 3)])], base=[2])
    with pytest.raises(GroupError):
        ch.add(from_cycles(4, [(0, 1)]))


def test_chain_at_known_order_keeps_no_pairs():
    gens = [from_cycles(7, [tuple(range(7))]), from_cycles(7, [(0, 1)])]
    full = StabChain(7, gens, known_order=5040)
    assert full.complete and full.order() == 5040
    assert all(len(lev.pending) == 0 for lev in full.levels)
    closed = StabChain(7, gens)
    assert not closed.complete and closed.order() == 5040
    assert all(len(lev.pending) == 0 for lev in closed.levels)


def test_lifted_level0_tree_is_shallow(base_pair_42):
    from hatd4.homology import minimal_admissible_covers

    graph, action = base_pair_42
    (lp,) = minimal_admissible_covers(graph, action, 42 * 251, primes=[251])
    assert lp.action.group.order() == 251 * 336
    tree = _schreier_tree(lp.action.group.chain().levels[0])
    # sifting the generators in turn made this tree 1761 deep
    assert max(depth for depth, _, _ in tree.values()) <= 200


def test_stab_chain_add():
    ch = StabChain(4, [])
    assert ch.add(from_cycles(4, [(0, 1, 2, 3)]))
    assert not ch.add(from_cycles(4, [(0, 2), (1, 3)]))
    assert ch.order() == 4
    assert ch.add(from_cycles(4, [(0, 1)])) and ch.order() == 24
    assert not ch.add(identity_perm(4))
    full = StabChain(4, [from_cycles(4, [(0, 1, 2)])], known_order=3)
    assert not full.add(from_cycles(4, [(0, 2, 1)]))
    with pytest.raises(GroupError):
        full.add(from_cycles(4, [(0, 1)]))


def _bfs_orbit(degree, gens, point):
    """Breadth-first orbit of one point, one generator at a time (oracle)."""
    seen = np.zeros(degree, dtype=bool)
    seen[point] = True
    frontier = [point]
    out = [point]
    while frontier:
        pts = np.array(frontier, dtype=np.int32)
        frontier = []
        for g in gens:
            imgs = g[pts]
            new = imgs[~seen[imgs]]
            if new.size:
                new = np.unique(new)
                new = new[~seen[new]]
                seen[new] = True
                out.extend(int(x) for x in new)
                frontier.extend(int(x) for x in new)
    return set(out)


def _bfs_labels(degree, gens):
    return np.array([min(_bfs_orbit(degree, gens, x)) for x in range(degree)])


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.permutations(range(n)), max_size=4), st.integers(0, 4))))
@settings(max_examples=150, deadline=None)
def test_orbit_labels_match_bfs(case):
    n, gens, k = case
    gens = [np.array(g, dtype=np.int32) for g in gens]
    want = _bfs_labels(n, gens)
    assert np.array_equal(orbit_labels(n, gens), want)
    # starting from the labels of the subgroup the first k generators generate
    start = _bfs_labels(n, gens[:k]).astype(np.int32)
    assert np.array_equal(orbit_labels(n, gens, start), want)
    grp = PermGroup(n, gens)
    for x in range(n):
        assert grp.orbit(x) == _bfs_orbit(n, gens, x)


def test_perm_order():
    assert perm_order(from_cycles(6, [(0, 1, 2), (3, 4)])) == 6
    assert perm_order(identity_perm(5)) == 1
    # cycles of the first 16 primes: an order far beyond 2^63, kept exact
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    starts = np.cumsum([0] + primes)
    big = from_cycles(int(starts[-1]), [tuple(range(a, b)) for a, b in zip(starts, starts[1:])])
    assert perm_order(big) == math.prod(primes) > 2**63


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
@settings(max_examples=200, deadline=None)
def test_perm_order_matches_sympy(p):
    assert perm_order(np.array(p, dtype=np.int32)) == Permutation(p).order()


def test_catalog_roundtrip(tmp_path, catalog):
    g = catalog["psl_2_17"]
    path = tmp_path / "g.grp"
    write_group_file(g, path)
    h = read_group_file(path)
    assert h.order() == 2448 and h.degree == 18


def test_catalog_rejects_wrong_order(tmp_path):
    path = tmp_path / "bad.grp"
    path.write_text("group bad\ndegree 3\norder 5\ngen 1 2 0\n")
    with pytest.raises(GroupError, match="order"):
        read_group_file(path)


@st.composite
def group_files(draw):
    """The bytes of a group file of degree at most 5: lines built from its
    directives, valid or not, and now and then a byte that is not UTF-8."""
    deg = draw(st.integers(1, 5))
    number = st.one_of(st.integers(0, 6).map(str), BAD_TOKENS)
    line = st.one_of(
        st.just("degree %d" % deg),
        number.map("degree {}".format),
        st.one_of(st.integers(1, 120).map(str), BAD_TOKENS).map("order {}".format),
        st.permutations(range(deg)).map(lambda p: "gen " + " ".join(map(str, p))),
        st.lists(number, max_size=6).map(lambda t: "gen " + " ".join(t)),
        st.text(max_size=8).map("group {}".format),
        st.sampled_from(["", "# note", "gen 0 # one image", "GEN 0", "degree3", "gen\t0"]),
    )
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        lines.insert(0, "degree %d" % deg)
    return file_bytes(draw, lines)


@given(group_files())
@settings(max_examples=400, deadline=None)
def test_read_group_file_loads_or_raises_group_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.grp"
        path.write_bytes(data)
        try:
            g = read_group_file(path)
        except GroupError:
            return
        assert all(len(x) == g.degree for x in g.gens)


def test_catalog_orders(catalog):
    want = {"psl_2_7": 168, "pgl_2_7": 336, "alt_6": 360, "sym_6": 720,
            "pgl_2_9": 720, "m10": 720, "psl_2_17": 2448, "alt_8": 20160,
            "sym_8": 40320}
    for name, order in want.items():
        assert catalog[name].order() == order


def test_membership_brute_force_midsize(catalog):
    """Membership by chain sifting agrees with closure enumeration (order 2448)."""
    g = catalog["psl_2_17"]
    els, locate = g.elements()
    assert len(els) == 2448
    rng = np.random.default_rng(9)
    for _ in range(30):
        w = els[int(rng.integers(0, len(els)))]
        assert g.contains(w)
    # shuffle images to leave the group
    outside = els[0].copy()
    outside[[0, 1]] = outside[[1, 0]]
    assert g.contains(outside) == (locate(outside) >= 0)


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(st.just(n), st.one_of(
    st.permutations(range(n)),
    st.lists(st.integers(-2, n + 1), min_size=max(n - 1, 0), max_size=n + 1)))))
@settings(max_examples=300, deadline=None)
def test_check_perm_accepts_exactly_the_sorted_range(case):
    """check_perm accepts a list iff it has the degree's length and sorts to
    0..n-1: wrong lengths, negative values, values >= n and repeats fail."""
    n, p = case
    for degree in (n, None):
        want = len(p) if degree is None else degree
        ok = len(p) == want and np.array_equal(np.sort(np.asarray(p)), np.arange(want))
        try:
            got = check_perm(p, degree)
        except GroupError:
            assert not ok
        else:
            assert ok and np.array_equal(got, p)
