import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatd4 import canon, gfp, meataxe
from hatd4.covers import CoverError, check_lemma_nq, fibre_index, quotient
from hatd4.graphs import Graph, GraphError, certificate, from_simple_edges
from hatd4.homology import (HomologyModule, _cycle_table, _dual_lines,
                            _eigenvalue_candidates, _gf2_fixed_rows,
                            _quotient_matrices, _small_degree_core,
                            cover_budget,
                            cover_from_kernel, dual_minimal_submodules,
                            homology_rep, lift_group,
                            maximal_invariant_submodules,
                            minimal_admissible_covers, voltages_from_dual)
from hatd4.perms import PermGroup, is_dihedral_8
from hatd4.symmetry import GraphAction, aut_group, combine, is_relevant_pair


def rotation_action(g, vmap):
    vmap = np.asarray(vmap, dtype=np.int32)
    dmap = canon.extend_vertex_map_to_darts(g, g, vmap)
    return GraphAction.from_vertex_dart(g, [(vmap, dmap)])


@pytest.fixture(scope="module")
def triangle():
    return from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="module")
def cube():
    return from_simple_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6),
                                 (6, 7), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)])


def test_dimension_formula(base_pair_42, triangle):
    graph, action = base_pair_42
    mod = homology_rep(graph, action, 3)
    assert mod.dim == 2 * 42 - 42 + 1 == 43
    rot = rotation_action(triangle, [1, 2, 0])
    m1 = homology_rep(triangle, rot, 2)
    assert m1.dim == 1
    assert np.array_equal(m1.action[0], np.eye(1, dtype=np.int64))


def test_identity_action_is_identity_matrix(triangle):
    ident = rotation_action(triangle, [0, 1, 2])
    mod = homology_rep(triangle, ident, 7)
    assert all(np.array_equal(a, np.eye(mod.dim, dtype=np.int64)) for a in mod.action)


def test_action_matrices_are_invertible(base_pair_42):
    graph, action = base_pair_42
    for p in (2, 3, 5):
        mod = homology_rep(graph, action, p)
        for a in mod.action:
            assert gfp.rank(a, p) == mod.dim


def test_action_matrices_respect_relations(base_pair_42):
    """Matrix of a word equals the product of generator matrices (spot check)."""
    graph, action = base_pair_42
    p = 3
    mod = homology_rep(graph, action, p)
    rng = np.random.default_rng(0)
    gens = action.group.gens
    for _ in range(20):
        word = rng.integers(0, len(gens), size=int(rng.integers(2, 5)))
        perm = np.arange(graph.n + graph.m, dtype=np.int32)
        mat = np.eye(mod.dim, dtype=np.int64)
        for k in word:
            perm = gens[int(k)][perm]
            mat = gfp.matmul(mat, mod.action[int(k)], p)
        direct = homology_rep(
            graph,
            GraphAction.from_vertex_dart(
                graph, [(perm[: graph.n], perm[graph.n :] - graph.n)]),
            p,
        )
        assert np.array_equal(direct.action[0], mat)


def test_trivial_action_hyperplanes():
    """Trivially acted dim-2 module over GF(2): three maximal subspaces."""
    square = from_simple_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    ident = rotation_action(square, [0, 1, 2, 3])
    mod = homology_rep(square, ident, 2)
    assert mod.dim == 2
    subs = maximal_invariant_submodules(mod, 1)
    assert len(subs) == 3
    assert all(b.shape[0] == 1 for b in subs)


def test_maximal_invariant_matches_oracle_small():
    rng = np.random.default_rng(12)
    checked = 0
    for p in (2, 3):
        for _ in range(25):
            n = int(rng.integers(2, 5))
            gens = []
            for _ in range(int(rng.integers(1, 3))):
                while True:
                    a = rng.integers(0, p, size=(n, n))
                    if gfp.rank(a, p) == n:
                        gens.append(a)
                        break

            class FakeMod:
                pass

            fm = FakeMod()
            fm.p, fm.dim, fm.action = p, n, gens
            for dmax in (1, 2, n):
                got = maximal_invariant_submodules(fm, dmax)
                want = meataxe.maximal_invariant_oracle(gens, p, dmax)
                assert sorted(b.tobytes() for b in got) == \
                    sorted(b.tobytes() for b in want), (p, n, dmax)
            checked += 1
    assert checked == 50


def matrix_order(a, p):
    """The least k >= 1 with a^k = I, by powering."""
    eye = np.eye(a.shape[0], dtype=np.int64)
    power, k = a % p, 1
    while not np.array_equal(power, eye):
        power, k = gfp.matmul(power, a, p), k + 1
    return k


def test_maximal_invariant_with_orders_matches_oracle():
    """Random modules that record their generators' orders, as homology
    modules do, restrict to the small-degree core before the MeatAxe; every
    dmax >= 2 must still find the oracle's maximal invariant subspaces.  GF(5) stops
    at dimension 3: the oracle's subspace search of GF(5)^4 takes 45 s."""
    rng = np.random.default_rng(19)
    restricted = 0
    for p, top in ((2, 4), (3, 4), (5, 3)):
        for _ in range(12):
            n = int(rng.integers(2, top + 1))
            gens = []
            for _ in range(int(rng.integers(1, 3))):
                while True:
                    a = rng.integers(0, p, size=(n, n))
                    if gfp.rank(a, p) == n:
                        gens.append(a)
                        break
            mod = HomologyModule(base=None, p=p, dim=n, action=gens, cotree=None,
                                 orders=[matrix_order(a, p) for a in gens])
            # maximality does not depend on dmax, so one oracle call covers all
            every = meataxe.maximal_invariant_oracle(gens, p, n)
            for dmax in range(2, n + 1):
                core = _small_degree_core(mod, [a.T.copy() for a in gens], dmax)
                restricted += len(core) < n
                got = maximal_invariant_submodules(mod, dmax)
                want = [b for b in every if n - b.shape[0] <= dmax]
                assert [b.tobytes() for b in got] == [b.tobytes() for b in want], (p, n, dmax)
    assert restricted


def test_small_degree_core_keeps_whole_module_chop(base_pair_42, cube):
    """On real homology modules the chop of the core finds exactly the
    minimal submodules the chop of the whole dual module finds, and some
    case does restrict, so the comparison is not vacuous."""
    restricted = 0
    for graph, action in (base_pair_42, (cube, aut_group(cube))):
        for p in (2, 3, 5, 7):
            mod = homology_rep(graph, action, p)
            dual = [a.T.copy() for a in mod.action]
            for dmax in (2, 3):
                got = dual_minimal_submodules(mod, dmax)
                want = meataxe.minimal_submodules(dual, p, dmax)
                assert [(b.dtype, b.shape, b.tobytes()) for b in got] == \
                    [(b.dtype, b.shape, b.tobytes()) for b in want], (graph.n, p, dmax)
                core = _small_degree_core(mod, dual, dmax)
                restricted += len(core) < mod.dim
    assert restricted


def test_core_keeps_repeated_factors():
    """S3 on GF(2)^2: the transposition (order 2) has minimal polynomial
    (x + 1)^2, which divides P = (x^2 - x)(x^4 - x) and so vanishes on the
    whole space; a squarefree P such as x^4 - x alone would leave a line
    that no submodule fits in.  The module is irreducible, so its only
    minimal submodule is the whole space."""
    swap = np.array([[0, 1], [1, 0]])
    rot = np.array([[0, 1], [1, 1]])
    mod = HomologyModule(base=None, p=2, dim=2, action=[swap, rot], cotree=None,
                         orders=[2, 3])
    got = dual_minimal_submodules(mod, 2)
    assert [b.tolist() for b in got] == [[[1, 0], [0, 1]]]


def test_cover_from_kernel_rejects_non_invariant(base_pair_42):
    graph, action = base_pair_42
    mod = homology_rep(graph, action, 2)
    # a random hyperplane is almost surely not invariant
    rng = np.random.default_rng(5)
    for _ in range(10):
        w = rng.integers(0, 2, size=(1, mod.dim))
        if not np.any(w):
            continue
        k = gfp.nullspace(w, 2)
        if mod.is_invariant(k):
            continue
        with pytest.raises(CoverError, match="generator"):
            cover_from_kernel(mod, k)
        break
    else:
        pytest.skip("all sampled hyperplanes invariant (unexpected)")


def test_cover_from_kernel_rejects_whole_space(base_pair_42):
    graph, action = base_pair_42
    mod = homology_rep(graph, action, 2)
    with pytest.raises(CoverError):
        cover_from_kernel(mod, np.eye(mod.dim, dtype=np.int64))


def test_quotient_matrices_reject_non_invariant(base_pair_42):
    """A dual basis whose kernel some generator moves has no induced matrix;
    the error names the generator.  An invariant one gets A r^T = r^T q."""
    graph, action = base_pair_42
    p = 2
    mod = homology_rep(graph, action, p)
    r = np.zeros((1, mod.dim), dtype=np.int64)
    r[0, 0] = 1
    assert not mod.is_invariant(gfp.nullspace(r, p))
    with pytest.raises(CoverError, match="generator [0-9]+"):
        _quotient_matrices(mod, r)
    for r in dual_minimal_submodules(mod, 2):
        qmats = _quotient_matrices(mod, r)
        for a, q in zip(mod.action, qmats):
            assert np.array_equal(gfp.matmul(a, r.T, p), gfp.matmul(r.T, q, p))


@pytest.mark.parametrize("p", [2, 5])
def test_voltages_from_dual_match_cotree_loop(base_pair_42, p):
    """Cotree dart j carries column j of r, its inverse the negation, every
    tree dart zero, checked against a loop over the cotree darts."""
    graph, action = base_pair_42
    mod = homology_rep(graph, action, p)
    r = np.random.default_rng(p).integers(0, p, size=(2, mod.dim))
    want = np.zeros((graph.m, 2), dtype=np.int64)
    for j, c in enumerate(map(int, mod.cotree)):
        want[c] = r[:, j] % p
        want[graph.inv[c]] = (-r[:, j]) % p
    zeta = voltages_from_dual(graph, mod.cotree, r, p)
    assert (zeta.p, zeta.d) == (p, 2)
    assert np.array_equal(zeta.volt, want)


def test_classic_double_cover_lift(triangle):
    rot = rotation_action(triangle, [1, 2, 0])
    mod = homology_rep(triangle, rot, 2)
    zeta = cover_from_kernel(mod, np.zeros((0, mod.dim), dtype=np.int64))
    r = np.eye(mod.dim, dtype=np.int64)  # the zero kernel's dual basis
    pair = lift_group(triangle, rot, zeta, dual_basis=r,
                      qmats=_quotient_matrices(mod, r))
    assert pair.cover.n == 6
    assert pair.action.group.order() == 6  # Z3 lift + Z2 translations


def test_budget():
    assert cover_budget(42, 84) == [(2, 1)]
    assert cover_budget(42, 42) == []
    got = dict(cover_budget(42, 10752))
    assert got[2] == 8 and got[3] == 5 and got[5] == 3
    assert got[7] == 2 and got[13] == 2 and got[17] == 1 and got[251] == 1
    assert 257 not in got


@pytest.mark.parametrize("primes, dim", [([4], None), ([9], None), ([0], None),
                                         ([-3], None), ([2, 1], None),
                                         (None, 0), ([3], -1)])
def test_budget_rejects_non_primes_and_dimensions_below_one(primes, dim):
    with pytest.raises(CoverError):
        cover_budget(42, 1500, primes, dim)


def test_degree2_cover_of_base_pair(base_pair_42):
    graph, action = base_pair_42
    covers = minimal_admissible_covers(graph, action, 84)
    assert len(covers) == 1
    pair = covers[0]
    assert pair.cover.n == 84
    assert pair.action.group.order() == 672
    stab = PermGroup(pair.cover.n + pair.cover.m, pair.stabiliser_gens)
    assert stab.order() == 8 and is_dihedral_8(stab)
    assert is_relevant_pair(pair.cover, pair.action)


def test_lift_invariants_roundtrip(base_pair_42):
    graph, action = base_pair_42
    for pair in minimal_admissible_covers(graph, action, 42 * 9):
        q = pair.p ** pair.d
        assert pair.cover.n == q * graph.n
        assert pair.action.group.order() == q * action.group.order()
        quot, proj = quotient(pair.cover, pair.translations)
        assert certificate(quot).data == certificate(graph).data
        assert set(proj.fibre_sizes()) == {q}
        rep = check_lemma_nq(pair.cover, pair.translations)
        assert rep.semiregular and rep.covering


def test_quotient_module_irreducible(base_pair_42):
    """Re-running the submodule search inside the quotient finds nothing proper."""
    graph, action = base_pair_42
    p = 2
    mod = homology_rep(graph, action, p)
    for r in dual_minimal_submodules(mod, 8):
        d = r.shape[0]
        if d == 1:
            continue
        qmats = []
        for a in mod.action:
            rt = r.T % p
            _, piv = gfp.rref(r, p)
            y = gfp.matmul(a, rt, p)
            qmats.append(y[piv, :])
        sub = [m.T.copy() for m in qmats]
        assert meataxe.is_irreducible(sub, p)[0]


def test_empty_when_no_room(base_pair_42):
    graph, action = base_pair_42
    assert minimal_admissible_covers(graph, action, graph.n) == []


def test_relator_words_on_small_module(cube):
    """200 sampled words: the homology matrix of a word equals the product."""
    act = aut_group(cube)
    p = 5
    mod = homology_rep(cube, act, p)
    gens = act.group.gens
    rng = np.random.default_rng(1)
    for _ in range(200):
        word = rng.integers(0, len(gens), size=int(rng.integers(1, 6)))
        perm = np.arange(cube.n + cube.m, dtype=np.int32)
        mat = np.eye(mod.dim, dtype=np.int64)
        for k in word:
            perm = gens[int(k)][perm]
            mat = gfp.matmul(mat, mod.action[int(k)], p)
        direct = homology_rep(
            cube, GraphAction.from_vertex_dart(
                cube, [(perm[:cube.n], perm[cube.n:] - cube.n)]), p)
        assert np.array_equal(direct.action[0], mat)


def test_two_level_lineage_composes_to_base(base_pair_42):
    """Composing the two projections gives a covering of the base of degree
    p1^d1 * p2^d2."""
    from hatd4.covers import compose, is_covering

    graph, action = base_pair_42
    lvl1 = minimal_admissible_covers(graph, action, 168)
    first = lvl1[0]  # the degree-2 cover, order 84
    lvl2 = minimal_admissible_covers(first.cover, first.action, 400)
    assert lvl2, "expected at least one second-level cover"
    second = lvl2[0]
    comp = compose(first.projection, second.projection)
    assert comp.source.n == second.cover.n
    assert comp.target.n == graph.n
    assert is_covering(comp)
    assert second.cover.n == graph.n * (first.p ** first.d) * (second.p ** second.d)


def test_covers_independent_of_seed(base_pair_42):
    """dmax >= 2 runs the randomised MeatAxe; the enumeration is complete,
    so the seed must not change the kernels."""
    graph, action = base_pair_42
    hashes = [[lp.kernel_hash() for lp in
               minimal_admissible_covers(graph, action, 1500, seed=seed)]
              for seed in range(4)]
    assert hashes[0]
    assert all(h == hashes[0] for h in hashes[1:])


def test_packed_gf2_lines_match_dense_annihilators(base_pair_42):
    """At max order 84 only p=2, d=1 fits, which takes the bit-packed route;
    its dual bases are the annihilators of the maximal invariant subspaces
    that the dense module finds."""
    graph, action = base_pair_42
    lifted = minimal_admissible_covers(graph, action, 84)
    assert lifted and all((lp.p, lp.d) == (2, 1) for lp in lifted)
    kernels = maximal_invariant_submodules(homology_rep(graph, action, 2), 1)
    dense = sorted(gfp.nullspace(k, 2).tobytes() for k in kernels)
    assert sorted(lp.dual_basis.tobytes() for lp in lifted) == dense


@pytest.mark.parametrize("p", [2, 3, 13, 43, 251])
def test_eigenvalue_candidates_are_roots_of_unity(p):
    """The gcd form picks exactly the lam with lam^k = 1; k = p - 1, the
    fallback for a module without orders, admits all of GF(p)*."""
    for k in range(1, 2 * p):
        want = [lam for lam in range(1, p) if pow(lam, k, p) == 1]
        assert _eigenvalue_candidates(p, k) == want
    assert _eigenvalue_candidates(p, p - 1) == list(range(1, p))


@pytest.mark.parametrize("p", [3, 13, 17, 43, 97, 251])
def test_eigenvalue_screen_keeps_every_line(base_pair_42, p):
    """Trying only the lam with lam^k = 1 per generator finds the same dual
    lines as trying all of GF(p)*, the sweep of a module without orders."""
    graph, action = base_pair_42
    mod = homology_rep(graph, action, p)
    got = _dual_lines(mod)
    want = _dual_lines(dataclasses.replace(mod, orders=None))
    assert [b.tobytes() for b in got] == [b.tobytes() for b in want]


@pytest.mark.parametrize("p", [3, 5])
def test_generator_orders_annihilate_action(base_pair_42, cube, p):
    """The screen's premise: A^k = I for each generator matrix A, with k its
    recorded permutation order."""
    for graph, action in (base_pair_42, (cube, aut_group(cube))):
        mod = homology_rep(graph, action, p)
        assert len(mod.orders) == len(mod.action)
        eye = np.eye(mod.dim, dtype=np.int64)
        for a, k in zip(mod.action, mod.orders):
            power = eye
            for _ in range(k):
                power = gfp.matmul(power, a, p)
            assert np.array_equal(power, eye)


# ---------------------------------------------------------------------------
# tree walks one layer at a time, against the vertex-by-vertex loops
# ---------------------------------------------------------------------------


def tree_order(g):
    """Parent dart per vertex and the breadth-first order of the vertices."""
    parent, layers = g.spanning_tree()
    return parent, [0] + [int(v) for vs, _ in layers for v in vs]


def matrix_by_loop(g, dp, cotree, idx, sgn):
    """The integer generator matrix, one vertex and one cotree dart at a time."""
    parent, order = tree_order(g)
    psi = np.zeros((g.n, len(cotree)), dtype=np.int64)
    for v in order[1:]:
        t = int(parent[v])
        img = int(dp[t])
        psi[v] = psi[int(g.beg[t])]
        if idx[img] >= 0:
            psi[v, idx[img]] += sgn[img]
    mat = np.zeros((len(cotree), len(cotree)), dtype=np.int64)
    for j, c in enumerate(map(int, cotree)):
        img = int(dp[c])
        mat[j] = psi[int(g.beg[c])] - psi[g.end(c)]
        if idx[img] >= 0:
            mat[j, idx[img]] += sgn[img]
    return mat


def test_cycle_supports_match_cotree_loop(base_pair_42):
    """The table's cotree and coordinates as the tree's darts give them, and
    each cycle's walk: vertex 0 down to beg c, along c, up from end c."""
    graph, _ = base_pair_42
    parent, _ = tree_order(graph)
    tree = {int(x) for x in parent if x >= 0} | {int(graph.inv[x]) for x in parent if x >= 0}
    cotree, idx, sgn, rows, darts = _cycle_table(graph)
    assert cotree.tolist() == [int(x) for x in graph.edges() if int(x) not in tree]
    for j, c in enumerate(map(int, cotree)):
        assert (idx[c], sgn[c], idx[graph.inv[c]], sgn[graph.inv[c]]) == (j, 1, j, -1)
    assert np.all(idx[list(tree)] == -1) and np.all(sgn[list(tree)] == 0)

    def path(v):  # parent darts from vertex 0 down to v
        out = []
        while v:
            out.append(int(parent[v]))
            v = int(graph.beg[parent[v]])
        return out

    for j, c in enumerate(map(int, cotree)):
        want = path(int(graph.beg[c])) + [c] + [int(graph.inv[t]) for t in path(graph.end(c))]
        assert sorted(darts[rows == j].tolist()) == sorted(want)
    assert _cycle_table(graph) is _cycle_table(graph)


def assert_matrices_match_loops(graph, action, p):
    """homology_rep's matrices mod p and the stacked packed rows of A - I
    against the vertex-by-vertex loops, generator by generator."""
    cotree, idx, sgn, _, _ = _cycle_table(graph)
    beta = len(cotree)
    mod = homology_rep(graph, action, p)
    stacked = _gf2_fixed_rows(graph, action)
    assert stacked.shape == (beta * len(action.group.gens), (beta + 63) // 64)
    for k, (perm, a) in enumerate(zip(action.group.gens, mod.action)):
        want = matrix_by_loop(graph, perm[graph.n :] - graph.n, cotree, idx, sgn)
        assert np.array_equal(a, want % p)
        block = stacked[k * beta : (k + 1) * beta]
        assert np.array_equal(block, gfp.gf2_pack((want - np.eye(beta, dtype=np.int64)) % 2))


@pytest.mark.parametrize("p", [3, 5])
def test_generator_matrices_match_vertex_loops(base_pair_42, p):
    """Dense and packed matrices read off the cycle table are the loops'."""
    assert_matrices_match_loops(*base_pair_42, p)


@st.composite
def connected_multigraphs(draw):
    """Connected semiedge-free dart graphs: a random spanning tree, then
    links, parallel edges and loops between random vertices."""
    n = draw(st.integers(1, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=8))
    beg = [u for pair in pairs for u in pair]
    inv = [x ^ 1 for x in range(len(beg))]
    return Graph(n, np.array(beg, dtype=np.int32), np.array(inv, dtype=np.int32))


@settings(max_examples=60, deadline=None)
@given(connected_multigraphs())
def test_multigraph_matrices_match_vertex_loops(g):
    """Loops and parallel edges included: loop reversals and swaps of
    parallel darts act on the walks as the loops say."""
    assert_matrices_match_loops(g, aut_group(g), 3)


def test_both_routes_refuse_semiedges_and_disconnection():
    """The dense and the packed route check the same preconditions."""
    semi = Graph(3, np.array([0, 1, 1, 2, 0, 2, 0], dtype=np.int32),
                 np.array([1, 0, 3, 2, 5, 4, 6], dtype=np.int32))
    split = Graph(4, np.array([0, 1, 2, 3], dtype=np.int32),
                  np.array([1, 0, 3, 2], dtype=np.int32))
    for g, match in ((semi, "semiedge"), (split, "connected")):
        action = GraphAction(g, PermGroup(g.n + g.m, []))
        with pytest.raises(GraphError, match=match):
            homology_rep(g, action, 3)
        with pytest.raises(GraphError, match=match):
            minimal_admissible_covers(g, action, 2 * g.n, primes=[2])


@pytest.mark.parametrize("p", [3, 5])
def test_lift_potentials_match_vertex_loop(base_pair_42, p):
    """lift_group's generators are the lifts by the potentials that the
    vertex-by-vertex loop solves, then the translations."""
    graph, action = base_pair_42
    parent, order = tree_order(graph)
    mod = homology_rep(graph, action, p)
    lifted = minimal_admissible_covers(graph, action, 42 * p, primes=[p])
    assert [(lp.p, lp.d) for lp in lifted] == [(p, 1)]
    for lp in lifted:
        volt = lp.zeta.volt
        gens = []
        for perm, q in zip(action.group.gens, _quotient_matrices(mod, lp.dual_basis)):
            dp = perm[graph.n :] - graph.n
            delta = (volt[dp] - volt @ q) % p
            s = np.zeros((graph.n, lp.d), dtype=np.int64)
            for v in order[1:]:
                t = int(parent[v])
                s[v] = (s[int(graph.beg[t])] + delta[t]) % p
            s = (s - s[0]) % p
            gens.append(combine(lp.cover, fibre_index(perm[: graph.n], s, p, lp.d, q),
                                fibre_index(dp, s[graph.beg], p, lp.d, q)))
        gens.extend(lp.translations.group.gens)
        want = PermGroup(lp.cover.n + lp.cover.m, gens).gens
        got = lp.action.group.gens
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stabiliser_gens_are_the_lifted_generators(base_pair_42):
    """Each stabiliser generator is the lifted group's own array, not a copy."""
    graph, action = base_pair_42
    (lp,) = minimal_admissible_covers(graph, action, 42 * 3, primes=[3])
    fixers = [i for i, g in enumerate(action.group.gens) if g[0] == 0]
    assert len(lp.stabiliser_gens) == len(fixers) > 0
    lifted = lp.action.group.gens
    assert all(s is lifted[i] for s, i in zip(lp.stabiliser_gens, fixers))
