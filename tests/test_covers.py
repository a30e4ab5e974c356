import random
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatd4 import canon
from hatd4.covers import (CoverError, LemmaNQReport, Projection,
                          VoltageAssignment, base_p_digits, check_lemma_nq,
                          compose,
                          derived_cover, fibre_index, identity_projection,
                          is_covering,
                          quotient, quotient_group_action, read_voltages,
                          spanning_tree_mask, translation_action,
                          write_voltages)
from hatd4.graphs import Graph, certificate, doubled_cycle, from_simple_edges
from hatd4.perms import PermGroup
from hatd4.symmetry import (HALF_ARC_TRANSITIVE, GraphAction, aut_group,
                            transitivity_profile)
from tests.conftest import BAD_TOKENS, file_bytes


def cycle(n):
    return from_simple_edges(n, [(i, (i + 1) % n) for i in range(n)])


def action_from_vmap(g, vmap):
    vmap = np.asarray(vmap, dtype=np.int32)
    dmap = canon.extend_vertex_map_to_darts(g, g, vmap)
    return GraphAction.from_vertex_dart(g, [(vmap, dmap)])


def test_trivial_quotient():
    g = cycle(6)
    act = GraphAction.from_vertex_dart(g, [])
    quot, proj = quotient(g, act)
    assert quot == g
    assert is_covering(identity_projection(g))


def test_hexagon_antipodal_quotient():
    g = cycle(6)
    act = action_from_vmap(g, [3, 4, 5, 0, 1, 2])
    quot, proj = quotient(g, act)
    assert quot.n == 3 and len(quot.edges()) == 3
    assert is_covering(proj)
    assert check_lemma_nq(g, act) == LemmaNQReport(True, True, True)
    assert set(proj.fibre_sizes()) == {2}


def test_square_reflection_with_fixed_vertices():
    g = cycle(4)
    act = action_from_vmap(g, [0, 3, 2, 1])
    quot, proj = quotient(g, act)
    # hand enumeration: path on 3 vertex classes, 4 dart classes
    assert quot.n == 3 and quot.m == 4
    assert sorted(quot.valences().tolist()) == [1, 1, 2]
    assert not is_covering(proj)
    assert check_lemma_nq(g, act) == LemmaNQReport(False, False, False)


def test_square_free_reflection_makes_semiedges():
    g = cycle(4)
    act = action_from_vmap(g, [1, 0, 3, 2])
    quot, proj = quotient(g, act)
    from hatd4.graphs import structural_profile

    assert structural_profile(quot).semiedges == 2
    assert check_lemma_nq(g, act) == LemmaNQReport(True, True, True)


def test_lemma_equivalence_randomized():
    """The three booleans agree on randomized (graph, subgroup) fixtures."""
    rng = random.Random(17)
    agree = 0
    cases = 0
    while cases < 100:
        kind = rng.randrange(3)
        if kind == 0:
            n = rng.randrange(3, 9)
            g = cycle(n)
        elif kind == 1:
            n = rng.randrange(3, 7)
            g = doubled_cycle(n)
        else:
            n = rng.randrange(6, 10)
            extra = [(i, (i + 2) % n) for i in range(0, n, 2)]
            g = from_simple_edges(n, [(i, (i + 1) % n) for i in range(n)])
        full = aut_group(g)
        gens = full.group.gens
        if not gens:
            continue
        k = rng.randrange(1, min(3, len(gens)) + 1)
        sub = GraphAction(g, PermGroup(full.group.degree,
                                       [gens[rng.randrange(len(gens))] for _ in range(k)]))
        rep = check_lemma_nq(g, sub)
        assert rep.semiregular == rep.valence_preserving == rep.covering, rep
        agree += 1
        cases += 1
    assert agree == 100


def test_quotient_group_action_stabiliser_preserved(base_pair_42):
    graph, action = base_pair_42
    from hatd4.homology import minimal_admissible_covers

    pair = minimal_admissible_covers(graph, action, 84)[0]
    quot, proj = quotient(pair.cover, pair.translations)
    qact = quotient_group_action(pair.action, pair.translations, proj)
    assert qact.group.order() == action.group.order()
    # stabiliser orders match across the covering quotient
    up = pair.action.group.point_stabiliser(0).order()
    down = qact.group.point_stabiliser(int(proj.vertex_map[0])).order()
    assert up == down == 8
    # half-arc-transitivity transfers in both directions
    assert transitivity_profile(pair.cover, pair.action).classification == HALF_ARC_TRANSITIVE
    assert transitivity_profile(quot, qact).classification == HALF_ARC_TRANSITIVE


def test_quotient_group_action_requires_covering():
    g = cycle(4)
    refl = action_from_vmap(g, [0, 3, 2, 1])
    quot, proj = quotient(g, refl)
    with pytest.raises(CoverError):
        quotient_group_action(aut_group(g), refl, proj)


def test_double_cover_of_triangle():
    tri = cycle(3)
    mask = spanning_tree_mask(tri)
    volt = np.zeros((tri.m, 1), dtype=np.int64)
    x = int(np.nonzero(~mask)[0][0])
    volt[x, 0] = 1
    volt[tri.inv[x], 0] = 1
    zeta = VoltageAssignment(tri, 2, 1, volt)
    cover, proj = derived_cover(zeta)
    assert cover.n == 6
    assert certificate(cover).data == certificate(cycle(6)).data
    assert is_covering(proj)
    t = translation_action(zeta, cover)
    assert check_lemma_nq(cover, t) == LemmaNQReport(True, True, True)
    quot, _ = quotient(cover, t)
    assert certificate(quot).data == certificate(tri).data


def test_zero_dimensional_cover_is_identity():
    tri = cycle(3)
    zeta = VoltageAssignment(tri, 5, 0, np.zeros((tri.m, 0), dtype=np.int64))
    cover, proj = derived_cover(zeta)
    assert cover == tri


def test_derived_cover_rejects_deficient_span():
    tri = cycle(3)
    mask = spanning_tree_mask(tri)
    x = int(np.nonzero(~mask)[0][0])
    volt = np.zeros((tri.m, 2), dtype=np.int64)
    volt[x, 0] = 1
    volt[tri.inv[x], 0] = 2
    zeta = VoltageAssignment(tri, 3, 2, volt)
    with pytest.raises(CoverError, match="1-dimensional"):
        derived_cover(zeta)


def _dart(g, u, v):
    """The first dart of g from u to v."""
    return int(np.nonzero((g.beg == u) & (g.end() == v))[0][0])


def test_tree_voltage_gives_connected_cover():
    """Voltages need not vanish on the tree: a voltage on a tree edge of the
    triangle alone still winds once around its cycle, so the cover is the
    hexagon."""
    tri = cycle(3)
    x = _dart(tri, 0, 1)
    assert spanning_tree_mask(tri)[x]
    volt = np.zeros((tri.m, 1), dtype=np.int64)
    volt[x, 0] = volt[tri.inv[x], 0] = 1
    cover, proj = derived_cover(VoltageAssignment(tri, 2, 1, volt))
    assert cover.n == 6
    assert certificate(cover).data == certificate(cycle(6)).data
    assert is_covering(proj)


def test_cancelling_tree_and_cotree_voltages_raise():
    """A tree voltage and a cotree voltage that cancel around the triangle's
    only cycle leave every net voltage zero: three disjoint triangles."""
    tri = cycle(3)
    mask = spanning_tree_mask(tri)
    t, x = _dart(tri, 0, 1), _dart(tri, 1, 2)
    assert mask[t] and not mask[x]
    volt = np.zeros((tri.m, 1), dtype=np.int64)
    volt[t, 0], volt[tri.inv[t], 0] = 1, 2
    volt[x, 0], volt[tri.inv[x], 0] = 2, 1
    with pytest.raises(CoverError, match="0-dimensional"):
        derived_cover(VoltageAssignment(tri, 3, 1, volt))


@st.composite
def voltage_multigraphs(draw):
    """A connected multigraph without semiedges (loops and parallel edges
    allowed, darts in random order) with random voltages on every dart."""
    n = draw(st.integers(1, 5))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=4))
    m = 2 * len(edges)
    order = draw(st.permutations(range(m))) if m else []
    beg = np.zeros(m, dtype=np.int64)
    inv = np.zeros(m, dtype=np.int64)
    for e, (u, v) in enumerate(edges):
        a, b = order[2 * e], order[2 * e + 1]
        beg[a], beg[b], inv[a], inv[b] = u, v, b, a
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(0, 3))
    volt = np.zeros((m, d), dtype=np.int64)
    for e in range(len(edges)):
        a, b = order[2 * e], order[2 * e + 1]
        volt[a] = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
        volt[b] = -volt[a] % p
    return Graph(n, beg, inv), p, d, volt


@given(voltage_multigraphs())
@settings(max_examples=150, deadline=None)
def test_connectivity_verdict_matches_cover_search(case):
    """derived_cover accepts exactly the voltages whose assembled derived
    graph a breadth-first search finds connected, and then builds that
    graph without searching it."""
    g, p, d, volt = case
    direct = Graph(g.n * p**d, fibre_index(g.beg, 0, p, d),
                   fibre_index(g.inv, volt, p, d))
    try:
        cover, _ = derived_cover(VoltageAssignment(g, p, d, volt))
    except CoverError as exc:
        assert not direct.is_connected(), str(exc)
        assert "dimensional subspace" in str(exc)
    else:
        assert "tree" not in cover._cache
        assert direct.is_connected()
        assert cover == direct


def test_voltage_antisymmetry_enforced():
    tri = cycle(3)
    volt = np.zeros((tri.m, 1), dtype=np.int64)
    volt[0, 0] = 1  # inverse dart left at zero
    with pytest.raises(CoverError):
        VoltageAssignment(tri, 3, 1, volt)


def test_voltage_rejects_semiedges():
    from hatd4.graphs import four_semiedge_vertex

    fs = four_semiedge_vertex()
    with pytest.raises(CoverError):
        VoltageAssignment(fs, 3, 1, np.zeros((4, 1), dtype=np.int64))


def test_compose_covers():
    tri = cycle(3)

    def double(g):
        mask = spanning_tree_mask(g)
        x = int(np.nonzero(~mask)[0][0])
        volt = np.zeros((g.m, 1), dtype=np.int64)
        volt[x, 0] = 1
        volt[g.inv[x], 0] = 1
        return derived_cover(VoltageAssignment(g, 2, 1, volt))

    c6, p1 = double(tri)
    c12, p2 = double(c6)
    comp = compose(p1, p2)
    assert comp.source.n == 12 and comp.target.n == 3
    assert is_covering(comp)
    assert certificate(c12).data == certificate(cycle(12)).data
    ident = identity_projection(tri)
    again = compose(ident, p1)
    assert np.array_equal(again.vertex_map, p1.vertex_map)
    with pytest.raises(CoverError):
        compose(p2, p1)  # wrong order: targets do not match


@pytest.mark.parametrize("p, d", [(2, 0), (2, 3), (3, 2), (5, 1), (7, 2)])
def test_base_p_digits_match_digit_loop(p, d):
    vecs, powers = base_p_digits(p, d)
    want = np.zeros((p**d, d), dtype=np.int64)
    for k in range(p**d):
        rem = k
        for i in range(d):
            want[k, i] = rem % p
            rem //= p
    assert np.array_equal(vecs, want)
    assert np.array_equal(vecs @ powers, np.arange(p**d))


def _fibre_loop(ids, shifts, p, d, qmat):
    """Reference for fibre_index: digits by division, one base index and one
    fibre vector at a time."""
    q = p**d
    out = np.zeros(len(ids) * q, dtype=np.int64)
    for x, base in enumerate(ids):
        for k in range(q):
            a = [(k // p**i) % p for i in range(d)]
            b = [(sum(a[j] * int(qmat[j, i]) for j in range(d)) + int(shifts[x][i])) % p
                 for i in range(d)]
            out[x * q + k] = int(base) * q + sum(b[i] * p**i for i in range(d))
    return out


@pytest.mark.parametrize("p, d, mixed", [
    (2, 0, np.zeros((0, 0), dtype=np.int64)),
    (2, 3, np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])),
    (3, 2, np.array([[0, 1], [2, 1]])),
    (5, 1, np.array([[2]])),
])
def test_fibre_index_matches_dart_loop(p, d, mixed):
    rng = np.random.default_rng(p * 10 + d)
    ids = rng.integers(0, 9, size=7)
    shifts = rng.integers(0, p, size=(7, d))
    eye = np.eye(d, dtype=np.int64)
    for qmat in (None, mixed):
        got = fibre_index(ids, shifts, p, d, qmat)
        want = _fibre_loop(ids, shifts, p, d, eye if qmat is None else qmat)
        assert got.dtype == np.int32
        assert np.array_equal(got, want)
        # every Q here is invertible, so it permutes each fibre
        assert np.array_equal(np.sort(got.reshape(7, p**d) % p**d, axis=1),
                              np.tile(np.arange(p**d), (7, 1)))


def _fibre_matmul(ids, shifts, p, d, qmat=None):
    """The earlier fibre_index: every digit at once, one integer matmul of
    the (ids, p^d, d) stack of shifted vectors with the place values."""
    vecs, powers = base_p_digits(p, d)
    if qmat is not None:
        vecs = vecs @ qmat % p
    ids = np.asarray(ids, dtype=np.int64)
    shifts = np.broadcast_to(shifts, (len(ids), d))
    enc = (vecs[None, :, :] + shifts[:, None, :]) % p @ powers
    return (ids[:, None] * p**d + enc).reshape(-1).astype(np.int32)


@pytest.mark.parametrize("p", [2, 3, 7])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fibre_index_matches_matmul(p, d):
    rng = np.random.default_rng(100 * p + d)
    ids = rng.integers(0, 50, size=11)
    qmat = rng.integers(0, p, size=(d, d))   # need not be invertible
    for shifts in (0, rng.integers(0, p, size=d), rng.integers(0, p, size=(11, d))):
        for q in (None, qmat):
            got = fibre_index(ids, shifts, p, d, q)
            assert got.dtype == np.int32
            assert np.array_equal(got, _fibre_matmul(ids, shifts, p, d, q))


def test_voltage_file_roundtrip(tmp_path):
    g = cycle(5)
    mask = spanning_tree_mask(g)
    volt = np.zeros((g.m, 2), dtype=np.int64)
    cot = np.nonzero(~mask)[0]
    x = int(cot[0])
    volt[x] = [1, 2]
    volt[g.inv[x]] = [2, 1]  # -[1,2] mod 3
    zeta = VoltageAssignment(g, 3, 2, volt)
    path = tmp_path / "v.volt"
    write_voltages(zeta, path)
    back = read_voltages(path, g)
    assert back.p == 3 and back.d == 2
    assert np.array_equal(back.volt, zeta.volt)


@pytest.mark.parametrize("text, line", [
    ("voltage 3 x\n", 1),
    ("voltage 3 1\n0 y\n", 2),
    ("voltage 3 -1\n", 1),
    ("voltage 4 1\n", 1),  # Z_4 is not a field
])
def test_voltage_file_reports_bad_lines(tmp_path, text, line):
    path = tmp_path / "bad.volt"
    path.write_text(text)
    with pytest.raises(CoverError, match=re.escape("%s:%d:" % (path, line))):
        read_voltages(path, cycle(5))


@st.composite
def voltage_files(draw):
    """The bytes of a voltage file over the 5-cycle (darts 0..9, the even
    one of each edge the smaller): lines built from its directives, valid or
    not, and now and then a byte that is not UTF-8."""
    d = draw(st.integers(0, 3))
    number = st.one_of(st.integers(-3, 12).map(str), BAD_TOKENS,
                       st.just("99999999999999999999"))
    line = st.one_of(
        st.lists(number, max_size=3).map(lambda t: "voltage " + " ".join(t)),
        st.tuples(st.integers(0, 10), st.lists(st.integers(-9, 9), min_size=d, max_size=d))
        .map(lambda t: " ".join(map(str, [t[0], *t[1]]))),
        st.lists(number, max_size=4).map(" ".join),
        st.sampled_from(["", "# note", "0 1 # voltage", "VOLTAGE 3 1", "voltage\t3\t1"]),
    )
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        lines.insert(0, "voltage %d %d" % (draw(st.sampled_from([2, 3, 5])), d))
    return file_bytes(draw, lines)


@given(voltage_files())
@settings(max_examples=400, deadline=None)
def test_read_voltages_loads_or_raises_cover_error(data):
    base = cycle(5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.volt"
        path.write_bytes(data)
        try:
            zeta = read_voltages(path, base)
        except CoverError:
            return
        assert zeta.volt.shape == (base.m, zeta.d)
        assert np.all((zeta.volt >= 0) & (zeta.volt < zeta.p))


def test_projection_validation():
    g = cycle(3)
    with pytest.raises(CoverError):
        Projection(g, g, np.zeros(3, dtype=np.int32), np.arange(6, dtype=np.int32))
