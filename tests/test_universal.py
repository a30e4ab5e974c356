import hashlib

import numpy as np
import pytest

from hatd4.graphs import certificate
from hatd4.perms import PermGroup, from_cycles, identity_perm, inverse, is_solvable
from hatd4.symmetry import aut_group, is_relevant_pair
from hatd4.universal import (EpiWitness, RelevantPair, SearchError, coset_graph,
                             dedupe_base_pairs, dedupe_pairs,
                             epimorphism_search, pair_isomorphic)


def brute_witness_count(grp):
    """Raw (a, g) pairs satisfying the relations (independent oracle)."""
    els, _ = grp.elements()
    ident = identity_perm(grp.degree)
    count = 0
    for a in els:
        if np.array_equal(a, ident) or not np.array_equal(a[a], ident):
            continue
        for g in els:
            w = EpiWitness(grp, a.copy(), g.copy())
            a2, b, c = w.a, w.b, w.c
            ab = b[a2]
            if not np.array_equal(ab[ab], ident):
                continue
            bc = c[b]
            if not np.array_equal(bc[bc], ident):
                continue
            ac = c[a2]
            if not np.array_equal(ac[ac], b):
                continue
            if w.check():
                count += 1
    return count


def test_witness_relations_hold(catalog):
    ws = epimorphism_search(catalog["pgl_2_7"])
    assert len(ws) >= 1
    for w in ws:
        assert w.check()
        assert w.coset_order() == 42
        assert w.stabiliser_group().order() == 8


def test_search_matches_brute_force_on_small_groups(catalog):
    # S4 x Z2-free sanity: groups of order 48 and 120 with/without witnesses
    s4 = PermGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
    assert brute_witness_count(s4) == 0
    assert epimorphism_search(s4) == []
    gl23 = catalog["psl_2_7"]
    assert brute_witness_count(gl23) == 0
    assert epimorphism_search(gl23) == []


def test_a5_empty():
    a5 = PermGroup(5, [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(2, 3, 4)])])
    assert epimorphism_search(a5) == []  # 8 does not divide 60


def test_psl27_empty_sym6_empty(catalog):
    assert epimorphism_search(catalog["psl_2_7"]) == []
    assert epimorphism_search(catalog["sym_6"]) == []


def test_conjugation_closure(catalog):
    """Conjugating a witness stays in the same dedup class."""
    grp = catalog["pgl_2_7"]
    ws = epimorphism_search(grp)
    els, _ = grp.elements()
    rng = np.random.default_rng(2)
    w = ws[0]
    h = els[int(rng.integers(0, len(els)))]
    hi = inverse(h)
    wc = EpiWitness(grp, h[w.a[hi]], h[w.g[hi]])
    assert wc.check()
    # the conjugated witness yields an isomorphic coset graph
    g1, a1 = coset_graph(grp, w.stabiliser_group(), w.g)
    g2, a2 = coset_graph(grp, wc.stabiliser_group(), wc.g)
    assert certificate(g1).data == certificate(g2).data


def test_coset_graph_table1_row1(catalog):
    grp = catalog["pgl_2_7"]
    w = epimorphism_search(grp)[0]
    graph, action = coset_graph(grp, w.stabiliser_group(), w.g)
    assert graph.n == 42
    assert np.all(graph.valences() == 4)
    assert graph.is_connected()
    assert is_relevant_pair(graph, action)
    assert action.group.order() == 336
    # two dart orbits, stabiliser D4 (checked inside is_relevant_pair)
    assert aut_group(graph).group.order() == 672
    assert not is_solvable(grp)


def test_coset_graph_a6_overgroups(catalog):
    pairs = []
    for name in ("pgl_2_9", "m10"):
        grp = catalog[name]
        ws = epimorphism_search(grp)
        assert len(ws) >= 1, name
        graph, action = coset_graph(grp, ws[0].stabiliser_group(), ws[0].g)
        assert graph.n == 90
        assert aut_group(graph).group.order() == 2880
        pairs.append(RelevantPair(graph, action, {"group": name}))
    # same underlying graph, genuinely different pairs
    assert pairs[0].certificate() == pairs[1].certificate()
    assert not pair_isomorphic(pairs[0], pairs[1])


def test_coset_graph_psl217(catalog):
    grp = catalog["psl_2_17"]
    ws = epimorphism_search(grp)
    graph, action = coset_graph(grp, ws[0].stabiliser_group(), ws[0].g)
    assert graph.n == 306
    assert aut_group(graph).group.order() == 4896


def test_coset_graph_rejects_proper_subgroup(catalog):
    grp = catalog["pgl_2_7"]
    w = epimorphism_search(grp)[0]
    with pytest.raises(SearchError):
        coset_graph(grp, w.stabiliser_group(), identity_perm(grp.degree))


def test_dedupe_pairs(catalog):
    grp = catalog["pgl_2_7"]
    ws = epimorphism_search(grp)
    pairs = []
    for w in ws:
        graph, action = coset_graph(grp, w.stabiliser_group(), w.g)
        pairs.append(RelevantPair(graph, action, {"group": grp.name}))
    assert dedupe_pairs([]) == []
    deduped = dedupe_pairs(pairs)
    assert len(deduped) == 1  # isomorphic graphs collapse
    assert len(dedupe_base_pairs(pairs)) == 1  # and the pairs are conjugate


# sha256 digests of elements() rows, of the witnesses' record lines, of each
# witness's coset graph (beg then inv) and of its action generators, as the
# search and coset builder produced them with a bytes-keyed element index
SEARCH_SHA256 = {
    "pgl_2_7": {
        "rows": "5776603bfb038cbd979426feea4b4a47f71bfe11dd44b4e67b6db54defaa798f",
        "records": "a1dd2eed5950f1e5ec7bceefabe9983463f7e5f894eaa5bb5f880ff48a58b4b6",
        "graphs": "44bf8232795771542b25b0cd76255bb91213f93b53189537fb25f26292aa00e7",
        "actions": "d0497187346f8d6a3582dcc78b47be9e4b331a10bcc05bdb6e1281b614c92932",
    },
    "m10": {
        "rows": "78ae59ed7230e25a16743fd084195981c1e09f09d1505de07007cfeaa40f63c0",
        "records": "1d9409f3de675c82fedfaa2a8f37cadbf86747ef23ec81e32506f966a1598d59",
        "graphs": "d9bd8966e9825f946ef5bdb87074690b20590583951198042b667e43aaade444",
        "actions": "883e85464d9ba3a23db92ce4b6cb8d761b1374501680dd72f49077b21275cbdd",
    },
    "psl_2_17": {
        "rows": "a91e2b9b5f0c7eab3f20c434d0c19338cf8619c76535fab05e9b10c883fe717e",
        "records": "e3d3f37872bc3969c82ba5b60a4759888f5214fa43042ccfa0c0ee1b47be1c8d",
        "graphs": "26ca8d5cedead1b826afb562fab7b88b2178881c2fcab4d6c5c2927087157c2d",
        "actions": "921c4342b730a0a18a1611693b0757c16c4bbff9f723a3ce531df60aafb0e9ff",
    },
    "psl_3_3": {
        "rows": "4e05c4b2e8fdaba034114151af3f24098c6e745a7730a2f461224e796dedcae5",
        "records": "617853240ed8d6b7103eb601a991bee80e2b177f22849656ca442a097a7c5758",
        "graphs": "ab70f7d6e2dc4d8e00e958e47c33526ebbfa22368c1396ee0bcb3e602f58fa00",
        "actions": "3d2ac8d4eea89b2667fc26ef0424ba3f7d12b8e3c0ba32f4627c8c5710478657",
    },
}


@pytest.mark.parametrize("name", sorted(SEARCH_SHA256))
def test_search_and_coset_graphs_pinned(catalog, name):
    grp = catalog[name]
    d = {k: hashlib.sha256() for k in ("rows", "records", "graphs", "actions")}
    d["rows"].update(grp.elements()[0].tobytes())
    for w in epimorphism_search(grp):
        d["records"].update(w.record_line().encode() + b"\n")
        graph, action = coset_graph(grp, w.stabiliser_group(), w.g)
        d["graphs"].update(graph.beg.tobytes() + graph.inv.tobytes())
        for h in action.group.gens:
            d["actions"].update(h.tobytes())
    assert {k: v.hexdigest() for k, v in d.items()} == SEARCH_SHA256[name]
