"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-3 drive the pipeline end to end (base pairs at M=700, the
level-1 cover count of the order-42 pair at the full order budget, and the
bounded no-small-example run at M=2000, levels <= 2); the rest are exact
property suites.  Expected wall time for the whole module is dominated by
criterion 3 (several minutes).
"""

import random

import numpy as np
import pytest

from hatd4 import census as CE
from hatd4 import gfp, meataxe
from hatd4.covers import check_lemma_nq, quotient, quotient_group_action
from hatd4.graphs import certificate, doubled_cycle, from_simple_edges
from hatd4.homology import minimal_admissible_covers
from hatd4.perms import PermGroup
from hatd4.symmetry import (HALF_ARC_TRANSITIVE, Digraph, GraphAction,
                            aut_group, digraph_aut, transitivity_profile)


@pytest.fixture(scope="module")
def census_m700():
    return CE.run_census(CE.CensusConfig(max_order=700, max_level=0))


@pytest.fixture(scope="module")
def pair42(census_m700):
    return next(p for p in census_m700.base_pairs if p.graph.n == 42)


@pytest.fixture(scope="module")
def covers56(pair42):
    return minimal_admissible_covers(pair42.graph, pair42.action, 10752)


@pytest.fixture(scope="module")
def census_m2000():
    return CE.run_census(CE.CensusConfig(max_order=2000, max_level=2))


def report(num, ok, text):
    print("ACCEPTANCE %d %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_table1_base_pairs(census_m700):
    got = sorted((p.graph.n, aut_group(p.graph).group.order())
                 for p in census_m700.base_pairs)
    want = [(42, 672), (90, 2880), (90, 2880), (306, 4896)]
    report(1, got == want,
           "table 1 rows 1-4 at M=700: pairs %s" % got)


def test_criterion_2_table2_level1_count(covers56):
    report(2, len(covers56) == 56,
           "level-1 covers of the order-42 pair at max order 10752: %d"
           % len(covers56))


def test_dim_override_gives_the_d1_covers(pair42, covers56):
    """dim_override=1 (`covers --dim 1`) sends every prime through the d = 1
    routes, the packed GF(2) lines and eigenvalue branching; those must
    find exactly the d = 1 covers of the full run, where p = 2, 3, 5, 7, 11
    and 13 take the MeatAxe route with dmax >= 2."""
    lines = minimal_admissible_covers(pair42.graph, pair42.action, 10752, dim_override=1)
    want = [(lp.p, lp.kernel_hash()) for lp in covers56 if lp.d == 1]
    assert len(want) == 54
    assert [(lp.p, lp.kernel_hash()) for lp in lines] == want


def test_criterion_3_no_small_half_arc_transitive(census_m2000):
    records = census_m2000.records
    bad = [r for r in records if not r.arc_transitive]
    report(3, len(records) > 0 and not bad,
           "all %d census graphs below the threshold are arc-transitive"
           % len(records))


def test_criterion_4_lemma_equivalence_suite():
    rng = random.Random(99)
    from hatd4 import canon

    cases = 0
    while cases < 100:
        kind = cases % 4
        if kind == 0:
            g = doubled_cycle(rng.randrange(2, 7))
        elif kind == 1:
            n = rng.randrange(3, 9)
            g = from_simple_edges(n, [(i, (i + 1) % n) for i in range(n)])
        elif kind == 2:
            n = 2 * rng.randrange(2, 5)
            edges = [(i, (i + 1) % n) for i in range(n)]
            edges += [(i, (i + n // 2) % n) for i in range(n // 2)]
            g = from_simple_edges(n, edges)
        else:
            g = doubled_cycle(rng.randrange(3, 6))
        full = aut_group(g)
        gens = full.group.gens
        take = [gens[rng.randrange(len(gens))] for _ in range(rng.randrange(1, 3))]
        sub = GraphAction(g, PermGroup(full.group.degree, take))
        rep = check_lemma_nq(g, sub)
        if not (rep.semiregular == rep.valence_preserving == rep.covering):
            report(4, False, "lemma booleans disagree: %s" % (rep,))
        cases += 1
    report(4, True, "semiregular/valence/covering agree on %d fixtures" % cases)


def test_criterion_5_stabiliser_and_profile_transfer(pair42, covers56, census_m2000):
    corpus = list(covers56[:10])
    for lv in census_m2000.levels:
        corpus.extend(p.provenance["lifted"] for p in lv[:8])
    checked = 0
    for lp in corpus:
        quot, proj = quotient(lp.cover, lp.translations)
        qact = quotient_group_action(lp.action, lp.translations, proj)
        up = lp.action.group.point_stabiliser(0).order()
        down = qact.group.point_stabiliser(int(proj.vertex_map[0])).order()
        if up != down:
            report(5, False, "stabiliser orders differ: %d vs %d" % (up, down))
        up_prof = transitivity_profile(lp.cover, lp.action).classification
        down_prof = transitivity_profile(quot, qact).classification
        if not (up_prof == down_prof == HALF_ARC_TRANSITIVE):
            report(5, False, "profiles do not transfer: %s / %s" % (up_prof, down_prof))
        checked += 1
    report(5, checked >= 20,
           "stabiliser orders and half-arc profiles transfer on %d covering quotients"
           % checked)


def test_criterion_6_doubled_cycle_digraph_orders():
    import itertools

    def oriented(n):
        g = doubled_cycle(n)
        arcs = np.zeros(g.m, dtype=bool)
        for i in range(n):
            arcs[4 * i] = arcs[4 * i + 1] = True
        return g, arcs

    want = {1: 2, 2: 8, 3: 24, 4: 64, 5: 160}
    got = {}
    for n in want:
        g, arcs = oriented(n)
        got[n] = digraph_aut(Digraph(g, arcs)).order()

    def brute(g, arcs):
        count = 0
        for vp in itertools.permutations(range(g.n)):
            vp = np.array(vp, dtype=np.int32)

            def extend(dmap, used, x):
                if x == g.m:
                    return 1
                if x in dmap:
                    return extend(dmap, used, x + 1)
                total = 0
                for y in range(g.m):
                    if y in used or vp[g.beg[x]] != g.beg[y] or arcs[x] != arcs[y]:
                        continue
                    xi, yi = int(g.inv[x]), int(g.inv[y])
                    if (xi == x) != (yi == y):
                        continue
                    if xi in dmap:
                        if dmap[xi] != yi:
                            continue
                        dmap[x] = y
                        used.add(y)
                        total += extend(dmap, used, x + 1)
                        del dmap[x]
                        used.discard(y)
                    else:
                        if xi != x and (yi in used or vp[g.beg[xi]] != g.beg[yi]
                                        or arcs[xi] != arcs[yi]):
                            continue
                        dmap[x] = y
                        used.add(y)
                        if xi != x:
                            dmap[xi] = yi
                            used.add(yi)
                        total += extend(dmap, used, x + 1)
                        del dmap[x]
                        used.discard(y)
                        if xi != x:
                            del dmap[xi]
                            used.discard(yi)
                return total

            count += extend({}, set(), 0)
        return count

    brutes = {}
    for n in (1, 2, 3):
        g, arcs = oriented(n)
        brutes[n] = brute(g, arcs)
    ok = got == want and all(brutes[n] == want[n] for n in brutes)
    report(6, ok, "digraph orders %s (brute force agrees for n <= 3)" % got)


def test_criterion_7_meataxe_oracle():
    rng = np.random.default_rng(2024)
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

            from hatd4.homology import HomologyModule, maximal_invariant_submodules

            m = HomologyModule(base=None, p=p, dim=n, action=gens, cotree=None)

            for dmax in (1, 2, n):
                got = maximal_invariant_submodules(m, dmax)
                want = meataxe.maximal_invariant_oracle(gens, p, dmax)
                if sorted(b.tobytes() for b in got) != sorted(b.tobytes() for b in want):
                    report(7, False, "oracle mismatch at p=%d n=%d dmax=%d" % (p, n, dmax))
            checked += 1
    report(7, checked == 50,
           "invariant-submodule search matches exhaustive enumeration on %d modules"
           % checked)


def test_criterion_8_holt_classification(holt_graph):
    import time

    t0 = time.time()
    act = aut_group(holt_graph)
    prof = transitivity_profile(holt_graph, act)
    dt = time.time() - t0
    ok = prof.classification == HALF_ARC_TRANSITIVE and dt < 5.0
    report(8, ok, "order-27 fixture is half-arc-transitive (%.2fs)" % dt)


def test_criterion_9_roundtrip_invariants(pair42, covers56, census_m2000):
    base_cert = certificate(pair42.graph).data
    checked = 0
    for lp in covers56:
        q = lp.p ** lp.d
        if lp.cover.n != q * 42 or lp.action.group.order() != q * 336:
            report(9, False, "order bookkeeping failed at p=%d d=%d" % (lp.p, lp.d))
        quot, proj = quotient(lp.cover, lp.translations)
        if certificate(quot).data != base_cert:
            report(9, False, "re-quotient certificate mismatch at p=%d d=%d"
                   % (lp.p, lp.d))
        if set(proj.fibre_sizes()) != {q}:
            report(9, False, "fibre sizes not constant at p=%d d=%d" % (lp.p, lp.d))
        checked += 1
    for lv in census_m2000.levels:
        for pair in lv:
            lp = pair.provenance["lifted"]
            q = lp.p ** lp.d
            parent = pair.provenance["parent"]
            ok = (lp.cover.n == q * parent.graph.n
                  and lp.action.group.order() == q * parent.action.group.order())
            if not ok:
                report(9, False, "level bookkeeping failed at p=%d d=%d" % (lp.p, lp.d))
            quot, proj = quotient(lp.cover, lp.translations)
            if certificate(quot).data != certificate(parent.graph).data:
                report(9, False, "level re-quotient mismatch at p=%d d=%d" % (lp.p, lp.d))
            if set(proj.fibre_sizes()) != {q}:
                report(9, False, "level fibres not constant")
            checked += 1
    report(9, checked >= 56, "round-trip invariants hold on %d covers" % checked)


def test_stretch_id12_level1_count():
    """The order-5040 pair has exactly 3 level-1 covers."""
    from hatd4.universal import coset_graph, epimorphism_search

    catalog = {g.name: g for g in CE.load_catalog(CE.packaged_catalog_dir())}
    s8 = catalog["sym_8"]
    w = epimorphism_search(s8)[0]
    graph, action = coset_graph(s8, w.stabiliser_group(), w.g)
    assert graph.n == 5040
    covers = minimal_admissible_covers(graph, action, 10752)
    ok = len(covers) == 3 and all(lp.p == 2 and lp.d == 1 for lp in covers)
    report(0, ok, "stretch: ID-12 level-1 cover count = %d" % len(covers))


@pytest.mark.stretch
def test_stretch_table1_full():
    """Not CI-gated: the complete base-pair table at the full order budget."""
    rows = CE.verify_tables(budget="table1-full")
    fails = [r.line() for r in rows if r.status == "fail"]
    passes = [r for r in rows if r.status == "pass"]
    report(0, not fails and len(passes) == 17,
           "all 16 base pairs reproduced (%d rows pass)" % len(passes))
