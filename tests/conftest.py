from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import strategies as st

from hatd4 import census
from hatd4.graphs import Graph, from_simple_edges, read_graph


# tokens an input file may hold where a number belongs
BAD_TOKENS = st.sampled_from(["", "x", "1.5", "-", "+2", "1_0", "0x3", "-1", "99999999999",
                              "\x00", "\u0663", "\u00e9"])


def file_bytes(draw, lines):
    """The drawn lines joined into file bytes; one file in ten gets a line
    holding a byte that is not UTF-8."""
    lines = [x.encode() for x in lines]
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.insert(draw(st.integers(0, len(lines))), b"0 \xff")
    return draw(st.sampled_from([b"\n", b"\r\n"])).join(lines)


@pytest.fixture(scope="session")
def holt_graph():
    return read_graph(census.packaged_holt_path())


@pytest.fixture(scope="session")
def catalog():
    groups = census.load_catalog(census.packaged_catalog_dir())
    return {g.name: g for g in groups}


@pytest.fixture(scope="session")
def base_pair_42(catalog):
    """The order-42 relevant pair over PGL(2,7)."""
    from hatd4.universal import coset_graph, epimorphism_search

    grp = catalog["pgl_2_7"]
    w = epimorphism_search(grp)[0]
    return coset_graph(grp, w.stabiliser_group(), w.g)


def random_simple_connected(rng, n_lo=3, n_hi=9):
    """Random connected simple graph (test helper)."""
    while True:
        n = rng.randint(n_lo, n_hi)
        pairs = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pairs, rng.randint(n - 1, len(pairs)))
        g = from_simple_edges(n, edges)
        if g.is_connected():
            return g


def random_arcs(g, rng):
    """One dart of each edge of a graph without semiedges, drawn at random
    (test helper)."""
    arcs = np.zeros(g.m, dtype=bool)
    for x in range(g.m):
        y = int(g.inv[x])
        if x < y:
            arcs[rng.choice((x, y))] = True
    return arcs


def vertex_automorphisms(g, arcs=None):
    """Every vertex permutation that keeps the multiplicity of each ordered
    pair of adjacent vertices (of each arc, given an arc set), found by
    trying all n! of them (brute-force oracle)."""
    darts = np.ones(g.m, dtype=bool) if arcs is None else np.asarray(arcs, dtype=bool)
    adj = np.zeros((g.n, g.n), dtype=np.int64)
    np.add.at(adj, (g.beg[darts], g.end()[darts]), 1)
    perms = np.array(list(itertools.permutations(range(g.n))), dtype=np.int64)
    same = np.all(adj[perms[:, :, None], perms[:, None, :]] == adj, axis=(1, 2))
    return perms[same]


def relabel_graph(g, rng):
    """Random vertex and dart relabeling of a graph (test helper)."""
    vp = np.array(rng.sample(range(g.n), g.n), dtype=np.int32)
    dp = np.array(rng.sample(range(g.m), g.m), dtype=np.int32)
    dinv = np.empty_like(dp)
    dinv[dp] = np.arange(g.m, dtype=np.int32)
    return Graph(g.n, vp[g.beg[dinv]], dp[g.inv[dinv]])
