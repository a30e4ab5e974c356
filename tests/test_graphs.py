import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hatd4.graphs import (DoubledCycleForm, FourSemiedgesForm, GraphError,
                          NOT_APPLICABLE, certificate,
                          classify_nonsimple_tetravalent_et, doubled_cycle,
                          four_semiedge_vertex, from_simple_edges, read_graph,
                          structural_profile, write_graph)
from tests.conftest import BAD_TOKENS, file_bytes, random_simple_connected, relabel_graph


def test_triangle_basics():
    g = from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 6
    prof = structural_profile(g)
    assert prof.connected and prof.simple
    assert prof.valences == (2, 2, 2)


def test_single_vertex_no_edges():
    g = from_simple_edges(1, [])
    assert g.m == 0
    assert structural_profile(g).connected


def test_from_simple_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        from_simple_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        from_simple_edges(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        from_simple_edges(2, [(0, 5)])


def test_doubled_cycle_family():
    g1 = doubled_cycle(1)
    p1 = structural_profile(g1)
    assert g1.n == 1 and g1.m == 4 and p1.loops == 2 and p1.valences == (4,)
    g2 = doubled_cycle(2)
    p2 = structural_profile(g2)
    assert g2.n == 2 and p2.parallel_classes == 1 and p2.valences == (4, 4)
    g5 = doubled_cycle(5)
    p5 = structural_profile(g5)
    assert len(g5.edges()) == 10 and p5.valences == (4,) * 5
    assert p5.loops == 0 and p5.semiedges == 0 and p5.parallel_classes == 5
    with pytest.raises(GraphError):
        doubled_cycle(0)


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_doubled_cycle_invariants(n):
    g = doubled_cycle(n)
    assert np.array_equal(g.inv[g.inv], np.arange(g.m, dtype=np.int32))
    assert int(g.valences().sum()) == g.m
    assert np.all(g.valences() == 4)
    if n >= 3:
        assert len(g.edges()) == 2 * n


def test_four_semiedge_vertex():
    g = four_semiedge_vertex()
    prof = structural_profile(g)
    assert prof.semiedges == 4 and not prof.simple
    assert prof.valences == (4,)
    assert prof.loops == 0 and prof.parallel_classes == 0


def test_holt_fixture_profile(holt_graph):
    prof = structural_profile(holt_graph)
    assert holt_graph.n == 27
    assert holt_graph.m == 108  # 2 * 54 edges counted from the fixture file
    assert prof.connected and prof.simple
    assert prof.valences == (4,) * 27


def test_certificate_relabel_invariance():
    rng = random.Random(11)
    for _ in range(25):
        g = random_simple_connected(rng)
        h = relabel_graph(g, rng)
        assert certificate(g).data == certificate(h).data


def test_certificate_distinguishes():
    tri = from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])
    c4 = from_simple_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert certificate(tri).data != certificate(c4).data
    assert certificate(doubled_cycle(3)).data != certificate(doubled_cycle(4)).data
    assert certificate(doubled_cycle(2)).data != certificate(four_semiedge_vertex()).data


def test_certificate_requires_connected():
    g = from_simple_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        certificate(g)


def test_classify_nonsimple(holt_graph):
    from hatd4.symmetry import aut_group

    dc = doubled_cycle(7)
    res = classify_nonsimple_tetravalent_et(dc, aut_group(dc))
    assert isinstance(res, DoubledCycleForm) and res.n == 7
    # the returned maps really are an isomorphism onto the normal form
    target = doubled_cycle(7)
    vmap = np.array(res.vertex_map, dtype=np.int32)
    dmap = np.array(res.dart_map, dtype=np.int32)
    assert np.array_equal(target.beg[dmap], vmap[dc.beg])
    assert np.array_equal(target.inv[dmap], dmap[dc.inv])

    fs = four_semiedge_vertex()
    res = classify_nonsimple_tetravalent_et(fs, aut_group(fs))
    assert isinstance(res, FourSemiedgesForm)

    res = classify_nonsimple_tetravalent_et(holt_graph, aut_group(holt_graph))
    assert res == NOT_APPLICABLE

    tri = from_simple_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(GraphError):
        classify_nonsimple_tetravalent_et(tri, aut_group(tri))  # not tetravalent


def test_classify_relabeled_doubled_cycle():
    rng = random.Random(5)
    from hatd4.symmetry import aut_group

    g = relabel_graph(doubled_cycle(5), rng)
    res = classify_nonsimple_tetravalent_et(g, aut_group(g))
    assert isinstance(res, DoubledCycleForm) and res.n == 5


def test_graph_io_roundtrip(tmp_path):
    g = doubled_cycle(4)
    path = tmp_path / "dc4.graph"
    write_graph(g, path)
    h = read_graph(path)
    assert g == h


def test_graph_io_simple_format(tmp_path, holt_graph):
    # the packaged fixture uses the `simple` variant
    assert holt_graph.n == 27 and holt_graph.m == 108
    # write normalizes to dart-table; round-trips exactly
    path = tmp_path / "holt.graph"
    write_graph(holt_graph, path)
    assert read_graph(path) == holt_graph


def test_graph_io_rejects_bad_involution(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("graph 2 8\n" + "\n".join(
        "%d %d %d" % (x, 0 if x < 4 else 1, (x + 1) % 8) for x in range(8)) + "\n")
    with pytest.raises(GraphError, match="involution"):
        read_graph(path)


def test_graph_io_rejects_dangling(tmp_path):
    path = tmp_path / "bad2.graph"
    path.write_text("graph 2 4\n0 0 1\n1 0 0\n2 5 3\n3 1 2\n")
    with pytest.raises(GraphError):
        read_graph(path)


def test_graph_io_reports_line_numbers(tmp_path):
    path = tmp_path / "bad3.graph"
    path.write_text("graph 1 2\n0 0 1\nnot a dart line\n")
    with pytest.raises(GraphError, match="bad3.graph:3"):
        read_graph(path)


@pytest.mark.parametrize("text, line", [
    ("graph 1 -2\n", 1),
    ("graph 1 2\n0 0 x\n", 2),
    ("simple three\n", 1),
    ("simple 3\n0 1.5\n", 2),
])
def test_graph_io_rejects_bad_numbers(tmp_path, text, line):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    with pytest.raises(GraphError, match="bad.graph:%d:" % line):
        read_graph(path)


@st.composite
def graph_files(draw):
    """The bytes of a graph file with at most 4 vertices and 6 darts: lines
    built from its directives, valid or not, and now and then a byte that is
    not UTF-8."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    number = st.one_of(st.integers(0, 6).map(str), BAD_TOKENS)
    line = st.one_of(
        st.tuples(st.integers(0, m), st.integers(0, n), st.integers(0, m)).map(
            lambda t: "%d %d %d" % t),
        st.tuples(st.integers(0, n), st.integers(0, n)).map(lambda t: "%d %d" % t),
        st.lists(number, max_size=4).map(" ".join),
        st.lists(number, max_size=3).map(lambda t: "graph " + " ".join(t)),
        st.lists(number, max_size=2).map(lambda t: "simple " + " ".join(t)),
        st.sampled_from(["", "# note", "0 0 1 # dart", "GRAPH 1 0", "graph\t1\t0"]),
    )
    lines = draw(st.lists(line, max_size=8))
    header = draw(st.sampled_from(["graph %d %d" % (n, m), "simple %d" % n, None]))
    if header:
        lines.insert(0, header)
    return file_bytes(draw, lines)


@given(graph_files())
@settings(max_examples=400, deadline=None)
def test_read_graph_loads_or_raises_graph_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.graph"
        path.write_bytes(data)
        try:
            g = read_graph(path)
        except GraphError:
            return
        assert len(g.beg) == len(g.inv) == g.m
        assert np.array_equal(g.inv[g.inv], np.arange(g.m))
