import hashlib

import pytest

from hatd4 import census as CE
from hatd4.graphs import read_graph


@pytest.fixture(scope="module")
def small_census(tmp_path_factory):
    """A small pipeline run: catalog = {PGL(2,7)}, M = 336."""
    cat = tmp_path_factory.mktemp("cat")
    src = CE.packaged_catalog_dir() / "pgl_2_7.grp"
    (cat / "pgl_2_7.grp").write_text(src.read_text())
    cfg = CE.CensusConfig(max_order=336, catalog_dir=cat, max_level=8)
    return CE.run_census(cfg)


def test_packaged_catalog_loads():
    groups = CE.load_catalog(CE.packaged_catalog_dir())
    assert len(groups) == 26
    names = {g.name for g in groups}
    assert {"pgl_2_7", "pgl_2_9", "m10", "psl_2_17", "alt_8", "sym_8",
            "psl_3_3", "u_3_3", "pgl_2_25", "m_2_25", "psl_2_47",
            "psl_2_7_sq_2", "pgl_2_7_even_sq", "pgl_2_41"} <= names


def test_census_base_is_single_pair(small_census):
    assert [p.graph.n for p in small_census.base_pairs] == [42]


def test_census_level_structure(small_census):
    # covers of the order-42 pair within 336: the invariant kernels are one
    # each at (2,1), (3,1), (5,1), (7,1) inside the p^d <= 8 budget
    lvl1 = small_census.levels[0]
    orders = sorted(p.graph.n for p in lvl1)
    assert orders == [84, 126, 210, 294]
    for lv in small_census.levels:
        for pair in lv:
            assert pair.group_order() == 8 * pair.graph.n


def test_census_monotone_levels(small_census):
    for lv in small_census.levels:
        for pair in lv:
            parent = pair.provenance["parent"]
            assert pair.graph.n > parent.graph.n
            assert pair.graph.n <= 336


def test_census_records_consistency(small_census):
    res = small_census
    assert [r.ID for r in res.records] == list(range(1, len(res.records) + 1))
    for rec, pair in zip(res.records, res.graphs):
        assert rec.order == pair.graph.n
        from hatd4.symmetry import aut_group

        assert rec.stab_order * rec.order == aut_group(pair.graph).group.order()
    # every graph below the threshold is arc-transitive at this scale
    assert all(r.arc_transitive for r in res.records)


def test_emit_csv_and_graphs(tmp_path, small_census):
    CE.emit_csv(small_census.records, tmp_path / "census.csv")
    text = (tmp_path / "census.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "ID,|V|,|A_v|,AT"
    assert lines[1] == "1,42,16,true"
    CE.emit_graphs(small_census.graphs, tmp_path / "graphs")
    g1 = read_graph(tmp_path / "graphs" / "graph_001.graph")
    assert g1.n == 42


# sha256 of the output of the small_census fixture (catalog {PGL(2,7)},
# M = 336, up to 8 levels): census.csv, the sorted graphs/*.graph bytes
# joined, and the graph certificates joined in ID order.  Unlike the
# two-run comparisons below, these catch an output or certificate change
# from one commit to the next.
SMALL_CENSUS_SHA256 = {
    "census.csv": "101f78158a92d6a4b62957d08e6644e672f23d53a1193eae22d16568386aad58",
    "graphs": "ba886d105e2c683e939a78ca01d00ef7f31afbed662182fe76ca4f9898ded313",
    "certificates": "8c9b41be8aac3f15c460880e81cadde4e88bc503cd6d38c1c594743f227dee4f",
}


def test_census_output_pinned(tmp_path, small_census):
    CE.emit_csv(small_census.records, tmp_path / "census.csv")
    CE.emit_graphs(small_census.graphs, tmp_path / "graphs")
    graphs = sorted(f.read_bytes() for f in (tmp_path / "graphs").glob("*.graph"))
    got = {
        "census.csv": (tmp_path / "census.csv").read_bytes(),
        "graphs": b"".join(graphs),
        "certificates": b"".join(p.certificate() for p in small_census.graphs),
    }
    assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == SMALL_CENSUS_SHA256


def test_emit_csv_empty(tmp_path):
    CE.emit_csv([], tmp_path / "empty.csv")
    assert (tmp_path / "empty.csv").read_text() == "ID,|V|,|A_v|,AT\n"


def test_csv_byte_stable(tmp_path):
    cat = tmp_path / "cat"
    cat.mkdir()
    src = CE.packaged_catalog_dir() / "pgl_2_7.grp"
    (cat / "pgl_2_7.grp").write_text(src.read_text())
    blobs = []
    for name in ("a.csv", "b.csv"):
        res = CE.run_census(CE.CensusConfig(max_order=336, catalog_dir=cat,
                                            max_level=8))
        CE.emit_csv(res.records, tmp_path / name)
        blobs.append((tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]


def test_empty_catalog(tmp_path):
    cfg = CE.CensusConfig(max_order=100, catalog_dir=tmp_path)
    res = CE.run_census(cfg)
    assert res.records == [] and res.pairs == []


def test_catalog_io_error(tmp_path):
    bad = tmp_path / "cat"
    bad.mkdir()
    (bad / "broken.grp").write_text("group x\ndegree 3\ngen 0 0 1\n")
    cfg = CE.CensusConfig(max_order=100, catalog_dir=bad)
    with pytest.raises(Exception):
        CE.run_census(cfg)


def test_verify_small_budget():
    rows = CE.verify_tables(budget="small")
    assert any(r.status == "pass" for r in rows)
    assert not any(r.status == "fail" for r in rows)
    assert any(r.status == "skip" for r in rows)


def test_graph_files_byte_stable(tmp_path):
    cat = tmp_path / "cat"
    cat.mkdir()
    src = CE.packaged_catalog_dir() / "pgl_2_7.grp"
    (cat / "pgl_2_7.grp").write_text(src.read_text())
    blobs = []
    for run in ("a", "b"):
        res = CE.run_census(CE.CensusConfig(max_order=84, catalog_dir=cat,
                                            max_level=1))
        CE.emit_graphs(res.graphs, tmp_path / run)
        blobs.append(sorted(f.read_bytes()
                            for f in (tmp_path / run).glob("*.graph")))
    assert blobs[0] == blobs[1]


def test_lifted_group_nonsolvable(tmp_path):
    """The Lemma-level runtime check: a lifted census group is non-solvable."""
    from hatd4.homology import minimal_admissible_covers
    from hatd4.perms import is_solvable

    p0, _ = CE.base_pairs(CE.CensusConfig(max_order=84))
    pair = next(p for p in p0 if p.graph.n == 42)
    lifted = minimal_admissible_covers(pair.graph, pair.action, 84)[0]
    assert not is_solvable(lifted.action.group)


def test_verify_table1_budget():
    rows = CE.verify_tables(budget="table1")
    passes = [r for r in rows if r.status == "pass"]
    fails = [r for r in rows if r.status == "fail"]
    skips = [r for r in rows if r.status == "skip"]
    assert len(fails) == 0
    assert len(passes) == 5  # rows 1-4 plus the no-extras row
    assert len(skips) == 13  # rows 5-16 plus the level-1 table


def test_verify_table2_level1_budget():
    rows = CE.verify_tables(budget="table2-l1")
    passes = [r for r in rows if r.status == "pass"]
    assert len(passes) == 1 and passes[0].got == 56
    assert not any(r.status == "fail" for r in rows)


def test_record_csv_fields():
    # an AT=false record renders with a lowercase boolean, e.g. the order-27
    # half-arc-transitive graph with stabiliser order 2
    rec = CE.CensusRecord(ID=1, order=27, stab_order=2, arc_transitive=False)
    assert rec.csv_line() == "1,27,2,false"
