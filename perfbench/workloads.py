"""The four benchmark workloads and their reference checks.

Each workload builds its inputs fresh for every op (`build`), so nothing
cached on an input object (`Graph._cache`, `PermGroup._chains`, the homology
integer-representation cache) carries over from one op to the next.  `op` is
the timed call sequence.  `check` reduces its output to counts and an
order-insensitive digest, and `matches_reference` compares those with
`reference.json`.

The workload seed is passed to the program as the MeatAxe seed
(`CensusConfig.seed`, `minimal_admissible_covers(seed=)`).  The algorithms
are complete, so the outputs must not depend on it; only time may.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
from pathlib import Path

# Program calls go through module attributes, so the tracer's wrappers see them.
from hatd4 import census, homology, perms, symmetry, universal

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _digest(rows):
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


def _catalog_group(name):
    """One catalog group; loading verifies its order with Schreier-Sims."""
    return perms.read_group_file(census.packaged_catalog_dir() / (name + ".grp"))


def _pair_42():
    """The order-42 base pair: PGL(2,7) acting on the coset graph of its
    first epimorphism witness."""
    grp = _catalog_group("pgl_2_7")
    w = universal.epimorphism_search(grp)[0]
    graph, action = universal.coset_graph(grp, w.stabiliser_group(), w.g)
    return universal.RelevantPair(graph, action, {"kind": "base", "group": grp.name, "level": 0})


def _cover_rows(lifted, level):
    return [[level, lp.cover.n, lp.p, lp.d, lp.kernel_hash()] for lp in lifted]


class Census:
    """`hatd4 census --max-order 700 --levels 1`: run_census, then the CSV and
    graph files into a scratch directory."""

    name = "census-m700-l1"

    def build(self, seed, scratch):
        out = Path(tempfile.mkdtemp(prefix="census-", dir=scratch))
        return census.CensusConfig(max_order=700, max_level=1, seed=seed), out

    def op(self, inputs):
        cfg, out = inputs
        res = census.run_census(cfg)
        census.emit_csv(res.records, out / "census.csv")
        census.emit_graphs(res.graphs, out / "graphs")
        return res, out

    def check(self, output):
        res, out = output
        files = sorted((out / "graphs").glob("*.graph"))
        lines = (out / "census.csv").read_text().splitlines()
        emitted = sum(f.stat().st_size for f in files) + (out / "census.csv").stat().st_size
        shutil.rmtree(out)
        rows = [[r.order, r.stab_order, r.arc_transitive] for r in res.records]
        counts = {
            "base_pairs": res.summary["base_pairs"],
            "level_pair_counts": res.summary["level_pair_counts"],
            "graphs": len(res.graphs),
            "arc_transitive": sum(r.arc_transitive for r in res.records),
            "graph_files": len(files),
            "csv_rows": len(lines) - 1,
        }
        return counts, _digest(rows), {"census.emit.bytes": emitted}


class Covers42:
    """The 56 minimal admissible covers of the order-42 pair (Table 2)."""

    name = "covers-42"

    def build(self, seed, scratch):
        return _pair_42(), seed

    def op(self, inputs):
        pair, seed = inputs
        return homology.minimal_admissible_covers(pair.graph, pair.action, 10752, seed=seed)

    def check(self, lifted):
        return {"covers": len(lifted)}, _digest(_cover_rows(lifted, 1)), {}


class Tower42:
    """Two cover levels of the order-42 pair at M=1500 (dmax >= 2, so the
    MeatAxe chop/spin path runs)."""

    name = "tower-42-m1500"

    def build(self, seed, scratch):
        return _pair_42(), census.CensusConfig(max_order=1500, seed=seed)

    def op(self, inputs):
        pair, cfg = inputs
        level1 = census.expand_level([pair], cfg, 1)
        level2 = census.expand_level(level1, cfg, 2)
        return level1, level2

    def check(self, output):
        rows = []
        for pairs in output:
            for c in pairs:
                pv = c.provenance
                rows.append([pv["level"], c.graph.n, pv["p"], pv["d"], pv["kernel_hash"]])
        counts = {"level1": len(output[0]), "level2": len(output[1])}
        return counts, _digest(rows), {}


class Stretch5040:
    """The order-5040 pair from Sym(8) and its level-1 covers at 10752."""

    name = "stretch-5040"

    def build(self, seed, scratch):
        return _catalog_group("sym_8"), seed

    def op(self, inputs):
        grp, seed = inputs
        w = universal.epimorphism_search(grp)[0]
        graph, action = universal.coset_graph(grp, w.stabiliser_group(), w.g)
        lifted = homology.minimal_admissible_covers(graph, action, 10752, seed=seed)
        relevant = sum(symmetry.is_relevant_pair(lp.cover, lp.action) for lp in lifted)
        return graph.n, lifted, relevant

    def check(self, output):
        n, lifted, relevant = output
        counts = {"base_order": n, "covers": len(lifted), "relevant": relevant}
        return counts, _digest(_cover_rows(lifted, 1)), {}


WORKLOADS = {w.name: w() for w in (Census, Covers42, Tower42, Stretch5040)}


def matches_reference(name, counts, digest):
    ref = REFERENCE[name]
    return counts == ref["counts"] and digest == ref["digest"]
