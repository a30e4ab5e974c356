"""The census driver: base pairs from a group catalog, cover levels, records.

Strategy: every relevant pair whose group is semisimple appears as a coset
graph of an epimorphism witness (step 2); every other one is an iterated
minimal elementary abelian cover of such a pair (step 3).  The driver runs
the witness search over the catalog, dedupes base pairs up to pair
isomorphism, then expands cover levels while graph orders stay within
budget; the final records carry the full automorphism data per isomorphism
class of graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from hatd4 import homology
from hatd4.graphs import GraphError, write_graph
from hatd4.perms import is_dihedral_8, is_solvable, read_group_file
from hatd4.symmetry import aut_group, is_relevant_pair, transitivity_profile
from hatd4.universal import (RelevantPair, coset_graph, dedupe_base_pairs,
                             dedupe_pairs, epimorphism_search)


def packaged_catalog_dir():
    return Path(str(resources.files("hatd4").joinpath("data/catalog")))


def packaged_holt_path():
    return Path(str(resources.files("hatd4").joinpath("data/holt_27.graph")))


@dataclass
class CensusConfig:
    max_order: int = 10752
    catalog_dir: Path | str | None = None
    max_level: int = 8
    seed: int = 0

    def catalog_path(self):
        return Path(self.catalog_dir) if self.catalog_dir else packaged_catalog_dir()


@dataclass
class CensusRecord:
    ID: int
    order: int
    stab_order: int
    arc_transitive: bool

    def csv_line(self):
        return "%d,%d,%d,%s" % (self.ID, self.order, self.stab_order,
                                "true" if self.arc_transitive else "false")


@dataclass
class CensusResult:
    base_pairs: list
    levels: list
    pairs: list
    graphs: list
    records: list
    summary: dict


def load_catalog(path):
    """All group files in the directory, sorted by filename."""
    path = Path(path)
    if not path.is_dir():
        raise GraphError("catalog directory %s does not exist" % path)
    groups = []
    for f in sorted(path.glob("*.grp")):
        groups.append(read_group_file(f))
    return groups


def base_pairs(cfg: CensusConfig):
    """Step 2: relevant pairs with catalog groups, deduped up to pair iso."""
    raw = []
    for grp in load_catalog(cfg.catalog_path()):
        if grp.order() > 8 * cfg.max_order or grp.order() % 8:
            continue
        if is_solvable(grp):
            raise GraphError(
                "catalog group %s is solvable; semisimple groups are non-solvable here"
                % grp.name)
        for w in epimorphism_search(grp):
            graph, action = coset_graph(grp, w.stabiliser_group(), w.g)
            pair = RelevantPair(graph, action, {
                "kind": "base", "group": grp.name, "witness": w.record_line(),
                "level": 0,
            })
            if not is_relevant_pair(graph, action):
                raise GraphError("witness of %s produced a non-relevant pair" % grp.name)
            raw.append(pair)
    deduped = dedupe_base_pairs(raw)
    return deduped, len(raw)


def expand_level(pairs, cfg: CensusConfig, level):
    """Step 3, one level: minimal admissible covers of every eligible pair."""
    out = []
    for pair in pairs:
        if pair.graph.n > cfg.max_order // 2:
            continue
        lifted = homology.minimal_admissible_covers(
            pair.graph, pair.action, cfg.max_order, seed=cfg.seed)
        for lp in lifted:
            if lp.cover.n > cfg.max_order:
                raise GraphError("cover exceeded the order budget")
            if not is_relevant_pair(lp.cover, lp.action):
                raise GraphError("lifted pair failed the relevance check")
            if lp.cover.n <= pair.graph.n:
                raise GraphError("cover order did not increase along the lineage")
            prov = {
                "kind": "cover", "level": level, "p": lp.p, "d": lp.d,
                "kernel_hash": lp.kernel_hash(), "parent": pair,
                "lifted": lp,
            }
            out.append(RelevantPair(lp.cover, lp.action, prov))
    return out


def run_census(cfg: CensusConfig) -> CensusResult:
    if cfg.max_order < 1:
        raise GraphError("max order must be at least 1, got %d" % cfg.max_order)
    if cfg.max_level < 0:
        raise GraphError("levels must be at least 0, got %d" % cfg.max_level)
    p0, witness_classes = base_pairs(cfg)
    levels = []
    current = p0
    for level in range(1, cfg.max_level + 1):
        nxt = expand_level(current, cfg, level)
        if not nxt:
            break
        levels.append(nxt)
        current = nxt
    pairs = list(p0)
    for lv in levels:
        pairs.extend(lv)
    graphs = dedupe_pairs(pairs)

    records = []
    for idx, pair in enumerate(graphs):
        aut = aut_group(pair.graph)
        prof = transitivity_profile(pair.graph, aut)
        order = aut.group.order()
        if order % pair.graph.n:
            raise GraphError("automorphism order %d not divisible by order %d"
                             % (order, pair.graph.n))
        rec = CensusRecord(ID=idx + 1, order=pair.graph.n,
                           stab_order=order // pair.graph.n,
                           arc_transitive=prof.dart_transitive)
        if not rec.arc_transitive:
            if prof.classification != "HalfArcTransitive":
                raise GraphError("record %d is neither arc- nor half-arc-transitive"
                                 % rec.ID)
            if rec.stab_order == 8:
                if not is_dihedral_8(aut.group.point_stabiliser(0)):
                    raise GraphError(
                        "record %d: half-arc-transitive with a non-dihedral "
                        "order-8 stabiliser" % rec.ID)
        records.append(rec)
    summary = {
        "witness_classes": witness_classes,
        "base_pairs": len(p0),
        "level_pair_counts": [len(lv) for lv in levels],
        "pairs": len(pairs),
        "graphs": len(graphs),
    }
    return CensusResult(p0, levels, pairs, graphs, records, summary)


def emit_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ID,|V|,|A_v|,AT\n")
        for rec in records:
            fh.write(rec.csv_line() + "\n")


def emit_graphs(graph_pairs, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for idx, pair in enumerate(graph_pairs):
        write_graph(pair.graph, out_dir / ("graph_%03d.graph" % (idx + 1)))


# ---------------------------------------------------------------------------
# table verification
# ---------------------------------------------------------------------------

# (order, full automorphism order, socle label, group order) per base pair
TABLE_BASE = [
    (1, 42, 672, "PSL(2,7)", 336),
    (2, 90, 2880, "Alt(6)", 720),
    (3, 90, 2880, "Alt(6)", 720),
    (4, 306, 4896, "PSL(2,17)", 2448),
    (5, 702, 22464, "PSL(3,3)", 5616),
    (6, 756, 12096, "U(3,3)", 6048),
    (7, 1404, 44928, "PSL(3,3)", 11232),
    (8, 1518, 24288, "PSL(2,23)", 12144),
    (9, 1860, 29760, "PSL(2,31)", 14880),
    (10, 1950, 62400, "PSL(2,25)", 15600),
    (11, 1950, 62400, "PSL(2,25)", 15600),
    (12, 5040, 80640, "Alt(8)", 40320),
    (13, 6486, 103776, "PSL(2,47)", 51888),
    (14, 7056, 225792, "PSL(2,7)xPSL(2,7)", 56448),
    (15, 7056, 225792, "PSL(2,7)xPSL(2,7)", 56448),
    (16, 8610, 137760, "PSL(2,41)", 68880),
]

# level-1 cover counts per base pair id at the full order budget, keyed by
# the multiset of counts per graph order (ids 2,3 and 10,11 share an order)
TABLE_LEVEL1 = {
    42: [56], 90: [31, 33], 306: [11], 702: [6], 756: [6],
    1404: [4], 1518: [4], 1860: [3], 1950: [3, 3], 5040: [3],
}


@dataclass
class VerifyRow:
    name: str
    status: str  # pass / fail / skip
    expected: object = None
    got: object = None

    def line(self):
        if self.status == "skip":
            return "SKIP %s" % self.name
        tail = "" if self.status == "pass" else " expected=%r got=%r" % (
            self.expected, self.got)
        return "%s %s%s" % (self.status.upper(), self.name, tail)


def _match_table1(pairs, table):
    """One row per table entry, matching the computed (order, |Aut|, |G|)
    triples of the pairs; also returns the triples no entry claimed."""
    auts = {}
    got = []
    for pair in pairs:
        cert = pair.certificate()
        if cert not in auts:
            auts[cert] = aut_group(pair.graph).group.order()
        got.append((pair.graph.n, auts[cert], pair.group_order()))
    got.sort()
    rows = []
    for ident, order, autord, soc, gord in table:
        want = (order, autord, gord)
        ok = want in got
        if ok:
            got.remove(want)
        rows.append(VerifyRow(
            "table1 row %d (order %d, |Aut| %d, |G| %d, soc %s)"
            % (ident, order, autord, gord, soc),
            "pass" if ok else "fail", want, "present" if ok else list(got)))
    return rows, got


def verify_tables(budget="small", catalog_dir=None, seed=0):
    """Compare computed values against the embedded tables within a budget.

    Budgets: ``small`` (base pair 1 only), ``table1`` (base pairs 1-4 at
    M=700), ``table2-l1`` (level-1 cover count of the order-42 pair at the
    full order budget), ``table1-full`` (all 16 base pairs at the full
    budget; several minutes).  Rows outside the budget are reported as
    skipped.
    """
    rows = []
    if budget == "small":
        cfg = CensusConfig(max_order=42, catalog_dir=catalog_dir, max_level=0,
                           seed=seed)
        res = run_census(cfg)
        got = [(r.order, r.stab_order * r.order, r.arc_transitive) for r in res.records]
        ok = got == [(42, 672, True)]
        rows.append(VerifyRow("table1 row 1 (order 42, |Aut| 672, AT)",
                              "pass" if ok else "fail", [(42, 672, True)], got))
        for ident, order, autord, soc, gord in TABLE_BASE[1:]:
            rows.append(VerifyRow("table1 row %d" % ident, "skip"))
        rows.append(VerifyRow("table2 level-1 counts", "skip"))
    elif budget == "table1":
        p0, _ = base_pairs(CensusConfig(max_order=700, catalog_dir=catalog_dir,
                                        seed=seed))
        rows, extra = _match_table1(p0, TABLE_BASE[:4])
        rows.append(VerifyRow("no extra base pairs at M=700",
                              "pass" if not extra else "fail", 0, len(extra)))
        for ident, order, autord, soc, gord in TABLE_BASE[4:]:
            rows.append(VerifyRow("table1 row %d" % ident, "skip"))
        rows.append(VerifyRow("table2 level-1 counts", "skip"))
    elif budget == "table1-full":
        p0, _ = base_pairs(CensusConfig(max_order=10752, catalog_dir=catalog_dir,
                                        seed=seed))
        rows, extra = _match_table1(p0, TABLE_BASE)
        rows.append(VerifyRow("exactly 16 base pairs at the full budget",
                              "pass" if len(p0) == 16 and not extra else "fail",
                              16, len(p0)))
        rows.append(VerifyRow("table2 level-1 counts", "skip"))
    elif budget == "table2-l1":
        p0, _ = base_pairs(CensusConfig(max_order=42,
                                        catalog_dir=catalog_dir, seed=seed))
        pair42 = next(p for p in p0 if p.graph.n == 42)
        covers = homology.minimal_admissible_covers(
            pair42.graph, pair42.action, 10752, seed=seed)
        ok = len(covers) == TABLE_LEVEL1[42][0]
        rows.append(VerifyRow("table2 row 1 level 1 (56 covers of the order-42 pair)",
                              "pass" if ok else "fail", 56, len(covers)))
        for order in sorted(TABLE_LEVEL1):
            if order != 42:
                rows.append(VerifyRow("table2 level-1 counts, base order %d" % order,
                                      "skip"))
    else:
        raise ValueError("unknown budget %r" % budget)
    return rows
