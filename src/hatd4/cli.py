"""Command-line front end.

Exit codes: 0 success, 1 input error (or an enumeration past
`meataxe.ENUM_CAP`), 2 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from hatd4 import census as census_mod
from hatd4 import homology, symmetry
from hatd4.covers import CoverError, check_lemma_nq, quotient
from hatd4.graphs import GraphError, read_graph, structural_profile, write_graph
from hatd4.meataxe import MeatAxeError
from hatd4.perms import GroupError, cycle_string, read_group_file
from hatd4.symmetry import GraphAction, aut_group, transitivity_profile
from hatd4.universal import epimorphism_search


def _load_action(graph, group_path):
    grp = read_group_file(group_path)
    if grp.degree != graph.n + graph.m:
        raise GraphError(
            "group degree %d does not match vertices+darts = %d"
            % (grp.degree, graph.n + graph.m))
    return GraphAction(graph, grp)


def cmd_classify(args):
    g = read_graph(args.graph)
    prof = structural_profile(g)
    print("order %d darts %d" % (g.n, g.m))
    print("connected %s simple %s" % (str(prof.connected).lower(), str(prof.simple).lower()))
    print("semiedges %d loops %d parallel_classes %d" % (
        prof.semiedges, prof.loops, prof.parallel_classes))
    vals = sorted(set(prof.valences))
    print("valences %s" % " ".join(map(str, vals)))
    if prof.connected:
        act = aut_group(g)
        tp = transitivity_profile(g, act)
        print("aut_order %d" % act.group.order())
        print("classification %s" % tp.classification)
    return 0


def cmd_autgroup(args):
    g = read_graph(args.graph)
    act = aut_group(g)
    tp = transitivity_profile(g, act)
    print("aut_order %d" % act.group.order())
    print("generators %d" % len(act.group.gens))
    print("vertex_transitive %s" % str(tp.vertex_transitive).lower())
    print("dart_transitive %s" % str(tp.dart_transitive).lower())
    stab = act.group.point_stabiliser(0)
    print("vertex_stabiliser_order %d" % stab.order())
    if args.gens:
        for p in act.group.gens:
            print("gen %s" % cycle_string(p))
    return 0


def cmd_quotient(args):
    g = read_graph(args.graph)
    act = _load_action(g, args.group)
    rep = check_lemma_nq(g, act)
    quot, proj = quotient(g, act)
    print("semiregular %s" % str(rep.semiregular).lower())
    print("valence_preserving %s" % str(rep.valence_preserving).lower())
    print("covering %s" % str(rep.covering).lower())
    print("quotient order %d darts %d" % (quot.n, quot.m))
    if args.out:
        write_graph(quot, args.out)
        print("written %s" % args.out)
    return 0


def cmd_covers(args):
    g = read_graph(args.graph)
    act = _load_action(g, args.group)
    if not symmetry.is_relevant_pair(g, act):
        raise GraphError("input is not a relevant pair (tetravalent half-arc-"
                         "transitive with dihedral vertex-stabiliser of order 8)")
    primes = None if args.prime is None else [args.prime]
    lifted = homology.minimal_admissible_covers(
        g, act, args.max_order, primes=primes, dim_override=args.dim,
        seed=args.seed)
    base_id = Path(args.graph).stem
    for lp in lifted:
        print(lp.metadata_line(base_id))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for k, lp in enumerate(lifted, 1):
            write_graph(lp.cover, out / ("cover_%03d.graph" % k))
    print("covers %d" % len(lifted))
    return 0


def cmd_episearch(args):
    grp = read_group_file(args.group)
    for w in epimorphism_search(grp):
        print(w.record_line())
    return 0


def cmd_census(args):
    cfg = census_mod.CensusConfig(
        max_order=args.max_order, catalog_dir=args.catalog,
        max_level=args.levels, seed=args.seed)
    res = census_mod.run_census(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    census_mod.emit_csv(res.records, out / "census.csv")
    census_mod.emit_graphs(res.graphs, out / "graphs")
    summary = "".join("%s %s\n" % (key, res.summary[key]) for key in (
        "witness_classes", "base_pairs", "level_pair_counts", "pairs", "graphs"))
    (out / "summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")
    print("written %s" % (out / "census.csv"))
    return 0


def cmd_verify(args):
    rows = census_mod.verify_tables(budget=args.budget, catalog_dir=args.catalog,
                                    seed=args.seed)
    failed = False
    for row in rows:
        print(row.line())
        failed = failed or row.status == "fail"
    return 2 if failed else 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hatd4",
        description="Census machinery for tetravalent half-arc-transitive "
                    "graphs with dihedral vertex-stabiliser of order 8.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural profile and symmetry class")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("autgroup", help="full automorphism group data")
    p.add_argument("graph")
    p.add_argument("--gens", action="store_true", help="print generators")
    p.set_defaults(fn=cmd_autgroup)

    p = sub.add_parser("quotient", help="quotient by a group of automorphisms")
    p.add_argument("graph")
    p.add_argument("group")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("covers", help="minimal admissible elementary abelian covers")
    p.add_argument("graph")
    p.add_argument("group")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--prime", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_covers)

    p = sub.add_parser("episearch", help="universal-group epimorphism witnesses")
    p.add_argument("group")
    p.set_defaults(fn=cmd_episearch)

    p = sub.add_parser("census", help="run the full pipeline")
    p.add_argument("--catalog", default=None)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_census)

    p = sub.add_parser("verify", help="check computed values against the tables")
    p.add_argument("--budget",
                   choices=["small", "table1", "table2-l1", "table1-full"],
                   default="small")
    p.add_argument("--catalog", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, GroupError, CoverError, MeatAxeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
