"""Graph symmetry: automorphism groups, transitivity classification, and
the correspondence between half-arc-transitive pairs and 2-valent digraphs.

A group acts on a graph through permutations of the disjoint union of
vertices and darts (vertices first); compatibility with beg and inv is
checked generator by generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from hatd4 import canon
from hatd4.graphs import Graph, GraphError, structural_profile
from hatd4.perms import DTYPE, PermGroup, is_dihedral_8

ARC_TRANSITIVE = "ArcTransitive"
HALF_ARC_TRANSITIVE = "HalfArcTransitive"
OTHER = "Other"


class GraphAction:
    """A permutation group acting on vertices + darts of a fixed graph."""

    __slots__ = ("graph", "group")

    def __init__(self, graph: Graph, group: PermGroup, validate=True):
        if group.degree != graph.n + graph.m:
            raise GraphError(
                "action degree %d does not match graph (%d vertices + %d darts)"
                % (group.degree, graph.n, graph.m)
            )
        if validate:
            for g in group.gens:
                vp, dp = self._split_static(graph, g)
                if not np.array_equal(vp[graph.beg], graph.beg[dp]):
                    raise GraphError("generator does not commute with beg")
                if not np.array_equal(dp[graph.inv], graph.inv[dp]):
                    raise GraphError("generator does not commute with inv")
        self.graph = graph
        self.group = group

    @staticmethod
    def _split_static(graph, perm):
        return perm[: graph.n], perm[graph.n :] - graph.n

    def split(self, perm):
        """(vertex part, dart part) of a combined permutation."""
        return self._split_static(self.graph, perm)

    def dart_gens(self):
        n = self.graph.n
        return [g[n:] - n for g in self.group.gens]

    @classmethod
    def from_vertex_dart(cls, graph, pairs, name=None, known_order=None, validate=True):
        gens = [combine(graph, vp, dp) for vp, dp in pairs]
        return cls(graph, PermGroup(graph.n + graph.m, gens, name=name,
                                    known_order=known_order), validate=validate)


def combine(graph, vperm, dperm):
    out = np.empty(graph.n + graph.m, dtype=DTYPE)
    out[: graph.n] = vperm
    out[graph.n :] = np.asarray(dperm, dtype=DTYPE) + graph.n
    return out


@dataclass(frozen=True)
class TransitivityProfile:
    vertex_transitive: bool
    edge_transitive: bool
    dart_transitive: bool
    classification: str


@dataclass(frozen=True)
class Digraph:
    """Graph with a chosen arc set meeting every edge in exactly one dart."""

    underlying: Graph
    arcs: np.ndarray  # bool over darts

    def __post_init__(self):
        g = self.underlying
        arcs = np.asarray(self.arcs, dtype=bool)
        hit = arcs.astype(np.int64) + arcs[g.inv].astype(np.int64)
        if np.any(hit != 1):
            raise GraphError("arc set must contain exactly one dart of each edge")
        object.__setattr__(self, "arcs", arcs)

    def out_valences(self):
        return np.bincount(self.underlying.beg[self.arcs], minlength=self.underlying.n)


# ---------------------------------------------------------------------------
# automorphism groups
# ---------------------------------------------------------------------------


def aut_group(g: Graph) -> GraphAction:
    """Full automorphism group acting on vertices + darts."""
    if not g.is_connected():
        raise GraphError("automorphism search requires a connected graph")
    res = canon.canonical(g)
    skel_order = PermGroup(g.n, res.aut_gens).order() if res.aut_gens else 1
    pairs = []
    for vmap in res.aut_gens:
        dmap = canon.extend_vertex_map_to_darts(g, g, vmap)
        if dmap is None:
            raise AssertionError("skeleton automorphism failed to lift to darts")
        pairs.append((vmap, dmap))
    local = canon.local_dart_gens(g)
    ident = np.arange(g.n, dtype=DTYPE)
    for dmap in local:
        pairs.append((ident, dmap))
    order = skel_order * _local_order(g)
    return GraphAction.from_vertex_dart(g, pairs, known_order=order)


def _local_order(g: Graph):
    """Order of the group of dart automorphisms fixing every vertex."""
    order = 1
    for key, darts in canon._dart_classes(g).items():
        k = len(darts)
        if key[0] == "semi":
            order *= factorial(k)
        elif key[0] == "loop":
            order *= factorial(k) * 2**k
        else:
            order *= factorial(k)
    return order


def transitivity_profile(g: Graph, action: GraphAction) -> TransitivityProfile:
    if action.graph is not g and action.graph != g:
        raise GraphError("action belongs to a different graph")
    grp = action.group
    vt = g.n == 1 or len(grp.orbit(0)) == g.n
    if g.m == 0:
        dt = True
        et = True
    else:
        dart_orbit0 = grp.orbit(g.n + 0)
        dt = len(dart_orbit0) == g.m
        eidx = g.edge_index()
        edges_hit = {int(eidx[x - g.n]) for x in dart_orbit0}
        et = len(edges_hit) == len(g.edges())
    if vt and dt:
        cls = ARC_TRANSITIVE
    elif vt and et and not dt:
        cls = HALF_ARC_TRANSITIVE
    else:
        cls = OTHER
    return TransitivityProfile(vt, et, dt, cls)


def extract_digraph(g: Graph, action: GraphAction) -> Digraph:
    """Arc set = the dart orbit containing the minimal dart id (the pair
    must be half-arc-transitive and semiedge-free)."""
    if g.semiedge_darts().size:
        raise GraphError("graphs with semiedges admit no half-arc-transitive action")
    prof = transitivity_profile(g, action)
    if prof.classification != HALF_ARC_TRANSITIVE:
        raise GraphError("action is %s, not half-arc-transitive" % prof.classification)
    orbit0 = action.group.orbit(g.n + 0)
    arcs = np.zeros(g.m, dtype=bool)
    arcs[[x - g.n for x in orbit0]] = True
    dig = Digraph(g, arcs)
    return dig


def digraph_aut(dig: Digraph, enumeration_cap=1_000_000) -> PermGroup:
    """Subgroup of Aut(underlying) preserving the arc set, on vertices + darts."""
    g = dig.underlying
    if not g.is_connected():
        raise GraphError("digraph automorphisms require a connected graph")
    prof = structural_profile(g)
    if prof.simple:
        res = canon.canonical(g, arcs=dig.arcs)
        pairs = []
        for vmap in res.aut_gens:
            dmap = canon.extend_vertex_map_to_darts(g, g, vmap)
            pairs.append((vmap, dmap))
        order = PermGroup(g.n, res.aut_gens).order() if res.aut_gens else 1
        action = GraphAction.from_vertex_dart(g, pairs, known_order=order)
        for dmap in action.dart_gens():
            if not np.array_equal(np.sort(np.nonzero(dig.arcs)[0]),
                                  np.sort(dmap[dig.arcs])):
                raise AssertionError("directed refinement produced a non-arc map")
        return action.group
    full = aut_group(g)
    if full.group.order() > enumeration_cap:
        raise GraphError("non-simple digraph automorphism search beyond cap")
    els, _ = full.group.elements()
    n = g.n
    keep = []
    arc_ids = np.nonzero(dig.arcs)[0] + n
    arc_set = set(int(a) for a in arc_ids)
    for e in els:
        if all(int(e[a]) in arc_set for a in arc_ids):
            keep.append(e)
    return PermGroup(g.n + g.m, keep)


def is_relevant_pair(g: Graph, action: GraphAction) -> bool:
    """Connected tetravalent (G,1/2)-arc-transitive with D4 vertex-stabiliser.

    When true, the bookkeeping identity |G| = 8 |V| is asserted.
    """
    if not g.is_connected():
        return False
    if not np.all(g.valences() == 4):
        return False
    prof = transitivity_profile(g, action)
    if prof.classification != HALF_ARC_TRANSITIVE:
        return False
    stab = action.group.point_stabiliser(0)
    if not is_dihedral_8(stab):
        return False
    order = action.group.order()
    if order != 8 * g.n:
        raise GraphError(
            "half-arc-transitive pair with D4 stabiliser but |G| = %d != 8*%d"
            % (order, g.n)
        )
    return True
