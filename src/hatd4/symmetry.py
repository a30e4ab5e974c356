"""Graph symmetry: automorphism groups, transitivity classification, and
the correspondence between half-arc-transitive pairs and 2-valent digraphs.

A group acts on a graph through permutations of the disjoint union of
vertices and darts (vertices first); compatibility with beg and inv is
checked generator by generator.  The automorphism group of a graph, and of
a digraph (the same with its arc set kept), is built one way: the skeleton
automorphisms the canonical search finds, lifted to the darts, and the
dart maps that fix every vertex, with the order known from both parts: the
skeleton group's from a chain on the search's first path, which is a base
of that group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hatd4 import canon
from hatd4.graphs import Graph, GraphError
from hatd4.perms import DTYPE, PermGroup, StabChain, is_dihedral_8, orbit_labels

ARC_TRANSITIVE = "ArcTransitive"
HALF_ARC_TRANSITIVE = "HalfArcTransitive"
OTHER = "Other"


class GraphAction:
    """A permutation group acting on vertices + darts of a fixed graph."""

    __slots__ = ("graph", "group")

    def __init__(self, graph: Graph, group: PermGroup):
        if group.degree != graph.n + graph.m:
            raise GraphError(
                "action degree %d does not match graph (%d vertices + %d darts)"
                % (group.degree, graph.n, graph.m)
            )
        self.graph = graph
        for g in group.gens:
            vp, dp = self.split(g)
            if not np.array_equal(vp[graph.beg], graph.beg[dp]):
                raise GraphError("generator does not commute with beg")
            if not np.array_equal(dp[graph.inv], graph.inv[dp]):
                raise GraphError("generator does not commute with inv")
        self.group = group

    def split(self, perm):
        """(vertex part, dart part) of a combined permutation."""
        n = self.graph.n
        return perm[:n], perm[n:] - n

    @classmethod
    def from_vertex_dart(cls, graph, pairs):
        gens = [combine(graph, vp, dp) for vp, dp in pairs]
        return cls(graph, PermGroup(graph.n + graph.m, gens))

    @classmethod
    def generated(cls, graph, gens, order):
        """The group gens generate acting on graph, its chain built at once.

        order is an upper bound on that order which the construction
        guarantees (lifts plus translations lie in a group of order p^d |G|;
        right multiplication is an image of G; an action on a quotient by N
        factors through G/N; lifted automorphisms number at most
        |Aut(skeleton)| x |local|), so the chain, which stops on reaching
        order, proves equality there.  GraphError when it stops below.
        """
        action = cls(graph, PermGroup(graph.n + graph.m, gens, known_order=order))
        if action.group.order() != order:
            raise GraphError("generated group has order %d, not %d"
                             % (action.group.order(), order))
        return action


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
    """Full automorphism group acting on vertices + darts, cached in g._cache
    as `canon.canonical` caches its search."""
    hit = g._cache.get("aut")
    if hit is None:
        if not g.is_connected():
            raise GraphError("automorphism search requires a connected graph")
        hit = g._cache["aut"] = _lifted_action(g)
    return hit


def _lifted_action(g: Graph, arcs=None) -> GraphAction:
    """The automorphisms of g that keep the arc set arcs: the skeleton
    automorphisms of the canonical search, each lifted to the darts, and
    the dart maps that fix every vertex.  The order is known: the skeleton
    group's, from a chain on the search's base, times the local group's.
    GraphError if the lifted group's chain does not reach it."""
    res = canon.canonical(g, arcs=arcs)
    gens = []
    for vmap in res.aut_gens:
        dmap = canon.extend_vertex_map_to_darts(g, g, vmap, arcs)
        if dmap is None:
            raise AssertionError("skeleton automorphism failed to lift to darts")
        gens.append(combine(g, vmap, dmap))
    local, local_order = canon.local_dart_gens(g, arcs)
    ident = np.arange(g.n, dtype=DTYPE)
    gens += [combine(g, ident, dmap) for dmap in local]
    order = StabChain(g.n, res.aut_gens, base=res.base).order() * local_order
    return GraphAction.generated(g, gens, order)


def transitivity_profile(g: Graph, action: GraphAction) -> TransitivityProfile:
    if action.graph is not g and action.graph != g:
        raise GraphError("action belongs to a different graph")
    labels = orbit_labels(g.n + g.m, action.group.gens)
    vt = bool(np.all(labels[: g.n] == 0))
    orbit0 = labels[g.n :] == g.n     # the darts in the orbit of dart 0
    dt = bool(np.all(orbit0))
    et = len(np.unique(g.edge_index()[orbit0])) == len(g.edges())
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
    return Digraph(g, orbit_labels(g.n + g.m, action.group.gens)[g.n :] == g.n)


def digraph_aut(dig: Digraph) -> PermGroup:
    """Subgroup of Aut(underlying) preserving the arc set, on vertices + darts."""
    if not dig.underlying.is_connected():
        raise GraphError("digraph automorphisms require a connected graph")
    return _lifted_action(dig.underlying, dig.arcs).group


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
