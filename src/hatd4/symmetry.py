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
from hatd4.perms import DTYPE, PermGroup, StabChain, is_dihedral_8, orbit_labels

ARC_TRANSITIVE = "ArcTransitive"
HALF_ARC_TRANSITIVE = "HalfArcTransitive"
OTHER = "Other"
DIGRAPH_ENUMERATION_CAP = 1_000_000  # largest Aut(g) digraph_aut enumerates


class GraphAction:
    """A permutation group acting on vertices + darts of a fixed graph."""

    __slots__ = ("graph", "group")

    def __init__(self, graph: Graph, group: PermGroup):
        if group.degree != graph.n + graph.m:
            raise GraphError(
                "action degree %d does not match graph (%d vertices + %d darts)"
                % (group.degree, graph.n, graph.m)
            )
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
    def from_vertex_dart(cls, graph, pairs, known_order=None):
        gens = [combine(graph, vp, dp) for vp, dp in pairs]
        return cls(graph, PermGroup(graph.n + graph.m, gens, known_order=known_order))


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
    return _lifted_action(g, canon.canonical(g).aut_gens,
                          canon.local_dart_gens(g), _local_order(g))


def _lifted_action(g: Graph, vmaps, local=(), local_order=1) -> GraphAction:
    """The group generated by the skeleton automorphisms vmaps, each lifted
    to the darts, and the vertex-fixing dart maps local; local_order is the
    order of the group that local generates."""
    pairs = []
    for vmap in vmaps:
        dmap = canon.extend_vertex_map_to_darts(g, g, vmap)
        if dmap is None:
            raise AssertionError("skeleton automorphism failed to lift to darts")
        pairs.append((vmap, dmap))
    ident = np.arange(g.n, dtype=DTYPE)
    pairs += [(ident, dmap) for dmap in local]
    skel_order = PermGroup(g.n, vmaps).order() if vmaps else 1
    return GraphAction.from_vertex_dart(g, pairs, known_order=skel_order * local_order)


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
    g = dig.underlying
    if not g.is_connected():
        raise GraphError("digraph automorphisms require a connected graph")
    prof = structural_profile(g)
    if prof.simple:
        action = _lifted_action(g, canon.canonical(g, arcs=dig.arcs).aut_gens)
        for dmap in action.dart_gens():
            if not np.array_equal(np.sort(np.nonzero(dig.arcs)[0]),
                                  np.sort(dmap[dig.arcs])):
                raise AssertionError("directed refinement produced a non-arc map")
        return action.group
    full = aut_group(g)
    if full.group.order() > DIGRAPH_ENUMERATION_CAP:
        raise GraphError("non-simple digraph automorphism search beyond cap")
    els, _ = full.group.elements()
    keeps_arcs = dig.arcs[els[:, np.nonzero(dig.arcs)[0] + g.n] - g.n]
    kept = els[np.all(keeps_arcs, axis=1)]
    # generators: the kept elements that grow a chain, until it holds them all
    chain = StabChain(g.n + g.m, [])
    grew = []
    for x in kept:
        if chain.order() == len(kept):
            break
        if chain.add(x):
            grew.append(x)
    return PermGroup(g.n + g.m, grew, known_order=len(kept))


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
