"""Epimorphisms from the universal group onto finite groups, and the coset
graphs that turn them into half-arc-transitive pairs.

The universal group is two-generated: an involution a and an element g with
b = a^g and c = b^g satisfying a^2 = b^2 = c^2 = (ab)^2 = (bc)^2 = 1 and
(ac)^2 = b; the images of <a,b,c> form the dihedral vertex-stabiliser of
order 8.  The search fixes one representative a per involution class and
sweeps g over the whole group with vectorised relation checks; witnesses
are deduplicated up to simultaneous conjugation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from hatd4 import canon
from hatd4.graphs import DTYPE, Graph, GraphError, certificate
from hatd4.perms import PermGroup, identity_perm, inverse, orbit_labels
from hatd4.symmetry import GraphAction, aut_group


class SearchError(GraphError):
    pass


@dataclass
class EpiWitness:
    group: PermGroup
    a: np.ndarray
    g: np.ndarray
    b: np.ndarray = field(init=False)
    c: np.ndarray = field(init=False)

    def __post_init__(self):
        gi = inverse(self.g)
        self.b = self.g[self.a[gi]]
        self.c = self.g[self.b[gi]]

    def check(self):
        """All defining relations plus the two subgroup conditions."""
        a, b, c, g = self.a, self.b, self.c, self.g
        ident = identity_perm(len(a))
        for x in (a, b, c):
            if not np.array_equal(x[x], ident):
                return False
        if not np.array_equal(b[a[b[a]]], ident):  # (ab)^2
            return False
        if not np.array_equal(c[b[c[b]]], ident):  # (bc)^2
            return False
        if not np.array_equal(c[a[c[a]]], b):      # (ac)^2 = b
            return False
        # the relations make <a,b,c> a quotient of D4; it must be all of it
        if PermGroup(self.group.degree, [a, b, c]).order() != 8:
            return False
        sub = PermGroup(self.group.degree, [a, g])
        return sub.order() == self.group.order()

    def stabiliser_group(self):
        return PermGroup(self.group.degree, [self.a, self.b, self.c])

    def coset_order(self):
        return self.group.order() // 8

    def record_line(self):
        return "epi group=%s a=%s g=%s coset_order=%d" % (
            self.group.name or "unnamed",
            _perm_hash(self.a), _perm_hash(self.g), self.coset_order())


def _perm_hash(p):
    return hashlib.sha256(np.asarray(p, dtype=np.int64).tobytes()).hexdigest()[:12]


def epimorphism_search(group: PermGroup) -> list[EpiWitness]:
    """All witnesses (a, g) up to simultaneous conjugation, deterministic order.

    Exhaustive: a runs over involution class representatives, g over every
    group element; the relation filter is vectorised over g.
    """
    order = group.order()
    if order % 8:
        return []
    els, locate = group.elements()
    n, deg = els.shape
    arange = np.arange(deg, dtype=els.dtype)
    sq = np.take_along_axis(els, els, axis=1)
    is_ident = np.all(els == arange, axis=1)
    invol = np.nonzero(np.all(sq == arange, axis=1) & ~is_ident)[0]

    # involution classes: orbits of conjugation by the generators on element
    # indices, each represented by its smallest index
    conj_perms = [locate(g[els[:, inverse(g)]]) for g in group.gens]
    reps = np.unique(orbit_labels(n, conj_perms)[invol])

    ginv_all = np.argsort(els, axis=1)
    witnesses = []
    for rep in reps:
        a = els[rep]
        t1 = a[ginv_all]                                  # rows: a composed after g^-1
        b = np.take_along_axis(els, t1, axis=1)           # b = g^-1 a g
        t2 = np.take_along_axis(b, ginv_all, axis=1)
        c = np.take_along_axis(els, t2, axis=1)           # c = g^-1 b g
        ab = b[:, a]
        ok = np.all(np.take_along_axis(ab, ab, axis=1) == arange, axis=1)
        bc = np.take_along_axis(c, b, axis=1)
        ok &= np.all(np.take_along_axis(bc, bc, axis=1) == arange, axis=1)
        ac = c[:, a]
        ok &= np.all(np.take_along_axis(ac, ac, axis=1) == b, axis=1)
        ok &= np.any(b != a, axis=1)                      # b = a collapses <a,b,c>
        cand = np.nonzero(ok)[0]

        # centraliser of a, for the remaining conjugation freedom
        cent = np.nonzero(np.all(els[:, a] == a[els], axis=1))[0]
        cent_els = els[cent]
        cent_inv = np.argsort(cent_els, axis=1)

        seen = np.zeros(n, dtype=bool)
        for gidx in cand:
            if seen[gidx]:
                continue
            g = els[gidx]
            w = EpiWitness(group, a.copy(), g.copy())
            if w.check():
                witnesses.append(w)
            # mark the whole conjugation orbit of g under the centraliser
            seen[locate(np.take_along_axis(cent_els, g[cent_inv], axis=1))] = True
    return witnesses


# ---------------------------------------------------------------------------
# coset graphs
# ---------------------------------------------------------------------------


def coset_graph(group: PermGroup, stab: PermGroup, g):
    """Graph on the right cosets of stab, darts the two arc orbits of
    (stab, stab*g); returns (graph, action) with the right-multiplication
    action of the group (stabiliser generators included for fast chains)."""
    if stab.order() != 8:
        raise SearchError("coset stabiliser must have order 8")
    for h in stab.gens:
        if not group.contains(h):
            raise SearchError("stabiliser is not a subgroup")
    g = np.asarray(g, dtype=DTYPE)
    if not group.contains(g):
        raise SearchError("connecting element lies outside the group")
    conn = PermGroup(group.degree, list(stab.gens) + [g])
    if conn.order() != group.order():
        raise SearchError("<H, g> is a proper subgroup: coset graph disconnected")

    els, locate = group.elements()
    stab_els, in_stab = stab.elements()
    gi = inverse(g)

    d0 = stab_els[in_stab(gi[stab_els[:, g]]) >= 0]      # H cap H^(g^-1)
    d1 = stab_els[in_stab(g[stab_els[:, gi]]) >= 0]      # H cap H^g
    if len(d0) != 4 or len(d1) != 4:
        raise SearchError("arc stabiliser has order %d, not 4 (valence != 4)" % len(d0))

    def coset_ids(sub_els):
        # right coset of x keyed by the minimal element index over {s*x}
        key = np.min([locate(els[:, s]) for s in sub_els], axis=0)
        reps, ids = np.unique(key, return_inverse=True)
        return ids, reps

    vid, vreps = coset_ids(stab_els)
    did0, d0reps = coset_ids(d0)
    did1, d1reps = coset_ids(d1)
    n = len(vreps)
    m0 = len(d0reps)
    assert m0 == 2 * n and len(d1reps) == 2 * n

    # index of g*x and g^-1*x for every element x
    g_right = locate(els[:, g])
    gi_right = locate(els[:, gi])

    beg = vid[np.concatenate([d0reps, d1reps])]
    inv = np.concatenate([2 * n + did1[g_right[d0reps]], did0[gi_right[d1reps]]])
    graph = Graph(n, beg, inv)

    # right multiplication action, generators of G plus stabiliser seeds
    action_gens = []
    for k in list(group.gens) + list(stab.gens):
        rk = locate(k[els])                           # the element x*k
        perm = np.empty(n + 4 * n, dtype=DTYPE)
        perm[vid[vreps]] = vid[rk[vreps]]
        perm[n + did0[d0reps]] = n + did0[rk[d0reps]]
        perm[n + 2 * n + did1[d1reps]] = n + 2 * n + did1[rk[d1reps]]
        action_gens.append(perm)
    return graph, GraphAction.generated(graph, action_gens, group.order())


# ---------------------------------------------------------------------------
# relevant pairs
# ---------------------------------------------------------------------------


@dataclass
class RelevantPair:
    graph: Graph
    action: GraphAction
    provenance: dict

    def order(self):
        return self.graph.n

    def group_order(self):
        return self.action.group.order()

    def certificate(self):
        """Graph certificate; the group's vertex permutations seed the search."""
        n = self.graph.n
        return certificate(self.graph,
                           known_gens=[h[:n] for h in self.action.group.gens]).data


def dedupe_pairs(pairs):
    """One pair per graph certificate, ordered by (order, certificate)."""
    keyed = {}
    for pair in pairs:
        key = (pair.graph.n, pair.certificate())
        if key not in keyed:
            keyed[key] = pair
    return [keyed[k] for k in sorted(keyed.keys())]


def pair_isomorphic(p1: RelevantPair, p2: RelevantPair) -> bool:
    """True iff some graph isomorphism conjugates one acting group onto the
    other (isomorphism of pairs).  Cost grows with the index of the group in
    the full automorphism group; base pairs keep that index small."""
    if p1.graph.n != p2.graph.n:
        return False
    if p1.group_order() != p2.group_order():
        return False
    iso = canon.isomorphism(p1.graph, p2.graph)
    if iso is None:
        return False
    vmap, dmap = iso
    phi = np.concatenate([vmap, dmap + p2.graph.n]).astype(DTYPE)
    phi_inv = inverse(phi)
    conj_gens = [phi[h[phi_inv]] for h in p1.action.group.gens]
    target = p2.action.group
    aut = aut_group(p2.graph)
    reps = [np.arange(aut.group.degree, dtype=DTYPE)]
    queue = [reps[0]]
    while queue:
        r = queue.pop()
        for a in aut.group.gens:
            x = a[r]
            if not any(target.contains(x[inverse(r2)]) for r2 in reps):
                reps.append(x)
                queue.append(x)
    for alpha in reps:
        ai = inverse(alpha)
        if all(target.contains(alpha[h[ai]]) for h in conj_gens):
            return True
    return False


def dedupe_base_pairs(pairs):
    """Collapse base pairs up to pair isomorphism.

    Pairs whose groups come from different (non-isomorphic) catalog groups
    never merge; within one catalog group and graph certificate the honest
    conjugacy test decides.
    """
    buckets = {}
    for pair in pairs:
        key = (pair.provenance.get("group"), pair.graph.n, pair.certificate())
        buckets.setdefault(key, []).append(pair)
    out = []
    for key in sorted(buckets.keys(), key=lambda k: (k[1], k[2], str(k[0]))):
        kept = []
        for pair in buckets[key]:
            if not any(pair_isomorphic(pair, existing) for existing in kept):
                kept.append(pair)
        out.extend(kept)
    return out
