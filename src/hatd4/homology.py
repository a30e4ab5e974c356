"""Group actions on first homology over GF(p) and minimal admissible covers.

The cycle space of a connected semiedge-free graph has dimension
beta = |E| - |V| + 1; fundamental cycles of the graph's cached
breadth-first tree (`Graph.spanning_tree`) give the basis, indexed by
cotree edges in positive-dart order.  `_cycle_table` caches each
fundamental cycle as a walk of darts through vertex 0, and a generator's
matrix (row convention) sums the cycle coordinates of the images of those
darts: `homology_rep` adds them into dense matrices, and the GF(2) fixed
space XORs them into bit-packed rows.  Lifts solve vertex potentials along
the tree one layer at a time.  Maximal invariant subspaces of
codimension d correspond to minimal admissible covers of degree p^d.
Each is found as its annihilator, a d x beta dual basis r: over GF(2)
with d = 1 from the bit-packed fixed space, otherwise from the dense
module.  There a dual minimal submodule of dimension e <= dmax is killed
by P(A^T) for every generator A, P the product of x^(p^d) - x over
d = 1..dmax, which is the product of the irreducible h of degree <= dmax
to the powers dmax // deg h: the minimal polynomial of A^T on the
submodule has degree <= e, so it divides P.  So for dmax >= 2 the MeatAxe
chops only the largest submodule inside all those kernels, often a line,
not the whole dual module.  Every cover then takes one route:
`_quotient_matrices` checks invariance and gives the induced d x d
matrices, `voltages_from_dual` projects the fundamental cycles to
voltages, and `lift_group` builds the derived cover and lifts the acting
group by those potentials.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from hatd4 import gfp, meataxe
from hatd4.covers import (CoverError, VoltageAssignment, derived_cover,
                          fibre_index, spanning_tree, spanning_tree_mask,
                          translation_action)
from hatd4.graphs import Graph, GraphError
from hatd4.perms import PermGroup, perm_order
from hatd4.symmetry import GraphAction, combine


@dataclass
class HomologyModule:
    base: Graph
    p: int
    dim: int
    action: list  # one (dim x dim) int64 matrix per generator, row convention
    cotree: np.ndarray  # positive dart per basis cycle
    orders: list | None = None  # permutation order of each generator; A^k = I

    def is_invariant(self, basis):
        b = np.atleast_2d(basis)
        for a in self.action:
            y = gfp.matmul(b, a, self.p)
            for row in y:
                aug = np.vstack([b, row[None, :]])
                if gfp.rank(aug, self.p) != b.shape[0]:
                    return False
        return True


def _cycle_table(g: Graph):
    """The fundamental cycles of the cached breadth-first tree, cached in
    turn: ``(cotree, idx, sgn, rows, darts)``.

    cotree holds the positive dart of each cotree edge, ascending, one per
    basis cycle.  idx and sgn map a dart to its cycle coordinate: the basis
    index of its cotree edge with sign +1 on the positive dart and -1 on the
    inverse (idx -1 and sgn 0 on tree darts).  Cycle c is the closed walk
    from vertex 0 down the tree to beg c, along c, then back up from end c;
    dart darts[k] lies on the walk of cycle rows[k].  The part shared by
    both tree paths cancels, so it is left in.
    """
    hit = g._cache.get("cycles")
    if hit is not None:
        return hit
    if g.semiedge_darts().size:
        raise GraphError("homology needs a semiedge-free graph")
    if not g.is_connected():
        raise GraphError("homology needs a connected graph")
    parent, _ = g.spanning_tree()
    pos = g.edges()
    cotree = pos[~spanning_tree_mask(g)[pos]]
    basis = np.arange(len(cotree))
    idx = np.full(g.m, -1, dtype=np.int64)
    sgn = np.zeros(g.m, dtype=np.int64)
    idx[cotree], sgn[cotree] = basis, 1
    idx[g.inv[cotree]], sgn[g.inv[cotree]] = basis, -1
    rows, darts = [basis], [cotree]
    for v, up in ((g.beg[cotree], False), (g.end()[cotree], True)):
        row = basis
        while True:
            below = v != 0
            row, v = row[below], v[below]
            if not len(v):
                break
            t = parent[v]
            rows.append(row)
            darts.append(g.inv[t] if up else t)
            v = g.beg[t]
    hit = (cotree, idx, sgn, np.concatenate(rows), np.concatenate(darts))
    g._cache["cycles"] = hit
    return hit


def _entries(table, perm, n):
    """(row, column, sign) entries of the homology matrix of the graph
    automorphism perm: row c sums the coordinates of the images of the
    darts on cycle c's walk."""
    _, idx, sgn, rows, darts = table
    img = perm[n:][darts] - n
    hit = idx[img] >= 0
    return rows[hit], idx[img[hit]], sgn[img[hit]]


def homology_rep(g: Graph, action: GraphAction, p: int) -> HomologyModule:
    """Action of the generators on H1(graph; GF(p)) in the cycle basis."""
    table = _cycle_table(g)
    beta = len(table[0])
    mats, orders = [], []
    for perm in action.group.gens:
        row, col, sign = _entries(table, perm, g.n)
        a = np.zeros((beta, beta), dtype=np.int64)
        np.add.at(a, (row, col), sign)
        mats.append(a % p)
        orders.append(perm_order(perm))
    if not mats:
        mats, orders = [np.eye(beta, dtype=np.int64)], [1]
    return HomologyModule(base=g, p=p, dim=beta, action=mats,
                          cotree=table[0], orders=orders)


# ---------------------------------------------------------------------------
# invariant subspaces
# ---------------------------------------------------------------------------


def dual_minimal_submodules(mod: HomologyModule, dmax: int, seed=0):
    """Row bases (rref, d x beta with d <= dmax) of the minimal submodules of
    the dual module; their annihilators are the maximal invariant subspaces.

    dmax = 1 takes `_dual_lines`.  For dmax >= 2 the MeatAxe chops only a
    small-degree core.  Let P be the product of x^(p^d) - x over
    d = 1..dmax: it is the product of the irreducible h of degree <= dmax,
    each to the power dmax // deg h.  On a minimal submodule S of dimension
    e <= dmax, the minimal polynomial of a generator A^T has degree at most
    e, so each of its irreducible factors h has degree <= dmax and divides
    it at most e // deg h times; it divides P, and S lies in ker P(A^T).
    S is a submodule, so it lies in the largest submodule inside all those
    kernels (`_small_degree_core`), whose minimal submodules of dimension
    <= dmax are those of the module.
    """
    if dmax < 1:
        return []
    p = mod.p
    if dmax == 1:
        return _dual_lines(mod)
    dual = [a.T.copy() for a in mod.action]
    core = _small_degree_core(mod, dual, dmax)
    if not len(core):
        return []
    sub, _ = meataxe.sub_action(core, dual, p)
    found = [gfp.rref(gfp.matmul(b, core, p), p)[0]
             for b in meataxe.minimal_submodules(sub, p, dmax, seed=seed)]
    return sorted(found, key=lambda b: (b.shape[0], b.tobytes()))


def _small_degree_core(mod: HomologyModule, dual, dmax):
    """Rref basis of the largest submodule of the dual module inside every
    ker P(A^T) (see `dual_minimal_submodules`).

    Starting from the identity, each generator's P(A^T) is applied to the
    current basis b one factor A^(p^d) - A at a time, A^(p^d) the p-th power
    of A^(p^(d-1)), so the work is dmax p-th powers of beta x beta matrices
    per generator, whatever the generator's order; a nonzero image cuts b to
    its left kernel.  The basis then shrinks to the vectors whose images
    under every generator stay inside it, one left nullspace of the stacked
    residuals per round, until it is invariant.
    """
    p = mod.p
    basis = gfp.identity(mod.dim, p)
    for a in dual:
        y, power = basis, a
        for _ in range(dmax):
            power = _matrix_power(power, p, p)
            y = gfp.matmul(y, (power - a) % p, p)
        if y.any():
            basis = _left_kernel_span(y, basis, p)
    stacked = meataxe._stack_generators(dual, p)
    while len(basis):
        piv = np.argmax(basis != 0, axis=1)
        images = gfp.matmul(basis, stacked, p).reshape(len(basis), len(dual), -1)
        residual = (images - gfp.matmul(images[:, :, piv], basis, p)) % p
        if not residual.any():
            break
        basis = _left_kernel_span(residual.reshape(len(basis), -1), basis, p)
    return basis


def _matrix_power(a, e, p):
    """a^e mod p for e >= 1, by repeated squaring."""
    out = None
    while True:
        if e & 1:
            out = a if out is None else gfp.matmul(out, a, p)
        e >>= 1
        if not e:
            return out
        a = gfp.matmul(a, a, p)


def _left_kernel_span(y, b, p):
    """Rref basis of {x b : x y = 0}, for b with independent rows."""
    x = gfp.nullspace(y.T, p)
    if not len(x):
        return np.zeros((0, b.shape[1]), dtype=np.int64)
    return gfp.rref(gfp.matmul(x, b, p), p)[0]


def _dual_lines(mod: HomologyModule):
    """1-dimensional dual submodules via eigenvalue branching.

    A dual line satisfies w A^T = lam w per generator, equivalently
    (A - lam) w^T = 0.  Generators are taken in turn, each restricted to
    the eigenspaces its predecessors left; every line of a leaf space
    qualifies.  A generator of order k has A^k = I, so its eigenvalues in
    GF(p)* satisfy lam^k = 1, i.e. lam^gcd(k, p-1) = 1, and only those lam
    are tried, in increasing order.  A module that records no generator
    orders takes k = p - 1, which admits every lam.  Covers over GF(2)
    with d = 1 take the bit-packed `_gf2_fixed_lines` instead.
    """
    p = mod.p
    beta = mod.dim
    orders = getattr(mod, "orders", None) or [p - 1] * len(mod.action)
    leaves = [np.eye(beta, dtype=np.int64)]
    for a, k in zip(mod.action, orders):
        lams = _eigenvalue_candidates(p, k)
        refined = []
        for b in leaves:
            # w = x b with A w^T = lam w^T: solve (A b^T - lam b^T) x^T = 0
            bt = b.T % p
            abt = gfp.matmul(a, bt, p)
            for lam in lams:
                x = gfp.nullspace((abt - lam * bt) % p, p)
                if len(x):
                    refined.append(gfp.matmul(x, b, p))
        leaves = refined
        if not leaves:
            return []
    return _lines_of_spans(leaves, p)


def _lines_of_spans(bases, p):
    """Every line in the row spans of the bases, as sorted 1 x beta rref rows."""
    lines = {}
    for basis in bases:
        for rr in meataxe.span_points(basis[:, None, :], p):
            lines[rr.tobytes()] = rr
    return sorted(lines.values(), key=lambda b: b.tobytes())


def _eigenvalue_candidates(p, k):
    """The lam in GF(p)*, ascending, with lam^k = 1."""
    e = math.gcd(k, p - 1)
    return [lam for lam in range(1, p) if pow(lam, e, p) == 1]


def maximal_invariant_submodules(mod: HomologyModule, dmax: int, seed=0):
    """Every maximal invariant subspace of codimension <= dmax, rref bases,
    sorted lexicographically by (dimension, entries)."""
    out = []
    for r in dual_minimal_submodules(mod, dmax, seed=seed):
        k = np.atleast_2d(gfp.nullspace(r, p=mod.p))
        out.append(k)
    return sorted(out, key=lambda b: (b.shape[0], b.tobytes()))


def cover_from_kernel(mod: HomologyModule, kernel) -> VoltageAssignment:
    """Voltage assignment of the quotient map with the given invariant kernel."""
    p = mod.p
    k = np.atleast_2d(np.asarray(kernel, dtype=np.int64)) % p
    if mod.dim - gfp.rank(k, p) < 1:
        raise CoverError("kernel is the whole space; no cover")
    r = gfp.nullspace(k, p) if k.shape[0] else gfp.identity(mod.dim, p)
    _quotient_matrices(mod, r)
    return voltages_from_dual(mod.base, mod.cotree, r, p)


def voltages_from_dual(g: Graph, cotree, r, p) -> VoltageAssignment:
    """Voltage assignment whose cotree voltages are the dual projection of
    the fundamental cycles (r is the d x beta dual basis, one column per
    cotree dart)."""
    volt = np.zeros((g.m, r.shape[0]), dtype=np.int64)
    volt[cotree] = r.T % p
    volt[g.inv[cotree]] = (-r.T) % p
    return VoltageAssignment(g, p, r.shape[0], volt)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


@dataclass
class LiftedPair:
    cover: Graph
    action: GraphAction
    zeta: VoltageAssignment
    dual_basis: np.ndarray
    translations: GraphAction
    stabiliser_gens: list
    base: Graph
    base_action: GraphAction
    projection: object

    @property
    def p(self):
        return self.zeta.p

    @property
    def d(self):
        return self.zeta.d

    def kernel_hash(self):
        h = hashlib.sha256()
        h.update(b"p=%d;d=%d;" % (self.zeta.p, self.zeta.d))
        h.update(self.dual_basis.astype(np.int64).tobytes())
        return h.hexdigest()[:16]

    def metadata_line(self, base_id):
        return "cover p=%d d=%d base_id=%s kernel_hash=%s |V|=%d |G|=%d" % (
            self.zeta.p, self.zeta.d, base_id, self.kernel_hash(),
            self.cover.n, self.action.group.order())


def _quotient_matrices(mod: HomologyModule, r):
    """The d x d matrices q with A @ r^T = r^T @ q, one per generator A, for
    an rref dual basis r; CoverError if the kernel of r is not invariant."""
    p = mod.p
    rt = r.T % p
    _, piv = gfp.rref(r, p)
    qmats = []
    for gi, a in enumerate(mod.action):
        y = gfp.matmul(a, rt, p)
        q = y[piv, :]
        if not np.array_equal(gfp.matmul(rt, q, p), y):
            raise CoverError("voltage kernel not invariant under generator %d" % gi)
        qmats.append(q)
    return qmats


def lift_group(g: Graph, action: GraphAction, zeta: VoltageAssignment,
               dual_basis, qmats) -> LiftedPair:
    """Lift the acting group along the derived cover of an admissible voltage.

    zeta must come from the invariant kernel of dual_basis (admissibility),
    and qmats[i] is the matrix generator i induces on the voltage group
    GF(p)^d, as `_quotient_matrices` gives it.  Each generator's lift solves
    vertex potentials along the spanning tree and is rejected if any cotree
    dart violates the potential equation; fibre point a over v maps to
    a Q + s(v) over the image of v.  Potentials vanish at vertex 0, so lifts
    of generators fixing vertex 0 fix the fibre point (0, 0), and the
    stabiliser of (0, 0) is generated by the lifts of the stabiliser
    generators supplied through the action ordering.
    """
    p, d = zeta.p, zeta.d
    cover, proj = derived_cover(zeta)
    ends = g.end()
    _, layers = spanning_tree(g)
    gens = []
    stab_lifts = []
    for gi, perm in enumerate(action.group.gens):
        vp = perm[: g.n]
        dp = perm[g.n :] - g.n
        qmat = qmats[gi]
        # delta(x) = zeta(x^g) - zeta(x) Q  must be a tree potential difference
        delta = (zeta.volt[dp] - gfp.matmul(zeta.volt, qmat, p)) % p
        s = np.zeros((g.n, d), dtype=np.int64)
        for vs, ts in layers:
            s[vs] = (s[g.beg[ts]] + delta[ts]) % p
        if np.any((s[ends] - s[g.beg] - delta) % p):
            raise CoverError("generator %d does not lift (non-admissible voltage)" % gi)
        s = (s - s[0]) % p
        lift_v = fibre_index(vp, s, p, d, qmat)
        lift_d = fibre_index(dp, s[g.beg], p, d, qmat)
        gens.append(combine(cover, lift_v, lift_d))
        if vp[0] == 0:
            stab_lifts.append(gens[-1])
    trans = translation_action(zeta, cover)
    gens.extend(trans.group.gens)
    want = p**d * action.group.order()
    big = PermGroup(cover.n + cover.m, gens, known_order=want)
    lifted_action = GraphAction(cover, big)
    if big.order() != want:
        raise CoverError("lifted group has order %d, expected %d"
                         % (big.order(), want))
    return LiftedPair(cover=cover, action=lifted_action, zeta=zeta,
                      dual_basis=dual_basis, translations=trans,
                      stabiliser_gens=stab_lifts, base=g, base_action=action,
                      projection=proj)


# ---------------------------------------------------------------------------
# bit-packed GF(2) dual lines
# ---------------------------------------------------------------------------


def _gf2_fixed_rows(g: Graph, action: GraphAction):
    """The bit-packed rows of (A - I) over GF(2) for every generator matrix
    A, stacked: each entry of A, and of the diagonal, flips one bit."""
    table = _cycle_table(g)
    beta = len(table[0])
    diag = np.arange(beta)
    stacked = np.zeros((len(action.group.gens) * beta, (beta + 63) // 64), dtype=np.uint64)
    for k, perm in enumerate(action.group.gens):
        row, col, _ = _entries(table, perm, g.n)
        row, col = np.concatenate([row, diag]) + k * beta, np.concatenate([col, diag])
        np.bitwise_xor.at(stacked, (row, col >> 6), np.uint64(1) << (col & 63).astype(np.uint64))
    return stacked


def _gf2_fixed_lines(g: Graph, action: GraphAction):
    """Dual lines over GF(2) without dense matrices: the common fixed space
    of the transposed action is the nullspace of the stacked (A - I)."""
    basis = gfp.gf2_nullspace_packed(_gf2_fixed_rows(g, action), len(_cycle_table(g)[0]))
    if len(basis) > 24:
        raise CoverError("fixed space of dimension %d is too large to enumerate"
                         % len(basis))
    return _lines_of_spans([basis], 2)


# ---------------------------------------------------------------------------
# the enumeration
# ---------------------------------------------------------------------------


def cover_budget(n0: int, max_order: int, primes=None, dim_override=None):
    """(p, dmax) pairs with p^d * n0 <= max_order for some d >= 1.

    max_order, an explicit prime list and dim_override are checked first:
    CoverError for max_order below 1, an entry that is not prime or an
    override below 1.
    """
    if max_order < 1:
        raise CoverError("max order must be at least 1, got %d" % max_order)
    bad = [p for p in primes or () if not gfp.is_prime(p)]
    if bad:
        raise CoverError("%d is not a prime" % bad[0])
    if dim_override is not None and dim_override < 1:
        raise CoverError("cover dimension must be at least 1, got %d" % dim_override)
    ratio = max_order // n0
    if ratio < 2:
        return []
    plist = primes if primes is not None else filter(gfp.is_prime, range(ratio + 1))
    out = []
    for p in plist:
        if p > ratio:
            continue
        dmax = 0
        v = 1
        while v * p <= ratio:
            v *= p
            dmax += 1
        if dim_override is not None:
            dmax = min(dmax, dim_override)
        if dmax >= 1:
            out.append((p, dmax))
    return out


def minimal_admissible_covers(g: Graph, action: GraphAction, max_order: int,
                              primes=None, dim_override=None, seed=0):
    """All minimal admissible elementary abelian covers of the pair with
    cover order at most max_order, sorted by (p, d, dual basis)."""
    results = {}
    for p, dmax in cover_budget(g.n, max_order, primes, dim_override):
        if p == 2 and dmax == 1:
            ident = [np.eye(1, dtype=np.int64)] * len(action.group.gens)
            found = [(r, ident) for r in _gf2_fixed_lines(g, action)]
        else:
            mod = homology_rep(g, action, p)
            found = [(r, _quotient_matrices(mod, r))
                     for r in dual_minimal_submodules(mod, dmax, seed=seed)]
        for r, qmats in found:
            zeta = voltages_from_dual(g, _cycle_table(g)[0], r, p)
            pair = lift_group(g, action, zeta, r, qmats)
            results[(p, r.shape[0], r.tobytes())] = pair
    return [results[k] for k in sorted(results.keys())]
