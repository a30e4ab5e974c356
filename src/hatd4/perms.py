"""Permutation groups with deterministic stabiliser chains.

A permutation on 0..k-1 is a numpy int32 array of images; the product
convention is ``x^(gh) = (x^g)^h``, so ``compose(g, h)`` applies g first.
PermGroup keeps a lazily built Schreier-Sims chain with Schreier-vector
transversals; base points are the smallest moved points, or the first
moved points of a base the caller gives, which makes every derived count
reproducible.  The constructor installs
all its generators at level 0 at once and builds that level's orbit and
Schreier vector in one breadth-first pass over all of them, a numpy step
per layer, so the tree is as deep as the orbit's radius rather than one
generator's cycle.  It then sifts the Schreier pairs, kept as integer
arrays, until the chain is closed.  A pair of level i whose residue stops
at level j adds it to levels i+1..j only: the groups of levels 0..i hold
it already.  ``StabChain.add(g)`` grows a chain one element at a time: it
sifts g, installs a non-trivial residue at levels 0..j, j the level where
the sift stopped (the same layered pass extends each orbit from the points
it adds), and closes the chain again.

A caller that knows a base of the group, a point sequence whose pointwise
stabiliser is trivial, can pass it in: an element is then determined by
its images of those points, so the Schreier pairs sift a batch at a time on
those images alone, as (pairs x base points) arrays, and only a pair that
sifts to a non-identity element is rebuilt in full (Seress, "Permutation
Group Algorithms", 2003, ch. 4).  The pairs are sifted in the same order
and the same residues installed as one at a time, so the chain is the same.
Chains without a base sift their pairs one at a time.

A caller that already knows the group order can pass it in: the chain then
stops as soon as the product of fundamental orbit lengths reaches it, which
is very fast for the large-degree lifted groups, and refuses any later
non-member.  The early exit trusts that order and is exact only when it is
right: a value below the true order that a partial chain reaches stops the
build there (S4's generators with ``known_order=12`` report order 12).  A
chain that never reaches its known order has sifted every pair and reports
its true order."""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from hatd4 import gfp
from hatd4.graphs import MAX_ID, parse_ints, read_lines

DTYPE = np.int32
ENUMERATION_CAP = 200_000_000  # most entries (order x degree) elements() lists
MAX_DERIVED_LENGTH = 64  # most derived-series steps is_solvable takes


class GroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# permutations as arrays
# ---------------------------------------------------------------------------


def identity_perm(n):
    return np.arange(n, dtype=DTYPE)


def is_identity(p):
    return bool(np.all(p == np.arange(len(p), dtype=p.dtype)))


def compose(g, h):
    """g followed by h: (g*h)[x] = h[g[x]]."""
    return h[g]


def inverse(p):
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def perm_order(p):
    """The lcm of the cycle lengths of p, as an exact integer."""
    lengths = np.bincount(orbit_labels(len(p), [np.asarray(p)]))
    return math.lcm(*np.unique(lengths[lengths > 0]).tolist())


def from_cycles(n, cycles):
    p = identity_perm(n)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return p


def cycle_string(p):
    out = []
    seen = set()
    for i in range(len(p)):
        if i in seen or p[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        j = int(p[i])
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = int(p[j])
        seen.add(i)
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"


def check_perm(p, degree=None):
    p = np.asarray(p, dtype=DTYPE)
    n = len(p) if degree is None else degree
    if len(p) != n or not np.all(np.sort(p) == np.arange(n, dtype=DTYPE)):
        raise GroupError("not a permutation of 0..%d" % (n - 1))
    return p


def check_points(degree, points):
    """The points as an index array; GroupError for any outside 0..degree-1."""
    pts = [int(x) for x in points]
    bad = [x for x in pts if not 0 <= x < degree]
    if bad:
        raise GroupError("point %d out of range 0..%d" % (bad[0], degree - 1))
    return np.array(pts, dtype=np.intp)


# a Perm value is just an image array
Perm = np.ndarray


# ---------------------------------------------------------------------------
# stabiliser chain
# ---------------------------------------------------------------------------


_NO_PAIRS = np.empty((0, 2), dtype=DTYPE)
_NEVER = np.iinfo(np.int64).max
_SIFT_ENTRIES = 1 << 16  # most base images one batch of Schreier pairs holds


class _Level:
    __slots__ = ("base", "gens", "inv_gens", "via", "parent", "orbit", "pending",
                 "cursor", "stacks")

    def __init__(self, degree, base):
        self.base = base
        self.gens = []
        self.inv_gens = []  # each generator's inverse, made when a sift needs it
        self.via = np.full(degree, -2, dtype=DTYPE)
        self.via[base] = -1
        self.parent = np.full(degree, -1, dtype=DTYPE)
        self.orbit = np.array([base], dtype=DTYPE)
        self.pending = _NO_PAIRS  # Schreier pairs (point, generator) to sift
        self.cursor = 0           # pending[:cursor] are sifted
        self.stacks = None        # (gens, inverses) stacked for base-image sifts

    def stacked(self):
        """The generators and their inverses as two arrays of rows, each
        with the identity as its last row, so that row -1 (the `via` of the
        base) applies nothing; built once per set of generators."""
        if self.stacks is None:
            degree = len(self.via)
            gens = np.vstack(self.gens + [np.arange(degree, dtype=DTYPE)])
            inv = np.empty_like(gens)
            inv[np.arange(len(gens))[:, None], gens] = np.arange(degree, dtype=DTYPE)
            self.stacks = gens, inv
        return self.stacks


class StabChain:
    """Deterministic Schreier-Sims stabiliser chain.

    The constructor installs every non-identity generator at level 0 at once
    and builds that level's Schreier tree breadth-first over all of them, so
    its depth is the orbit's radius, not the length of one generator's
    cycle.  Without base, each level's base point is the smallest point the
    first of its generators moves.  base is a point sequence whose pointwise
    stabiliser in the group is trivial (repeats allowed): each level's base
    point is then the first of them its generators move, and Schreier pairs
    sift on their images of those points alone, a batch at a time.  complete
    is set once the product of orbit lengths reaches known_order; the chain
    then keeps no Schreier pairs and add() only confirms members.
    """

    def __init__(self, degree, gens, base=None, known_order=None):
        self.degree = degree
        self.levels: list[_Level] = []
        self.known_base = None if base is None else check_points(degree, base)
        self.known_order = known_order
        self.complete = False
        gens = [g for g in (np.asarray(g, dtype=DTYPE) for g in gens)
                if not is_identity(g)]
        if gens:
            self._install(0, 0, gens)
            self._close()

    def add(self, g):
        """Sift g into the chain and close it again; True iff g was not a
        member.  A chain at its known order raises GroupError instead."""
        resid, lvl = self._strip(np.asarray(g, dtype=DTYPE), 0)
        if is_identity(resid):
            return False
        if self.complete:
            raise GroupError("element outside a chain at its known order %d"
                             % self.known_order)
        self._install(0, lvl, [resid])
        self._close()
        return True

    # -- queries ------------------------------------------------------------

    def order(self):
        n = 1
        for lev in self.levels:
            n *= len(lev.orbit)
        return n

    def base(self):
        return [lev.base for lev in self.levels]

    def contains(self, p):
        resid, _ = self._strip(np.asarray(p, dtype=DTYPE), 0)
        return is_identity(resid)

    def stabiliser_gens(self, level=1):
        """The strong generators of a level, which generate the stabiliser
        of the first `level` base points once the chain is complete."""
        if level < len(self.levels):
            return list(self.levels[level].gens)
        return []

    # -- construction internals ----------------------------------------------

    def _strip(self, h, from_level):
        for i in range(from_level, len(self.levels)):
            lev = self.levels[i]
            b = lev.base
            beta = int(h[b])
            if beta == b:
                continue
            if lev.via[beta] == -2:
                return h, i
            while beta != b:
                k = lev.via[beta]
                gi = lev.inv_gens[k]
                if gi is None:
                    gi = lev.inv_gens[k] = inverse(lev.gens[k])
                h = gi[h]
                beta = int(gi[beta])
        return h, len(self.levels)

    def _install(self, low, level, gens):
        """Install non-identity strong generators gens, which fix the bases
        before level, at levels low..level."""
        if level == len(self.levels):
            self.levels.append(_Level(self.degree, self._new_base(gens)))
        for lev in self.levels[low : level + 1]:
            first = len(lev.gens)
            lev.gens.extend(gens)
            lev.inv_gens.extend([None] * len(gens))
            lev.stacks = None
            self._extend_orbit(lev, first)
        if self.known_order is not None and self.order() == self.known_order:
            self.complete = True
            self._drop_pairs()

    def _new_base(self, gens):
        pts = self.known_base
        if pts is None:
            return int(np.flatnonzero(gens[0] != np.arange(self.degree, dtype=DTYPE))[0])
        moved = np.array(gens)[:, pts] != pts
        if not np.all(np.any(moved, axis=1)):
            raise GroupError("a non-identity element fixes every base point")
        return int(pts[np.argmax(np.any(moved, axis=0))])

    def _extend_orbit(self, lev, first):
        """Apply generators first.. of lev to its whole orbit, then every
        generator to the points that join it, one breadth-first layer per
        step.  Images are taken in (point, generator) order: an image new to
        the orbit the first time it appears enters the Schreier tree, and
        every other one queues a Schreier pair."""
        pts, lo = lev.orbit, first
        # a point's slot is written only in the layer that reaches it
        first_seen = np.full(self.degree, _NEVER)
        grown, pairs = [lev.orbit], [lev.pending[lev.cursor:]]
        while len(pts):
            gens = lev.gens[lo:]
            imgs = np.empty((len(pts), len(gens)), dtype=DTYPE)
            for j, g in enumerate(gens):
                imgs[:, j] = g[pts]
            imgs = imgs.ravel()
            new = np.flatnonzero(lev.via[imgs] == -2)
            np.minimum.at(first_seen, imgs[new], new)
            new = new[first_seen[imgs[new]] == new]
            rest = np.ones(len(imgs), dtype=bool)
            rest[new] = False
            at, k = np.divmod(new, len(gens))
            pts_new = imgs[new]
            lev.via[pts_new] = k + lo
            lev.parent[pts_new] = pts[at]
            at, k = np.divmod(np.flatnonzero(rest), len(gens))
            queued = np.empty((len(at), 2), dtype=DTYPE)
            queued[:, 0], queued[:, 1] = pts[at], k + lo
            pairs.append(queued)
            pts, lo = pts_new, 0
            grown.append(pts)
        lev.orbit = np.concatenate(grown)
        lev.pending, lev.cursor = np.concatenate(pairs), 0

    def _drop_pairs(self):
        for lev in self.levels:
            lev.pending, lev.cursor = _NO_PAIRS, 0

    def _transversal(self, lev, pt):
        """Permutation u with base^u = pt (None = identity)."""
        idxs = []
        q = pt
        while q != lev.base:
            idxs.append(lev.via[q])
            q = int(lev.parent[q])
        u = None
        for k in reversed(idxs):
            g = lev.gens[k]
            u = g if u is None else g[u]
        return u

    def _first_residue(self, i, pairs):
        """The index of the first Schreier pair of level i whose generator
        u_pt * s * u_(pt^s)^-1 is not the identity, or len(pairs).

        Only the images of the base are tracked, one row per pair: the
        transversal u_pt applied from the root down, then s, then the
        inverse tree walks of the strip, level by level.  Rows after one
        known to be non-trivial are dropped."""
        pts = self.known_base
        lev = self.levels[i]
        gens, _ = lev.stacked()
        q = pairs[:, 0]
        path = []
        while True:
            k = lev.via[q]
            if not np.any(k >= 0):
                break
            path.append(k)
            q = np.where(k >= 0, lev.parent[q], q)
        x = np.tile(pts, (len(pairs), 1))
        for k in reversed(path):
            x = gens[k[:, None], x]
        x = gens[pairs[:, 1, None], x]
        for level in self.levels[i:]:
            _, inv = level.stacked()
            col = int(np.flatnonzero(pts == level.base)[0])
            while True:
                k = level.via[x[:, col]]
                out = np.flatnonzero(k == -2)
                if len(out):
                    x, k = x[: out[0]], k[: out[0]]
                if not np.any(k >= 0):
                    break
                x = inv[k[:, None], x]
        moved = np.flatnonzero(np.any(x != pts, axis=1))
        return int(moved[0]) if len(moved) else len(x)

    def _close(self):
        """Sift pending Schreier pairs, deepest level first, until none is
        left or the chain is complete.  With a known base, batches of pairs
        sift on base images: a batch starts at one pair after an install and
        doubles while whole batches sift to the identity, up to
        _SIFT_ENTRIES images.  The first pair that does not is rebuilt in
        full and installed, so the chain is the one the pair-by-pair sift
        builds."""
        size = 1
        while not self.complete:
            i = len(self.levels) - 1
            while i >= 0 and self.levels[i].cursor == len(self.levels[i].pending):
                i -= 1
            if i < 0:
                self._drop_pairs()
                return
            lev = self.levels[i]
            if self.known_base is not None:
                pairs = lev.pending[lev.cursor : lev.cursor + size]
                hit = self._first_residue(i, pairs)
                lev.cursor += hit
                if hit == len(pairs):
                    size = min(2 * size, max(1, _SIFT_ENTRIES // len(self.known_base)))
                    continue
                size = 1
            pt, k = lev.pending[lev.cursor]
            lev.cursor += 1
            u = self._transversal(lev, int(pt))
            s = lev.gens[k]
            w = s if u is None else s[u]
            resid, j = self._strip(w, i)
            if not is_identity(resid):
                self._install(i + 1, j, [resid])
            elif self.known_base is not None:
                raise AssertionError("a pair whose base images sift to a non-identity "
                                     "element sifts to the identity in full")


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


class PermGroup:
    """Finite permutation group on 0..degree-1 given by generators."""

    __slots__ = ("degree", "gens", "name", "_known_order", "_chain", "_elements")

    def __init__(self, degree, gens, name=None, known_order=None):
        self.degree = int(degree)
        cleaned = []
        seen = set()
        for g in gens:
            g = check_perm(np.asarray(g, dtype=DTYPE), self.degree)
            key = g.tobytes()
            if key in seen or is_identity(g):
                continue
            seen.add(key)
            g.setflags(write=False)
            cleaned.append(g)
        self.gens = cleaned
        self.name = name
        self._known_order = known_order
        self._chain = None
        self._elements = None

    def __repr__(self):
        label = self.name or "PermGroup"
        return "<%s degree=%d gens=%d>" % (label, self.degree, len(self.gens))

    def chain(self):
        """The stabiliser chain, built once."""
        if self._chain is None:
            self._chain = StabChain(self.degree, self.gens,
                                    known_order=self._known_order)
        return self._chain

    def order(self):
        return self.chain().order()

    def is_trivial(self):
        return not self.gens

    def contains(self, p):
        p = np.asarray(p, dtype=DTYPE)
        if len(p) != self.degree:
            raise GroupError("degree mismatch: %d vs %d" % (len(p), self.degree))
        return self.chain().contains(p)

    def orbit(self, point):
        (point,) = check_points(self.degree, [point])
        labels = orbit_labels(self.degree, self.gens)
        return set(np.flatnonzero(labels == labels[point]).tolist())

    def orbits(self, points=None):
        """The orbits meeting points (default all), as sets, in the order
        their first point appears."""
        labels = orbit_labels(self.degree, self.gens)
        todo = labels if points is None else labels[check_points(self.degree, points)]
        reps = todo[np.sort(np.unique(todo, return_index=True)[1])]
        return [set(np.flatnonzero(labels == r).tolist()) for r in reps]

    def point_stabiliser(self, point):
        (point,) = check_points(self.degree, [point]).tolist()
        if all(g[point] == point for g in self.gens):
            return PermGroup(self.degree, self.gens, known_order=self.order())
        # the group's own chain serves when the point is its first base
        # point; otherwise a second chain on the point and that base
        ch = self.chain()
        order = ch.order()
        if ch.levels[0].base != point:
            ch = StabChain(self.degree, self.gens, base=(point, *ch.base()), known_order=order)
            if ch.levels[0].base != point:
                raise GroupError("stabiliser chain failed to anchor at the point")
        stab_order = order // len(ch.levels[0].orbit)
        return PermGroup(self.degree, ch.stabiliser_gens(1), known_order=stab_order)

    def elements(self):
        """All elements and a lookup into them: ``(rows, locate)``, enumerated
        once per group (rows is read-only).

        rows is an (order, degree) array in breadth-first order from the
        identity: each round multiplies the last round's new rows by every
        generator, generator by generator, and keeps first occurrences.
        ``locate(perms)`` maps a stack of permutations (shape ``(..., degree)``)
        to their row numbers, -1 where a permutation is not in the group.  It
        keys rows by their images of the chain's base, which determine an
        element, then compares whole rows, so a permutation that agrees with
        an element on the base only is not found.  A group with more than
        ENUMERATION_CAP entries (order times degree) raises GroupError.
        """
        if self._elements is not None:
            return self._elements
        order = self.order()
        if order * self.degree > ENUMERATION_CAP:
            raise GroupError("group too large to enumerate (%d elements)" % order)
        key = _base_key(self.degree, self.chain().base())
        gens = np.array(self.gens, dtype=DTYPE).reshape(-1, self.degree)
        frontier = identity_perm(self.degree)[None]
        blocks, keys = [frontier], key(frontier)
        while len(frontier):
            cand = gens[:, frontier].reshape(-1, self.degree)
            k = key(cand)
            first = np.sort(np.unique(k, return_index=True)[1])
            first = first[~np.isin(k[first], keys, assume_unique=True)]
            frontier = cand[first]
            blocks.append(frontier)
            keys = np.concatenate([keys, k[first]])
        rows = np.concatenate(blocks)
        rows.setflags(write=False)
        if len(rows) != order:
            raise GroupError("element enumeration disagrees with chain order")
        by_key = np.argsort(keys)
        sorted_keys = keys[by_key]

        def locate(perms):
            perms = np.asarray(perms, dtype=DTYPE)
            at = np.minimum(np.searchsorted(sorted_keys, key(perms)), order - 1)
            i = by_key[at]
            return np.where(np.all(rows[i] == perms, axis=-1), i, -1)

        self._elements = rows, locate
        return self._elements


def _base_key(degree, base):
    """Map a stack of permutations to one sortable key per permutation, read
    off its images of base: an int64 in radix degree while degree**len(base)
    fits, the raw bytes of those images otherwise."""
    base = np.asarray(base, dtype=np.intp)
    if degree ** len(base) < 2**63:
        weights = degree ** np.arange(len(base), dtype=np.int64)
        return lambda perms: perms[..., base].astype(np.int64) @ weights
    width = np.dtype(DTYPE).itemsize * len(base)
    return lambda perms: np.ascontiguousarray(
        perms[..., base]).view(np.dtype((np.void, width)))[..., 0]


def orbit_labels(n, gens, labels=None):
    """Smallest point of each point's orbit under gens, on 0..n-1.  labels,
    if given, holds these labels for a subgroup generated by some of gens.

    Each round lowers every label to its image's label under each generator,
    then jumps each label to its own label, until a round changes nothing."""
    if labels is None:
        labels = np.arange(n, dtype=DTYPE)
    while True:
        old = labels
        for g in gens:
            labels = np.minimum(labels, labels[g])
        labels = labels[labels]
        if np.array_equal(labels, old):
            return labels


def is_semiregular(n: PermGroup, points) -> bool:
    """True iff the stabiliser in n of every listed point is trivial."""
    points = check_points(n.degree, points)
    if not points.size:
        raise GroupError("is_semiregular needs a non-empty point set")
    labels = orbit_labels(n.degree, n.gens)
    sizes = np.bincount(labels, minlength=n.degree)
    return bool(np.all(sizes[labels[points]] == n.order()))


def normal_closure(g: PermGroup, seeds) -> PermGroup:
    """Smallest normal subgroup of g containing the given elements."""
    degree = g.degree
    gens = []
    for s in seeds:
        s = np.asarray(s, dtype=DTYPE)
        if not g.contains(s):
            raise GroupError("seed element lies outside the group")
        if not is_identity(s):
            gens.append(s)
    if not gens:
        return PermGroup(degree, [])
    closure = list(gens)
    ch = StabChain(degree, closure)
    queue = deque(closure)
    g_invs = [inverse(x) for x in g.gens]
    while queue:
        k = queue.popleft()
        for gg, gi in zip(g.gens, g_invs):
            c = gg[k[gi]]  # g^-1 * k * g
            if ch.add(c):
                closure.append(c)
                queue.append(c)
    grp = PermGroup(degree, closure, known_order=ch.order())
    grp._chain = ch
    return grp


def derived_subgroup(g: PermGroup) -> PermGroup:
    comms = []
    for i, a in enumerate(g.gens):
        ai = inverse(a)
        for b in g.gens[i + 1 :]:
            bi = inverse(b)
            comms.append(b[a[bi[ai]]])  # a^-1 b^-1 a b
    return normal_closure(g, comms)


def is_solvable(g: PermGroup) -> bool:
    h = g
    order = h.order()
    for _ in range(MAX_DERIVED_LENGTH):
        if order == 1:
            return True
        d = derived_subgroup(h)
        d_order = d.order()
        if d_order == order:
            return False
        h, order = d, d_order
    raise GroupError("derived series did not terminate within %d steps"
                     % MAX_DERIVED_LENGTH)


def is_dihedral_8(h: PermGroup) -> bool:
    """Dihedral of order 8 (recognised by involution count, vs Q8)."""
    if h.order() != 8:
        return False
    if _is_abelian(h):
        return False
    els, _ = h.elements()
    ident = np.arange(h.degree, dtype=DTYPE)
    squares_to_one = np.all(np.take_along_axis(els, els, axis=1) == ident, axis=1)
    return np.count_nonzero(squares_to_one) > 2   # the identity and 2+ involutions


def is_elementary_abelian(h: PermGroup) -> bool:
    if h.is_trivial():
        return True
    if not _is_abelian(h):
        return False
    primes = {perm_order(g) for g in h.gens}
    if len(primes) != 1:
        return False
    return gfp.is_prime(primes.pop())


def _is_abelian(h: PermGroup) -> bool:
    for i, a in enumerate(h.gens):
        for b in h.gens[i + 1 :]:
            if not np.array_equal(a[b], b[a]):
                return False
    return True


# ---------------------------------------------------------------------------
# group catalog files
# ---------------------------------------------------------------------------


def read_group_file(path) -> PermGroup:
    """Parse the one-group-per-file catalog format.

    Lines: ``group <name>``, ``degree <k>``, optional ``order <n>``
    (verified), then ``gen <i0> ... <i_{k-1}>`` per generator.
    """
    name = None
    degree = None
    order = None
    gens = []
    for lineno, raw in enumerate(read_lines(path, GroupError), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "group":
            name = rest.strip()
        elif head == "degree":
            degree = parse_ints([rest], path, lineno, GroupError)[0]
            if not 1 <= degree <= MAX_ID:
                raise GroupError("%s:%d: degree %d out of range" % (path, lineno, degree))
        elif head == "order":
            order = parse_ints([rest], path, lineno, GroupError)[0]
        elif head == "gen":
            if degree is None:
                raise GroupError("%s:%d: gen before degree" % (path, lineno))
            images = parse_ints(rest.split(), path, lineno, GroupError)
            if len(images) != degree:
                raise GroupError("%s:%d: expected %d images" % (path, lineno, degree))
            if sorted(images) != list(range(degree)):
                raise GroupError("%s:%d: not a permutation of 0..%d"
                                 % (path, lineno, degree - 1))
            gens.append(np.array(images, dtype=DTYPE))
        else:
            raise GroupError("%s:%d: unknown directive %r" % (path, lineno, head))
    if degree is None:
        raise GroupError("%s: missing degree" % path)
    grp = PermGroup(degree, gens, name=name)
    if order is not None and grp.order() != order:
        raise GroupError(
            "%s: declared order %d but chain gives %d" % (path, order, grp.order())
        )
    return grp


def write_group_file(grp: PermGroup, path, name=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("group %s\n" % (name or grp.name or "unnamed"))
        fh.write("degree %d\n" % grp.degree)
        fh.write("order %d\n" % grp.order())
        for g in grp.gens:
            fh.write("gen %s\n" % " ".join(str(int(x)) for x in g))
