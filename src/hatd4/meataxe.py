"""MeatAxe-style analysis of matrix modules over GF(p).

A module is given by a list of square generator matrices acting on row
vectors (v -> v @ M).  Irreducibility testing follows the Norton criterion:
nullspaces of algebra elements whose minimal polynomial has a factor of
nullity equal to its degree certify irreducibility through one spin on each
side; otherwise nullspace vectors are spun for cheap splits.  A spin runs
breadth-first over blocks: each round applies every generator to the whole
frontier in one product and inserts the images into the echelon basis in
one elimination.  All random choices come from a seeded generator, so runs
are reproducible.  `span_points` streams the rref of every monic
combination of a list of matrices, one per projective point of their span;
the hom-image enumeration here and the dual-line searches in `homology`
share it.
"""

from __future__ import annotations

import itertools

import numpy as np

from hatd4 import gfp

MAX_TRIES = 200  # algebra elements is_irreducible tries before giving up
ENUM_CAP = 2_000_000  # most projective points span_points enumerates


class MeatAxeError(RuntimeError):
    pass


def module_dim(gens):
    return gens[0].shape[0] if gens else 0


def _stack_generators(gens, p):
    """The generators side by side (n x n*g), so one product applies them all."""
    return np.concatenate(gens, axis=1) % p


def spin(vectors, gens, p, stacked=None):
    """Echelonised basis of the smallest invariant subspace containing vectors.

    Breadth-first over blocks: each round multiplies the whole frontier by
    every generator at once (`stacked` is `_stack_generators(gens, p)`, built
    here if not given) and inserts the images as one block; the new basis
    rows are the next frontier.
    """
    if not gens:
        raise MeatAxeError("spin needs at least one generator")
    n = gens[0].shape[0]
    if stacked is None:
        stacked = _stack_generators(gens, p)
    basis = gfp.EchelonBasis(n, p)
    frontier = basis.extend(vectors)
    while len(frontier) and basis.dim < n:
        images = gfp.matmul(frontier, stacked, p).reshape(-1, n)
        frontier = basis.extend(images)
    return basis


def _algebra_element(gens, p, rng, attempt):
    k = len(gens)
    if attempt < k:
        return gens[attempt].copy()
    n = gens[0].shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    terms = 2 + int(rng.integers(0, 3))
    for _ in range(terms):
        length = 1 + int(rng.integers(0, 3))
        word = gens[int(rng.integers(0, k))]
        for _ in range(length - 1):
            word = gfp.matmul(word, gens[int(rng.integers(0, k))], p)
        coeff = 1 + int(rng.integers(0, p - 1)) if p > 2 else 1
        out = (out + coeff * word) % p
    return out


def is_irreducible(gens, p, rng=None):
    """(True, None) or (False, rref basis of a proper nonzero submodule)."""
    n = module_dim(gens)
    if n == 0:
        raise MeatAxeError("zero module")
    if n == 1:
        return True, None
    if rng is None:
        rng = np.random.default_rng(0)
    gens_t = [m.T.copy() for m in gens]
    stacked, stacked_t = _stack_generators(gens, p), _stack_generators(gens_t, p)
    for attempt in range(MAX_TRIES):
        theta = _algebra_element(gens, p, rng, attempt)
        minpoly = gfp.minimal_polynomial(theta, p)
        if gfp.poly_deg(minpoly) < 1:
            continue
        for f, _mult in gfp.factor_poly(minpoly, p, rng):
            ftheta = gfp.poly_eval_matrix(f, theta, p)
            # row-vector module: the kernel of f(theta) is the left nullspace
            null = gfp.nullspace(ftheta.T, p)
            if not len(null):
                continue
            certified = len(null) == gfp.poly_deg(f)
            for v in null:
                w = spin([v], gens, p, stacked)
                if w.dim < n:
                    return False, w.matrix()
                if certified:
                    break
            if certified:
                null_t = gfp.nullspace(ftheta, p)
                wt = spin([null_t[0]], gens_t, p, stacked_t)
                if wt.dim < n:
                    ann = gfp.nullspace(wt.matrix(), p)
                    return False, ann
                return True, None
    raise MeatAxeError("irreducibility test inconclusive after %d tries" % MAX_TRIES)


def sub_action(basis, gens, p):
    """Generator matrices restricted to an invariant row space (rref basis)."""
    b = np.atleast_2d(basis)
    r, pivots = gfp.rref(b, p)
    out = []
    for gi, m in enumerate(gens):
        y = gfp.matmul(r, m, p)
        coords = y[:, pivots]
        if np.any((y - gfp.matmul(coords, r, p)) % p):
            raise MeatAxeError("not invariant under generator %d" % gi)
        out.append(coords)
    return out


def quotient_action(basis, gens, p):
    """Generator matrices induced on GF(p)^n / rowspace(basis)."""
    b = np.atleast_2d(basis)
    n = b.shape[1]
    r, pivots = gfp.rref(b, p)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    out = []
    for m in gens:
        y = m[free, :] % p
        y = (y - gfp.matmul(y[:, pivots], r, p)) % p
        out.append(y[:, free])
    return out


def chop(gens, p, seed=0):
    """Composition factors (as generator lists), deterministic order."""
    rng = np.random.default_rng(seed)
    factors = []
    stack = [gens]
    while stack:
        cur = stack.pop()
        n = module_dim(cur)
        if n == 0:
            continue
        irr, wit = is_irreducible(cur, p, rng)
        if irr:
            factors.append(cur)
            continue
        stack.append(quotient_action(wit, cur, p))
        stack.append(sub_action(wit, cur, p))
    return factors


def hom_space(sgens, tgens, p):
    """Basis of {F : S_i F = F T_i for all i}; F maps rows of S-module into T."""
    if len(sgens) != len(tgens):
        raise MeatAxeError("hom_space needs the same number of generators on both "
                           "sides (%d and %d)" % (len(sgens), len(tgens)))
    e = module_dim(sgens)
    n = module_dim(tgens)
    blocks = []
    eye_e = np.eye(e, dtype=np.int64)
    eye_n = np.eye(n, dtype=np.int64)
    for s, t in zip(sgens, tgens):
        blocks.append((np.kron(s, eye_n) - np.kron(eye_e, t.T)) % p)
    system = np.concatenate(blocks, axis=0)
    null = gfp.nullspace(system, p)
    return [row.reshape(e, n) for row in null]


def modules_isomorphic(a_gens, b_gens, p):
    """Isomorphism test for irreducible modules over the same generator set."""
    if module_dim(a_gens) != module_dim(b_gens):
        return False
    return len(hom_space(a_gens, b_gens, p)) > 0


def minimal_submodules(gens, p, dmax, seed=0):
    """All minimal submodules of dimension <= dmax, as rref bases.

    Complete: candidates are the composition factors (every socle constituent
    is one); each candidate's minimal submodules are the images of its
    nonzero homs, one per point of `span_points` over the hom space.
    """
    if dmax < 1:
        return []
    factors = chop(gens, p, seed)
    unique = []
    for f in factors:
        if module_dim(f) > dmax:
            continue
        if any(modules_isomorphic(f, u, p) for u in unique):
            continue
        unique.append(f)
    found = {}
    for s in unique:
        e = module_dim(s)
        homs = hom_space(s, gens, p)
        for rr in span_points(homs, p):
            if len(rr) != e:
                raise MeatAxeError("hom image of an irreducible collapsed")
            found[rr.tobytes()] = rr
    return sorted(found.values(), key=lambda b: (b.shape[0], b.tobytes()))


def span_points(mats, p):
    """Yield rref(sum_i lam_i mats[i]) for every lam in GF(p)^r, r = len(mats),
    whose first nonzero coordinate is 1: one combination per point of the
    projective space over the span, generated and reduced one at a time, so
    the p^r points are never held at once.  The rref drops zero rows.
    MeatAxeError, before the first point, when there are more than ENUM_CAP
    points, (p^r - 1) / (p - 1).
    """
    count = (p ** len(mats) - 1) // (p - 1)
    if count > ENUM_CAP:
        raise MeatAxeError("span enumeration too large (%d points)" % count)
    stack = np.asarray(mats, dtype=np.int64) % p
    for lead in range(len(stack)):
        tail = stack[lead + 1 :]
        for coeffs in itertools.product(range(p), repeat=len(tail)):
            comb = stack[lead]
            for c, row in zip(coeffs, tail):
                if c:
                    comb = (comb + c * row) % p
            yield gfp.rref(comb, p)[0]


# ---------------------------------------------------------------------------
# exhaustive oracle (test-scale dimensions only)
# ---------------------------------------------------------------------------


def all_subspaces(n, p):
    """Every subspace of GF(p)^n as an rref basis (empty matrix = zero space),
    listed by rank, then pivot columns, then free entries: row i holds a 1
    in pivot column i, zeros in the other pivot columns and left of its
    pivot, and any value in each non-pivot column to its right."""
    out = []
    for k in range(n + 1):
        for piv in itertools.combinations(range(n), k):
            free = np.array([(i, c) for i, pc in enumerate(piv)
                             for c in range(pc + 1, n) if c not in piv],
                            dtype=np.intp).reshape(-1, 2)
            vals = np.array(list(itertools.product(range(p), repeat=len(free))),
                            dtype=np.int64).reshape(p ** len(free), len(free))
            block = np.zeros((len(vals), k, n), dtype=np.int64)
            block[:, np.arange(k), np.array(piv, dtype=np.intp)] = 1
            block[:, free[:, 0], free[:, 1]] = vals
            out.extend(block)
    return out


def invariant_subspaces_oracle(gens, p):
    """All invariant subspaces by brute force (use only for tiny dimensions)."""
    n = module_dim(gens)
    out = []
    for basis in all_subspaces(n, p):
        ok = True
        for m in gens:
            y = gfp.matmul(basis, m, p) if basis.shape[0] else basis
            for row in y:
                aug = np.vstack([basis, row[None, :]])
                if gfp.rank(aug, p) != basis.shape[0]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(basis)
    return out


def maximal_invariant_oracle(gens, p, dmax):
    """Maximal invariant subspaces of codimension <= dmax (brute force)."""
    n = module_dim(gens)
    inv = invariant_subspaces_oracle(gens, p)
    keyed = {b.tobytes(): b for b in inv}
    out = []
    for b in inv:
        k = b.shape[0]
        if k == n or n - k > dmax:
            continue
        maximal = True
        for c in inv:
            if c.shape[0] <= k or c.shape[0] == n:
                continue
            if _contains(c, b, p):
                maximal = False
                break
        if maximal:
            out.append(b)
    return sorted(out, key=lambda b: (b.shape[0], b.tobytes()))


def _contains(big, small, p):
    if small.shape[0] == 0:
        return True
    aug = np.vstack([big, small])
    return gfp.rank(aug, p) == big.shape[0]
