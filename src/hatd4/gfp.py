"""Dense linear algebra and univariate polynomials over prime fields GF(p).

Matrices are numpy int64 arrays with entries reduced mod p.  Products go
through `matmul`, which takes float64 BLAS whenever the accumulated dot
products fit exactly in a double (n*(p-1)^2 < 2**53, which holds for every
size the census touches) and exact int64 limbs otherwise.
At p = 2, `rref` holds each row as one Python int, bit c being column c,
and eliminates by XOR: the MeatAxe's blocks are small (tens of rows and
columns), where a per-column numpy step costs far more than the few int
operations it replaces.  At odd p, `rref` is a numpy loop over pivot
columns that updates only the rows with a nonzero coefficient in the pivot
column: the eigenvalue matrices A - lambda I of graph automorphisms are a
few percent nonzero, so most rows are left alone at each pivot.
`minimal_polynomial` reads each Krylov sequence's local minimal polynomial
off one `rref` of its iterates, so it has one loop for every prime and
takes the XOR path at p = 2.  GF(2) also gets a bit-packed uint64 row
layout (`gf2_pack`, the same bits as the int rows) for the fixed-space
eliminations behind degree-2 covers, where a dense int64 matrix would be
wasteful.  Those matrices are tall and sparse (a few bits per row), so
the packed elimination picks the lightest row as each pivot and works a
word at a time on the rows that touch it, which keeps the fill-in low.
`EchelonBasis` grows a row space a block of rows at a time (one product to
reduce the block, one elimination of the residual), which is how the
MeatAxe spins and the Krylov sequences feed it.  Polynomials are plain
lists of Python ints in 0..p-1, lowest degree first and without trailing
zeros, so the zero polynomial is [] and the degree is the length less one:
the minimal polynomials the MeatAxe factors have degree at most a few
dozen, where a numpy call per step costs more than the arithmetic.
`is_prime` is the primality test for the field sizes the cover code
accepts.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np

_FLOAT_EXACT = 2.0**53


def is_prime(n):
    """Miller-Rabin to the first twelve prime bases, exact below 3.1e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def normalize(a, p):
    """Return a as an int64 array reduced mod p."""
    return np.asarray(a, dtype=np.int64) % p


def identity(n, p):
    return np.eye(n, dtype=np.int64) % p


def matmul(a, b, p):
    """Exact product mod p of arrays with entries in 0..p-1.

    Through float64 while n (p-1)^2 < 2^53, n the inner dimension; otherwise
    in int64 with b cut into k-bit limbs, taken highest first, where k is
    the largest width with (n + 1) p 2^k <= 2^63: each step out 2^k + a @ limb
    then stays below 2^63.  ValueError when no width fits.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner * (p - 1) * (p - 1) < _FLOAT_EXACT:
        c = np.dot(a.astype(np.float64), b.astype(np.float64))
        return np.rint(c).astype(np.int64) % p
    k = (2**63 // ((inner + 1) * p)).bit_length() - 1
    if k < 1:
        raise ValueError("no exact int64 product for inner dimension %d at p = %d" % (inner, p))
    out = 0
    for shift in range(((p - 1).bit_length() - 1) // k * k, -1, -k):
        out = ((out << k) + np.dot(a, (b >> shift) & ((1 << k) - 1))) % p
    return out


def inv_mod(x, p):
    """Inverse of a scalar mod p."""
    return pow(int(x) % p, p - 2, p)


def rref(a, p):
    """Reduced row echelon form.

    Returns (R, pivots) where R has unit pivots with zeros above and below,
    and pivots is the list of pivot column indices (len = rank).

    At odd p each pivot updates only the rows with a nonzero coefficient
    in its column; the others would change by 0.  Entries are reduced mod p
    lazily: the searched column and the pivot row are reduced on each step,
    while every other entry drifts by less than (p-1)^2 per pivot that
    updates its row.  Only when rank * (p-1)^2 could leave int64 are the
    updated rows reduced on every step.  At p = 2 the rows are Python ints
    instead (`_rref_gf2`).
    """
    if p == 2:
        return _rref_gf2(np.asarray(a))
    r = normalize(a, p)
    m = r.shape[0]
    eager = min(r.shape) * (p - 1) ** 2 >= 2**62
    pivots = []
    row = 0
    # row operations keep an all-zero column zero, so only the others can pivot
    for col in np.flatnonzero(np.any(r, axis=0)).tolist():
        if row == m:
            break
        coeff = r[:, col] % p
        nz = np.flatnonzero(coeff[row:])
        if nz.size == 0:
            if not np.any(r[row:, col:] % p):
                break  # the rows left are zero: no later column can pivot
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
            coeff[[row, piv]] = coeff[[piv, row]]
        # the pivot row is zero mod p left of col
        lead = r[row, col:] % p
        if coeff[row] != 1:
            lead = (lead * inv_mod(coeff[row], p)) % p
        r[row, col:] = lead
        coeff[row] = 0
        # a row with a zero coefficient would change by 0 * lead: skip it
        hit = np.flatnonzero(coeff)
        r[hit, col:] -= coeff[hit, None] * lead
        if eager:
            r[hit, col:] %= p
        pivots.append(col)
        row += 1
    return r[: len(pivots)] % p, pivots


def _bit_rows(a):
    """Rows of a matrix mod 2 as Python ints, bit c holding column c: the
    words of `gf2_pack`, joined."""
    w = gf2_pack(a)
    rows = [0] * len(w)
    for j in range(w.shape[1]):
        rows = [x | y << (64 * j) for x, y in zip(rows, w[:, j].tolist())]
    return rows


def _bit_matrix(rows, n):
    """The int rows of `_bit_rows` back to an int64 0/1 matrix of n columns."""
    w = np.empty((len(rows), (n + 63) // 64), dtype=np.uint64)
    for j in range(w.shape[1]):
        w[:, j] = [(x >> (64 * j)) & 0xFFFF_FFFF_FFFF_FFFF for x in rows]
    return gf2_unpack(w, n)


def _rref_gf2(a):
    """`rref` at p = 2 on int rows: a forward pass files every row under its
    lowest set bit, then back-substitution from the highest pivot down
    clears the other pivot bits of each row.  Repeated rows enter once, and
    the lightest first, so light rows become the pivots, which keeps the
    fill-in low on the tall sparse blocks."""
    piv = {}
    for x in sorted(set(_bit_rows(a)), key=int.bit_count):
        # XOR x down while its lowest set bit is taken, then file it there
        while x:
            low = x & -x
            y = piv.get(low)
            if y is None:
                piv[low] = x
                break
            x ^= y
    done = 0
    for low in sorted(piv, reverse=True):
        # the rows filed under bits in done hold no other pivot bit
        x = piv[low]
        hits = x & done
        while hits:
            h = hits & -hits
            x ^= piv[h]
            hits ^= h
        piv[low] = x
        done |= low
    order = sorted(piv)
    return _bit_matrix([piv[b] for b in order], a.shape[1]), [b.bit_length() - 1 for b in order]


def rank(a, p):
    return len(rref(a, p)[1])


def nullspace(a, p):
    """Rows spanning {x : a @ x = 0 mod p}, in reduced echelon form."""
    a = np.atleast_2d(normalize(a, p))
    r, pivots = rref(a, p)
    return _kernel_basis(pivots, a.shape[1], p, lambda free: r[:, free])


def _kernel_basis(pivots, ncols, p, columns):
    """The kernel of an rref with these pivot columns, in reduced echelon
    form.  One row per free column f has 1 at f and minus column f of the
    rref at the pivots; columns(free) gives the rref's free columns as a
    (rank x free) int64 array."""
    free = np.ones(ncols, dtype=bool)
    free[pivots] = False
    free = np.flatnonzero(free)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-columns(free)).T % p
    # canonicalise: the free-variable basis spans the kernel but need not be
    # in reduced echelon form itself
    return rref(basis, p)[0] if len(basis) else basis


class EchelonBasis:
    """Row space in reduced echelon form, grown a block of rows at a time.

    Rows live in a preallocated ncols x ncols array in the order they arrived,
    with a pivot map beside them; `matrix()` returns them sorted by pivot.
    `extend` reduces a whole block against the basis and eliminates the
    residual in one step, which is how the spinning and Krylov loops feed it.
    """

    def __init__(self, ncols, p):
        self.p = p
        self.ncols = ncols
        self.dim = 0
        self._rows = np.zeros((ncols, ncols), dtype=np.int64)
        self._pivots = np.zeros(ncols, dtype=np.int64)

    def __len__(self):
        return self.dim

    def reduce(self, v):
        """Residual of v after eliminating against the basis."""
        v = normalize(v, self.p).copy()
        if self.dim:
            coeff = v[self._pivots[: self.dim]]
            if np.any(coeff):
                v = (v - matmul(coeff, self._rows[: self.dim], self.p)) % self.p
        return v

    def extend(self, block):
        """Insert the rows of block; returns the new basis rows (rref, pivots
        increasing), which span block modulo the old basis."""
        p, d = self.p, self.dim
        b = np.atleast_2d(normalize(block, p))
        if d:
            old = self._rows[:d]
            b = (b - matmul(b[:, self._pivots[:d]], old, p)) % p
        b = b[np.any(b, axis=1)]
        if not len(b):
            return b
        r, pivots = rref(b, p)
        if d:
            coeff = old[:, pivots]
            if np.any(coeff):
                old[:] = (old - matmul(coeff, r, p)) % p
        k = len(pivots)
        self._rows[d : d + k] = r
        self._pivots[d : d + k] = pivots
        self.dim = d + k
        return r

    def insert(self, v):
        """Insert v; returns the new pivot column or None if dependent."""
        new = self.extend(v)
        return int(np.flatnonzero(new[0])[0]) if len(new) else None

    def contains(self, v):
        return not np.any(self.reduce(v))

    def matrix(self):
        order = np.argsort(self._pivots[: self.dim], kind="stable")
        return self._rows[order]


# ---------------------------------------------------------------------------
# bit-packed GF(2)
# ---------------------------------------------------------------------------


def gf2_pack(a):
    """Pack a matrix mod 2 into uint64 words, bit c of a row holding column c:
    the bytes of a row are little-endian, and so are its words."""
    a = np.asarray(a)
    m, n = a.shape
    out = np.zeros((m, 8 * ((n + 63) // 64)), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(a & 1, axis=1, bitorder="little")
    return out.view(np.uint64)


def gf2_unpack(w, n):
    """The first n columns of packed rows as an int64 0/1 matrix."""
    bits = np.ascontiguousarray(w).view(np.uint8)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little").astype(np.int64)


def gf2_rref_packed(w, ncols):
    """Reduced echelon form of packed GF(2) rows; returns (rows, pivots).

    The input is not modified.  Forward elimination runs a word at a time:
    the rows with a bit in the word are gathered into one slab, and for each
    column of the word the hit row of least weight becomes the pivot, where
    weight is an upper bound on its set bits (the popcount, plus the weight
    of every pivot XORed into it, capped at ncols).  XORs cover only the
    words from the current one rightward, pivot rows leave the active rows,
    and every 8 words the active rows that became zero are dropped.
    Back-substitution then clears the pivot columns among the pivot rows
    alone, word by word from the right.  The result is the unique reduced
    echelon form of the row space, so the pivot choice changes only the
    work.
    """
    w = w.copy()
    out = np.zeros((min(w.shape[0], ncols), w.shape[1]), dtype=np.uint64)
    weight = np.bitwise_count(w).sum(axis=1, dtype=np.int64)
    pivots = []
    for word in range((ncols + 63) // 64):
        sel = np.flatnonzero(w[:, word])
        slab = w[sel, word:]
        lead = slab[:, 0].copy()
        wt = weight[sel]
        done = []
        while live := int(np.bitwise_or.reduce(lead)):
            bit = (live & -live).bit_length() - 1
            if 64 * word + bit >= ncols:
                break
            hit = np.flatnonzero(lead & np.uint64(1 << bit))
            piv = hit[np.argmin(wt[hit])]
            hit = hit[hit != piv]
            if hit.size:
                slab[hit] ^= slab[piv]
                lead[hit] ^= lead[piv]
                wt[hit] = np.minimum(wt[hit] + wt[piv], ncols)
            out[len(pivots), word:] = slab[piv]
            lead[piv] = 0
            done.append(piv)
            pivots.append(64 * word + bit)
        slab[done] = 0
        w[sel, word:] = slab
        weight[sel] = wt
        if word % 8 == 7:
            keep = np.any(w[:, word + 1 :], axis=1)
            w, weight = w[keep], weight[keep]
    out = out[: len(pivots)]
    cols = np.array(pivots, dtype=np.int64)
    for word in range((ncols + 63) // 64 - 1, -1, -1):
        lo, hi = np.searchsorted(cols >> 6, [word, word + 1])
        lead = out[:hi, word].copy()
        for k in range(hi - 1, lo - 1, -1):
            hit = np.flatnonzero(lead[:k] & np.uint64(1 << int(cols[k] & 63)))
            if hit.size:
                out[hit, word:] ^= out[k, word:]
                lead[hit] ^= lead[k]
    return out, pivots


def gf2_nullspace_packed(w, ncols):
    """Nullspace basis (unpacked int64 rows, reduced echelon) of a packed GF(2) matrix."""
    r, pivots = gf2_rref_packed(w, ncols)
    # read the free columns' bits straight from the packed words
    return _kernel_basis(pivots, ncols, 2, lambda f: (
        (r[:, f >> 6] >> (f & 63).astype(np.uint64)) & 1).astype(np.int64))


# ---------------------------------------------------------------------------
# univariate polynomials mod p: lists of ints in 0..p-1, lowest degree first,
# without trailing zeros, so the zero polynomial is []
# ---------------------------------------------------------------------------


def poly_trim(f):
    """The coefficients of f without trailing zeros, as a new list."""
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def poly_deg(f):
    return len(f) - 1


def poly_mul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, c in enumerate(f):
        if c:
            for j, d in enumerate(g, i):
                out[j] += c * d
    # the leading coefficient is a product of two units
    return [c % p for c in out]


def poly_add(f, g, p):
    return poly_trim((a + b) % p for a, b in zip_longest(f, g, fillvalue=0))


def poly_monic(f, p):
    if not f or f[-1] == 1:
        return f
    inv = inv_mod(f[-1], p)
    return [c * inv % p for c in f]


def poly_divmod(f, g, p):
    """(q, r) with f = q g + r and deg r < deg g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return [], f
    ginv = inv_mod(g[-1], p)
    low = g[:dg]
    r = list(f)
    q = [0] * (len(f) - dg)
    # entries of r drift outside 0..p-1 and are reduced where they are read
    for shift in range(len(q) - 1, -1, -1):
        c = r[shift + dg] * ginv % p
        if c:
            q[shift] = c
            for i, b in enumerate(low, shift):
                r[i] -= c * b
    return q, poly_trim(c % p for c in r[:dg])


def poly_gcd(f, g, p):
    """Monic gcd of f and g; [] when both are zero."""
    while g:
        f, g = g, poly_divmod(f, g, p)[1]
    return poly_monic(f, p)


def poly_pow_mod(f, e, g, p):
    """f^e mod g, by repeated squaring."""
    out = [1]
    base = poly_divmod(f, g, p)[1]
    while e:
        if e & 1:
            out = poly_divmod(poly_mul(out, base, p), g, p)[1]
        e >>= 1
        if e:
            base = poly_divmod(poly_mul(base, base, p), g, p)[1]
    return out


def _squarefree_parts(f, p):
    """List of (squarefree factor, multiplicity) of monic f, Yun's algorithm
    in char p.  Each irreducible factor of f lies in exactly one part."""
    out = []

    def rec(g, scale):
        if len(g) < 2:
            return
        deriv = poly_trim(i * a % p for i, a in enumerate(g) if i)
        if not deriv:
            # g = h(x^p) = h(x)^p over the prime field
            rec(g[::p], scale * p)
            return
        c = poly_gcd(g, deriv, p)
        w = poly_divmod(g, c, p)[0]
        m = 1
        while len(w) > 1:
            y = poly_gcd(w, c, p)
            z = poly_divmod(w, y, p)[0]
            if len(z) > 1:
                out.append((z, m * scale))
            c = poly_divmod(c, y, p)[0]
            w = y
            m += 1
        rec(c, scale)  # leftover carries the p-th-power part

    rec(f, 1)
    return out


def _distinct_degree(f, p):
    """Split squarefree monic f into (product of deg-d irreducibles, d)."""
    out = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = poly_pow_mod(h, p, f, p)
        g = poly_gcd(poly_add(h, [0, p - 1], p), f, p)  # gcd(h - x, f)
        if len(g) > 1:
            out.append((g, d))
            f = poly_divmod(f, g, p)[0]
            h = poly_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of f into its degree-d irreducible factors."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if len(g) - 1 == d:
            out.append(g)
            continue
        while True:
            h = poly_trim(rng.integers(0, p, size=len(g) - 1).tolist())
            if len(h) < 2:
                continue
            if p == 2:
                # the trace map h + h^2 + ... + h^(2^(d-1)) mod g
                t = acc = h
                for _ in range(d - 1):
                    t = poly_pow_mod(t, 2, g, p)
                    acc = poly_add(acc, t, p)
            else:
                acc = poly_add(poly_pow_mod(h, (p**d - 1) // 2, g, p), [p - 1], p)
            w = poly_gcd(acc, g, p)
            if 1 < len(w) < len(g):
                stack += [w, poly_divmod(g, w, p)[0]]
                break
    return out


def factor_poly(f, p, rng=None):
    """Factor f (integer coefficients, lowest degree first) into monic
    irreducibles; returns a list of (factor, multiplicity).

    Equal-degree splitting uses the supplied seeded generator, so the result
    is deterministic for a fixed seed; the list is sorted by (degree, coeffs).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    f = poly_monic(poly_trim(int(c) % p for c in f), p)
    factors = [(irr, mult) for sq, mult in _squarefree_parts(f, p)
               for g, d in _distinct_degree(sq, p) for irr in _equal_degree(g, d, p, rng)]
    return sorted(factors, key=lambda fm: (len(fm[0]), fm[0]))


def poly_eval_matrix(f, a, p):
    """Evaluate the polynomial f at the square matrix a (Horner)."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed(f):
        out = matmul(out, a, p)
        if c:
            out = (out + c * np.eye(n, dtype=np.int64)) % p
    return out


def minimal_polynomial(a, p):
    """Minimal polynomial of the square matrix a over GF(p), monic.

    The lcm of the local minimal polynomials of Krylov sequences v a^t, one
    from each standard basis vector v that the earlier sequences do not
    span.  The iterates are taken in batches that double their number until
    the rref of the iterates, as columns, has fewer pivots than columns:
    the pivots are then iterates 0..d-1, and column d of the rref writes
    v a^d in them, so the local polynomial is x^d - sum_i r[i, d] x^i.
    Doubling keeps the rrefs few when d is small, as for an involution.
    ValueError unless a is square.
    """
    a = normalize(a, p)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("minimal polynomial of a non-square matrix of shape %s" % (a.shape,))
    n = a.shape[0]
    seen = EchelonBasis(n, p)
    m = [1]
    # n + 1 iterates of an n-dim space are always dependent
    krylov = np.zeros((n + 1, n), dtype=np.int64)
    for start in range(n):
        krylov[0] = 0
        krylov[0, start] = 1
        if seen.contains(krylov[0]):
            continue
        t = 1
        while True:
            top = min(2 * t, n + 1)
            for i in range(t, top):
                krylov[i] = matmul(krylov[i - 1], a, p)
            t = top
            r, pivots = rref(krylov[:t].T, p)
            if len(pivots) < t:
                break
        d = len(pivots)
        m = _poly_lcm(m, [(-c) % p for c in r[:, d].tolist()] + [1], p)
        seen.extend(krylov[:d])
        if seen.dim == n:
            break
    return m


def _poly_lcm(f, g, p):
    """Monic lcm of nonzero f and g."""
    return poly_monic(poly_mul(poly_divmod(f, poly_gcd(f, g, p), p)[0], g, p), p)
