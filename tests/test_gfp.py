"""GF(p) linear algebra and spinning against independent references.

Row reduction and nullspaces are compared with sympy's DomainMatrix over
GF(p), minimal polynomials are checked with sympy's factorisation mod p,
polynomial factoring, division and gcds are compared with sympy's, and
block spinning is compared with a one-vector-at-a-time spin written
here and, at the smallest sizes, with the exhaustive invariant-subspace
oracle.
"""

import inspect
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from sympy import GF, Poly, factor_list, symbols
from sympy.polys.matrices import DomainMatrix

from hatd4 import gfp, meataxe
from hatd4.homology import _eigenvalue_candidates, homology_rep

PRIMES = (2, 3, 5, 7)


def matrices(max_rows=7, max_cols=7, square=False):
    """(p, matrix) pairs; entries lean towards zero so that zero columns,
    zero rows and dependent rows turn up often."""

    @st.composite
    def build(draw):
        p = draw(st.sampled_from(PRIMES))
        m = draw(st.integers(1, max_rows))
        n = m if square else draw(st.integers(1, max_cols))
        entry = st.one_of(st.just(0), st.integers(0, p - 1))
        rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
        return p, np.array(rows, dtype=np.int64)

    return build()


def sympy_rref(a, p):
    """(R, pivots) from sympy over GF(p), zero rows dropped, entries in 0..p-1."""
    k = GF(p)
    m = DomainMatrix([[k(int(x)) for x in row] for row in a], a.shape, k)
    r, pivots = m.rref()
    rows = [[int(x) % p for x in row] for row in r.to_list()[: len(pivots)]]
    return np.array(rows, dtype=np.int64).reshape(len(pivots), a.shape[1]), list(pivots)


def reference_spin(vectors, gens, p):
    """Smallest invariant subspace containing vectors, one vector at a time:
    each independent vector is kept and its images queued."""
    n = gens[0].shape[0]
    basis = np.zeros((0, n), dtype=np.int64)
    queue = [np.asarray(v, dtype=np.int64) % p for v in vectors]
    while queue:
        v = queue.pop(0)
        grown = np.vstack([basis, v[None, :]])
        if len(sympy_rref(grown, p)[1]) == len(basis):
            continue
        basis = grown
        queue.extend((v @ m) % p for m in gens)
    return sympy_rref(basis, p)[0]


def poly_at(coeffs, a, p):
    """sum_i coeffs[i] a^i mod p, by Horner in plain integer arithmetic."""
    n = a.shape[0]
    out = np.zeros((n, n), dtype=np.int64)
    for c in reversed([int(c) for c in coeffs]):
        out = (out @ a + c * np.eye(n, dtype=np.int64)) % p
    return out


def assert_poly(f, p):
    """f is a polynomial of the list form: ints in 0..p-1, no trailing zero."""
    assert isinstance(f, list) and all(type(c) is int and 0 <= c < p for c in f)
    assert not f or f[-1]


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy(case):
    assert_rref_matches_sympy(*case)


def assert_rref_matches_sympy(p, a):
    r, pivots = gfp.rref(a, p)
    want_r, want_pivots = sympy_rref(a, p)
    assert pivots == want_pivots
    assert np.array_equal(r, want_r)


def test_rref_large_prime_matches_sympy():
    """A prime whose square leaves the lazy-reduction range of int64, so
    every pivot reduces the rows it updates at once: all of them on a dense
    matrix, a few on a sparse one."""
    p = 2**31 - 1
    rng = np.random.default_rng(7)
    a = rng.integers(0, p, size=(10, 12))
    a[3] = (2 * a[0] + 5 * a[1]) % p
    assert_matches_sympy(p, a)
    assert_matches_sympy(p, sparse_matrix(np.random.default_rng(11), 80, 70, p, dependent=15))


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_nullspace_matches_sympy(case):
    assert_nullspace_matches_sympy(*case)


def assert_nullspace_matches_sympy(p, a):
    got = gfp.nullspace(a, p)
    k = GF(p)
    null = DomainMatrix([[k(int(x)) for x in row] for row in a], a.shape, k).nullspace()
    rows = np.array([[int(x) % p for x in row] for row in null.to_list()], dtype=np.int64)
    want = sympy_rref(rows, p)[0] if len(rows) else np.zeros((0, a.shape[1]), np.int64)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if len(got):
        # in Python ints: an int64 product of entries near 2^31 overflows
        assert not np.any(a.astype(object) @ got.T.astype(object) % p)


def assert_matches_sympy(p, a):
    """`rref` and `nullspace` of a equal sympy's over GF(p)."""
    assert_rref_matches_sympy(p, a)
    assert_nullspace_matches_sympy(p, a)


def sparse_matrix(rng, m, n, p, dependent):
    """m x n over GF(p), rows in random order: m - dependent rows with three
    nonzeros, and `dependent` combinations of two of them."""
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m - dependent):
        a[i, rng.choice(n, size=3, replace=False)] = rng.integers(1, p, size=3)
    for i in range(m - dependent, m):
        j, k = rng.choice(m - dependent, size=2, replace=False)
        a[i] = (int(rng.integers(1, p)) * a[j] + int(rng.integers(1, p)) * a[k]) % p
    return a[rng.permutation(m)]


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("m, n", [(60, 60), (150, 150), (180, 90), (120, 60)])
def test_sparse_rref_and_nullspace_match_sympy(p, m, n):
    """Sparse matrices like the eigenvalue matrices of homology: at each pivot
    most rows have a zero coefficient, and `rref` skips them."""
    rng = np.random.default_rng(1000 * p + m + n)
    assert_matches_sympy(p, sparse_matrix(rng, m, n, p, dependent=m // 6))


def test_homology_eigenvalue_matrices_match_sympy(base_pair_42):
    """(A - lam I) for every generator A of the order-42 pair's homology
    module at p = 13 (43 dimensions) and each eigenvalue candidate lam of A,
    the matrices `_dual_lines` reduces."""
    p = 13
    mod = homology_rep(*base_pair_42, p)
    assert mod.dim == 43
    for a, k in zip(mod.action, mod.orders):
        for lam in _eigenvalue_candidates(p, k):
            assert_matches_sympy(p, (a - lam * np.eye(mod.dim, dtype=np.int64)) % p)


@st.composite
def wide_gf2_matrices(draw):
    """Matrices mod 2 whose rows cross byte and 64-bit word boundaries: up to
    140 columns, with 8, 64, 65 and the other boundary widths drawn often,
    and up to three rows per column.  Some are products through a narrow
    middle, so the rank falls short; some rows are zero or duplicates, and
    some entries are outside 0..1."""
    n = draw(st.one_of(st.sampled_from((1, 7, 8, 9, 63, 64, 65, 128, 129)), st.integers(1, 140)))
    m = draw(st.integers(1, 3 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.02, 0.1, 0.5)))
    a = (rng.random((m, n)) < density).astype(np.int64)
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        a = a[:, :k] @ (rng.random((k, n)) < density)
    kinds = rng.random(m)
    a[kinds < 0.1] = 0
    dup = np.flatnonzero(kinds > 0.85)
    a[dup] = a[rng.integers(0, m, size=dup.size)]
    if draw(st.booleans()):
        a += 2 * rng.integers(-1, 2, size=a.shape)
    return a


@given(wide_gf2_matrices())
@settings(max_examples=60, deadline=None)
def test_gf2_rref_matches_sympy_across_words(a):
    r, pivots = gfp.rref(a, 2)
    want_r, want_pivots = sympy_rref(a, 2)
    assert pivots == want_pivots
    assert r.dtype == np.int64
    assert np.array_equal(r, want_r)


@pytest.mark.parametrize("m", [0, 3])
@pytest.mark.parametrize("n", [0, 1, 5, 8, 64, 65, 130])
def test_gf2_pack_round_trip(m, n):
    a = np.random.default_rng(n).integers(0, 2, size=(m, n))
    w = gfp.gf2_pack(a)
    assert w.shape == (m, (n + 63) // 64) and w.dtype == np.uint64
    back = gfp.gf2_unpack(w, n)
    assert back.dtype == np.int64 and np.array_equal(back, a)


def test_gf2_rref_of_zero_matrix():
    r, pivots = gfp.rref(np.zeros((4, 9), dtype=np.int64), 2)
    assert r.shape == (0, 9) and r.dtype == np.int64 and pivots == []


@given(st.tuples(st.integers(1, 8), st.integers(1, 140)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(0, 1))))
@settings(max_examples=150, deadline=None)
def test_packed_gf2_nullspace_matches_dense(a):
    # up to three 64-bit words per row, so pivots and free columns straddle words
    got = gfp.gf2_nullspace_packed(gfp.gf2_pack(a), a.shape[1])
    assert np.array_equal(got, gfp.nullspace(a, 2))


@st.composite
def sparse_gf2_matrices(draw):
    """Tall sparse 0/1 matrices shaped like the stacked (A - I) blocks of the
    degree-2 covers: at least three rows per column, 1-8 set bits in a row,
    duplicated and all-zero rows among them.  The columns fall into runs; a
    row sets its bits in a window of one run, as narrow as 2 columns or as
    wide as the run, and some runs take only rows of even weight, which
    loses one dimension there, so the rank falls short and free columns sit
    between pivots.  The word count is drawn first, up to 11 (700 columns),
    so the elimination's every-8-words compaction and its back-substitution
    across words both run often."""
    words = draw(st.integers(1, 11))
    n = draw(st.integers(64 * words - 63, min(64 * words, 700)))
    m = draw(st.integers(3, 4)) * n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cuts = rng.choice(np.arange(1, n), size=min(n - 1, draw(st.integers(0, 3))), replace=False)
    runs = np.split(np.arange(n), np.sort(cuts))
    even = [draw(st.booleans()) and len(r) > 1 for r in runs]
    a = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        k = int(rng.integers(len(runs)))
        width = min(len(runs[k]), 2 ** int(rng.integers(1, 11)))
        start = int(rng.integers(len(runs[k]) - width + 1))
        weight = min(int(rng.integers(1, 9)), width)
        if even[k]:
            weight = max(2, weight - weight % 2)
        a[i, start + runs[k][0] + rng.choice(width, size=weight, replace=False)] = 1
    kinds = rng.random(m)
    a[kinds < 0.05] = 0
    dup = np.flatnonzero(kinds > 0.9)
    a[dup] = a[rng.integers(0, m, size=dup.size)]
    return a


@given(sparse_gf2_matrices())
@settings(max_examples=20, deadline=None)
def test_packed_gf2_rref_matches_dense(a):
    n = a.shape[1]
    w = gfp.gf2_pack(a)
    before = w.copy()
    r, pivots = gfp.gf2_rref_packed(w, n)
    want_r, want_pivots = gfp.rref(a, 2)
    assert np.array_equal(w, before)
    assert pivots == want_pivots
    assert r.shape == (len(pivots), w.shape[1]) and r.dtype == np.uint64
    assert np.array_equal(gfp.gf2_unpack(r, n), want_r)


@st.composite
def block_sequences(draw):
    """(p, n, blocks): random blocks mixed with all-zero blocks and blocks of
    combinations of rows already given."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 7))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("random", "zero", "dependent")))
        k = draw(st.integers(1, 4))
        if kind == "zero" or (kind == "dependent" and not blocks):
            block = np.zeros((k, n), dtype=np.int64)
        elif kind == "dependent":
            old = np.vstack(blocks)
            coeff = np.array(draw(st.lists(st.lists(st.integers(0, p - 1), min_size=len(old),
                                                    max_size=len(old)), min_size=k, max_size=k)))
            block = (coeff @ old) % p
        else:
            block = np.array(draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                                           min_size=k, max_size=k)), dtype=np.int64)
        blocks.append(block)
    return p, n, blocks


@given(block_sequences())
@settings(max_examples=150, deadline=None)
def test_block_insert_equals_rref_of_stacked_rows(case):
    p, n, blocks = case
    basis = gfp.EchelonBasis(n, p)
    for i, block in enumerate(blocks):
        before = basis.dim
        new = basis.extend(block)
        stacked = np.vstack(blocks[: i + 1])
        want, want_pivots = sympy_rref(stacked, p)
        assert basis.dim == len(want_pivots) == before + len(new)
        assert np.array_equal(basis.matrix(), want)
        # the new rows are reduced and span the block modulo the old basis
        if len(new):
            assert np.array_equal(new, sympy_rref(new, p)[0])
        for row in block:
            assert basis.contains(row)


def test_insert_reports_new_pivot():
    basis = gfp.EchelonBasis(3, 5)
    assert basis.insert([0, 2, 1]) == 1
    assert basis.insert([0, 4, 2]) is None
    assert basis.insert([3, 0, 0]) == 0
    assert np.array_equal(basis.matrix(), [[1, 0, 0], [0, 1, 3]])


@st.composite
def modules(draw, max_dim=5):
    """(p, gens, vectors) for a random module of dimension <= max_dim."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.integers(0, p - 1))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    gens = [np.array(g, dtype=np.int64) for g in draw(st.lists(square, min_size=1, max_size=3))]
    vecs = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                         min_size=1, max_size=2))
    return p, gens, [np.array(v, dtype=np.int64) for v in vecs]


@given(modules())
@settings(max_examples=150, deadline=None)
def test_block_spin_matches_vector_spin(case):
    p, gens, vectors = case
    got = meataxe.spin(vectors, gens, p).matrix()
    assert np.array_equal(got, reference_spin(vectors, gens, p))


@given(modules(max_dim=4).filter(lambda c: c[0] ** c[1][0].shape[0] <= 81))
@settings(max_examples=30, deadline=None)
def test_block_spin_matches_oracle(case):
    p, gens, vectors = case
    got = meataxe.spin(vectors, gens, p).matrix()
    span = np.array(vectors)
    containing = [b for b in meataxe.invariant_subspaces_oracle(gens, p)
                  if gfp.rank(np.vstack([b, span]), p) == len(b)]
    assert np.array_equal(got, min(containing, key=len))


def assert_minimal_polynomial(m, a, p):
    """m is monic, annihilates a, and no proper divisor m / f with f an
    irreducible factor does (factors from sympy)."""
    assert_poly(m, p)
    assert m[-1] == 1
    assert not np.any(poly_at(m, a, p))
    x = symbols("x")
    poly = Poly([int(c) for c in reversed(m)], x, modulus=p)
    with warnings.catch_warnings():
        # sympy sorts factors by comparing modular integers, which it deprecates
        warnings.simplefilter("ignore", DeprecationWarning)
        factors = factor_list(poly)[1]
    assert sum(f.degree() * k for f, k in factors) == len(m) - 1
    for f, _ in factors:
        q, rem = poly.div(f)
        assert rem.is_zero
        coeffs = [int(c) % p for c in reversed(q.all_coeffs())]
        assert np.any(poly_at(coeffs, a, p))


@given(matrices(max_rows=6, square=True))
@settings(max_examples=100, deadline=None)
def test_minimal_polynomial_annihilates_and_is_minimal(case):
    p, a = case
    assert_minimal_polynomial(gfp.minimal_polynomial(a, p), a, p)


@st.composite
def companion_sums(draw, p):
    """(a, blocks): a matrix of dimension 9-70 over GF(p) similar to the block
    diagonal sum of the companion matrices of blocks, monic polynomials as
    coefficient lists, low degree first.  Some blocks repeat or are powers
    of x + 1, so the lcm drops or merges factors.  The similarity is a run
    of transvections T = I + c E_ij: T a T^-1 adds c times row j to row i
    and subtracts c times column i from column j."""
    n = draw(st.integers(9, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    while (left := n - sum(len(f) - 1 for f in blocks)) > 0:
        kind = rng.integers(3)
        if kind == 0 and blocks:
            f = blocks[rng.integers(len(blocks))]
            f = f if len(f) - 1 <= left else [1, 1]
        elif kind == 1:
            f = [int(c) % p for c in Poly((symbols("x") + 1) ** int(rng.integers(1, 5)),
                                           modulus=p).all_coeffs()[::-1]]
            f = f if len(f) - 1 <= left else [1, 1]
        else:
            f = [int(c) for c in rng.integers(0, p, size=int(rng.integers(1, min(left, 16) + 1)))] + [1]
        blocks.append(f)
    a = np.zeros((n, n), dtype=np.int64)
    at = 0
    for f in blocks:
        d = len(f) - 1
        a[at + 1 : at + d, at : at + d - 1] += np.eye(d - 1, dtype=np.int64)
        a[at : at + d, at + d - 1] = [-c % p for c in f[:d]]
        at += d
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        c = int(rng.integers(1, p))
        a[i] = (a[i] + c * a[j]) % p
        a[:, j] = (a[:, j] - c * a[:, i]) % p
    return a, blocks


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_minimal_polynomial_is_lcm_of_companion_blocks(p, data):
    a, blocks = data.draw(companion_sums(p))
    x = symbols("x")
    want = Poly(1, x, modulus=p)
    for f in blocks:
        want = want.lcm(Poly(f[::-1], x, modulus=p))
    m = gfp.minimal_polynomial(a, p)
    assert m == [int(c) % p for c in reversed(want.monic().all_coeffs())]
    assert_minimal_polynomial(m, a, p)


@pytest.mark.parametrize("p", [2, 3])
def test_minimal_polynomial_of_low_degree_large_matrices(p):
    """Every Krylov sequence of the identity has local degree 1, and of an
    involution at most 2: the case the doubling batches are for.  The
    involution swaps 100 pairs of coordinates, conjugated by a transvection
    so its rows are not all unit vectors."""
    n = 200
    assert gfp.minimal_polynomial(np.eye(n, dtype=np.int64), p) == [p - 1, 1]
    swap = np.eye(n, dtype=np.int64)[np.arange(n) ^ 1]
    t = np.eye(n, dtype=np.int64)
    t[3, 150] = 1
    t_inv = (2 * np.eye(n, dtype=np.int64) - t) % p
    inv = t @ swap @ t_inv % p
    assert gfp.minimal_polynomial(inv, p) == [p - 1, 0, 1]
    assert_minimal_polynomial([p - 1, 0, 1], inv, p)


POLY_PRIMES = (2, 3, 5, 7, 11, 13)
X = symbols("x")


def to_poly(f, p):
    """A coefficient list, lowest degree first, as a sympy Poly mod p."""
    return Poly(list(reversed(f)) or [0], X, modulus=p)


def from_poly(f, p):
    """A sympy Poly mod p as a list of ints in 0..p-1, lowest degree first,
    without trailing zeros."""
    return [] if f.is_zero else [int(c) % p for c in reversed(f.all_coeffs())]


@st.composite
def factorable_polys(draw, max_deg=36):
    """(p, f): f a nonzero constant times a product of random polynomials of
    degree 1-4 raised to powers 1-3, some composed with x^p first, so that
    repeated factors, multiplicities divisible by p and f = h(x^p) all turn
    up and Yun's characteristic-p branch runs."""
    p = draw(st.sampled_from(POLY_PRIMES))
    f = Poly(draw(st.integers(1, p - 1)), X, modulus=p)
    for _ in range(draw(st.integers(0, 4))):
        g = to_poly(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
                    + [draw(st.integers(1, p - 1))], p)
        if draw(st.booleans()):
            g = g.compose(Poly(X**p, X, modulus=p))
        g = g ** draw(st.integers(1, 3))
        if f.degree() + g.degree() <= max_deg:
            f *= g
    return p, from_poly(f, p)


@given(factorable_polys())
@settings(max_examples=150, deadline=None)
def test_factor_poly_matches_sympy(case):
    """The product of factor^multiplicity is monic f, every factor is monic
    and irreducible, the list is sorted by (degree, coefficients), and the
    factorisation is sympy's."""
    p, f = case
    got = gfp.factor_poly(f, p, np.random.default_rng(0))
    product = Poly(1, X, modulus=p)
    for g, m in got:
        assert_poly(g, p)
        assert g[-1] == 1 and to_poly(g, p).is_irreducible
        product *= to_poly(g, p) ** m
    assert from_poly(product, p) == from_poly(to_poly(f, p).monic(), p)
    assert got == sorted(got, key=lambda gm: (len(gm[0]), gm[0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        want = factor_list(to_poly(f, p))[1]
    assert sorted(got) == sorted((from_poly(g.monic(), p), m) for g, m in want)


def test_factor_poly_takes_a_plain_list():
    assert gfp.factor_poly([1, 0, 0, 0, 1], 2) == [([1, 1], 4)]


def poly_lists(p, max_len=12):
    """Polynomials of the list form mod p, the zero polynomial [] included."""
    return st.lists(st.integers(0, p - 1), max_size=max_len).map(gfp.poly_trim)


@given(st.sampled_from(POLY_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), poly_lists(p), poly_lists(p))))
@settings(max_examples=200, deadline=None)
def test_poly_divmod_and_gcd_match_sympy(case):
    p, f, g = case
    gcd = to_poly(f, p).gcd(to_poly(g, p))
    assert gfp.poly_gcd(f, g, p) == ([] if gcd.is_zero else from_poly(gcd.monic(), p))
    if not g:
        with pytest.raises(ZeroDivisionError):
            gfp.poly_divmod(f, g, p)
        return
    q, r = gfp.poly_divmod(f, g, p)
    assert_poly(q, p)
    assert_poly(r, p)
    assert len(r) < len(g)
    assert to_poly(q, p) * to_poly(g, p) + to_poly(r, p) == to_poly(f, p)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (2, 2, 2)])
def test_minimal_polynomial_rejects_non_square(p, shape):
    with pytest.raises(ValueError, match="non-square"):
        gfp.minimal_polynomial(np.zeros(shape, dtype=np.int64), p)


def test_hom_space_rejects_unequal_generator_counts():
    p = 3
    one = [np.eye(2, dtype=np.int64)]
    two = [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]])]
    with pytest.raises(meataxe.MeatAxeError):
        meataxe.hom_space(one, two, p)
    with pytest.raises(meataxe.MeatAxeError):
        meataxe.hom_space(two, one, p)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_span_points_one_rref_per_projective_point(p, r):
    """span_points against brute force over all of GF(p)^r: each nonzero
    coefficient vector, scaled so its first nonzero entry is 1, is one
    projective point, and span_points gives the rref of its combination
    exactly once."""
    rng = np.random.default_rng(100 * p + r)
    e, n = 2, 5
    while True:
        mats = rng.integers(0, p, size=(r, e, n))
        if gfp.rank(mats.reshape(r, -1), p) == r:
            break
    want = {}
    for lam in itertools.product(range(p), repeat=r):
        if not any(lam):
            continue
        lead = next(c for c in lam if c)
        monic = tuple(c * gfp.inv_mod(lead, p) % p for c in lam)
        comb = sum(c * m for c, m in zip(monic, mats)) % p
        want[monic] = gfp.rref(comb, p)[0].tobytes()
    got = [rr.tobytes() for rr in meataxe.span_points(list(mats), p)]
    assert len(want) == (p**r - 1) // (p - 1)
    assert sorted(got) == sorted(want.values())


def _subspaces_by_growth(n, p):
    """Every subspace of GF(p)^n, grown from the zero space by adding one
    nonzero vector at a time and row-reducing (reference)."""
    zero = np.zeros((0, n), dtype=np.int64)
    seen = {zero.tobytes(): zero}
    frontier = [zero]
    vectors = [np.array(v, dtype=np.int64)
               for v in itertools.product(range(p), repeat=n) if any(v)]
    while frontier:
        basis = frontier.pop()
        for v in vectors:
            rr, piv = gfp.rref(np.vstack([basis, v[None, :]]), p)
            if len(piv) > basis.shape[0] and rr.tobytes() not in seen:
                seen[rr.tobytes()] = rr
                frontier.append(rr)
    return list(seen.values())


def _gaussian_binomial(n, k, p):
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p, top", [(2, 5), (3, 4), (5, 4), (7, 3)])
def test_all_subspaces_counts_are_gaussian_binomials(p, top):
    for n in range(top + 1):
        ranks = [b.shape[0] for b in meataxe.all_subspaces(n, p)]
        assert [ranks.count(k) for k in range(n + 1)] == \
            [_gaussian_binomial(n, k, p) for k in range(n + 1)]


@pytest.mark.parametrize("p, top", [(2, 4), (3, 3)])
def test_all_subspaces_match_growth(p, top):
    """Every listed matrix is its own rref, and the list is the set the
    growth method finds."""
    for n in range(top + 1):
        got = meataxe.all_subspaces(n, p)
        for b in got:
            assert b.dtype == np.int64 and b.shape[1] == n
            assert np.array_equal(gfp.rref(b, p)[0], b)
        keys = sorted(b.tobytes() for b in got)
        assert len(set(keys)) == len(keys)
        assert keys == sorted(b.tobytes() for b in _subspaces_by_growth(n, p))


def test_span_points_streams():
    """span_points is a generator: each point is made when it is asked for,
    not all 2^16 - 1 up front."""
    gen = meataxe.span_points(np.eye(16, dtype=np.int64)[:, None, :], 2)
    assert inspect.isgenerator(gen)
    first = next(gen)
    assert first.shape == (1, 16) and first[0, 0] == 1


def test_span_points_refuses_more_than_enum_cap_points():
    """The cap is checked before the first point: 2^21 - 1 lines are too
    many, 2^20 - 1 are not."""
    big = meataxe.span_points(np.eye(21, dtype=np.int64)[:, None, :], 2)
    with pytest.raises(meataxe.MeatAxeError, match="too large"):
        next(big)
    assert (2**21 - 1) > meataxe.ENUM_CAP >= 2**20 - 1
    ok = meataxe.span_points(np.eye(20, dtype=np.int64)[:, None, :], 2)
    assert next(ok).shape == (1, 20)
