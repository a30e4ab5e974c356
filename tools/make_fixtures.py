"""Regenerate the packaged fixture data: the group catalog and the order-27
half-arc-transitive graph.  Every fixture is verified before being written.

Run from the repository root:  python tools/make_fixtures.py
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hatd4 import graphs as G
from hatd4 import symmetry as S
from hatd4.perms import PermGroup, from_cycles, write_group_file

DATA = Path(__file__).resolve().parent.parent / "src" / "hatd4" / "data"


# -- finite fields and projective lines --------------------------------------


class Field:
    """GF(q) on the codes 0..q-1: a prime q, or q = 9 or 25 as a + b t coded
    a + p b, with t^2 = t + 1 (q = 9) or t^2 = t + 3 (q = 25).  In both of
    these t, code p, is the least nonsquare and a primitive element."""

    def __init__(self, q):
        self.q = q
        self.p, self.t2 = {9: (3, (1, 1)), 25: (5, (3, 1))}.get(q, (q, (0, 0)))

    def add(self, u, v):
        p = self.p
        return (u + v) % p + p * ((u // p + v // p) % p)

    def neg(self, u):
        p = self.p
        return -u % p + p * (-(u // p) % p)

    def mul(self, u, v):
        p, (r0, r1) = self.p, self.t2
        a, b, c, d = u % p, u // p, v % p, v // p
        return (a * c + r0 * b * d) % p + p * ((a * d + b * c + r1 * b * d) % p)

    def pow(self, u, k):
        r = 1
        for _ in range(k):
            r = self.mul(r, u)
        return r


def line_gens(q, *extra):
    """PSL(2,q) on the projective line 0..q, q being infinity, generated by
    x + 1, -1/x = -x^(q-2) and c^2 x for c the least nonsquare.  Each name in
    extra adds one generator: "pgl" is c x, "frob" is x^p, "twist" is c x^p."""
    F = Field(q)
    c = next(x for x in range(2, q) if F.pow(x, (q - 1) // 2) != 1)
    affine = {"pgl": lambda x: F.mul(c, x), "frob": lambda x: F.pow(x, F.p),
              "twist": lambda x: F.mul(c, F.pow(x, F.p))}
    maps = [lambda x: F.add(x, 1), lambda x: F.mul(F.mul(c, c), x)]
    gens = [[f(x) for x in range(q)] + [q] for f in maps + [affine[e] for e in extra]]
    gens.insert(1, [q] + [F.neg(F.pow(x, q - 2)) for x in range(1, q)] + [0])
    return [np.array(g, dtype=np.int32) for g in gens]


def plane_points(F):
    """The points of the projective plane over F as sorted normalised
    triples, and the normaliser (first nonzero coordinate 1)."""
    def norm(v):
        c = F.pow(next(x for x in v if x), F.q - 2)
        return tuple(F.mul(c, x) for x in v)

    return sorted({norm(v) for v in itertools.product(range(F.q), repeat=3) if any(v)}), norm


def pg2_actions():
    """PSL(3,3) on the 13 points of PG(2,3), and its extension by the
    point-line duality on 13 + 13 points."""
    pts, norm = plane_points(Field(3))
    pidx = {v: i for i, v in enumerate(pts)}

    def act13(m):
        return np.array([pidx[norm((np.array(v) @ m % 3).tolist())] for v in pts],
                        dtype=np.int32)

    elem = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = np.eye(3, dtype=int)
                m[i, j] = 1
                elem.append(m)
    # a transvection m = I + N has N^2 = 0, so its inverse is 2I - m; the
    # inverse transpose acts on the lines
    ext = [np.concatenate([act13(m), 13 + act13((2 * np.eye(3, dtype=int) - m).T % 3)])
           for m in elem]
    tau = np.concatenate([np.arange(13, 26), np.arange(0, 13)]).astype(np.int32)
    return [act13(m) for m in elem], ext + [tau]


def unitary_groups():
    """U3(3) on the 28 isotropic points of the standard Hermitian form over
    GF(9), generated by pseudo-reflections, and its Frobenius extension."""
    F = Field(9)
    pts, norm = plane_points(F)

    def hdot(x, y):
        s = 0
        for xi, yi in zip(x, y):
            s = F.add(s, F.mul(xi, F.pow(yi, 3)))
        return s

    iso = [v for v in pts if hdot(v, v) == 0]
    aniso = [v for v in pts if hdot(v, v) != 0]
    iidx = {v: i for i, v in enumerate(iso)}

    def perm_of(f):
        return np.array([iidx[norm(f(v))] for v in iso], dtype=np.int32)

    def reflection(v, zeta):
        c = F.mul(F.add(zeta, F.neg(1)), F.pow(hdot(v, v), 7))

        def f(x):
            k = F.mul(c, hdot(x, v))
            return tuple(F.add(xi, F.mul(k, vi)) for xi, vi in zip(x, v))

        return f

    norm1 = [z for z in range(2, 9) if F.pow(z, 4) == 1]
    gens = [perm_of(reflection(v, z)) for v in aniso[:8] for z in norm1]
    frob = perm_of(lambda x: tuple(F.pow(xi, 3) for xi in x))
    return gens, gens + [frob]


def product_groups(psl27_gens, delta):
    """The socle PSL(2,7) x PSL(2,7) on 8 + 8 points and its two relevant
    index-2 overgroups of order 56448: the swap extension and the even
    subgroup of PGL x PGL (component pairs in the same PSL-coset)."""
    gens = []
    for g in psl27_gens:
        a = np.arange(16, dtype=np.int32)
        a[:8] = g
        gens.append(a)
        b = np.arange(16, dtype=np.int32)
        b[8:] = g + 8
        gens.append(b)
    swap = np.concatenate([np.arange(8, 16), np.arange(0, 8)]).astype(np.int32)
    diag = np.empty(16, dtype=np.int32)
    diag[:8] = delta
    diag[8:] = delta + 8
    return gens, gens + [swap], gens + [diag]


def holt_edges():
    """The order-27 graph: vertices Z9 x Z3, (i,j) ~ (i +- 4^j, j+1)."""
    def vid(i, j):
        return (i % 9) * 3 + (j % 3)

    edges = set()
    for i in range(9):
        for j in range(3):
            for s in (1, -1):
                u, w = vid(i, j), vid(i + s * 4**j, j + 1)
                edges.add((min(u, w), max(u, w)))
    return sorted(edges)


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    (DATA / "catalog").mkdir(exist_ok=True)

    psl33, psl33_ext = pg2_actions()
    u33, u33_ext = unitary_groups()
    psl27sq, psl27sq_ext, pgl27sq_even = product_groups(line_gens(7), line_gens(7, "pgl")[-1])
    catalog = [
        ("psl_2_7", 8, 168, line_gens(7)),
        ("pgl_2_7", 8, 336, line_gens(7, "pgl")),
        ("alt_6", 6, 360, [from_cycles(6, [(0, 1, 2)]), from_cycles(6, [(1, 2, 3, 4, 5)])]),
        ("sym_6", 6, 720, [from_cycles(6, [(0, 1)]), from_cycles(6, [(0, 1, 2, 3, 4, 5)])]),
        ("pgl_2_9", 10, 720, line_gens(9, "pgl")),
        ("m10", 10, 720, line_gens(9, "twist")),
        ("psl_2_17", 18, 2448, line_gens(17)),
        ("psl_3_3", 13, 5616, psl33),
        ("u_3_3", 28, 6048, u33),
        ("psl_2_23", 24, 6072, line_gens(23)),
        ("psl_2_25", 26, 7800, line_gens(25)),
        ("psl_3_3_ext", 26, 11232, psl33_ext),
        ("u_3_3_ext", 28, 12096, u33_ext),
        ("pgl_2_23", 24, 12144, line_gens(23, "pgl")),
        ("psl_2_31", 32, 14880, line_gens(31)),
        ("pgl_2_25", 26, 15600, line_gens(25, "pgl")),
        ("psigma_2_25", 26, 15600, line_gens(25, "frob")),
        ("m_2_25", 26, 15600, line_gens(25, "twist")),
        ("alt_8", 8, 20160, [from_cycles(8, [(0, 1, 2)]), from_cycles(8, [(1, 2, 3, 4, 5, 6, 7)])]),
        ("psl_2_7_sq", 16, 28224, psl27sq),
        ("psl_2_41", 42, 34440, line_gens(41)),
        ("sym_8", 8, 40320, [from_cycles(8, [(0, 1)]), from_cycles(8, [(0, 1, 2, 3, 4, 5, 6, 7)])]),
        ("psl_2_47", 48, 51888, line_gens(47)),
        ("psl_2_7_sq_2", 16, 56448, psl27sq_ext),
        ("pgl_2_7_even_sq", 16, 56448, pgl27sq_even),
        ("pgl_2_41", 42, 68880, line_gens(41, "pgl")),
    ]
    for name, degree, order, gens in catalog:
        grp = PermGroup(degree, gens, name=name)
        assert grp.order() == order, (name, grp.order(), order)
        write_group_file(grp, DATA / "catalog" / ("%s.grp" % name), name=name)
        print("catalog %-13s degree %2d order %6d" % (name, degree, order))

    # extensions of one PSL(2,q) are distinct: each added map lies outside PGL(2,q)
    for q, extra in ((9, "twist"), (25, "frob"), (25, "twist")):
        assert not PermGroup(q + 1, line_gens(q, "pgl")).contains(line_gens(q, extra)[-1])

    holt = G.from_simple_edges(27, holt_edges())
    prof = G.structural_profile(holt)
    assert prof.connected and prof.simple and set(prof.valences) == {4}
    act = S.aut_group(holt)
    assert act.group.order() == 54, act.group.order()
    tp = S.transitivity_profile(holt, act)
    assert tp.classification == S.HALF_ARC_TRANSITIVE, tp
    with open(DATA / "holt_27.graph", "w", encoding="utf-8") as fh:
        fh.write("# tetravalent half-arc-transitive graph of order 27\n")
        fh.write("simple 27\n")
        for u, w in holt_edges():
            fh.write("%d %d\n" % (u, w))
    print("holt_27.graph: order 27, |Aut| = 54, half-arc-transitive")


if __name__ == "__main__":
    main()
