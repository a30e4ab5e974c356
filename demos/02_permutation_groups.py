"""Permutation groups: stabiliser chains, orbits, and structure predicates."""

import numpy as np

from hatd4.perms import (PermGroup, from_cycles, is_dihedral_8,
                         is_elementary_abelian, is_semiregular, is_solvable,
                         normal_closure)

s4 = PermGroup(4, [from_cycles(4, [(0, 1)]), from_cycles(4, [(0, 1, 2, 3)])])
print("|S4| =", s4.order(), " solvable:", is_solvable(s4))

a5 = PermGroup(5, [from_cycles(5, [(0, 1, 2, 3, 4)]), from_cycles(5, [(2, 3, 4)])])
print("|A5| =", a5.order(), " solvable:", is_solvable(a5))

stab = s4.point_stabiliser(0)
print("S4 point stabiliser order:", stab.order(), "(orbit-stabiliser: 4 *", stab.order(), "= 24)")

klein = normal_closure(s4, [from_cycles(4, [(0, 1), (2, 3)])])
print("normal closure of (01)(23) in S4:", klein.order())
print("  elementary abelian:", is_elementary_abelian(klein))

d4 = PermGroup(4, [from_cycles(4, [(0, 1, 2, 3)]), from_cycles(4, [(0, 2)])])
print("dihedral of order 8 recognised:", is_dihedral_8(d4))

fpf = PermGroup(4, [from_cycles(4, [(0, 1), (2, 3)])])
print("fixed-point-free involution semiregular:", is_semiregular(fpf, range(4)))
