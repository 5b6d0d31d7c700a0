"""The lattices the tests build, as ``(n, covers)`` pairs, and the oracles
that check commlat's answers on them.

Chains, Boolean lattices, M_k, products and random renamings come from
``perfbench/lattices.py``, and the brute-force oracles from
``perfbench/oracles.py``: ``oracles.Order(n, covers)`` reads a lattice's
meets, joins, congruences and (0,1)-sublattices off its covers alone.  Both
are loaded by path and unchanged; this module adds what the tests need
beyond them.  Like them it uses nothing of commlat, so the inputs and the
oracles stay independent of the program they test.
"""

import importlib.util
import itertools
from pathlib import Path


def _load(name):
    """``perfbench/<name>.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}",
        Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_lattices = _load("lattices")
oracles = _load("oracles")

chain = _lattices.chain
boolean = _lattices.boolean
m = _lattices.m
product = _lattices.product
relabel = _lattices.relabel
relabel_monotone = _lattices.relabel_monotone


def rename(lattice, perm):
    """The lattice with element x renamed ``perm[x]``."""
    n, covers = lattice
    return n, {(perm[x], perm[y]) for x, y in covers}


def complemented(order):
    """Whether every x of an ``oracles.Order`` has a y with x ^ y = bottom
    and x v y = top."""
    return all(any(order.meet[x][y] == order.bottom
                   and order.join[x][y] == order.top for y in range(order.n))
               for x in range(order.n))


def glued_sum(a, b):
    """The glued sum a + b of two lattices named with bottom 0 and top n - 1,
    as every family here names them: b on top of a, with b's bottom
    identified with a's top.  a keeps its names and b's are shifted by
    n_a - 1.  glued_sum(m(3), m(3)) is M3 + M3, with covers (0,1) (0,2)
    (0,3) (1,4) (2,4) (3,4) (4,5) (4,6) (4,7) (5,8) (6,8) (7,8)."""
    (na, lower), (nb, upper) = a, b
    shift = na - 1
    return na + nb - 1, {*lower, *((x + shift, y + shift) for x, y in upper)}


def _field(q):
    """Addition and multiplication of GF(q) for q = 4 and q prime.  GF(4) is
    F2[x]/(x^2 + x + 1), a + bx stored as a | b << 1."""
    if q != 4:
        return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q)

    def times(a, b):
        unreduced = (a if b & 1 else 0) ^ (a << 1 if b & 2 else 0)
        return unreduced ^ 0b111 if unreduced & 0b100 else unreduced

    return (lambda a, b: a ^ b), times


def projective_plane(q):
    """The subspace lattice of PG(2, q) for q = 4 and q prime: 0, the
    q^2 + q + 1 points (the vectors of F_q^3 whose first nonzero coordinate
    is 1), the lines (named by the same vectors as normals: p lies on l iff
    p . l = 0), and the plane."""
    plus, times = _field(q)
    vectors = [v for v in itertools.product(range(q), repeat=3)
               if any(v) and next(c for c in v if c) == 1]
    k = len(vectors)

    def dot(u, v):
        out = 0
        for a, b in zip(u, v):
            out = plus(out, times(a, b))
        return out

    covers = {(0, 1 + p) for p in range(k)}
    covers |= {(1 + p, 1 + k + i) for p, u in enumerate(vectors)
               for i, v in enumerate(vectors) if dot(u, v) == 0}
    covers |= {(1 + k + i, 2 * k + 1) for i in range(k)}
    assert len(covers) == 2 * k + k * (q + 1)
    return 2 * k + 2, covers


# N5, the five-element nonmodular lattice 0 < 1 < 2 < 4, 0 < 3 < 4
N5 = 5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)}

# the one modular lattice with at most 8 elements that forces nilpotent
# type but not abelian type: both series of its largest multiplication
# read top, 3, bottom
NILPOTENT8 = (8, {(0, 1), (0, 2), (0, 3), (1, 6), (2, 6), (3, 4), (3, 5),
                  (3, 6), (4, 7), (5, 7), (6, 7)})

# the Fano plane under the names the pinned digests use: 0, the seven points
# 1..7, the seven lines 8..14 (lines 0 1 2, 0 3 4, 0 5 6, 1 3 5, 1 4 6,
# 2 3 6 and 2 4 5 on the points counted from 0), and the plane 15
FANO = rename(_lattices.fano(),
              [0, 1, 2, 4, 3, 6, 7, 5, 8, 11, 13, 14, 10, 12, 9, 15])
