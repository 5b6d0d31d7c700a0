"""Independent checks for commlat's outputs.

Everything here is computed from a lattice's cover relation alone, by the
definitions and by brute force, without calling commlat.  The benchmark runs
these checks on the program's outputs outside the timed region.

Elements are ``0 .. n-1``; subsets are int bitmasks.
"""

from itertools import combinations

# Lattices with 1..8 elements up to isomorphism, and the modular ones
# (OEIS A006966 and A006981).
LATTICE_COUNTS = (1, 1, 1, 2, 5, 15, 53, 222)
MODULAR_COUNTS = (1, 1, 1, 2, 4, 8, 16, 34)


class CheckFailed(Exception):
    """A program output disagrees with an independent computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Order:
    """A finite lattice read off its cover relation.

    ``down[x]`` is the bitmask of the elements below x; the meet of x and y
    is the element whose down-set is ``down[x] & down[y]``, which exists for
    every pair exactly when the order is a lattice (dually for joins).
    """

    def __init__(self, n, covers):
        lower = [[] for _ in range(n)]
        upper = [[] for _ in range(n)]
        for x, y in covers:
            lower[y].append(x)
            upper[x].append(y)
        self.n = n
        self.covers = frozenset(covers)
        self.down = self._cones(lower)
        self.up = self._cones(upper)
        by_down = {mask: x for x, mask in enumerate(self.down)}
        by_up = {mask: x for x, mask in enumerate(self.up)}
        try:
            self.meet = [[by_down[self.down[x] & self.down[y]] for y in range(n)]
                         for x in range(n)]
            self.join = [[by_up[self.up[x] & self.up[y]] for y in range(n)]
                         for x in range(n)]
        except KeyError:
            raise CheckFailed("cover relation is not a lattice") from None
        everything = (1 << n) - 1
        self.bottom = by_up[everything]
        self.top = by_down[everything]

    @staticmethod
    def _cones(neighbours):
        """cones[x]: bitmask of x and everything reachable from it."""
        cones = [None] * len(neighbours)
        active = set()

        def visit(v):
            if cones[v] is None:
                require(v not in active, "cover relation has a cycle")
                active.add(v)
                mask = 1 << v
                for w in neighbours[v]:
                    mask |= visit(w)
                active.discard(v)
                cones[v] = mask
            return cones[v]

        for v in range(len(neighbours)):
            visit(v)
        return cones

    def leq(self, x, y):
        return bool(self.down[y] >> x & 1)

    def join_all(self, xs):
        out = self.bottom
        for x in xs:
            out = self.join[out][x]
        return out

    def is_modular(self):
        """x <= z implies x v (y ^ z) = (x v y) ^ z."""
        meet, join = self.meet, self.join
        for x in range(self.n):
            for z in range(self.n):
                if not self.leq(x, z):
                    continue
                for y in range(self.n):
                    if join[x][meet[y][z]] != meet[join[x][y]][z]:
                        return False
        return True

    def is_distributive(self):
        """x ^ (y v z) = (x ^ y) v (x ^ z)."""
        meet, join = self.meet, self.join
        for x in range(self.n):
            mx = meet[x]
            for y in range(self.n):
                jy, mxy = join[y], join[mx[y]]
                for z in range(y + 1, self.n):
                    if mx[jy[z]] != mxy[mx[z]]:
                        return False
        return True

    def meet_primes(self):
        """Elements p < top with x ^ y <= p only if x <= p or y <= p."""
        out = []
        for p in range(self.n):
            if p == self.top:
                continue
            outside = [x for x in range(self.n) if not self.leq(x, p)]
            if all(not self.leq(self.meet[x][y], p)
                   for x, y in combinations(outside, 2)):
                out.append(p)
        return out

    def splitting_pairs(self):
        """All (delta, epsilon) with delta < top, epsilon > bottom and every
        element <= delta or >= epsilon."""
        everything = (1 << self.n) - 1
        return sorted((d, e) for d in range(self.n) for e in range(self.n)
                      if d != self.top and e != self.bottom
                      and self.down[d] | self.up[e] == everything)

    def is_hom_to_two(self, image):
        """Whether ``image`` is a (0,1)-map onto the two-element chain."""
        if len(image) != self.n or set(image) - {0, 1}:
            return False
        if image[self.bottom] != 0 or image[self.top] != 1:
            return False
        return all(image[self.meet[x][y]] == min(image[x], image[y])
                   and image[self.join[x][y]] == max(image[x], image[y])
                   for x in range(self.n) for y in range(x + 1, self.n))

    def is_zero_one_sublattice(self, members):
        members = set(members)
        return (self.bottom in members and self.top in members
                and all(self.meet[x][y] in members and self.join[x][y] in members
                        for x in members for y in members))


# -- commutator tables -------------------------------------------------------


def table_violation(order, t):
    """The first axiom a table breaks, or None: symmetry, boundedness by the
    meet, join-distributivity, and annihilation by the bottom."""
    n, meet, join = order.n, order.meet, order.join
    if len(t) != n or any(len(row) != n for row in t):
        return "shape"
    for x in range(n):
        for y in range(n):
            if t[x][y] != t[y][x]:
                return f"symmetry at ({x}, {y})"
            if not order.leq(t[x][y], meet[x][y]):
                return f"boundedness at ({x}, {y})"
    for y in range(n):
        if t[order.bottom][y] != order.bottom:
            return f"bottom annihilation at {y}"
    column = [[t[x][y] for x in range(n)] for y in range(n)]
    for x in range(n):
        jx = join[x]
        for x2 in range(x + 1, n):
            j = jx[x2]
            for y in range(n):
                col = column[y]
                if col[j] != join[col[x]][col[x2]]:
                    return f"join-distributivity at ({x}, {x2}, {y})"
    return None


def derived_series(order, t):
    """top, [top, top], ... until it repeats."""
    seq = [order.top]
    while True:
        g = t[seq[-1]][seq[-1]]
        if g == seq[-1]:
            return tuple(seq + [g])
        seq.append(g)


def lower_central_series(order, t):
    """top, [top, top], [top, [top, top]], ... until it repeats."""
    seq = [order.top]
    while True:
        g = t[order.top][seq[-1]]
        if g == seq[-1]:
            return tuple(seq + [g])
        seq.append(g)


def residuation(order, t, lo, hi):
    """The join of every z with [z, hi] <= lo."""
    return order.join_all(z for z in range(order.n) if order.leq(t[z][hi], lo))


def series_verdicts(order, t):
    """(abelian, nilpotent, solvable) read off the table entries."""
    return (t[order.top][order.top] == order.bottom,
            lower_central_series(order, t)[-1] == order.bottom,
            derived_series(order, t)[-1] == order.bottom)


# -- congruences -------------------------------------------------------------


def _partitions(n):
    """Every set partition of 0..n-1 as a restricted growth string."""
    labels = [0] * n

    def grow(i, blocks):
        if i == n:
            yield tuple(labels)
            return
        for b in range(blocks + 1):
            labels[i] = b
            yield from grow(i + 1, max(blocks, b + 1))

    if n:
        yield from grow(1, 1)


def congruences(order):
    """Every partition with the substitution property, each as a frozenset of
    frozenset blocks.  Brute force over all Bell(n) partitions."""
    n, meet, join = order.n, order.meet, order.join
    out = []
    for cls in _partitions(n):
        first = {}
        ok = True
        for x in range(n):
            r = first.setdefault(cls[x], x)
            if r == x:
                continue
            mx, mr, jx, jr = meet[x], meet[r], join[x], join[r]
            if any(cls[mx[z]] != cls[mr[z]] or cls[jx[z]] != cls[jr[z]]
                   for z in range(n)):
                ok = False
                break
        if ok:
            blocks = {}
            for x, c in enumerate(cls):
                blocks.setdefault(c, set()).add(x)
            out.append(frozenset(frozenset(b) for b in blocks.values()))
    return out


def separating(order, cons, lo, hi):
    """The largest congruence in ``cons`` that keeps lo and hi apart.

    Returns None when the separating congruences have no largest member."""
    apart = [c for c in cons if not any(lo in b and hi in b for b in c)]
    if not apart:
        return None
    best = max(apart, key=lambda c: order.n - len(c))
    for c in apart:
        if not all(any(b <= big for big in best) for b in c):
            return None
    return best
