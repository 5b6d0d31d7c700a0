"""Finite lattices given by their cover relation.

Elements are the integers ``0 .. n-1``.  The only input is the set of cover
pairs ``(x, y)`` meaning x is covered by y; the order matrix, meet/join
tables, bottom and top are derived and validated at construction time.  All
subsets of elements are manipulated as int bitmasks, which keeps every
operation exact and fast for the intended sizes (n <= 64).

Everything in this module is immutable after construction; all functions are
pure and safe to share across workers.
"""

from .errors import (
    CycleDetected,
    EmptySublattice,
    NotACongruence,
    NotAHomomorphism,
    NotALattice,
    NotASublattice,
    RedundantCover,
    VerificationError,
)


def _bits(mask):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """A finite lattice on elements ``0 .. n-1`` with a validated cover set.

    Raises :class:`CycleDetected`, :class:`RedundantCover` or
    :class:`NotALattice` when the covers do not describe a lattice order.
    """

    __slots__ = ("n", "covers", "_down", "_up", "_meet", "_join",
                 "bottom", "top", "_hash")

    def __init__(self, n, covers=()):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"element count must be a positive int, got {n!r}")
        cover_set = set()
        for pair in covers:
            x, y = pair
            if not (0 <= x < n and 0 <= y < n) or x == y:
                raise ValueError(f"bad cover pair {pair!r} for n={n}")
            cover_set.add((x, y))
        self.n = n
        self.covers = frozenset(cover_set)

        succ = [[] for _ in range(n)]
        pred = [[] for _ in range(n)]
        for x, y in cover_set:
            succ[x].append(y)
            pred[y].append(x)

        order = self._topological_order(succ, pred)
        # checked before the n^2 tables are built, so e.g. an antichain is
        # rejected cheaply; then the order starts at bottom and ends at top
        minimal, maximal = sum(not p for p in pred), sum(not s for s in succ)
        if minimal != 1 or maximal != 1:
            raise NotALattice(f"{minimal} minimal and {maximal} maximal "
                              "elements; a lattice has one of each")
        self.bottom, self.top = order[0], order[-1]

        down = [0] * n
        for v in order:
            m = 1 << v
            for x in pred[v]:
                m |= down[x]
            down[v] = m
        up = [0] * n
        for v in reversed(order):
            m = 1 << v
            for y in succ[v]:
                m |= up[y]
            up[v] = m
        self._down = down
        self._up = up

        for x, y in cover_set:
            between = up[x] & down[y] & ~(1 << x) & ~(1 << y)
            if between:
                z = next(_bits(between))
                raise RedundantCover(
                    f"cover ({x}, {y}) is implied transitively (via {z})")

        self._meet = self._bound_table(down, "meet")
        self._join = self._bound_table(up, "join")
        self._hash = hash((n, self.covers))

    @staticmethod
    def _topological_order(succ, pred):
        n = len(succ)
        indeg = [len(pred[v]) for v in range(n)]
        ready = [v for v in range(n) if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for y in succ[v]:
                indeg[y] -= 1
                if indeg[y] == 0:
                    ready.append(y)
        if len(order) != n:
            raise CycleDetected("cover relation contains a directed cycle")
        return order

    def _bound_table(self, cone, kind):
        # cone[x] = principal down-set (for meets) or up-set (for joins).
        n = self.n
        table = [[0] * n for _ in range(n)]
        for x in range(n):
            for y in range(x, n):
                common = cone[x] & cone[y]
                best = -1
                for z in _bits(common):
                    if common & ~cone[z] == 0:
                        best = z
                        break
                if best < 0:
                    raise NotALattice(f"elements {x} and {y} have no {kind}")
                table[x][y] = table[y][x] = best
        return table

    # -- order primitives ---------------------------------------------------

    def leq(self, x, y):
        return bool(self._down[y] >> x & 1)

    def lt(self, x, y):
        return x != y and bool(self._down[y] >> x & 1)

    def meet(self, x, y):
        return self._meet[x][y]

    def join(self, x, y):
        return self._join[x][y]

    def meet_all(self, xs):
        """Meet of a family; the empty meet is the top element."""
        out = self.top
        for x in xs:
            out = self._meet[out][x]
        return out

    def join_all(self, xs):
        """Join of a family; the empty join is the bottom element."""
        out = self.bottom
        for x in xs:
            out = self._join[out][x]
        return out

    def lower_set(self, x):
        """Bitmask of all elements <= x."""
        return self._down[x]

    def upper_set(self, x):
        """Bitmask of all elements >= x."""
        return self._up[x]

    @property
    def elements(self):
        return range(self.n)

    def is_cover(self, x, y):
        return (x, y) in self.covers

    def cover_pairs(self):
        """The cover pairs in sorted order."""
        return tuple(sorted(self.covers))

    def upper_covers(self, x):
        return sorted(y for (a, y) in self.covers if a == x)

    def lower_covers(self, y):
        return sorted(x for (x, b) in self.covers if b == y)

    # -- derived structure --------------------------------------------------

    def dual(self):
        """The lattice with the order reversed (same element names)."""
        return FiniteLattice(self.n, {(y, x) for (x, y) in self.covers})

    def is_modular(self):
        """Whether x <= z implies x v (y ^ z) = (x v y) ^ z for all y."""
        for x in range(self.n):
            for z in _bits(self._up[x]):
                for y in range(self.n):
                    if self._join[x][self._meet[y][z]] != \
                            self._meet[self._join[x][y]][z]:
                        return False
        return True

    def __eq__(self, other):
        return (isinstance(other, FiniteLattice)
                and self.n == other.n and self.covers == other.covers)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteLattice({self.n}, {sorted(self.covers)})"


def build(n, covers):
    """Validate a cover relation and return the lattice it generates."""
    return FiniteLattice(n, covers)


class LatticePartition:
    """A partition of the elements satisfying the congruence property:
    x = y implies x^z = y^z and xvz = yvz for every z.

    For finite lattices this is the same as a complete congruence.
    """

    __slots__ = ("lattice", "blocks", "class_of")

    def __init__(self, lattice, blocks):
        seen = set()
        normalized = []
        for block in blocks:
            b = tuple(sorted(set(block)))
            if not b:
                continue
            normalized.append(b)
            for x in b:
                if x in seen or not 0 <= x < lattice.n:
                    raise ValueError(f"blocks do not partition 0..{lattice.n - 1}")
                seen.add(x)
        if len(seen) != lattice.n:
            raise ValueError(f"blocks do not partition 0..{lattice.n - 1}")
        normalized.sort()
        class_of = [0] * lattice.n
        for i, b in enumerate(normalized):
            for x in b:
                class_of[x] = i
        self.lattice = lattice
        self.blocks = tuple(normalized)
        self.class_of = tuple(class_of)
        self._check_congruence()

    def _check_congruence(self):
        lat, cls = self.lattice, self.class_of
        for block in self.blocks:
            x = block[0]
            for y in block[1:]:
                for z in range(lat.n):
                    if cls[lat.meet(x, z)] != cls[lat.meet(y, z)]:
                        raise NotACongruence(
                            f"meet translation by {z} separates {x} ~ {y}")
                    if cls[lat.join(x, z)] != cls[lat.join(y, z)]:
                        raise NotACongruence(
                            f"join translation by {z} separates {x} ~ {y}")

    @classmethod
    def identity(cls, lattice):
        return cls(lattice, [(x,) for x in range(lattice.n)])

    @classmethod
    def single_block(cls, lattice):
        return cls(lattice, [tuple(range(lattice.n))])

    def related(self, x, y):
        return self.class_of[x] == self.class_of[y]

    @property
    def num_blocks(self):
        return len(self.blocks)

    def is_identity(self):
        return self.num_blocks == self.lattice.n

    def refines(self, other):
        """Whether every block of self lies inside a block of ``other``."""
        return all(len({other.class_of[x] for x in b}) == 1 for b in self.blocks)

    def __eq__(self, other):
        return (isinstance(other, LatticePartition)
                and self.lattice == other.lattice and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.lattice, self.blocks))

    def __repr__(self):
        return f"LatticePartition({self.blocks})"


def congruence_generated(lattice, seed):
    """The least congruence of ``lattice`` relating every seed pair.

    Worklist closure (R. Freese, "Computing congruences efficiently",
    Algebra Universalis 59, 2008): a union-find holds the classes, and each
    union that merges two classes pushes the pair of their representatives
    onto a worklist.  Only those pairs are translated by ``z ^ -`` and
    ``z v -``.  The pushed pairs generate the partition as an equivalence,
    so once each is translated the partition is a congruence.  There are at
    most n - 1 unions of O(n) translates each: O(n^2) per call, plus the
    seed.  The result is checked to be a congruence; a failure is a bug.
    """
    n = lattice.n
    meet, join = lattice._meet, lattice._join
    parent = list(range(n))
    merged = []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx
            merged.append((rx, ry))

    for x, y in seed:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"seed pair ({x}, {y}) out of range")
        union(x, y)

    while merged:
        x, y = merged.pop()
        for table in (meet, join):
            for a, b in zip(table[x], table[y]):
                if a != b:
                    union(a, b)

    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    try:
        return LatticePartition(lattice, groups.values())
    except NotACongruence as exc:
        raise VerificationError(
            f"worklist closure is not a congruence: {exc}") from exc


def quotient(lattice, partition):
    """The quotient lattice and the canonical (0,1)-projection onto it.

    Block ``i`` of the partition (blocks are sorted by their least member)
    becomes element ``i`` of the quotient.
    """
    if partition.lattice != lattice:
        raise ValueError("partition belongs to a different lattice")
    cls = partition.class_of
    reps = [b[0] for b in partition.blocks]
    k = len(reps)

    def qleq(i, j):
        return cls[lattice.join(reps[i], reps[j])] == j

    qcovers = set()
    for i in range(k):
        for j in range(k):
            if i == j or not qleq(i, j):
                continue
            if not any(m != i and m != j and qleq(i, m) and qleq(m, j)
                       for m in range(k)):
                qcovers.add((i, j))
    image = FiniteLattice(k, qcovers)
    projection = LatticeMap(lattice, image, cls)
    return image, projection


def is_simple(lattice):
    """Whether the only congruences are the identity and the full relation.

    Every congruence but the identity contains con(j-, j) for some join
    irreducible j (see :func:`all_congruences`), so it suffices that each of
    those collapses everything: at most |J(L)| closures of O(n^2) each.
    """
    if lattice.n < 2:
        return False
    return all(congruence_generated(lattice, [(lo, j)]).num_blocks == 1
               for j, lo in sole_covers(lattice.covers).items())


def is_complemented(lattice):
    """Whether every x has a y with x ^ y = bottom and x v y = top."""
    return all(
        any(lattice.meet(x, y) == lattice.bottom
            and lattice.join(x, y) == lattice.top
            for y in range(lattice.n))
        for x in range(lattice.n))


def sole_covers(pairs):
    """Map each y that is the second member of exactly one pair (x, y) to
    that x, in O(|pairs|).  On the covers this reads off the join
    irreducibles and their unique lower covers; on the reversed covers, the
    meet irreducibles and their unique upper covers."""
    found, repeated = {}, set()
    for x, y in pairs:
        if y in found:
            repeated.add(y)
        found[y] = x
    return {y: x for y, x in found.items() if y not in repeated}


def all_congruences(lattice):
    """Every congruence of the lattice, sorted by block structure.

    Every congruence of a finite lattice is the join of the principal
    congruences con(j-, j) of the join irreducibles j it collapses (R.
    Freese, "Computing congruence lattices of finite lattices", Proc. AMS
    125, 1997).  So Con L is the closure of {identity} under theta ->
    theta v con(j-, j), each join one :func:`congruence_generated` call
    seeded with theta's blocks and the pair (j-, j).  That is
    O(|Con L| * |J(L)| * n^2) in all.
    """
    joins = sole_covers(lattice.covers).items()
    identity = LatticePartition.identity(lattice)
    found = {identity}
    pending = [identity]
    while pending:
        theta = pending.pop()
        seeds = [(b[0], x) for b in theta.blocks for x in b[1:]]
        for j, lo in joins:
            if theta.related(lo, j):
                continue
            joined = congruence_generated(lattice, seeds + [(lo, j)])
            if joined not in found:
                found.add(joined)
                pending.append(joined)
    return sorted(found, key=lambda p: p.blocks)


class LatticeMap:
    """A map between lattices that preserves binary meets and joins."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != source.n:
            raise ValueError("image length does not match the source lattice")
        if any(not 0 <= v < target.n for v in image):
            raise ValueError("image element out of range")
        for x in range(source.n):
            for y in range(x + 1, source.n):
                if image[source.meet(x, y)] != target.meet(image[x], image[y]):
                    raise NotAHomomorphism(f"meet of {x}, {y} not preserved")
                if image[source.join(x, y)] != target.join(image[x], image[y]):
                    raise NotAHomomorphism(f"join of {x}, {y} not preserved")
        self.source = source
        self.target = target
        self.image = image

    @property
    def is_zero_one(self):
        """Whether bottom maps to bottom and top to top; together with
        binary preservation this makes the map complete in the finite case."""
        return (self.image[self.source.bottom] == self.target.bottom
                and self.image[self.source.top] == self.target.top)

    def __call__(self, x):
        return self.image[x]

    @classmethod
    def identity(cls, lattice):
        return cls(lattice, lattice, range(lattice.n))

    def __eq__(self, other):
        return (isinstance(other, LatticeMap) and self.source == other.source
                and self.target == other.target and self.image == other.image)

    def __hash__(self):
        return hash((self.source, self.target, self.image))

    def __repr__(self):
        return f"LatticeMap({self.image})"


class SublatticeEmbedding:
    """A nonempty subset of a lattice closed under binary meet and join."""

    __slots__ = ("ambient", "members", "member_list")

    def __init__(self, ambient, members):
        member_set = frozenset(members)
        if not member_set:
            raise EmptySublattice("a sublattice needs at least one member")
        if any(not 0 <= x < ambient.n for x in member_set):
            raise ValueError("member out of range")
        for x in member_set:
            for y in member_set:
                if ambient.meet(x, y) not in member_set:
                    raise NotASublattice(f"not meet closed at ({x}, {y})")
                if ambient.join(x, y) not in member_set:
                    raise NotASublattice(f"not join closed at ({x}, {y})")
        self.ambient = ambient
        self.members = member_set
        self.member_list = tuple(sorted(member_set))

    @classmethod
    def generated(cls, ambient, seed):
        """The least sublattice containing the seed elements."""
        members = set(seed)
        if not members:
            raise EmptySublattice("cannot generate a sublattice from nothing")
        while True:
            new = set()
            for x in members:
                for y in members:
                    new.add(ambient.meet(x, y))
                    new.add(ambient.join(x, y))
            if new <= members:
                return cls(ambient, members)
            members |= new

    @property
    def is_zero_one(self):
        return (self.ambient.bottom in self.members
                and self.ambient.top in self.members)

    def closure(self, x):
        """The least member above x (the meet of all members above x)."""
        above = [m for m in self.member_list if self.ambient.leq(x, m)]
        if not above:
            raise EmptySublattice(f"no member of the sublattice lies above {x}")
        out = self.ambient.meet_all(above)
        assert out in self.members
        return out

    def as_lattice(self):
        """The members as a lattice of their own.

        Returns ``(lattice, embedding)`` where ``embedding[i]`` is the
        ambient element that member ``i`` stands for.  Meets and joins agree
        with the ambient ones because the subset is closed under both.
        """
        order = self.member_list
        index = {m: i for i, m in enumerate(order)}
        k = len(order)
        covers = set()
        for i in range(k):
            for j in range(k):
                if i == j or not self.ambient.lt(order[i], order[j]):
                    continue
                if not any(self.ambient.lt(order[i], order[m])
                           and self.ambient.lt(order[m], order[j])
                           for m in range(k)):
                    covers.add((i, j))
        return FiniteLattice(k, covers), order

    def __eq__(self, other):
        return (isinstance(other, SublatticeEmbedding)
                and self.ambient == other.ambient and self.members == other.members)

    def __hash__(self):
        return hash((self.ambient, self.members))

    def __repr__(self):
        return f"SublatticeEmbedding({self.member_list})"
