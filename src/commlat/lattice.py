"""Finite lattices given by their cover relation.

Elements are the integers ``0 .. n-1``.  The only input is the set of cover
pairs ``(x, y)`` meaning x is covered by y.  It is stored once, as masks,
bit x of ``_lower[y]`` and bit y of ``_upper[x]``: the pairs, the
irreducibles and every other reader of the covers read them, and no layer
rebuilds them.  The down-sets, up-sets, meet and join tables, bottom and top
are derived and validated at construction time.  All subsets of elements
are int bitmasks, exact and fast at the intended sizes: a lattice has at
most ``MAX_N`` = 64 elements, and a larger one raises :class:`InputError`
before anything is allocated per element.  Since n < 256, the rows of the
meet and join tables are ``bytes``, so a row read through a labelling of
the elements (classes, or a map's images) is one ``bytes.translate``.

Everything in this module is immutable after construction (a lattice only
remembers the facts computed once each by :meth:`FiniteLattice.fact`, which
are freed with it); all functions are pure and safe to share across workers.
The one other memory is weak: a partition remembers the projection that
:func:`quotient` last built from it, which its caller alone keeps alive.
"""

import itertools
import weakref

from .errors import InputError, VerificationError

MAX_N = 64
# all_congruences refuses a lattice with more congruences than this, C16's
# count; C20 would take minutes and hundreds of MB, C32 all memory
MAX_CONGRUENCES = 2**15


def _built(producer, build, *args):
    """``build(*args)`` for an object ``producer`` builds from data it has
    checked: a refusal there, a ValueError (every InputError is one; exit
    2), is its bug and raises VerificationError (exit 3) naming ``producer``
    and the class part of ``build.__qualname__`` (a class, or a method of
    one)."""
    try:
        return build(*args)
    except ValueError as exc:
        built = build.__qualname__.partition(".")[0]
        raise VerificationError(
            f"{producer} built an invalid {built}: {exc}") from exc


def _elements(lattice, xs, what):
    """``xs`` as a tuple of elements of the lattice, ints (not bools) in
    0..n-1; else InputError, "``what`` out of range"."""
    try:
        xs = tuple(xs)
    except TypeError:
        xs = (None,)  # not a sequence: refused as a non-element
    if any(type(x) is not int or not 0 <= x < lattice.n for x in xs):
        raise InputError(f"{what} out of range")
    return xs


def _bits(mask):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """A finite lattice on elements ``0 .. n-1`` with a validated cover set.

    Raises :class:`InputError` when the covers do not describe a lattice
    order (a cycle, a redundant cover, a pair without a meet or a join) and
    for more than ``MAX_N`` elements.
    """

    __slots__ = ("n", "_lower", "_upper", "_down", "_up", "_meet", "_join",
                 "bottom", "top", "_hash", "_facts", "__weakref__")

    def __init__(self, n, covers=()):
        if type(n) is not int or n < 1:
            raise InputError(f"element count must be a positive int, got {n!r}")
        if n > MAX_N:
            raise InputError(f"{n} elements; lattices are limited to "
                             f"{MAX_N}")
        lower, upper = [0] * n, [0] * n
        pair = covers  # named below if covers is not iterable
        try:
            for pair in covers:
                x, y = pair
                if not (0 <= x < n and 0 <= y < n) or x == y:
                    raise InputError
                lower[y] |= 1 << x
                upper[x] |= 1 << y
        except (TypeError, ValueError):  # not a pair of elements
            raise InputError(f"bad cover pair {pair!r} for n={n}") from None
        self.n, self._lower, self._upper = n, lower, upper

        # Kahn's topological sort, reading bits inline, highest first (a
        # generator per element costs as much as the loop); a lower cover
        # inside another one's down-set is redundant
        down = [0] * n
        order = []
        placed = 0
        ready = [v for v, below in enumerate(lower) if not below]
        while ready:
            v = ready.pop()
            order.append(v)
            placed |= 1 << v
            m = reach = 0
            rest = lower[v]
            while rest:
                x = rest.bit_length() - 1
                rest ^= 1 << x
                m |= down[x]
                reach |= down[x] ^ 1 << x
            if reach & lower[v]:
                x = next(_bits(reach & lower[v]))
                z = next(z for z in _bits(m) if z != x and down[z] >> x & 1)
                raise InputError(
                    f"cover ({x}, {v}) is implied transitively (via {z})")
            down[v] = m | 1 << v
            rest = upper[v]
            while rest:
                y = rest.bit_length() - 1
                rest ^= 1 << y
                if not lower[y] & ~placed:
                    ready.append(y)
        if len(order) != n:
            raise InputError("cover relation contains a directed cycle")
        # checked before the n^2 tables are built, so e.g. an antichain is
        # rejected cheaply; then the order starts at bottom and ends at top
        minimal, maximal = lower.count(0), upper.count(0)
        if minimal != 1 or maximal != 1:
            raise InputError(f"{minimal} minimal and {maximal} maximal "
                             "elements; a lattice has one of each")
        self.bottom, self.top = order[0], order[-1]
        up = [0] * n
        for v in reversed(order):
            m = 1 << v
            rest = upper[v]
            while rest:
                y = rest.bit_length() - 1
                rest ^= 1 << y
                m |= up[y]
            up[v] = m
        self._down, self._up = down, up

        self._meet = self._bound_table(down, "meet")
        self._join = self._bound_table(up, "join")
        self._hash = hash((n, *upper))
        self._facts = {}

    def _bound_table(self, cone, kind):
        """The meet (``cone`` = principal down-sets) or join (up-sets)
        table.  In a lattice the common cone of x and y is the cone of their
        bound, so each entry is one O(1) lookup in ``{cone[z]: z}``; a
        common cone that is no element's cone means x and y have no bound.
        The table is built in one pass and cut into rows.
        """
        n = len(cone)
        bound = {c: z for z, c in enumerate(cone)}
        # 0xFF names no element (n <= 64)
        table = bytes([bound.get(cx & c, 0xFF) for cx in cone for c in cone])
        missing = table.find(0xFF)
        if missing >= 0:
            # the first failing row fails first at some y >= x, since the
            # table is symmetric
            raise InputError(f"elements {missing // n} and {missing % n} "
                             f"have no {kind}")
        return [table[i:i + n] for i in range(0, n * n, n)]

    # -- order primitives ---------------------------------------------------

    def leq(self, x, y):
        return bool(self._down[y] >> x & 1)

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

    def cover_pairs(self):
        """The cover pairs in sorted order."""
        pairs = []
        for x, rest in enumerate(self._upper):
            while rest:
                pairs.append((x, (rest & -rest).bit_length() - 1))
                rest &= rest - 1
        return tuple(pairs)

    @property
    def covers(self):
        """The cover pairs as a frozenset."""
        return frozenset(self.cover_pairs())

    # -- derived structure --------------------------------------------------

    def fact(self, compute):
        """``compute(self)``, computed once and kept for the lattice's
        lifetime (no module-level cache holds the lattice alive)."""
        if compute not in self._facts:
            self._facts[compute] = compute(self)
        return self._facts[compute]

    def dual(self):
        """The lattice with the order reversed (same element names)."""
        return _built("dual", FiniteLattice, self.n,
                      [(y, x) for x, y in self.cover_pairs()])

    def is_modular(self):
        """Whether x <= z implies x v (y ^ z) = (x v y) ^ z for all y
        (tested on the cover masks as upper plus lower semimodularity, see
        ``_is_modular``)."""
        return self.fact(_is_modular)

    def __eq__(self, other):
        return (isinstance(other, FiniteLattice)
                and self.n == other.n and self._upper == other._upper)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FiniteLattice({self.n}, {list(self.cover_pairs())})"


# the one-element blocks, shared by every partition
_SINGLETONS = tuple((x,) for x in range(MAX_N))


def _translation(values):
    """The ``bytes.translate`` table sending x to ``values[x]``."""
    return bytes(values).ljust(256, b"\0")


def _is_modular(lat):
    """Upper and lower semimodularity, which together are modularity in a
    finite lattice (Birkhoff; G. Gratzer, *Lattice Theory: Foundation*,
    2011): any two upper covers of an element share an upper cover, and
    any two lower covers share a lower cover.  Two upper covers a, b of c
    meet in c, and a v b covers both exactly when they have a common upper
    cover, which is then a v b; dually for lower covers.  Only ``_upper``
    and ``_lower`` are read, so the corpus tests a grown candidate before
    any lattice is built.  One AND per pair of covers of one element.
    """
    return all(masks[a] & masks[b]
               for masks in (lat._upper, lat._lower)
               for m in masks if m & m - 1
               for a, b in itertools.combinations(_bits(m), 2))


class LatticePartition:
    """A partition of the elements satisfying the congruence property:
    x = y implies x^z = y^z and xvz = yvz for every z.

    For finite lattices this is the same as a complete congruence.  It is
    built from one hashable label per element, equal labels sharing a block,
    else :class:`InputError`.  ``blocks`` are sorted tuples, numbered by
    their least member, the one-element ones shared by every partition, and
    ``class_of[x]`` is the index of x's block, as ``bytes`` (n < 256): facts
    keep partitions on their lattice, so they stay small.
    """

    __slots__ = ("lattice", "blocks", "class_of", "_projection")

    def __init__(self, lattice, labels):
        number = {}
        try:
            ids = [number.setdefault(v, len(number)) for v in labels]
        except TypeError:
            ids = ()  # a label that cannot be hashed
        if len(ids) != lattice.n:
            raise InputError(f"expected {lattice.n} hashable partition labels")
        cls = bytes(ids)
        rows = [[] for _ in number]
        for x, c in enumerate(cls):
            rows[c].append(x)
        self.lattice, self.class_of = lattice, cls
        self.blocks = tuple([_SINGLETONS[b[0]] if len(b) == 1 else tuple(b)
                             for b in rows])
        self._projection = None
        self._check_congruence()

    def _check_congruence(self):
        # x ~ y must give x^z ~ y^z and xvz ~ yvz for every z: the rows of
        # x and y, read through the classes, must be equal
        cls = self.class_of
        meet, join = self.lattice._meet, self.lattice._join
        through = _translation(cls)
        for block in self.blocks:
            if len(block) == 1:
                continue
            x = block[0]
            meet_x = meet[x].translate(through)
            join_x = join[x].translate(through)
            for y in block[1:]:
                if (meet[y].translate(through) == meet_x
                        and join[y].translate(through) == join_x):
                    continue
                for z in range(len(cls)):
                    if meet_x[z] != cls[meet[y][z]]:
                        raise InputError(
                            f"meet translation by {z} separates {x} ~ {y}")
                    if join_x[z] != cls[join[y][z]]:
                        raise InputError(
                            f"join translation by {z} separates {x} ~ {y}")

    def related(self, x, y):
        return self.class_of[x] == self.class_of[y]

    @property
    def num_blocks(self):
        return len(self.blocks)

    def _require_on(self, lattice):
        if self.lattice is not lattice and self.lattice != lattice:
            raise InputError("partition belongs to a different lattice")

    def __reduce__(self):
        # the weak memo does not pickle; the copy starts without it
        return LatticePartition, (self.lattice, self.class_of)

    def __repr__(self):
        return f"LatticePartition({self.blocks})"


def _dependencies(lattice):
    """``(below, j_mask)``, the facts every congruence reads.

    ``below[j]`` is the mask of the join irreducibles k with con(k-, k) <=
    con(j-, j) for each join irreducible j, and 0 for the other elements:
    the reflexive and transitive closure of the dependency relation, k D j
    when some x has k <= j v x and k !<= j- v x (R. Freese, J. Jezek and
    J. B. Nation, *Free Lattices*, AMS 1995, ch. II; R. Freese, "Computing
    congruence lattices of finite lattices", Proc. AMS 125, 1997).  Row j
    of D is the OR over x of down(j v x) minus down(j- v x), read off the
    join rows of j and j-, and Warshall's algorithm closes it: O(|J| n +
    |J|^2) mask operations.  The join irreducibles are the elements whose
    ``below`` is not 0, and ``j_mask`` is their mask.
    """
    down = lattice._down
    irreducibles = _single_bits(lattice._lower)
    j_mask = sum(1 << j for j, _ in irreducibles)
    below = [0] * lattice.n
    for j, lo in irreducibles:
        row = 0
        for a, b in zip(lattice._join[j], lattice._join[lo]):
            row |= down[a] & ~down[b]
        below[j] = row & j_mask
    for k, _ in irreducibles:
        for j, _ in irreducibles:
            if below[j] >> k & 1:
                below[j] |= below[k]
    return below, j_mask


def _fibres(lattice, reach):
    """The least congruence that collapses (k-, k) for each join
    irreducible k in ``reach``: every congruence is built here.  It
    collapses the union S of their ``below`` masks (see
    :func:`_dependencies`), and its blocks are the fibres of x -> down(x) &
    kept, ``kept`` the join irreducibles outside S: two elements with the
    same value have a meet with that value, and each cover on a chain up
    from it adds only join irreducibles in S, so it collapses.  O(|reach|)
    ORs, then O(n) plus the row check.  Each k in ``reach`` must be in S
    and the fibres must be a congruence; else ``below`` is wrong, and
    VerificationError is raised.
    """
    below, j_mask = lattice.fact(_dependencies)
    collapsed = 0
    for k in _bits(reach):
        collapsed |= below[k]
    missed = reach & j_mask & ~collapsed
    if missed:
        raise VerificationError(f"below keeps {next(_bits(missed))} of the "
                                "reach apart from its lower cover")
    kept = j_mask & ~collapsed
    return _built("_fibres", LatticePartition, lattice,
                  [d & kept for d in lattice._down])


def congruence_generated(lattice, seed):
    """The least congruence containing the seed pairs, read once.

    con(x, y) collapses (k-, k) for each join irreducible k in the reach of
    (x, y), the k <= x v y with k !<= x ^ y, since x ^ y and x v y are
    related and classes are convex.  A congruence relates x and y exactly
    when it relates x ^ y and x v y, so the :func:`_fibres` of the union of
    the reaches relate every seed pair once the kernel's checks pass, and
    then they are con(seed).  A dependency missing from ``below`` raises
    VerificationError; an extra one gives a coarser congruence that no
    check here can see.
    """
    n = lattice.n
    down, meet, join = lattice._down, lattice._meet, lattice._join
    reach = 0
    for x, y in seed:
        if not (0 <= x < n and 0 <= y < n):
            raise InputError(f"seed pair ({x}, {y}) out of range")
        reach |= down[join[x][y]] & ~down[meet[x][y]]
    return _fibres(lattice, reach)


def quotient(lattice, partition):
    """The quotient lattice and the canonical (0,1)-projection onto it.

    Block ``i`` of the partition (blocks are sorted by their least member)
    becomes element ``i`` of the quotient.  The covers of the quotient are
    the images of the covers x < y of the lattice with x and y in different
    blocks: the projection maps a cover to a cover or to one element, and
    every cover of the quotient lifts along a maximal chain.  So they take
    one pass over the covers, and :class:`FiniteLattice` validates them.

    The partition keeps a weak reference to the projection it last gave:
    while a caller holds it, a repeat call on the same lattice object
    returns the same image and projection, built once.  Nothing else holds
    them, so they are freed when the caller drops them; two threads that
    race only build the quotient twice.
    """
    partition._require_on(lattice)
    memo = partition._projection
    projection = memo() if memo is not None else None
    if projection is not None and projection.source is lattice:
        return projection.target, projection
    cls = partition.class_of
    qcovers = {(cls[x], cls[y]) for x, y in lattice.cover_pairs() if cls[x] != cls[y]}
    image = _built("quotient", FiniteLattice, partition.num_blocks, qcovers)
    projection = _built("quotient", LatticeMap, lattice, image, cls)
    partition._projection = weakref.ref(projection)
    return image, projection


def is_simple(lattice):
    """Whether the only congruences are the identity and the full relation.

    Every other congruence contains some con(j-, j), the full relation
    exactly when ``below[j]`` holds every join irreducible.  So the answer
    is whether con(j-, j) is one block for the first j whose ``below[j]``
    falls short, or the first j if none does: one partition per call.
    """
    if lattice.n == 1:
        return False
    below, j_mask = lattice.fact(_dependencies)
    j = next((j for j in _bits(j_mask) if below[j] != j_mask),
             (j_mask & -j_mask).bit_length() - 1)
    return _fibres(lattice, 1 << j).num_blocks == 1


def _single_bits(masks):
    """(v, i) for each ``masks[v]`` with i its only set bit: on ``_lower``
    the join irreducibles and their j-, on ``_upper`` the meet ones and m+."""
    return [(v, m.bit_length() - 1) for v, m in enumerate(masks)
            if m and not m & m - 1]


def all_congruences(lattice):
    """Every congruence of the lattice, sorted by block structure.

    theta -> {j : theta collapses (j-, j)} is a bijection from Con L onto
    the down-sets of Freese's quasiorder on J(L) (see :func:`_dependencies`),
    the unions of the ``below`` masks.  They are ORed and counted as they
    grow: past ``MAX_CONGRUENCES`` :class:`InputError` is raised before
    any partition is built.  Each down-set s is one
    :func:`congruence_generated` call, seeded with the (j-, j) for j in s,
    whose reach is s: O(n) plus the row check per congruence, plus
    O(|Con L| * |J(L)|) ORs.  A join irreducible j missing from its own
    ``below[j]`` is a bug, checked first: no down-set would hold j, so no
    call would see it.  Two down-sets giving one congruence, as an unclosed
    ``below`` would, are a bug too.
    """
    irreducibles = _single_bits(lattice._lower)
    below = lattice.fact(_dependencies)[0]
    for j, _ in irreducibles:
        if not below[j] >> j & 1:
            raise VerificationError(
                f"join irreducible {j} is missing from its own dependencies")
    downsets = {0}
    for mask in {below[j] for j, _ in irreducibles}:
        downsets |= {d | mask for d in downsets}
        if len(downsets) > MAX_CONGRUENCES:
            raise InputError(f"more than {MAX_CONGRUENCES} congruences")
    found = sorted((congruence_generated(
        lattice, ((lo, j) for j, lo in irreducibles if s >> j & 1))
        for s in downsets), key=lambda p: p.blocks)
    if any(a.blocks == b.blocks for a, b in zip(found, found[1:])):
        raise VerificationError("two down-sets gave one congruence")
    return found


class LatticeMap:
    """A map between lattices that preserves binary meets and joins."""

    __slots__ = ("source", "target", "image", "__weakref__")

    def __init__(self, source, target, image):
        image = _elements(target, image, "image element")
        if len(image) != source.n:
            raise InputError("image length does not match the source lattice")
        # row x of each source table read through the image must equal row
        # image[x] of the target table read at the images; tables are
        # symmetric, so the first failing row fails first past the diagonal
        smeet, sjoin = source._meet, source._join
        through, image_row = _translation(image), bytes(image)
        at_meet = [image_row.translate(_translation(row)) for row in target._meet]
        at_join = [image_row.translate(_translation(row)) for row in target._join]
        for x in range(source.n):
            if (smeet[x].translate(through) == at_meet[image[x]]
                    and sjoin[x].translate(through) == at_join[image[x]]):
                continue
            tmeet, tjoin = target._meet[image[x]], target._join[image[x]]
            for y in range(x + 1, source.n):
                if image[smeet[x][y]] != tmeet[image[y]]:
                    raise InputError(f"meet of {x}, {y} not preserved")
                if image[sjoin[x][y]] != tjoin[image[y]]:
                    raise InputError(f"join of {x}, {y} not preserved")
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

    def __repr__(self):
        return f"LatticeMap({self.image})"


class SublatticeEmbedding:
    """A nonempty subset of a lattice closed under binary meet and join."""

    __slots__ = ("ambient", "member_list", "_mask")

    def __init__(self, ambient, members):
        member_list = tuple(sorted(set(_elements(ambient, members, "member"))))
        if not member_list:
            raise InputError("a sublattice needs at least one member")
        mask = sum(1 << x for x in member_list)
        for x in member_list:
            for y in member_list:
                if not mask >> ambient.meet(x, y) & 1:
                    raise InputError(f"not meet closed at ({x}, {y})")
                if not mask >> ambient.join(x, y) & 1:
                    raise InputError(f"not join closed at ({x}, {y})")
        self.ambient = ambient
        self.member_list = member_list
        self._mask = mask

    @classmethod
    def generated(cls, ambient, seed):
        """The least sublattice containing the seed elements."""
        members = set(_elements(ambient, seed, "seed element"))
        if not members:
            raise InputError("cannot generate a sublattice from nothing")
        while True:
            new = set()
            for x in members:
                for y in members:
                    new.add(ambient.meet(x, y))
                    new.add(ambient.join(x, y))
            if new <= members:
                return _built("generated", cls, ambient, members)
            members |= new

    def closure(self, x):
        """The least member above x (the meet of all members above x)."""
        if not 0 <= x < self.ambient.n:
            raise InputError(f"element {x} out of range")
        above = self.ambient.upper_set(x) & self._mask
        if not above:
            raise InputError(f"no member of the sublattice lies above {x}")
        out = self.ambient.meet_all(_bits(above))
        if not self._mask >> out & 1:
            raise VerificationError(f"the meet of the members above {x} is "
                                    "not a member")
        return out

    def as_lattice(self):
        """The members as a lattice of their own.

        Returns ``(lattice, embedding)`` where ``embedding[i]`` is the
        ambient element that member ``i`` stands for.  Meets and joins agree
        with the ambient ones because the subset is closed under both.  u
        covers m iff u is the only member strictly above m that lies below
        u: O(k^2) bitmask operations for k members.
        """
        order = self.member_list
        index = {m: i for i, m in enumerate(order)}
        down, up = self.ambient._down, self.ambient._up
        covers = set()
        for m in order:
            above = up[m] & self._mask & ~(1 << m)
            covers.update((index[m], index[u]) for u in _bits(above)
                          if down[u] & above == 1 << u)
        return _built("as_lattice", FiniteLattice, len(order), covers), order

    def __repr__(self):
        return f"SublatticeEmbedding({self.member_list})"
