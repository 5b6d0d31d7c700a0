"""Commutator multiplications on a finite lattice.

A commutator multiplication is a binary operation t on the lattice with

  symmetry            t(x, y) = t(y, x)
  boundedness         t(x, y) <= x ^ y
  join distributivity t(x v x', y) = t(x, y) v t(x', y),  t(bottom, y) = bottom

(the nullary case makes the binary law cover arbitrary finite families, and
monotonicity in each argument follows).  A :class:`CommutatorTable` is one:
its constructor checks the laws, so no reader checks it again.  This module
computes the residuation and the derived/lower central series, realizes the
three constructions (sublattice closure, pullback along a (0,1)-map, and the
splitting construction), enumerates all multiplications on very small
lattices, and computes the pointwise largest multiplication.

The largest multiplication is found by descent from the meet table, which
dominates every multiplication, repairing one law.  For indices x < x',
every y and j = x v x', it lowers t(j, y) to t(j, y) ^ (t(x, y) v t(x', y)),
then t(x, y) and t(x', y) to their meets with the new t(j, y), writing each
value to the mirrored entry too.  Every multiplication m has
m(j, y) = m(x, y) v m(x', y) >= m(x, y), so each write keeps the table
pointwise above every m; entries only decrease, so a fixed point is reached.
No other law needs a sweep: symmetry holds in the meet table and mirrored
writes keep it; boundedness and bottom annihilation hold there and entries
never rise; monotonicity is the second half of the repair, as every y >= x
is x v y.  At the fixed point t(j, y) <= t(x, y) v t(x', y) <= t(j, y), so
the table is a multiplication, and being above all of them it is their
pointwise join, the largest one.  The fixed point is re-validated at
runtime, and the test suite checks it against exhaustive enumeration;
``classify.analyze`` checks its residuation at every cover against the
projective ceiling of the cover's class.

The transfers compute each value once: the pullback along h: L -> K lifts
each b in K to the least z with h(z) >= b, O(|L| |K|), and reads every
entry off that lift table; the sublattice restriction closes each distinct
value once; the residuation (x : y) reads row y of the symmetric table,
O(n).  The descent and the constructions build their tables through
``lattice._built``, and the constructor's check, O(n^3) at worst, turns an
invalid one into VerificationError.
"""

from collections import namedtuple

from .errors import InputError, VerificationError
from .lattice import _bits, _built, _translation
from .projectivity import join_irreducibles, splitting_pairs


Violation = namedtuple("Violation", "law witness detail")


class CommutatorTable:
    """A commutator multiplication: an n x n table of lattice elements that
    satisfies the laws, else InputError names the first one it breaks."""

    __slots__ = ("lattice", "entries")

    def __init__(self, lattice, entries):
        entries = _rows(lattice, entries)
        bad = self.violations(lattice, entries)
        if bad:
            raise InputError(f"{bad[0].law} fails: {bad[0].detail}")
        self.lattice = lattice
        self.entries = entries

    def value(self, x, y):
        return self.entries[x][y]

    @classmethod
    def violations(cls, lattice, entries):
        """Every law the candidate table breaks, each with a witness, in a
        fixed order; empty iff it is a multiplication.  A table of the wrong
        shape, or with an entry that is no element, raises InputError."""
        return tuple(_broken_laws(lattice, _rows(lattice, entries)))

    def __repr__(self):
        return f"CommutatorTable({self.entries})"


def _rows(lattice, entries):
    """The entries as a tuple of rows, refused unless n x n elements."""
    n = lattice.n
    try:
        entries = tuple(tuple(row) for row in entries)
    except TypeError:
        entries = ()  # n >= 1, so this is refused as a shape
    if len(entries) != n or any(len(r) != n for r in entries):
        raise InputError("table shape does not match the lattice")
    for v in (v for row in entries for v in row):
        if type(v) is not int or not 0 <= v < n:
            raise InputError(f"table entry {v!r} out of range")
    return entries


def _broken_laws(lat, t):
    # reads the rows of the lattice's tables and its down-sets.  The checks
    # over x' at one (x, y) are two bytes.translate calls: t(x v x', y) is
    # row x of the join table read through column y of t, and t(x, y) v
    # t(x', y) is column y read through row t(x, y) of the join table.  Only
    # an x with a failing (x, y) is scanned entry by entry, so the violations
    # come in the same order either way.
    n = lat.n
    meet, join, down = lat._meet, lat._join, lat._down
    columns = [bytes(column) for column in zip(*t)]
    for x in range(n):
        if bytes(t[x]) == columns[x]:
            continue
        for y in range(x + 1, n):
            if t[x][y] != t[y][x]:
                yield Violation("symmetry", (x, y),
                                f"t({x},{y})={t[x][y]} != t({y},{x})={t[y][x]}")
    for x in range(n):
        for y, (v, m) in enumerate(zip(t[x], meet[x])):
            if not down[m] >> v & 1:
                yield Violation("boundedness", (x, y),
                                f"t({x},{y})={v} above {x}^{y}")
    through = [_translation(column) for column in columns]
    joined = [_translation(row) for row in join]
    for x in range(n):
        tx, tail = t[x], join[x][x:]
        if all(tail.translate(through[y]) == columns[y][x:].translate(joined[v])
               for y, v in enumerate(tx)):
            continue
        for x2 in range(x, n):
            tj, tx2 = t[join[x][x2]], t[x2]
            for y in range(n):
                if tj[y] != join[tx[y]][tx2[y]]:
                    yield Violation(
                        "join-distributivity", (x, x2, y),
                        f"t({x}v{x2},{y})={tj[y]} != "
                        f"t({x},{y})vt({x2},{y})="
                        f"{join[tx[y]][tx2[y]]}")
    for y in range(n):
        if t[lat.bottom][y] != lat.bottom:
            yield Violation("bottom-annihilation", (y,),
                            f"t(bottom,{y})={t[lat.bottom][y]}")


def residuation(table, x, y):
    """The largest z with t(z, y) <= x, i.e. the join of all such z; a
    multiplication is symmetric, so those z are read off row y in O(n)."""
    lat = table.lattice
    if not (0 <= x < lat.n and 0 <= y < lat.n):
        raise InputError(f"residuation at ({x}, {y}) out of range")
    below = lat.lower_set(x)
    return lat.join_all(z for z, v in enumerate(table.entries[y])
                        if below >> v & 1)


class SeriesReport(namedtuple("SeriesReport", "derived lower_central kind")):
    """Derived and lower central series of a table, with the most specific
    of {abelian, nilpotent, solvable, none} that applies."""

    __slots__ = ()

    @property
    def is_solvable(self):
        return self.kind != "none"

    @property
    def is_nilpotent(self):
        return self.kind in ("nilpotent", "abelian")


def _iterate(start, step):
    seq = [start]
    while True:
        nxt = step(seq[-1])
        seq.append(nxt)
        if nxt == seq[-2]:
            return tuple(seq)


def series(table):
    """Series report for a multiplication.

    The verdicts are cross-checked against their fixed-point restatements
    (no nonzero x with t(x,x) = x for solvability, none with t(top,x) = x
    for nilpotency, and, on modular lattices, residuation at every cover
    (lo, hi) equal to top, read as t(top, hi) <= lo); any disagreement
    raises, since it can only be a bug.
    """
    lat = table.lattice
    derived = _iterate(lat.top, lambda g: table.value(g, g))
    central = _iterate(lat.top, lambda m: table.value(lat.top, m))
    solvable = derived[-1] == lat.bottom
    nilpotent = central[-1] == lat.bottom
    abelian = derived[1] == lat.bottom
    if abelian:
        kind = "abelian"
    elif nilpotent:
        kind = "nilpotent"
    elif solvable:
        kind = "solvable"
    else:
        kind = "none"

    fixed_square = any(x != lat.bottom and table.value(x, x) == x
                       for x in lat.elements)
    if solvable == fixed_square:
        raise VerificationError("solvable verdict disagrees with the "
                                "existence of a nonzero t-idempotent")
    fixed_top = any(x != lat.bottom and table.value(lat.top, x) == x
                    for x in lat.elements)
    if nilpotent == fixed_top:
        raise VerificationError("nilpotent verdict disagrees with the "
                                "existence of a nonzero top-fixed element")
    if lat.is_modular():
        # the z with t(z, hi) <= lo are closed under joins, by join
        # distributivity, so their join (lo : hi) is one of them and is top
        # exactly when t(top, hi) <= lo: one bit test per cover
        all_top = all(lat.leq(table.value(lat.top, hi), lo)
                      for lo, hi in lat.cover_pairs())
        if nilpotent != all_top:
            raise VerificationError("nilpotent verdict disagrees with "
                                    "cover residuations")
    return SeriesReport(derived, central, kind)


# -- constructions ----------------------------------------------------------


def construct_sublattice(ambient_table, sub):
    """Restrict a multiplication to a sublattice by closing each value
    upward into the sublattice, once per distinct value.  The result is
    always valid and lies pointwise above the plain restriction."""
    if sub.ambient != ambient_table.lattice:
        raise InputError("sublattice does not live in the table's lattice")
    sub_lat, embed = sub.as_lattice()
    index = {m: i for i, m in enumerate(embed)}
    rows = [[ambient_table.value(x, y) for y in embed] for x in embed]
    closed = {}
    for raw in dict.fromkeys(v for row in rows for v in row):
        member = sub.closure(raw)
        if not sub.ambient.leq(raw, member):
            raise VerificationError("closure went down")
        closed[raw] = index[member]
    return _built("construct_sublattice", CommutatorTable, sub_lat,
                  [[closed[v] for v in row] for row in rows])


def construct_pullback(source, hom, target_table):
    """Pull a multiplication back along a (0,1)-map h: t(x, y) =
    lift[t_K(h(x), h(y))], lift[b] being the meet of all z with h(z) >= b
    (never empty, as h(top) = top), computed once per target element b."""
    if hom.source != source or hom.target != target_table.lattice:
        raise InputError("map endpoints do not match the inputs")
    if not hom.is_zero_one:
        raise InputError("pullback needs a map sending bottom to "
                         "bottom and top to top")
    tgt = target_table.lattice
    lift = [source.meet_all(z for z in source.elements if tgt.leq(b, hom(z)))
            for b in tgt.elements]
    out = _built("construct_pullback", CommutatorTable, source,
                 [[lift[target_table.value(hom(x), hom(y))]
                   for y in source.elements] for x in source.elements])
    for x in source.elements:
        for y in source.elements:
            if not tgt.leq(target_table.value(hom(x), hom(y)),
                           hom(out.value(x, y))):
                raise VerificationError("pullback lost its lower bound")
    return out


def construct_splitting(lat, pair, theta):
    """The splitting construction: with (delta, epsilon) a splitting pair
    and theta a congruence relating (epsilon, top),

      t(x, y) = bottom                     if x <= delta and y <= delta,
                s(x ^ y)                   otherwise,

    where s(x) is the least member of x's theta class."""
    delta, epsilon = pair.delta, pair.epsilon
    if pair not in lat.fact(splitting_pairs):
        raise InputError(f"({delta}, {epsilon}) does not split the lattice")
    if theta.lattice != lat:
        raise InputError("congruence belongs to a different lattice")
    if not theta.related(epsilon, lat.top):
        raise InputError(f"congruence does not relate ({epsilon}, top)")
    least = [lat.meet_all(block) for block in theta.blocks]
    s = [least[theta.class_of[x]] for x in lat.elements]
    entries = [[lat.bottom if lat.leq(x, delta) and lat.leq(y, delta)
                else s[lat.meet(x, y)]
                for y in lat.elements] for x in lat.elements]
    return _built("construct_splitting", CommutatorTable, lat, entries)


# -- the largest multiplication ---------------------------------------------


def largest_commutator(lat):
    """The pointwise join of all commutator multiplications on the lattice,
    computed by the one-law descent documented in the module docstring."""
    n = lat.n
    meet, join = lat._meet, lat._join
    t = [list(row) for row in meet]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for x2 in range(x + 1, n):
                j = join[x][x2]
                tx, tx2, tj = t[x], t[x2], t[j]
                for y in range(n):
                    a, b, c = tx[y], tx2[y], tj[y]
                    v = meet[c][join[a][b]]
                    if v != c:
                        tj[y] = t[y][j] = v
                        changed = True
                    if meet[a][v] != a:
                        tx[y] = t[y][x] = meet[a][v]
                        changed = True
                    if meet[b][v] != b:
                        tx2[y] = t[y][x2] = meet[b][v]
                        changed = True
    return _built("largest_commutator", CommutatorTable, lat, t)


ENUMERATION_MAX_N = 5


def enumerate_commutators(lat):
    """All commutator multiplications on a lattice with at most 5 elements.

    A multiplication is determined by its values on pairs of join
    irreducibles (every element is the join of the join irreducibles below
    it, so distributivity extends the seed uniquely).  In order of down-set
    size, a linear extension, every seed pair below p comes before p, so
    monotonicity asks only that p's value lie above the join of theirs.
    Extension and restriction are inverse between the valid tables and the
    monotone symmetric seeds whose extension validates, so keeping those
    extensions misses no table and finds none twice.  Sorted by entries.
    """
    if lat.n > ENUMERATION_MAX_N:
        raise InputError(
            f"exhaustive enumeration is capped at n = {ENUMERATION_MAX_N}")
    irr = sorted((j.element for j in join_irreducibles(lat)),
                 key=lambda e: lat.lower_set(e).bit_count())
    pairs = [(irr[a], irr[b]) for a in range(len(irr))
             for b in range(a, len(irr))]
    below = [[e for e in irr if lat.leq(e, x)] for x in lat.elements]
    found, seeds = [], {}

    def spread(x, y):
        # the join of the seed values below (x, y), each stored under both
        # orientations of its pair
        return lat.join_all(seeds[a, b] for a in below[x] for b in below[y])

    def search(k):
        if k == len(pairs):
            entries = [[spread(x, y) for y in lat.elements]
                       for x in lat.elements]
            if not _built("enumerate_commutators", CommutatorTable.violations,
                          lat, entries):
                found.append(CommutatorTable(lat, entries))
            return
        a, b = pairs[k]
        # every other seed pair below (a, b) is assigned already, so with
        # (a, b) at bottom spread reads the join of their values
        seeds[a, b] = seeds[b, a] = lat.bottom
        floor = spread(a, b)
        for v in _bits(lat.lower_set(lat.meet(a, b)) & lat.upper_set(floor)):
            seeds[a, b] = seeds[b, a] = v
            search(k + 1)

    search(0)
    found.sort(key=lambda table: table.entries)
    return found
