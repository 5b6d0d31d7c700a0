"""Commutator multiplications on a finite lattice.

A commutator multiplication is a binary operation t on the lattice with

  symmetry            t(x, y) = t(y, x)
  boundedness         t(x, y) <= x ^ y
  join distributivity t(x v x', y) = t(x, y) v t(x', y),  t(bottom, y) = bottom

(the nullary case makes the binary law cover arbitrary finite families, and
monotonicity in each argument follows).  This module validates tables,
computes the residuation and the derived/lower central series, realizes the
three constructions (sublattice closure, pullback along a (0,1)-map, and the
splitting construction), enumerates all multiplications on very small
lattices, and computes the pointwise largest multiplication.

The largest multiplication is found by descent: start from the meet table,
which dominates every multiplication, and repeatedly repair violations by
replacing an entry with its meet against the bound the violated law imposes.
Every repair preserves "pointwise above every commutator multiplication"
(each bound is itself above the corresponding true value), entries only ever
decrease, so the descent reaches a fixed point; a fixed point satisfies all
the laws (the one-sided repairs plus symmetry/monotonicity give both
directions), so it *is* a commutator multiplication, and being above all of
them it is the pointwise join of all of them.  The fixed point is
re-validated at runtime, and the test suite checks it against exhaustive
enumeration and against the residuation characterization at covers.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CongruenceMissingSeed,
    InvalidTable,
    LatticeTooLarge,
    NotAHomomorphism,
    NotASplittingPair,
    VerificationError,
)
from .lattice import _bits
from .projectivity import (
    join_irreducibles,
    projective_ceiling,
    _require_modular,
    _require_prime,
)


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple
    detail: str


class CommutatorTable:
    """An n x n table of lattice elements, a candidate multiplication."""

    __slots__ = ("lattice", "entries", "_violations")

    def __init__(self, lattice, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != lattice.n or any(len(r) != lattice.n for r in entries):
            raise ValueError("table shape does not match the lattice")
        if any(not 0 <= v < lattice.n for row in entries for v in row):
            raise ValueError("table entry out of range")
        self.lattice = lattice
        self.entries = entries
        self._violations = None

    def value(self, x, y):
        return self.entries[x][y]

    def violations(self):
        """All axiom violations, each with a witness; empty iff valid."""
        if self._violations is None:
            self._violations = tuple(self._check())
        return self._violations

    def _check(self):
        lat, t = self.lattice, self.entries
        n = lat.n
        for x in range(n):
            for y in range(x + 1, n):
                if t[x][y] != t[y][x]:
                    yield Violation("symmetry", (x, y),
                                    f"t({x},{y})={t[x][y]} != t({y},{x})={t[y][x]}")
        for x in range(n):
            for y in range(n):
                if not lat.leq(t[x][y], lat.meet(x, y)):
                    yield Violation("boundedness", (x, y),
                                    f"t({x},{y})={t[x][y]} above {x}^{y}")
        for x in range(n):
            for x2 in range(x, n):
                j = lat.join(x, x2)
                for y in range(n):
                    if t[j][y] != lat.join(t[x][y], t[x2][y]):
                        yield Violation(
                            "join-distributivity", (x, x2, y),
                            f"t({x}v{x2},{y})={t[j][y]} != "
                            f"t({x},{y})vt({x2},{y})="
                            f"{lat.join(t[x][y], t[x2][y])}")
        for y in range(n):
            if t[lat.bottom][y] != lat.bottom:
                yield Violation("bottom-annihilation", (y,),
                                f"t(bottom,{y})={t[lat.bottom][y]}")

    @property
    def is_valid(self):
        return not self.violations()

    def require_valid(self):
        bad = self.violations()
        if bad:
            raise InvalidTable(f"{bad[0].law} fails: {bad[0].detail}")

    def __eq__(self, other):
        return (isinstance(other, CommutatorTable)
                and self.lattice == other.lattice and self.entries == other.entries)

    def __hash__(self):
        return hash((self.lattice, self.entries))

    def __repr__(self):
        return f"CommutatorTable({self.entries})"


def zero_table(lat):
    b = lat.bottom
    return CommutatorTable(lat, [[b] * lat.n for _ in range(lat.n)])


def meet_table(lat):
    return CommutatorTable(lat, [[lat.meet(x, y) for y in lat.elements]
                                 for x in lat.elements])


def residuation(table, x, y):
    """The largest z with t(z, y) <= x, i.e. the join of all such z."""
    table.require_valid()
    lat = table.lattice
    return lat.join_all(z for z in lat.elements
                        if lat.leq(table.value(z, y), x))


_KIND_RANK = {"none": 0, "solvable": 1, "nilpotent": 2, "abelian": 3}


@dataclass(frozen=True)
class SeriesReport:
    """Derived and lower central series of a table, with the most specific
    of {abelian, nilpotent, solvable, none} that applies."""

    derived: tuple
    lower_central: tuple
    kind: str

    @property
    def is_solvable(self):
        return _KIND_RANK[self.kind] >= 1

    @property
    def is_nilpotent(self):
        return _KIND_RANK[self.kind] >= 2

    @property
    def is_abelian(self):
        return _KIND_RANK[self.kind] >= 3


def _iterate(start, step):
    seq = [start]
    while True:
        nxt = step(seq[-1])
        seq.append(nxt)
        if nxt == seq[-2]:
            return tuple(seq)


def series(table):
    """Series report for a valid table.

    The verdicts are cross-checked against their fixed-point restatements
    (no nonzero x with t(x,x) = x for solvability, none with t(top,x) = x
    for nilpotency, and, on modular lattices, residuation at every cover
    equal to top); any disagreement raises, since it can only be a bug.
    """
    table.require_valid()
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
        all_top = all(residuation(table, lo, hi) == lat.top
                      for lo, hi in lat.cover_pairs())
        if nilpotent != all_top:
            raise VerificationError("nilpotent verdict disagrees with "
                                    "cover residuations")
    return SeriesReport(derived, central, kind)


# -- constructions ----------------------------------------------------------


def construct_sublattice(ambient_table, sub):
    """Restrict a multiplication to a sublattice by closing each value
    upward into the sublattice.  The result is always valid and lies
    pointwise above the plain restriction."""
    ambient_table.require_valid()
    if sub.ambient != ambient_table.lattice:
        raise ValueError("sublattice does not live in the table's lattice")
    sub_lat, embed = sub.as_lattice()
    index = {m: i for i, m in enumerate(embed)}
    entries = [[0] * sub_lat.n for _ in range(sub_lat.n)]
    for i, x in enumerate(embed):
        for j, y in enumerate(embed):
            raw = ambient_table.value(x, y)
            closed = sub.closure(raw)
            if not sub.ambient.leq(raw, closed):
                raise VerificationError("closure went down")
            entries[i][j] = index[closed]
    out = CommutatorTable(sub_lat, entries)
    if not out.is_valid:
        raise VerificationError("sublattice construction produced an "
                                f"invalid table: {out.violations()[0]}")
    return out


def construct_pullback(source, hom, target_table):
    """Pull a multiplication back along a (0,1)-map h:
    t(x, y) = meet of all z with h(z) >= t_K(h(x), h(y))."""
    target_table.require_valid()
    if hom.source != source or hom.target != target_table.lattice:
        raise ValueError("map endpoints do not match the inputs")
    if not hom.is_zero_one:
        raise NotAHomomorphism("pullback needs a map sending bottom to "
                               "bottom and top to top")
    tgt = target_table.lattice
    entries = [[0] * source.n for _ in range(source.n)]
    for x in source.elements:
        for y in source.elements:
            bound = target_table.value(hom(x), hom(y))
            entries[x][y] = source.meet_all(
                z for z in source.elements if tgt.leq(bound, hom(z)))
    out = CommutatorTable(source, entries)
    if not out.is_valid:
        raise VerificationError("pullback produced an invalid table: "
                                f"{out.violations()[0]}")
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
    if (delta == lat.top or epsilon == lat.bottom
            or not all(lat.leq(a, delta) or lat.leq(epsilon, a)
                       for a in lat.elements)):
        raise NotASplittingPair(f"({delta}, {epsilon}) does not split the lattice")
    if theta.lattice != lat:
        raise ValueError("congruence belongs to a different lattice")
    if not theta.related(epsilon, lat.top):
        raise CongruenceMissingSeed(
            f"congruence does not relate ({epsilon}, top)")
    least = [lat.meet_all(block) for block in theta.blocks]
    s = [least[theta.class_of[x]] for x in lat.elements]
    entries = [[lat.bottom if lat.leq(x, delta) and lat.leq(y, delta)
                else s[lat.meet(x, y)]
                for y in lat.elements] for x in lat.elements]
    out = CommutatorTable(lat, entries)
    if not out.is_valid:
        raise VerificationError("splitting construction produced an "
                                f"invalid table: {out.violations()[0]}")
    return out


# -- the largest multiplication ---------------------------------------------


@lru_cache(maxsize=None)
def largest_commutator(lat):
    """The pointwise join of all commutator multiplications on the lattice,
    computed by the descent documented in the module docstring."""
    n = lat.n
    t = [[lat.meet(x, y) for y in range(n)] for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                v = lat.meet(t[x][y], t[y][x])
                if v != t[x][y]:
                    t[x][y] = v
                    changed = True
        for x in range(n):
            for above in _bits(lat.upper_set(x)):
                for y in range(n):
                    v = lat.meet(t[x][y], t[above][y])
                    if v != t[x][y]:
                        t[x][y] = v
                        changed = True
        for x in range(n):
            for x2 in range(x, n):
                j = lat.join(x, x2)
                for y in range(n):
                    v = lat.meet(t[j][y], lat.join(t[x][y], t[x2][y]))
                    if v != t[j][y]:
                        t[j][y] = v
                        changed = True
        for y in range(n):
            if t[lat.bottom][y] != lat.bottom:
                t[lat.bottom][y] = lat.bottom
                changed = True
    out = CommutatorTable(lat, t)
    if not out.is_valid:
        raise VerificationError("descent fixed point failed validation: "
                                f"{out.violations()[0]}")
    return out


ENUMERATION_MAX_N = 5


def enumerate_commutators(lat, cap=None):
    """All commutator multiplications on a lattice with at most 5 elements.

    A multiplication is determined by its values on pairs of join
    irreducibles (every element is the join of the join irreducibles below
    it, so distributivity extends the seed uniquely); the search assigns
    those seed values, prunes assignments that already break symmetry or
    monotonicity, extends, and keeps exactly the extensions that validate.
    Any valid table restricts to a monotone symmetric seed and is the
    extension of that seed, so nothing is missed.  Deterministic order; a
    cap, if given, truncates the sorted result and must not be negative.
    """
    if cap is not None and cap < 0:
        raise ValueError(f"cap must not be negative, got {cap}")
    if lat.n > ENUMERATION_MAX_N:
        raise LatticeTooLarge(
            f"exhaustive enumeration is capped at n = {ENUMERATION_MAX_N}")
    irr = [j.element for j in join_irreducibles(lat)]
    pairs = [(irr[a], irr[b]) for a in range(len(irr))
             for b in range(a, len(irr))]
    below = [[e for e in irr if lat.leq(e, x)] for x in lat.elements]

    def pair_leq(p, q):
        return ((lat.leq(p[0], q[0]) and lat.leq(p[1], q[1]))
                or (lat.leq(p[0], q[1]) and lat.leq(p[1], q[0])))

    found = {}
    assignment = {}

    def extend():
        entries = []
        for x in lat.elements:
            row = []
            for y in lat.elements:
                value = lat.bottom
                for a in below[x]:
                    for b in below[y]:
                        key = (a, b) if (a, b) in assignment else (b, a)
                        value = lat.join(value, assignment[key])
                row.append(value)
            entries.append(row)
        table = CommutatorTable(lat, entries)
        if table.is_valid:
            found.setdefault(table.entries, table)

    def search(k):
        if k == len(pairs):
            extend()
            return
        p = pairs[k]
        for v in _bits(lat.lower_set(lat.meet(*p))):
            ok = True
            for q, w in assignment.items():
                if pair_leq(q, p) and not lat.leq(w, v):
                    ok = False
                    break
                if pair_leq(p, q) and not lat.leq(v, w):
                    ok = False
                    break
            if ok:
                assignment[p] = v
                search(k + 1)
                del assignment[p]

    search(0)
    tables = [found[key] for key in sorted(found)]
    if cap is not None:
        tables = tables[:cap]
    return tables


def largest_residuation_at_cover(lat, interval):
    """Residuation of the largest multiplication at a cover; always equal to
    the projective ceiling of the cover, and checked to be."""
    _require_modular(lat)
    _require_prime(lat, interval)
    value = residuation(largest_commutator(lat), interval.lo, interval.hi)
    ceiling = projective_ceiling(lat, interval)
    if value != ceiling:
        raise VerificationError(
            f"residuation {value} differs from projective ceiling {ceiling} "
            f"at cover ({interval.lo}, {interval.hi})")
    return value
