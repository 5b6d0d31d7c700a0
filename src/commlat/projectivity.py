"""Projectivity of prime intervals and everything built on it.

A prime interval is a cover pair.  Two intervals are perspective when one
transposes up to the other; projectivity is the equivalence generated by
perspectivity.  In a modular lattice a transpose of a prime interval is
prime (the transposition maps are mutually inverse isomorphisms), so the
projectivity classes of prime intervals are exactly the connected components
of the perspectivity graph on cover pairs.  Operations that rely on this
refuse nonmodular input.

Meet irreducibility follows the convention that eta is meet irreducible when
it lies strictly below the meet of everything strictly above it (so the
bottom of a chain qualifies, but the top of the lattice never does); that
meet is the canonical successor and [eta, eta+] is always a prime interval.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import NotModular, VerificationError
from .lattice import (FiniteLattice, LatticeMap, congruence_generated,
                      sole_covers)


@dataclass(frozen=True, order=True)
class PrimeInterval:
    lo: int
    hi: int


@dataclass(frozen=True, order=True)
class MeetIrreducible:
    element: int
    plus: int

    def interval(self):
        return PrimeInterval(self.element, self.plus)


@dataclass(frozen=True, order=True)
class JoinIrreducible:
    element: int
    minus: int

    def interval(self):
        return PrimeInterval(self.minus, self.element)


@dataclass(frozen=True, order=True)
class SplittingPair:
    delta: int
    epsilon: int


def _require_modular(lat):
    if not lat.is_modular():
        raise NotModular("operation requires a modular lattice")


def _require_prime(lat, interval):
    if not lat.is_cover(interval.lo, interval.hi):
        raise ValueError(f"{interval} is not a prime interval of the lattice")


def prime_intervals(lat):
    """All cover pairs as intervals, in sorted order."""
    return tuple(PrimeInterval(x, y) for x, y in lat.cover_pairs())


def meet_irreducibles(lat):
    """Elements with exactly one upper cover, which is their ``plus``: the
    elements strictly below the meet of their strict upper bounds."""
    plus = sole_covers((y, x) for x, y in lat.covers)
    return tuple(MeetIrreducible(x, plus[x]) for x in sorted(plus))


def join_irreducibles(lat):
    """Elements with exactly one lower cover, which is their ``minus``: the
    elements strictly above the join of their strict lower bounds."""
    minus = sole_covers(lat.covers)
    return tuple(JoinIrreducible(x, minus[x]) for x in sorted(minus))


def transposes_up(lat, i, j):
    """Whether i transposes up to j: j.hi = i.hi v j.lo and i.lo = i.hi ^ j.lo."""
    return (lat.join(i.hi, j.lo) == j.hi
            and lat.meet(i.hi, j.lo) == i.lo)


class ProjectivityClasses:
    """Partition of the prime intervals into projectivity classes."""

    __slots__ = ("intervals", "_class_of")

    def __init__(self, intervals, class_of):
        self.intervals = intervals
        self._class_of = class_of

    def class_of(self, interval):
        try:
            return self._class_of[interval]
        except KeyError:
            raise ValueError(f"{interval} is not a prime interval") from None

    def same_class(self, i, j):
        return self.class_of(i) == self.class_of(j)

    def members(self, interval):
        """All prime intervals projective to the given one."""
        cid = self.class_of(interval)
        return tuple(i for i in self.intervals if self._class_of[i] == cid)

    def classes(self):
        groups = {}
        for i in self.intervals:
            groups.setdefault(self._class_of[i], []).append(i)
        return tuple(tuple(groups[c]) for c in sorted(groups))

    @property
    def num_classes(self):
        return len(set(self._class_of.values()))


@lru_cache(maxsize=None)
def projectivity_classes(lat):
    """Connected components of the perspectivity graph on prime intervals.

    Cached per lattice; recomputation is harmless, so concurrent first calls
    are safe.
    """
    _require_modular(lat)
    intervals = prime_intervals(lat)
    parent = list(range(len(intervals)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, i in enumerate(intervals):
        for b in range(a + 1, len(intervals)):
            j = intervals[b]
            if transposes_up(lat, i, j) or transposes_up(lat, j, i):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    relabel = {}
    class_of = {}
    for a, i in enumerate(intervals):
        root = find(a)
        if root not in relabel:
            relabel[root] = len(relabel)
        class_of[i] = relabel[root]
    return ProjectivityClasses(intervals, class_of)


def projects_into(lat, interval, lo, hi):
    """Whether some prime interval projective to ``interval`` lies in [lo, hi]."""
    if not lat.leq(lo, hi):
        raise ValueError(f"[{lo}, {hi}] is not an interval")
    _require_prime(lat, interval)
    classes = projectivity_classes(lat)
    return any(lat.leq(lo, p.lo) and lat.leq(p.hi, hi)
               for p in classes.members(interval))


def projective_ceiling(lat, interval):
    """Join of the meet irreducibles whose canonical prime interval is
    projective to the given one (empty join = bottom)."""
    _require_prime(lat, interval)
    classes = projectivity_classes(lat)
    cid = classes.class_of(interval)
    return lat.join_all(
        m.element for m in meet_irreducibles(lat)
        if classes.class_of(m.interval()) == cid)


def projective_floor(lat, interval):
    """Join of the join irreducibles whose canonical prime interval is
    projective to the given one (empty join = bottom)."""
    _require_prime(lat, interval)
    classes = projectivity_classes(lat)
    cid = classes.class_of(interval)
    return lat.join_all(
        j.element for j in join_irreducibles(lat)
        if classes.class_of(j.interval()) == cid)


def is_lonesome_meet_irreducible(lat, eta):
    """Whether eta is the only meet irreducible whose canonical interval
    lies in its projectivity class."""
    classes = projectivity_classes(lat)
    cid = classes.class_of(eta.interval())
    return sum(classes.class_of(m.interval()) == cid
               for m in meet_irreducibles(lat)) == 1


def is_lonesome_join_irreducible(lat, rho):
    """Dual of :func:`is_lonesome_meet_irreducible`."""
    classes = projectivity_classes(lat)
    cid = classes.class_of(rho.interval())
    return sum(classes.class_of(j.interval()) == cid
               for j in join_irreducibles(lat)) == 1


def is_completely_meet_prime(lat, eta):
    """Whether no family with all members not below eta can meet below eta.

    In a finite lattice it suffices that the meet of every element not below
    eta stays not below eta.
    """
    others = [y for y in lat.elements if not lat.leq(y, eta)]
    if not others:
        return False
    return not lat.leq(lat.meet_all(others), eta)


def splitting_pairs(lat):
    """All pairs (delta, epsilon) with delta < top, epsilon > bottom and
    every element <= delta or >= epsilon, in sorted order."""
    out = []
    for delta in lat.elements:
        if delta == lat.top:
            continue
        for epsilon in lat.elements:
            if epsilon == lat.bottom:
                continue
            if all(lat.leq(a, delta) or lat.leq(epsilon, a)
                   for a in lat.elements):
                out.append(SplittingPair(delta, epsilon))
    return tuple(out)


def splits(lat):
    """Whether the lattice is the union of two proper subintervals."""
    return bool(splitting_pairs(lat))


def separating_congruence(lat, interval):
    """The largest congruence that keeps the endpoints of ``interval`` apart.

    In a modular lattice con(q) collapses exactly the prime intervals
    projective to q, and every congruence is the join of the con(q) it
    contains.  So this is the congruence generated by the prime intervals
    outside the class of ``interval``: one O(n^2) worklist closure.  The
    classes come from transpositions, not from the closure, and each prime
    interval is checked to be collapsed exactly when it lies outside the
    class; a disagreement means a bug, not bad input.
    """
    _require_prime(lat, interval)
    classes = projectivity_classes(lat)
    cid = classes.class_of(interval)
    partition = congruence_generated(
        lat, [(q.lo, q.hi) for q in classes.intervals
              if classes.class_of(q) != cid])
    for q in classes.intervals:
        if partition.related(q.lo, q.hi) == (classes.class_of(q) == cid):
            raise VerificationError(
                f"separating congruence disagrees with projectivity at {q}")
    if partition.related(interval.lo, interval.hi):
        raise VerificationError("separating congruence collapsed its interval")
    return partition


def two_element_lattice():
    return FiniteLattice(2, {(0, 1)})


def two_element_quotient(lat):
    """A (0,1)-map onto the two-element lattice, or None if there is none.

    Built from the first (lowest element index) lonesome meet irreducible
    eta: everything below eta maps to 0, the rest to 1.  Lonesomeness makes
    eta meet prime, which is exactly what the map needs to preserve meets.
    """
    _require_modular(lat)
    for eta in meet_irreducibles(lat):
        if not is_lonesome_meet_irreducible(lat, eta):
            continue
        if not is_completely_meet_prime(lat, eta.element):
            raise VerificationError(
                f"lonesome meet irreducible {eta.element} is not meet prime")
        image = [0 if lat.leq(x, eta.element) else 1 for x in lat.elements]
        return LatticeMap(lat, two_element_lattice(), image)
    return None
