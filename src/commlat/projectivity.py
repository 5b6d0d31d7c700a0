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

from collections import namedtuple

from .errors import InputError, VerificationError
from .lattice import FiniteLattice, LatticeMap, _built, _fibres, _single_bits


# The value records here, in ``commutator`` and in ``classify`` are named
# tuples: they need only ``collections``, which ``argparse`` imports anyway,
# so they add little to the start-up that every CLI child pays.
PrimeInterval = namedtuple("PrimeInterval", "lo hi")


MeetIrreducible = namedtuple("MeetIrreducible", "element plus")
JoinIrreducible = namedtuple("JoinIrreducible", "element minus")
SplittingPair = namedtuple("SplittingPair", "delta epsilon")


def _require_modular(lat):
    if not lat.is_modular():
        raise InputError("operation requires a modular lattice")


def meet_irreducibles(lat):
    """Elements with exactly one upper cover, which is their ``plus``: the
    elements strictly below the meet of their strict upper bounds."""
    return tuple(MeetIrreducible(x, plus)
                 for x, plus in _single_bits(lat._upper))


def join_irreducibles(lat):
    """Elements with exactly one lower cover, which is their ``minus``: the
    elements strictly above the join of their strict lower bounds."""
    return tuple(JoinIrreducible(x, minus)
                 for x, minus in _single_bits(lat._lower))


class ProjectivityClasses:
    """Projectivity classes of the prime intervals, with what each class
    determines: its ceiling, the number of meet irreducibles whose
    canonical interval lies in it, and its separating congruence, filled in
    by :func:`separating_congruence` when first asked for.  The class ids
    are one ``bytes`` table at ``lo * n + hi``, 0xFF where (lo, hi) is no
    cover (at most |J| <= 63 classes), and the per-class values are
    ``bytes`` too.  ``class_of``, the one check that a pair is a prime
    interval, takes any pair of ints, else InputError."""

    __slots__ = ("n", "_table", "ceilings", "meet_counts", "_separating")

    def __init__(self, n, table, ceilings, meet_counts):
        self.n, self._table = n, table
        self.ceilings, self.meet_counts = ceilings, meet_counts
        self._separating = [None] * len(ceilings)

    def class_of(self, interval):
        try:
            lo, hi = interval
            if (0 <= lo < self.n and 0 <= hi < self.n
                    and (cid := self._table[lo * self.n + hi]) != 0xFF):
                return cid
        except (TypeError, ValueError):
            pass
        raise InputError(f"{interval} is not a prime interval")


def projectivity_classes(lat):
    """Connected components of the perspectivity graph on prime intervals,
    with the projective ceiling and the meet irreducible count of each from
    one pass over the meet irreducibles.  The package reads it through
    ``lat.fact``, once per lattice.

    The up-transposes of a cover (a, b) are the intervals (c, b v c) with
    b ^ c = a, read off the rows of b in the meet and join tables, so each
    cover is joined with all of them in O(n): O(n |covers|) in all.  On
    modular input each of them is a cover; one that is not is a bug.
    """
    _require_modular(lat)
    n, pairs = lat.n, lat.cover_pairs()
    index = {p: a for a, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, (lo, hi) in enumerate(pairs):
        meet_hi, join_hi = lat._meet[hi], lat._join[hi]
        for c, m in enumerate(meet_hi):
            if m != lo:
                continue
            b = index.get((c, join_hi[c]))
            if b is None:
                raise VerificationError(
                    f"({lo}, {hi}) transposes up to ({c}, {join_hi[c]}), "
                    f"which is no cover of a modular lattice")
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

    relabel = {}
    table = bytearray(b"\xff" * (n * n))
    for a, (lo, hi) in enumerate(pairs):
        table[lo * n + hi] = relabel.setdefault(find(a), len(relabel))
    k = len(relabel)
    ceilings, meet_counts = [lat.bottom] * k, [0] * k
    for m, plus in _single_bits(lat._upper):
        cid = table[m * n + plus]
        ceilings[cid] = lat.join(ceilings[cid], m)
        meet_counts[cid] += 1
    return ProjectivityClasses(n, bytes(table), bytes(ceilings),
                               bytes(meet_counts))


def projective_ceiling(lat, interval):
    """Join of the meet irreducibles whose canonical prime interval is
    projective to the given one (empty join = bottom)."""
    classes = lat.fact(projectivity_classes)
    return classes.ceilings[classes.class_of(interval)]


def splitting_pairs(lat):
    """All pairs (delta, epsilon) with delta < top, epsilon > bottom and
    every element <= delta or >= epsilon, in sorted order: one bitmask OR
    of the down-set of delta and the up-set of epsilon per pair, O(n^2)."""
    everything = (1 << lat.n) - 1
    return tuple(SplittingPair(delta, epsilon)
                 for delta in lat.elements if delta != lat.top
                 for epsilon in lat.elements if epsilon != lat.bottom
                 and lat.lower_set(delta) | lat.upper_set(epsilon) == everything)


def separating_congruence(lat, interval):
    """The largest congruence that keeps the endpoints of ``interval`` apart.

    In a modular lattice con(q) collapses exactly the prime intervals
    projective to q, so this joins the con(j-, j) with (j-, j) outside the
    class of ``interval``, read off the class table: one :func:`_fibres`
    partition per class, built when first asked for and kept on the
    record.  The classes come from transpositions, not from the dependency
    masks, and each partition is checked cover by cover against them: a
    cover is collapsed exactly when it lies outside the class.  A
    disagreement means a bug.
    """
    classes = lat.fact(projectivity_classes)
    cid = classes.class_of(interval)
    if classes._separating[cid] is None:
        partition = _fibres(lat, sum(
            1 << j for j, minus in _single_bits(lat._lower)
            if classes.class_of((minus, j)) != cid))
        for q in lat.cover_pairs():
            if partition.related(*q) == (classes.class_of(q) == cid):
                raise VerificationError(
                    f"separating congruence disagrees with projectivity at {q}")
        classes._separating[cid] = partition
    return classes._separating[cid]


def two_element_quotient(lat):
    """A (0,1)-map onto the two-element lattice, or None if there is none.

    Built from the first (lowest element index) lonesome meet irreducible
    eta, one whose class counts one meet irreducible (a lookup in the
    record of :func:`projectivity_classes`, which refuses nonmodular
    input, so the search is O(|M|)): everything below eta maps to 0, the
    rest to 1.  That map preserves joins, and meets iff eta is meet prime,
    which lonesomeness makes it, so the validation of the built map is the
    one check that eta is meet prime; a failure means a bug.
    """
    classes = lat.fact(projectivity_classes)
    for eta in meet_irreducibles(lat):
        if classes.meet_counts[classes.class_of((eta.element, eta.plus))] != 1:
            continue
        image = [0 if lat.leq(x, eta.element) else 1 for x in lat.elements]
        return _built("two_element_quotient", LatticeMap, lat,
                      FiniteLattice(2, {(0, 1)}), image)
    return None
