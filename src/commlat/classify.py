"""Forcing verdicts for a finite modular lattice.

A lattice forces a type (abelian, nilpotent, solvable) when its pointwise
largest commutator multiplication has that type.  The nilpotent and
solvable verdicts are decided by the cheap lattice-side criterion and
cross-checked against the series of the largest multiplication; the
abelian verdict is read off that multiplication, and an M3 witness, when
there is one, forces it.  A mismatch raises instead of warning.

The non-splitting verdict is included because, for congruence lattices of
algebras in congruence modular varieties, not splitting is exactly the shape
that makes every such algebra supernilpotent; this module only decides the
lattice side.
"""

from collections import namedtuple

from .commutator import largest_commutator, residuation, series
from .errors import VerificationError
from .lattice import SublatticeEmbedding, is_simple
from .projectivity import (
    _require_modular,
    projective_ceiling,
    projectivity_classes,
    splitting_pairs,
    two_element_quotient,
)


def _largest_series(lat):
    return series(lat.fact(largest_commutator))


def forces_solvable_type(lat):
    """True iff the two-element lattice is not a (0,1)-image of the lattice.

    Cross-checked against the largest multiplication being of solvable type.
    """
    _require_modular(lat)
    verdict = lat.fact(two_element_quotient) is None
    if verdict != lat.fact(_largest_series).is_solvable:
        raise VerificationError("two-element-image criterion disagrees with "
                                "the largest multiplication's solvability")
    return verdict


def forces_nilpotent_type(lat):
    """True iff the projective ceiling of every class, and so of every
    cover, is the top element.

    Cross-checked against the largest multiplication being of nilpotent type.
    """
    _require_modular(lat)
    verdict = all(ceiling == lat.top
                  for ceiling in lat.fact(projectivity_classes).ceilings)
    if verdict != lat.fact(_largest_series).is_nilpotent:
        raise VerificationError("cover-ceiling criterion disagrees with the "
                                "largest multiplication's nilpotency")
    return verdict


def _abelian_sufficient_sublattice(lat):
    """A simple complemented modular (0,1)-sublattice with at least three
    elements, as the embedding it generates, or None.

    The simple complemented modular lattices with 3 to 15 elements are
    exactly the M_k (3 <= k <= 13), and each contains M3 as a
    (0,1)-sublattice, so such a sublattice of at most 15 elements exists iff
    three elements are pairwise complements.  Returns the lexicographically first such triple
    with bottom and top, in O(n^3).  Larger ones, such as the subspace
    lattices of projective planes (16 elements and more), are out of scope:
    a plane has no three pairwise complements.  :func:`forces_abelian_type`
    checks that the witness is a genuine M3 on the lattice it builds.
    Callers read it through ``lat.fact`` so that it is searched for
    once per lattice.
    """
    bottom, top = lat.bottom, lat.top
    complements = [{y for y in range(x + 1, lat.n)
                    if lat.meet(x, y) == bottom and lat.join(x, y) == top}
                   for x in range(lat.n)]
    for a in range(lat.n):
        for b in sorted(complements[a]):
            common = complements[a] & complements[b]
            if not common:
                continue
            return SublatticeEmbedding.generated(
                lat, (bottom, top, a, b, min(common)))
    return None


def forces_abelian_type(lat):
    """True iff the largest multiplication sends (top, top) to bottom.

    A negative verdict's certificate is the validated largest table, whose
    [top, top] is above bottom.  A positive one has a second route when an
    M3 witness is found (see :func:`_abelian_sufficient_sublattice`): the
    largest table restricted to it is a valid multiplication on M3, which
    carries only the zero table, and its [top, top] is the least member
    above t(top, top), bottom exactly when t(top, top) is.  So a witness
    whose own lattice, built once, is not M3, or a genuine one beside a
    negative verdict, raises.  A positive verdict without a witness (the
    Fano plane) has no second route.
    """
    _require_modular(lat)
    table = lat.fact(largest_commutator)
    verdict = table.value(lat.top, lat.top) == lat.bottom
    witness = lat.fact(_abelian_sufficient_sublattice)
    if witness is not None:
        own, _ = witness.as_lattice()
        # M3 is the one simple lattice with 5 elements (N5, C5, 1+B2 and
        # B2+1 have a proper congruence)
        if not (own.n == 5 and is_simple(own)):
            raise VerificationError(
                f"witness {list(witness.member_list)} is not M3")
        if not verdict:
            raise VerificationError("the M3 witness does not certify the "
                                    "abelian verdict")
    return verdict


def supernilpotency_shape(lat):
    """True iff the lattice does not split (no splitting pair exists).

    A pair (delta, epsilon) splits the lattice iff every a not below delta
    is above epsilon, so one exists iff some delta < top has
    meet{a : a not <= delta} > bottom: O(n^2).  Cross-checked against the
    splitting pairs the report lists.
    """
    verdict = all(
        lat.meet_all(a for a in lat.elements if not lat.leq(a, delta))
        == lat.bottom for delta in lat.elements if delta != lat.top)
    if verdict != (not lat.fact(splitting_pairs)):
        raise VerificationError("meet-of-the-rest criterion disagrees with "
                                "the splitting pairs")
    return verdict


def _listed(value):
    """``value`` with every tuple in it turned into a list, recursively."""
    return [_listed(v) for v in value] if isinstance(value, tuple) else value


class ForcingReport(namedtuple("ForcingReport", (
        "n covers modular forces_solvable_type solvable_obstruction "
        "forces_nilpotent_type cover_ceilings forces_abelian_type "
        "largest_top_square abelian_sufficient_condition "
        "supernilpotency_shape splitting_pairs"))):
    """All verdicts for one lattice, with witnesses.

    ``solvable_obstruction`` is the image vector of a (0,1)-map onto the
    two-element lattice when one exists (the obstruction to forcing solvable
    type), else None.  ``cover_ceilings`` lists the projective ceiling of
    every cover.  ``abelian_sufficient_condition`` is a witness sublattice
    for the sufficient abelian criterion (an M3 on three pairwise
    complements with bottom and top) when one exists, else None.
    """

    __slots__ = ()

    def to_doc(self):
        return {key: _listed(value) for key, value in self._asdict().items()}

    def summary(self):
        def yn(v):
            return "yes" if v else "no"

        lines = [
            f"lattice on {self.n} elements, {len(self.covers)} covers",
            f"  modular:                {yn(self.modular)}",
            f"  forces abelian type:    {yn(self.forces_abelian_type)}"
            f"  (largest [top,top] = {self.largest_top_square})",
            f"  forces nilpotent type:  {yn(self.forces_nilpotent_type)}",
            f"  forces solvable type:   {yn(self.forces_solvable_type)}",
            f"  supernilpotent shape:   {yn(self.supernilpotency_shape)}"
            f"  (splitting pairs: {len(self.splitting_pairs)})",
        ]
        if self.solvable_obstruction is not None:
            lines.append("  two-element image:      "
                         + "".join(map(str, self.solvable_obstruction)))
        if self.abelian_sufficient_condition is not None:
            lines.append("  abelian witness sublattice: "
                         f"{list(self.abelian_sufficient_condition)}")
        return "\n".join(lines)


def analyze(lat):
    """Full forcing report; raises NotModular for nonmodular input and
    verifies the type-nesting invariant before returning.  At every cover
    the residuation of the largest table is the projective ceiling of the
    cover's class; each is computed once and a mismatch raises."""
    _require_modular(lat)
    quot = lat.fact(two_element_quotient)
    table = lat.fact(largest_commutator)
    covers = lat.cover_pairs()
    ceilings = []
    for lo, hi in covers:
        ceiling = projective_ceiling(lat, (lo, hi))
        if (value := residuation(table, lo, hi)) != ceiling:
            raise VerificationError(
                f"residuation {value} differs from projective ceiling "
                f"{ceiling} at cover {(lo, hi)}")
        ceilings.append((lo, hi, ceiling))
    report = ForcingReport(
        n=lat.n,
        covers=covers,
        modular=True,
        forces_solvable_type=forces_solvable_type(lat),
        solvable_obstruction=quot.image if quot is not None else None,
        forces_nilpotent_type=forces_nilpotent_type(lat),
        cover_ceilings=tuple(ceilings),
        forces_abelian_type=forces_abelian_type(lat),
        largest_top_square=table.value(lat.top, lat.top),
        # found and checked by forces_abelian_type above
        abelian_sufficient_condition=(
            None if (sub := lat.fact(_abelian_sufficient_sublattice)) is None
            else sub.member_list),
        supernilpotency_shape=supernilpotency_shape(lat),
        splitting_pairs=tuple((p.delta, p.epsilon)
                              for p in lat.fact(splitting_pairs)),
    )
    if report.forces_abelian_type and not report.forces_nilpotent_type:
        raise VerificationError("abelian verdict without nilpotent verdict")
    if report.forces_nilpotent_type and not report.forces_solvable_type:
        raise VerificationError("nilpotent verdict without solvable verdict")
    return report
