"""Forcing verdicts for a finite modular lattice.

A lattice forces a type (abelian, nilpotent, solvable) when its pointwise
largest commutator multiplication has that type.  Each verdict here is
decided by the cheap lattice-side criterion and cross-checked against the
series of the largest multiplication; the two always agree, so a mismatch
raises instead of warning.

The non-splitting verdict is included because, for congruence lattices of
algebras in congruence modular varieties, not splitting is exactly the shape
that makes every such algebra supernilpotent; this module only decides the
lattice side.
"""

from dataclasses import dataclass

from .commutator import largest_commutator, series
from .errors import VerificationError
from .lattice import SublatticeEmbedding, is_complemented, is_simple
from .projectivity import (
    _require_modular,
    prime_intervals,
    projective_ceiling,
    splitting_pairs,
    two_element_quotient,
)


def forces_solvable_type(lat):
    """True iff the two-element lattice is not a (0,1)-image of the lattice.

    Cross-checked against the largest multiplication being of solvable type.
    """
    _require_modular(lat)
    verdict = two_element_quotient(lat) is None
    if verdict != series(largest_commutator(lat)).is_solvable:
        raise VerificationError("two-element-image criterion disagrees with "
                                "the largest multiplication's solvability")
    return verdict


def forces_nilpotent_type(lat):
    """True iff the projective ceiling of every cover is the top element.

    Cross-checked against the largest multiplication being of nilpotent type.
    """
    _require_modular(lat)
    verdict = all(projective_ceiling(lat, i) == lat.top
                  for i in prime_intervals(lat))
    if verdict != series(largest_commutator(lat)).is_nilpotent:
        raise VerificationError("cover-ceiling criterion disagrees with the "
                                "largest multiplication's nilpotency")
    return verdict


def _abelian_sufficient_sublattice(lat):
    """A simple complemented modular (0,1)-sublattice with at least three
    elements, as the sorted tuple of its members, or None.

    The simple complemented modular lattices with 3 to 15 elements are
    exactly the M_k (3 <= k <= 13), and each contains M3 as a
    (0,1)-sublattice, so such a sublattice of at most 15 elements exists iff
    three elements are pairwise complements.  Returns the lexicographically first such triple
    with bottom and top, in O(n^3).  Larger ones, such as the subspace
    lattices of projective planes (16 elements and more), are out of scope:
    a plane has no three pairwise complements.  The witness is checked to be
    a genuine M3 before it is returned.
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
            seed = (bottom, top, a, b, min(common))
            own, embed = SublatticeEmbedding.generated(lat, seed).as_lattice()
            if not (len(embed) == 5 and own.is_modular() and is_simple(own)
                    and is_complemented(own)):
                raise VerificationError(
                    f"pairwise complements {seed[2:]} do not generate M3")
            return embed
    return None


def forces_abelian_type(lat):
    """True iff the largest multiplication sends (top, top) to bottom.

    Additionally looks for a simple complemented modular (0,1)-sublattice
    with at least three elements (see :func:`_abelian_sufficient_sublattice`);
    finding one is a sufficient condition, so a found witness with a
    negative verdict raises.
    """
    _require_modular(lat)
    table = largest_commutator(lat)
    verdict = table.value(lat.top, lat.top) == lat.bottom
    if verdict != series(table).is_abelian:
        raise VerificationError("top-square criterion disagrees with the "
                                "largest multiplication's series")
    witness = _abelian_sufficient_sublattice(lat)
    if witness is not None and not verdict:
        raise VerificationError("sufficient sublattice found although the "
                                "largest multiplication is not abelian")
    return verdict


def supernilpotency_shape(lat):
    """True iff the lattice does not split (no splitting pair exists)."""
    return not splitting_pairs(lat)


@dataclass(frozen=True)
class ForcingReport:
    """All verdicts for one lattice, with witnesses.

    ``solvable_obstruction`` is the image vector of a (0,1)-map onto the
    two-element lattice when one exists (the obstruction to forcing solvable
    type), else None.  ``cover_ceilings`` lists the projective ceiling of
    every cover.  ``abelian_sufficient_condition`` is a witness sublattice
    for the sufficient abelian criterion (an M3 on three pairwise
    complements with bottom and top) when one exists, else None.
    """

    n: int
    covers: tuple
    modular: bool
    forces_solvable_type: bool
    solvable_obstruction: tuple | None
    forces_nilpotent_type: bool
    cover_ceilings: tuple
    forces_abelian_type: bool
    largest_top_square: int
    abelian_sufficient_condition: tuple | None
    supernilpotency_shape: bool
    splitting_pairs: tuple

    def to_doc(self):
        return {
            "n": self.n,
            "covers": [list(c) for c in self.covers],
            "modular": self.modular,
            "forces_solvable_type": self.forces_solvable_type,
            "solvable_obstruction":
                list(self.solvable_obstruction)
                if self.solvable_obstruction is not None else None,
            "forces_nilpotent_type": self.forces_nilpotent_type,
            "cover_ceilings": [[lo, hi, g] for (lo, hi, g) in self.cover_ceilings],
            "forces_abelian_type": self.forces_abelian_type,
            "largest_top_square": self.largest_top_square,
            "abelian_sufficient_condition":
                list(self.abelian_sufficient_condition)
                if self.abelian_sufficient_condition is not None else None,
            "supernilpotency_shape": self.supernilpotency_shape,
            "splitting_pairs": [[p, q] for (p, q) in self.splitting_pairs],
        }

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
    verifies the type-nesting invariant before returning."""
    _require_modular(lat)
    quot = two_element_quotient(lat)
    ceilings = tuple((i.lo, i.hi, projective_ceiling(lat, i))
                     for i in prime_intervals(lat))
    table = largest_commutator(lat)
    report = ForcingReport(
        n=lat.n,
        covers=lat.cover_pairs(),
        modular=True,
        forces_solvable_type=forces_solvable_type(lat),
        solvable_obstruction=quot.image if quot is not None else None,
        forces_nilpotent_type=forces_nilpotent_type(lat),
        cover_ceilings=ceilings,
        forces_abelian_type=forces_abelian_type(lat),
        largest_top_square=table.value(lat.top, lat.top),
        abelian_sufficient_condition=_abelian_sufficient_sublattice(lat),
        supernilpotency_shape=supernilpotency_shape(lat),
        splitting_pairs=tuple((p.delta, p.epsilon)
                              for p in splitting_pairs(lat)),
    )
    if report.forces_abelian_type and not report.forces_nilpotent_type:
        raise VerificationError("abelian verdict without nilpotent verdict")
    if report.forces_nilpotent_type and not report.forces_solvable_type:
        raise VerificationError("nilpotent verdict without solvable verdict")
    return report
