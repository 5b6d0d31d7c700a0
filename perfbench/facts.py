"""What the oracles say about one input lattice, and the checks built on it.

A :class:`Facts` object belongs to one lattice in its base labeling.  Its
largest table, computed once by the program, is validated by the
independent axiom checker.  The program then sees relabeled copies; each
report is mapped back to base labels with the inverse permutation and
checked here.
"""

import lattices
import oracles
from oracles import CheckFailed, Order, require

# Family claims checked on top of the general oracles.
DISTRIBUTIVE = "distributive"   # largest = meet table, nothing forced
ZERO = "zero"                   # largest = zero table, all forced, no split
SPLITS = "splits"               # nothing forced, some splitting pair


class Facts:
    def __init__(self, name, lattice, claim=None):
        self.name = name
        self.n, covers = lattice
        self.covers = sorted(covers)
        self.order = Order(self.n, covers)
        self.claim = claim
        self.modular = self.order.is_modular()
        self.distributive = self.order.is_distributive()
        self.solvable = not self.order.meet_primes()
        self.splitting = self.order.splitting_pairs()
        self.table = None
        self.verdicts = None
        self.ceilings = None
        if claim == DISTRIBUTIVE:
            require(self.distributive, f"{name} is not distributive")

    def fail(self, message):
        raise CheckFailed(f"{self.name}: {message}")

    # -- the largest table ----------------------------------------------------

    def check_table(self, table):
        """Validate the largest table, given in base labels, and read the
        (abelian, nilpotent, solvable) verdicts off its entries."""
        order = self.order
        bad = oracles.table_violation(order, table)
        if bad:
            self.fail(f"largest table breaks {bad}")
        if self.distributive and table != order.meet:
            self.fail("largest table of a distributive lattice is not the meet")
        if self.claim == ZERO and any(v != order.bottom
                                      for row in table for v in row):
            self.fail("largest table is not the zero table")
        self.table = table
        self.verdicts = oracles.series_verdicts(order, table)
        self.ceilings = sorted(
            (lo, hi, oracles.residuation(order, table, lo, hi))
            for lo, hi in self.covers)

    # -- verdicts -------------------------------------------------------------

    def check_verdicts(self, abelian, nilpotent, solvable):
        if (abelian, nilpotent, solvable) != self.verdicts:
            self.fail(f"verdicts {(abelian, nilpotent, solvable)} differ from "
                      f"the series of the largest table {self.verdicts}")
        if solvable != self.solvable:
            self.fail("solvable verdict disagrees with the meet-prime test")
        if (abelian and not nilpotent) or (nilpotent and not solvable):
            self.fail("abelian => nilpotent => solvable does not hold")
        forced = abelian or nilpotent or solvable
        if self.distributive and self.n >= 2 and forced:
            self.fail("a distributive lattice forces a type")
        if self.claim == ZERO and not (abelian and nilpotent and solvable):
            self.fail("not every type is forced")
        if self.claim == SPLITS and forced:
            self.fail("a type is forced")

    def check_ceilings(self, ceilings):
        if sorted(ceilings) != self.ceilings:
            self.fail("cover ceilings differ from the residuations of the "
                      "largest table")

    def check_splitting(self, pairs, shape):
        if sorted(pairs) != self.splitting:
            self.fail("splitting pairs differ from the brute-force ones")
        if shape != (not self.splitting):
            self.fail("supernilpotency shape disagrees with the splitting pairs")
        if self.claim == ZERO and self.splitting:
            self.fail("has a splitting pair")
        if self.claim == SPLITS and not self.splitting:
            self.fail("has no splitting pair")

    def check_obstruction(self, image):
        if (image is None) != self.solvable:
            self.fail("two-element image present exactly when solvable")
        if image is not None and not self.order.is_hom_to_two(image):
            self.fail("two-element image is not a (0,1)-homomorphism")

    def check_witness(self, members, abelian):
        if members is None:
            return
        if len(set(members)) < 3 or not self.order.is_zero_one_sublattice(members):
            self.fail("abelian witness is not a (0,1)-sublattice of 3+ elements")
        if not abelian:
            self.fail("abelian witness found under a non-abelian verdict")

    # -- whole reports --------------------------------------------------------

    def check_report(self, doc, perm):
        """An ``analyze`` report document in the labels of the relabeled
        copy ``perm`` (base x is called perm[x]), against the facts and the
        largest table validated by :meth:`check_table`."""
        inv = lattices.inverse(perm)
        if doc["n"] != self.n or doc["modular"] is not True or not self.modular:
            self.fail("report has the wrong size or modularity")
        if sorted((inv[a], inv[b]) for a, b in doc["covers"]) != self.covers:
            self.fail("report covers are not the input's")
        top = self.order.top
        if inv[doc["largest_top_square"]] != self.table[top][top]:
            self.fail("largest_top_square is not the table's [top, top]")
        self.check_verdicts(doc["forces_abelian_type"],
                            doc["forces_nilpotent_type"],
                            doc["forces_solvable_type"])
        self.check_ceilings([(inv[a], inv[b], inv[g])
                             for a, b, g in doc["cover_ceilings"]])
        self.check_splitting([(inv[a], inv[b]) for a, b in doc["splitting_pairs"]],
                             doc["supernilpotency_shape"])
        image = doc["solvable_obstruction"]
        self.check_obstruction(None if image is None
                               else [image[perm[x]] for x in range(self.n)])
        witness = doc["abelian_sufficient_condition"]
        self.check_witness(None if witness is None else [inv[x] for x in witness],
                           doc["forces_abelian_type"])

