"""Quick tests of the benchmark's oracles on cases known by hand.

Run with ``python3 -m unittest discover -s perfbench`` (or with pytest).
"""

import unittest

import lattices
import oracles
from oracles import Order


def order(lattice):
    return Order(*lattice)


class OrderTest(unittest.TestCase):
    def test_meets_and_joins_of_m3(self):
        o = order(lattices.m(3))
        self.assertEqual((o.bottom, o.top), (0, 4))
        self.assertEqual(o.meet[1][2], 0)
        self.assertEqual(o.join[1][2], 4)

    def test_pentagon_is_not_modular(self):
        pentagon = Order(5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)})
        self.assertFalse(pentagon.is_modular())

    def test_distributivity(self):
        self.assertTrue(order(lattices.boolean(3)).is_distributive())
        self.assertTrue(order(lattices.chain(5)).is_distributive())
        self.assertFalse(order(lattices.m(3)).is_distributive())
        self.assertTrue(order(lattices.m(3)).is_modular())

    def test_non_lattice_is_rejected(self):
        # Two minimal elements: no bottom, so no meet of 0 and 1.
        with self.assertRaises(oracles.CheckFailed):
            Order(3, {(0, 2), (1, 2)})

    def test_meet_primes(self):
        # In a chain every element below the top is meet prime; M_k has none.
        self.assertEqual(order(lattices.chain(4)).meet_primes(), [0, 1, 2])
        self.assertEqual(order(lattices.m(4)).meet_primes(), [])
        self.assertEqual(order(lattices.fano()).meet_primes(), [])

    def test_splitting_pairs(self):
        self.assertEqual(order(lattices.m(3)).splitting_pairs(), [])
        self.assertIn((1, 2), order(lattices.chain(3)).splitting_pairs())
        m3c2 = order(lattices.product(lattices.m(3), lattices.chain(2)))
        self.assertTrue(m3c2.splitting_pairs())

    def test_product_and_fano_sizes(self):
        self.assertEqual(lattices.product(lattices.m(3), lattices.m(3))[0], 25)
        fano = order(lattices.fano())
        self.assertTrue(fano.is_modular())
        self.assertFalse(fano.is_distributive())


class CongruenceTest(unittest.TestCase):
    def test_chain_has_two_to_the_k_minus_one(self):
        for k in range(1, 7):
            self.assertEqual(len(oracles.congruences(order(lattices.chain(k)))),
                             2 ** (k - 1))

    def test_boolean_has_two_to_the_k(self):
        for k in range(4):
            self.assertEqual(
                len(oracles.congruences(order(lattices.boolean(k)))), 2 ** k)

    def test_m3_is_simple(self):
        self.assertEqual(len(oracles.congruences(order(lattices.m(3)))), 2)

    def test_separating_congruence_of_a_chain_cover(self):
        o = order(lattices.chain(3))
        cons = oracles.congruences(o)
        sep = oracles.separating(o, cons, 0, 1)
        self.assertEqual(sep, frozenset({frozenset({0}), frozenset({1, 2})}))


class TableTest(unittest.TestCase):
    def test_meet_table_is_valid_on_a_distributive_lattice(self):
        o = order(lattices.boolean(2))
        self.assertIsNone(oracles.table_violation(o, o.meet))

    def test_meet_table_is_invalid_on_m3(self):
        o = order(lattices.m(3))
        self.assertIn("join-distributivity", oracles.table_violation(o, o.meet))

    def test_zero_table_forces_everything(self):
        o = order(lattices.m(3))
        zero = [[o.bottom] * o.n for _ in range(o.n)]
        self.assertIsNone(oracles.table_violation(o, zero))
        self.assertEqual(oracles.series_verdicts(o, zero), (True, True, True))

    def test_asymmetric_and_unbounded_tables(self):
        o = order(lattices.chain(3))
        t = [row[:] for row in o.meet]
        t[1][2] = 0
        self.assertIn("symmetry", oracles.table_violation(o, t))
        t = [row[:] for row in o.meet]
        t[1][1] = 2
        self.assertIn("boundedness", oracles.table_violation(o, t))

    def test_series_of_a_chain_meet_table(self):
        o = order(lattices.chain(3))
        self.assertEqual(oracles.derived_series(o, o.meet), (2, 2))
        self.assertEqual(oracles.series_verdicts(o, o.meet),
                         (False, False, False))
        # Residuation of the meet table at the cover (0, 1) is 0.
        self.assertEqual(oracles.residuation(o, o.meet, 0, 1), 0)


if __name__ == "__main__":
    unittest.main()
