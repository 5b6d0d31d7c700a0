import itertools
import random

import pytest

from commlat import corpus, projectivity
from commlat.errors import NotModular, VerificationError
from commlat.lattice import (
    LatticePartition,
    all_congruences,
    congruence_generated,
)
from commlat.projectivity import (
    JoinIrreducible,
    MeetIrreducible,
    PrimeInterval,
    SplittingPair,
    is_completely_meet_prime,
    is_lonesome_join_irreducible,
    is_lonesome_meet_irreducible,
    join_irreducibles,
    meet_irreducibles,
    prime_intervals,
    projective_ceiling,
    projective_floor,
    projectivity_classes,
    projects_into,
    separating_congruence,
    splits,
    splitting_pairs,
    transposes_up,
    two_element_lattice,
    two_element_quotient,
)
from test_lattice import _brute_force_congruences, _relabel, _shuffled


def test_irreducibles_on_chain(chain3):
    assert meet_irreducibles(chain3) == (
        MeetIrreducible(0, 1), MeetIrreducible(1, 2))
    assert join_irreducibles(chain3) == (
        JoinIrreducible(1, 0), JoinIrreducible(2, 1))


def test_irreducibles_on_m3(m3):
    assert meet_irreducibles(m3) == tuple(
        MeetIrreducible(a, 4) for a in (1, 2, 3))
    assert join_irreducibles(m3) == tuple(
        JoinIrreducible(a, 0) for a in (1, 2, 3))


def test_irreducibles_on_one_element():
    one = corpus.chain(1)
    assert meet_irreducibles(one) == ()
    assert join_irreducibles(one) == ()


def test_irreducibles_match_their_definition(all7):
    # reference: strictly below the meet of the strict upper bounds, and
    # dually strictly above the join of the strict lower bounds
    for lat in all7:
        plus = [lat.meet_all(y for y in lat.elements if lat.lt(x, y))
                for x in lat.elements]
        minus = [lat.join_all(y for y in lat.elements if lat.lt(y, x))
                 for x in lat.elements]
        assert meet_irreducibles(lat) == tuple(
            MeetIrreducible(x, plus[x]) for x in lat.elements if plus[x] != x)
        assert join_irreducibles(lat) == tuple(
            JoinIrreducible(x, minus[x]) for x in lat.elements
            if minus[x] != x)


def test_irreducible_intervals_are_prime(modular7):
    for lat in modular7:
        for eta in meet_irreducibles(lat):
            assert lat.is_cover(eta.element, eta.plus)
        for rho in join_irreducibles(lat):
            assert lat.is_cover(rho.minus, rho.element)


def test_duality_of_irreducibles(all6):
    for lat in all6:
        dual = lat.dual()
        assert {(m.element, m.plus) for m in meet_irreducibles(lat)} == \
            {(j.element, j.minus) for j in join_irreducibles(dual)}


def test_transposes_up(b22, chain3):
    i = PrimeInterval(0, 1)
    assert transposes_up(b22, i, i)
    assert transposes_up(b22, PrimeInterval(0, 1), PrimeInterval(2, 3))
    assert not transposes_up(chain3, PrimeInterval(0, 1), PrimeInterval(1, 2))


def test_projectivity_classes(m3, b22, chain3):
    assert projectivity_classes(m3).num_classes == 1
    assert len(prime_intervals(m3)) == 6
    b22_classes = projectivity_classes(b22)
    assert b22_classes.num_classes == 2
    assert b22_classes.same_class(PrimeInterval(0, 1), PrimeInterval(2, 3))
    assert not b22_classes.same_class(PrimeInterval(0, 1), PrimeInterval(0, 2))
    assert projectivity_classes(chain3).num_classes == 2


def test_nonmodular_rejected(n5):
    with pytest.raises(NotModular):
        projectivity_classes(n5)
    with pytest.raises(NotModular):
        projective_ceiling(n5, PrimeInterval(0, 1))
    with pytest.raises(NotModular):
        two_element_quotient(n5)


def test_projects_into(b22):
    assert projects_into(b22, PrimeInterval(0, 1), 0, 1)
    assert projects_into(b22, PrimeInterval(0, 1), 2, 3)
    assert not projects_into(b22, PrimeInterval(0, 1), 0, 2)
    assert not projects_into(b22, PrimeInterval(0, 1), 1, 1)


def test_ceiling_and_floor(m3, b22, chain3):
    assert projective_ceiling(m3, PrimeInterval(0, 1)) == 4
    assert projective_floor(m3, PrimeInterval(0, 1)) == 4
    assert projective_ceiling(b22, PrimeInterval(0, 1)) == 2
    assert projective_floor(b22, PrimeInterval(0, 1)) == 1
    assert projective_ceiling(chain3, PrimeInterval(0, 1)) == 0
    assert projective_floor(chain3, PrimeInterval(0, 1)) == 1
    assert projective_ceiling(chain3, PrimeInterval(1, 2)) == 1
    assert projective_floor(chain3, PrimeInterval(1, 2)) == 2


def test_lonesome(b22, m3, chain3):
    eta_a = MeetIrreducible(1, 3)
    assert is_lonesome_meet_irreducible(b22, eta_a)
    assert not is_lonesome_meet_irreducible(m3, MeetIrreducible(1, 4))
    assert is_lonesome_meet_irreducible(chain3, MeetIrreducible(0, 1))
    assert is_lonesome_join_irreducible(b22, JoinIrreducible(1, 0))
    assert not is_lonesome_join_irreducible(m3, JoinIrreducible(1, 0))


def test_splitting_pairs(b22, m3, b2):
    assert splitting_pairs(b22) == (SplittingPair(1, 2), SplittingPair(2, 1))
    assert splitting_pairs(m3) == ()
    assert splitting_pairs(b2) == (SplittingPair(0, 1),)
    assert splits(b2) and not splits(m3)
    for k in range(2, 6):
        assert splits(corpus.chain(k))


def test_splitting_pair_defining_property(all6):
    for lat in all6:
        found = set(splitting_pairs(lat))
        for delta in lat.elements:
            for epsilon in lat.elements:
                good = (delta != lat.top and epsilon != lat.bottom
                        and all(lat.leq(a, delta) or lat.leq(epsilon, a)
                                for a in lat.elements))
                assert ((SplittingPair(delta, epsilon) in found) == good)


def test_separating_congruence_examples(chain3, b22):
    part = separating_congruence(chain3, PrimeInterval(0, 1))
    assert part.blocks == ((0,), (1, 2))
    part = separating_congruence(b22, PrimeInterval(0, 1))
    assert part.blocks == ((0, 2), (1, 3))


def test_separating_congruence_is_largest(modular6):
    # the largest brute-force congruence keeping the endpoints apart, on the
    # corpus names and on random renamings
    rng = random.Random(7)
    for base in modular6:
        for lat in [base] + [_relabel(base, _shuffled(rng, base.n))
                             for _ in range(2)]:
            congruences = _brute_force_congruences(lat)
            for i in prime_intervals(lat):
                keeping = [LatticePartition(lat, blocks)
                           for blocks in congruences
                           if not any(i.lo in b and i.hi in b for b in blocks)]
                largest = [p for p in keeping
                           if all(q.refines(p) for q in keeping)]
                assert [separating_congruence(lat, i)] == largest


def test_separating_congruence_checks_every_cover(b22, monkeypatch):
    # a closure that collapsed too little must not pass as the answer
    monkeypatch.setattr(projectivity, "congruence_generated",
                        lambda lat, seed: LatticePartition.identity(lat))
    with pytest.raises(VerificationError):
        separating_congruence(b22, PrimeInterval(0, 1))


def test_con_of_a_modular_lattice_is_boolean_on_the_classes(all8):
    # Con L of a modular lattice is Boolean with one atom per projectivity
    # class of prime intervals
    for lat in all8:
        if lat.is_modular():
            assert len(all_congruences(lat)) == \
                2 ** projectivity_classes(lat).num_classes


def test_projectivity_matches_principal_congruences(modular7):
    # independent route: collapsing one prime interval collapses exactly the
    # prime intervals projective to it
    for lat in modular7:
        classes = projectivity_classes(lat)
        for p in prime_intervals(lat):
            collapsed = congruence_generated(lat, [(p.lo, p.hi)])
            for q in prime_intervals(lat):
                assert collapsed.related(q.lo, q.hi) == classes.same_class(p, q)


def test_separation_by_meet_irreducibles(all8):
    # whenever y is not below x, some meet irreducible is above x but not y
    for lat in all8:
        irr = meet_irreducibles(lat)
        for x in lat.elements:
            for y in lat.elements:
                if lat.leq(y, x):
                    continue
                assert any(lat.leq(x, m.element) and not lat.leq(y, m.element)
                           for m in irr)


def test_cover_transposes_to_separating_irreducible(modular7):
    # a cover below a separating meet irreducible transposes up to its
    # canonical interval, and every projectivity class reaches both kinds
    # of irreducible
    for lat in modular7:
        classes = projectivity_classes(lat)
        irr_meet = meet_irreducibles(lat)
        irr_join = join_irreducibles(lat)
        for i in prime_intervals(lat):
            for eta in irr_meet:
                if lat.leq(i.lo, eta.element) and not lat.leq(i.hi, eta.element):
                    assert transposes_up(lat, i, eta.interval())
            assert any(classes.same_class(i, m.interval()) for m in irr_meet)
            assert any(classes.same_class(i, j.interval()) for j in irr_join)


def test_two_element_quotient(chain3, m3, b2):
    hom = two_element_quotient(chain3)
    assert hom.image == (0, 1, 1)
    assert hom.is_zero_one
    assert two_element_quotient(m3) is None
    assert two_element_quotient(b2).image == (0, 1)


def _all_b2_images(lat):
    """Brute force: does any surjective 0/1 labeling preserve meet and join?"""
    b2 = two_element_lattice()
    for image in itertools.product((0, 1), repeat=lat.n):
        if 0 not in image or 1 not in image:
            continue
        if all(image[lat.meet(x, y)] == min(image[x], image[y])
               and image[lat.join(x, y)] == max(image[x], image[y])
               for x in range(lat.n) for y in range(lat.n)):
            yield image


def test_two_element_quotient_existence_is_exact(modular6):
    for lat in modular6:
        exists = any(True for _ in _all_b2_images(lat))
        assert (two_element_quotient(lat) is not None) == exists


def test_completely_meet_prime(chain3, m3):
    assert is_completely_meet_prime(chain3, 0)
    assert is_completely_meet_prime(chain3, 1)
    assert not is_completely_meet_prime(m3, 1)
    assert not is_completely_meet_prime(m3, 4)  # top never qualifies
