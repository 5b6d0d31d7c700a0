import gc
import itertools
import random
import tracemalloc

import pytest

from commlat import corpus, lattice, projectivity
from commlat.commutator import largest_commutator, residuation
from commlat.errors import InputError, VerificationError
from commlat.lattice import (
    FiniteLattice,
    all_congruences,
    congruence_generated,
    is_simple,
)
from commlat.projectivity import (
    JoinIrreducible,
    MeetIrreducible,
    PrimeInterval,
    SplittingPair,
    join_irreducibles,
    meet_irreducibles,
    projective_ceiling,
    projectivity_classes,
    separating_congruence,
    splitting_pairs,
    two_element_quotient,
)
from families import (boolean, chain, complemented, m, oracles, product,
                      projective_plane, relabel)
from test_lattice import _fixpoint


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


def _assert_irreducibles_match_their_definition(lat):
    # reference: strictly below the meet of the strict upper bounds, and
    # dually strictly above the join of the strict lower bounds
    plus = [lat.meet_all(y for y in lat.elements if x != y and lat.leq(x, y))
            for x in lat.elements]
    minus = [lat.join_all(y for y in lat.elements if x != y and lat.leq(y, x))
             for x in lat.elements]
    assert meet_irreducibles(lat) == tuple(
        MeetIrreducible(x, plus[x]) for x in lat.elements if plus[x] != x)
    assert join_irreducibles(lat) == tuple(
        JoinIrreducible(x, minus[x]) for x in lat.elements
        if minus[x] != x)


def test_irreducibles_match_their_definition(all7):
    for lat in all7:
        _assert_irreducibles_match_their_definition(lat)


def test_irreducibles_from_the_masks_match_their_definition(all8):
    # on three seeded renamings of each lattice, which need not extend the
    # order, and on larger lattices; the dependency fact lists the same
    # join irreducibles
    rng = random.Random(18)
    pairs = [relabel((base.n, base.covers), rng)[0]
             for base in all8 for _ in range(3)]
    pairs += [boolean(6), chain(64), m(62), product(chain(2), chain(32)),
              product(m(4), m(5))]
    for lat in (FiniteLattice(*pair) for pair in pairs):
        _assert_irreducibles_match_their_definition(lat)
        below, j_mask = lattice._dependencies(lat)
        assert ([(j, lat._lower[j].bit_length() - 1)
                 for j, mask in enumerate(below) if mask]
                == list(join_irreducibles(lat)))
        assert j_mask == sum(1 << j for j, _ in join_irreducibles(lat))


def test_irreducible_intervals_are_prime(modular8):
    for lat in modular8:
        covers = lat.covers
        for eta in meet_irreducibles(lat):
            assert (eta.element, eta.plus) in covers
        for rho in join_irreducibles(lat):
            assert (rho.minus, rho.element) in covers


def test_duality_of_irreducibles(all6):
    for lat in all6:
        dual = lat.dual()
        assert {(m.element, m.plus) for m in meet_irreducibles(lat)} == \
            {(j.element, j.minus) for j in join_irreducibles(dual)}


def test_projectivity_classes(m3, b22, chain3):
    assert len(projectivity_classes(m3).ceilings) == 1
    assert len(m3.cover_pairs()) == 6
    b22_classes = projectivity_classes(b22)
    assert len(b22_classes.ceilings) == 2
    assert b22_classes.class_of((0, 1)) == b22_classes.class_of((2, 3))
    assert b22_classes.class_of((0, 1)) != b22_classes.class_of((0, 2))
    assert len(projectivity_classes(chain3).ceilings) == 2


def _transposes_up(lat, i, j):
    # j.hi = i.hi v j.lo and i.lo = i.hi ^ j.lo
    return lat.join(i.hi, j.lo) == j.hi and lat.meet(i.hi, j.lo) == i.lo


def _perspectivity_components(lat):
    """Class ids, in order of first appearance, of the components of the
    perspectivity graph, testing every pair of prime intervals."""
    intervals = [PrimeInterval(*p) for p in lat.cover_pairs()]
    component = list(range(len(intervals)))
    for a, i in enumerate(intervals):
        for b, j in enumerate(intervals[:a]):
            if _transposes_up(lat, i, j) or _transposes_up(lat, j, i):
                old, new = component[a], component[b]
                component = [new if c == old else c for c in component]
    ids = {}
    return {i: ids.setdefault(c, len(ids))
            for i, c in zip(intervals, component)}


def _assert_classes_match_all_pairs(lat):
    classes = projectivity_classes(lat)
    intervals = lat.cover_pairs()
    assert ({i: classes.class_of(i) for i in intervals}
            == _perspectivity_components(lat))
    # every other pair is refused
    for pair in itertools.product(range(lat.n), repeat=2):
        if pair not in intervals:
            with pytest.raises(ValueError, match="not a prime interval"):
                classes.class_of(pair)


def test_projectivity_classes_match_all_pairs_on_the_corpus(modular8):
    # the corpus names and two seeded renamings of each of the 67 lattices
    rng = random.Random(14)
    assert len(modular8) == 67
    for base in modular8:
        pair = base.n, base.covers
        for lat in [base] + [FiniteLattice(*relabel(pair, rng)[0])
                             for _ in range(2)]:
            _assert_classes_match_all_pairs(lat)


@pytest.mark.parametrize("pair", [
    boolean(6), chain(64), m(62), product(chain(2), chain(32)),
    product(m(4), m(5)),
], ids=["B6", "C64", "M62", "C2xC32", "M4xM5"])
def test_projectivity_classes_match_all_pairs_at_scale(pair):
    _assert_classes_match_all_pairs(FiniteLattice(*pair))


def test_a_transpose_that_is_no_cover_is_a_bug(n5, monkeypatch):
    # N5's (0, 3) transposes up to (1, 4), which is no cover
    monkeypatch.setattr(projectivity, "_require_modular", lambda lat: None)
    with pytest.raises(VerificationError, match=r"\(1, 4\)"):
        projectivity_classes(n5)


def test_nonmodular_rejected(n5):
    with pytest.raises(InputError, match="^operation requires a modular "
                       "lattice$"):
        projectivity_classes(n5)
    with pytest.raises(InputError, match="^operation requires a modular "
                       "lattice$"):
        projective_ceiling(n5, PrimeInterval(0, 1))
    with pytest.raises(InputError, match="^operation requires a modular "
                       "lattice$"):
        two_element_quotient(n5)


_PER_INTERVAL = {
    "projective_ceiling": projective_ceiling,
    "separating_congruence": separating_congruence,
    "class_of": lambda lat, i: projectivity_classes(lat).class_of(i),
}


@pytest.mark.parametrize("name", sorted(_PER_INTERVAL))
def test_per_interval_functions_refuse_what_is_no_cover(name, m3, n5):
    # a non-cover, a reversed cover and out-of-range elements of M3, as
    # tuples and as lists, are no prime interval; (0, 9), (2, -1) and
    # (-1, 6) would read the entry of a cover at lo * 5 + hi, and (5, 0)
    # past the table.  So would (0, 2) of C2 named top-down, at the cover
    # (1, 0).  A list that is a cover works as the tuple does.  N5 is
    # refused as nonmodular even at a cover
    function = _PER_INTERVAL[name]
    cases = [(m3, pair) for pair in [(0, 4), (1, 0), (0, 5), (5, 0), (0, 9),
                                     (-1, 0), (2, -1), (-1, 6)]]
    cases.append((FiniteLattice(2, {(1, 0)}), (0, 2)))
    for lat, pair in cases:
        for interval in (PrimeInterval(*pair), list(pair)):
            with pytest.raises(ValueError, match="not a prime interval"):
                function(lat, interval)
    assert function(m3, [1, 4]) == function(m3, PrimeInterval(1, 4))
    with pytest.raises(InputError, match="^operation requires a modular "
                       "lattice$"):
        function(n5, PrimeInterval(0, 1))


def test_class_of_takes_any_pair_of_ints_and_refuses_the_rest(m3):
    classes = projectivity_classes(m3)
    for pair in (PrimeInterval(0, 1), (0, 1), [0, 1], range(2)):
        assert classes.class_of(pair) == 0
    for other in (None, 1, "01", (0,), (0, 1, 4), (0.0, 1), ("0", "1"),
                  [[0], [1]]):
        with pytest.raises(ValueError, match="not a prime interval"):
            classes.class_of(other)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_projective_planes_are_simple_with_every_ceiling_top(q):
    # PG(2, 3), PG(2, 4) and PG(2, 5) have 28, 44 and 64 elements; each is
    # simple, complemented and modular, so all its prime intervals are
    # projective and the largest multiplication is top at every cover
    lat = FiniteLattice(*relabel(projective_plane(q), random.Random(q))[0])
    classes = projectivity_classes(lat)
    assert len(classes.ceilings) == 1
    assert is_simple(lat)
    assert len(all_congruences(lat)) == 2
    assert complemented(oracles.Order(lat.n, lat.covers))
    assert list(classes.ceilings) == [lat.top]
    big = largest_commutator(lat)
    assert all(residuation(big, *cover) == lat.top
               for cover in lat.cover_pairs())


def _held(make):
    """``make()`` and the bytes it leaves allocated.  A full collection
    empties the free lists first and last, which would otherwise hide
    objects they hand out and count temporaries they keep."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    value = make()
    gc.collect()
    return value, tracemalloc.get_traced_memory()[0] - before


def test_the_facts_take_no_more_memory_than_their_lattice(all8):
    # the dependency fact and, on modular lattices, the projectivity record
    lattices = all8 + [FiniteLattice(*pair) for pair in (
        boolean(6), chain(64), m(62), product(chain(2), chain(32)),
        projective_plane(5))]
    # frozen objects are left out of the collections, which stay fast
    gc.freeze()
    tracemalloc.start()
    try:
        for base in lattices:
            lat, size = _held(lambda: FiniteLattice(base.n, base.cover_pairs()))
            modular = lat.is_modular()
            _, facts = _held(lambda: (
                lattice._dependencies(lat),
                projectivity_classes(lat) if modular else None))
            assert facts <= size, (base, facts, size)
    finally:
        tracemalloc.stop()
        gc.unfreeze()


def test_ceiling(m3, b22, chain3):
    assert projective_ceiling(m3, PrimeInterval(0, 1)) == 4
    assert projective_ceiling(b22, PrimeInterval(0, 1)) == 2
    assert projective_ceiling(chain3, PrimeInterval(0, 1)) == 0
    assert projective_ceiling(chain3, PrimeInterval(1, 2)) == 1


def _lonesome(lat, eta):
    """Whether the meet irreducible eta is the only one whose canonical
    interval lies in its class, read off the projectivity record."""
    classes = lat.fact(projectivity_classes)
    return classes.meet_counts[classes.class_of(eta.interval())] == 1


def test_lonesome(b22, m3, chain3):
    assert _lonesome(b22, MeetIrreducible(1, 3))
    assert not _lonesome(m3, MeetIrreducible(1, 4))
    assert _lonesome(chain3, MeetIrreducible(0, 1))


def test_splitting_pairs(b22, m3, b2):
    assert splitting_pairs(b22) == (SplittingPair(1, 2), SplittingPair(2, 1))
    assert splitting_pairs(m3) == ()
    assert splitting_pairs(b2) == (SplittingPair(0, 1),)
    for k in range(2, 6):
        assert splitting_pairs(corpus.chain(k))


def test_splitting_pairs_match_the_cubic_definition(all8):
    # the same pairs in the same sorted order as the oracle's, which tries
    # every (delta, epsilon) against every element on the covers alone
    for lat in all8:
        assert list(splitting_pairs(lat)) == oracles.Order(
            lat.n, lat.covers).splitting_pairs()


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
        pair = base.n, base.covers
        for n, covers in [pair] + [relabel(pair, rng)[0] for _ in range(2)]:
            lat, order = FiniteLattice(n, covers), oracles.Order(n, covers)
            congruences = oracles.congruences(order)
            for lo, hi in sorted(covers):
                blocks = separating_congruence(lat, (lo, hi)).blocks
                assert frozenset(map(frozenset, blocks)) == oracles.separating(
                    order, congruences, lo, hi)


def test_separating_congruence_is_largest_on_modular8(modular8):
    # con(lo, hi) of a cover is join irreducible in the distributive lattice
    # Con L, hence join prime, so the largest congruence that keeps lo and hi
    # apart is the join of the con(k-, k) that keep them apart: one fixpoint
    # closure per join irreducible k and one per cover, not Bell(n)
    # partitions; on the corpus names and on two seeded renamings
    rng = random.Random(8)
    for base in modular8:
        pair = base.n, base.covers
        for n, covers in [pair] + [relabel(pair, rng)[0] for _ in range(2)]:
            lat, order = FiniteLattice(n, covers), oracles.Order(n, covers)
            covers = sorted(covers)
            principal = {(x, k): _fixpoint(order, [(x, k)]) for x, k in covers
                         if [y for y, z in covers if z == k] == [x]}
            for lo, hi in covers:
                keeping = [g for g, blocks in principal.items()
                           if not any(lo in b and hi in b for b in blocks)]
                assert (separating_congruence(lat, (lo, hi)).blocks
                        == _fixpoint(order, keeping))


def test_separating_congruence_checks_every_cover(b22, monkeypatch):
    # a closure that collapsed too little must not pass as the answer
    monkeypatch.setattr(projectivity, "_fibres",
                        lambda lat, reach: congruence_generated(lat, []))
    with pytest.raises(VerificationError):
        separating_congruence(b22, PrimeInterval(0, 1))


@pytest.mark.parametrize("lat", [corpus.boolean(3),
                                 FiniteLattice(*product(m(3), chain(2)))],
                         ids=["B3", "M3xC2"])
def test_separating_congruence_closes_once_per_class(lat, monkeypatch):
    # one kernel build per class, on first request
    calls = []
    fibres = projectivity._fibres

    def counted(lat, reach):
        calls.append(reach)
        return fibres(lat, reach)

    monkeypatch.setattr(projectivity, "_fibres", counted)
    first, *rest = lat.cover_pairs()
    separating_congruence(lat, first)
    assert len(calls) == 1
    for i in rest:
        separating_congruence(lat, i)
    assert len(calls) <= len(projectivity_classes(lat).ceilings)


def test_con_of_a_modular_lattice_is_boolean_on_the_classes(all8):
    # Con L of a modular lattice is Boolean with one atom per projectivity
    # class of prime intervals, so the lattice is simple exactly when it has
    # one class
    for lat in all8:
        if lat.is_modular():
            num_classes = len(projectivity_classes(lat).ceilings)
            assert len(all_congruences(lat)) == 2 ** num_classes
            assert is_simple(lat) == (num_classes == 1)


def test_projectivity_matches_principal_congruences(modular8):
    # independent route: collapsing one prime interval collapses exactly the
    # prime intervals projective to it
    for lat in modular8:
        classes = projectivity_classes(lat)
        for p in lat.cover_pairs():
            collapsed = congruence_generated(lat, [p])
            for q in lat.cover_pairs():
                assert (collapsed.related(*q)
                        == (classes.class_of(p) == classes.class_of(q)))


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


def test_cover_transposes_to_separating_irreducible(modular8):
    # a cover below a separating meet irreducible transposes up to its
    # canonical interval, and every projectivity class reaches both kinds
    # of irreducible
    for lat in modular8:
        classes = projectivity_classes(lat)
        irr_meet = meet_irreducibles(lat)
        meet_ids = {classes.class_of(m.interval()) for m in irr_meet}
        join_ids = {classes.class_of((j.minus, j.element))
                    for j in join_irreducibles(lat)}
        for lo, hi in lat.cover_pairs():
            for eta in irr_meet:
                if lat.leq(lo, eta.element) and not lat.leq(hi, eta.element):
                    assert _transposes_up(lat, PrimeInterval(lo, hi),
                                          eta.interval())
        assert meet_ids == join_ids == set(range(len(classes.ceilings)))


def test_two_element_quotient(chain3, m3, b2):
    hom = two_element_quotient(chain3)
    assert hom.image == (0, 1, 1)
    assert hom.is_zero_one
    assert two_element_quotient(m3) is None
    assert two_element_quotient(b2).image == (0, 1)


def test_two_element_quotient_existence_is_exact(modular8):
    # brute force: is any 0/1 labeling a (0,1)-map onto the two-element chain?
    for lat in modular8:
        order = oracles.Order(lat.n, lat.covers)
        exists = any(map(order.is_hom_to_two,
                         itertools.product((0, 1), repeat=lat.n)))
        assert (two_element_quotient(lat) is not None) == exists


def _recounted_lonesome(lat, irreducibles):
    # the irreducibles alone in their projectivity class, counted afresh
    classes = projectivity_classes(lat)
    ids = [classes.class_of(r.interval()) for r in irreducibles]
    return [r for r, cid in zip(irreducibles, ids) if ids.count(cid) == 1]


def test_lonesome_irreducibles_match_a_recount(modular8):
    for lat in modular8:
        meets = meet_irreducibles(lat)
        assert [m for m in meets if _lonesome(lat, m)] \
            == _recounted_lonesome(lat, meets)


def test_two_element_quotient_uses_the_first_lonesome_irreducible(modular8):
    for lat in modular8:
        lonesome = [m.element for m in
                    _recounted_lonesome(lat, meet_irreducibles(lat))]
        hom = two_element_quotient(lat)
        assert (hom is None) == (not lonesome)
        if lonesome:
            assert hom.image == tuple(0 if lat.leq(x, lonesome[0]) else 1
                                      for x in lat.elements)
