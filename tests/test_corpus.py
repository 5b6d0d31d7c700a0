import itertools
import random

import pytest

from commlat import corpus
from commlat.errors import InputError, VerificationError
from commlat.lattice import FiniteLattice
from families import m, relabel

# unlabeled lattice counts, and the modular subcounts, for 1..8 elements
KNOWN_COUNTS = [1, 1, 1, 2, 5, 15, 53, 222]
KNOWN_MODULAR_COUNTS = [1, 1, 1, 2, 4, 8, 16, 34]


def test_counts_match_literature():
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        assert len(corpus.all_lattices(n)) == expected, n
    for n, expected in enumerate(KNOWN_MODULAR_COUNTS, start=1):
        assert len(corpus.all_lattices(n, modular_only=True)) == expected, n


def test_size_cap():
    with pytest.raises(InputError,
                       match="^corpus generation is capped at n = 8$"):
        corpus.all_lattices(9)
    with pytest.raises(InputError,
                       match="^corpus generation is capped at n = 8$"):
        corpus.generate_corpus(9)


def test_modular_four_corpus_is_the_expected_five():
    lats = corpus.generate_corpus(4, modular_only=True)
    assert len(lats) == 5
    expected = [corpus.chain(1), corpus.chain(2), corpus.chain(3),
                corpus.chain(4), corpus.boolean(2)]
    keys = {corpus.canonical_key(got) for got in lats}
    assert all(corpus.canonical_key(lat) in keys for lat in expected)


def test_deterministic_and_canonical():
    first = corpus.generate_corpus(6)
    second = corpus.generate_corpus(6)
    assert [l.cover_pairs() for l in first] == [l.cover_pairs() for l in second]
    for lat in first:
        assert FiniteLattice(*corpus.canonical_key(lat)) == lat


def test_no_isomorphic_duplicates(all6):
    keys = [corpus.canonical_key(lat) for lat in all6]
    assert len(keys) == len(set(keys))


def test_keep_isomorphic_superset():
    with_dupes = corpus.generate_corpus(5, dedupe_iso=False)
    deduped = corpus.generate_corpus(5)
    assert len(with_dupes) > len(deduped)
    keys = {corpus.canonical_key(lat) for lat in with_dupes}
    assert keys == {corpus.canonical_key(lat) for lat in deduped}


def test_isomorphism_detection(m3, n5):
    scramble = [3, 0, 4, 2, 1]
    relabeled = FiniteLattice(5, {(scramble[x], scramble[y])
                                  for x, y in m3.covers})
    key = corpus.canonical_key(m3)
    assert corpus.canonical_key(relabeled) == key
    assert corpus.canonical_key(n5) != key
    assert corpus.canonical_key(corpus.chain(5)) != key


def test_named_lattices(m3, n5, b22):
    assert m3.n == 5 and len(m3.covers) == 6
    assert not n5.is_modular()
    assert b22 == corpus.boolean(2)
    assert corpus.boolean(3).n == 8
    assert corpus.boolean(3).is_modular()


def _full_search_key(lat):
    """The canonical key from every order of every color class, twins
    included: the search before twin groups were kept in name order."""
    classes = [sorted(itertools.chain(*groups))
               for groups in corpus._color_classes(lat)]
    pairs = lat.cover_pairs()
    positions = ({x: i for i, x in enumerate(itertools.chain(*orders))}
                 for orders in itertools.product(*map(itertools.permutations,
                                                      classes)))
    return lat.n, min(tuple(sorted((at[x], at[y]) for x, y in pairs))
                      for at in positions)


def test_twin_groups_give_the_full_search_key(all8):
    # swapping twins is an automorphism, so keeping each twin group in name
    # order reaches the minimum of the full search
    assert len(all8) == 300
    rng = random.Random(24)
    for lat in all8:
        for _ in range(3):
            relabeled = FiniteLattice(*relabel((lat.n, lat.covers), rng)[0])
            assert (corpus.canonical_key(relabeled)
                    == _full_search_key(relabeled) == _full_search_key(lat))


@pytest.mark.parametrize("k", [10, 14])
def test_m_k_is_keyed_in_one_relabeling(k):
    # 10! and 14! orders of the atoms, over the 8! limit, but the atoms are
    # one twin group
    lat = FiniteLattice(*m(k))
    assert all(len(list(corpus._arrangements(groups))) == 1
               for groups in corpus._color_classes(lat))
    rng = random.Random(k)
    for _ in range(3):
        relabeled = FiniteLattice(*relabel(m(k), rng)[0])
        assert corpus.canonical_key(relabeled) == corpus.canonical_key(lat)
    assert (corpus.canonical_key(FiniteLattice(*m(k - 1)))
            != corpus.canonical_key(lat))


def test_canonical_key_refuses_factorial_search():
    # B4's color classes have 4, 6 and 4 elements and no twins: 4! * 6! *
    # 4! = 414,720 relabelings, over the 8! limit, so this raises before
    # searching
    with pytest.raises(InputError, match="^canonical form would try 414720 "
                       "relabelings; the limit is 40320$"):
        corpus.canonical_key(corpus.boolean(4))


@pytest.mark.parametrize("n, count", [(7, 320), (8, 3637)])
def test_natural_order_lattice_counts(n, count):
    # only lattices are grown, so each candidate is yielded
    assert sum(1 for _ in corpus._natural_order_lattices(n)) == count


@pytest.mark.parametrize("n, modular_only, count",
                         [(7, False, 122), (8, False, 758), (8, True, 51)])
def test_size_ordered_lattice_counts(n, modular_only, count):
    grown = corpus._natural_order_lattices(n, modular_only, _size_ordered=True)
    assert sum(1 for _ in grown) == count


@pytest.mark.parametrize("modular_only", [False, True])
@pytest.mark.parametrize("n", range(1, corpus.MAX_CORPUS_N + 1))
def test_size_ordering_keeps_every_class(n, modular_only):
    def keys(**kwargs):
        return {corpus.canonical_key(lat) for lat in
                corpus._natural_order_lattices(n, modular_only, **kwargs)}

    assert keys(_size_ordered=True) == keys()


def test_graded_prefixes_drop_no_modular_lattice():
    every = corpus.generate_corpus(8, dedupe_iso=False)
    modular = corpus.generate_corpus(8, modular_only=True, dedupe_iso=False)
    assert ([lat.cover_pairs() for lat in modular]
            == [lat.cover_pairs() for lat in every if lat.is_modular()])


def test_only_a_new_class_is_built(monkeypatch):
    built = []

    class Counted(FiniteLattice):
        def __init__(self, n, covers=()):
            built.append(n)
            super().__init__(n, covers)

    monkeypatch.setattr(corpus, "FiniteLattice", Counted)
    assert len(corpus.all_lattices.__wrapped__(8)) == len(built) == 222
    assert len(corpus.generate_corpus(6, dedupe_iso=False)) == len(built) - 222


def test_a_rejected_candidate_is_a_bug(monkeypatch):
    # each new class, and each labeling kept with its isomorphic copies, is
    # validated where it is built
    class Rejecting(FiniteLattice):
        def __init__(self, n, covers=()):
            raise InputError("forced")

    monkeypatch.setattr(corpus, "all_lattices", corpus.all_lattices.__wrapped__)
    monkeypatch.setattr(corpus, "FiniteLattice", Rejecting)
    for dedupe_iso in (True, False):
        with pytest.raises(VerificationError, match="forced"):
            corpus.generate_corpus(4, dedupe_iso=dedupe_iso)
