"""The value records: repr text, equality, hashing, order and immutability.

Each record compares and hashes by its fields in declaration order, so equal
records collapse in sets and dicts and hash like the tuple of their fields.
The four ordered records sort by their fields in that order.
"""

import pytest

from commlat import corpus
from commlat.classify import analyze
from commlat.commutator import (
    CommutatorTable,
    SeriesReport,
    Violation,
    largest_commutator,
    series,
)
from commlat.projectivity import (
    JoinIrreducible,
    MeetIrreducible,
    PrimeInterval,
    SplittingPair,
)

ORDERED = [PrimeInterval, MeetIrreducible, JoinIrreducible, SplittingPair]


@pytest.mark.parametrize("record, text", [
    (PrimeInterval(0, 1), "PrimeInterval(lo=0, hi=1)"),
    (MeetIrreducible(1, 4), "MeetIrreducible(element=1, plus=4)"),
    (JoinIrreducible(element=2, minus=0), "JoinIrreducible(element=2, minus=0)"),
    (SplittingPair(1, 2), "SplittingPair(delta=1, epsilon=2)"),
    (Violation("symmetry", (1, 2), "t(1,2)=1 != t(2,1)=0"),
     "Violation(law='symmetry', witness=(1, 2), detail='t(1,2)=1 != t(2,1)=0')"),
    (SeriesReport(derived=(2, 2), lower_central=(2, 2), kind="none"),
     "SeriesReport(derived=(2, 2), lower_central=(2, 2), kind='none')"),
])
def test_record_repr(record, text):
    assert repr(record) == text


def test_forcing_report_repr():
    assert repr(analyze(corpus.boolean(2))) == (
        "ForcingReport(n=4, covers=((0, 1), (0, 2), (1, 3), (2, 3)), "
        "modular=True, forces_solvable_type=False, "
        "solvable_obstruction=(0, 0, 1, 1), forces_nilpotent_type=False, "
        "cover_ceilings=((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2)), "
        "forces_abelian_type=False, largest_top_square=3, "
        "abelian_sufficient_condition=None, supernilpotency_shape=False, "
        "splitting_pairs=((1, 2), (2, 1)))")


def _twins():
    """Pairs of equal but distinct instances, one pair per record type."""
    return [
        (PrimeInterval(0, 1), PrimeInterval(lo=0, hi=1)),
        (MeetIrreducible(1, 4), MeetIrreducible(element=1, plus=4)),
        (JoinIrreducible(2, 0), JoinIrreducible(minus=0, element=2)),
        (SplittingPair(1, 2), SplittingPair(epsilon=2, delta=1)),
        (Violation("boundedness", (0, 1), "x"),
         Violation(law="boundedness", witness=(0, 1), detail="x")),
        (series(largest_commutator(corpus.diamond())),
         series(largest_commutator(corpus.diamond()))),
        (analyze(corpus.diamond()), analyze(corpus.diamond())),
    ]


@pytest.mark.parametrize("a, b", _twins(),
                         ids=lambda r: type(r).__name__)
def test_equal_records_hash_alike(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_records_hash_like_their_fields():
    assert hash(PrimeInterval(3, 5)) == hash((3, 5))
    assert hash(SplittingPair(1, 2)) == hash((1, 2))
    assert hash(Violation("symmetry", (1, 2), "d")) == \
        hash(("symmetry", (1, 2), "d"))


def test_records_differ_by_field():
    assert PrimeInterval(0, 1) != PrimeInterval(0, 2)
    assert MeetIrreducible(1, 4) != MeetIrreducible(2, 4)
    assert Violation("symmetry", (1, 2), "d") != Violation("symmetry", (2, 1), "d")
    assert analyze(corpus.diamond()) != analyze(corpus.boolean(2))


@pytest.mark.parametrize("cls", ORDERED, ids=lambda c: c.__name__)
def test_ordered_records_sort_by_fields(cls):
    pairs = [(2, 0), (0, 3), (1, 1), (0, 1), (1, 0)]
    records = [cls(*p) for p in pairs]
    assert sorted(records) == [cls(*p) for p in sorted(pairs)]
    assert cls(0, 1) < cls(0, 2) < cls(1, 0)
    assert cls(1, 0) >= cls(0, 9) and cls(0, 1) <= cls(0, 1)
    assert max(records) == cls(2, 0)


@pytest.mark.parametrize("record, field", [
    (PrimeInterval(0, 1), "lo"),
    (MeetIrreducible(1, 4), "plus"),
    (JoinIrreducible(2, 0), "element"),
    (SplittingPair(1, 2), "epsilon"),
    (Violation("symmetry", (1, 2), "d"), "law"),
    (SeriesReport((2, 2), (2, 2), "none"), "kind"),
    (analyze(corpus.diamond()), "forces_abelian_type"),
], ids=lambda x: type(x).__name__ if not isinstance(x, str) else x)
def test_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 7)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


def test_record_methods_and_properties():
    report = series(largest_commutator(corpus.diamond()))
    assert report.kind == "abelian"
    assert report.is_nilpotent and report.is_solvable
    chain = SeriesReport((2, 2), (2, 2), "none")
    assert not (chain.is_nilpotent or chain.is_solvable)
    assert [v.law for v in CommutatorTable.violations(
        corpus.chain(3), [[0, 0, 0], [0, 1, 1], [0, 0, 2]])] == \
        ["symmetry", "join-distributivity"]
