import itertools
import random

import pytest

from commlat import classify, corpus
from commlat.classify import (
    analyze,
    forces_abelian_type,
    forces_nilpotent_type,
    forces_solvable_type,
    supernilpotency_shape,
)
from commlat.commutator import largest_commutator, series
from commlat.errors import NotModular, VerificationError
from commlat.lattice import (
    FiniteLattice,
    SublatticeEmbedding,
    is_complemented,
    is_simple,
)


def test_m3_forces_everything(m3):
    assert forces_solvable_type(m3)
    assert forces_nilpotent_type(m3)
    assert forces_abelian_type(m3)
    assert supernilpotency_shape(m3)


def test_b2_forces_nothing(b2):
    assert not forces_solvable_type(b2)
    assert not supernilpotency_shape(b2)


def test_chain_forces_nothing(chain3):
    assert not forces_solvable_type(chain3)
    assert not forces_nilpotent_type(chain3)
    assert not forces_abelian_type(chain3)
    assert not supernilpotency_shape(chain3)


def test_b22_verdicts(b22):
    assert not forces_solvable_type(b22)
    assert not forces_nilpotent_type(b22)
    assert not forces_abelian_type(b22)
    assert not supernilpotency_shape(b22)


def test_one_element_forces_everything():
    one = corpus.chain(1)
    report = analyze(one)
    assert report.forces_solvable_type
    assert report.forces_nilpotent_type
    assert report.forces_abelian_type
    assert report.supernilpotency_shape


def test_boolean_cube_verdicts():
    cube = corpus.boolean(3)
    report = analyze(cube)
    assert not report.forces_solvable_type
    assert not report.supernilpotency_shape


def test_nonmodular_rejected(n5):
    with pytest.raises(NotModular):
        analyze(n5)
    with pytest.raises(NotModular):
        forces_solvable_type(n5)
    assert not supernilpotency_shape(n5)  # shape check has no modularity gate


def test_analyze_report_fields(m3):
    report = analyze(m3)
    assert report.n == 5
    assert report.modular
    assert report.largest_top_square == 0
    assert report.solvable_obstruction is None
    assert report.abelian_sufficient_condition == (0, 1, 2, 3, 4)
    assert report.splitting_pairs == ()
    assert all(g == m3.top for (_, _, g) in report.cover_ceilings)
    doc = report.to_doc()
    assert doc["forces_abelian_type"] is True
    assert doc["abelian_sufficient_condition"] == [0, 1, 2, 3, 4]
    assert "yes" in report.summary()


def test_analyze_b22_witnesses(b22):
    report = analyze(b22)
    assert report.solvable_obstruction == (0, 0, 1, 1)
    assert report.largest_top_square == b22.top
    assert report.abelian_sufficient_condition is None
    assert set(report.splitting_pairs) == {(1, 2), (2, 1)}


def test_nesting_on_corpus(modular6):
    for lat in modular6:
        report = analyze(lat)
        if report.forces_abelian_type:
            assert report.forces_nilpotent_type
        if report.forces_nilpotent_type:
            assert report.forces_solvable_type


def test_verdicts_match_largest_series(modular6):
    for lat in modular6:
        rep = series(largest_commutator(lat))
        assert forces_solvable_type(lat) == rep.is_solvable
        assert forces_nilpotent_type(lat) == rep.is_nilpotent
        assert forces_abelian_type(lat) == rep.is_abelian


def test_abelian_witness_is_genuine(modular6):
    for lat in modular6:
        report = analyze(lat)
        witness = report.abelian_sufficient_condition
        if witness is None:
            continue
        sub = SublatticeEmbedding(lat, witness)
        assert sub.is_zero_one
        own, _ = sub.as_lattice()
        assert own.n >= 3
        assert own.is_modular() and is_simple(own) and is_complemented(own)
        assert report.forces_abelian_type


def test_witness_failing_its_check_is_a_bug(m3, monkeypatch):
    monkeypatch.setattr(classify, "is_simple", lambda lat: False)
    with pytest.raises(VerificationError):
        analyze(m3)


def test_supernilpotency_matches_splitting(all6):
    from commlat.projectivity import splits

    for lat in all6:
        assert supernilpotency_shape(lat) == (not splits(lat))


def _relabel(lat, rng):
    perm = list(range(lat.n))
    rng.shuffle(perm)
    return FiniteLattice(lat.n, {(perm[x], perm[y]) for x, y in lat.covers})


def _brute_force_has_witness(lat):
    """Whether some (0,1)-subset with >= 3 elements is a simple complemented
    modular sublattice, by trying every subset."""
    inner = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
    for k in range(1, len(inner) + 1):
        for extra in itertools.combinations(inner, k):
            members = {lat.bottom, lat.top, *extra}
            if any(lat.meet(x, y) not in members
                   or lat.join(x, y) not in members
                   for x in members for y in members):
                continue
            own, _ = SublatticeEmbedding(lat, members).as_lattice()
            if own.is_modular() and is_simple(own) and is_complemented(own):
                return True
    return False


def _first_complement_triple(lat):
    def complements(x, y):
        return lat.meet(x, y) == lat.bottom and lat.join(x, y) == lat.top

    for triple in itertools.combinations(lat.elements, 3):
        if all(complements(x, y) for x, y in itertools.combinations(triple, 2)):
            return triple
    return None


def test_abelian_witness_matches_brute_force(modular8):
    # on the corpus names and on two seeded renamings of each lattice
    rng = random.Random(8)
    for base in modular8:
        for lat in [base, _relabel(base, rng), _relabel(base, rng)]:
            witness = analyze(lat).abelian_sufficient_condition
            assert (witness is not None) == _brute_force_has_witness(lat)
            if witness is not None:
                triple = _first_complement_triple(lat)
                assert witness == tuple(sorted((lat.bottom, lat.top, *triple)))


def _m(k):
    return FiniteLattice(k + 2, {(0, a) for a in range(1, k + 1)}
                         | {(a, k + 1) for a in range(1, k + 1)})


def _product(a, b):
    """Element (x, y) is numbered x * b.n + y."""
    covers = {(x * b.n + y, hi * b.n + y) for (x, hi) in a.covers
              for y in b.elements}
    covers |= {(x * b.n + y, x * b.n + hi) for (y, hi) in b.covers
               for x in a.elements}
    return FiniteLattice(a.n * b.n, covers)


def _fano():
    """0, the seven points 1..7, the seven lines 8..14, and the plane 15."""
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
             (2, 3, 6), (2, 4, 5)]
    covers = {(0, 1 + p) for p in range(7)}
    covers |= {(1 + p, 8 + i) for i, line in enumerate(lines) for p in line}
    covers |= {(8 + i, 15) for i in range(7)}
    return FiniteLattice(16, covers)


@pytest.mark.parametrize("lat, forced, witness", [
    pytest.param(corpus.chain(32), (False, False, False), False, id="C32"),
    pytest.param(corpus.boolean(6), (False, False, False), False, id="B6"),
    pytest.param(_product(_m(4), _m(5)), (True, True, True), True,
                 id="M4xM5"),
    # simple, complemented and modular, but a plane has no three pairwise
    # complements: the witness is out of scope, the verdict is not
    pytest.param(_fano(), (True, True, True), False, id="Fano"),
])
def test_analyze_at_scale(lat, forced, witness):
    report = analyze(lat)
    assert (report.forces_solvable_type, report.forces_nilpotent_type,
            report.forces_abelian_type) == forced
    assert (report.abelian_sufficient_condition is not None) == witness
