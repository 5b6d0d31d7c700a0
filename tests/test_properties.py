"""Randomized law checks over the small-lattice corpus."""

from hypothesis import given, strategies as st

from commlat import corpus
from commlat.commutator import enumerate_commutators, residuation
from commlat.lattice import FiniteLattice, congruence_generated
from families import rename

LATTICES = corpus.generate_corpus(6)
SMALL = [lat for lat in corpus.generate_corpus(4)]
TABLES = {lat: enumerate_commutators(lat) for lat in SMALL}


def _refines(fine, coarse):
    # every block of ``fine`` lies inside one block of ``coarse``
    return all(len({coarse.class_of[x] for x in b}) == 1 for b in fine.blocks)


@given(st.data())
def test_canonical_key_is_relabeling_invariant(data):
    lat = data.draw(st.sampled_from(LATTICES))
    perm = data.draw(st.permutations(range(lat.n)))
    relabeled = FiniteLattice(*rename((lat.n, lat.covers), perm))
    assert corpus.canonical_key(relabeled) == corpus.canonical_key(lat)


@given(st.data())
def test_dual_swaps_meet_and_join(data):
    lat = data.draw(st.sampled_from(LATTICES))
    dual = lat.dual()
    x = data.draw(st.integers(0, lat.n - 1))
    y = data.draw(st.integers(0, lat.n - 1))
    assert dual.meet(x, y) == lat.join(x, y)
    assert dual.join(x, y) == lat.meet(x, y)
    assert dual.leq(x, y) == lat.leq(y, x)


def _pairs(n):
    element = st.integers(0, n - 1)
    return st.lists(st.tuples(element, element), max_size=4)


@given(st.data())
def test_congruence_generated_contains_seed_and_grows(data):
    lat = data.draw(st.sampled_from(LATTICES))
    seed = data.draw(_pairs(lat.n))
    extra = data.draw(_pairs(lat.n))
    part = congruence_generated(lat, seed)
    assert all(part.related(x, y) for x, y in seed)
    assert _refines(part, congruence_generated(lat, seed + extra))


@given(st.data())
def test_congruence_generated_idempotent(data):
    lat = data.draw(st.sampled_from(LATTICES))
    part = congruence_generated(lat, data.draw(_pairs(lat.n)))
    pairs = [(b[0], x) for b in part.blocks for x in b[1:]]
    assert congruence_generated(lat, pairs).blocks == part.blocks


@given(st.data())
def test_residuation_is_galois(data):
    lat = data.draw(st.sampled_from(SMALL))
    table = data.draw(st.sampled_from(TABLES[lat]))
    x = data.draw(st.integers(0, lat.n - 1))
    y = data.draw(st.integers(0, lat.n - 1))
    z = data.draw(st.integers(0, lat.n - 1))
    assert lat.leq(table.value(z, y), x) == \
        lat.leq(z, residuation(table, x, y))
