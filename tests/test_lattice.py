import itertools
import random
import tracemalloc

import pytest

from commlat import corpus
from commlat.errors import (
    CycleDetected,
    EmptySublattice,
    NotACongruence,
    NotAHomomorphism,
    NotALattice,
    NotASublattice,
    RedundantCover,
    VerificationError,
)
from commlat.lattice import (
    FiniteLattice,
    LatticeMap,
    LatticePartition,
    SublatticeEmbedding,
    all_congruences,
    build,
    congruence_generated,
    is_complemented,
    is_simple,
    quotient,
)


def test_one_element_lattice():
    lat = build(1, set())
    assert lat.bottom == lat.top == 0
    assert lat.meet(0, 0) == lat.join(0, 0) == 0


def test_m3_build(m3):
    assert m3.bottom == 0 and m3.top == 4
    assert m3.meet(1, 2) == 0 and m3.join(1, 2) == 4
    assert m3.leq(0, 4) and not m3.leq(1, 2)


def test_build_rejects_non_lattice():
    # 1 and 2 have no common upper bound, so no join
    with pytest.raises(NotALattice):
        build(4, {(0, 1), (0, 2), (1, 3)})
    # one bottom and one top, but 1 and 2 have two minimal upper bounds
    with pytest.raises(NotALattice, match="have no"):
        build(6, {(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5),
                  (4, 5)})


def test_build_rejects_two_minimal_elements():
    with pytest.raises(NotALattice):
        build(3, {(0, 2), (1, 2)})


def test_build_rejects_antichain_before_tables():
    # the bottom/top check runs before the n^2 meet and join tables exist
    tracemalloc.start()
    try:
        with pytest.raises(NotALattice):
            FiniteLattice(2000, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        build(3, {(0, 1), (1, 2), (2, 0)})


def test_build_rejects_redundant_cover():
    with pytest.raises(RedundantCover):
        build(3, {(0, 1), (1, 2), (0, 2)})


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build(0, set())
    with pytest.raises(ValueError):
        build(2, {(0, 5)})
    with pytest.raises(ValueError):
        build(2, {(1, 1)})


def test_tables_agree_with_order(all6):
    # independent recomputation: the meet must be the greatest common lower
    # bound under leq, the join the least common upper bound
    for lat in all6:
        for x in lat.elements:
            for y in lat.elements:
                lower = [z for z in lat.elements if lat.leq(z, x) and lat.leq(z, y)]
                best = [z for z in lower
                        if all(lat.leq(w, z) for w in lower)]
                assert best == [lat.meet(x, y)]
                upper = [z for z in lat.elements if lat.leq(x, z) and lat.leq(y, z)]
                best = [z for z in upper
                        if all(lat.leq(z, w) for w in upper)]
                assert best == [lat.join(x, y)]


def test_absorption_and_associativity(all8):
    for lat in all8:
        for x, y, z in itertools.product(lat.elements, repeat=3):
            assert lat.meet(x, lat.join(x, y)) == x
            assert lat.join(x, lat.meet(x, y)) == x
            assert lat.meet(x, lat.meet(y, z)) == lat.meet(lat.meet(x, y), z)
            assert lat.join(x, lat.join(y, z)) == lat.join(lat.join(x, y), z)


def test_empty_meet_and_join_conventions(m3):
    assert m3.meet_all([]) == m3.top
    assert m3.join_all([]) == m3.bottom


def test_modularity(m3, n5, chain3, b22):
    assert m3.is_modular()
    assert not n5.is_modular()
    assert chain3.is_modular()
    assert b22.is_modular()


def test_dual_involution(all6):
    for lat in all6:
        assert lat.dual().dual() == lat


def test_dual_examples(m3, b22, chain3):
    assert corpus.isomorphic(m3.dual(), m3)
    assert corpus.isomorphic(b22.dual(), b22)
    dual_chain = chain3.dual()
    assert dual_chain.bottom == 2 and dual_chain.top == 0


# -- congruences -------------------------------------------------------------


def test_congruence_generated_empty_seed(m3):
    assert congruence_generated(m3, []) == LatticePartition.identity(m3)


def test_congruence_generated_b22(b22):
    part = congruence_generated(b22, [(2, 3)])
    assert part.blocks == ((0, 1), (2, 3))


def test_congruence_generated_m3_collapses(m3):
    for atom in (1, 2, 3):
        assert congruence_generated(m3, [(0, atom)]).num_blocks == 1


def _congruence_property_holds(lat, class_of):
    for x in lat.elements:
        for y in lat.elements:
            if class_of[x] != class_of[y]:
                continue
            for z in lat.elements:
                if class_of[lat.meet(x, z)] != class_of[lat.meet(y, z)]:
                    return False
                if class_of[lat.join(x, z)] != class_of[lat.join(y, z)]:
                    return False
    return True


def _all_partitions(n):
    # every set partition of range(n), by assigning each element to an
    # existing block or a new one
    def rec(x, blocks):
        if x == n:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(x)
            yield from rec(x + 1, blocks)
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


def _brute_force_congruences(lat):
    out = []
    for blocks in _all_partitions(lat.n):
        class_of = {}
        for i, b in enumerate(blocks):
            for x in b:
                class_of[x] = i
        if _congruence_property_holds(lat, class_of):
            out.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return sorted(out)


def test_congruence_generated_is_least(all5):
    # oracle: enumerate every congruence by brute force over set partitions
    for lat in all5:
        congruences = _brute_force_congruences(lat)
        pairs = [(x, y) for x in lat.elements for y in lat.elements if x < y]
        for seed in itertools.combinations(pairs, 2):
            generated = congruence_generated(lat, seed)
            for blocks in congruences:
                class_of = {x: i for i, b in enumerate(blocks) for x in b}
                if all(class_of[a] == class_of[b] for a, b in seed):
                    # any congruence containing the seed contains the result
                    for block in generated.blocks:
                        assert len({class_of[x] for x in block}) == 1


def _relabel(lat, perm):
    """The lattice with element x renamed perm[x]."""
    return build(lat.n, {(perm[x], perm[y]) for x, y in lat.covers})


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def test_all_congruences_matches_brute_force(all6):
    # on the corpus names and on random renamings, which need not extend
    # the order
    rng = random.Random(6)
    for base in all6:
        for lat in [base] + [_relabel(base, _shuffled(rng, base.n))
                             for _ in range(3)]:
            congruences = _brute_force_congruences(lat)
            assert [p.blocks for p in all_congruences(lat)] == congruences
            assert is_simple(lat) == (len(congruences) == 2)


def test_all_congruences_on_names_against_the_order():
    # C4 named top-down, and the glued sum C2+B2 renamed by [2, 1, 3, 0, 4]:
    # in both some x < y as integers has y below x in the order
    assert len(all_congruences(build(4, {(3, 2), (2, 1), (1, 0)}))) == 8
    glued = build(5, {(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)})
    assert len(all_congruences(_relabel(glued, [2, 1, 3, 0, 4]))) == 8


def test_all_congruences_at_scale():
    # Con C_k is Boolean on k - 1 atoms and Con B_k on k atoms
    assert len(all_congruences(corpus.chain(10))) == 512
    assert len(all_congruences(corpus.boolean(5))) == 32


def test_congruence_generated_reports_a_failed_check_as_a_bug(m3, monkeypatch):
    def failing_check(self):
        raise NotACongruence("forced")

    monkeypatch.setattr(LatticePartition, "_check_congruence", failing_check)
    with pytest.raises(VerificationError):
        congruence_generated(m3, [(0, 1)])


def test_partition_rejects_non_congruence(chain3):
    # 0 ~ 2 forces 0v1 ~ 2v1, i.e. 1 ~ 2, so {{0,2},{1}} is no congruence
    with pytest.raises(NotACongruence):
        LatticePartition(chain3, [(0, 2), (1,)])
    with pytest.raises(ValueError):
        LatticePartition(chain3, [(0, 1)])


def test_quotient_identity_and_full(m3):
    image, proj = quotient(m3, LatticePartition.identity(m3))
    assert corpus.isomorphic(image, m3)
    assert proj.is_zero_one
    image, proj = quotient(m3, LatticePartition.single_block(m3))
    assert image.n == 1


def test_quotient_b22_to_b2(b22, b2):
    part = congruence_generated(b22, [(2, 3)])
    image, proj = quotient(b22, part)
    assert image == b2
    assert proj.is_zero_one
    assert proj(0) == proj(1) == 0 and proj(2) == proj(3) == 1


def test_quotient_projection_preserves_structure(all6):
    for lat in all6:
        for part in all_congruences(lat):
            image, proj = quotient(lat, part)
            assert proj.is_zero_one  # constructor already checks meets/joins


# -- simplicity, complements -------------------------------------------------


def test_is_simple(m3, b2, b22, chain3):
    assert is_simple(m3)
    assert is_simple(b2)
    assert not is_simple(b22)
    assert not is_simple(chain3)
    assert not is_simple(corpus.chain(1))


def test_is_simple_agrees_with_congruence_count(all6):
    for lat in all6:
        expected = lat.n >= 2 and len(all_congruences(lat)) == 2
        assert is_simple(lat) == expected


def test_is_complemented(m3, b2, b22, chain3):
    assert is_complemented(m3)
    assert is_complemented(b2)
    assert is_complemented(b22)
    assert not is_complemented(chain3)


# -- sublattices and maps ----------------------------------------------------


def test_sublattice_validation(m3):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    assert sub.is_zero_one
    with pytest.raises(NotASublattice):
        SublatticeEmbedding(m3, [1, 2])  # missing meet 0 and join 4
    with pytest.raises(EmptySublattice):
        SublatticeEmbedding(m3, [])


def test_sublattice_generated(m3):
    sub = SublatticeEmbedding.generated(m3, [1, 2])
    assert sub.members == {0, 1, 2, 4}


def test_closure_in_sublattice(m3):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    assert sub.closure(1) == 1     # already a member
    assert sub.closure(2) == 4     # only member above is top
    two_point = SublatticeEmbedding(m3, [0, 4])
    assert two_point.closure(3) == 4


def test_closure_join_identity(all6):
    # closure of a join equals the join of the closures, for (0,1)-sublattices
    for lat in all6:
        inner = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
        for mask in range(1 << len(inner)):
            members = {lat.bottom, lat.top}
            members.update(x for i, x in enumerate(inner) if mask >> i & 1)
            try:
                sub = SublatticeEmbedding(lat, members)
            except NotASublattice:
                continue
            for x in lat.elements:
                for y in lat.elements:
                    assert sub.closure(lat.join(x, y)) == \
                        lat.join(sub.closure(x), sub.closure(y))


def test_closure_without_upper_member():
    lat = corpus.boolean(2)
    sub = SublatticeEmbedding(lat, [0, 1])  # does not contain top
    with pytest.raises(EmptySublattice):
        sub.closure(2)


def test_sublattice_as_lattice(m3):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    own, embed = sub.as_lattice()
    assert own == corpus.chain(3)
    assert embed == (0, 1, 4)


def test_map_validation(chain3, b2):
    hom = LatticeMap(chain3, b2, (0, 1, 1))
    assert hom.is_zero_one
    not_01 = LatticeMap(chain3, b2, (0, 0, 0))
    assert not not_01.is_zero_one
    with pytest.raises(NotAHomomorphism):
        LatticeMap(chain3, b2, (0, 1, 0))
