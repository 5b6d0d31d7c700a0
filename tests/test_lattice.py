import itertools
import random
import time
import tracemalloc

import pytest

from commlat import corpus, lattice
from commlat.errors import (
    CycleDetected,
    EmptySublattice,
    LatticeTooLarge,
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
    # the size check runs before anything is allocated per element
    for n in (2000, 10**6):
        tracemalloc.start()
        try:
            with pytest.raises(LatticeTooLarge):
                FiniteLattice(n, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_size_limit():
    with pytest.raises(LatticeTooLarge):
        corpus.chain(65)
    assert corpus.boolean(6).n == 64


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


def _modular_by_identity(lat):
    """The O(n^3) modular law: x <= z gives x v (y ^ z) = (x v y) ^ z."""
    return all(lat.join(x, lat.meet(y, z)) == lat.meet(lat.join(x, y), z)
               for x in lat.elements for z in lat.elements if lat.leq(x, z)
               for y in lat.elements)


def _m(k):
    return build(k + 2, {(0, a) for a in range(1, k + 1)}
                 | {(a, k + 1) for a in range(1, k + 1)})


def _product(a, b):
    """Element (x, y) is numbered x * b.n + y."""
    covers = {(x * b.n + y, hi * b.n + y) for (x, hi) in a.covers
              for y in b.elements}
    covers |= {(x * b.n + y, x * b.n + hi) for (y, hi) in b.covers
               for x in a.elements}
    return build(a.n * b.n, covers)


def test_is_modular_matches_the_identity_on_the_corpus(all8):
    # on the corpus names and three seeded renamings of each lattice
    rng = random.Random(11)
    for base in all8:
        for lat in [base] + [_relabel(base, _shuffled(rng, base.n))
                             for _ in range(3)]:
            assert lattice._is_modular(lat) == _modular_by_identity(lat), lat


@pytest.mark.parametrize("lat, modular", [
    (corpus.chain(64), True),
    (corpus.boolean(6), True),
    (_m(62), True),
    (_product(corpus.chain(2), corpus.chain(32)), True),
    (_product(_m(4), _m(5)), True),
    # modular, nilpotent and not abelian (its [top, top] is 3)
    (build(8, {(0, 1), (0, 2), (0, 3), (1, 6), (2, 6), (3, 4), (3, 5),
               (3, 6), (4, 7), (5, 7), (6, 7)}), True),
    (_product(corpus.pentagon(), corpus.chain(8)), False),
    (_product(_m(3), corpus.pentagon()), False),
], ids=["C64", "B6", "M62", "C2xC32", "M4xM5", "n8", "N5xC8", "M3xN5"])
def test_is_modular_matches_the_identity_at_scale(lat, modular):
    assert lattice._is_modular(lat) == _modular_by_identity(lat) == modular


# -- the cover masks ---------------------------------------------------------


def _brute_force_covers(lat):
    """x < y with nothing strictly between, read off the order."""
    return {(x, y) for x in lat.elements for y in lat.elements
            if lat.lt(x, y)
            and not any(lat.lt(x, z) and lat.lt(z, y) for z in lat.elements)}


def _assert_masks_are_the_covers(lat, given):
    covers = _brute_force_covers(lat)
    assert covers == given
    assert lat._lower == [sum(1 << x for x, z in covers if z == y)
                          for y in lat.elements]
    assert lat._upper == [sum(1 << y for z, y in covers if z == x)
                          for x in lat.elements]
    assert lat.covers == given
    assert lat.cover_pairs() == tuple(sorted(given))
    assert all(lat.is_cover(x, y) == ((x, y) in given)
               for x in lat.elements for y in lat.elements)


def test_cover_masks_on_the_corpus(all8):
    # the corpus names and three seeded renamings of each lattice
    rng = random.Random(18)
    for base in all8:
        given = set(base.cover_pairs())
        _assert_masks_are_the_covers(base, given)
        for _ in range(3):
            perm = _shuffled(rng, base.n)
            renamed = {(perm[x], perm[y]) for x, y in given}
            _assert_masks_are_the_covers(build(base.n, renamed), renamed)


@pytest.mark.parametrize("given", [
    {(m, m | 1 << b) for m in range(64) for b in range(6) if not m >> b & 1},
    {(i, i + 1) for i in range(63)},
    {(0, a) for a in range(1, 63)} | {(a, 63) for a in range(1, 63)},
    set(_product(corpus.chain(2), corpus.chain(32)).cover_pairs()),
    set(_product(_m(4), _m(5)).cover_pairs()),
], ids=["B6", "C64", "M62", "C2xC32", "M4xM5"])
def test_cover_masks_at_scale(given):
    n = max(y for _, y in given) + 1
    _assert_masks_are_the_covers(build(n, given), given)


def test_is_cover_outside_the_elements(m3):
    assert not any(m3.is_cover(x, y) for x, y in [(-1, 0), (0, -1), (4, 5),
                                                  (5, 4)])


@pytest.mark.parametrize("lat", [corpus.pentagon(), corpus.diamond(),
                                 corpus.chain(3), corpus.boolean(2)],
                         ids=["N5", "M3", "C3", "B2"])
def test_equality_and_hash_follow_the_covers(lat):
    pairs = lat.cover_pairs()
    forward, backward = build(lat.n, pairs), build(lat.n, pairs[::-1])
    assert forward == backward and hash(forward) == hash(backward)
    dual = lat.dual()
    assert forward != dual and hash(forward) != hash(dual)


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


@pytest.mark.parametrize("k", [20, 64])
def test_all_congruences_refuses_too_many(k, monkeypatch):
    # C20 has 2^19 congruences and C64 2^63: refused while the down-sets
    # are counted, before any of their closures runs
    calls = []

    def counted(lat, seed, joined=()):
        calls.append(seed)
        return congruence_generated(lat, seed, joined)

    monkeypatch.setattr(lattice, "congruence_generated", counted)
    start = time.perf_counter()
    with pytest.raises(LatticeTooLarge, match="congruences"):
        all_congruences(corpus.chain(k))
    assert time.perf_counter() - start < 0.5
    assert len(calls) == k - 1     # the principal congruences only


@pytest.mark.parametrize("lat", [corpus.chain(10), corpus.boolean(5)],
                         ids=["C10", "B5"])
def test_all_congruences_closes_once_per_congruence(lat, monkeypatch):
    calls = []

    def counted(lat, seed, joined=()):
        calls.append(seed)
        return congruence_generated(lat, seed, joined)

    monkeypatch.setattr(lattice, "congruence_generated", counted)
    congruences = all_congruences(lat)
    assert 0 < len(calls) <= len(congruences)


def test_is_simple_reuses_the_principal_closures(monkeypatch):
    calls = []

    def counted(lat, seed, joined=()):
        calls.append(seed)
        return congruence_generated(lat, seed, joined)

    monkeypatch.setattr(lattice, "congruence_generated", counted)
    lat = corpus.boolean(3)
    all_congruences(lat)
    closures = len(calls)
    assert not is_simple(lat)
    assert len(calls) == closures
    assert is_simple(corpus.diamond())
    assert len(calls) == closures + 3


def _congruences_by_closures(lat):
    # the route before joins: one closure seeded with the generators
    # (k-, k) of each down-set of J(L), the down-sets found as unions of
    # the principal masks
    lower = {y: [x for x, z in lat.covers if z == y] for y in lat.elements}
    generators = [(below[0], j) for j, below in sorted(lower.items())
                  if len(below) == 1]
    principal = set()
    for i, pair in enumerate(generators):
        theta = congruence_generated(lat, [pair])
        principal.add(sum(1 << k for k, (lo, j) in enumerate(generators)
                          if theta.related(lo, j)) | 1 << i)
    downsets = {0}
    for mask in principal:
        downsets |= {d | mask for d in downsets}
    return sorted((congruence_generated(
        lat, [pair for k, pair in enumerate(generators) if s >> k & 1])
        for s in downsets), key=lambda p: p.blocks)


def test_all_congruences_joins_as_one_closure_per_down_set(all7, modular8):
    # every corpus lattice with at most 7 elements, the modular ones with
    # 8, C10 and B5, each also under three random renamings, which need not
    # extend the order
    rng = random.Random(20)
    bases = (all7 + [lat for lat in modular8 if lat.n == 8]
             + [corpus.chain(10), corpus.boolean(5)])
    for base in bases:
        for lat in [base] + [_relabel(base, _shuffled(rng, base.n))
                             for _ in range(3)]:
            joined = all_congruences(lat)
            closed = _congruences_by_closures(lat)
            assert joined == closed
            assert [p.class_of for p in joined] == [p.class_of for p in closed]


def test_congruence_generated_joins_as_the_closure_of_the_block_pairs(all6):
    rng = random.Random(21)
    for base in all6:
        lat = _relabel(base, _shuffled(rng, base.n))
        congruences = all_congruences(lat)
        pairs = list(itertools.combinations(lat.elements, 2))
        for _ in range(20):
            joined = tuple(rng.choice(congruences)
                           for _ in range(rng.randrange(1, 3)))
            seed = rng.sample(pairs, min(len(pairs), rng.randrange(3)))
            blocks = [(b[0], y) for theta in joined for b in theta.blocks
                      for y in b[1:]]
            generated = congruence_generated(lat, seed, joined)
            closed = congruence_generated(lat, seed + blocks)
            assert generated == closed
            assert generated.class_of == closed.class_of


def test_partitions_of_another_lattice_are_refused():
    c2, c3 = corpus.chain(2), corpus.chain(3)
    theta2, theta3 = LatticePartition.identity(c2), LatticePartition.identity(c3)
    for theta, other in ((theta3, theta2), (theta2, theta3)):
        with pytest.raises(ValueError, match="different lattice"):
            theta.refines(other)
    for joined in ((theta2,), (theta3, theta2)):
        with pytest.raises(ValueError, match="different lattice"):
            congruence_generated(c3, [], joined)
    # an equal lattice built apart is the same lattice
    assert theta3.refines(LatticePartition.single_block(corpus.chain(3)))
    assert congruence_generated(corpus.chain(3), [], (theta3,)) == theta3


def test_all_congruences_checks_the_down_set(monkeypatch):
    # a join that collapses everything breaks the bijection with the
    # down-sets of J(L)
    def wrong(lat, seed, joined=()):
        if joined:
            return LatticePartition.single_block(lat)
        return congruence_generated(lat, seed, joined)

    monkeypatch.setattr(lattice, "congruence_generated", wrong)
    with pytest.raises(VerificationError, match="down-set"):
        all_congruences(corpus.chain(4))


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


@pytest.mark.parametrize("blocks, message", [
    ([(0, 0, 1), (2,)], r"^element 0 appears twice in the blocks$"),
    ([(0, 1), (1, 2)], r"^element 1 appears twice in the blocks$"),
    ([(0, 1), (), (2,)], r"^block 1 is empty$"),
    ([(0, 1), (2, 3)], r"^blocks do not partition 0\.\.2$"),
])
def test_partition_refuses_bad_blocks_instead_of_repairing(chain3, blocks,
                                                           message):
    with pytest.raises(ValueError, match=message):
        LatticePartition(chain3, blocks)


def test_partition_names_the_separating_translation(chain3, m3):
    # the check compares whole rows, then names the first z that separates
    with pytest.raises(NotACongruence,
                       match=r"^meet translation by 1 separates 0 ~ 2$"):
        LatticePartition(chain3, [(0, 2), (1,)])
    with pytest.raises(NotACongruence,
                       match=r"^join translation by 2 separates 0 ~ 1$"):
        LatticePartition(m3, [(0, 1), (2,), (3,), (4,)])


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


def _brute_force_quotient_covers(lat, partition):
    """The covers of the quotient from its order, [x] <= [y] iff
    [x v y] = [y], in O(k^3) for k blocks."""
    cls = partition.class_of
    reps = [b[0] for b in partition.blocks]
    k = len(reps)

    def leq(i, j):
        return cls[lat.join(reps[i], reps[j])] == j

    return {(i, j) for i in range(k) for j in range(k)
            if i != j and leq(i, j)
            and not any(m != i and m != j and leq(i, m) and leq(m, j)
                        for m in range(k))}


def test_quotient_covers_match_the_quotient_order(all6):
    # on the corpus names and on random renamings
    rng = random.Random(9)
    for base in all6:
        for lat in [base] + [_relabel(base, _shuffled(rng, base.n))
                             for _ in range(2)]:
            for part in all_congruences(lat):
                image, _ = quotient(lat, part)
                assert image.covers == _brute_force_quotient_covers(lat, part)


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


@pytest.mark.parametrize("seed", [[7], [1, -1]])
def test_generated_rejects_elements_out_of_range(m3, seed):
    with pytest.raises(ValueError, match="out of range"):
        SublatticeEmbedding.generated(m3, seed)


def test_closure_in_sublattice(m3):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    assert sub.closure(1) == 1     # already a member
    assert sub.closure(2) == 4     # only member above is top
    two_point = SublatticeEmbedding(m3, [0, 4])
    assert two_point.closure(3) == 4


@pytest.mark.parametrize("x", [-1, 5])
def test_closure_rejects_elements_out_of_range(m3, x):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    with pytest.raises(ValueError, match="out of range"):
        sub.closure(x)


def test_closure_failing_its_check_is_a_bug(m3, monkeypatch):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    monkeypatch.setattr(FiniteLattice, "meet_all", lambda self, xs: 2)
    with pytest.raises(VerificationError):
        sub.closure(1)


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


def test_map_names_the_first_pair_not_preserved(chain3, b22, b2):
    with pytest.raises(NotAHomomorphism, match=r"^meet of 1, 2 not preserved$"):
        LatticeMap(chain3, b2, (0, 1, 0))
    with pytest.raises(NotAHomomorphism, match=r"^join of 1, 2 not preserved$"):
        LatticeMap(b22, b2, (0, 0, 0, 1))
