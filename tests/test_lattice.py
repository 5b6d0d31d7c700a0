import itertools
import random
import time
import tracemalloc

import pytest

from commlat import corpus, fileio, lattice
from commlat.cli import main
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
from commlat.projectivity import PrimeInterval, separating_congruence


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


def _count_calls(monkeypatch):
    """The seeds of every congruence_generated call and every partition
    built, from now on."""
    calls, built = [], []
    fill = LatticePartition._fill

    def counted(lat, seed):
        calls.append(seed)
        return congruence_generated(lat, seed)

    def counted_fill(self, lat, label):
        built.append(label)
        return fill(self, lat, label)

    monkeypatch.setattr(lattice, "congruence_generated", counted)
    monkeypatch.setattr(LatticePartition, "_fill", counted_fill)
    return calls, built


@pytest.mark.parametrize("k", [20, 64])
def test_all_congruences_refuses_too_many(k, monkeypatch):
    # C20 has 2^19 congruences and C64 2^63: refused while the down-sets
    # are counted, before any partition is built
    lat = corpus.chain(k)
    calls, built = _count_calls(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(LatticeTooLarge, match="congruences"):
        all_congruences(lat)
    assert time.perf_counter() - start < 0.5
    assert calls == [] and built == []


@pytest.mark.parametrize("lat", [corpus.chain(10), corpus.boolean(5)],
                         ids=["C10", "B5"])
def test_all_congruences_closes_once_per_congruence(lat, monkeypatch):
    calls, built = _count_calls(monkeypatch)
    congruences = all_congruences(lat)
    assert len(calls) == len(built) == len(congruences)


def test_is_simple_builds_at_most_one_congruence_per_join_irreducible(
        monkeypatch):
    calls, _ = _count_calls(monkeypatch)
    for lat, simple in ((corpus.boolean(3), False), (corpus.diamond(), True),
                        (corpus.pentagon(), False), (_m(7), True)):
        del calls[:]
        assert is_simple(lat) is simple
        # the dependency masks pick one j, and con(j-, j) gives the answer
        assert len(calls) == 1


def _fixpoint(lat, seed):
    # con(seed) by brute force, sharing no code with the engine: a class is
    # named by its least member, and whenever a meet or a join translate
    # separates x from the least member of its class, the two classes merge;
    # repeat until no translate separates anything
    cls = list(lat.elements)

    def merge(a, b):
        keep, drop = sorted((cls[a], cls[b]))
        cls[:] = [keep if c == drop else c for c in cls]

    for a, b in seed:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for x, z in itertools.product(lat.elements, repeat=2):
            for op in (lat.meet, lat.join):
                if cls[op(x, z)] != cls[op(cls[x], z)]:
                    merge(op(x, z), op(cls[x], z))
                    changed = True
    blocks = {}
    for x in lat.elements:
        blocks.setdefault(cls[x], []).append(x)
    return tuple(map(tuple, blocks.values()))


def _fixpoint_congruences(lat):
    # every congruence: the down-sets of the quasiorder on the join
    # irreducibles that the principal fixpoints give, each closed from
    # its generators (k-, k)
    generators = [(x, j) for x, j in lat.covers
                  if [y for y, z in lat.covers if z == j] == [x]]
    principal = set()
    for pair in generators:
        blocks = _fixpoint(lat, [pair])
        principal.add(frozenset(k for k in generators
                                if any(set(k) <= set(b) for b in blocks)))
    downsets = {frozenset()}
    for mask in principal:
        downsets |= {d | mask for d in downsets}
    return sorted(_fixpoint(lat, d) for d in downsets)


def _oracle_lattices(all7, modular8):
    # every corpus lattice with at most 7 elements, the modular ones with 8,
    # C10 and B5, each under three random renamings, which need not extend
    # the order, and named top-down
    rng = random.Random(20)
    bases = (all7 + [lat for lat in modular8 if lat.n == 8]
             + [corpus.chain(10), corpus.boolean(5)])
    for base in bases:
        for _ in range(3):
            yield _relabel(base, _shuffled(rng, base.n))
        yield _relabel(base, range(base.n - 1, -1, -1))


def _class_of(blocks):
    return bytes(i for x, i in sorted((x, i) for i, b in enumerate(blocks)
                                      for x in b))


def test_all_congruences_match_the_fixpoint_oracle(all7, modular8):
    for lat in _oracle_lattices(all7, modular8):
        expected = _fixpoint_congruences(lat)
        congruences = all_congruences(lat)
        assert [p.blocks for p in congruences] == expected
        assert [p.class_of for p in congruences] == list(map(_class_of,
                                                              expected))


def test_principal_and_separating_congruences_match_the_fixpoint_oracle(
        all7, modular8):
    for lat in _oracle_lattices(all7, modular8):
        principal = {q: _fixpoint(lat, [q]) for q in lat.cover_pairs()}
        for q, blocks in principal.items():
            theta = congruence_generated(lat, [q])
            assert theta.blocks == blocks
            assert theta.class_of == _class_of(blocks)
        if not lat.is_modular():
            continue
        # in a modular lattice Con L is Boolean, so the largest congruence
        # keeping q apart joins the con(c) that keep it apart
        for q in principal:
            keeping = [c for c, blocks in principal.items()
                       if not any(set(q) <= set(b) for b in blocks)]
            theta = separating_congruence(lat, PrimeInterval(*q))
            assert theta.blocks == _fixpoint(lat, keeping)


def _drop_each_dependency(lat):
    """Yield (j, k, fact) once per bit k of each below[j] of the lattice,
    with that bit missing from the dependency fact."""
    below, j_mask = lattice._dependencies(lat)
    for j in range(lat.n):
        for k in range(lat.n):
            if below[j] >> k & 1:
                wrong = list(below)
                wrong[j] &= ~(1 << k)
                yield j, k, (wrong, j_mask)


@pytest.mark.parametrize("lat", [
    corpus.pentagon(),
    # modular with n = 8 and [top, top] = 3 in the largest table
    build(8, {(0, 1), (0, 2), (0, 3), (1, 6), (2, 6), (3, 4), (3, 5),
              (3, 6), (4, 7), (5, 7), (6, 7)}),
], ids=["N5", "modular8"])
def test_a_dependency_missing_from_below_is_caught(lat, tmp_path, capsys,
                                                   monkeypatch):
    # con(j-, j) collapses every k in the true below[j], so the fibres of
    # a mask missing one of them are not a congruence, and the
    # down-sets all_congruences lists are no longer all distinct congruences
    path = tmp_path / "lattice.json"
    path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
    dropped = [(j, wrong) for j, k, wrong in _drop_each_dependency(lat)
               if k != j]
    assert dropped
    for j, wrong in dropped:
        minus = lat._lower[j].bit_length() - 1
        monkeypatch.setattr(lattice, "_dependencies", lambda lat: wrong)
        with pytest.raises(VerificationError):
            congruence_generated(lat, [(minus, j)])
        with pytest.raises(VerificationError):
            all_congruences(lat)
        assert main(["quotient", str(path), "--seed-pairs",
                     f"{minus},{j}"]) == 3
        assert "cross-check violation" in capsys.readouterr().err


def test_a_join_irreducible_missing_from_its_own_below_is_caught(
        all7, tmp_path, capsys, monkeypatch):
    # con(j-, j) from a below[j] without j keeps j- and j apart, and the
    # fibres it gives are often still a congruence: the seed check catches
    # it on every join irreducible of every lattice with at most 7 elements.
    # No down-set then holds j, so all_congruences would seed no call with
    # (j-, j) and list too few congruences; it checks the bit first
    n5 = corpus.pentagon()
    cases = [(lat, j, wrong) for lat in all7 + [n5]
             for j, k, wrong in _drop_each_dependency(lat) if k == j]
    assert len(cases) == 327 + 3
    for lat, j, wrong in cases:
        minus = lat._lower[j].bit_length() - 1
        monkeypatch.setattr(lattice, "_dependencies", lambda lat: wrong)
        with pytest.raises(VerificationError, match="apart"):
            congruence_generated(lat, [(minus, j)])
        with pytest.raises(VerificationError, match="its own dependencies"):
            all_congruences(lat)
        if lat is n5:
            path = tmp_path / "n5.json"
            path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
            assert main(["quotient", str(path), "--seed-pairs",
                         f"{minus},{j}"]) == 3
            assert "cross-check violation" in capsys.readouterr().err


def test_partitions_of_another_lattice_are_refused():
    c2, c3 = corpus.chain(2), corpus.chain(3)
    theta2, theta3 = LatticePartition.identity(c2), LatticePartition.identity(c3)
    for theta, other in ((theta3, theta2), (theta2, theta3)):
        with pytest.raises(ValueError, match="different lattice"):
            theta.refines(other)
        with pytest.raises(ValueError, match="different lattice"):
            quotient(other.lattice, theta)
    # an equal lattice built apart is the same lattice
    assert theta3.refines(LatticePartition.single_block(corpus.chain(3)))


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
