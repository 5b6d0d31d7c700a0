import ast
import gc
import hashlib
import itertools
import pickle
import random
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from commlat import corpus, fileio, lattice
from commlat.cli import main
from commlat.commutator import (CommutatorTable, construct_pullback,
                                construct_splitting, construct_sublattice,
                                enumerate_commutators, largest_commutator)
from commlat.errors import InputError, VerificationError
from commlat.lattice import (
    FiniteLattice,
    LatticeMap,
    LatticePartition,
    SublatticeEmbedding,
    _bits,
    all_congruences,
    congruence_generated,
    is_simple,
    quotient,
)
from commlat.projectivity import (PrimeInterval, SplittingPair,
                                  projectivity_classes, separating_congruence,
                                  two_element_quotient)
from families import (FANO, N5, NILPOTENT8, boolean, chain, glued_sum, m,
                      oracles, product, projective_plane, relabel, rename)
from test_classify import _fault_bound_table
from test_commutator import _meets


def test_one_element_lattice():
    lat = FiniteLattice(1, set())
    assert lat.bottom == lat.top == 0
    assert lat.meet(0, 0) == lat.join(0, 0) == 0


def test_m3_build(m3):
    assert m3.bottom == 0 and m3.top == 4
    assert m3.meet(1, 2) == 0 and m3.join(1, 2) == 4
    assert m3.leq(0, 4) and not m3.leq(1, 2)


def test_build_rejects_non_lattice():
    # 1 and 2 have no common upper bound, so no join
    with pytest.raises(InputError, match="^1 minimal and 2 maximal elements; "
                       "a lattice has one of each$"):
        FiniteLattice(4, {(0, 1), (0, 2), (1, 3)})
    # one bottom and one top, but 1 and 2 have two minimal upper bounds
    with pytest.raises(InputError, match="^elements 3 and 4 have no meet$"):
        FiniteLattice(6, {(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                          (3, 5), (4, 5)})


def test_build_rejects_two_minimal_elements():
    with pytest.raises(InputError, match="^2 minimal and 1 maximal elements; "
                       "a lattice has one of each$"):
        FiniteLattice(3, {(0, 2), (1, 2)})


def test_build_rejects_antichain_before_tables():
    # the size check runs before anything is allocated per element
    for n in (2000, 10**6):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"^{n} elements; lattices "
                               "are limited to 64$"):
                FiniteLattice(n, ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_size_limit():
    with pytest.raises(InputError,
                       match="^65 elements; lattices are limited to 64$"):
        corpus.chain(65)
    assert corpus.boolean(6).n == 64


def test_build_rejects_cycle():
    with pytest.raises(InputError,
                       match="^cover relation contains a directed cycle$"):
        FiniteLattice(3, {(0, 1), (1, 2), (2, 0)})


def test_build_rejects_redundant_cover():
    with pytest.raises(InputError, match=r"^cover \(0, 2\) is implied "
                       r"transitively \(via 1\)$"):
        FiniteLattice(3, {(0, 1), (1, 2), (0, 2)})


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteLattice(0, set())
    with pytest.raises(ValueError):
        FiniteLattice(2, {(0, 5)})
    with pytest.raises(ValueError):
        FiniteLattice(2, {(1, 1)})


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


def test_is_modular_matches_the_identity_on_the_corpus(all8):
    # the O(n^3) modular law, read off the covers alone, on the corpus names
    # and three seeded renamings of each lattice
    rng = random.Random(11)
    for base in all8:
        pair = base.n, base.covers
        for n, covers in [pair] + [relabel(pair, rng)[0] for _ in range(3)]:
            assert (lattice._is_modular(FiniteLattice(n, covers))
                    == oracles.Order(n, covers).is_modular()), covers


@pytest.mark.parametrize("pair, modular", [
    (chain(64), True),
    (boolean(6), True),
    (m(62), True),
    (product(chain(2), chain(32)), True),
    (product(m(4), m(5)), True),
    # modular, nilpotent and not abelian (its [top, top] is 3)
    (NILPOTENT8, True),
    (product(N5, chain(8)), False),
    (product(m(3), N5), False),
], ids=["C64", "B6", "M62", "C2xC32", "M4xM5", "n8", "N5xC8", "M3xN5"])
def test_is_modular_matches_the_identity_at_scale(pair, modular):
    assert (lattice._is_modular(FiniteLattice(*pair))
            == oracles.Order(*pair).is_modular() == modular)


# -- the cover masks ---------------------------------------------------------


def _brute_force_covers(lat):
    """x < y with nothing strictly between, read off the order."""
    below = {(x, y) for x in lat.elements for y in lat.elements
             if x != y and lat.leq(x, y)}
    return {(x, y) for x, y in below
            if not any((x, z) in below and (z, y) in below
                       for z in lat.elements)}


def _assert_masks_are_the_covers(lat, given):
    covers = _brute_force_covers(lat)
    assert covers == given
    assert lat._lower == [sum(1 << x for x, z in covers if z == y)
                          for y in lat.elements]
    assert lat._upper == [sum(1 << y for z, y in covers if z == x)
                          for x in lat.elements]
    assert lat.covers == given
    assert lat.cover_pairs() == tuple(sorted(given))


def test_cover_masks_on_the_corpus(all8):
    # the corpus names and three seeded renamings of each lattice
    rng = random.Random(18)
    for base in all8:
        given = set(base.cover_pairs())
        _assert_masks_are_the_covers(base, given)
        for _ in range(3):
            n, renamed = relabel((base.n, given), rng)[0]
            _assert_masks_are_the_covers(FiniteLattice(n, renamed), renamed)


@pytest.mark.parametrize("pair", [
    boolean(6), chain(64), m(62), product(chain(2), chain(32)),
    product(m(4), m(5)),
], ids=["B6", "C64", "M62", "C2xC32", "M4xM5"])
def test_cover_masks_at_scale(pair):
    _assert_masks_are_the_covers(FiniteLattice(*pair), pair[1])


@pytest.mark.parametrize("lat", [FiniteLattice(*N5), corpus.diamond(),
                                 corpus.chain(3), corpus.boolean(2)],
                         ids=["N5", "M3", "C3", "B2"])
def test_equality_and_hash_follow_the_covers(lat):
    pairs = lat.cover_pairs()
    forward = FiniteLattice(lat.n, pairs)
    backward = FiniteLattice(lat.n, pairs[::-1])
    assert forward == backward and hash(forward) == hash(backward)
    dual = lat.dual()
    assert forward != dual and hash(forward) != hash(dual)


def test_dual_involution(all6):
    for lat in all6:
        assert lat.dual().dual() == lat


def test_dual_examples(m3, b22, chain3):
    assert corpus.canonical_key(m3.dual()) == corpus.canonical_key(m3)
    assert corpus.canonical_key(b22.dual()) == corpus.canonical_key(b22)
    dual_chain = chain3.dual()
    assert dual_chain.bottom == 2 and dual_chain.top == 0


# -- congruences -------------------------------------------------------------


def test_congruence_generated_empty_seed(m3):
    assert congruence_generated(m3, []).blocks == ((0,), (1,), (2,), (3,),
                                                   (4,))


def test_congruence_generated_b22(b22):
    part = congruence_generated(b22, [(2, 3)])
    assert part.blocks == ((0, 1), (2, 3))


def test_congruence_generated_m3_collapses(m3):
    for atom in (1, 2, 3):
        assert congruence_generated(m3, [(0, atom)]).num_blocks == 1


def test_congruence_generated_is_least(all5):
    # oracle: enumerate every congruence by brute force over set partitions
    for lat in all5:
        congruences = oracles.congruences(oracles.Order(lat.n, lat.covers))
        pairs = [(x, y) for x in lat.elements for y in lat.elements if x < y]
        for seed in itertools.combinations(pairs, 2):
            generated = congruence_generated(lat, seed)
            for blocks in congruences:
                class_of = {x: i for i, b in enumerate(blocks) for x in b}
                if all(class_of[a] == class_of[b] for a, b in seed):
                    # any congruence containing the seed contains the result
                    for block in generated.blocks:
                        assert len({class_of[x] for x in block}) == 1


def test_all_congruences_matches_brute_force(all6):
    # on the corpus names and on random renamings, which need not extend
    # the order
    rng = random.Random(6)
    for base in all6:
        pair = base.n, base.covers
        for n, covers in [pair] + [relabel(pair, rng)[0] for _ in range(3)]:
            lat = FiniteLattice(n, covers)
            congruences = oracles.congruences(oracles.Order(n, covers))
            found = [frozenset(map(frozenset, p.blocks))
                     for p in all_congruences(lat)]
            assert len(found) == len(congruences)
            assert set(found) == set(congruences)
            assert is_simple(lat) == (len(congruences) == 2)


def test_all_congruences_on_names_against_the_order():
    # C4 named top-down, and the glued sum C2+B2 renamed by [2, 1, 3, 0, 4]:
    # in both some x < y as integers has y below x in the order
    top_down = rename(chain(4), [3, 2, 1, 0])
    assert len(all_congruences(FiniteLattice(*top_down))) == 8
    glued = rename(glued_sum(chain(2), boolean(2)), [2, 1, 3, 0, 4])
    assert len(all_congruences(FiniteLattice(*glued))) == 8


def test_all_congruences_at_scale():
    # Con C_k is Boolean on k - 1 atoms and Con B_k on k atoms
    assert len(all_congruences(corpus.chain(10))) == 512
    assert len(all_congruences(corpus.boolean(5))) == 32


def _count_calls(monkeypatch):
    """The reach of every congruence the kernel builds, and the labels of
    every partition filled, from now on."""
    calls, built = [], []
    fibres, fill = lattice._fibres, LatticePartition._fill

    def counted(lat, reach):
        calls.append(reach)
        return fibres(lat, reach)

    def counted_fill(self, lat, labels):
        built.append(labels)
        return fill(self, lat, labels)

    monkeypatch.setattr(lattice, "_fibres", counted)
    monkeypatch.setattr(LatticePartition, "_fill", counted_fill)
    return calls, built


@pytest.mark.parametrize("k", [20, 64])
def test_all_congruences_refuses_too_many(k, monkeypatch):
    # C20 has 2^19 congruences and C64 2^63: refused while the down-sets
    # are counted, before any partition is built
    lat = corpus.chain(k)
    calls, built = _count_calls(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(InputError, match="^more than 32768 congruences$"):
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
                        (FiniteLattice(*N5), False),
                        (FiniteLattice(*m(7)), True)):
        del calls[:]
        assert is_simple(lat) is simple
        # the dependency masks pick one j, and con(j-, j) gives the answer
        assert len(calls) == 1


def _fixpoint(order, seed):
    # con(seed) by brute force on the tables of an oracles.Order, sharing no
    # code with the engine: a class is named by its least member, and
    # whenever a meet or a join translate separates x from the least member
    # of its class, the two classes merge; repeat until no translate
    # separates anything
    cls = list(range(order.n))

    def merge(a, b):
        keep, drop = sorted((cls[a], cls[b]))
        cls[:] = [keep if c == drop else c for c in cls]

    for a, b in seed:
        merge(a, b)
    changed = True
    while changed:
        changed = False
        for x, z in itertools.product(range(order.n), repeat=2):
            for op in (order.meet, order.join):
                if cls[op[x][z]] != cls[op[cls[x]][z]]:
                    merge(op[x][z], op[cls[x]][z])
                    changed = True
    blocks = {}
    for x, c in enumerate(cls):
        blocks.setdefault(c, []).append(x)
    return tuple(map(tuple, blocks.values()))


def _fixpoint_congruences(order):
    # every congruence: the down-sets of the quasiorder on the join
    # irreducibles that the principal fixpoints give, each closed from
    # its generators (k-, k)
    covers = sorted(order.covers)
    generators = [(x, j) for x, j in covers
                  if [y for y, z in covers if z == j] == [x]]
    principal = set()
    for pair in generators:
        blocks = _fixpoint(order, [pair])
        principal.add(frozenset(k for k in generators
                                if any(set(k) <= set(b) for b in blocks)))
    downsets = {frozenset()}
    for mask in principal:
        downsets |= {d | mask for d in downsets}
    return sorted(_fixpoint(order, d) for d in downsets)


def _oracle_lattices(all7, modular8):
    # every corpus lattice with at most 7 elements, the modular ones with 8,
    # C10 and B5, each under three random renamings, which need not extend
    # the order, and named top-down
    rng = random.Random(20)
    bases = (all7 + [lat for lat in modular8 if lat.n == 8]
             + [corpus.chain(10), corpus.boolean(5)])
    for base in bases:
        pair = base.n, base.covers
        for _ in range(3):
            yield FiniteLattice(*relabel(pair, rng)[0])
        yield FiniteLattice(*rename(pair, range(base.n - 1, -1, -1)))


def _class_of(blocks):
    return bytes(i for x, i in sorted((x, i) for i, b in enumerate(blocks)
                                      for x in b))


def test_all_congruences_match_the_fixpoint_oracle(all7, modular8):
    for lat in _oracle_lattices(all7, modular8):
        expected = _fixpoint_congruences(oracles.Order(lat.n, lat.covers))
        congruences = all_congruences(lat)
        assert [p.blocks for p in congruences] == expected
        assert [p.class_of for p in congruences] == list(map(_class_of,
                                                              expected))


def test_principal_and_separating_congruences_match_the_fixpoint_oracle(
        all7, modular8):
    for lat in _oracle_lattices(all7, modular8):
        order = oracles.Order(lat.n, lat.covers)
        principal = {q: _fixpoint(order, [q]) for q in sorted(order.covers)}
        for q, blocks in principal.items():
            theta = congruence_generated(lat, [q])
            assert theta.blocks == blocks
            assert theta.class_of == _class_of(blocks)
        if not order.is_modular():
            continue
        # in a modular lattice Con L is Boolean, so the largest congruence
        # keeping q apart joins the con(c) that keep it apart
        for q in principal:
            keeping = [c for c, blocks in principal.items()
                       if not any(set(q) <= set(b) for b in blocks)]
            theta = separating_congruence(lat, PrimeInterval(*q))
            assert theta.blocks == _fixpoint(order, keeping)


def test_engine_outputs_are_pinned(all8):
    # SHA-256 over every congruence the engine builds: all_congruences
    # (blocks and class_of), is_simple, congruence_generated of every
    # cover and, on modular input, every separating congruence with its
    # quotient (image covers and projection image), on the 300 corpus
    # lattices with n <= 8 and four larger modular ones, each as given and
    # under two seeded renamings; any change to the engine's output shows
    rng = random.Random(8)
    bases = all8 + [FiniteLattice(*pair) for pair in (
        product(m(3), m(3)), product(m(4), m(5)), FANO,
        glued_sum(m(3), m(3)))]
    digest = hashlib.sha256()
    for base in bases:
        pair = base.n, base.covers
        for lat in [base] + [FiniteLattice(*relabel(pair, rng)[0])
                             for _ in range(2)]:
            out = [[(p.blocks, p.class_of) for p in all_congruences(lat)],
                   is_simple(lat)]
            for q in lat.cover_pairs():
                theta = congruence_generated(lat, [q])
                out.append((q, theta.blocks, theta.class_of))
            if lat.is_modular():
                for q in lat.cover_pairs():
                    theta = separating_congruence(lat, PrimeInterval(*q))
                    image, projection = quotient(lat, theta)
                    out.append((q, theta.blocks, image.cover_pairs(),
                                projection.image))
            digest.update(repr(out).encode())
    assert len(bases) == 304
    assert digest.hexdigest() == (
        "e9194eb7222f3ba0335abaa5fd98e2d762a767e130f250c827b555f2bd2e4747")


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
    FiniteLattice(*N5),
    # modular with n = 8 and [top, top] = 3 in the largest table
    FiniteLattice(*NILPOTENT8),
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
    # it on every join irreducible of every lattice with at most 7 elements,
    # also when the seed is an iterator, which can be read only once.
    # No down-set then holds j, so all_congruences would seed no call with
    # (j-, j) and list too few congruences; it checks the bit first
    n5 = FiniteLattice(*N5)
    cases = [(lat, j, wrong) for lat in all7 + [n5]
             for j, k, wrong in _drop_each_dependency(lat) if k == j]
    assert len(cases) == 327 + 3
    for lat, j, wrong in cases:
        minus = lat._lower[j].bit_length() - 1
        monkeypatch.setattr(lattice, "_dependencies", lambda lat: wrong)
        for seed in ([(minus, j)], iter([(minus, j)])):
            with pytest.raises(VerificationError, match="apart"):
                congruence_generated(lat, seed)
        with pytest.raises(VerificationError, match="its own dependencies"):
            all_congruences(lat)
        if lat is n5:
            path = tmp_path / "n5.json"
            path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
            assert main(["quotient", str(path), "--seed-pairs",
                         f"{minus},{j}"]) == 3
            assert "cross-check violation" in capsys.readouterr().err


def test_fault_census_of_the_dependency_masks(all7, modular8, monkeypatch):
    # every single-bit change to one below[j], k != j, on the lattices with
    # at most 7 elements and the modular ones with 8.  A dropped dependency
    # makes all_congruences raise.  An added one gives coarser fibres that
    # may still be a congruence containing the seed, which only an
    # independent oracle can see: at most 770 of the additions pass
    # all_congruences.  separating_congruence checks each partition cover by
    # cover against the projectivity classes, so on modular input an
    # addition makes it raise or leaves it right
    cases = [(lat, lattice._dependencies(lat),
              [separating_congruence(lat, PrimeInterval(*q)).blocks
               for q in lat.cover_pairs()] if lat.is_modular() else [])
             for lat in all7 + [lat for lat in modular8 if lat.n == 8]]
    drops = additions = passed = 0
    for lat, (below, j_mask), separating in cases:
        covers = lat.cover_pairs()
        for j, k in itertools.permutations(_bits(j_mask), 2):
            wrong = list(below)
            wrong[j] ^= 1 << k
            monkeypatch.setattr(lattice, "_dependencies",
                                lambda lat, fact=(wrong, j_mask): fact)
            fresh = FiniteLattice(lat.n, covers)
            if below[j] >> k & 1:
                drops += 1
                with pytest.raises(VerificationError):
                    all_congruences(fresh)
                continue
            additions += 1
            try:
                all_congruences(fresh)
                passed += 1
            except VerificationError:
                pass
            for q, blocks in zip(covers, separating):
                try:
                    theta = separating_congruence(fresh, PrimeInterval(*q))
                except VerificationError:
                    continue
                assert theta.blocks == blocks, (lat, j, k, q)
    assert (drops, additions) == (623, 1317)
    assert passed <= 770


def test_partitions_of_another_lattice_are_refused():
    c2, c3 = corpus.chain(2), corpus.chain(3)
    theta2, theta3 = congruence_generated(c2, []), congruence_generated(c3, [])
    for theta, other in ((theta3, theta2), (theta2, theta3)):
        with pytest.raises(ValueError, match="different lattice"):
            quotient(other.lattice, theta)
    # an equal lattice built apart is the same lattice
    assert quotient(corpus.chain(3), theta3)[0] == c3


def test_congruence_generated_reports_a_failed_check_as_a_bug(m3, monkeypatch):
    def failing_check(self):
        raise InputError("forced")

    monkeypatch.setattr(LatticePartition, "_check_congruence", failing_check)
    with pytest.raises(VerificationError):
        congruence_generated(m3, [(0, 1)])


def test_what_an_internal_construction_refuses_is_a_bug(chain3, m3,
                                                       monkeypatch):
    # dual, quotient and as_lattice build from checked data, so an
    # InputError there is a bug of theirs, reported as VerificationError
    sub = SublatticeEmbedding(m3, (0, 1, 4))
    sub.member_list = (0, 1, 2, 4)          # 2 is not in the mask
    with pytest.raises(VerificationError,
                       match="^as_lattice built an invalid FiniteLattice"):
        sub.as_lattice()
    identity = congruence_generated(chain3, [])
    pairs = FiniteLattice.cover_pairs
    with monkeypatch.context() as patch:    # a redundant cover (0, 2)
        patch.setattr(FiniteLattice, "cover_pairs",
                      lambda self: pairs(self) + ((self.bottom, self.top),))
        for producer, build in (("dual", chain3.dual),
                                ("quotient", lambda: quotient(chain3, identity))):
            with pytest.raises(VerificationError, match=(
                    f"^{producer} built an invalid FiniteLattice: cover")):
                build()
    # meet(2, 3) read as 0, which the projection onto the quotient cannot
    # preserve
    _fault_bound_table(monkeypatch, "meet", 2, 3, 0)
    lat = FiniteLattice(5, {(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)})
    with pytest.raises(VerificationError,
                       match="^quotient built an invalid LatticeMap: meet"):
        quotient(lat, congruence_generated(lat, []))


def _built_producers():
    """The producer that each ``lattice._built`` call in the package names."""
    return sorted(
        node.args[0].value
        for path in Path(lattice.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "_built")


def _built_census(chain3, m3, b22):
    """Each ``_built`` site as its producer, the class it builds, the method
    of that class a fault replaces, and a call that reaches the site; the
    inputs are built here, before any fault."""
    theta, other = (congruence_generated(chain3, [seed])
                    for seed in ((1, 2), (0, 1)))
    table, sub = _meets(b22), SublatticeEmbedding(b22, b22.elements)
    hom = LatticeMap(chain3, corpus.chain(2), (0, 1, 1))
    target = _meets(corpus.chain(2))
    split = congruence_generated(b22, [(2, 3)])
    return [
        ("dual", FiniteLattice, "__init__", chain3.dual),
        ("quotient", FiniteLattice, "__init__",
         lambda: quotient(chain3, theta)),
        ("quotient", LatticeMap, "__init__", lambda: quotient(chain3, other)),
        ("as_lattice", FiniteLattice, "__init__",
         SublatticeEmbedding(m3, (0, 1, 4)).as_lattice),
        ("two_element_quotient", LatticeMap, "__init__",
         lambda: two_element_quotient(chain3)),
        ("_fibres", LatticePartition, "_check_congruence",
         lambda: congruence_generated(chain3, [(1, 2)])),
        ("generated", SublatticeEmbedding, "__init__",
         lambda: SublatticeEmbedding.generated(m3, [1, 2])),
        ("largest_commutator", CommutatorTable, "__init__",
         lambda: largest_commutator(b22)),
        ("construct_sublattice", CommutatorTable, "__init__",
         lambda: construct_sublattice(table, sub)),
        ("construct_pullback", CommutatorTable, "__init__",
         lambda: construct_pullback(chain3, hom, target)),
        ("construct_splitting", CommutatorTable, "__init__",
         lambda: construct_splitting(b22, SplittingPair(1, 2), split)),
        ("enumerate_commutators", CommutatorTable, "__init__",
         lambda: enumerate_commutators(corpus.chain(2))),
        ("all_lattices", FiniteLattice, "__init__",
         lambda: corpus.all_lattices.__wrapped__(3)),
        ("generate_corpus", FiniteLattice, "__init__",
         lambda: corpus.generate_corpus(3, dedupe_iso=False)),
    ]


@pytest.mark.parametrize("error", [ValueError, InputError])
def test_every_refused_internal_build_is_a_bug(chain3, m3, b22, monkeypatch,
                                               error):
    # the census of the _built sites: at each, a build that refuses with an
    # error the CLI reads as bad input raises VerificationError naming the
    # producer and the class it builds
    census = _built_census(chain3, m3, b22)
    assert sorted(site[0] for site in census) == _built_producers()

    def refuse(*args):
        raise error("refused")

    for producer, cls, method, call in census:
        with monkeypatch.context() as patch:
            patch.setattr(cls, method, refuse)
            with pytest.raises(VerificationError, match=(
                    f"^{producer} built an invalid {cls.__name__}: "
                    "refused$")):
                call()


def test_partition_rejects_non_congruence(chain3):
    # 0 ~ 2 forces 0v1 ~ 2v1, i.e. 1 ~ 2, so {{0,2},{1}} is no congruence
    with pytest.raises(InputError,
                       match=r"^meet translation by 1 separates 0 ~ 2$"):
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
    with pytest.raises(InputError,
                       match=r"^meet translation by 1 separates 0 ~ 2$"):
        LatticePartition(chain3, [(0, 2), (1,)])
    with pytest.raises(InputError,
                       match=r"^join translation by 2 separates 0 ~ 1$"):
        LatticePartition(m3, [(0, 1), (2,), (3,), (4,)])


def test_quotient_identity_and_full(m3):
    image, proj = quotient(m3, congruence_generated(m3, []))
    assert corpus.canonical_key(image) == corpus.canonical_key(m3)
    assert proj.is_zero_one
    image, proj = quotient(m3, congruence_generated(m3, [(m3.bottom, m3.top)]))
    assert image.n == 1


def test_quotient_b22_to_b2(b22, b2):
    part = congruence_generated(b22, [(2, 3)])
    image, proj = quotient(b22, part)
    assert image == b2
    assert proj.is_zero_one
    assert proj(0) == proj(1) == 0 and proj(2) == proj(3) == 1


def test_quotient_projection_preserves_structure(all8):
    for lat in all8:
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


def test_quotient_covers_match_the_quotient_order(all8):
    # on the corpus names and on random renamings
    rng = random.Random(9)
    for base in all8:
        pair = base.n, base.covers
        for lat in [base] + [FiniteLattice(*relabel(pair, rng)[0])
                             for _ in range(2)]:
            for part in all_congruences(lat):
                image, _ = quotient(lat, part)
                assert image.covers == _brute_force_quotient_covers(lat, part)


@pytest.fixture
def builds(monkeypatch):
    """Counts of the FiniteLattice and LatticeMap objects built."""
    counts = {FiniteLattice: 0, LatticeMap: 0}
    for cls in counts:
        def counting(self, *args, _init=cls.__init__, _cls=cls):
            counts[_cls] += 1
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


@pytest.fixture
def no_collection():
    # what is freed with the collector off was freed by its reference count
    gc.disable()
    yield
    gc.enable()


def test_a_held_quotient_is_returned_again(b22, builds):
    theta = congruence_generated(b22, [(2, 3)])
    image, projection = quotient(b22, theta)
    again = quotient(b22, theta)
    assert again[0] is image and again[1] is projection
    assert builds == {FiniteLattice: 1, LatticeMap: 1}


def test_a_dropped_quotient_is_freed_and_built_again(b22, builds,
                                                     no_collection):
    theta = congruence_generated(b22, [(2, 3)])
    image, projection = quotient(b22, theta)
    dropped = weakref.ref(image), weakref.ref(projection)
    del image, projection
    assert [ref() for ref in dropped] == [None, None]
    image, projection = quotient(b22, theta)
    assert builds == {FiniteLattice: 2, LatticeMap: 2}
    assert image.covers == {(0, 1)} and projection.target is image


def test_an_equal_lattice_gets_its_own_projection(b22):
    theta = congruence_generated(b22, [(2, 3)])
    twin = FiniteLattice(b22.n, b22.covers)
    held = quotient(b22, theta)
    image, projection = quotient(twin, theta)
    assert projection.source is twin and image is not held[0]
    assert quotient(b22, theta)[1].source is b22


def test_partitions_never_share_a_quotient(b22):
    # equal partitions built apart, and different ones, each get their own
    parts = all_congruences(b22) + all_congruences(b22)
    held = [quotient(b22, part) for part in parts]
    assert len({id(projection) for _, projection in held}) == len(parts)
    for part, (image, projection) in zip(parts, held):
        assert image.n == part.num_blocks
        assert projection.image == tuple(part.class_of)


def test_a_partition_pickles_while_its_quotient_is_held(b22):
    # the weak memo stays behind
    theta = congruence_generated(b22, [(2, 3)])
    held = quotient(b22, theta)
    twin = pickle.loads(pickle.dumps(theta))
    assert twin == theta and quotient(b22, twin)[1] is not held[1]


@pytest.mark.parametrize("pair", [
    boolean(6), chain(64), m(62), product(chain(2), chain(32)),
    projective_plane(5)], ids=["B6", "C64", "M62", "C2xC32", "PG(2,5)"])
def test_dropped_quotients_are_freed_at_scale(pair, no_collection):
    # the covers of one class share a congruence, so while the first
    # quotient is held they share it
    lat = FiniteLattice(*pair)
    held = {}
    for q in lat.cover_pairs():
        theta = separating_congruence(lat, PrimeInterval(*q))
        image, projection = quotient(lat, theta)
        assert held.setdefault(theta, projection) is projection
        assert projection.target is image
    assert len(held) == len(projectivity_classes(lat).ceilings)
    images = [weakref.ref(projection.target) for projection in held.values()]
    del held, image, projection
    assert [ref() for ref in images] == [None] * len(images)


def test_threads_that_race_on_a_partition_get_whole_quotients():
    # a race may build a quotient twice, but every call returns an image
    # and the projection onto it, with the blocks as fibres
    lat = FiniteLattice(*boolean(6))
    thetas = [separating_congruence(lat, PrimeInterval(*q))
              for q in lat.cover_pairs()]
    bad = []

    def work():
        for _ in range(2):
            for theta in thetas:
                image, projection = quotient(lat, theta)
                if (projection.target is not image or projection.source is not lat
                        or projection.image != tuple(theta.class_of)):
                    bad.append(theta)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not bad


def test_repeated_quotients_match_the_quotient_order(modular8):
    for lat in modular8:
        for q in lat.cover_pairs():
            theta = separating_congruence(lat, PrimeInterval(*q))
            first = quotient(lat, theta)
            again = quotient(lat, theta)
            assert again[0] is first[0] and again[1] is first[1]
            assert first[0].covers == _brute_force_quotient_covers(lat, theta)


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


# -- sublattices and maps ----------------------------------------------------


def test_sublattice_validation(m3):
    sub = SublatticeEmbedding(m3, [4, 0, 1, 4])
    assert sub.member_list == (0, 1, 4)
    with pytest.raises(InputError, match=r"^not meet closed at \(1, 2\)$"):
        SublatticeEmbedding(m3, [1, 2])  # missing meet 0 and join 4
    with pytest.raises(InputError,
                       match="^a sublattice needs at least one member$"):
        SublatticeEmbedding(m3, [])


def test_sublattice_generated(m3):
    sub = SublatticeEmbedding.generated(m3, [1, 2])
    assert sub.member_list == (0, 1, 2, 4)


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
            except InputError:
                continue
            for x in lat.elements:
                for y in lat.elements:
                    assert sub.closure(lat.join(x, y)) == \
                        lat.join(sub.closure(x), sub.closure(y))


def test_closure_without_upper_member():
    lat = corpus.boolean(2)
    sub = SublatticeEmbedding(lat, [0, 1])  # does not contain top
    with pytest.raises(InputError,
                       match="^no member of the sublattice lies above 2$"):
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
    with pytest.raises(InputError, match=r"^meet of 1, 2 not preserved$"):
        LatticeMap(chain3, b2, (0, 1, 0))


def test_map_names_the_first_pair_not_preserved(chain3, b22, b2):
    with pytest.raises(InputError, match=r"^meet of 1, 2 not preserved$"):
        LatticeMap(chain3, b2, (0, 1, 0))
    with pytest.raises(InputError, match=r"^join of 1, 2 not preserved$"):
        LatticeMap(b22, b2, (0, 0, 0, 1))
