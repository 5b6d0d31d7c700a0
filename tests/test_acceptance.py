"""The acceptance gate: one test per shipped criterion, all exact.

Every check is a finite, exhaustive verification over a corpus of small
lattices up to isomorphism: all 78 lattices with at most 7 elements, 33 of
them modular, or the 67 modular lattices with at most 8 elements.  Each
test prints a PASS line, naming its corpus, once its criterion holds.
Runtime bounds are asserted where the criterion states one.
"""

import hashlib
import itertools
import json
import time

from commlat import fileio
from commlat.cli import main as cli_main
from commlat.commutator import (
    CommutatorTable,
    construct_pullback,
    construct_splitting,
    construct_sublattice,
    enumerate_commutators,
    largest_commutator,
    residuation,
    series,
)
from commlat.classify import (
    analyze,
    forces_abelian_type,
    forces_nilpotent_type,
)
from commlat.lattice import (
    FiniteLattice,
    SublatticeEmbedding,
    all_congruences,
    congruence_generated,
    quotient,
)
from commlat.projectivity import (
    PrimeInterval,
    join_irreducibles,
    meet_irreducibles,
    projective_ceiling,
    projectivity_classes,
    separating_congruence,
    splitting_pairs,
)
from families import NILPOTENT8, oracles
from test_projectivity import _lonesome


def _zero_one_sublattices(lat):
    # the member set of every (0,1)-sublattice, read off the covers alone
    order = oracles.Order(lat.n, lat.covers)
    inner = [x for x in range(order.n) if x not in (order.bottom, order.top)]
    for mask in range(1 << len(inner)):
        members = {order.bottom, order.top}
        members.update(x for i, x in enumerate(inner) if mask >> i & 1)
        if order.is_zero_one_sublattice(members):
            yield members


def test_criterion_1_m3_uniqueness(tmp_path, capsys, m3):
    started = time.perf_counter()
    path = tmp_path / "m3.json"
    path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(m3)))

    assert cli_main(["enumerate", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    zero = [[0] * 5 for _ in range(5)]
    assert doc["count"] == 1 and doc["tables"] == [zero]

    assert cli_main(["largest", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["table"] == zero

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS - the zero table is the unique commutator "
          f"multiplication on M3 and the largest agrees ({elapsed:.2f}s)")


def test_criterion_2_oracle_equivalence(modular5):
    started = time.perf_counter()
    for lat in modular5:
        tables = enumerate_commutators(lat)
        pointwise = tuple(
            tuple(lat.join_all(t.value(x, y) for t in tables)
                  for y in lat.elements)
            for x in lat.elements)
        assert pointwise == largest_commutator(lat).entries, lat
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2: PASS - descent equals the enumeration join on all "
          f"{len(modular5)} modular lattices with <= 5 elements ({elapsed:.2f}s)")


def test_criterion_3_residuation_equals_ceiling(modular8):
    started = time.perf_counter()
    checked = 0
    for lat in modular8:
        big = largest_commutator(lat)
        for interval in lat.cover_pairs():
            assert residuation(big, *interval) == projective_ceiling(
                lat, interval)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"ACCEPTANCE 3: PASS - largest residuation equals the projective "
          f"ceiling at all {checked} covers of the <= 8 modular corpus "
          f"({elapsed:.2f}s)")


def test_criterion_4_forcing_equivalences(modular5, modular8):
    from commlat.projectivity import two_element_quotient

    for lat in modular8:
        report = series(largest_commutator(lat))
        ceilings_full = all(projective_ceiling(lat, i) == lat.top
                            for i in lat.cover_pairs())
        assert ceilings_full == report.is_nilpotent, lat
        no_two_element_image = two_element_quotient(lat) is None
        assert no_two_element_image == report.is_solvable, lat
    # abelian leg: the enumeration reaches every multiplication without the
    # descent, so it is an independent route to "every [top, top] is bottom"
    assert len(modular5) == 9
    for lat in modular5:
        every_square_bottom = all(t.value(lat.top, lat.top) == lat.bottom
                                  for t in enumerate_commutators(lat))
        assert forces_abelian_type(lat) == every_square_bottom, lat
    # the one modular lattice with n <= 8 that is nilpotent but not abelian
    lat = FiniteLattice(*NILPOTENT8)
    assert lat.is_modular()
    assert not forces_abelian_type(lat) and forces_nilpotent_type(lat)
    assert largest_commutator(lat).value(lat.top, lat.top) == 3
    print("ACCEPTANCE 4: PASS - nilpotent-type and solvable-type criteria "
          "match the largest multiplication on the <= 8 modular corpus, and "
          "the abelian verdict matches the enumeration on the <= 5 one")


def _check_residuation_laws(lat, table):
    # the Galois law t(z,y) <= x iff z <= (x:y), its pointwise consequences,
    # and distribution over binary and empty meets/joins in each argument
    top, bottom = lat.top, lat.bottom

    def r(x, y):
        return residuation(table, x, y)

    for x in lat.elements:
        assert r(x, x) == top
        assert r(x, bottom) == top
        assert r(top, x) == top
        for y in lat.elements:
            rx = r(x, y)
            for z in lat.elements:
                assert lat.leq(table.value(z, y), x) == lat.leq(z, rx)
            assert lat.leq(table.value(rx, y), x)
            assert lat.leq(x, rx)
            assert lat.leq(y, r(x, rx))
            for x2 in lat.elements:
                assert r(lat.meet(x, x2), y) == \
                    lat.meet(r(x, y), r(x2, y))
            for y2 in lat.elements:
                assert r(x, lat.join(y, y2)) == \
                    lat.meet(r(x, y), r(x, y2))


def _lonesome_joins(lat, classes):
    """Each join irreducible, the class of its canonical interval, and
    whether it is the only join irreducible there: the dual of
    :func:`_lonesome`."""
    irr = join_irreducibles(lat)
    ids = [classes.class_of((rho.minus, rho.element)) for rho in irr]
    return [(rho, cid, ids.count(cid) == 1) for rho, cid in zip(irr, ids)]


def _check_projective_residuation_laws(lat, table):
    classes = projectivity_classes(lat)
    primes = [PrimeInterval(*p) for p in lat.cover_pairs()]
    for i in primes:
        # the projective ceiling bounds the residuation from below
        assert lat.leq(projective_ceiling(lat, i),
                       residuation(table, i.lo, i.hi))
        for j in primes:
            if classes.class_of(i) != classes.class_of(j):
                continue
            # residuation and top-square containment are class invariants
            assert residuation(table, i.lo, i.hi) == \
                residuation(table, j.lo, j.hi)
            assert lat.leq(table.value(i.hi, i.hi), i.lo) == \
                lat.leq(table.value(j.hi, j.hi), j.lo)
    # self-centralizing irreducibles are alone in their class
    for eta in meet_irreducibles(lat):
        if residuation(table, eta.element, eta.plus) == eta.element:
            assert _lonesome(lat, eta)
    for rho, _, lonesome in _lonesome_joins(lat, classes):
        if table.value(rho.element, rho.element) == rho.element:
            assert lonesome


def test_criterion_5_residuation_and_transfer_laws(all5, modular5, modular7):
    started = time.perf_counter()
    for lat in all5:
        for table in enumerate_commutators(lat):
            _check_residuation_laws(lat, table)
    for lat in modular5:
        for table in enumerate_commutators(lat):
            _check_projective_residuation_laws(lat, table)
    for lat in modular7:
        big = largest_commutator(lat)
        _check_residuation_laws(lat, big)
        _check_projective_residuation_laws(lat, big)
        for eta in meet_irreducibles(lat):                      # lone, both ways
            assert (residuation(big, eta.element, eta.plus) == eta.element) \
                == _lonesome(lat, eta)
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 5: PASS - residuation laws, projective-interval "
          f"transfer, lower bound and lonesome criteria hold on every "
          f"enumerated table (<= 5) and every largest table (<= 7) "
          f"({elapsed:.2f}s)")


def test_criterion_6_projectivity_propositions(modular8):
    for lat in modular8:
        classes = projectivity_classes(lat)
        irr_meet = meet_irreducibles(lat)
        joins = _lonesome_joins(lat, classes)
        order = oracles.Order(lat.n, lat.covers)
        # the floor of a class is the join of the join irreducibles in it
        floors = [lat.join_all(rho.element for rho, cid, _ in joins
                               if cid == c)
                  for c in range(len(classes.ceilings))]
        for i in lat.cover_pairs():
            # every element is under the ceiling or over the floor
            ceiling = projective_ceiling(lat, i)
            floor = floors[classes.class_of(i)]
            for phi in lat.elements:
                assert lat.leq(phi, ceiling) or lat.leq(floor, phi)
            # the separating relation really is a congruence avoiding i
            part = separating_congruence(lat, i)
            assert not part.related(*i)
        # lonesomeness transfers between the two kinds of irreducible
        for _, cid, lonesome in joins:
            for eta in irr_meet:
                if classes.class_of((eta.element, eta.plus)) == cid:
                    assert lonesome == _lonesome(lat, eta)
        # lonesome <=> meet prime <=> a two-element image separates the pair
        primes = order.meet_primes()
        for eta in irr_meet:
            lonesome = _lonesome(lat, eta)
            prime = eta.element in primes
            image_exists = any(
                im[eta.element] == 0 and im[eta.plus] == 1
                and order.is_hom_to_two(im)
                for im in itertools.product((0, 1), repeat=lat.n))
            assert lonesome == prime == image_exists
    print("ACCEPTANCE 6: PASS - the splitting bound, lonesome duality, the "
          "three-way lonesome characterization and the separating congruence "
          "hold on the <= 8 modular corpus")


def _document(table):
    return fileio.canonical_dumps(fileio.table_to_doc(table)).encode()


def test_criterion_7_constructions_are_valid(all7):
    started = time.perf_counter()
    # SHA-256 of the 7,280 tables built below, as `commlat construct`
    # documents: any change to what a construction outputs shows here
    digest = hashlib.sha256()
    for lat in all7:
        big = largest_commutator(lat)
        sources = enumerate_commutators(lat) if lat.n <= 4 else [big]
        for members in _zero_one_sublattices(lat):
            sub = SublatticeEmbedding(lat, members)
            sub_lat, embed = sub.as_lattice()
            for table in sources:
                out = construct_sublattice(table, sub)
                assert not CommutatorTable.violations(out.lattice, out.entries)
                digest.update(_document(out))
                for i, x in enumerate(embed):
                    for j, y in enumerate(embed):
                        assert lat.leq(table.value(x, y), embed[out.value(i, j)])
        for theta in all_congruences(lat):
            image, projection = quotient(lat, theta)
            targets = enumerate_commutators(image) if image.n <= 4 \
                else [largest_commutator(image)]
            for target in targets:
                out = construct_pullback(lat, projection, target)
                assert not CommutatorTable.violations(out.lattice, out.entries)
                digest.update(_document(out))
        for pair in splitting_pairs(lat):
            theta = congruence_generated(lat, [(pair.epsilon, lat.top)])
            out = construct_splitting(lat, pair, theta)
            assert not CommutatorTable.violations(out.lattice, out.entries)
            digest.update(_document(out))
            least = [lat.meet_all(block) for block in theta.blocks]
            s = [least[theta.class_of[x]] for x in lat.elements]
            for x in lat.elements:
                if lat.leq(x, pair.delta):
                    continue
                for y in lat.elements:
                    assert out.value(x, y) == s[y]
    assert digest.hexdigest() == (
        "e13887ecbf9ed9fdf11b5f005472fbaf10d6fb6cae6ef2b57e7958dbf4df55a0")
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 7: PASS - all three constructions validate on every "
          f"admissible corpus input, including the splitting law "
          f"({elapsed:.2f}s)")


def test_criterion_8_forcing_is_monotone(all7):
    started = time.perf_counter()

    def forcing(lat):
        report = series(largest_commutator(lat))
        return (report.kind == "abelian", report.is_nilpotent,
                report.is_solvable)

    for lat in all7:
        big = forcing(lat)
        for members in _zero_one_sublattices(lat):
            sub = SublatticeEmbedding(lat, members)
            own, _ = sub.as_lattice()
            small = forcing(own)
            assert all(not s or b for s, b in zip(small, big)), (lat, sub)
        for theta in all_congruences(lat):
            image, _ = quotient(lat, theta)
            small = forcing(lat)
            derived = forcing(image)
            assert all(not s or d for s, d in zip(small, derived)), (lat, theta)
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 8: PASS - forcing abelian/nilpotent/solvable type is "
          f"inherited by (0,1)-extensions and (0,1)-images across the corpus "
          f"({elapsed:.2f}s)")


def test_criterion_9_nesting_and_exit_codes(tmp_path, capsys, modular7, all6):
    for lat in modular7:
        report = analyze(lat)
        assert (not report.forces_abelian_type) or report.forces_nilpotent_type
        assert (not report.forces_nilpotent_type) or report.forces_solvable_type
    for idx, lat in enumerate(all6):
        path = tmp_path / f"lat{idx}.json"
        path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
        code = cli_main(["analyze", str(path), "--format", "json"])
        capsys.readouterr()
        assert code == (0 if lat.is_modular() else 2)
        assert code != 3
    print("ACCEPTANCE 9: PASS - type nesting always holds and no corpus "
          "input produces a cross-check failure")
