import collections
import hashlib
import itertools
import random

import pytest

from commlat import commutator, corpus, fileio
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
from commlat.errors import InputError, VerificationError
from commlat.lattice import (
    FiniteLattice,
    LatticeMap,
    SublatticeEmbedding,
    congruence_generated,
    quotient,
)
from commlat.projectivity import SplittingPair, splitting_pairs
from families import (FANO, N5, NILPOTENT8, boolean, chain, m, oracles,
                      product, relabel, rename)
from test_classify import _fails_its_cross_check


def _zeros(lat):
    """The zero multiplication: every entry is bottom."""
    return CommutatorTable(lat, [[lat.bottom] * lat.n] * lat.n)


def _meets(lat):
    """The meet table, which dominates every multiplication."""
    return CommutatorTable(lat, [[lat.meet(x, y) for y in lat.elements]
                                 for x in lat.elements])


# -- validation ---------------------------------------------------------------


def test_zero_table_is_valid(all5):
    for lat in all5:
        assert _zeros(lat).is_valid


def test_meet_table_on_b2_valid(b2):
    assert _meets(b2).is_valid


def test_meet_table_on_m3_invalid(m3):
    violations = _meets(m3).violations()
    assert violations
    assert violations[0].law == "join-distributivity"
    assert violations[0].witness == (1, 2, 3)  # (a v b) ^ c = c but 0 v 0 = 0


def test_validation_witnesses():
    lat = corpus.chain(2)
    asym = CommutatorTable(lat, [[0, 0], [1, 1]])
    laws = {v.law for v in asym.violations()}
    assert "symmetry" in laws
    too_big = CommutatorTable(lat, [[0, 1], [1, 1]])
    assert any(v.law == "boundedness" for v in too_big.violations())
    bad_zero = CommutatorTable(corpus.chain(3), [[0, 0, 1], [0, 0, 1], [1, 1, 2]])
    assert any(v.law == "bottom-annihilation" for v in bad_zero.violations())


# -- residuation and series ----------------------------------------------------


def test_residuation_examples(b2, m3):
    mt = _meets(b2)
    assert residuation(mt, 0, 1) == 0
    for lat, table in ((b2, mt), (m3, _zeros(m3))):
        for x in lat.elements:
            assert residuation(table, x, x) == lat.top
    zt = _zeros(m3)
    assert all(residuation(zt, x, y) == m3.top
               for x in m3.elements for y in m3.elements)


@pytest.mark.parametrize("x, y", [(-1, 0), (0, -1), (5, 0), (0, 5), (0, 7)])
def test_residuation_rejects_elements_out_of_range(m3, x, y):
    with pytest.raises(ValueError, match="out of range"):
        residuation(_zeros(m3), x, y)


def test_residuation_requires_valid_table(m3):
    with pytest.raises(InputError, match="^join-distributivity fails: "):
        residuation(_meets(m3), 0, 1)


def test_series_zero_table_is_abelian(m3):
    assert series(_zeros(m3)).kind == "abelian"


def test_series_meet_on_b2_is_none(b2):
    report = series(_meets(b2))
    assert report.kind == "none"
    assert report.derived == (1, 1)


def test_series_one_element_lattice():
    one = corpus.chain(1)
    assert series(_zeros(one)).kind == "abelian"


def test_series_of_splitting_table_on_b22(b22):
    # the splitting table with delta=1, epsilon=2 fixes 2 = [2,2] = [top,2],
    # so both series stabilize at 2 and no type applies
    theta = congruence_generated(b22, [(2, 3)])
    table = construct_splitting(b22, SplittingPair(1, 2), theta)
    assert table.entries == ((0, 0, 0, 0), (0, 0, 0, 0),
                             (0, 0, 2, 2), (0, 0, 2, 2))
    report = series(table)
    assert report.derived == (3, 2, 2)
    assert report.lower_central == (3, 2, 2)
    assert report.kind == "none"


def test_no_table_on_b22_is_solvable_but_not_nilpotent(b22):
    # on this lattice every multiplication is abelian or of no type at all
    kinds = {series(t).kind for t in enumerate_commutators(b22)}
    assert kinds == {"abelian", "none"}


def test_series_nesting(all5):
    for lat in all5:
        for table in enumerate_commutators(lat):
            report = series(table)
            if report.kind == "abelian":
                assert report.is_nilpotent
            if report.is_nilpotent:
                assert report.is_solvable


def test_series_decrease_and_stabilize(all5):
    for lat in all5:
        for table in enumerate_commutators(lat):
            report = series(table)
            for seq in (report.derived, report.lower_central):
                assert len(seq) <= lat.n + 1
                assert seq[-1] == seq[-2]
                for prev, cur in zip(seq, seq[1:]):
                    assert lat.leq(cur, prev)


def _stopping_early(monkeypatch, which):
    """Make the derived (``which`` 0) or the lower central (1) series of
    every :func:`series` call stop after its first step."""
    iterate, calls = commutator._iterate, itertools.count()

    def short(start, step):
        if next(calls) % 2 == which:
            return start, step(start)
        return iterate(start, step)

    monkeypatch.setattr(commutator, "_iterate", short)


@pytest.mark.parametrize("which, match", [
    (0, "nonzero t-idempotent"), (1, "nonzero top-fixed element"),
], ids=["derived", "lower_central"])
def test_a_series_that_stops_early_is_a_bug(which, match, tmp_path, capsys,
                                            monkeypatch):
    # both series of NILPOTENT8 read top, 3, bottom; cut after 3 the derived
    # one reads not solvable, the lower central one not nilpotent, and no
    # nonzero element is t-idempotent or top-fixed
    lat = FiniteLattice(*NILPOTENT8)
    table = largest_commutator(lat)
    _stopping_early(monkeypatch, which)
    with pytest.raises(VerificationError, match=match):
        series(table)
    assert _fails_its_cross_check(lat, tmp_path, capsys, "analyze")


def test_cover_residuations_that_miss_top_are_a_bug(monkeypatch):
    # NILPOTENT8's largest table is nilpotent, so at every cover (lo, hi)
    # t(top, hi) <= lo; listed as a cover too, (bottom, top) breaks that, as
    # t(top, top) = 3
    lat = FiniteLattice(*NILPOTENT8)
    table = largest_commutator(lat)
    covers = FiniteLattice.cover_pairs
    monkeypatch.setattr(FiniteLattice, "cover_pairs",
                        lambda lat: (*covers(lat), (lat.bottom, lat.top)))
    with pytest.raises(VerificationError, match="cover residuations"):
        series(table)


# -- constructions ------------------------------------------------------------


def test_construct_sublattice_whole_lattice(m3):
    table = _zeros(m3)
    whole = SublatticeEmbedding(m3, range(5))
    assert construct_sublattice(table, whole).entries == table.entries


def test_construct_sublattice_m3_chain(m3):
    sub = SublatticeEmbedding(m3, [0, 1, 4])
    out = construct_sublattice(_zeros(m3), sub)
    assert out.entries == _zeros(corpus.chain(3)).entries


def test_construct_pullback_identity(b2):
    table = _meets(b2)
    out = construct_pullback(b2, LatticeMap(b2, b2, range(b2.n)), table)
    assert out.entries == table.entries


def test_construct_pullback_zero_target(chain3, b2):
    hom = LatticeMap(chain3, b2, (0, 1, 1))
    out = construct_pullback(chain3, hom, _zeros(b2))
    assert out.entries == _zeros(chain3).entries


def test_construct_pullback_chain_onto_b2(chain3, b2):
    hom = LatticeMap(chain3, b2, (0, 1, 1))
    out = construct_pullback(chain3, hom, _meets(b2))
    assert out.entries == ((0, 0, 0), (0, 1, 1), (0, 1, 1))


def test_construct_pullback_needs_01_map(chain3, b2):
    collapse = LatticeMap(chain3, b2, (0, 0, 0))
    with pytest.raises(InputError, match="^pullback needs a map sending "
                       "bottom to bottom and top to top$"):
        construct_pullback(chain3, collapse, _meets(b2))


def test_construct_splitting_examples(b22, b2):
    theta = congruence_generated(b22, [(2, 3)])
    table = construct_splitting(b22, SplittingPair(1, 2), theta)
    # s sends 0,1 to 0 and 2,3 to 2
    assert table.value(1, 1) == 0
    assert table.value(3, 3) == 2
    assert table.value(2, 3) == 2
    assert table.value(1, 3) == 0
    assert table.value(1, 2) == 0

    all_one = congruence_generated(b22, [(b22.bottom, b22.top)])
    assert construct_splitting(b22, SplittingPair(1, 2), all_one).entries == \
        _zeros(b22).entries

    identity = congruence_generated(b2, [])
    out = construct_splitting(b2, SplittingPair(0, 1), identity)
    assert out.entries == _meets(b2).entries


def test_construct_splitting_errors(m3, b22):
    identity = congruence_generated(m3, [])
    with pytest.raises(InputError,
                       match=r"^\(1, 2\) does not split the lattice$"):
        construct_splitting(m3, SplittingPair(1, 2), identity)
    with pytest.raises(InputError,
                       match=r"^congruence does not relate \(2, top\)$"):
        construct_splitting(b22, SplittingPair(1, 2),
                            congruence_generated(b22, []))


@pytest.mark.parametrize("pair", [(9, 2), (-1, 2), (1, 4), (1, -2)])
def test_construct_splitting_rejects_elements_out_of_range(b22, pair):
    theta = congruence_generated(b22, [(b22.bottom, b22.top)])
    with pytest.raises(InputError, match=" does not split the lattice$"):
        construct_splitting(b22, SplittingPair(*pair), theta)


def test_constructions_always_validate(all5):
    for lat in all5:
        big = largest_commutator(lat)
        whole = SublatticeEmbedding(lat, lat.elements)
        assert construct_sublattice(big, whole).is_valid
        image, proj = quotient(lat, congruence_generated(
            lat, [(lat.bottom, lat.top)]))
        assert construct_pullback(lat, proj, largest_commutator(image)).is_valid


def test_constructions_compute_each_value_once(monkeypatch):
    # the pullback lifts each element of the target once and the restriction
    # closes each distinct value once, not once per entry (B4 has 256)
    lat = corpus.boolean(4)
    table = largest_commutator(lat)
    image, projection = quotient(lat, congruence_generated(lat, [(0, 1)]))
    target = largest_commutator(image)
    whole = SublatticeEmbedding(lat, lat.elements)
    calls = collections.Counter()

    def count(owner, name):
        method = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(owner, name, counted)

    count(FiniteLattice, "meet_all")
    count(SublatticeEmbedding, "closure")
    construct_pullback(lat, projection, target)
    assert 0 < calls["meet_all"] <= image.n
    construct_sublattice(table, whole)
    assert 0 < calls["closure"] <= len(set(itertools.chain(*table.entries)))


def test_constructions_at_scale_are_pinned():
    # SHA-256 of, per lattice: the restriction of the largest table to the
    # whole lattice, the pullback of the largest table of L/con(bottom, a),
    # a the least atom, along its projection, the splitting construction of
    # the middle splitting pair if there is one, and the residuation of the
    # largest table at every cover
    big = [boolean(6), chain(64), m(62), product(chain(2), chain(32)),
           product(m(4), m(5))]
    rng = random.Random(15)
    digest = hashlib.sha256()
    for pair in big + [relabel(pair, rng)[0] for pair in big]:
        lat = FiniteLattice(*pair)
        table = largest_commutator(lat)
        built = [construct_sublattice(table, SublatticeEmbedding(lat, lat.elements))]
        atom = min(y for x, y in lat.covers if x == lat.bottom)
        image, projection = quotient(
            lat, congruence_generated(lat, [(lat.bottom, atom)]))
        built.append(construct_pullback(lat, projection, largest_commutator(image)))
        pairs = splitting_pairs(lat)
        if pairs:
            pair = pairs[len(pairs) // 2]
            theta = congruence_generated(lat, [(pair.epsilon, lat.top)])
            built.append(construct_splitting(lat, pair, theta))
        for out in built:
            digest.update(fileio.canonical_dumps(fileio.table_to_doc(out)).encode())
        digest.update(bytes(residuation(table, lo, hi) for lo, hi in lat.cover_pairs()))
    assert digest.hexdigest() == (
        "90b45603f0cc87adafa586ec5f910d65a188e1b7d0ed3b5da1925a7ad977a16c")


@pytest.mark.parametrize("producer", [
    "descent", "sublattice", "pullback", "splitting"])
def test_an_invalid_output_table_is_a_bug(producer, b22, chain3, monkeypatch):
    # every input is valid (built before the patch), so only the output check
    # can fail, and it names the producer
    if producer == "descent":
        name, build = "largest_commutator", lambda: largest_commutator(b22)
    elif producer == "sublattice":
        ambient, sub = _meets(b22), SublatticeEmbedding(b22, b22.elements)
        name, build = ("construct_sublattice",
                       lambda: construct_sublattice(ambient, sub))
    elif producer == "pullback":
        target = _meets(corpus.chain(2))
        hom = LatticeMap(chain3, target.lattice, (0, 1, 1))
        name, build = ("construct_pullback",
                       lambda: construct_pullback(chain3, hom, target))
    else:
        theta = congruence_generated(b22, [(2, 3)])
        name, build = ("construct_splitting", lambda: construct_splitting(
            b22, SplittingPair(1, 2), theta))
    build()
    init = CommutatorTable.__init__

    def corrupting(table, lattice, entries):
        # the [bottom, top] entry read as top, so t(bottom, top) != t(top,
        # bottom)
        rows = [list(row) for row in entries]
        rows[lattice.bottom][lattice.top] = lattice.top
        init(table, lattice, rows)

    monkeypatch.setattr(CommutatorTable, "__init__", corrupting)
    with pytest.raises(VerificationError, match=(
            f"^{name} built an invalid CommutatorTable: symmetry fails")):
        build()


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda c3, m3, b22: construct_sublattice(
        _meets(b22), SublatticeEmbedding(m3, (0, 1, 4))),
        "^sublattice does not live in the table's lattice$", id="sublattice"),
    pytest.param(lambda c3, m3, b22: construct_pullback(
        c3, LatticeMap(c3, corpus.chain(2), (0, 1, 1)), _meets(b22)),
        "^map endpoints do not match the inputs$", id="pullback"),
    pytest.param(lambda c3, m3, b22: construct_splitting(
        b22, SplittingPair(1, 2), congruence_generated(c3, [])),
        "^congruence belongs to a different lattice$", id="splitting"),
    pytest.param(lambda c3, m3, b22: SublatticeEmbedding.generated(m3, []),
                 "^cannot generate a sublattice from nothing$",
                 id="generated-from-nothing"),
    pytest.param(lambda c3, m3, b22: CommutatorTable(m3, [[0] * 5] * 4),
                 "^table shape does not match the lattice$", id="table-shape"),
    pytest.param(lambda c3, m3, b22: LatticeMap(c3, corpus.chain(2), (0, 1)),
                 "^image length does not match the source lattice$",
                 id="image-length"),
])
def test_inputs_that_do_not_fit_are_bad_input(build, message, chain3, m3,
                                              b22):
    # refused before anything is built: the caller's error, not a bug
    with pytest.raises(InputError, match=message):
        build(chain3, m3, b22)


def test_a_closure_that_goes_down_is_a_bug(b22, tmp_path, capsys, monkeypatch):
    # the largest table of B2 x B2 is its meet table; closing every value to
    # the sublattice's bottom gives the zero table, which is valid
    sub = SublatticeEmbedding(b22, b22.elements)
    table = largest_commutator(b22)
    monkeypatch.setattr(SublatticeEmbedding, "closure",
                        lambda sub, x: sub.ambient.bottom)
    with pytest.raises(VerificationError, match="closure went down"):
        construct_sublattice(table, sub)
    assert _fails_its_cross_check(b22, tmp_path, capsys, "construct",
                                  "sublattice", "--members", "0,1,2,3")


def test_a_pullback_below_its_target_is_a_bug(b22, tmp_path, capsys,
                                              monkeypatch):
    # B2 x B2 onto the two-element quotient of con(2, 3), whose largest
    # table is its meet table; lifting every value to bottom gives the zero
    # table, which is valid, but t(2, 2) then maps below the target's
    # t(top, top) = top
    theta = congruence_generated(b22, [(2, 3)])
    image, hom = quotient(b22, theta)
    target = largest_commutator(image)
    monkeypatch.setattr(FiniteLattice, "meet_all", lambda lat, xs: lat.bottom)
    with pytest.raises(VerificationError, match="lost its lower bound"):
        construct_pullback(b22, hom, target)
    assert _fails_its_cross_check(b22, tmp_path, capsys, "construct",
                                  "pullback", "--seed-pairs", "2,3")


# -- enumeration and the largest multiplication --------------------------------


def test_enumerate_b2(b2):
    tables = enumerate_commutators(b2)
    assert [t.entries for t in tables] == [((0, 0), (0, 0)), ((0, 0), (0, 1))]


def test_enumerate_m3_only_zero(m3):
    tables = enumerate_commutators(m3)
    assert len(tables) == 1
    assert tables[0] == _zeros(m3)


def test_enumerate_one_element():
    one = corpus.chain(1)
    assert len(enumerate_commutators(one)) == 1


def test_enumerate_size_guard():
    with pytest.raises(InputError, match="^exhaustive enumeration is "
                       "capped at n = 5$"):
        enumerate_commutators(corpus.chain(6))


def _brute_force_tables(lat):
    # every symmetric table bounded by the meet that meets the axioms, both
    # read off the covers alone
    order = oracles.Order(lat.n, lat.covers)
    n = order.n
    cells = [(x, y) for x in range(n) for y in range(x, n)]
    choices = [[z for z in range(n) if order.down[order.meet[x][y]] >> z & 1]
               for x, y in cells]
    out = set()
    for combo in itertools.product(*choices):
        entries = [[0] * n for _ in range(n)]
        for (x, y), v in zip(cells, combo):
            entries[x][y] = entries[y][x] = v
        if oracles.table_violation(order, entries) is None:
            out.add(tuple(map(tuple, entries)))
    return out


def test_enumeration_matches_full_brute_force(all5):
    # independent oracle: try every symmetric bounded table outright, once
    # per lattice, and carry its tables through each renaming.  The corpus
    # names extend the order; a seeded renaming and the top-down one, whose
    # names run against it, reach the pruning that those names never do.
    # The list is the sorted set: in order, and with no table twice
    rng = random.Random(5)
    for lat in all5:
        truth = _brute_force_tables(lat)
        pair, n = (lat.n, lat.covers), lat.n
        top_down = [n - 1 - x for x in range(n)]
        for renamed, perm in ((pair, range(n)), relabel(pair, rng),
                              (rename(pair, top_down), top_down)):
            carried = set()
            for t in truth:
                entries = [[0] * n for _ in range(n)]
                for x, y in itertools.product(range(n), repeat=2):
                    entries[perm[x]][perm[y]] = perm[t[x][y]]
                carried.add(tuple(map(tuple, entries)))
            assert [t.entries for t in enumerate_commutators(
                FiniteLattice(*renamed))] == sorted(carried)


def test_known_table_counts():
    counts = {3: 7, 4: 42, 5: 429}
    for k, expected in counts.items():
        assert len(enumerate_commutators(corpus.chain(k))) == expected
    assert len(enumerate_commutators(corpus.boolean(2))) == 4
    assert len(enumerate_commutators(FiniteLattice(*N5))) == 4


def test_largest_commutator_examples(m3, b2, b22):
    assert largest_commutator(m3) == _zeros(m3)
    assert largest_commutator(b2) == _meets(b2)
    assert largest_commutator(b22) == _meets(b22)
    assert largest_commutator(corpus.chain(4)) == _meets(corpus.chain(4))


def test_largest_is_pointwise_join_of_all(all5):
    for lat in all5:
        tables = enumerate_commutators(lat)
        top_entries = [
            [lat.join_all(t.value(x, y) for t in tables) for y in lat.elements]
            for x in lat.elements
        ]
        assert tuple(map(tuple, top_entries)) == largest_commutator(lat).entries
        # series reads (lo : hi) = top as t(top, hi) <= lo
        for table in tables:
            for lo, hi in lat.cover_pairs():
                assert ((residuation(table, lo, hi) == lat.top)
                        == lat.leq(table.value(lat.top, hi), lo))


def test_largest_dominates_every_table(all5):
    for lat in all5:
        big = largest_commutator(lat)
        for table in enumerate_commutators(lat):
            for x in lat.elements:
                for y in lat.elements:
                    assert lat.leq(table.value(x, y), big.value(x, y))


def test_largest_grows_on_sublattices(all7):
    # restricting to a (0,1)-sublattice can only enlarge the largest table
    for lat in all7:
        big = largest_commutator(lat)
        inner = [x for x in lat.elements if x not in (lat.bottom, lat.top)]
        for mask in range(1 << len(inner)):
            members = {lat.bottom, lat.top}
            members.update(x for i, x in enumerate(inner) if mask >> i & 1)
            if not all(lat.meet(x, y) in members and lat.join(x, y) in members
                       for x in members for y in members):
                continue
            own, embed = SublatticeEmbedding(lat, members).as_lattice()
            sub_big = largest_commutator(own)
            for i, x in enumerate(embed):
                for j, y in enumerate(embed):
                    assert lat.leq(big.value(x, y), embed[sub_big.value(i, j)])


def test_largest_shrinks_along_quotients(all7):
    # the image of the largest table dominates the image lattice's largest
    from commlat.lattice import all_congruences

    for lat in all7:
        big = largest_commutator(lat)
        for theta in all_congruences(lat):
            image, proj = quotient(lat, theta)
            img_big = largest_commutator(image)
            for x in lat.elements:
                for y in lat.elements:
                    assert image.leq(img_big.value(proj(x), proj(y)),
                                     proj(big.value(x, y)))


def test_largest_residuation_at_cover_examples(m3, b22, chain3):
    assert residuation(largest_commutator(m3), 0, 1) == 4
    assert residuation(largest_commutator(b22), 0, 1) == 2
    assert residuation(largest_commutator(chain3), 1, 2) == 1


def test_largest_tables_are_pinned():
    # SHA-256 of the `commlat largest` documents, concatenated, on the 300
    # lattices with n <= 8, nine named families and two seeded renamings of
    # each of the four n = 64 ones; any change to the descent shows here
    big = [chain(64), boolean(6), m(62), product(m(4), m(5))]
    rng = random.Random(10)
    named = ([chain(14), boolean(4), m(10), product(m(3), m(3)), FANO] + big
             + [relabel(pair, rng)[0] for pair in big for _ in range(2)])
    lattices = (corpus.generate_corpus(8)
                + [FiniteLattice(*pair) for pair in named])
    digest = hashlib.sha256()
    for lat in lattices:
        doc = fileio.table_to_doc(largest_commutator(lat))
        digest.update(fileio.canonical_dumps(doc).encode())
    assert len(lattices) == 317
    assert digest.hexdigest() == (
        "49058986ceb148005975e10b93e8d907bbdc193a3f96344fa0953b4e96461f7f")
