import collections
import gc
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from commlat import classify, commutator, corpus, fileio, lattice, projectivity
from commlat.classify import (
    analyze,
    forces_abelian_type,
    forces_nilpotent_type,
    forces_solvable_type,
    supernilpotency_shape,
)
from commlat.cli import main
from commlat.commutator import largest_commutator, series
from commlat.errors import NotModular, VerificationError
from commlat.lattice import (
    FiniteLattice,
    SublatticeEmbedding,
    all_congruences,
    is_simple,
)
from families import (FANO, NILPOTENT8, boolean, chain, complemented,
                      glued_sum, m, oracles, product, projective_plane,
                      relabel, relabel_monotone, rename, sub_order)


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


def test_nesting_on_corpus(modular8):
    for lat in modular8:
        report = analyze(lat)
        if report.forces_abelian_type:
            assert report.forces_nilpotent_type
        if report.forces_nilpotent_type:
            assert report.forces_solvable_type


def test_verdicts_match_largest_series(modular8):
    profiles = collections.Counter()
    for lat in modular8:
        rep = series(largest_commutator(lat))
        verdicts = (forces_solvable_type(lat), forces_nilpotent_type(lat),
                    forces_abelian_type(lat))
        assert verdicts == (rep.is_solvable, rep.is_nilpotent,
                            rep.kind == "abelian")
        profiles[verdicts] += 1
    # no modular lattice with at most 8 elements is solvable without being
    # nilpotent (see GLUED); the one nilpotent, non-abelian one is NILPOTENT8
    assert profiles == {(True, True, True): 5, (False, False, False): 61,
                        (True, True, False): 1}


def _is_simple_complemented_modular(order, members):
    # read off the covers alone: the members as an order of their own, and
    # simple as having exactly two congruences
    own = oracles.Order(*sub_order(order, members))
    return (own.is_modular() and complemented(own)
            and len(oracles.congruences(own)) == 2)


def test_abelian_witness_is_genuine(modular8):
    for lat in modular8:
        report = analyze(lat)
        witness = report.abelian_sufficient_condition
        if witness is None:
            continue
        order = oracles.Order(lat.n, lat.covers)
        assert len(witness) >= 3 and order.is_zero_one_sublattice(witness)
        assert _is_simple_complemented_modular(order, witness)
        assert report.forces_abelian_type


def test_m3_is_the_one_simple_lattice_with_5_elements(all5):
    # what lets forces_abelian_type read a 5-element simple witness as M3
    five = [lat for lat in all5 if lat.n == 5]
    assert [lat for lat in five if len(oracles.congruences(
        oracles.Order(lat.n, lat.covers))) == 2] == [corpus.diamond()]


def test_witness_failing_its_check_is_a_bug(m3, monkeypatch):
    monkeypatch.setattr(classify, "is_simple", lambda lat: False)
    with pytest.raises(VerificationError):
        analyze(m3)


def test_broken_abelian_certificate_is_a_bug(m3, monkeypatch):
    # M3 is its own witness and carries only the zero table, so a largest
    # table whose [top, top] is not bottom contradicts it
    from test_commutator import _meets
    monkeypatch.setattr(classify, "largest_commutator", _meets)
    with pytest.raises(VerificationError, match="certify"):
        forces_abelian_type(m3)


def test_a_residuation_that_misses_its_ceiling_is_a_bug(m3, tmp_path, capsys,
                                                       monkeypatch):
    # analyze checks each cover's ceiling against the residuation of the
    # largest table there; M3's ceilings are top, not bottom
    monkeypatch.setattr(classify, "residuation",
                        lambda table, x, y: table.lattice.bottom)
    with pytest.raises(VerificationError, match="projective ceiling"):
        analyze(m3)
    assert _fails_its_cross_check(m3, tmp_path, capsys, "analyze")


def test_a_missed_two_element_image_is_a_bug(b22, tmp_path, capsys,
                                             monkeypatch):
    # B2 x B2 maps onto the two-element lattice and its largest table is not
    # solvable; a search that misses the map reads solvable type, which
    # the series refutes (nilpotent stays no, so the nesting checks pass)
    monkeypatch.setattr(classify, "two_element_quotient", lambda lat: None)
    with pytest.raises(VerificationError, match="two-element-image"):
        analyze(b22)
    assert _fails_its_cross_check(b22, tmp_path, capsys, "analyze")


def test_ceilings_that_all_read_top_are_a_bug(tmp_path, capsys, monkeypatch):
    # M3 + M3 forces solvable type but not nilpotent type; ceilings that
    # all read top claim nilpotent type, which the series refutes (solvable
    # and not abelian, so the nesting checks pass)
    lat = FiniteLattice(*GLUED["M3+M3"][0])
    classes = projectivity.projectivity_classes

    def topped(lat):
        c = classes(lat)
        return projectivity.ProjectivityClasses(
            c.n, c._table, bytes([lat.top]) * len(c.ceilings), c.meet_counts)

    monkeypatch.setattr(classify, "projectivity_classes", topped)
    with pytest.raises(VerificationError, match="cover-ceiling"):
        analyze(lat)
    assert _fails_its_cross_check(lat, tmp_path, capsys, "analyze")


def _fails_its_cross_check(lat, tmp_path, capsys, command, *options):
    """Whether ``commlat <command> <lat's file> <options>`` exits 3 and
    says why."""
    path = tmp_path / "lattice.json"
    path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
    code = main([command, str(path), *options])
    return code == 3 and "cross-check violation" in capsys.readouterr().err


@pytest.mark.parametrize("verdict, match", [
    ("forces_nilpotent_type", "abelian verdict without nilpotent"),
    ("forces_solvable_type", "nilpotent verdict without solvable"),
], ids=["abelian", "nilpotent"])
def test_verdicts_out_of_their_nesting_are_a_bug(verdict, match, m3, tmp_path,
                                                 capsys, monkeypatch):
    # M3 forces all three types; one verdict that lies breaks the nesting
    # abelian => nilpotent => solvable at the first check that reads it
    monkeypatch.setattr(classify, verdict, lambda lat: False)
    with pytest.raises(VerificationError, match=match):
        analyze(m3)
    assert _fails_its_cross_check(m3, tmp_path, capsys, "analyze")


def test_a_meet_count_the_record_misreads_is_a_bug(m3, tmp_path, capsys,
                                                   monkeypatch):
    # M3's one class holds its three meet irreducibles; a record that counts
    # one makes the atom 1 lonesome, and two_element_quotient reads that
    # off the record, so the validation of its map must refuse the map: 1
    # is not meet prime, as 2 ^ 3 = 0
    classes = projectivity.projectivity_classes

    def miscounted(lat):
        c = classes(lat)
        return projectivity.ProjectivityClasses(
            c.n, c._table, c.ceilings, bytes([1]) * len(c.meet_counts))

    assert classes(m3).meet_counts == bytes([3])
    monkeypatch.setattr(projectivity, "projectivity_classes", miscounted)
    with pytest.raises(VerificationError, match="two_element_quotient built "
                       "an invalid LatticeMap: meet of 2, 3 not preserved"):
        analyze(m3)
    assert _fails_its_cross_check(m3, tmp_path, capsys, "analyze")


def test_analyze_searches_for_the_witness_once(m3, monkeypatch):
    calls = []
    search = classify._abelian_sufficient_sublattice

    def counted(lat):
        calls.append(lat)
        return search(lat)

    monkeypatch.setattr(classify, "_abelian_sufficient_sublattice", counted)
    assert analyze(m3).abelian_sufficient_condition == (0, 1, 2, 3, 4)
    assert len(calls) == 1


def test_analyze_builds_the_m3_witness_once(m3, monkeypatch):
    # the witness search hands forces_abelian_type the embedding it found,
    # and the M3 check reads the lattice that the embedding builds
    built, lattices = [], []
    init, lattice_init = SublatticeEmbedding.__init__, FiniteLattice.__init__

    def counted(self, ambient, members):
        built.append(members)
        init(self, ambient, members)

    def counted_lattice(self, n, covers=()):
        lattices.append(n)
        lattice_init(self, n, covers)

    monkeypatch.setattr(SublatticeEmbedding, "__init__", counted)
    monkeypatch.setattr(FiniteLattice, "__init__", counted_lattice)
    assert analyze(m3).abelian_sufficient_condition == (0, 1, 2, 3, 4)
    assert len(built) == 1
    assert lattices == [5]


def _bound_faults(lat):
    """(kind, x, y, z) for each incomparable pair x < y whose meet (join)
    has another common lower (upper) bound, z the first such element."""
    order = oracles.Order(lat.n, lat.covers)
    for kind, bound, cone in (("meet", order.meet, order.down),
                              ("join", order.join, order.up)):
        for x, y in itertools.combinations(range(order.n), 2):
            others = cone[x] & cone[y] & ~(1 << bound[x][y])
            if not (order.leq(x, y) or order.leq(y, x)) and others:
                yield kind, x, y, (others & -others).bit_length() - 1


def _fault_bound_table(monkeypatch, kind, x, y, z):
    """The next ``kind`` table a FiniteLattice builds reads z at (x, y) and
    (y, x), set right after ``_bound_table`` returns it."""
    build, armed = FiniteLattice._bound_table, [True]

    def faulty(self, cone, which):
        rows = build(self, cone, which)
        if which == kind and armed:
            armed.clear()
            rows[x] = rows[x][:y] + bytes([z]) + rows[x][y + 1:]
            rows[y] = rows[y][:x] + bytes([z]) + rows[y][x + 1:]
        return rows

    monkeypatch.setattr(FiniteLattice, "_bound_table", faulty)


def test_a_fault_in_a_bound_table_never_reads_as_bad_input(
        modular8, tmp_path, capsys, monkeypatch):
    # each of the 232 faults of the modular corpus lattices with 4 to 8
    # elements, set in the lattice that `commlat analyze` loads: the command
    # exits 3 on a failed cross-check or prints the true report, and never
    # blames the input with exit 2
    path = tmp_path / "lattice.json"
    faults = collections.Counter()
    for lat in modular8:
        if lat.n < 4:
            continue
        path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
        assert main(["analyze", "--format", "json", str(path)]) == 0
        truth = capsys.readouterr().out
        for kind, *fault in _bound_faults(lat):
            faults[kind] += 1
            with monkeypatch.context() as patch:
                _fault_bound_table(patch, kind, *fault)
                code = main(["analyze", "--format", "json", str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 3), (lat, kind, fault, err)
            assert out == truth if code == 0 else "cross-check violation" in err
    assert faults == {"meet": 116, "join": 116}


def test_a_map_that_a_bad_meet_table_breaks_is_a_bug(tmp_path, capsys,
                                                     monkeypatch):
    # 0 < 1 < 2, 3 < 4 with meet(2, 3) read as 0: the map onto the
    # two-element lattice that analyze builds no longer preserves that meet,
    # which is a bug in the map's producer, not bad input
    path = tmp_path / "lattice.json"
    lat = FiniteLattice(5, {(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)})
    path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
    _fault_bound_table(monkeypatch, "meet", 2, 3, 0)
    assert main(["analyze", str(path)]) == 3
    assert ("two_element_quotient built an invalid LatticeMap: meet of 2, 3 "
            "not preserved") in capsys.readouterr().err


def test_supernilpotency_matches_splitting(all8):
    for lat in all8:
        assert (supernilpotency_shape(lat)
                == (not projectivity.splitting_pairs(lat)))


def test_supernilpotency_disagreement_is_a_bug(b22, monkeypatch):
    monkeypatch.setattr(classify, "splitting_pairs", lambda lat: ())
    with pytest.raises(VerificationError):
        supernilpotency_shape(b22)


def test_analyze_computes_each_fact_once(monkeypatch):
    calls = collections.Counter()

    def count(module, name, *others):
        compute = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return compute(*args)

        # one wrapper under every name, so that the fact keeps one key
        for each in (module, *others):
            monkeypatch.setattr(each, name, counted)

    count(lattice, "_is_modular")
    count(projectivity, "meet_irreducibles")
    # under both names, so that a read through either shares the one fact
    count(classify, "largest_commutator", commutator)
    count(classify, "residuation", commutator)
    count(classify, "projective_ceiling", projectivity)
    for name in ("series", "splitting_pairs", "two_element_quotient"):
        count(classify, name)
    lat = corpus.boolean(4)
    analyze(lat)
    # the classes with their ceilings, the quotient, its lonesomeness test;
    # not once per cover (B4 has 32)
    assert calls.pop("meet_irreducibles") <= 3
    # one residuation and one ceiling per cover, for the ceiling check; the
    # series reads its cover condition off the table's top row
    assert calls.pop("residuation") == calls.pop("projective_ceiling") == 32
    assert calls == dict.fromkeys(
        ["_is_modular", "largest_commutator", "series", "splitting_pairs",
         "two_element_quotient"], 1)


def test_analyze_holds_no_memory_across_lattices():
    # every fact lives on its lattice, so fresh lattices leave nothing behind
    rng = random.Random(4)
    b4 = boolean(4)
    tracemalloc.start()
    try:
        held = []
        for _ in range(6):
            for _ in range(10):
                analyze(FiniteLattice(*relabel(b4, rng)[0]))
            gc.collect()
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # the caches this replaced kept about 19 KB per call
    assert held[-1] - held[0] < 50 * 200


def _brute_force_has_witness(lat):
    """Whether some (0,1)-subset with >= 3 elements is a simple complemented
    modular sublattice, by trying every subset."""
    order = oracles.Order(lat.n, lat.covers)
    inner = [x for x in range(order.n) if x not in (order.bottom, order.top)]
    for k in range(1, len(inner) + 1):
        for extra in itertools.combinations(inner, k):
            members = {order.bottom, order.top, *extra}
            if (order.is_zero_one_sublattice(members)
                    and _is_simple_complemented_modular(order, members)):
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
        pair = base.n, base.covers
        for lat in [base] + [FiniteLattice(*relabel(pair, rng)[0])
                             for _ in range(2)]:
            witness = analyze(lat).abelian_sufficient_condition
            assert (witness is not None) == _brute_force_has_witness(lat)
            if witness is not None:
                triple = _first_complement_triple(lat)
                assert witness == tuple(sorted((lat.bottom, lat.top, *triple)))


@pytest.mark.parametrize("lat, forced, witness", [
    pytest.param(corpus.chain(32), (False, False, False), False, id="C32"),
    pytest.param(corpus.boolean(6), (False, False, False), False, id="B6"),
    pytest.param(FiniteLattice(*product(m(4), m(5))), (True, True, True),
                 True, id="M4xM5"),
    # simple, complemented and modular, but a plane has no three pairwise
    # complements: the witness is out of scope, the verdict is not
    pytest.param(FiniteLattice(*FANO), (True, True, True), False, id="Fano"),
])
def test_analyze_at_scale(lat, forced, witness):
    report = analyze(lat)
    assert (report.forces_solvable_type, report.forces_nilpotent_type,
            report.forces_abelian_type) == forced
    assert (report.abelian_sufficient_condition is not None) == witness


# SHA-256 of ``commlat analyze --format json`` (fileio.canonical_dumps of
# the report) per lattice: "mod8-i" is the i-th of the 67 modular lattices
# with at most 8 elements in corpus order, the rest are named families.
ANALYZE_SHA256 = {
    "mod8-00": "2d8b05532d097a604be1233152fa344fa38224ec76ed208f535fa3c71ae24eeb",
    "mod8-01": "348c9f7b12652a6b304f48a3713700b6e1a9b2da7654019c1a383eb7ad264f72",
    "mod8-02": "9ae1ce4e8b64432b11ded98a5a9cbd234646807685b0eee8b51d3a132c64a302",
    "mod8-03": "14442d74c91f724adc5e9a739d3adada2a2d1a7f3a2b30afc6c0f1544f844666",
    "mod8-04": "62535fc77b5a27b217e1c5b286857cf4dcea4fc0908865bd87539f36dfa8ace2",
    "mod8-05": "c478bcbc48f8f88755f2d29c78dc76b334f3eb057c8f17e6933154f918254a3a",
    "mod8-06": "2c24288e377f06bf702525fe50593d8ec20f224956abbd756d3c023c2d2ee08d",
    "mod8-07": "530d835d2bc1e7babcac9795a0bb1ff629ae890e815cc0421055b132b5c2e2ba",
    "mod8-08": "b2d56056487d9729e192a9fd80e5d5f30e89cf71b33ef8618bff7d3c5d07e07b",
    "mod8-09": "fc66555134a39e8297b6edb11f293238df5f9b2119eef34cb0c024e2044f06d1",
    "mod8-10": "d51705b3fce5ae97628e1535b94163d4ea04882ee15f31f40b4439c6b9038ea9",
    "mod8-11": "12f2e642cf2cbb9f10def6fb7be8d2e614c8cfb412be635edbbc8a07944da1f9",
    "mod8-12": "55c4d3579696089439bc2dcee735343e46d3ed6e0f8d340b72653d75886c27d3",
    "mod8-13": "f6cef4aa253b4e2f57c48c095e5295ab3605d292c35c68bbc86596c5fe467728",
    "mod8-14": "2a1c837fbadf9411c955540b3be4cc6eee741eb2cf4bc89a8cbf43c3e5341494",
    "mod8-15": "18dd7e52a4c68d6d96818b625d77220e0f944e2c96138a8ec607bf41b245e43c",
    "mod8-16": "08d8f2822b7996006de050740eb2238fe2f85efebaca0a3c9f581337a7402a20",
    "mod8-17": "d91f6bccae94f2b24f91995914fd75c5f7572a7d1ca0e2a14b5e59ac6d371e7b",
    "mod8-18": "d4f4f3537d4a09983de8bc55cb338b2b9c1d46c7a2243d2315cc6e94a0b0616d",
    "mod8-19": "f308707ef58cf64a9fed2fb4cc99f69c529a98fe156fd2c6aaf6cc11eb6fca0b",
    "mod8-20": "09829cb538f7b8188c031974b0a6c019ba1a030cca039ba01104fa2e1df77752",
    "mod8-21": "47bcb79299f96a316ef74c9bd8f91518e38c08e2a58f316a2e22039a45490ad5",
    "mod8-22": "61c9b16256bb51bc0a010a963e859e7e99e11a129a4a619b588bb34008ab239e",
    "mod8-23": "42b6bbf92736cdf7511e4754f58e6bb1f0c2cc1304ae2044d9fb8444775567d0",
    "mod8-24": "82f3fbbfbf230b9c8bd10d7befb463aabbd34e7161e0ad7a9fe0f17d8eacf030",
    "mod8-25": "7180576f613570dd2f500c63db2d1fa9a16f24b7608c79f2868db93139678b37",
    "mod8-26": "c36e20a4a9c0c85439a1cfcbafe449c04aaea9f127c3adb6293a05a1ae1f8b5d",
    "mod8-27": "0919c346c33c70d1115ee3f4ad7b29cfbadda17c60c347f4096434e72833fc01",
    "mod8-28": "113a545057ac7f565d2102ae5e23a42295740b02e3c8851e2799e3266d732805",
    "mod8-29": "171ccad6fd33a6683bfa55f937948455888d096918454d4af55f4a256d2d6a95",
    "mod8-30": "9a93b842e5fc2341b5537f1cfbacb7080a9ba6aa2df7050a0f310490034d5f69",
    "mod8-31": "f42be7e2308c2a39b638201151a16c22aedf0069d79bf74cdc3a10a9655be864",
    "mod8-32": "3c3194776000d26ab9497895bfae0efe8d3ac1deb117857760a0a6464351349e",
    "mod8-33": "afec339c18f8fda6a785160289c742e9076683fc8f2c716c7240538b55e9793c",
    "mod8-34": "5005e9d31d2a8e9ae957bf05302ef66b192116d490f4b84becdb80b43e000dc0",
    "mod8-35": "a811e037998820cf57ea68f46ce10e6c9f909ea91e169d005aa7f1fd89dadba9",
    "mod8-36": "870a87df75c966ebce7c61d0098a13ea6da03b83949eca43378d8fcb489e4fce",
    "mod8-37": "469f3a228bf20b0456ad0a20cc516825fbbb6ef8bb3b965149206a7bd947948f",
    "mod8-38": "a2ca49704d0eae9e9583cb2571effbe028e48a9048d34b6826725568819cc6c9",
    "mod8-39": "fac918b00bf11f8fc51a4c40af36637a4f08de96ff106408f9f9fa4c1b389cd4",
    "mod8-40": "18d8dd0b0fd706b964165ef20dfed0588ba3f753568c5b434f43c32a5757920f",
    "mod8-41": "6ff7cdc6da9f793de411d8c6ec9ba3f344f4f195bbc56dc63e962c2a87ec1d76",
    "mod8-42": "90aa9eb4da30d0a1f3606cc7999a408968f894855b22d403a77d83b9cdb14efe",
    "mod8-43": "2a9ebb28696500daacd5c9d64727f58ded2e63024d3f46c5f489bdf9bf56f61f",
    "mod8-44": "c7111001ab7a958d4ae92c93ac93e5c2d7db398a8d847d541a5fca5e6f6a4fa3",
    "mod8-45": "0e579e1fd4da3a4bc1536cae5d53b043d09c191548bdf3d8efb30fafc6139e24",
    "mod8-46": "dee682651143c5414643349de1f18c5d21b36d6f016d9ac9a72186d1f79f47d4",
    "mod8-47": "73c9726e9c096b7b81357e9cd38996f1c9a31a80df1c80f823ef91a73230ae31",
    "mod8-48": "77923decfd507a0e7748258e1c5fac0a5c643e4adb1d19a2318f3547677dc241",
    "mod8-49": "b7b9bbad1350698b4cecf9f5b49779bbbe03f74cbc3d19b85367484775b34872",
    "mod8-50": "d4b0fccf3791a9e544a18efa73c8942f5bb837340342a87699acf0ce87438dfe",
    "mod8-51": "38c6b90c5337ceca1599933cfdd809b185daa343ed7d55f9f5153e4b527c3170",
    "mod8-52": "6df4a830f96e590d5097671f3502d3048fe73de4df507bf24cfef10ab9cdbb79",
    "mod8-53": "5728be8fb33e100ee61ebb84f7cbd9e76ea1294f7646da03809b3b1eec777bc9",
    "mod8-54": "2ad42f2567173efa4e6e5f6394bb7d2fe252a0b3c7bbb771ca8405e753d55be7",
    "mod8-55": "fc9d5b1e51e0d6e44a5534a4f16a6bf389bde4c452c011ea23dcca2abca341a5",
    "mod8-56": "5a8c7e5abaaa54e7788c68aaf70fd0b80739ade03d5125b450d2c769d9b5f761",
    "mod8-57": "5f1e5aed4fb1e1bdb78716d2591fd360d5d6c753674bb70691eaafee903a5c03",
    "mod8-58": "0e518d77aef4233cd25e956105797e39da481e3d379a68d83a4368060d4a1d6f",
    "mod8-59": "3962d37030209dff470c0fcc2df74e772625c0cc80460029eff662e2cff226d7",
    "mod8-60": "903dc124e44e93c42f20f87c27aa94d00b66d5bbcf057145b5e6b675e58b2354",
    "mod8-61": "4bceda78a1c6d7941bd2629a6efe26ed47c49bda794aeca0e01093ac57a7c69c",
    "mod8-62": "be82d624dbd2ddd4b03d81932fbb417690d9fe5c8766af1ca6fa1dcf8d0cc070",
    "mod8-63": "9f76cff34b4e77e91eb0bbb15ae0e193af72d06edc99e4d8f236d20e6f54776a",
    "mod8-64": "a452bac1d9a7c35bde8f0145142932462298b68649b414f5eb3cb4020bf74155",
    "mod8-65": "75973607971947739072bd9114bb177694e645fc62c2419922a3130f0e945edf",
    "mod8-66": "53b153d3643962cbfef97dac411e5b0259cba64150d36fe4e481d77ba7345a2c",
    "C8": "53b153d3643962cbfef97dac411e5b0259cba64150d36fe4e481d77ba7345a2c",
    "C9": "e8ad17ebd4f86c5a3b89e3792a4bec614ebf1a0cc41bbd29a1d897fdda106959",
    "C10": "277007776489f7eb168048aeb6ea64d30989abef55e906d473c3484b2ec64fc6",
    "C11": "a0824f7c98e6778e6a39d0e91598b21467dc2de7b43f8082218d250b03ffc0e2",
    "C12": "705a302f4c3c2f9aef5a742879f504a089b0446efadac75658f1be1a3c5eba0f",
    "C13": "f4055abb3b0cd9ddd77e64382c9063f05e4a3d0ddd9a83f5582001d9dc927539",
    "C14": "69b1e5e49a22d71586e6a159da9027f7cabd8dc46a5ee8d1e5d02c45db1c4331",
    "B3": "d8aecfdaaf547363722585c20163e986a562f388f71a4cd360f219d545ed8da5",
    "B4": "a604ec2dfe5809767006a4669066731586e02aba248619b82f1969b69f81f07e",
    "M3": "c478bcbc48f8f88755f2d29c78dc76b334f3eb057c8f17e6933154f918254a3a",
    "M4": "fc66555134a39e8297b6edb11f293238df5f9b2119eef34cb0c024e2044f06d1",
    "M5": "d91f6bccae94f2b24f91995914fd75c5f7572a7d1ca0e2a14b5e59ac6d371e7b",
    "M6": "afec339c18f8fda6a785160289c742e9076683fc8f2c716c7240538b55e9793c",
    "M7": "baa75432f5aaafff635061000d386e53afd9afa767f34b239dcbd6dee7184c0c",
    "M8": "984e2c37d02b6a177634265ba7bf8ae4895b5dce3e6086c10314332d7bff4472",
    "M9": "f4aff0d4dd9d63ca49ca815beb396a6241ba946929c65c2c6c23a5276ce3a015",
    "M10": "cf43cd8347c6ae21570fca15999bc2dc91e440d4bf66cbb3ee41acd8eba90e3b",
    "M3xC2": "61eb4aa984d3c6e591d7cbab699da730b78bcb22ef9a2bb4e9b462cbc1a10a4c",
    "M3xC4": "e0ea8ea1fd6a0eb4ff5a59700bec70ce948507ca1ac1f184344714c9efa06af7",
    "M3xM3": "b5a6fcfc53f7281f87d09c578e9ea5d2d606d4038f1d6d17fc3ce0f75d1dff81",
    "Fano": "4f4abde693155ad0f99c04631c31ecb1df5913315aec8b184e02f3a8aa66e9b8",
    "C32": "6c408759cc08181c79f30d4f3f8bb9b69236724f85efb09b5d402e8ababe4d81",
    "B6": "e629f52a149fa6e3aed2fe3f6ad45ea01d9ffa571085556bb87582ff5ee7d827",
    "M4xM5": "69777b06fe2daf746714b1dce4fa86d333f544163fad71bd5b28b07d1e5cac9a",
    "M62": "0ae9fa259df4f88a6849b2fabc5e10e7bd37c1503a40e4a5b158eaa18b0e7c32",
}


def _pinned_lattice(name):
    if name.startswith("mod8-"):
        return corpus.generate_corpus(8, modular_only=True)[int(name[5:])]
    named = {"M3xC2": product(m(3), chain(2)), "M3xC4": product(m(3), chain(4)),
             "M3xM3": product(m(3), m(3)), "M4xM5": product(m(4), m(5)),
             "Fano": FANO}
    if name in named:
        return FiniteLattice(*named[name])
    family = {"C": chain, "B": boolean, "M": m}[name[0]]
    return FiniteLattice(*family(int(name[1:])))


@pytest.mark.parametrize("name", list(ANALYZE_SHA256))
def test_analyze_output_is_pinned(name):
    doc = fileio.canonical_dumps(analyze(_pinned_lattice(name)).to_doc())
    assert hashlib.sha256(doc.encode()).hexdigest() == ANALYZE_SHA256[name]


# the glued sums M3 + M3 and M3 + M4, with bottom 0, glue 4 and top n - 1,
# force solvable type but not nilpotent type (derived series top, 4,
# bottom; lower central series top, 4, 4), which no modular lattice with
# at most 8 elements does.
# Per lattice, the SHA-256 of the `analyze --format json` outputs and of
# the `largest` outputs, concatenated over its namings
GLUED = {
    "M3+M3": (glued_sum(m(3), m(3)),
              "4e011431f0edfc17719c554ba339ec16eb606718c2eada9073aed2d6a40479e1",
              "448140ffd002d640186abbdd0b99f7af5984acc4a4bd1f10e7bcda9c92eb7b4a"),
    "M3+M4": (glued_sum(m(3), m(4)),
              "cf020af86f8eb30d8d60ef8eaf176b6ce4846ec8372ea23abdf5f82546d46d8e",
              "231c929fa9656f10a4b18eb6ba3bad4e1bc3b1a38693fb8e96fc42fc3c7925d2"),
}


def _cli_digests(pairs, tmp_path, capsys):
    """The parsed `commlat analyze --format json` reports of the lattices,
    and the SHA-256 of those outputs and of the `commlat largest` outputs,
    each concatenated in order."""
    docs, reports, tables = [], hashlib.sha256(), hashlib.sha256()
    for pair in pairs:
        path = tmp_path / "lattice.json"
        path.write_text(fileio.canonical_dumps(
            fileio.lattice_to_doc(FiniteLattice(*pair))))
        assert main(["analyze", "--format", "json", str(path)]) == 0
        out = capsys.readouterr().out
        docs.append(json.loads(out))
        reports.update(out.encode())
        assert main(["largest", str(path)]) == 0
        tables.update(capsys.readouterr().out.encode())
    return docs, (reports.hexdigest(), tables.hexdigest())


@pytest.mark.parametrize("name", list(GLUED))
def test_glued_sums_force_solvable_but_not_nilpotent_type(name, tmp_path,
                                                          capsys):
    # under three seeded renamings and named top-down
    glued, *digests = GLUED[name]
    n = glued[0]
    rng = random.Random(26)
    perms = [rng.sample(range(n), n) for _ in range(3)]
    perms.append(list(range(n - 1, -1, -1)))
    docs, got = _cli_digests([rename(glued, perm) for perm in perms],
                             tmp_path, capsys)
    for doc, perm in zip(docs, perms):
        assert (doc["forces_solvable_type"], doc["forces_nilpotent_type"],
                doc["forces_abelian_type"]) == (True, False, False)
        assert doc["largest_top_square"] == perm[4]
    assert got == tuple(digests)


# PG(2, q) is simple, complemented and modular and forces abelian type, but
# has no three pairwise complements, so no sublattice witnesses the verdict.
# Per plane, the digests as for GLUED, over the plane as built and two
# seeded renamings
PLANES = {
    3: ("a31dbc268d327938473360123abcc1ad59a107f7f1348858b075e89fbc230bb1",
        "075827273eeb9798a918a30e5aa3eb9a1ead8039cab29458b96ece59a602c31f"),
    4: ("3668d32cc2225d826530226a955360b9f6a11ab3aebd0b56c24634163765af98",
        "f1a14688830f9dc2b505b22d798b867818ef3b51b9e348eba1f7ee7004be99fa"),
    5: ("f3587ad9f0ce9e879a3aa76578ce3caf229f9245f8c4e0cc2f30f22409aec6b2",
        "fe7f512264220ba2970f531924a8766c7a1134b2e50a0083512c31291d13b10b"),
}


@pytest.mark.parametrize("q", list(PLANES))
def test_projective_planes_are_pinned(q, tmp_path, capsys):
    plane = projective_plane(q)
    rng = random.Random(q)
    namings = [plane] + [relabel(plane, rng)[0] for _ in range(2)]
    docs, got = _cli_digests(namings, tmp_path, capsys)
    for doc in docs:
        assert doc["forces_abelian_type"] is True
        assert doc["abelian_sufficient_condition"] is None
    assert got == PLANES[q]


def _verdicts(lat):
    report = analyze(lat)
    return (report.forces_abelian_type, report.forces_nilpotent_type,
            report.forces_solvable_type)


def _assert_self_dual_legs(lat):
    # two verdicts are the same on L and its dual by theorem.  A (0,1)-map of
    # L onto the two-element lattice is one of L^d onto it with the two
    # values swapped, so the solvable verdict agrees.  (delta, epsilon)
    # splits L iff every element is <= delta or >= epsilon, which is
    # (epsilon, delta) splitting L^d, so the splitting pairs swap and the
    # shape agrees.  The nilpotent and abelian verdicts are only observed to
    # agree, with no argument yet, and are not asserted
    dual = lat.dual()
    assert forces_solvable_type(dual) == forces_solvable_type(lat)
    assert supernilpotency_shape(dual) == supernilpotency_shape(lat)
    assert sorted((p.epsilon, p.delta)
                  for p in projectivity.splitting_pairs(dual)) \
        == list(projectivity.splitting_pairs(lat))


def test_solvable_verdict_and_shape_are_self_dual(modular8):
    for lat in modular8:
        _assert_self_dual_legs(lat)


# the modular corpus lattices with 2 to 8 elements that force solvable type
# (M3 to M6 and NILPOTENT8), Fano, M3 x M3, and two that force nothing
BLOCKS = [m(3), m(4), m(5), m(6), NILPOTENT8, FANO, product(m(3), m(3)),
          chain(2), glued_sum(chain(2), m(3))]


def test_drawn_lattices_past_the_corpus():
    # 39 of the glued sums and products of two blocks with 9 to 64
    # elements, drawn without repeats, and NILPOTENT8 x M3, which forces
    # nilpotent but not abelian type as a product of a factor that does and
    # one that forces all three, so that this profile appears whatever the
    # draw.  analyze runs all its checks on each, and its verdicts do not
    # depend on the names
    rng = random.Random(13)
    joined = [join(a, b) for join in (glued_sum, product)
              for a in BLOCKS for b in BLOCKS]
    drawn = rng.sample([pair for pair in joined if 9 <= pair[0] <= 64], 39)
    profiles = collections.Counter()
    for pair in drawn + [product(NILPOTENT8, m(3))]:
        lat = FiniteLattice(*pair)
        assert lat.is_modular()
        verdicts = _verdicts(lat)
        for renamed, _ in (relabel(pair, rng), relabel_monotone(pair, rng)):
            assert _verdicts(FiniteLattice(*renamed)) == verdicts
        _assert_self_dual_legs(lat)
        profiles[verdicts] += 1
    # (abelian, nilpotent, solvable)
    assert set(profiles) == {(True, True, True), (False, True, True),
                             (False, False, True), (False, False, False)}


def _product_pairs():
    lattices = [lat for lat in corpus.generate_corpus(8) if lat.n >= 2]
    small = [(a, b) for i, a in enumerate(lattices) for b in lattices[i:]
             if a.n * b.n <= 16]
    rng = random.Random(17)
    large = [pair for pair in itertools.combinations(lattices, 2)
             if 16 < pair[0].n * pair[1].n <= 64]
    named = [(m(3), m(3)), (m(4), m(5)), (chain(2), chain(32)),
             (m(3), boolean(3))]
    return small + rng.sample(large, 12) + [
        (FiniteLattice(*a), FiniteLattice(*b)) for a, b in named]


def test_largest_multiplication_of_a_product_is_componentwise():
    # on L1 x L2, numbered as in families.product and then relabeled, the
    # largest multiplication is the pair of the factors' largest ones, and
    # for modular factors each forcing verdict is the AND of the factors';
    # on the small pairs Con(L1 x L2) = Con L1 x Con L2 (G. Fraser and
    # A. Horn, Proc. AMS 26, 1970), so the product of two nontrivial factors
    # is not simple
    rng = random.Random(17)
    for a, b in _product_pairs():
        renamed, perm = relabel(product((a.n, a.covers), (b.n, b.covers)),
                                rng)
        whole = FiniteLattice(*renamed)
        ta, tb = largest_commutator(a), largest_commutator(b)
        table = largest_commutator(whole)
        for (x1, y1), (x2, y2) in itertools.product(
                itertools.product(a.elements, b.elements), repeat=2):
            pair = ta.value(x1, x2) * b.n + tb.value(y1, y2)
            assert table.value(perm[x1 * b.n + y1], perm[x2 * b.n + y2]) \
                == perm[pair]
        if a.n * b.n <= 16:
            assert len(all_congruences(whole)) == \
                len(all_congruences(a)) * len(all_congruences(b))
            assert not is_simple(whole)
        if a.is_modular() and b.is_modular():
            assert _verdicts(whole) == tuple(
                u and v for u, v in zip(_verdicts(a), _verdicts(b)))
