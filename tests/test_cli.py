import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import types

import pytest

import commlat
from commlat import classify, corpus, errors, fileio
from commlat.cli import main
from commlat.commutator import CommutatorTable
from commlat.lattice import LatticeMap, LatticePartition


def write_lattice(path, lat):
    path.write_text(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
    return str(path)


@pytest.fixture
def m3_file(tmp_path, m3):
    return write_lattice(tmp_path / "m3.json", m3)


@pytest.fixture
def b22_file(tmp_path, b22):
    return write_lattice(tmp_path / "b22.json", b22)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


M3_REPORT = """\
lattice on 5 elements, 6 covers
  modular:                yes
  forces abelian type:    yes  (largest [top,top] = 0)
  forces nilpotent type:  yes
  forces solvable type:   yes
  supernilpotent shape:   yes  (splitting pairs: 0)
  abelian witness sublattice: [0, 1, 2, 3, 4]
"""

B22_REPORT = """\
lattice on 4 elements, 4 covers
  modular:                yes
  forces abelian type:    no  (largest [top,top] = 3)
  forces nilpotent type:  no
  forces solvable type:   no
  supernilpotent shape:   no  (splitting pairs: 2)
  two-element image:      0011
"""


def test_analyze_text(capsys, m3_file, b22_file):
    # the whole report, with M3's witness line and B2^2's two-element image
    assert run(capsys, "analyze", m3_file) == (0, M3_REPORT, "")
    assert run(capsys, "analyze", b22_file) == (0, B22_REPORT, "")


def test_analyze_json(capsys, m3_file):
    code, out, _ = run(capsys, "analyze", m3_file, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["forces_solvable_type"] is True
    assert doc["supernilpotency_shape"] is True
    assert doc["largest_top_square"] == 0


def test_analyze_nonmodular_exits_2(capsys, tmp_path, n5):
    path = write_lattice(tmp_path / "n5.json", n5)
    code, _, err = run(capsys, "analyze", path)
    assert code == 2
    assert "modular" in err


def test_analyze_empty_file_exits_2(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "JSON" in err


def test_redundant_covers_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 2], [0, 2]]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "implied transitively" in err


def test_cyclic_covers_rejected(capsys, tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1], [1, 0]]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_duplicate_covers_rejected(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1], [0, 1]]}))
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "duplicate" in err


def test_largest_on_m3_is_zero(capsys, m3_file):
    code, out, _ = run(capsys, "largest", m3_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == [[0] * 5 for _ in range(5)]


def test_enumerate_b2(capsys, tmp_path, b2):
    path = write_lattice(tmp_path / "b2.json", b2)
    code, out, _ = run(capsys, "enumerate", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["tables"] == [[[0, 0], [0, 0]], [[0, 0], [0, 1]]]


def test_enumerate_too_large(capsys, tmp_path):
    path = write_lattice(tmp_path / "c6.json", corpus.chain(6))
    code, _, err = run(capsys, "enumerate", path)
    assert code == 2


def test_check_table(capsys, tmp_path, m3):
    from test_commutator import _meets, _zeros

    good = tmp_path / "good.json"
    good.write_text(fileio.canonical_dumps(fileio.table_to_doc(_zeros(m3))))
    code, out, _ = run(capsys, "check-table", str(good))
    assert code == 0 and json.loads(out)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(fileio.canonical_dumps(fileio.table_to_doc(_meets(m3))))
    code, out, _ = run(capsys, "check-table", str(bad))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"][0]["law"] == "join-distributivity"


def test_check_table_violations_are_pinned(capsys, tmp_path, m3, b22, chain3):
    # SHA-256 of the check-table stdout for four invalid tables that between
    # them break all four laws: M3's meet table, an asymmetric table, a table
    # above the meet and a nonzero bottom row
    from test_commutator import _meets

    tables = [
        _meets(m3),
        CommutatorTable(b22, [[0, 0, 0, 0], [0, 1, 0, 1],
                              [0, 0, 0, 0], [0, 0, 0, 0]]),
        CommutatorTable(chain3, [[2] * 3] * 3),
        CommutatorTable(chain3, [[0, 0, 1], [0, 0, 1], [1, 1, 2]]),
    ]
    outputs, laws = [], set()
    for i, table in enumerate(tables):
        path = tmp_path / f"bad{i}.json"
        path.write_text(fileio.canonical_dumps(fileio.table_to_doc(table)))
        code, out, _ = run(capsys, "check-table", str(path))
        assert code == 0
        outputs.append(out)
        laws |= {v["law"] for v in json.loads(out)["violations"]}
    assert laws == {"symmetry", "boundedness", "join-distributivity",
                    "bottom-annihilation"}
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == (
        "3ea282087938cf75b7696cefce0ada29a7dea98375a1f6c41cff8ce4fa647af4")


def test_dual_twice_is_byte_identical(capsys, tmp_path, m3_file):
    code, once, _ = run(capsys, "dual", m3_file)
    assert code == 0
    dual_file = tmp_path / "dual.json"
    dual_file.write_text(once)
    code, twice, _ = run(capsys, "dual", str(dual_file))
    assert twice == (tmp_path / "m3.json").read_text()


def test_quotient_command(capsys, b22_file):
    code, out, _ = run(capsys, "quotient", b22_file, "--seed-pairs", "2,3")
    assert code == 0
    assert json.loads(out) == {"covers": [[0, 1]], "n": 2}


def test_quotient_of_simple_lattice_collapses(capsys, m3_file):
    code, out, _ = run(capsys, "quotient", m3_file, "--seed-pairs", "0,1")
    assert json.loads(out) == {"covers": [], "n": 1}


def test_construct_sublattice(capsys, m3_file):
    code, out, _ = run(capsys, "construct", m3_file, "sublattice",
                       "--members", "0,1,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["table"] == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_construct_pullback(capsys, tmp_path, chain3):
    path = write_lattice(tmp_path / "c3.json", chain3)
    code, out, _ = run(capsys, "construct", path, "pullback",
                       "--seed-pairs", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == [[0, 0, 0], [0, 1, 1], [0, 1, 1]]


def test_construct_splitting(capsys, b22_file):
    code, out, _ = run(capsys, "construct", b22_file, "splitting",
                       "--splitting", "1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"] == [[0, 0, 0, 0], [0, 0, 0, 0],
                            [0, 0, 2, 2], [0, 0, 2, 2]]


def test_construct_splitting_with_seed_pairs(capsys, b22_file):
    # theta = con((2, top)) v con(0, 1), whose blocks are {0, 1} and {2, 3}
    code, out, _ = run(capsys, "construct", b22_file, "splitting",
                       "--splitting", "1,2", "--seed-pairs", "0,1;2,3")
    assert code == 0
    assert json.loads(out)["table"][3][3] == 2


def test_construct_rejects_bad_splitting_pair(capsys, m3_file):
    code, _, err = run(capsys, "construct", m3_file, "splitting",
                       "--splitting", "1,2")
    assert code == 2


@pytest.mark.parametrize("pair", ["9,2", "-1,2"])
def test_construct_rejects_splitting_pair_out_of_range(capsys, b22_file, pair):
    code, out, err = run(capsys, "construct", b22_file, "splitting",
                         f"--splitting={pair}")
    assert code == 2
    assert out == ""
    assert "does not split" in err


# input refusals that no other test reaches, each with its files as text
_M3 = '{"n": 5, "covers": [[0,1],[0,2],[0,3],[1,4],[2,4],[3,4]]}'
_C3 = '{"n": 3, "covers": [[0,1],[1,2]]}'
_C2 = '{"n": 2, "covers": [[0,1]], "table": '


@pytest.mark.parametrize("files, argv, message", [
    pytest.param({"l": _M3}, ["construct", "{l}", "sublattice"],
                 "construct sublattice needs --members", id="no-members"),
    pytest.param({"l": _M3, "t": _C2 + "[[0,0],[0,1]]}"},
                 ["construct", "{l}", "sublattice", "--members", "0,1,4",
                  "--table", "{t}"],
                 "--table file does not match the lattice", id="table-of-c2"),
    pytest.param({"l": _M3}, ["construct", "{l}", "pullback"],
                 "construct pullback needs --seed-pairs", id="no-seed-pairs"),
    pytest.param({"l": _M3}, ["construct", "{l}", "splitting"],
                 "construct splitting needs --splitting", id="no-splitting"),
    pytest.param({"l": _M3},
                 ["construct", "{l}", "sublattice", "--members", "0,1,4",
                  "--seed-pairs", "9,9"],
                 "construct sublattice does not read --seed-pairs",
                 id="sublattice-seed-pairs"),
    pytest.param({"l": _M3},
                 ["construct", "{l}", "pullback", "--seed-pairs", "0,1",
                  "--members", "7"],
                 "construct pullback does not read --members",
                 id="pullback-members"),
    pytest.param({"l": _C3, "t": _C2 + "[[0,0],[0,1]]}"},
                 ["construct", "{l}", "splitting", "--splitting", "1,2",
                  "--table", "{t}"],
                 "construct splitting does not read --table",
                 id="splitting-table"),
    pytest.param({"l": "[1, 2]"}, ["analyze", "{l}"],
                 "expected a JSON object", id="not-an-object"),
    pytest.param({"l": '{"n": 0, "covers": []}'}, ["analyze", "{l}"],
                 "element count must be a positive int, got 0", id="n-0"),
    pytest.param({"l": '{"n": 2, "covers": [[0,2]]}'}, ["analyze", "{l}"],
                 "bad cover pair (0, 2) for n=2", id="bad-cover"),
    pytest.param({"l": _M3}, ["check-table", "{l}"],
                 "missing field 'table'", id="no-table"),
    pytest.param({"t": _C2 + "[[0,0]]}"}, ["check-table", "{t}"],
                 "table must be an n x n matrix", id="not-square"),
    pytest.param({"t": _C2 + "[[0,0],[0,2]]}"}, ["check-table", "{t}"],
                 "table entry 2 out of range", id="entry-out-of-range"),
    pytest.param({}, ["analyze", "{dir}"], "cannot read {dir}: ",
                 id="a-directory"),
    pytest.param({}, ["corpus", "--max-n", "0"], "max_n must be at least 1",
                 id="max-n-0"),
    pytest.param({"l": _M3}, ["quotient", "{l}", "--seed-pairs", "9,9"],
                 "seed pair (9, 9) out of range", id="seed-out-of-range"),
])
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, files, argv,
                                         message):
    paths = {"dir": str(tmp_path)}
    for name, text in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"commlat: {message.format(**paths)}")


def _one_short(monkeypatch):
    # every partition reports one block fewer than it has
    monkeypatch.setattr(LatticePartition, "num_blocks",
                        property(lambda p: len(p.blocks) - 1))


def _image_out_of_range(monkeypatch):
    # the last image of every map read as the target's element count
    init = LatticeMap.__init__
    monkeypatch.setattr(LatticeMap, "__init__", lambda self, source, target,
                        image: init(self, source, target,
                                    (*image[:-1], target.n)))


def _entry_out_of_range(monkeypatch):
    # the last entry of every table read as the lattice's element count
    init = CommutatorTable.__init__

    def replaced(self, lattice, entries):
        rows = [list(row) for row in entries]
        rows[-1][-1] = lattice.n
        init(self, lattice, rows)

    monkeypatch.setattr(CommutatorTable, "__init__", replaced)


@pytest.mark.parametrize("argv, fault, message", [
    pytest.param(["quotient", "{c3}", "--seed-pairs", "1,2"], _one_short,
                 "quotient built an invalid FiniteLattice: bad cover pair "
                 "(0, 1) for n=1", id="quotient-block-count"),
    pytest.param(["quotient", "{c3}", "--seed-pairs", "1,2"],
                 _image_out_of_range,
                 "quotient built an invalid LatticeMap: image element out "
                 "of range", id="quotient-projection-image"),
    pytest.param(["largest", "{c3}"], _entry_out_of_range,
                 "largest_commutator built an invalid CommutatorTable: "
                 "table entry out of range", id="largest-descent-entry"),
])
def test_a_refused_internal_build_exits_3(capsys, tmp_path, monkeypatch,
                                          argv, fault, message):
    # commlat builds these from data it has checked, so the refusal is its
    # own bug, not bad input
    path = write_lattice(tmp_path / "c3.json", corpus.chain(3))
    fault(monkeypatch)
    code, out, err = run(capsys, *(arg.format(c3=path) for arg in argv))
    assert (code, out) == (3, "")
    assert err == f"commlat: cross-check violation (bug): {message}\n"


def test_corpus_stream_deterministic(capsys):
    code, first, _ = run(capsys, "corpus", "--max-n", "4", "--modular-only")
    code, second, _ = run(capsys, "corpus", "--max-n", "4", "--modular-only")
    assert first == second
    lines = first.strip().split("\n")
    assert len(lines) == 5
    docs = [json.loads(line) for line in lines]
    assert {doc["n"] for doc in docs} == {1, 2, 3, 4}


def test_corpus_out_dir(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, _, err = run(capsys, "corpus", "--max-n", "4", "--modular-only",
                       "--out-dir", str(out_dir))
    assert code == 0
    files = sorted(out_dir.iterdir())
    assert len(files) == 5
    for f in files:
        lat = fileio.load_lattice(str(f))
        assert lat.is_modular()


def test_corpus_max_n_guard(capsys):
    code, _, err = run(capsys, "corpus", "--max-n", "9")
    assert code == 2


def test_corpus_stream_is_unchanged(capsys):
    # the digest of the 300-line stream the canonical forms gave before
    # canonical_key was bounded; a change of representatives shows here
    code, out, _ = run(capsys, "corpus", "--max-n", "8")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ca14210584329e4ee07d3f521d12a3d3c1607a380ad8422439574af17207a0c2")


@pytest.mark.parametrize("flag, lines, digest", [
    ("--modular-only", 67,
     "e108db1037f9245bec82021cc33220eb5b700a9971738a4235f4a60def036cae"),
    ("--keep-isomorphic", 4008,
     "8807949ae66a6f5060077767715853357cbcde8a13379d9beab68c6e4560f0ae"),
], ids=["modular-only", "keep-isomorphic"])
def test_corpus_variant_streams_are_unchanged(capsys, flag, lines, digest):
    code, out, _ = run(capsys, "corpus", "--max-n", "8", flag)
    assert code == 0
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_analyze_too_large_exits_2(capsys, tmp_path):
    path = tmp_path / "c65.json"
    path.write_text(json.dumps(
        {"n": 65, "covers": [[i, i + 1] for i in range(64)]}))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "limited to 64" in err


def test_analyze_huge_element_count_exits_2(capsys, tmp_path):
    # refused on n alone, before a list per element is built
    path = tmp_path / "big.json"
    path.write_text('{"n": 1000000, "covers": []}')
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "limited to 64" in err


M3_KEYS = '"n": 5, "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]'


@pytest.mark.parametrize("key, files, argv", [
    # M3's keys, then C2's: read by the last values, this was C2's report
    ("n", {"dup.json": "{" + M3_KEYS + ', "n": 2, "covers": [[0, 1]]}'},
     ["analyze", "dup.json"]),
    # an invalid table, then the zero table: only the last one was checked
    ("table", {"dup.json": "{" + M3_KEYS + ', "table": ' + json.dumps([[4] * 5] * 5)
               + ', "table": ' + json.dumps([[0] * 5] * 5) + "}"},
     ["check-table", "dup.json"]),
], ids=["lattice", "table"])
def test_repeated_key_exits_2(capsys, tmp_path, key, files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"commlat: repeated key {key!r}\n")


def test_unknown_keys_are_ignored(capsys, tmp_path, m3):
    # a table file is a lattice file with one more key
    from test_commutator import _zeros

    table = tmp_path / "table.json"
    table.write_text(fileio.canonical_dumps(fileio.table_to_doc(_zeros(m3))))
    lattice = write_lattice(tmp_path / "m3.json", m3)
    assert run(capsys, "analyze", str(table)) == run(capsys, "analyze", lattice)


@pytest.mark.parametrize("wrap", [lambda b: b, lambda b: f'{{"n": 2, "covers": {b}}}'],
                         ids=["whole-file", "covers"])
def test_deep_nesting_exits_2(capsys, tmp_path, wrap):
    path = tmp_path / "deep.json"
    path.write_text(wrap("[" * 100_000 + "]" * 100_000))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"commlat: {path} is nested too deeply to parse\n"


def test_invalid_utf8_exits_2_naming_the_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 2, "covers": [[0, 1]], "name": "\xff"}')
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"commlat: {path} is not valid UTF-8: ")


def test_overlong_integer_exits_2_naming_the_file(capsys, tmp_path):
    # past the interpreter's cap on the digits of an int literal
    path = tmp_path / "digits.json"
    path.write_text('{"n": ' + "9" * 5000 + ', "covers": []}')
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err == f"commlat: {path} holds an integer with too many digits\n"


def test_cover_order_is_insensitive(m3):
    shuffled = {"n": 5, "covers": [[2, 4], [0, 3], [1, 4], [0, 1], [3, 4], [0, 2]]}
    assert fileio.lattice_from_doc(shuffled) == m3


def test_console_entry_point(tmp_path, m3):
    path = write_lattice(tmp_path / "m3.json", m3)
    result = subprocess.run(
        [sys.executable, "-m", "commlat", "analyze", str(path)],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "forces solvable type:   yes" in result.stdout


def test_unexpected_exception_is_a_bug(capsys, monkeypatch, m3_file):
    def boom(lat):
        raise RuntimeError("boom")

    monkeypatch.setattr(classify, "analyze", boom)
    code, out, err = run(capsys, "analyze", m3_file)
    assert code == 3
    assert out == ""
    assert err == "commlat: internal error (bug): RuntimeError: boom\n"

    def interrupt(lat):
        raise KeyboardInterrupt

    monkeypatch.setattr(classify, "analyze", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", m3_file])


def test_corpus_unwritable_out_dir_exits_2(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "corpus", "--max-n", "3",
                         "--out-dir", str(blocker))
    assert code == 2
    assert err.startswith("commlat: ") and "Traceback" not in err


def test_cli_import_stays_lean():
    # every `python -m commlat` child pays for what importing the CLI pulls
    # in; this runs in a fresh interpreter because pytest imports `inspect`
    probe = ("import commlat.cli, sys; "
             "print(sorted({'dataclasses', 'inspect', 'commlat.corpus'}"
             " & set(sys.modules)))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _package_nodes():
    """(module file name, node) for every AST node of src/commlat."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src", "commlat")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), name)
            for node in ast.walk(tree):
                yield name, node


def test_no_assert_in_the_package():
    # `python -O` strips assert statements, so a cross-check written as one
    # would silently stop running; cross-checks raise VerificationError
    assert [f"{name}:{node.lineno}" for name, node in _package_nodes()
            if isinstance(node, ast.Assert)] == []


def test_every_raise_is_bad_input_or_a_bug():
    # the CLI tells exit 2 from exit 3 by these two classes alone, so a
    # refusal raises InputError, whatever was wrong, and a failed
    # cross-check VerificationError; a bare raise re-raises
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name)
                    and exc.id in ("InputError", "VerificationError")):
                found.append(f"{name}:{node.lineno}")
    assert found == []
    assert sorted(name for name, value in vars(errors).items()
                  if isinstance(value, type)) == [
        "CommlatError", "InputError", "VerificationError"]
    assert issubclass(errors.InputError, ValueError)
    assert issubclass(errors.InputError, errors.CommlatError)
    assert issubclass(errors.VerificationError, errors.CommlatError)
    assert not issubclass(errors.VerificationError, ValueError)


def test_the_exported_names_are_pinned():
    # adding or dropping a public name of the package is a change to this
    # list; submodules, which importing them adds, are no exports
    assert sorted(name for name, value in vars(commlat).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)) == [
        "CommlatError", "CommutatorTable", "FiniteLattice", "ForcingReport",
        "InputError", "JoinIrreducible", "LatticeMap", "LatticePartition",
        "MeetIrreducible", "PrimeInterval", "ProjectivityClasses",
        "SeriesReport", "SplittingPair", "SublatticeEmbedding",
        "VerificationError", "all_congruences", "analyze",
        "congruence_generated", "construct_pullback", "construct_splitting",
        "construct_sublattice", "enumerate_commutators", "forces_abelian_type",
        "forces_nilpotent_type", "forces_solvable_type", "is_simple",
        "join_irreducibles",
        "largest_commutator", "meet_irreducibles", "projective_ceiling",
        "projectivity_classes", "quotient", "residuation",
        "separating_congruence", "series", "splitting_pairs",
        "supernilpotency_shape", "two_element_quotient",
    ]


def _public(names):
    return sorted(name for name in names if not name.startswith("_"))


def test_the_record_surfaces_are_pinned():
    # an alias added back to a record or to the corpus module is a change
    # to one of these lists
    assert {cls.__name__: _public(dir(cls)) for cls in (
        commlat.FiniteLattice, commlat.LatticePartition, commlat.LatticeMap,
        commlat.SublatticeEmbedding, commlat.CommutatorTable,
        commlat.SeriesReport, commlat.ProjectivityClasses)} == {
        "FiniteLattice": [
            "bottom", "cover_pairs", "covers", "dual", "elements", "fact",
            "is_modular", "join", "join_all", "leq", "lower_set", "meet",
            "meet_all", "n", "top", "upper_set"],
        "LatticePartition": [
            "blocks", "class_of", "lattice", "num_blocks", "related"],
        "LatticeMap": ["image", "is_zero_one", "source", "target"],
        "SublatticeEmbedding": [
            "ambient", "as_lattice", "closure", "generated", "member_list"],
        "CommutatorTable": [
            "entries", "is_valid", "lattice", "require_valid", "value",
            "violations"],
        # count and index are the tuple's
        "SeriesReport": [
            "count", "derived", "index", "is_nilpotent", "is_solvable", "kind",
            "lower_central"],
        "ProjectivityClasses": [
            "ceilings", "class_of", "meet_counts", "n"],
    }
    functions = [name for name, value in vars(corpus).items()
                 if callable(value) and value.__module__ == corpus.__name__]
    assert _public(functions) == [
        "all_lattices", "boolean", "canonical_key", "chain", "diamond",
        "generate_corpus",
    ]


def _defined(statement):
    """The names a top-level statement of a module binds."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, ast.Assign):
        return {t.id for t in statement.targets if isinstance(t, ast.Name)}
    return set()


def test_every_public_name_has_a_reader_outside_the_tests():
    # a name that only tests read goes.  A reader is a reference from
    # another top-level statement of a module of src/commlat, through the
    # module's own name or a relative import (__init__'s re-exports read
    # nothing); an attribute <module>.<name> in perfbench, which reaches
    # commlat only through its modules; or a word of README's Library
    # example or of the CI workflow
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def source(*parts):
        with open(os.path.join(root, *parts), encoding="utf-8") as handle:
            return handle.read()

    package = os.path.join(root, "src", "commlat")
    modules = {name[:-3] for name in os.listdir(package)
               if name.endswith(".py") and name != "__init__.py"}
    public, read = set(), set()
    for module in modules:
        tree = ast.parse(source("src", "commlat", module + ".py"))
        bound = {name: (module, name)
                 for statement in tree.body for name in _defined(statement)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                bound.update((alias.asname or alias.name,
                              (node.module, alias.name) if node.module
                              else alias.name) for alias in node.names)
        for statement in tree.body:
            own = _defined(statement)
            public |= {(module, name) for name in own
                       if not name.startswith("_")}
            for node in ast.walk(statement):
                if (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id not in own
                        and isinstance(bound.get(node.id), tuple)):
                    read.add(bound[node.id])
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and bound.get(node.value.id) in modules):
                    read.add((bound[node.value.id], node.attr))
    for name in sorted(os.listdir(os.path.join(root, "perfbench"))):
        if name.endswith(".py"):
            for node in ast.walk(ast.parse(source("perfbench", name))):
                if isinstance(node, ast.Attribute):
                    inner = node.value
                    module = getattr(inner, "attr", getattr(inner, "id", None))
                    if module in modules:
                        read.add((module, node.attr))
    library = source("README.md").split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    words = set(re.findall(r"\w+", example + source(".github", "workflows",
                                                    "tests.yml")))
    assert sorted(f"{module}.{name}" for module, name in public - read
                  if name not in words) == []
