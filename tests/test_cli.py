import json
import subprocess
import sys

import pytest

from commlat import classify, corpus, fileio
from commlat.cli import main


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


def test_analyze_text(capsys, m3_file):
    code, out, _ = run(capsys, "analyze", m3_file)
    assert code == 0
    assert "forces abelian type:    yes" in out


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


def test_enumerate_cap(capsys, tmp_path, b2):
    path = write_lattice(tmp_path / "b2.json", b2)
    code, out, _ = run(capsys, "enumerate", path, "--cap", "1")
    assert json.loads(out)["count"] == 1


def test_enumerate_rejects_negative_cap(capsys, tmp_path, b22):
    # B2^2 has 4 tables; a negative cap must not silently drop some
    path = write_lattice(tmp_path / "b22.json", b22)
    code, out, err = run(capsys, "enumerate", path, "--cap", "-1")
    assert code == 2
    assert out == ""
    assert "cap" in err


def test_enumerate_too_large(capsys, tmp_path):
    path = write_lattice(tmp_path / "c6.json", corpus.chain(6))
    code, _, err = run(capsys, "enumerate", path)
    assert code == 2


def test_check_table(capsys, tmp_path, m3):
    from commlat.commutator import meet_table, zero_table

    good = tmp_path / "good.json"
    good.write_text(fileio.canonical_dumps(fileio.table_to_doc(zero_table(m3))))
    code, out, _ = run(capsys, "check-table", str(good))
    assert code == 0 and json.loads(out)["valid"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(fileio.canonical_dumps(fileio.table_to_doc(meet_table(m3))))
    code, out, _ = run(capsys, "check-table", str(bad))
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["violations"][0]["law"] == "join-distributivity"


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


def test_construct_splitting_with_congruence_file(capsys, tmp_path, b22_file):
    blocks = tmp_path / "theta.json"
    blocks.write_text(json.dumps({"blocks": [[0, 1], [2, 3]]}))
    code, out, _ = run(capsys, "construct", b22_file, "splitting",
                       "--splitting", "1,2", "--congruence", str(blocks))
    assert code == 0
    assert json.loads(out)["table"][3][3] == 2


def test_construct_rejects_bad_splitting_pair(capsys, m3_file):
    code, _, err = run(capsys, "construct", m3_file, "splitting",
                       "--splitting", "1,2")
    assert code == 2


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
