import importlib.util
import json
from pathlib import Path

from families import FANO

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_reports", ROOT / "tools" / "check_reports.py")
check_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_reports)

M3 = '"covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]'


def test_a_refusal_of_a_modular_lattice_fails_its_file(tmp_path, capsys):
    # M3 and the Fano plane pass; N5 is no modular lattice; a repeated key,
    # which commlat refuses and json.load does not, leaves the lattice
    # readable, so its exit 2 is a failure
    files = {"m3": f'{{"n": 5, {M3}}}',
             "fano": json.dumps({"n": FANO[0],
                                 "covers": sorted(map(list, FANO[1]))}),
             "n5": '{"n": 5, "covers": [[0, 1], [1, 2], [2, 4], [0, 3], '
                   '[3, 4]]}',
             "repeated": f'{{"n": 5, "n": 5, {M3}}}'}
    paths = []
    for name, text in files.items():
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(text, encoding="utf-8")
    assert check_reports.main(paths[:2]) == 0
    assert capsys.readouterr().out == "2 of 2 file(s) pass\n"
    assert check_reports.main(paths) == 1
    out, err = capsys.readouterr()
    assert out == "2 of 4 file(s) pass\n"
    assert err.splitlines() == [
        f"{paths[2]}: is not a modular lattice",
        f"{paths[3]}: commlat largest exits 2: commlat: repeated key 'n'"]
