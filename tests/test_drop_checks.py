import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "drop_checks", ROOT / "tools" / "drop_checks.py")
drop_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(drop_checks)


def test_sites_are_the_verification_raises():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise VerificationError(\n"
        "            'spread over two lines')\n"
        "    if x is None:\n"
        "        raise ValueError('not a check')\n"
        "    return 'passed'\n"
        "\n"
        "def g():\n"
        "    raise VerificationError from None\n")
    assert drop_checks.sites(source) == [(3, 4), (10, 10)]
    dropped = drop_checks.dropped(source, 3, 4)
    assert dropped.splitlines()[2:4] == ["        pass", ""]
    namespace = {}
    exec(compile(dropped, "<dropped>", "exec"), namespace)
    assert namespace["f"](True) == "passed"


def test_the_checked_modules_have_20_sites():
    # the checks the CI job drops one at a time
    counts = [len(drop_checks.sites((ROOT / "src" / "commlat" / name)
                                    .read_text(encoding="utf-8")))
              for name in ("lattice.py", "projectivity.py", "commutator.py",
                           "classify.py", "corpus.py")]
    assert counts == [5, 2, 5, 8, 0]
