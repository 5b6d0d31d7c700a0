"""Check commlat's reports on lattice files with code that shares none of it.

For each file, ``python -m commlat largest`` and ``python -m commlat
analyze --format json`` run in child processes, and the oracles of
``perfbench/facts.py`` check what they print against the file's covers
alone, in the file's own labels: ``Facts.check_table`` the largest table
(its axioms, series verdicts and residuations), ``Facts.check_report`` the
report (verdicts, cover ceilings, splitting pairs, two-element image and
witness).  Each file must hold a modular lattice, and a non-zero exit of
either command fails it: exit 2, bad input, on a file that the oracles read
as a lattice included.  Exits 1 when a file fails.

    python -m commlat corpus --max-n 8 --modular-only --out-dir DIR
    python tools/check_reports.py DIR/*.json

Stdlib only; runs the commlat under ``src/`` of this checkout.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from facts import Facts  # noqa: E402
from oracles import CheckFailed  # noqa: E402


def output(facts, *argv):
    """The JSON document that ``python -m commlat ARGV`` prints; another
    exit status than 0 fails the file."""
    run = subprocess.run(
        [sys.executable, "-m", "commlat", *argv], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    if run.returncode != 0:
        facts.fail(f"commlat {argv[0]} exits {run.returncode}: "
                   f"{run.stderr.strip()}")
    return json.loads(run.stdout)


def check(path):
    """Check commlat's two outputs on one file; CheckFailed says why not."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    try:
        facts = Facts(path, (doc["n"], [tuple(c) for c in doc["covers"]]))
    except CheckFailed as error:
        raise CheckFailed(f"{path}: {error}") from None
    if not facts.modular:
        facts.fail("is not a modular lattice")
    table = output(facts, "largest", path)
    if sorted(map(tuple, table["covers"])) != facts.covers:
        facts.fail("the largest table's covers are not the input's")
    facts.check_table(table["table"])
    facts.check_report(output(facts, "analyze", "--format", "json", path),
                       list(range(facts.n)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="lattice files")
    files = parser.parse_args(argv).files
    failed = 0
    for path in files:
        try:
            check(path)
        except (CheckFailed, LookupError, TypeError, ValueError) as error:
            failed += 1
            print(error, file=sys.stderr, flush=True)
    print(f"{len(files) - failed} of {len(files)} file(s) pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
