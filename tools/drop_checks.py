"""Show that every cross-check can fire: drop each one and run the tests.

For each ``raise VerificationError`` statement in the given source files,
a temporary copy of the checkout gets that statement replaced by ``pass``,
and the given tests run against the copy with ``pytest -x``.  A site whose
tests still pass survives: no test shows that its check catches anything.
The unchanged copy must pass first, so that a failure means the dropped
check.  Exits 1 when a site survives, 2 when the unchanged tests fail.

    python tools/drop_checks.py src/commlat/lattice.py \\
        src/commlat/projectivity.py \\
        --tests tests/test_lattice.py tests/test_projectivity.py

Stdlib only; needs pytest to run the tests.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sites(source):
    """(first line, last line) of each ``raise VerificationError``, 1-based."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "VerificationError":
                found.append((node.lineno, node.end_lineno))
    return sorted(found)


def dropped(source, first, last):
    """``source`` with lines first..last replaced by one ``pass``; the
    other lines of the statement become blank, so line numbers hold."""
    lines = source.splitlines(keepends=True)
    indent = lines[first - 1][:len(lines[first - 1])
                              - len(lines[first - 1].lstrip())]
    lines[first - 1] = indent + "pass\n"
    for i in range(first, last):
        lines[i] = "\n"
    return "".join(lines)


def passes(copy, tests):
    """Whether the tests pass on the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+",
                        help="source files, relative to the checkout")
    parser.add_argument("--tests", nargs="+", required=True,
                        help="test files or ids, relative to the checkout")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"))
        if not passes(copy, args.tests):
            print("the tests fail on the unchanged checkout")
            return 2
        survivors = 0
        for name in args.files:
            target = copy / name
            source = target.read_text(encoding="utf-8")
            for first, last in sites(source):
                target.write_text(dropped(source, first, last),
                                  encoding="utf-8")
                killed = not passes(copy, args.tests)
                target.write_text(source, encoding="utf-8")
                survivors += not killed
                print(f"{name}:{first}: {'killed' if killed else 'SURVIVED'}",
                      flush=True)
    print(f"{survivors} surviving site(s)")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
