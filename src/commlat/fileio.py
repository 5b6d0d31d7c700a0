"""On-disk JSON documents.

A lattice file is a JSON object with fields ``n`` and ``covers``; the cover
list is read order-insensitively but must be duplicate-free and irredundant
(the lattice constructor rejects redundant or cyclic covers).  A table file
adds an n x n integer matrix under ``table``.  Readers refuse a key repeated
within one object and ignore keys they do not read, so a table file is also
a lattice file.  Writers always emit the canonical form: sorted keys, sorted
cover list, two-space indent, trailing newline — so equal objects produce
byte-identical files.
"""

import json

from .commutator import CommutatorTable
from .errors import InputError
from .lattice import FiniteLattice


def canonical_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def compact_dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def lattice_to_doc(lat):
    return {"n": lat.n, "covers": [list(c) for c in lat.cover_pairs()]}


def _expect_int(value, what):
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return value


def lattice_from_doc(doc):
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object")
    try:
        n = doc["n"]
        covers = doc["covers"]
    except KeyError as exc:
        raise InputError(f"missing field {exc.args[0]!r}") from None
    _expect_int(n, "n")
    if not isinstance(covers, list):
        raise InputError("covers must be a list of pairs")
    pairs = []
    for entry in covers:
        if not isinstance(entry, list) or len(entry) != 2:
            raise InputError(f"cover entry {entry!r} is not a pair")
        pairs.append((_expect_int(entry[0], "cover element"),
                      _expect_int(entry[1], "cover element")))
    if len(set(pairs)) != len(pairs):
        raise InputError("duplicate cover pair")
    return FiniteLattice(n, pairs)


def table_to_doc(table):
    doc = lattice_to_doc(table.lattice)
    doc["table"] = [list(row) for row in table.entries]
    return doc


def table_from_doc(doc):
    lat = lattice_from_doc(doc)
    if "table" not in doc:
        raise InputError("missing field 'table'")
    matrix = doc["table"]
    if (not isinstance(matrix, list) or len(matrix) != lat.n
            or any(not isinstance(row, list) or len(row) != lat.n
                   for row in matrix)):
        raise InputError("table must be an n x n matrix")
    for row in matrix:
        for v in row:
            _expect_int(v, "table entry")
            if not 0 <= v < lat.n:
                raise InputError(f"table entry {v!r} out of range")
    return CommutatorTable(lat, matrix)


def _unique_keys(pairs):
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InputError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def load_doc(path):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except InputError:  # a repeated key, from _unique_keys
        raise
    except ValueError:  # the interpreter caps the digits of an int literal
        raise InputError(
            f"{path} holds an integer with too many digits") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to parse") from None


def load_lattice(path):
    return lattice_from_doc(load_doc(path))


def load_table(path):
    return table_from_doc(load_doc(path))
