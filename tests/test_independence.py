"""The oracles stand apart from the program they check.

``perfbench/oracles.py``, ``perfbench/lattices.py`` and ``tests/families.py``
import nothing of commlat, and the tests' brute-force oracles read a lattice
through ``oracles.Order``, built from its covers alone.  So a wrong meet or
join table inside commlat moves the program's answers and not the oracles'.
"""

import ast
import itertools
from pathlib import Path

import pytest

from commlat.commutator import enumerate_commutators
from commlat.errors import CommlatError
from commlat.lattice import (FiniteLattice, SublatticeEmbedding,
                             all_congruences, congruence_generated)
from commlat.projectivity import two_element_quotient
from families import oracles
from test_acceptance import _zero_one_sublattices
from test_classify import _bound_faults, _fault_bound_table
from test_commutator import _brute_force_tables
from test_lattice import _fixpoint, _fixpoint_congruences

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", ["perfbench/oracles.py",
                                  "perfbench/lattices.py",
                                  "tests/families.py"])
def test_the_oracle_home_imports_nothing_of_commlat(path):
    imported = []
    for node in ast.walk(ast.parse((ROOT / path).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [name for name in imported
                if name.startswith(".") or name.split(".")[0] == "commlat"]


def _answers(lat):
    """What each oracle says about ``lat``; the table oracle only up to 5
    elements, where it takes well under a second."""
    order = oracles.Order(lat.n, lat.covers)
    return {
        "modular": order.is_modular(),
        "congruences": _fixpoint_congruences(order),
        "partitions": set(oracles.congruences(order)),
        "principal": {q: _fixpoint(order, [q]) for q in sorted(order.covers)},
        "two": any(map(order.is_hom_to_two,
                       itertools.product((0, 1), repeat=lat.n))),
        "sublattices": list(_zero_one_sublattices(lat)),
        "tables": _brute_force_tables(lat) if lat.n <= 5 else None,
    }


def _contradicts(lat, answers):
    """Whether the program contradicts an answer on ``lat``, or refuses it
    with one of its own errors."""
    try:
        found = all_congruences(lat)
        for members in answers["sublattices"]:
            SublatticeEmbedding(lat, members)
        seen = {
            "modular": lat.is_modular(),
            "congruences": [p.blocks for p in found],
            "partitions": {frozenset(map(frozenset, p.blocks)) for p in found},
            "principal": {q: congruence_generated(lat, [q]).blocks
                          for q in answers["principal"]},
        }
        if answers["modular"]:
            seen["two"] = two_element_quotient(lat) is not None
        if answers["tables"] is not None:
            seen["tables"] = {t.entries for t in enumerate_commutators(lat)}
    except CommlatError:
        return True
    return any(seen[key] != answers[key] for key in seen)


@pytest.mark.parametrize("kind", ["meet", "join"])
def test_a_wrong_bound_table_moves_the_program_and_not_the_oracles(
        kind, all6, monkeypatch):
    # on each lattice with at most 6 elements that has one, the first fault
    # of tests/test_classify.py's census of this kind, set right after the
    # table is built: every oracle answers as on the true lattice, the
    # program contradicts them or raises on some lattice, and on none
    # without the fault
    faulted = caught = 0
    for lat in all6:
        fault = next((f for k, *f in _bound_faults(lat) if k == kind), None)
        if fault is None:
            continue
        with monkeypatch.context() as patch:
            _fault_bound_table(patch, kind, *fault)
            bad = FiniteLattice(lat.n, lat.covers)
        answers = _answers(lat)
        assert _answers(bad) == answers
        assert not _contradicts(lat, answers)
        faulted += 1
        caught += _contradicts(bad, answers)
    assert faulted and caught
