"""The workloads: their inputs, their operations and their checks.

A run is a fixed number of rounds, each a fixed sequence of operations for
the seed.  Every round feeds the program a fresh seeded relabeling of each
input lattice, so commlat's ``lru_cache`` layers miss exactly as they would
on new lattices.  ``setup`` is what a user pays before the first operation
(import, corpus generation, building or writing the inputs); ``oracles``
prepares the independent checks and is not timed; ``run`` is one timed
operation and ``check`` verifies its output afterwards.
"""

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import lattices
import oracles
from facts import DISTRIBUTIVE, SPLITS, ZERO, Facts
from oracles import CheckFailed, Order, require

MODULES = ("classify", "cli", "commutator", "corpus", "errors", "fileio",
           "lattice", "projectivity")


def import_commlat():
    """Import the package; part of the timed set-up."""
    return SimpleNamespace(**{name: importlib.import_module("commlat." + name)
                              for name in MODULES})


class Item(SimpleNamespace):
    """One operation's input: ``base`` indexes the workload's facts, ``perm``
    is the relabeling, ``lattice`` or ``path`` what the program receives.
    ``known_fault`` marks an operation that fails on a fault in commlat."""

    known_fault = False


class Workload:
    name = ""
    min_rounds = 1          # enough rounds for 100 operations
    round_seconds = 1.0     # one round's operation time at the seed

    def rounds(self, seconds):
        return max(self.min_rounds, round(seconds / self.round_seconds))

    relabel = staticmethod(lattices.relabel)

    def relabelings(self, seed, rounds, bases):
        """Per round, one (base index, relabeled lattice, perm) per base."""
        rng = random.Random(f"{self.name}:{seed}")
        return [[(b, *self.relabel(lat, rng)) for b, lat in enumerate(bases)]
                for _ in range(rounds)]

    def setup(self, pkg, seed, rounds, workdir):
        raise NotImplementedError

    def oracles(self, pkg, inputs):
        raise NotImplementedError

    def run(self, pkg, item, in_process):
        raise NotImplementedError

    def check(self, item, output):
        raise NotImplementedError


def as_pair(lat):
    return lat.n, set(lat.covers)


def check_corpus_counts(lats, sizes, modular_sizes):
    """Corpus sizes against OEIS A006966 (all) and A006981 (modular)."""
    by_size = Counter(lat.n for lat in lats)
    modular = Counter(lat.n for lat in lats
                      if Order(*as_pair(lat)).is_modular())
    for n in sizes:
        require(by_size[n] == oracles.LATTICE_COUNTS[n - 1],
                f"corpus has {by_size[n]} lattices with {n} elements")
    for n in modular_sizes:
        require(modular[n] == oracles.MODULAR_COUNTS[n - 1],
                f"corpus has {modular[n]} modular lattices with {n} elements")


# -- families-cli -------------------------------------------------------------


def families():
    """(name, lattice, claim) of every lattice the CLI workload analyzes."""
    c, m3 = lattices.chain, lattices.m(3)
    out = [(f"C{k}", c(k), DISTRIBUTIVE) for k in range(8, 15)]
    out += [(f"B{k}", lattices.boolean(k), DISTRIBUTIVE) for k in (3, 4)]
    out += [(f"M{k}", lattices.m(k), ZERO) for k in range(3, 11)]
    out += [("M3xC2", lattices.product(m3, c(2)), SPLITS),
            ("M3xC4", lattices.product(m3, c(4)), SPLITS),
            ("M3xM3", lattices.product(m3, m3), ZERO),
            ("Fano", lattices.fano(), ZERO)]
    return out


class FamiliesCli(Workload):
    name = "families-cli"
    min_rounds = 5
    round_seconds = 11.3

    def __init__(self):
        self.family = families()

    def setup(self, pkg, seed, rounds, workdir):
        items = []
        for r, row in enumerate(self.relabelings(
                seed, rounds, [lat for _, lat, _ in self.family])):
            items.append([])
            for b, lat, perm in row:
                path = os.path.join(workdir, f"r{r}-{self.family[b][0]}.json")
                doc = pkg.fileio.lattice_to_doc(pkg.lattice.FiniteLattice(*lat))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(pkg.fileio.canonical_dumps(doc))
                items[-1].append(Item(base=b, perm=perm, path=path))
        return SimpleNamespace(items=items)

    def oracles(self, pkg, inputs):
        """The facts, with each family's largest table computed once by the
        program in base labels and validated by the axiom checker."""
        self.facts = []
        for name, lat, claim in self.family:
            facts = Facts(name, lat, claim)
            table = pkg.commutator.largest_commutator(
                pkg.lattice.FiniteLattice(*lat)).entries
            facts.check_table([list(row) for row in table])
            self.facts.append(facts)

    def run(self, pkg, item, in_process):
        argv = ["analyze", "--format", "json", item.path]
        if in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = pkg.cli.main(argv)
            return SimpleNamespace(code=code, stdout=out.getvalue(), rss_kb=0)
        return run_cli(argv)

    def check(self, item, output):
        facts = self.facts[item.base]
        require(output.code == 0, f"{facts.name}: exit status {output.code}")
        doc = json.loads(output.stdout)
        require(output.stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n",
                f"{facts.name}: output is not canonical JSON")
        facts.check_report(doc, item.perm)


def run_cli(argv):
    """``python -m commlat ARGV`` in a child process; returns its exit code,
    its standard output and its peak resident set (KiB)."""
    with open(os.devnull, "wb") as devnull:
        child = subprocess.Popen([sys.executable, "-m", "commlat", *argv],
                                 stdout=subprocess.PIPE, stderr=devnull)
        try:
            stdout = child.stdout.read()
            child.stdout.close()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if child.returncode is None:
                child.kill()
                child.wait()
    return SimpleNamespace(code=child.returncode, stdout=stdout.decode(),
                           rss_kb=usage.ru_maxrss)


# -- congruences --------------------------------------------------------------


class Congruences(Workload):
    """Labels here increase along the order (random linear extensions):
    ``all_congruences`` misses congruences on other labelings.  One fixed
    operation per round shows that fault on a chain labeled top-down and is
    counted as failed while the fault lasts."""

    name = "congruences"
    # all_congruences takes up to a quarter more or less time depending on
    # the labeling, so every run sees each lattice under at least two.
    min_rounds = 2
    round_seconds = 11.3
    KNOWN_FAULT = (4, {(3, 2), (2, 1), (1, 0)})     # C4, top = 0

    relabel = staticmethod(lattices.relabel_monotone)

    def setup(self, pkg, seed, rounds, workdir):
        small = pkg.corpus.generate_corpus(7)
        modular8 = [lat for lat in pkg.corpus.generate_corpus(8, modular_only=True)
                    if lat.n == 8]
        bases = [as_pair(lat) for lat in small + modular8]
        fault = Item(base=len(bases), perm=list(range(self.KNOWN_FAULT[0])),
                     lattice=pkg.lattice.FiniteLattice(*self.KNOWN_FAULT),
                     known_fault=True)
        items = [[fault] + [Item(base=b, perm=perm,
                                 lattice=pkg.lattice.FiniteLattice(*lat))
                            for b, lat, perm in row]
                 for row in self.relabelings(seed, rounds, bases)]
        return SimpleNamespace(small=small, modular8=modular8,
                               bases=bases + [self.KNOWN_FAULT], items=items)

    def oracles(self, pkg, inputs):
        """Brute-force congruences once per isomorphism class, and for each
        cover of a modular lattice the largest congruence separating it."""
        check_corpus_counts(inputs.small, range(1, 8), ())
        check_corpus_counts(inputs.modular8, (), (8,))
        require(len(inputs.modular8) == oracles.MODULAR_COUNTS[7],
                "modular corpus has lattices that are not modular")
        self.orders, self.modular = [], []
        self.congruences, self.separating = [], []
        for lat in inputs.bases:
            order = Order(*lat)
            cons = oracles.congruences(order)
            self.orders.append(order)
            self.modular.append(order.is_modular())
            self.congruences.append(set(cons))
            self.separating.append(
                {(lo, hi): oracles.separating(order, cons, lo, hi)
                 for lo, hi in order.covers} if self.modular[-1] else {})

    def run(self, pkg, item, in_process):
        lattice, projectivity = pkg.lattice, pkg.projectivity
        lat = item.lattice
        cons = lattice.all_congruences(lat)
        simple = lattice.is_simple(lat)
        separated = []
        if self.modular[item.base]:
            for lo, hi in lat.cover_pairs():
                theta = projectivity.separating_congruence(
                    lat, projectivity.PrimeInterval(lo, hi))
                separated.append((lo, hi, theta, lattice.quotient(lat, theta)))
        return SimpleNamespace(cons=cons, simple=simple, separated=separated)

    def check(self, item, output):
        b, perm = item.base, item.perm
        inv = lattices.inverse(perm)
        name = f"congruences[{b}]"

        def base_blocks(partition):
            return frozenset(frozenset(inv[x] for x in block)
                             for block in partition.blocks)

        found = [base_blocks(p) for p in output.cons]
        require(len(found) == len(set(found)) and set(found) == self.congruences[b],
                f"{name}: all_congruences differs from the brute-force set")
        require(output.simple == (len(self.congruences[b]) == 2),
                f"{name}: is_simple disagrees with the congruence count")
        covers = self.separating[b]
        require(len(output.separated) == len(covers),
                f"{name}: not every cover was separated")
        order = self.orders[b]
        for lo, hi, theta, (image, projection) in output.separated:
            expected = covers[(inv[lo], inv[hi])]
            require(expected is not None and base_blocks(theta) == expected,
                    f"{name}: separating congruence of ({lo}, {hi}) is not the "
                    "largest one keeping it apart")
            check_quotient(order, perm, theta, image, projection, name)


def check_quotient(order, perm, theta, image, projection, name):
    """The quotient has one element per block, and the projection is a
    (0,1)-homomorphism whose fibres are the blocks."""
    require(image.n == len(theta.blocks), f"{name}: quotient has wrong size")
    target = Order(image.n, image.covers)
    img = [projection.image[perm[x]] for x in range(order.n)]
    fibres = {}
    for x in range(order.n):
        fibres.setdefault(img[x], set()).add(perm[x])
    require(sorted(map(sorted, fibres.values())) == sorted(map(list, theta.blocks)),
            f"{name}: projection fibres are not the blocks")
    require(img[order.bottom] == target.bottom and img[order.top] == target.top,
            f"{name}: projection does not keep bottom and top")
    for x in range(order.n):
        for y in range(x + 1, order.n):
            if (img[order.meet[x][y]] != target.meet[img[x]][img[y]]
                    or img[order.join[x][y]] != target.join[img[x]][img[y]]):
                raise CheckFailed(f"{name}: projection is not a homomorphism")


WORKLOADS = {w.name: w for w in (FamiliesCli(), Congruences())}
