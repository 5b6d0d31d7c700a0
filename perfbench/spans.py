"""In-memory span tracing of commlat's layers, from outside the package.

:class:`Tracer` replaces each traced function at every module binding of the
package (and each traced method on its class), so calls made from inside the
package are seen as well.  A span is recorded only while an operation is
current; the benchmark's own checks run with no operation set and go
unrecorded.  Spans are kept in flat arrays and written when the run ends.
"""

import array
import functools
import gzip
import importlib
import json
import sys
import time

# (name, module, attribute path, reported kinds).  The attribute path names
# a module-level function or ``Class.method``; each kind becomes a metric
# ``<name>.calls`` (count) or ``<name>.self_ms`` (ms).
TRACED = (
    ("lattice.FiniteLattice", "lattice", "FiniteLattice.__init__",
     ("calls", "self_ms")),
    ("lattice.is_modular", "lattice", "FiniteLattice.is_modular",
     ("calls", "self_ms")),
    ("lattice.SublatticeEmbedding.generated", "lattice",
     "SublatticeEmbedding.generated", ("calls", "self_ms")),
    ("lattice.congruence_generated", "lattice", "congruence_generated",
     ("calls", "self_ms")),
    ("lattice.all_congruences", "lattice", "all_congruences", ("self_ms",)),
    ("lattice.is_simple", "lattice", "is_simple", ("calls", "self_ms")),
    ("lattice.quotient", "lattice", "quotient", ("self_ms",)),
    ("projectivity.meet_irreducibles", "projectivity", "meet_irreducibles",
     ("calls", "self_ms")),
    ("projectivity.join_irreducibles", "projectivity", "join_irreducibles",
     ("calls",)),
    ("projectivity.projectivity_classes", "projectivity",
     "projectivity_classes", ("calls", "self_ms")),
    ("projectivity.projective_ceiling", "projectivity", "projective_ceiling",
     ("calls", "self_ms")),
    ("projectivity.two_element_quotient", "projectivity",
     "two_element_quotient", ("self_ms",)),
    ("projectivity.splitting_pairs", "projectivity", "splitting_pairs",
     ("calls", "self_ms")),
    ("projectivity.separating_congruence", "projectivity",
     "separating_congruence", ("calls", "self_ms")),
    ("commutator.largest_commutator", "commutator", "largest_commutator",
     ("calls", "self_ms")),
    ("commutator.CommutatorTable.violations", "commutator",
     "CommutatorTable.violations", ("calls", "self_ms")),
    ("commutator.series", "commutator", "series", ("calls", "self_ms")),
    ("commutator.residuation", "commutator", "residuation",
     ("calls", "self_ms")),
    ("classify.analyze", "classify", "analyze", ("self_ms",)),
    ("classify.forces_abelian_type", "classify", "forces_abelian_type",
     ("self_ms",)),
    ("classify.forces_nilpotent_type", "classify", "forces_nilpotent_type",
     ("self_ms",)),
    ("classify.forces_solvable_type", "classify", "forces_solvable_type",
     ("self_ms",)),
    ("classify.witness_search", "classify", "_abelian_sufficient_sublattice",
     ()),
    ("corpus.all_lattices", "corpus", "all_lattices", ("self_ms",)),
    ("corpus.canonical_key", "corpus", "canonical_key", ("calls", "self_ms")),
    ("fileio.load_lattice", "fileio", "load_lattice", ("self_ms",)),
    ("fileio.canonical_dumps", "fileio", "canonical_dumps", ("self_ms",)),
)

# Per-layer metrics that do not come from a single traced function.
OTHER_METRICS = (
    # sublattices generated inside forces_abelian_type, and witnesses found
    # per candidate (0 when nothing was searched)
    ("classify.witness.candidates", "count", "lower"),
    ("classify.witness.found_ratio", "ratio", "higher"),
    # sum of the package caches' currsize at the end of the run
    ("cache.entries", "count", "lower"),
    # wall time of a child process that only imports commlat.cli
    ("cli.startup_ms", "ms", "lower"),
    # lines of src/**/*.py
    ("src.lines", "lines", "lower"),
    # traced / untraced ops_per_s on the first round
    ("trace.overhead", "ratio", "higher"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric."""
    out = [(f"{name}.{kind}", "count" if kind == "calls" else "ms", "lower")
           for name, _, _, kinds in TRACED for kind in kinds]
    return out + list(OTHER_METRICS)


def package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "commlat"
                                    or name.startswith("commlat."))]


def package_caches():
    """The package's ``functools`` caches (anything with ``cache_info``)."""
    seen = {}
    for mod in package_modules():
        for value in vars(mod).values():
            if not hasattr(value, "cache_info"):    # look through a tracer
                value = getattr(value, "__wrapped__", None)
            if (hasattr(value, "cache_info") and hasattr(value, "cache_clear")
                    and str(getattr(value, "__module__", "")).startswith("commlat")):
                seen[id(value)] = value
    return list(seen.values())


def cache_entries():
    return sum(c.cache_info().currsize for c in package_caches())


class Tracer:
    """Records (name, start, end, parent span, operation) per traced call."""

    def __init__(self):
        self.names = [entry[0] for entry in TRACED]
        self.absent = []
        self.op = None          # current operation id, or None: not recording
        self._last_op = 0
        self._stack = []
        self._name = array.array("i")
        self._parent = array.array("i")
        self._op = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._found = {}        # span index -> whether a witness was found
        self._undo = []

    def begin_operation(self):
        """Start recording under a fresh operation id."""
        self._last_op += 1
        self.op = self._last_op

    # -- installing -------------------------------------------------------

    def install(self):
        for index, (name, module, path, _) in enumerate(TRACED):
            try:
                mod = importlib.import_module("commlat." + module)
            except ImportError:
                mod = None
            if not self._patch(index, mod, path):
                self.absent.append(name)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, index, mod, path):
        if mod is None:
            return False
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name, None)
            raw = vars(cls).get(attr) if isinstance(cls, type) else None
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(index, raw.__func__))
            else:
                replacement = self._wrap(index, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, replacement)
            return True
        original = getattr(mod, path, None)
        if original is None:
            return False
        wrapper = self._wrap(index, original)
        for other in package_modules():
            for key, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, key, original))
                    setattr(other, key, wrapper)
        return True

    def _wrap(self, index, fn):
        tracer = self
        witness = TRACED[index][0] == "classify.witness_search"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = len(tracer._name)
            tracer._name.append(index)
            tracer._parent.append(stack[-1] if stack else -1)
            tracer._op.append(tracer.op)
            tracer._end.append(0.0)
            stack.append(span)
            tracer._start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end[span] = time.perf_counter()
                stack.pop()
            if witness:
                tracer._found[span] = result is not None
            return result

        return traced

    # -- reading ------------------------------------------------------------

    def summary(self):
        """Per-layer metrics: ``<name>.calls`` and ``<name>.self_ms`` for each
        reported name (None when absent), plus the witness-search counts."""
        count = len(self._name)
        names, parents = self._name, self._parent
        child = [0.0] * count
        for s in range(count):
            p = parents[s]
            if p >= 0:
                child[p] += self._end[s] - self._start[s]
        calls = [0] * len(TRACED)
        self_ms = [0.0] * len(TRACED)
        for s in range(count):
            calls[names[s]] += 1
            self_ms[names[s]] += (self._end[s] - self._start[s] - child[s]) * 1e3
        out = {}
        for index, (name, _, _, kinds) in enumerate(TRACED):
            for kind in kinds:
                value = calls[index] if kind == "calls" else self_ms[index]
                out[f"{name}.{kind}"] = None if name in self.absent else value
        out.update(self._witness_counts())
        return out

    def _witness_counts(self):
        """Sublattices generated under ``forces_abelian_type`` and witnesses
        found per candidate (0 when nothing was searched)."""
        abelian = self.names.index("classify.forces_abelian_type")
        generated = self.names.index("lattice.SublatticeEmbedding.generated")
        if {"classify.forces_abelian_type", "classify.witness_search",
                "lattice.SublatticeEmbedding.generated"} & set(self.absent):
            return {"classify.witness.candidates": None,
                    "classify.witness.found_ratio": None}
        under = {}          # span -> whether it lies under forces_abelian_type

        def inside(s):
            if s < 0:
                return False
            if s not in under:
                under[s] = (self._name[s] == abelian
                            or inside(self._parent[s]))
            return under[s]

        candidates = sum(1 for s in range(len(self._name))
                         if self._name[s] == generated and inside(s))
        found = sum(1 for s, hit in self._found.items() if hit and inside(s))
        return {"classify.witness.candidates": candidates,
                "classify.witness.found_ratio":
                    found / candidates if candidates else 0.0}

    def write(self, path, header):
        """Write the spans as gzipped JSON lines: one header object, then
        ``[name, start_us, end_us, parent, op]`` per span (times relative to
        the first span)."""
        origin = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write(json.dumps(dict(header, names=self.names,
                                      absent=self.absent)) + "\n")
            for s in range(len(self._name)):
                out.write("[%d,%.1f,%.1f,%d,%d]\n" % (
                    self._name[s], (self._start[s] - origin) * 1e6,
                    (self._end[s] - origin) * 1e6, self._parent[s], self._op[s]))
