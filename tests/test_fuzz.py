"""Hostile input through the command line, in process.

Valid lattice and table documents are mutated (repeated keys, wrong types,
bools, floats, huge integers, deep nesting, truncation, invalid UTF-8) and
every subcommand runs on them with mutated flag values; a ``construct`` run
may also get a flag that only another kind reads.  Each run must exit 0 or
2, never 3: an argparse usage error is ``SystemExit(2)`` with a usage block,
any other exit 2 prints one stderr line starting ``commlat:``, an exit 0
prints the same as the run on the documents re-serialized with
``json.dumps``, and a run with another kind's flag exits 2, naming that
flag once its lattice file loads.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from commlat import corpus, fileio
from commlat.cli import main
from commlat.commutator import largest_commutator
from commlat.lattice import FiniteLattice
from families import N5
from test_commutator import _meets

LATTICES = [corpus.diamond(), corpus.boolean(2), corpus.chain(3),
            FiniteLattice(*N5)]

# valid values first; each flag may also get one of HOSTILE
FLAGS = {
    "--format": ["json", "text"],
    "--members": ["0,1,4", "0,3", "0,1,2,3"],
    "--seed-pairs": ["2,3", "0,1", "1,2;0,3"],
    "--splitting": ["1,2", "2,1", "0,1"],
    "--max-n": ["3", "1", "4"],
}
HOSTILE = ["", "-1", "0", "x", "1,", ",", ";", "0,0;;1,1", "1.5", "1e3",
           "99999999999999999999", "-99999999999999999999",
           "0,99999999999999999999", "٣", "1,2,3", "a,b", " 1 , 2 ",
           "\x00", "-1,0", "4,0"]

# the flags each construct kind reads, its required one first
CONSTRUCT = {
    "sublattice": ["--members", "--table"],
    "pullback": ["--seed-pairs", "--table"],
    "splitting": ["--splitting", "--seed-pairs"],
}

# (argv, optional flags); LATTICE and TABLE stand for the document files,
# and a last argv entry in FLAGS takes a value
COMMANDS = [
    (["analyze", "LATTICE"], ["--format"]),
    (["largest", "LATTICE"], []),
    (["check-table", "TABLE"], []),
    (["enumerate", "LATTICE"], []),
    *((["construct", "LATTICE", kind, required], optional)
      for kind, (required, *optional) in CONSTRUCT.items()),
    (["corpus", "--max-n"], ["--modular-only", "--keep-isomorphic"]),
    (["quotient", "LATTICE", "--seed-pairs"], []),
    (["dual", "LATTICE"], []),
]


class Obj(list):
    """A JSON object as a list of (key, value) pairs, so keys may repeat."""


class Raw(str):
    """JSON text written as it is."""


def _node(value):
    if isinstance(value, dict):
        return Obj((k, _node(v)) for k, v in value.items())
    if isinstance(value, list):
        return [_node(v) for v in value]
    return value


def _text(node):
    if isinstance(node, Raw):
        return node
    if isinstance(node, Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v)}"
                               for k, v in node) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(map(_text, node)) + "]"
    return json.dumps(node)


def _nested(depth):
    return Raw("[" * depth + "]" * depth)


VALUES = st.one_of(
    st.sampled_from([True, False, None, 1.5, -0.0, float("inf"), 2 ** 70,
                     -(2 ** 63), "0", "", [], [[0, 1]], [[0]], Obj(),
                     Raw("1" + "0" * 5000), Raw("NaN")]),
    st.integers(-3, 70),
    st.sampled_from([1, 3, 100, 900, 5000, 100_000]).map(_nested),
)


def _mutated(data, node):
    """``node`` with one drawn part replaced, deleted, repeated or added."""
    if isinstance(node, Obj):
        action = data.draw(st.sampled_from(
            ["descend", "replace", "delete", "repeat", "add"]))
        if action == "add" or not node:
            return Obj(node + [(data.draw(st.sampled_from(["x", "n", "N"])),
                                data.draw(VALUES))])
        i = data.draw(st.integers(0, len(node) - 1))
        key, value = node[i]
        if action == "delete":
            return Obj(node[:i] + node[i + 1:])
        if action == "repeat":
            again = value if data.draw(st.booleans()) else data.draw(VALUES)
            return Obj(node + [(key, again)])
        value = _mutated(data, value) if action == "descend" else data.draw(VALUES)
        return Obj(node[:i] + [(key, value)] + node[i + 1:])
    if isinstance(node, list) and node:
        action = data.draw(st.sampled_from(
            ["descend", "replace", "delete", "append"]))
        if action == "append":
            return node + [data.draw(VALUES)]
        i = data.draw(st.integers(0, len(node) - 1))
        if action == "delete":
            return node[:i] + node[i + 1:]
        value = _mutated(data, node[i]) if action == "descend" else data.draw(VALUES)
        return node[:i] + [value] + node[i + 1:]
    return data.draw(VALUES)


def _document(data, doc):
    """The bytes of ``doc`` after up to three drawn mutations, perhaps
    truncated or carrying invalid UTF-8."""
    node = _node(doc)
    for _ in range(data.draw(st.integers(0, 3))):
        node = _mutated(data, node)
    raw = _text(node).encode()
    damage = data.draw(st.sampled_from([None] * 4 + ["truncate", "utf-8"]))
    if damage is not None:
        at = data.draw(st.integers(0, len(raw)))
        bad = data.draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        raw = raw[:at] if damage == "truncate" else raw[:at] + bad + raw[at:]
    return raw


def _flag_value(data, flag):
    if flag in FLAGS:
        return [data.draw(st.sampled_from(FLAGS[flag] + HOSTILE))]
    return ["TABLE"] if flag == "--table" else []


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:
            code, usage = exc.code, True
    return code, usage, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=250, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(st.data())
def test_hostile_input_exits_0_or_2(tmp_path, data):
    argv, optional = data.draw(st.sampled_from(COMMANDS))
    lat = data.draw(st.sampled_from(LATTICES))
    valid = {
        "LATTICE": fileio.lattice_to_doc(lat),
        "TABLE": fileio.table_to_doc(data.draw(st.sampled_from(
            [largest_commutator(lat), _meets(lat)]))),
    }
    if argv[-1] in FLAGS:
        argv = argv + _flag_value(data, argv[-1])
    for flag in optional:
        if data.draw(st.booleans()):
            argv = argv + [flag] + _flag_value(data, flag)
    foreign = argv[0] == "construct" and data.draw(st.booleans())
    if foreign:
        flag = data.draw(st.sampled_from(sorted(
            set().union(*CONSTRUCT.values()) - set(CONSTRUCT[argv[2]]))))
        argv = argv + [flag] + _flag_value(data, flag)
    if argv[0] == "corpus" and data.draw(st.booleans()):
        argv += ["--out-dir", str(tmp_path / "out")]
    reads = sorted(set(argv) & set(valid))
    target = data.draw(st.sampled_from(reads)) if reads else None
    paths = {name: str(tmp_path / f"{name.lower()}.json") for name in reads}
    for name, path in paths.items():
        with open(path, "wb") as handle:
            handle.write(_document(data, valid[name]) if name == target
                         else fileio.canonical_dumps(valid[name]).encode())
    argv = [paths.get(a, a) for a in argv]

    code, usage, out, err = _run(argv)
    assert code == 2 if foreign else code in (0, 2), (argv, err)
    if usage:
        assert err.startswith("usage: commlat")
    elif code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("commlat: "), \
            (argv, err)
    elif target is not None:
        with open(paths[target], encoding="utf-8") as handle:
            text = json.dumps(json.loads(handle.read()))
        with open(paths[target], "w", encoding="utf-8") as handle:
            handle.write(text)
        assert _run(argv) == (0, False, out, err), argv
    if foreign and not usage:
        try:
            fileio.load_lattice(paths["LATTICE"])
        except ValueError:
            return
        assert err == f"commlat: construct {argv[2]} does not read {flag}\n"
