"""Command line front end.

Every command reads lattice/table files as defined in :mod:`commlat.fileio`
and writes canonical JSON to stdout, so identical inputs and flags produce
byte-identical output.  Exit status: 0 success, 2 invalid input (or an
unwritable output directory), 3 failed mathematical cross-check or any other
unexpected exception (which always indicates a bug in this package, not in
the input).
"""

import argparse
import os
import sys

from . import classify, fileio
from .commutator import (
    CommutatorTable,
    construct_pullback,
    construct_splitting,
    construct_sublattice,
    enumerate_commutators,
    largest_commutator,
)
from .errors import InputError, VerificationError
from .lattice import SublatticeEmbedding, congruence_generated, quotient
from .projectivity import SplittingPair


def _parse_pair(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected 'a,b', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"expected integers in {text!r}") from None


def _parse_pairs(text):
    return [_parse_pair(chunk) for chunk in text.split(";") if chunk]


def _parse_members(text):
    try:
        return [int(chunk) for chunk in text.split(",") if chunk]
    except ValueError:
        raise InputError(f"expected integers in {text!r}") from None


def _emit(doc):
    sys.stdout.write(fileio.canonical_dumps(doc))


def _cmd_analyze(args):
    lat = fileio.load_lattice(args.path)
    report = classify.analyze(lat)
    if args.format == "json":
        _emit(report.to_doc())
    else:
        print(report.summary())
    return 0


def _cmd_largest(args):
    lat = fileio.load_lattice(args.path)
    _emit(fileio.table_to_doc(largest_commutator(lat)))
    return 0


def _cmd_check_table(args):
    violations = CommutatorTable.violations(
        *fileio.table_from_doc(fileio.load_doc(args.path)))
    _emit({"valid": not violations,
           "violations": [v._asdict() for v in violations]})
    return 0


def _cmd_enumerate(args):
    lat = fileio.load_lattice(args.path)
    tables = enumerate_commutators(lat)
    doc = fileio.lattice_to_doc(lat)
    doc["count"] = len(tables)
    doc["tables"] = [[list(row) for row in t.entries] for t in tables]
    _emit(doc)
    return 0


# what each construct kind reads, its required option first
_CONSTRUCT_READS = {
    "sublattice": ("members", "table"),
    "pullback": ("seed_pairs", "table"),
    "splitting": ("splitting", "seed_pairs"),
}


def _cmd_construct(args):
    lat = fileio.load_lattice(args.path)
    reads = _CONSTRUCT_READS[args.kind]
    for option in ("members", "seed_pairs", "splitting", "table"):
        given = getattr(args, option) is not None
        flag = "--" + option.replace("_", "-")
        if given and option not in reads:
            raise InputError(f"construct {args.kind} does not read {flag}")
        if not given and option == reads[0]:
            raise InputError(f"construct {args.kind} needs {flag}")
    if args.kind == "sublattice":
        sub = SublatticeEmbedding(lat, _parse_members(args.members))
        ambient = fileio.load_table(args.table) \
            if args.table is not None else largest_commutator(lat)
        if ambient.lattice != lat:
            raise InputError("--table file does not match the lattice")
        result = construct_sublattice(ambient, sub)
    elif args.kind == "pullback":
        theta = congruence_generated(lat, _parse_pairs(args.seed_pairs))
        image, projection = quotient(lat, theta)
        target = fileio.load_table(args.table) \
            if args.table is not None else largest_commutator(image)
        if target.lattice != image:
            raise InputError("--table file does not match the quotient")
        result = construct_pullback(lat, projection, target)
    else:
        delta, epsilon = _parse_pair(args.splitting)
        seeds = _parse_pairs(args.seed_pairs) if args.seed_pairs else []
        theta = congruence_generated(lat, seeds + [(epsilon, lat.top)])
        result = construct_splitting(lat, SplittingPair(delta, epsilon), theta)
    _emit(fileio.table_to_doc(result))
    return 0


def _cmd_corpus(args):
    from . import corpus  # only this command needs it; keeps start-up lean

    lattices = corpus.generate_corpus(args.max_n,
                                      modular_only=args.modular_only,
                                      dedupe_iso=not args.keep_isomorphic)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for idx, lat in enumerate(lattices):
            name = f"lattice_n{lat.n}_{idx:04d}.json"
            with open(os.path.join(args.out_dir, name), "w",
                      encoding="utf-8") as handle:
                handle.write(fileio.canonical_dumps(fileio.lattice_to_doc(lat)))
        print(f"wrote {len(lattices)} lattice files to {args.out_dir}",
              file=sys.stderr)
    else:
        for lat in lattices:
            print(fileio.compact_dumps(fileio.lattice_to_doc(lat)))
    return 0


def _cmd_quotient(args):
    lat = fileio.load_lattice(args.path)
    theta = congruence_generated(lat, _parse_pairs(args.seed_pairs))
    image, _ = quotient(lat, theta)
    _emit(fileio.lattice_to_doc(image))
    return 0


def _cmd_dual(args):
    lat = fileio.load_lattice(args.path)
    _emit(fileio.lattice_to_doc(lat.dual()))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="commlat",
        description="Commutator multiplications on finite modular lattices "
                    "and the types they force.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full forcing report for a lattice file")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("largest",
                       help="largest commutator multiplication of a lattice")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_largest)

    p = sub.add_parser("check-table",
                       help="validate a commutator table file")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_check_table)

    p = sub.add_parser("enumerate",
                       help="all commutator multiplications (n <= 5)")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("construct",
                       help="build a multiplication from another one")
    p.add_argument("path")
    p.add_argument("kind", choices=("sublattice", "pullback", "splitting"))
    p.add_argument("--members", help="sublattice members, e.g. 0,2,5")
    p.add_argument("--seed-pairs",
                   help="congruence generators, e.g. 1,2;0,3")
    p.add_argument("--splitting", help="splitting pair delta,epsilon")
    p.add_argument("--table", help="table file to restrict or pull back")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("corpus",
                       help="stream all small lattices up to isomorphism")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--modular-only", action="store_true")
    p.add_argument("--keep-isomorphic", action="store_true",
                   help="emit every naturally labeled lattice, not one "
                        "representative per isomorphism class")
    p.add_argument("--out-dir", help="write one canonical file per lattice")
    p.set_defaults(handler=_cmd_corpus)

    p = sub.add_parser("quotient",
                       help="quotient by the congruence the seed pairs generate")
    p.add_argument("path")
    p.add_argument("--seed-pairs", required=True)
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("dual", help="reverse the order of a lattice file")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_dual)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except VerificationError as exc:
        print(f"commlat: cross-check violation (bug): {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"commlat: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"commlat: internal error (bug): {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
