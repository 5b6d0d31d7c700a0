"""Named small lattices and exhaustive generation up to isomorphism.

The generator grows every lattice whose order extends the natural order of
the indices (bottom 0, top n-1, interior ascending), element by element:
the elements below each new one form an order ideal of those before it, and
every finite lattice has such a labeling.  Each prefix 0..i of such a
labeling is a down-set, so it holds the meet of any two of its elements
and is a meet-semilattice; an ideal is kept only if it keeps the prefix
one, and a finite meet-semilattice with a top is a lattice.  So only
lattices are built.  The deduplicated corpus grows one labeling per
lattice, or a few: each interior element's down-set, ordered by size and
then as a bitmask, may not come before the previous element's (J. Heitzig
and J. Reinhold, "Counting finite lattices", 2002, build one labeling per
class the same way).  Rejecting isomorphic duplicates then yields each
class exactly once.  Duplicates are detected with a canonical form: the
minimum cover-set encoding over all relabelings that respect an iterated
neighborhood-color invariant.

The hard size cap is 8 elements; beyond that the search space grows too fast
for the exhaustive approach taken here.  For the same reason the canonical
form refuses a lattice whose color classes allow more than 8! relabelings.
"""

import itertools
import math
from functools import lru_cache

from .errors import LatticeTooLarge, NotALattice, VerificationError
from .lattice import FiniteLattice, _bits

MAX_CORPUS_N = 8
# relabelings canonical_key may try: 8! bounds any lattice with at most
# MAX_CORPUS_N elements
MAX_RELABELINGS = math.factorial(MAX_CORPUS_N)


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1."""
    return FiniteLattice(k, {(i, i + 1) for i in range(k - 1)})


def boolean(k):
    """The Boolean lattice of subsets of a k-set; element = bitmask."""
    covers = {(m, m | (1 << b))
              for m in range(1 << k) for b in range(k) if not m >> b & 1}
    return FiniteLattice(1 << k, covers)


def diamond():
    """M3: three atoms between bottom and top; simple, modular."""
    return FiniteLattice(5, {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)})


def pentagon():
    """N5: the five-element nonmodular lattice 0 < a < c < 1, 0 < b < 1."""
    return FiniteLattice(5, {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)})


def _color_classes(lat):
    """Iterated refinement of an isomorphism-invariant element coloring."""
    colors = [
        (lat.lower_set(x).bit_count(), lat.upper_set(x).bit_count(),
         lat._lower[x].bit_count(), lat._upper[x].bit_count())
        for x in lat.elements
    ]
    while True:
        refined = [
            (colors[x], tuple(sorted(colors[y] for y in _bits(lat._upper[x]))),
             tuple(sorted(colors[y] for y in _bits(lat._lower[x]))))
            for x in lat.elements
        ]
        ranking = {c: i for i, c in enumerate(sorted(set(refined)))}
        new_colors = [ranking[refined[x]] for x in lat.elements]
        if len(set(new_colors)) == len(set(colors)):
            colors = new_colors
            break
        colors = new_colors
    classes = {}
    for x, c in enumerate(colors):
        classes.setdefault(c, []).append(x)
    return [classes[c] for c in sorted(classes)]


def canonical_key(lat):
    """A relabeling-invariant encoding: equal keys iff isomorphic lattices.

    A relabeling lists the members of each color class in some order,
    classes in color order, and labels each element by its position in that
    list; so each class is sent to a fixed contiguous index range, the
    candidate relabelings of isomorphic lattices target identical index
    layouts, and the minimum cover encoding is canonical.
    Raises :class:`LatticeTooLarge`, before searching, when the classes
    allow more than ``MAX_RELABELINGS`` relabelings.
    """
    classes = _color_classes(lat)
    relabelings = math.prod(math.factorial(len(cls)) for cls in classes)
    if relabelings > MAX_RELABELINGS:
        raise LatticeTooLarge(
            f"canonical form would try {relabelings} relabelings; the limit "
            f"is {MAX_RELABELINGS}")
    pairs = lat.cover_pairs()
    positions = ({x: i for i, x in enumerate(itertools.chain(*orders))}
                 for orders in itertools.product(*map(itertools.permutations,
                                                      classes)))
    return lat.n, min(tuple(sorted((at[x], at[y]) for x, y in pairs))
                      for at in positions)


def canonical_form(lat):
    """The isomorphic copy of ``lat`` with the canonical labeling."""
    n, covers = canonical_key(lat)
    return FiniteLattice(n, covers)


def isomorphic(a, b):
    return canonical_key(a) == canonical_key(b)


def _natural_order_lattices(n, modular_only=False, _size_ordered=False):
    """All lattices on 0..n-1 whose order extends the order of the indices,
    with bottom 0 and top n-1.  Yields every isomorphism class at least once.

    The order grows one element at a time: the bitmask ``d`` of the elements
    below i is a nonempty order ideal of the order already built on 0..i-1
    (all of 0..i-1 for the top), so each partial order is built once and no
    relation needs a transitivity check.  Since 0..i-1 is a meet-semilattice
    (see the module docstring), i has a meet with k exactly when ``d`` cut
    with the principal ideal of k is principal, and ``d`` is kept only if
    that holds for every k.  With ``modular_only`` an element whose lower
    covers differ in height is skipped too: a modular lattice is graded
    (Jordan-Dedekind), and so is each of its down-sets.  The covers are
    the maximal elements of each ``d``; :class:`FiniteLattice` validates
    every candidate, and one it rejects is a bug.

    With ``_size_ordered`` an interior i is grown only if
    ``(popcount(d), d)`` is at least the same pair of i - 1, before the
    meet test, so whole subtrees are cut.  Every class still appears:
    listing the elements by the size of their down-sets is a natural
    labeling, each run of equal size is an antichain whose down-sets lie
    in earlier runs, so sorting each run by down-set mask gives a labeling
    that passes.  Only :func:`all_lattices`, which keeps one lattice per
    class, asks for it; the stream that keeps isomorphic copies yields
    every natural labeling.
    """
    if n == 1:
        yield FiniteLattice(1)
        return
    # per prefix 0..i-1: the strict down-set, the height and the covers
    stack = [((0,), (0,), ())]
    while stack:
        below, height, covers = stack.pop()
        i = len(below)
        principal = [mask | 1 << k for k, mask in enumerate(below)]
        if i < n - 1:
            ideals = {0}
            for p in principal:
                ideals |= {d | p for d in ideals}
            # the empty ideal fails too: its cuts are empty
            keys = set(principal)
            # with _size_ordered, (|d|, d) may not drop below i - 1's
            floor = ((bin(below[-1]).count("1"), below[-1]) if _size_ordered
                     else (0, 0))
            downs = [d for d in ideals if (bin(d).count("1"), d) >= floor
                     and all(d & p in keys for p in principal)]
        else:
            downs = [(1 << i) - 1]
        for d in downs:
            under = 0
            for z in _bits(d):
                under |= below[z]
            lower = list(_bits(d & ~under))
            if modular_only and len({height[x] for x in lower}) > 1:
                continue
            grown = covers + tuple((x, i) for x in lower)
            if i < n - 1:
                stack.append((below + (d,), height + (height[lower[0]] + 1,),
                              grown))
                continue
            try:
                lat = FiniteLattice(n, grown)
            except NotALattice as exc:
                raise VerificationError(
                    f"a grown meet-semilattice with a top is no lattice: {exc}"
                ) from exc
            if not modular_only or lat.is_modular():
                yield lat


@lru_cache(maxsize=None)
def all_lattices(n, modular_only=False):
    """All lattices with exactly n elements, one per isomorphism class,
    sorted by their canonical cover encoding.  Only the size-ordered
    labelings are grown (see :func:`_natural_order_lattices`): 758 of the
    3,637 natural labelings for n = 8."""
    if n > MAX_CORPUS_N:
        raise LatticeTooLarge(f"corpus generation is capped at n = {MAX_CORPUS_N}")
    seen = {}
    for candidate in _natural_order_lattices(n, modular_only,
                                               _size_ordered=True):
        key = canonical_key(candidate)
        if key not in seen:
            seen[key] = FiniteLattice(*key)
    return tuple(seen[key] for key in sorted(seen))


def generate_corpus(max_n, modular_only=False, dedupe_iso=True):
    """All lattices with at most max_n elements, the stream the corpus
    command emits: ordered by size, then by cover list.  With ``dedupe_iso``
    it holds one canonically labeled lattice per isomorphism class, without
    it every naturally labeled one (see :func:`_natural_order_lattices`)."""
    if max_n > MAX_CORPUS_N:
        raise LatticeTooLarge(f"corpus generation is capped at n = {MAX_CORPUS_N}")
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    out = []
    for n in range(1, max_n + 1):
        if dedupe_iso:
            out += all_lattices(n, modular_only)
        else:
            out += sorted(_natural_order_lattices(n, modular_only),
                          key=FiniteLattice.cover_pairs)
    return out
