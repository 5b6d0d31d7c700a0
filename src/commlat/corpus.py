"""Named small lattices and exhaustive generation up to isomorphism.

The generator grows every lattice whose order extends the natural order of
the indices (bottom 0, top n-1, interior ascending), element by element:
the elements below each new one form an order ideal of those before it, and
every finite lattice has such a labeling.  Each prefix 0..i of such a
labeling is a down-set, so it holds the meet of any two of its elements
and is a meet-semilattice; an ideal is kept only if it keeps the prefix
one, and a finite meet-semilattice with a top is a lattice.  So only
lattices are grown, each as its covers and masks.  The deduplicated corpus
grows one labeling per lattice, or a few: each interior element's
down-set, ordered by size and then as a bitmask, may not come before the
previous element's (J. Heitzig and J. Reinhold, "Counting finite
lattices", 2002, build one labeling per class the same way).  Duplicates
are detected with a canonical form read off the masks: the minimum
cover-set encoding over the relabelings that respect an iterated
neighborhood-color invariant, with twins kept in name order.  Only a class
not seen before is built as a :class:`FiniteLattice`, which validates it
(through ``lattice._built``: a grown lattice it refuses is a bug).  The
modular stream keeps a grown lattice when ``_is_modular``, which reads
only the cover masks, accepts it.

The hard size cap is 8 elements; beyond that the search space grows too fast
for the exhaustive approach taken here.  For the same reason the canonical
form refuses a lattice whose color classes leave more than 8! relabelings
to try.
"""

import itertools
import math
from functools import lru_cache
from types import SimpleNamespace

from .errors import InputError
from .lattice import FiniteLattice, _bits, _built, _is_modular

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


def _color_classes(lat):
    """Iterated refinement of an isomorphism-invariant element coloring,
    read off the cover and cone masks alone: the classes in color order,
    each a tuple of twin groups (see :func:`canonical_key`) in the order of
    their least names, each group in the order of its names."""
    n, lower, upper = lat.n, lat._lower, lat._upper
    ups = [tuple(_bits(m)) for m in upper]
    lows = [tuple(_bits(m)) for m in lower]
    # the four counts packed in the order of their tuple (each is at most
    # MAX_N = 64 < 2**7)
    colors = [d.bit_count() << 21 | u.bit_count() << 14 | len(lo) << 7 | len(up)
              for d, u, lo, up in zip(lat._down, lat._up, lows, ups)]
    # a refinement that splits no class would rank the classes in their
    # order, so it ends the loop, and a discrete coloring needs none
    count = len(set(colors))
    while count < n:
        refined = [
            (colors[x], tuple(sorted([colors[y] for y in ups[x]])),
             tuple(sorted([colors[y] for y in lows[x]])))
            for x in range(n)
        ]
        distinct = set(refined)
        if len(distinct) == count:
            break
        ranking = {c: i for i, c in enumerate(sorted(distinct))}
        colors = [ranking[c] for c in refined]
        count = len(ranking)
    classes = {}
    for x, c in enumerate(colors):
        twins = classes.setdefault(c, {})
        twins.setdefault((lower[x], upper[x]), []).append(x)
    return [tuple(map(tuple, classes[c].values())) for c in sorted(classes)]


def _arrangements(groups):
    """Each order of a color class's members that keeps every twin group in
    the order of its names: one per sequence of groups, |class|! over the
    product of the |group|!."""
    if len(groups) == 1:
        yield groups[0]
        return
    for i, group in enumerate(groups):
        rest = groups[:i] + (group[1:],) * (len(group) > 1) + groups[i + 1:]
        for tail in _arrangements(rest):
            yield (group[0], *tail)


def canonical_key(lat):
    """A relabeling-invariant encoding: equal keys iff isomorphic lattices.

    A relabeling lists the members of each color class in some order,
    classes in color order, and labels each element by its position in that
    list; so each class is sent to a fixed contiguous index range, the
    candidate relabelings of isomorphic lattices target identical index
    layouts, and the minimum cover encoding is canonical.  Twins, elements
    with the same lower and the same upper covers, share a color, and
    swapping two of them is an automorphism, so it leaves every encoding
    as it is: each twin group keeps the order of its names and only the
    arrangements of the groups are tried (B. D. McKay and A. Piperno,
    "Practical graph isomorphism, II", 2014, prune by automorphisms the
    same way).  The minimum is the one over every order; M_k takes one
    relabeling, and the 247 candidates grown for the lattices with at most
    7 elements and the modular ones with 8 take 312 instead of 2,031.
    Only ``n``, ``_lower``, ``_upper``, ``_down`` and ``_up`` are read, so
    a grown candidate is keyed before any lattice is built.
    Raises :class:`InputError`, before searching, when there are more than
    ``MAX_RELABELINGS`` relabelings to try.
    """
    classes = _color_classes(lat)
    relabelings = math.prod(
        math.factorial(sum(map(len, groups)))
        // math.prod(math.factorial(len(g)) for g in groups)
        for groups in classes)
    if relabelings > MAX_RELABELINGS:
        raise InputError(
            f"canonical form would try {relabelings} relabelings; the limit "
            f"is {MAX_RELABELINGS}")
    pairs = [(x, y) for x, rest in enumerate(lat._upper) for y in _bits(rest)]
    positions = ({x: i for i, x in enumerate(itertools.chain(*orders))}
                 for orders in itertools.product(*map(_arrangements, classes)))
    return lat.n, min(tuple(sorted((at[x], at[y]) for x, y in pairs))
                      for at in positions)


def _candidate(n, below, covers):
    """A grown lattice as its covers and the masks that :func:`canonical_key`
    and ``_is_modular`` read; it is built as a :class:`FiniteLattice`, which
    validates it, only when it is kept."""
    lower, upper = [0] * n, [0] * n
    up = [1 << v for v in range(n)]
    # the names extend the order: with x descending, each up[y] is whole
    # before it is read
    for x, y in sorted(covers, reverse=True):
        lower[y] |= 1 << x
        upper[x] |= 1 << y
        up[x] |= up[y]
    return SimpleNamespace(n=n, covers=covers, _lower=lower, _upper=upper,
                           _down=[d | 1 << x for x, d in enumerate(below)],
                           _up=up)


def _natural_order_lattices(n, modular_only=False, _size_ordered=False):
    """All lattices on 0..n-1 whose order extends the order of the indices,
    with bottom 0 and top n-1.  Yields every isomorphism class at least once,
    each candidate as its covers and masks (see :func:`_candidate`); no
    lattice is built here.

    The order grows one element at a time: the bitmask ``d`` of the elements
    below i is a nonempty order ideal of the order already built on 0..i-1
    (all of 0..i-1 for the top), so each partial order is built once and no
    relation needs a transitivity check.  Since 0..i-1 is a meet-semilattice
    (see the module docstring), i has a meet with k exactly when ``d`` cut
    with the principal ideal of k is principal, and ``d`` is kept only if
    that holds for every k.  Each ideal is listed as a union of principal
    ones together with the union of its members' strict down-sets, so its
    maximal elements, the lower covers of i, are one mask operation.  With
    ``modular_only`` an element whose lower covers differ in height is
    skipped too: a modular lattice is graded (Jordan-Dedekind), and so is
    each of its down-sets.  That stream then keeps the candidates that
    :func:`~commlat.lattice._is_modular` accepts on their cover masks.

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
        yield _candidate(1, (0,), ())
        return
    # per prefix 0..i-1: the strict down-sets, the heights and the covers
    stack = [((0,), (0,), ())]
    while stack:
        below, height, covers = stack.pop()
        i = len(below)
        if i < n - 1:
            principal = [mask | 1 << k for k, mask in enumerate(below)]
            # each ideal with the union of its members' strict down-sets
            ideals = {0: 0}
            for p, under in zip(principal, below):
                ideals.update({d | p: u | under for d, u in ideals.items()})
            # the empty ideal fails too: its cuts are empty
            keys = set(principal)
            # with _size_ordered, (|d|, d) may not drop below i - 1's
            floor = ((below[-1].bit_count(), below[-1]) if _size_ordered
                     else (0, 0))
            downs = [(d, d & ~u) for d, u in ideals.items()
                     if (d.bit_count(), d) >= floor
                     and all(d & p in keys for p in principal)]
        else:
            under = 0
            for mask in below:
                under |= mask
            downs = [((1 << i) - 1, (1 << i) - 1 & ~under)]
        for d, maximal in downs:
            lower = list(_bits(maximal))
            if modular_only and len({height[x] for x in lower}) > 1:
                continue
            grown = covers + tuple((x, i) for x in lower)
            if i < n - 1:
                stack.append((below + (d,), height + (height[lower[0]] + 1,),
                              grown))
                continue
            candidate = _candidate(n, below + (d,), grown)
            if not modular_only or _is_modular(candidate):
                yield candidate


@lru_cache(maxsize=None)
def all_lattices(n, modular_only=False):
    """All lattices with exactly n elements, one per isomorphism class,
    sorted by their canonical cover encoding.  Only the size-ordered
    labelings are grown (see :func:`_natural_order_lattices`): 758 of the
    3,637 natural labelings for n = 8.  Each is keyed from its masks, and
    only a class not seen before is built and validated, in its canonical
    labeling: 222 builds for n = 8."""
    if n > MAX_CORPUS_N:
        raise InputError(f"corpus generation is capped at n = {MAX_CORPUS_N}")
    seen = {}
    for candidate in _natural_order_lattices(n, modular_only,
                                               _size_ordered=True):
        key = canonical_key(candidate)
        if key not in seen:
            seen[key] = _built("all_lattices", FiniteLattice, *key)
    return tuple(seen[key] for key in sorted(seen))


def generate_corpus(max_n, modular_only=False, dedupe_iso=True):
    """All lattices with at most max_n elements, the stream the corpus
    command emits: ordered by size, then by cover list.  With ``dedupe_iso``
    it holds one canonically labeled lattice per isomorphism class, without
    it every naturally labeled one (see :func:`_natural_order_lattices`),
    each built and validated."""
    if max_n > MAX_CORPUS_N:
        raise InputError(f"corpus generation is capped at n = {MAX_CORPUS_N}")
    if max_n < 1:
        raise InputError("max_n must be at least 1")
    out = []
    for n in range(1, max_n + 1):
        if dedupe_iso:
            out += all_lattices(n, modular_only)
        else:
            out += sorted((_built("generate_corpus", FiniteLattice, c.n,
                                  c.covers)
                           for c in _natural_order_lattices(n, modular_only)),
                          key=FiniteLattice.cover_pairs)
    return out
