"""The benchmark's input lattices, built here from their definitions.

A lattice is a pair ``(n, covers)``: elements ``0 .. n-1`` and a set of cover
pairs ``(x, y)`` meaning y covers x.  Nothing here uses commlat, so the
families and the relabelings are independent of the program they feed.
"""


def chain(k):
    """C_k: the k-element chain."""
    return k, {(i, i + 1) for i in range(k - 1)}


def boolean(k):
    """B_k: the subsets of a k-set, element = bitmask."""
    return 1 << k, {(m, m | 1 << b)
                    for m in range(1 << k) for b in range(k) if not m >> b & 1}


def m(k):
    """M_k: k atoms between a bottom 0 and a top k+1."""
    return k + 2, ({(0, a) for a in range(1, k + 1)}
                   | {(a, k + 1) for a in range(1, k + 1)})


def product(*factors):
    """The direct product; element (x1, .., xr) is numbered in mixed radix."""
    tuples = [()]
    for k, _ in factors:
        tuples = [t + (x,) for t in tuples for x in range(k)]
    index = {t: i for i, t in enumerate(tuples)}
    covers = set()
    for t in tuples:
        for pos, (_, fcovers) in enumerate(factors):
            for lo, hi in fcovers:
                if t[pos] == lo:
                    covers.add((index[t], index[t[:pos] + (hi,) + t[pos + 1:]]))
    return len(tuples), covers


FANO_LINES = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0),
              (5, 6, 1), (6, 0, 2))


def fano():
    """The 16-element subspace lattice of the Fano plane PG(2, 2):
    0, then the seven points 1..7, the seven lines 8..14, and the plane 15."""
    covers = {(0, 1 + p) for p in range(7)}
    covers |= {(1 + p, 8 + i) for i, line in enumerate(FANO_LINES) for p in line}
    covers |= {(8 + i, 15) for i in range(7)}
    return 16, covers


def relabel(lattice, rng):
    """A random renaming of the elements: returns the renamed lattice and the
    permutation ``perm`` (old element x is called ``perm[x]``)."""
    n, covers = lattice
    perm = list(range(n))
    rng.shuffle(perm)
    return (n, {(perm[x], perm[y]) for x, y in covers}), perm


def relabel_monotone(lattice, rng):
    """Like :func:`relabel`, but the new names increase along the order: a
    random linear extension, drawn by repeatedly naming a random minimal
    element of what is left."""
    n, covers = lattice
    covers = sorted(covers)
    below = [0] * n
    for _, y in covers:
        below[y] += 1
    ready = [x for x in range(n) if below[x] == 0]
    perm = [0] * n
    for name in range(n):
        x = ready.pop(rng.randrange(len(ready)))
        perm[x] = name
        for a, y in covers:
            if a == x:
                below[y] -= 1
                if below[y] == 0:
                    ready.append(y)
    return (n, {(perm[x], perm[y]) for x, y in covers}), perm


def inverse(perm):
    out = [0] * len(perm)
    for x, px in enumerate(perm):
        out[px] = x
    return out
