"""Seeded input generators.  Pure Python, no freebases import.

Every generator takes a ``random.Random`` and returns plain data: words as
tuples of nonzero ints, graphs as ``(n, edges)`` over ``range(n)``.  Sizes
are fixed by the caller; the seed only picks the shapes, so the cost of a
workload changes little from seed to seed.
"""

from oracle import inverse, reduce


def random_word(rng, rank, length):
    """Uniform reduced word of the given length."""
    w = []
    while len(w) < length:
        x = rng.choice([i for i in range(-rank, rank + 1) if i and (not w or i != -w[-1])])
        w.append(x)
    return tuple(w)


def nielsen_basis(rng, rank, lo, hi):
    """Free basis from Nielsen moves on the standard basis, every word of
    length within [lo, hi].

    Each step multiplies a shortest word, on a random side, by another word
    or its inverse, keeping it at most ``hi`` long, and sometimes inverts a
    word.  A walk that gets stuck starts over from the standard basis.
    """
    for _ in range(10000):
        b = [(i,) for i in range(1, rank + 1)]
        for _ in range(int(20 * rank * hi)):
            shortest = min(len(w) for w in b)
            if shortest >= lo:
                return tuple(b)
            i = rng.choice([k for k, w in enumerate(b) if len(w) == shortest])
            j = rng.choice([k for k in range(rank) if k != i])
            m = b[j] if rng.random() < 0.5 else inverse(b[j])
            w = reduce(m + b[i]) if rng.random() < 0.5 else reduce(b[i] + m)
            if len(w) <= hi:
                b[i] = w
            if rng.random() < 0.3:
                k = rng.randrange(rank)
                b[k] = inverse(b[k])
    raise RuntimeError("no rank-%d basis with words of %s-%s letters" % (rank, lo, hi))


def wedge_class(words):
    """Which path the library's basis test takes on the wedge of ``words``.

    "foldable": the wedge is foldable as given.  "repaired": it is not, and
    conjugating every word by a power of the common boundary generator makes
    it foldable.  "unrepairable": there is a common boundary generator but
    no power up to the library's search limit helps, so the whole search
    runs before single folds take over.  "mixed": no common boundary
    generator, so single folds take over at once.  The wedge is foldable
    iff the base sees at least three distinct outgoing labels, so only
    first and last letters matter.
    """
    def foldable(ws):
        return len({w[0] for w in ws} | {-w[-1] for w in ws}) >= 3

    if foldable(words):
        return "foldable"
    gens = {abs(w[0]) for w in words} | {abs(w[-1]) for w in words}
    if len(gens) != 1:
        return "mixed"
    c = gens.pop()
    for size in range(1, max(map(len, words)) // 2 + 3):
        for m in (-size, size):
            p = (c,) * m if m > 0 else (-c,) * -m
            if foldable([reduce(p + w + inverse(p)) for w in words]):
                return "repaired"
    return "unrepairable"


def prufer_tree(rng, n):
    """Uniform labeled tree on range(n) from a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        u = degree.index(1)
        edges.append((u, v))
        degree[u] -= 1
        degree[v] -= 1
    a, b = [u for u in range(n) if degree[u] == 1]
    edges.append((a, b))
    return n, edges


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def grid(k):
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1))
            if r + 1 < k:
                edges.append((v, v + k))
    return k * k, edges


def cone(graph, subsets):
    """Add every edge inside each subset."""
    n, edges = graph
    out = {(min(u, v), max(u, v)) for u, v in edges}
    for s in subsets:
        s = sorted(s)
        out.update((u, v) for i, u in enumerate(s) for v in s[i + 1:])
    return n, sorted(out)
