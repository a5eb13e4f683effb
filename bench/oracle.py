"""Independent checking code for the benchmark.

Nothing here imports freebases.  Words are tuples of nonzero ints (``i`` is
the i-th generator, ``-i`` its inverse), graphs are adjacency lists over
``range(n)``.  Every routine is the plainest correct method, so that a
disagreement with the library points at the library.
"""

import random
from fractions import Fraction
from itertools import combinations


# -- words -----------------------------------------------------------------


def reduce(seq):
    """Free reduction by a stack."""
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w):
    return tuple(-x for x in reversed(w))


def conjugate(w, g):
    """g^-1 w g, reduced."""
    return reduce(inverse(g) + tuple(w) + tuple(g))


def cyclic_core(w):
    """Cyclically reduced core of w."""
    w = reduce(w)
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return w[lo:hi]


def letter_order(x):
    """x_1 < x_1^-1 < x_2 < x_2^-1 < ..., the library's tie-break order."""
    return 2 * abs(x) - (1 if x > 0 else 0)


def least_rotation(seq):
    """Start index of the lexicographically least rotation, by the
    two-pointer minimum-expression method (linear time)."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j) if n else 0


def normal_form(w):
    """Cyclic core rotated to its least rotation under the letter order."""
    core = cyclic_core(w)
    if len(core) <= 1:
        return core
    r = least_rotation([letter_order(x) for x in core])
    return core[r:] + core[:r]


def class_key(w):
    """Conjugacy class of w up to inversion."""
    return min(normal_form(w), normal_form(inverse(w)),
               key=lambda u: [letter_order(x) for x in u])


def parse_word(text):
    """``"abA"`` -> (1, 2, -1); ``"1"`` is the empty word."""
    if text == "1":
        return ()
    out = []
    for ch in text:
        if "a" <= ch <= "z":
            out.append(ord(ch) - ord("a") + 1)
        elif "A" <= ch <= "Z":
            out.append(-(ord(ch) - ord("A") + 1))
        else:
            raise ValueError("bad letter %r" % ch)
    return tuple(out)


# -- abelianization ----------------------------------------------------------


def abelianize(w, rank):
    v = [0] * rank
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def _solve(rows, rhs):
    """Gaussian elimination over the rationals.  Returns (det, x) with
    x M = rhs for the square matrix M whose rows are ``rows`` (x is None
    when rhs is None or M is singular)."""
    n = len(rows)
    # work on the transpose so that x M = rhs becomes M^T x = rhs
    a = [[Fraction(rows[j][i]) for j in range(n)] for i in range(n)]
    b = [Fraction(v) for v in rhs] if rhs is not None else [Fraction(0)] * n
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            b[col], b[piv] = b[piv], b[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
                b[r] -= f * b[col]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return int(det), (x if rhs is not None else None)


def ab_det(words, rank):
    """Determinant of the abelianization matrix; +-1 for every free basis."""
    return _solve([abelianize(w, rank) for w in words], None)[0]


def coefficients(w, basis, rank):
    """Exponent sums of w in the basis, read off the abelianization."""
    det, x = _solve([abelianize(b, rank) for b in basis], abelianize(w, rank))
    if x is None:
        raise ValueError("words are not independent in the abelianization")
    if any(c.denominator != 1 for c in x):
        raise ValueError("coefficients are not integral")
    return [int(c) for c in x]


# -- graphs ----------------------------------------------------------------


def adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_distances(adj):
    """All-pairs distances as a list of lists, one BFS per source."""
    n = len(adj)
    out = []
    for s in range(n):
        d = [-1] * n
        d[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if d[w] < 0:
                        d[w] = d[u] + 1
                        nxt.append(w)
            frontier = nxt
        out.append(d)
    return out


def diameter(dist):
    return max(max(row) for row in dist)


def four_point_brute(dist):
    """Four-point delta over all 4-subsets (repeated points never win)."""
    best = 0
    for a, b, c, d in combinations(range(len(dist)), 4):
        s = sorted((dist[a][b] + dist[c][d], dist[a][c] + dist[b][d],
                    dist[a][d] + dist[b][c]))
        best = max(best, s[2] - s[1])
    return best / 2


def four_point_lower(dist, samples, seed):
    """Four-point gap of seeded random quadruples: a lower bound."""
    rng = random.Random(seed)
    n = len(dist)
    best = 0
    for _ in range(samples):
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        s = sorted((dist[a][b] + dist[c][d], dist[a][c] + dist[b][d],
                    dist[a][d] + dist[b][c]))
        best = max(best, s[2] - s[1])
    return best / 2


def all_geodesics(adj, dist, p, q):
    """Every p-q geodesic as a vertex tuple, by depth-first enumeration."""
    out = []

    def walk(path):
        u = path[-1]
        if u == q:
            out.append(tuple(path))
            return
        for w in adj[u]:
            if dist[w][q] == dist[u][q] - 1:
                path.append(w)
                walk(path)
                path.pop()

    walk([p])
    return out


def slim_brute(adj, dist):
    """Slim-triangles delta quantifying over every geodesic of every side.

    For a vertex v on a side [x,y] the worst choice of the other two sides
    is made independently per side, so the defect of v is the smaller of
    the two per-side maxima of d(v, side).  Small graphs only.
    """
    n = len(adj)
    geo = {(p, q): all_geodesics(adj, dist, p, q) for p in range(n) for q in range(n)}
    far = {}
    for (p, q), paths in geo.items():
        far[p, q] = [max(min(dist[v][u] for u in path) for path in paths)
                     for v in range(n)]
    on = {(p, q): {v for path in paths for v in path} for (p, q), paths in geo.items()}
    best = 0
    for x in range(n):
        for y in range(n):
            for z in range(n):
                fy, fx = far[y, z], far[x, z]
                for v in on[x, y]:
                    best = max(best, min(fy[v], fx[v]))
    return best


def bfs_path(adj, dist, p, q):
    """One p-q geodesic: always step to the lowest-numbered closer vertex."""
    path = [p]
    while path[-1] != q:
        u = path[-1]
        path.append(min(w for w in adj[u] if dist[w][q] == dist[u][q] - 1))
    return path


def slim_lower(adj, dist, samples, seed):
    """Defect of seeded random triangles with one geodesic per side: a
    lower bound for the slim delta."""
    rng = random.Random(seed)
    n = len(adj)
    best = 0
    for _ in range(samples):
        x, y, z = (rng.randrange(n) for _ in range(3))
        yz = bfs_path(adj, dist, y, z)
        xz = bfs_path(adj, dist, x, z)
        for v in bfs_path(adj, dist, x, y):
            best = max(best, min(min(dist[v][u] for u in yz),
                                 min(dist[v][u] for u in xz)))
    return best


def hausdorff(p, q, dist):
    """Hausdorff distance between two vertex sets."""
    return max(max(min(dist[a][b] for b in q) for a in p),
               max(min(dist[a][b] for a in p) for b in q))


def thin_tuple_count(paths, dist, b1):
    """Number of (x, y, s, t, a, b) tuples the exhaustive thin check scans:
    s <= t positions on the (x, y) path, a and b within b1 of them."""
    ball = [sum(1 for d in row if d <= b1) for row in dist]
    total = 0
    for p in paths.values():
        sizes = [ball[v] for v in p]
        s1 = sum(sizes)
        total += (s1 * s1 + sum(x * x for x in sizes)) // 2
    return total
