"""Finite metric-graph toolkit: delta estimators, quasiconvexity, coning,
and a thin-triangles-structure checker.

Graphs are simple, undirected, connected, with unit-length edges.  Both
hyperbolicity constants are exact exhaustive measurements, not estimates:
``delta_four_point`` scans vertex quadruples, ``delta_slim`` quantifies
over every geodesic of every side of every vertex triple.

Both deltas, the median map's center table and the thin-triangles checker
run on numpy arrays in blocks of about _BLOCK elements (see each docstring
for the method); Python loops run per block, and in the checker per
sampled draw and per center-map read, never per distance computed.  Their
whole-graph arrays are n x n distances and, for the checker, n^3 int32
profiles and centers.  The per-pair and per-tuple scans
and the per-call median map they replaced are the test suite's oracles.
"""

import random
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .agraph import bfs
from .complexes import folding_path_bases
from .errors import DomainError
from .folding import random_basis
from .words import words_str

SLIM_BUDGET_BYTES = 256 * 2**20  # for delta_slim's n^3 int32 array
_BLOCK = 1 << 15  # elements of one temporary in the blocked scans (128 KiB of int32)


class FiniteGraph:
    """Simple connected graph with unit edge lengths."""

    __slots__ = ("vertices", "edges", "vertex_list", "vindex", "_adj", "_dm")

    def __init__(self, vertices, edges, check=True):
        self.vertices = frozenset(vertices)
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError("loop edge at %r" % (u,))
            canon.add((min(u, v), max(u, v)))
        self.edges = frozenset(canon)
        self.vertex_list = sorted(self.vertices)
        self.vindex = {v: i for i, v in enumerate(self.vertex_list)}
        adj = {v: set() for v in self.vertex_list}
        for u, v in self.edges:
            if u not in adj or v not in adj:
                raise ValueError("edge (%r, %r) has an unknown endpoint" % (u, v))
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: sorted(ns) for v, ns in adj.items()}
        self._dm = None
        if check:
            if not self.vertices:
                raise ValueError("graph has no vertices")
            reached = bfs(self.vertex_list[:1], lambda v: [(v, w) for w in self._adj[v]])
            if reached.keys() != self.vertices:
                raise ValueError("graph is not connected")

    def __len__(self):
        return len(self.vertex_list)

    def neighbors(self, v):
        return self._adj[v]

    def distance_matrix(self):
        if self._dm is None:
            self._dm = apsp(self)
        return self._dm

    def distance(self, u, v):
        d = self.distance_matrix()
        return int(d[self.vindex[u], self.vindex[v]])

    def to_json_dict(self):
        return {
            "vertices": list(self.vertex_list),
            "edges": sorted(list(e) for e in self.edges),
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(data["vertices"], [tuple(e) for e in data["edges"]])

    def to_dot(self, name="g"):
        lines = ["graph %s {" % name]
        for v in self.vertex_list:
            lines.append("  %r;" % (v,))
        for u, v in sorted(self.edges):
            lines.append("  %r -- %r;" % (u, v))
        lines.append("}")
        return "\n".join(lines)


def path_graph(n):
    return FiniteGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return FiniteGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return FiniteGraph(range(n), list(combinations(range(n), 2)))


def grid_graph(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return FiniteGraph(range(rows * cols), edges)


def random_tree(n, seed):
    """Uniform labeled tree on n vertices via a Pruefer sequence."""
    if n <= 0:
        raise ValueError("need at least one vertex")
    if n == 1:
        return FiniteGraph([0], [])
    if n == 2:
        return FiniteGraph([0, 1], [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        for u in range(n):
            if degree[u] == 1:
                edges.append((u, v))
                degree[u] -= 1
                degree[v] -= 1
                break
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return FiniteGraph(range(n), edges)


def apsp(g):
    """All-pairs shortest-path matrix by BFS, rows/columns in vertex order."""
    n = len(g)
    steps = [[(u, g.vindex[w]) for w in g.neighbors(v)] for u, v in enumerate(g.vertex_list)]
    dist = np.full((n, n), -1, dtype=np.int32)
    for i in range(n):
        row = [-1] * n
        row[i] = 0
        # a parent is discovered before its children
        for w, u in islice(bfs([i], steps.__getitem__).items(), 1, None):
            row[w] = row[u] + 1
        dist[i] = row
    if (dist < 0).any():
        raise DomainError("graph is not connected")
    return dist


def delta_four_point(g):
    """Gromov 4-point constant: max over quadruples of half the gap between
    the two largest of the three pairwise distance sums.  The gap is the
    largest, over the three sums, of the sum minus the larger other one, so
    each pair {i, j} takes d(i,j) + max d(k,l) - max(d(i,k) + d(j,l),
    d(i,l) + d(j,k)) over (k, l), for a block of j rows at once, in int32.
    """
    d = g.distance_matrix()
    n = len(g)
    step = max(1, _BLOCK // max(1, n * n))
    best = 0
    for i in range(n):
        di = d[i]
        for lo in range(i, n, step):
            dj = d[lo : lo + step]
            cross = di[None, :, None] + dj[:, None, :]
            np.maximum(cross, dj[:, :, None] + di[None, None, :], out=cross)
            np.subtract(d, cross, out=cross)
            best = max(best, int((cross.max(axis=(1, 2)) + di[lo : lo + step]).max()))
    return best / 2


def delta_slim(g):
    """Smallest delta such that every side of every geodesic triangle lies
    in the delta-neighborhood of the union of the other two sides,
    quantifying over all geodesics of all three sides.  A vertex v on a
    side violates delta exactly when both opposite sides can be chosen to
    avoid its delta-ball, so the defect of v is the smaller of the two
    bottleneck values, and triples with repeated vertices come along for
    free (they never dominate).

    maxgeo[p, q, v], the largest over p-q geodesics of d(v, geodesic), comes
    from a max-min sweep of the geodesic dag from p.  If u lies on a p-q
    geodesic, so does every neighbour w of u with d(p, w) = d(p, u) - 1, so
    one sweep per source, in BFS order, best[u] = min(d[u], max of best[w])
    gives maxgeo[p, q] = best[q] for all q.  The n^3 int32 maxgeo must fit
    SLIM_BUDGET_BYTES (256 MiB, so n <= 406), else DomainError.
    """
    n = len(g)
    if 4 * n**3 > SLIM_BUDGET_BYTES:
        raise DomainError("delta_slim on %d vertices needs a %d-byte array, over "
                          "the %d-byte budget" % (n, 4 * n**3, SLIM_BUDGET_BYTES))
    d = g.distance_matrix()
    ends = [(g.vindex[u], g.vindex[v]) for u, v in g.edges]
    tail, head = np.array(ends + [e[::-1] for e in ends], dtype=np.intp).reshape(-1, 2).T
    maxgeo = np.empty((n, n, n), dtype=np.int32)
    rows = maxgeo.reshape(n * n, n)  # row p * n + u: best[u] of the sweep from p
    rows[np.arange(n) * (n + 1)] = d
    step = max(1, _BLOCK // max(1, len(tail) * n))
    for lo in range(0, n, step):
        # blocks of sources, one BFS level at a time: each edge w -> u one
        # level down from a source, as the rows it reads and writes
        src = np.arange(lo, min(lo + step, n))
        down = d[src[:, None], head]
        s, e = np.nonzero(d[src[:, None], tail] + 1 == down)
        order = np.lexsort((head[e], s, down[s, e]))
        level = down[s, e][order]
        to_row = (src[s] * n + head[e])[order]
        from_row = (src[s] * n + tail[e])[order]
        bounds = np.searchsorted(level, np.arange(1, level.max(initial=0) + 2))
        for a, b in zip(bounds[:-1], bounds[1:]):
            k = to_row[a:b]
            first = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
            tops = k[first]
            rows[tops] = np.minimum(d[tops % n], np.maximum.reduceat(rows[from_row[a:b]], first))

    delta = 0
    xs, ys = np.triu_indices(n, 1)
    step = max(1, _BLOCK // max(1, n * n))
    for lo in range(0, len(xs), step):
        x, y = xs[lo : lo + step], ys[lo : lo + step]
        # (pair, v) for every v on some x-y geodesic; the defect of v is the
        # largest over third points z of the smaller bottleneck value
        k, v = np.nonzero(d[x] + d[y] == d[x, y][:, None])
        defect = np.minimum(maxgeo[x[k], :, v], maxgeo[y[k], :, v]).max(axis=1)
        delta = max(delta, int(defect.max()))
    return delta


def is_quasiconvex(g, s, c):
    """Is every vertex of every geodesic between members of s within
    distance c of s?"""
    if not s:
        raise ValueError("empty subset")
    d = g.distance_matrix()
    idx = [g.vindex[v] for v in s]
    to_s = d[:, idx].min(axis=1)
    for i in idx:
        for j in idx:
            if (to_s[d[i] + d[j] == d[i, j]] > c).any():
                return False
    return True


def cone_off(g, subsets):
    """Add an edge between every pair inside each subset (simple-graph
    union; the metric does not see parallel copies)."""
    edges = set(g.edges)
    for s in subsets:
        s = sorted(set(s))
        if not s:
            raise ValueError("cannot cone an empty subset")
        for v in s:
            if v not in g.vertices:
                raise ValueError("subset vertex %r not in graph" % (v,))
        for u, v in combinations(s, 2):
            edges.add((u, v))
    return FiniteGraph(g.vertices, edges)


def _path_indices(g, p):
    out = []
    for v in p:
        if v not in g.vindex:
            raise ValueError("path vertex %r not in graph" % (v,))
        out.append(g.vindex[v])
    return out


def hausdorff_distance(p, q, g):
    """Hausdorff distance between the vertex sets of two paths."""
    d = g.distance_matrix()
    pi = _path_indices(g, p)
    qi = _path_indices(g, q)
    sub = d[np.ix_(pi, qi)]
    return int(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


def geodesic_family(g):
    """One deterministic geodesic per ordered vertex pair, from per-root
    breadth-first trees with sorted neighbor scans."""
    fam = {}
    steps = {u: [(u, w) for w in g.neighbors(u)] for u in g.vertex_list}
    for x in g.vertex_list:
        parent = bfs([x], steps.__getitem__)
        for y in g.vertex_list:
            path = [y]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            fam[x, y] = tuple(reversed(path))
    return fam


def median_map(g):
    """The center map sending a triple to the vertex minimizing the sum of
    distances to it (lowest vertex in the order on ties); exactly
    symmetric under all permutations of the triple.

    All n^3 centers are computed up front in int32, as the argmin over
    vertices of d[a] + d[b] + d[c] for a block of (a, b) rows and every c
    at once (each temporary about _BLOCK elements), and kept as nested
    lists of vertices (8 bytes per triple), so the returned map is a lookup
    of about 0.2 us a call."""
    d = g.distance_matrix()
    n = len(g)
    table = np.empty((n * n, n), dtype=np.int32)
    step = max(1, _BLOCK // max(1, n * n))
    for lo in range(0, n * n, step):
        rows = np.arange(lo, min(lo + step, n * n))
        pair = d[rows // n] + d[rows % n]
        table[rows] = (pair[:, None, :] + d).argmin(axis=2)
    verts = np.empty(n, dtype=object)
    for i, v in enumerate(g.vertex_list):
        verts[i] = v
    centers = [verts[plane].tolist() for plane in table.reshape(n, n, n)]
    vindex = g.vindex

    def phi(a, b, c):
        return centers[vindex[a]][vindex[b]][vindex[c]]

    return phi


def check_path_family(g, paths):
    """Validate that ``paths`` is an edge-path per ordered vertex pair."""
    for x in g.vertex_list:
        for y in g.vertex_list:
            p = paths.get((x, y))
            if p is None:
                raise ValueError("path family has no entry for (%r, %r)" % (x, y))
            if p[0] != x or p[-1] != y:
                raise ValueError("path for (%r, %r) has wrong endpoints" % (x, y))
            for u, v in zip(p, p[1:]):
                if (min(u, v), max(u, v)) not in g.edges:
                    raise ValueError(
                        "path for (%r, %r) uses a non-edge (%r, %r)" % (x, y, u, v)
                    )


@dataclass
class ThinReport:
    """Measured thin-triangles data for a (paths, center-map) pair.

    For each condition the smallest sufficient B2 over the examined tuples,
    with a witness tuple achieving it; ``mode`` records whether condition
    (2) was exhaustive or a seeded subsample, with the tuple counts.
    """

    b1: int
    b2_hausdorff: int
    b2_subsegment: int
    b2_center: int
    witness_hausdorff: tuple = None
    witness_subsegment: tuple = None
    witness_center: tuple = None
    mode: str = "exhaustive"
    tuples_total: int = 0
    tuples_checked: int = 0

    @property
    def b2(self):
        return max(self.b2_hausdorff, self.b2_subsegment, self.b2_center)

    def to_json_dict(self):
        return {
            "b1": self.b1,
            "b2": self.b2,
            "b2_hausdorff": self.b2_hausdorff,
            "b2_subsegment": self.b2_subsegment,
            "b2_center": self.b2_center,
            "witness_hausdorff": list(self.witness_hausdorff or ()),
            "witness_subsegment": list(self.witness_subsegment or ()),
            "witness_center": list(self.witness_center or ()),
            "mode": self.mode,
            "tuples_total": self.tuples_total,
            "tuples_checked": self.tuples_checked,
        }


def condition1_value(g, paths, x, y):
    """Hausdorff distance between the stored (x,y) and (y,x) paths."""
    return hausdorff_distance(paths[x, y], paths[y, x], g)


def condition2_value(g, paths, x, y, s, t, a, b):
    """Hausdorff distance between the stored (a,b) path and the [s,t]
    subsegment of the stored (x,y) path."""
    return hausdorff_distance(paths[a, b], paths[x, y][s : t + 1], g)


def condition3_value(g, paths, phi, a, b, c):
    """Distance from the center of (a,b,c) to the stored (a,b) path."""
    d = g.distance_matrix()
    center = phi(a, b, c) if callable(phi) else phi[a, b, c]
    return int(d[g.vindex[center], _path_indices(g, paths[a, b])].min())


def _padded_paths(g, paths):
    """Vertex indices of the stored (x, y) path in row x * n + y, padded to
    the longest path by repeating its last vertex (which changes no minimum
    or maximum over the path), and the path lengths."""
    vlist = g.vertex_list
    rows = [[g.vindex[v] for v in paths[x, y]] for x in vlist for y in vlist]
    lens = np.array([len(r) for r in rows], dtype=np.intp)
    width = int(lens.max())
    return np.array([r + r[-1:] * (width - len(r)) for r in rows], dtype=np.intp), lens


def _hausdorff_rows(d, p, q):
    """Hausdorff distance between the vertex sets of rows p[k] and q[k] of
    two index arrays, for every k, in blocks of rows."""
    out = np.empty(len(p), dtype=d.dtype)
    step = max(1, _BLOCK // (p.shape[1] * q.shape[1]))
    for lo in range(0, len(p), step):
        sub = d[p[lo : lo + step, :, None], q[lo : lo + step, None, :]]
        out[lo : lo + step] = np.maximum(sub.min(axis=2).max(axis=1),
                                         sub.min(axis=1).max(axis=1))
    return out


def _randbelow(bits, m):
    """A draw from range(m), m >= 1, off the stream of ``bits``, a bound
    Random.getrandbits: m.bit_length() bits, drawn again while m or more.
    Random.choice and Random.randrange(m) draw exactly so."""
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def _segments(d, pad, r, s):
    """Subpath tables for the pairs (r[k], s[k]) of a path row and a start
    on it.  Subpath c = k * W + j (W the padded width) is p[s .. s + j] of
    path r, its last vertex repeated past the path's end: sub[i, c] is
    p[s + min(i, j)], so column c lists the subpath padded to W, and
    seg[c * n + u], flat, is u's distance to the subpath, one running
    minimum per pair."""
    width = pad.shape[1]
    walk = pad[r[:, None], np.minimum(s[:, None] + np.arange(width), width - 1)]
    seg = d[walk]
    np.minimum.accumulate(seg, axis=1, out=seg)
    steps = np.arange(width)
    sub = walk[:, np.minimum(steps, steps[:, None])].reshape(-1, width)
    return sub.T.copy(), seg.ravel()


def _subsegment_values(prof, pad_t, sub, seg, c, ab):
    """Hausdorff distance between subpath c[q] of ``_segments`` and the
    stored path in row ab[q], for every q: the larger of the farthest
    vertex of path ab from the subpath (seg at path ab) and the farthest
    vertex of the subpath from path ab (the ab profile at the subpath).
    Each is one gather of W entries per q, laid out W by q so that the
    maxima run along rows."""
    at = pad_t[:, ab]
    at += c * prof.shape[1]
    to_sub = seg.take(at).max(axis=0)
    at = sub[:, c]
    at += ab * prof.shape[1]
    return np.maximum(to_sub, prof.take(at).max(axis=0))


def check_thin_triangles(
    g, paths, phi, b1, tuple_threshold=1_000_000, sample_size=20_000, seed=0
):
    """Measure the smallest B2 per thin-triangles condition.

    Condition (2) ranges over tuples (x, y, s, t, a, b) with s <= t
    positions on the stored (x,y) path and a, b within b1 of the s/t
    points; when the full tuple count exceeds ``tuple_threshold`` a seeded
    subsample of ``sample_size`` tuples is measured instead, drawn as
    Random(seed).choice and randrange would draw them.  The center map must
    be cyclically symmetric (checked on the triples examined) and may be a
    callable or a mapping on ordered triples; it is read once per ordered
    triple.  Each witness is the first tuple, in loop order (or draw order),
    attaining its condition's value.  A negative b1, threshold or sample
    size raises ValueError.

    A path's profile is every vertex's distance to it; profiles and centers
    are n^3 int32 arrays.  A tuple's condition (2) value is the larger of
    two maxima of a path width W each: over u on the (a, b) path, of u's
    distance to p[s .. t], read from a running-minimum table seg[(r, s), t,
    u] built for a block of (path, start) pairs at once; and over p[s .. t],
    of the (a, b) profile.  Exhaustive checks enumerate the tuples of a
    block in loop order as index arrays; sampled checks feed each chunk of
    draws, one table row per draw, to the same kernel.  Every temporary,
    the table and the tuple arrays included, holds about _BLOCK elements
    (unblocked, the table alone would hold n^3 W^2 entries, about 113 MB for
    the 40-cycle).
    """
    for name, value in (("b1", b1), ("tuple_threshold", tuple_threshold),
                        ("sample_size", sample_size)):
        if value < 0:
            raise ValueError("%s must be nonnegative, got %r" % (name, value))
    check_path_family(g, paths)
    d = g.distance_matrix()
    vlist = g.vertex_list
    n = len(vlist)
    pad, lens = _padded_paths(g, paths)
    width = pad.shape[1]
    prof = d[pad[:, 0]]
    for col in range(1, width):
        np.minimum(prof, d[pad[:, col]], out=prof)

    xs, ys = np.triu_indices(n)
    vals = _hausdorff_rows(d, pad[xs * n + ys], pad[ys * n + xs])
    k = int(np.argmax(vals))
    b2_h, wit_h = int(vals[k]), (vlist[xs[k]], vlist[ys[k]])

    lookup = phi if callable(phi) else lambda a, b, c: phi[a, b, c]
    centers = np.empty((n, n, n), dtype=np.int32)
    later = np.arange(n)
    for i, a in enumerate(vlist):
        # the (i, j, k) least among their rotations, in loop order
        j, k = np.nonzero((later[:, None] >= i) & (later > i)
                          | (later[:, None] == i) & (later >= i))
        found = []
        for b, c in zip(j.tolist(), k.tolist()):
            b, c = vlist[b], vlist[c]
            center = lookup(a, b, c)
            if center != lookup(b, c, a) or center != lookup(c, a, b):
                raise ValueError(
                    "center map is not cyclically symmetric on (%r, %r, %r)" % (a, b, c)
                )
            found.append(g.vindex[center])
        centers[i, j, k] = centers[j, k, i] = centers[k, i, j] = found
    vals = np.take_along_axis(prof, centers.reshape(n * n, n), axis=1)
    k = int(np.argmax(vals))
    b2_c = int(vals.flat[k])
    wit_c = (vlist[k // (n * n)], vlist[k // n % n], vlist[k % n])

    near = d <= b1
    sizes = near.sum(axis=1)
    ball_flat = np.nonzero(near)[1]
    ball_start = np.cumsum(sizes) - sizes
    sz = np.where(np.arange(width) < lens[:, None], sizes[pad], 0)
    total = int(((sz.sum(axis=1) ** 2 + (sz**2).sum(axis=1)) // 2).sum())

    b2_s, wit_s = 0, None
    checked = 0
    step = max(1, _BLOCK // (width * n))  # (path, start) pairs per seg table
    pad_t = pad.T.copy()

    def record(vals, r, s, t, a, b):
        nonlocal b2_s, wit_s, checked
        checked += len(vals)
        m = int(np.argmax(vals))
        if vals[m] > b2_s or wit_s is None:
            b2_s = int(vals[m])
            wit_s = (vlist[r[m] // n], vlist[r[m] % n], int(s[m]), int(t[m]),
                     vlist[a[m]], vlist[b[m]])

    if total <= tuple_threshold:
        mode = "exhaustive"
        pairs_r, pairs_s = np.nonzero(np.arange(width) < lens[:, None])
        chunk = max(1, _BLOCK // width)
        for lo in range(0, len(pairs_r), step):
            r, s = pairs_r[lo : lo + step], pairs_s[lo : lo + step]
            sub, seg = _segments(d, pad, r, s)
            # the (x, y, s, t) of the block in loop order, then each tuple's
            # (a, b) from its offset among the block's tuples
            pair, off = np.nonzero(np.arange(width) < (lens[r] - s)[:, None])
            cols = pair * width + off
            first, last = sub[0, cols], sub[-1, cols]
            count = sizes[first] * sizes[last]
            end = np.cumsum(count)
            for q in range(0, int(end[-1]), chunk):
                q = np.arange(q, min(q + chunk, int(end[-1])))
                e = np.searchsorted(end, q, side="right")
                ia, ib = np.divmod(q - (end[e] - count[e]), sizes[last[e]])
                a = ball_flat[ball_start[first[e]] + ia]
                b = ball_flat[ball_start[last[e]] + ib]
                vals = _subsegment_values(prof, pad_t, sub, seg, cols[e], a * n + b)
                pe = pair[e]
                record(vals, r[pe], s[pe], s[pe] + off[e], a, b)
    else:
        mode = "sampled"
        bits = random.Random(seed).getrandbits
        ball_lists = [ball.tolist() for ball in np.split(ball_flat, ball_start[1:])]
        pad_lists, len_list = pad.tolist(), lens.tolist()
        for lo in range(0, sample_size, step):
            drawn = []
            for _ in range(min(step, sample_size - lo)):
                r = _randbelow(bits, n) * n + _randbelow(bits, n)
                s = _randbelow(bits, len_list[r])
                t = _randbelow(bits, len_list[r])
                if s > t:
                    s, t = t, s
                near_s = ball_lists[pad_lists[r][s]]
                near_t = ball_lists[pad_lists[r][t]]
                drawn.append((r, s, t, near_s[_randbelow(bits, len(near_s))],
                              near_t[_randbelow(bits, len(near_t))]))
            r, s, t, a, b = np.array(drawn, dtype=np.intp).T
            sub, seg = _segments(d, pad, r, s)
            vals = _subsegment_values(prof, pad_t, sub, seg,
                                      np.arange(len(r)) * width + t - s, a * n + b)
            record(vals, r, s, t, a, b)

    return ThinReport(
        b1=b1, b2_hausdorff=b2_h, b2_subsegment=b2_s, b2_center=b2_c,
        witness_hausdorff=wit_h, witness_subsegment=wit_s, witness_center=wit_c,
        mode=mode, tuples_total=total, tuples_checked=checked,
    )


def sample_fb_ball(center, seeds, moves):
    """Finite induced subgraph of the free-bases graph around ``center``.

    Every seed starts a random walk of ``moves`` Nielsen moves from the
    center; each endpoint contributes its folding-path bases as well.
    Candidates with equal keys (see FBVertex.key) are one vertex and are
    merged through one dict; edges join representatives sharing a class
    key, which on distinct vertices is exactly adjacency.  The largest
    connected component is returned together with one label per vertex
    (basis words plus provenance of every merged copy).  A candidate
    repeating a class key is no basis and raises NotABasisError.
    """
    candidates = [(center, "center")]
    for s in seeds:
        walked = center.__class__(random_basis(s, moves, rank=center.rank,
                                                start=center.basis))
        candidates.append((walked, "seed %d" % s))
        for k, v in enumerate(folding_path_bases(walked)):
            candidates.append((v, "seed %d / fold %d" % (s, k)))

    reps = []
    labels = []
    index = {}  # vertex key -> representative
    for vert, src in candidates:
        k = index.setdefault(vert.key, len(reps))
        if k == len(reps):
            reps.append(vert)
            labels.append({"basis": words_str(vert.basis), "sources": []})
        labels[k]["sources"].append(src)

    holders = {}  # class key -> representatives carrying it
    for i, rep in enumerate(reps):
        for key in rep.classes:
            holders.setdefault(key, []).append(i)

    def linked(i):  # bfs step: (shared key, representative holding it)
        return ((key, j) for key in reps[i].classes for j in holders[key])

    comps, seen = [], set()
    for i in range(len(reps)):
        if i not in seen:
            comps.append(sorted(bfs([i], linked)))
            seen.update(comps[-1])
    main = max(comps, key=len)
    renum = {old: new for new, old in enumerate(main)}
    edges = {(renum[i], renum[j]) for group in holders.values()
             for i, j in combinations(group, 2) if i in renum}
    return FiniteGraph(range(len(main)), edges), [labels[old] for old in main]
