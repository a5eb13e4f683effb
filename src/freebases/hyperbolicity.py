"""Finite metric-graph toolkit: delta estimators, quasiconvexity, coning,
and a thin-triangles-structure checker.

Graphs are simple, undirected, connected, with unit-length edges.  Both
hyperbolicity constants are exact measurements, not estimates.
``delta_four_point`` compares pairs of far-apart vertex pairs by
decreasing distance and stops once no later pair can raise the gap, the
pruned scan of Cohen, Coudert and Lancin (ACM JEA 20, 2015); Soto's lemma
makes it exact.  ``delta_slim`` quantifies over every geodesic of every
side of every vertex triple.

``apsp`` takes one BFS level from every source at once, as a matrix
product.  ``_intervals`` enumerates geodesic intervals and
``_hausdorff_rows`` measures Hausdorff distances for every caller.  Both
deltas, the median map's center table and the thin-triangles checker run
on numpy arrays in blocks of about _BLOCK elements (see each docstring);
Python loops run per block and per BFS level, never per distance
computed, except two in the checker: the sampled draws, one plain loop
over ints (``_draw_tuples``), and the read of a center map other than
``median_map``'s, once per ordered triple.  Their whole-graph arrays are
n x n distances, delta_slim's n^3 maxgeo at one byte an entry (two past
diameter 127) and, for the checker, n^3 int32 profiles and centers (the
median map's own table when it is given).  The test suite checks them
against definitions: quadruple and all-geodesics scans for the deltas, a
pure-Python BFS for the distances, the per-tuple checker and the per-call
median map (tests/oracles.py lists them).
"""

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import isqrt

import numpy as np

from .agraph import bfs
from .errors import NAME, DomainError, distinct, typed

SLIM_BUDGET_BYTES = 256 * 2**20  # for delta_slim's n^3 int8 or int16 array
_BLOCK = 1 << 15  # int32 elements (128 KiB) of one temporary in the blocked scans


class FiniteGraph:
    """Simple connected graph with unit edge lengths.

    With ``check=False`` the caller vouches for the edges, (u, v) pairs
    with u < v of known vertices, and for connectivity: nothing is
    canonicalised or checked.
    """

    __slots__ = ("vertices", "edges", "vertex_list", "vindex", "_adj", "_dm")

    def __init__(self, vertices, edges, check=True):
        self.vertices = frozenset(vertices)
        self.vertex_list = sorted(self.vertices)
        self.vindex = {v: i for i, v in enumerate(self.vertex_list)}
        self._adj = self._dm = None
        if not check:
            self.edges = frozenset(edges)
            return
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError("loop edge at %r" % (u,))
            canon.add((min(u, v), max(u, v)))
        self.edges = frozenset(canon)
        for u, v in self.edges:
            if u not in self.vindex or v not in self.vindex:
                raise ValueError("edge (%r, %r) has an unknown endpoint" % (u, v))
        if not self.vertices:
            raise ValueError("graph has no vertices")
        reached = bfs(self.vertex_list[:1], lambda v: [(v, w) for w in self.neighbors(v)])
        if reached.keys() != self.vertices:
            raise ValueError("graph is not connected")

    def __len__(self):
        return len(self.vertex_list)

    def neighbors(self, v):
        """Sorted neighbours of v; the lists are built on the first call,
        since the matrix kernels read only the edge set."""
        if self._adj is None:
            adj = {u: [] for u in self.vertex_list}
            for a, b in self.edges:
                adj[a].append(b)
                adj[b].append(a)
            self._adj = {a: sorted(ns) for a, ns in adj.items()}
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
        """Vertices: a list of distinct names, each an int or a string; edges: lists of names."""
        names = [typed(v, NAME, "vertex name")
                 for v in typed(data["vertices"], (list,), "vertices")]
        edges = [tuple(typed(v, NAME, "vertex name") for v in typed(e, (list,), "edge"))
                 for e in typed(data["edges"], (list,), "edges")]
        return cls(distinct(names, "vertex name"), edges)

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
    """All-pairs shortest-path matrix, rows/columns in vertex order, one BFS
    level from every source at once: the frontier is an n x n 0/1 float32
    matrix, and its product with the adjacency matrix counts each vertex's
    frontier neighbours, exactly while n < 2^24."""
    n = len(g)
    ends = [(g.vindex[u], g.vindex[v]) for u, v in g.edges]
    tail, head = np.array(ends, dtype=np.intp).reshape(len(ends), 2).T
    adj = np.zeros((n, n), dtype=np.float32)
    adj[tail, head] = adj[head, tail] = 1
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    frontier = np.eye(n, dtype=np.float32)
    for level in range(1, n):
        new = (frontier @ adj > 0) & (dist < 0)
        if not new.any():
            break
        dist[new] = level
        frontier = new.astype(np.float32)
    if (dist < 0).any():
        raise DomainError("graph is not connected")
    return dist


def _far_apart_pairs(g):
    """Vertex-index pairs x < y, by decreasing distance (stable), that are
    far apart: no neighbour of x is farther from y, and no neighbour of y
    farther from x.  g is connected with at least two vertices.  reach[x]
    is the largest row d[w] over neighbours w of x, one reduceat over the
    rows of a block of about _BLOCK elements."""
    d = g.distance_matrix()
    n = len(g)
    tail, head = np.nonzero(d == 1)
    starts = np.searchsorted(tail, np.arange(n + 1))
    reach = np.empty_like(d)
    step = max(1, _BLOCK // len(head))
    for lo in range(0, n, step):
        at = starts[lo : lo + step + 1]
        reach[lo : lo + step] = np.maximum.reduceat(d[head[at[0] : at[-1]]], at[:-1] - at[0])
    x, y = np.nonzero(np.triu((reach <= d) & (reach.T <= d), 1))
    order = np.argsort(-d[x, y], kind="stable")
    return x[order], y[order]


def delta_four_point(g):
    """Gromov 4-point constant: max over quadruples of half the gap between
    the two largest of the three pairwise distance sums, exact, by the
    pruned scan of Cohen, Coudert and Lancin ("On computing the Gromov
    hyperbolicity", ACM JEA 20, 2015).

    By Soto's lemma some quadruple attaining the constant has its
    largest-sum pairing made of two far-apart pairs (``_far_apart_pairs``):
    moving x to a neighbour farther from y raises that sum by one and each
    other sum by at most one.  So only pairs of far-apart pairs are
    compared, each pair {x, y}, {u, v} by its gap d(x,y) + d(u,v) -
    max(d(x,u) + d(y,v), d(x,v) + d(y,u)), which is negative unless its
    sum is the largest.  Pairs go by decreasing distance, a block of them
    at a time against every pair up to the block's end (about _BLOCK
    elements).  A gap is at most the smaller distance of its pairing
    (d(x,y) <= d(x,u) + d(u,y) and d(x,y) <= d(x,v) + d(v,y) add up to
    2 d(x,y) <= S2 + S3), so the scan stops at a block whose first pair is
    no farther apart than the best gap.  Graphs of at most 3 vertices give
    0.0.
    """
    d = g.distance_matrix()
    n = len(g)
    if n < 4:
        return 0.0
    x, y = _far_apart_pairs(g)
    dxy = d[x, y]
    rx, ry, flat = x * n, y * n, d.ravel()
    best = lo = 0
    while lo < len(x) and dxy[lo] > best:
        hi = min(len(x), lo + max(1, (isqrt(lo * lo + 4 * _BLOCK) - lo) // 2))
        cross = flat.take(rx[lo:hi, None] + x[:hi]) + flat.take(ry[lo:hi, None] + y[:hi])
        np.maximum(cross, flat.take(rx[lo:hi, None] + y[:hi])
                   + flat.take(ry[lo:hi, None] + x[:hi]), out=cross)
        np.subtract(dxy[lo:hi, None] + dxy[:hi], cross, out=cross)
        best = max(best, int(cross.max()))
        lo = hi
    return best / 2


def delta_slim(g):
    """Smallest delta such that every side of every geodesic triangle lies
    in the delta-neighborhood of the union of the other two sides,
    quantifying over all geodesics of all three sides.  A vertex v on a
    side violates delta exactly when both opposite sides can be chosen to
    avoid its delta-ball, so the defect of v is the smaller of the two
    bottleneck values, and triples with repeated vertices come along for
    free (they never dominate).

    maxgeo(p, q, v), the largest over p-q geodesics of d(v, geodesic), comes
    from a max-min sweep of the geodesic dag from p.  If u lies on a p-q
    geodesic, so does every neighbour w of u with d(p, w) = d(p, u) - 1, so
    one sweep per source, in BFS order, best[u] = min(d[u], max of best[w])
    gives maxgeo(p, q, v) = best[q][v] for all q.  Within a level the arcs
    into one row (p, u) form a run: a run of one arc, every run on a tree,
    copies its arc's row, and only runs of two or more arcs take a maximum,
    one reduceat per piece of the level.  The sweep writes a block of
    sources as rows (p, q) over v, then transposes each source's slab in
    place, so the array holds row (p, v) over q and the defect scan of
    ``_intervals`` entry (x, y, v) reads the contiguous rows (x, v) and (y,
    v).  The n^3 array takes the smallest signed int that holds the
    diameter, int8 up to 127, else int16, and must fit SLIM_BUDGET_BYTES
    (256 MiB: n <= 645 at int8, n <= 512 at int16), else DomainError, raised
    before the distances are computed when not even int8 fits.  The sweep's
    pieces and the scan's blocks of entries are sized in bytes, about
    _BLOCK int32 elements' worth of rows (128 KiB), so they hold twice as
    many int8 rows as int16 ones.
    """
    n = len(g)
    _slim_budget(n, 1)
    d = g.distance_matrix()
    cap = d.astype(np.int8 if d.max() <= 127 else np.int16)
    _slim_budget(n, cap.itemsize)
    deep, up = np.nonzero(d == 1)  # arcs by (target, source)
    maxgeo = np.empty((n, n, n), dtype=cap.dtype)
    rows = maxgeo.reshape(n * n, n)  # row p * n + u: best[u] of the sweep from p
    rows[np.arange(n) * (n + 1)] = cap
    step = max(1, _BLOCK // max(1, len(up)))
    width = max(1, n * cap.itemsize // 4)  # a row's bytes, in int32 elements
    chunk = max(1, _BLOCK // width)  # arcs of one piece
    for lo in range(0, n, step):
        # blocks of sources, one BFS level at a time: each arc w -> u one
        # level down from a source, as the rows it reads and writes, listed
        # by (source, u) within a level, so the arcs into one row are a run
        down = d[lo : lo + step, deep]
        s, e = np.nonzero(d[lo : lo + step, up] + 1 == down)
        level = down[s, e]
        order = np.argsort(level, kind="stable")
        level = level[order]
        s += lo
        s *= n
        to_row = (s + deep[e])[order]
        from_row = (s + up[e])[order]
        # runs of arcs into one row; a piece is the runs of one level whose
        # first arcs lie in one stretch of chunk arcs from the level's start
        # (a stretch number is at least its level's start and below the
        # next level's), so no run is split
        run = np.ones(len(to_row) + 1, dtype=bool)
        run[1:-1] = to_row[1:] != to_row[:-1]
        run = np.flatnonzero(run)  # the runs' first arcs, then len(to_row)
        size = run[1:] - run[:-1]
        run = run[:-1]
        start = np.searchsorted(level, level[run])
        stretch = start + (run - start) // chunk
        cut = np.ones(len(run), dtype=bool)
        cut[1:] = stretch[1:] != stretch[:-1]
        tops = to_row[run]
        ends = tops % n
        firsts = from_row[run]
        # a run of one arc is its first arc's row, one take per piece; only
        # the wide runs, of two or more arcs, go through reduceat, over their
        # arcs listed apart (wide[i] a wide run's number, its arcs
        # wide_from[at[i] : at[i + 1]]), and pieces without one skip it
        wide = np.flatnonzero(size > 1)
        at = np.zeros(len(wide) + 1, dtype=np.intp)
        np.cumsum(size[wide], out=at[1:])
        wide_from = from_row[np.repeat(size > 1, size)]
        groups = np.flatnonzero(cut).tolist() + [len(run)]
        spans = np.searchsorted(wide, groups).tolist()
        for ga, gb, wa, wb in zip(groups, groups[1:], spans, spans[1:]):
            best = rows.take(firsts[ga:gb], axis=0)
            if wa < wb:
                bounds = at[wa : wb + 1]
                best[wide[wa:wb] - ga] = np.maximum.reduceat(
                    rows.take(wide_from[bounds[0] : bounds[-1]], axis=0), bounds[:-1] - bounds[0])
            rows[tops[ga:gb]] = np.minimum(cap.take(ends[ga:gb], axis=0), best, out=best)
        blk = maxgeo[lo : lo + step]
        blk[...] = blk.transpose(0, 2, 1)

    # row x * n + v is now maxgeo(x, z, v) over z, and v's defect the
    # largest over z of the smaller bottleneck value
    ids = np.arange(n)
    delta = 0
    for x, y, v in _intervals(d, *np.nonzero(ids[:, None] < ids), width):
        side = rows.take(x * n + v, axis=0)
        delta = max(delta, int(np.minimum(side, rows.take(y * n + v, axis=0), out=side).max()))
    return delta


def _slim_budget(n, itemsize):
    """Refuse delta_slim's n^3 array at ``itemsize`` bytes an entry when it
    is over SLIM_BUDGET_BYTES."""
    if itemsize * n**3 > SLIM_BUDGET_BYTES:
        raise DomainError("delta_slim on %d vertices needs a %d-byte array, over "
                          "the %d-byte budget" % (n, itemsize * n**3, SLIM_BUDGET_BYTES))


def _intervals(d, x, y, width):
    """Intervals {v : d(x,v) + d(v,y) = d(x,y)} of index pairs (x[k], y[k]),
    as (x, y, v) blocks of one entry per pair and interval vertex in pair
    order; a mask holds about _BLOCK elements, a block _BLOCK // width."""
    pairs = max(1, _BLOCK // d.shape[1])
    entries = max(1, _BLOCK // width)
    for lo in range(0, len(x), pairs):
        bx, by = x[lo : lo + pairs], y[lo : lo + pairs]
        k, v = np.nonzero(d.take(bx, axis=0) + d.take(by, axis=0) == d[bx, by][:, None])
        for e in range(0, len(k), entries):
            part = slice(e, e + entries)
            yield bx[k[part]], by[k[part]], v[part]


def is_quasiconvex(g, s, c):
    """Is every vertex of every geodesic between members of s within
    distance c of s?"""
    if not s:
        raise ValueError("empty subset")
    for v in s:
        if v not in g.vindex:
            raise ValueError("subset vertex %r not in graph" % (v,))
    d = g.distance_matrix()
    idx = np.unique([g.vindex[v] for v in s])
    to_s = d[:, idx].min(axis=1)
    i, j = np.triu_indices(len(idx))
    return not any((to_s[v] > c).any() for _, _, v in _intervals(d, idx[i], idx[j], 1))


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
    """Hausdorff distance between the vertex sets of two paths, neither of
    them empty."""
    for name, path in (("first", p), ("second", q)):
        if len(path) == 0:
            raise ValueError("the %s path is empty" % name)
    rows = [np.array([_path_indices(g, path)], dtype=np.intp) for path in (p, q)]
    return int(_hausdorff_rows(g.distance_matrix(), *rows)[0])


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
    at once (each temporary about _BLOCK elements).  The map carries that
    table, ``phi.table[i, j, k]`` the index of the center of the triple of
    vertex indices (i, j, k), in the vertex order ``phi.vertex_list``; a
    call reads its vertex off the table in about 0.3 us."""
    d = g.distance_matrix()
    n = len(g)
    table = np.empty((n * n, n), dtype=np.int32)
    step = max(1, _BLOCK // max(1, n * n))
    for lo in range(0, n * n, step):
        rows = np.arange(lo, min(lo + step, n * n))
        pair = d.take(rows // n, axis=0) + d.take(rows % n, axis=0)
        table[rows] = (pair[:, None, :] + d).argmin(axis=2)
    table = table.reshape(n, n, n)
    vertex_list, vindex = g.vertex_list, g.vindex

    def phi(a, b, c):
        return vertex_list[table[vindex[a], vindex[b], vindex[c]]]

    phi.table, phi.vertex_list = table, vertex_list
    return phi


def check_path_family(g, paths):
    """Validate that ``paths`` is an edge-path per ordered vertex pair."""
    arcs = g.edges | {(v, u) for u, v in g.edges}
    for x in g.vertex_list:
        for y in g.vertex_list:
            p = paths.get((x, y))
            if p is None:
                raise ValueError("path family has no entry for (%r, %r)" % (x, y))
            if len(p) == 0:
                raise ValueError("path for (%r, %r) is empty" % (x, y))
            if p[0] != x or p[-1] != y:
                raise ValueError("path for (%r, %r) has wrong endpoints" % (x, y))
            if not arcs.issuperset(zip(p, p[1:])):
                u, v = next(step for step in zip(p, p[1:]) if step not in arcs)
                raise ValueError("path for (%r, %r) uses a non-edge (%r, %r)" % (x, y, u, v))


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


def condition2_value(g, paths, x, y, s, t, a, b):
    """Hausdorff distance between the stored (a,b) path and the [s,t]
    subsegment of the stored (x,y) path: positions 0 <= s <= t on it."""
    for pos in (s, t):
        if not 0 <= pos < len(paths[x, y]):
            raise ValueError("position %r is off the path for (%r, %r)" % (pos, x, y))
    if s > t:
        raise ValueError("subsegment [%r, %r] of the path for (%r, %r) is empty" % (s, t, x, y))
    return hausdorff_distance(paths[a, b], paths[x, y][s : t + 1], g)


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
    two index arrays, for every k, in blocks of about _BLOCK elements."""
    out = np.empty(len(p), dtype=d.dtype)
    step = max(1, _BLOCK // max(1, p.shape[1] * q.shape[1]))
    for lo in range(0, len(p), step):
        sub = d.take(p[lo : lo + step, :, None] * d.shape[1] + q[lo : lo + step, None, :])
        out[lo : lo + step] = np.maximum(sub.min(axis=2).max(axis=1),
                                         sub.min(axis=1).max(axis=1))
    return out


def _draw_tuples(bits, count, n, lens, pad, balls):
    """``count`` sampled tuples (r, s, t, a, b) off the stream of ``bits``, a
    bound Random.getrandbits: path row r = x * n + y, positions s <= t on
    it, a in the ball balls[pad[r][s]] and b in balls[pad[r][t]].  Each draw
    from range(m) takes m.bit_length() bits, drawn again while m or more,
    as Random.randrange(m) and Random.choice draw, in the order x, y, s, t,
    a, b.  Plain lists in, a list of tuples out."""
    kn = n.bit_length()
    out = []
    for _ in range(count):
        x = bits(kn)
        while x >= n:
            x = bits(kn)
        y = bits(kn)
        while y >= n:
            y = bits(kn)
        r = x * n + y
        m = lens[r]
        k = m.bit_length()
        s = bits(k)
        while s >= m:
            s = bits(k)
        t = bits(k)
        while t >= m:
            t = bits(k)
        if s > t:
            s, t = t, s
        near = balls[pad[r][s]]
        m = len(near)
        k = m.bit_length()
        a = bits(k)
        while a >= m:
            a = bits(k)
        a = near[a]
        near = balls[pad[r][t]]
        m = len(near)
        k = m.bit_length()
        b = bits(k)
        while b >= m:
            b = bits(k)
        out.append((r, s, t, a, near[b]))
    return out


def _segments(d, pad, r, s):
    """Subpath tables for the pairs (r[k], s[k]) of a path row and a start
    on it.  Subpath c = k * W + j (W the padded width) is p[s .. s + j] of
    path r, its last vertex repeated past the path's end: sub[i, c] is
    p[s + min(i, j)], so column c lists the subpath padded to W, and
    seg[c * n + u], flat, is u's distance to the subpath, one running
    minimum per pair."""
    width = pad.shape[1]
    walk = pad.take(r[:, None] * width + np.minimum(s[:, None] + np.arange(width), width - 1))
    seg = d.take(walk, axis=0)
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
    at = pad_t.take(ab, axis=1)
    at += c * prof.shape[1]
    to_sub = seg.take(at).max(axis=0)
    at = sub.take(c, axis=1)
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
    Random(seed).choice and randrange would draw them (``_draw_tuples``).
    The center map, a callable or a mapping on ordered triples, is read once
    per triple in loop order (KeyError at the first missing triple or center
    off the graph), unless it carries the table of ``median_map`` for the
    graph's vertex order, which is then read whole; the centers must be
    cyclically symmetric (ValueError naming the first asymmetric triple).
    Each witness is the first tuple, in loop order (or draw order),
    attaining its condition's value.  A negative b1, threshold or sample
    size raises ValueError.

    A path's profile is every vertex's distance to it; profiles and centers
    are n^3 int32 arrays.  Exhaustive checks enumerate the tuples of a block
    in loop order as index arrays; a tuple's condition (2) value is the
    larger of two maxima of a path width W each: over u on the (a, b) path,
    of u's distance to p[s .. t], read from a running-minimum table seg[(r,
    s), t, u] built for a block of (path, start) pairs and shared by every
    (a, b); and over p[s .. t], of the (a, b) profile.  Sampled checks build
    no table: ``_hausdorff_rows`` takes each draw's (a, b) path against
    p[s .. t] padded with p[t].  Every temporary, the table and the tuple
    arrays included, holds about _BLOCK elements (unblocked, the table alone
    would hold n^3 W^2 entries, about 113 MB for the 40-cycle).
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
    prof = d.take(pad[:, 0], axis=0)
    for col in range(1, width):
        np.minimum(prof, d.take(pad[:, col], axis=0), out=prof)

    ids = np.arange(n)
    xs, ys = np.nonzero(ids[:, None] <= ids)
    vals = _hausdorff_rows(d, pad.take(xs * n + ys, axis=0), pad.take(ys * n + xs, axis=0))
    k = int(np.argmax(vals))
    b2_h, wit_h = int(vals[k]), (vlist[xs[k]], vlist[ys[k]])

    if getattr(phi, "vertex_list", None) == vlist:
        centers = phi.table
    else:
        lookup = phi if callable(phi) else lambda a, b, c: phi[a, b, c]
        centers = np.fromiter((g.vindex[lookup(a, b, c)] for a, b, c in product(vlist, repeat=3)),
                              dtype=np.int32, count=n**3).reshape(n, n, n)
    a, b, c = ids[:, None, None], ids[:, None], ids
    # a triple's rotations share its asymmetry, so the first is a least rotation
    bad = np.flatnonzero((centers != centers[b, c, a]) | (centers != centers[c, a, b]))
    if len(bad):
        raise ValueError("center map is not cyclically symmetric on (%r, %r, %r)"
                         % tuple(vlist[t] for t in np.unravel_index(bad[0], centers.shape)))
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
    chunk = max(1, _BLOCK // width)  # tuples per kernel call

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
        step = max(1, _BLOCK // (width * n))  # (path, start) pairs per seg table
        pad_t = pad.T.copy()
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
        for lo in range(0, sample_size, chunk):
            drawn = _draw_tuples(bits, min(chunk, sample_size - lo), n, len_list, pad_lists,
                                 ball_lists)
            r, s, t, a, b = np.array(drawn, dtype=np.intp).T
            part = pad.take(r[:, None] * width
                            + np.minimum(s[:, None] + np.arange(width), t[:, None]))
            record(_hausdorff_rows(d, pad.take(a * n + b, axis=0), part), r, s, t, a, b)

    return ThinReport(
        b1=b1, b2_hausdorff=b2_h, b2_subsegment=b2_s, b2_center=b2_c,
        witness_hausdorff=wit_h, witness_subsegment=wit_s, witness_center=wit_c,
        mode=mode, tuples_total=total, tuples_checked=checked,
    )

