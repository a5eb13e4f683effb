"""Finite metric-graph toolkit: delta estimators, quasiconvexity, coning,
and a thin-triangles-structure checker.

Graphs are simple, undirected, connected, with unit-length edges.  Both
hyperbolicity constants are exact exhaustive measurements, not estimates:
``delta_four_point`` scans vertex quadruples, ``delta_slim`` quantifies
over every geodesic of every side of every vertex triple.

Both deltas and the thin-triangles checker run on numpy arrays in blocks of
about _BLOCK elements (see each docstring for the method); the per-pair and
per-tuple scans they replaced are the test suite's oracles.
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
_SAMPLE_CHUNK = 1 << 10  # tuples drawn per gather in sampled thin checks


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
    symmetric under all permutations of the triple."""
    d = g.distance_matrix()

    def phi(a, b, c):
        tot = d[:, g.vindex[a]] + d[:, g.vindex[b]] + d[:, g.vindex[c]]
        return g.vertex_list[int(np.argmin(tot))]

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


def check_thin_triangles(
    g, paths, phi, b1, tuple_threshold=1_000_000, sample_size=20_000, seed=0
):
    """Measure the smallest B2 per thin-triangles condition.

    Condition (2) ranges over tuples (x, y, s, t, a, b) with s <= t
    positions on the stored (x,y) path and a, b within b1 of the s/t
    points; when the full tuple count exceeds ``tuple_threshold`` a seeded
    subsample of ``sample_size`` tuples is measured instead.  The center
    map must be cyclically symmetric (checked on the triples examined) and
    may be a callable or a mapping on ordered triples; it is called once
    per ordered triple.  Each witness is the first tuple, in loop order,
    attaining its condition's value.

    A path's profile is every vertex's distance to it.  For each (x, y, s),
    running minima over t of d(full[t], .) give the subsegment profiles,
    running maxima of the (a, b) profiles at full[t] the other half of the
    Hausdorff distances, and one gather reads all (t, a, b).  Sampled
    tuples are measured in chunks.  Profiles and centers are n^3 int32 arrays.
    """
    check_path_family(g, paths)
    d = g.distance_matrix()
    vlist = g.vertex_list
    n = len(vlist)
    pad, lens = _padded_paths(g, paths)
    prof = d[pad[:, 0]]
    for col in range(1, pad.shape[1]):
        np.minimum(prof, d[pad[:, col]], out=prof)

    lookup = phi if callable(phi) else lambda a, b, c: phi[a, b, c]
    xs, ys = np.triu_indices(n)
    vals = _hausdorff_rows(d, pad[xs * n + ys], pad[ys * n + xs])
    k = int(np.argmax(vals))
    b2_h, wit_h = int(vals[k]), (vlist[xs[k]], vlist[ys[k]])

    centers = np.empty((n, n, n), dtype=np.int32)
    for i, a in enumerate(vlist):
        for j in range(i, n):
            for k in range(i, n):
                if (j, k, i) < (i, j, k) or (k, i, j) < (i, j, k):
                    continue  # a rotation of a triple already checked
                b, c = vlist[j], vlist[k]
                center = lookup(a, b, c)
                if center != lookup(b, c, a) or center != lookup(c, a, b):
                    raise ValueError(
                        "center map is not cyclically symmetric on (%r, %r, %r)"
                        % (a, b, c)
                    )
                centers[i, j, k] = centers[j, k, i] = centers[k, i, j] = g.vindex[center]
    vals = np.take_along_axis(prof, centers.reshape(n * n, n), axis=1)
    k = int(np.argmax(vals))
    b2_c = int(vals.flat[k])
    wit_c = (vlist[k // (n * n)], vlist[k // n % n], vlist[k % n])

    near = d <= b1
    balls = [np.flatnonzero(row) for row in near]
    sizes = near.sum(axis=1)
    sz = np.where(np.arange(pad.shape[1]) < lens[:, None], sizes[pad], 0)
    total = int(((sz.sum(axis=1) ** 2 + (sz**2).sum(axis=1)) // 2).sum())

    b2_s, wit_s = 0, None
    checked = 0
    if total <= tuple_threshold:
        mode = "exhaustive"
        prof = prof.reshape(n, n, n)
        for r in range(n * n):
            full = pad[r, : lens[r]]
            cat = np.concatenate([balls[u] for u in full])
            cat_t = np.repeat(np.arange(len(full)), sizes[full])
            start = 0
            for s in range(len(full)):
                a_idx = balls[full[s]]
                b_idx, t_off = cat[start:], cat_t[start:] - s
                start += len(a_idx)
                if not len(a_idx):
                    continue
                to_sub = np.minimum.accumulate(d[full[s:]], axis=0)
                from_sub = prof[np.ix_(a_idx, np.arange(n), full[s:])]
                np.maximum.accumulate(from_sub, axis=2, out=from_sub)
                vals = np.maximum(
                    to_sub[t_off[:, None], pad[(a_idx * n)[:, None] + b_idx]].max(axis=2),
                    from_sub[:, b_idx, t_off],
                )
                checked += vals.size
                top = int(vals.max())
                if top > b2_s or wit_s is None:
                    rows, cols = np.nonzero(vals == top)
                    k = np.lexsort((cols, rows, t_off[cols]))[0]
                    b2_s = top
                    wit_s = (vlist[r // n], vlist[r % n], s, s + int(t_off[cols[k]]),
                             vlist[a_idx[rows[k]]], vlist[b_idx[cols[k]]])
    else:
        mode = "sampled"
        rng = random.Random(seed)
        ball_lists = [ball.tolist() for ball in balls]
        indices = range(n)
        pad_lists, len_list = pad.tolist(), lens.tolist()
        for lo in range(0, sample_size, _SAMPLE_CHUNK):
            drawn = []
            for _ in range(min(_SAMPLE_CHUNK, sample_size - lo)):
                r = rng.choice(indices) * n + rng.choice(indices)
                s, t = sorted((rng.randrange(len_list[r]), rng.randrange(len_list[r])))
                a = rng.choice(ball_lists[pad_lists[r][s]])
                drawn.append((r, s, t, a * n + rng.choice(ball_lists[pad_lists[r][t]])))
            r, s, t, ab = np.array(drawn, dtype=np.intp).T
            sub = pad[r[:, None], np.minimum(s[:, None] + np.arange(pad.shape[1]), t[:, None])]
            vals = _hausdorff_rows(d, pad[ab], sub)
            checked += len(drawn)
            k = int(np.argmax(vals))
            if vals[k] > b2_s or wit_s is None:
                b2_s = int(vals[k])
                wit_s = (vlist[r[k] // n], vlist[r[k] % n], int(s[k]), int(t[k]),
                         vlist[ab[k] // n], vlist[ab[k] % n])

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
