"""Finite metric-graph toolkit: delta estimators, quasiconvexity, coning,
and a thin-triangles-structure checker.

Graphs are simple, undirected, connected, with unit-length edges.  Both
hyperbolicity constants are exact exhaustive measurements, not estimates:
``delta_four_point`` scans vertex quadruples, ``delta_slim`` quantifies
over every geodesic of every side of every vertex triple.
"""

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import fb_adjacent, fb_equivalent, folding_path_bases
from .errors import DomainError
from .folding import random_basis
from .words import words_str


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
            seen = {self.vertex_list[0]}
            stack = [self.vertex_list[0]]
            while stack:
                for w in self._adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if seen != self.vertices:
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
    dist = np.full((n, n), -1, dtype=np.int32)
    for i, src in enumerate(g.vertex_list):
        dist[i, i] = 0
        queue = [src]
        while queue:
            nxt = []
            for u in queue:
                du = dist[i, g.vindex[u]]
                for w in g.neighbors(u):
                    k = g.vindex[w]
                    if dist[i, k] < 0:
                        dist[i, k] = du + 1
                        nxt.append(w)
            queue = nxt
    if (dist < 0).any():
        raise DomainError("graph is not connected")
    return dist


def delta_four_point(g):
    """Gromov 4-point constant: max over quadruples of half the gap between
    the two largest of the three pairwise distance sums."""
    d = g.distance_matrix().astype(np.int64)
    n = len(g)
    best = 0
    for i in range(n):
        for j in range(i, n):
            s1 = d[i, j] + d
            s2 = d[i][:, None] + d[j][None, :]
            s3 = d[j][:, None] + d[i][None, :]
            mx = np.maximum(np.maximum(s1, s2), s3)
            mn = np.minimum(np.minimum(s1, s2), s3)
            mid = s1 + s2 + s3 - mx - mn
            gap = int((mx - mid).max())
            if gap > best:
                best = gap
    return best / 2


def _geodesic_mask(d, i, j):
    """Boolean vector of vertices lying on some i-j geodesic."""
    return d[i] + d[j] == d[i, j]


def _maxgeo_vector(d, adj_idx, p, q):
    """For every vertex v, the largest over p-q geodesics gamma of
    d(v, gamma), via a bottleneck max-min sweep of the geodesic dag."""
    dpq = d[p, q]
    on = np.where(_geodesic_mask(d, p, q))[0]
    order = on[np.argsort(d[p, on], kind="stable")]
    best = {}
    for u in order:
        du = d[p, u]
        if du == 0:
            best[u] = d[:, p].copy()
            continue
        preds = [w for w in adj_idx[u] if d[p, w] == du - 1 and d[w, q] == dpq - du + 1]
        acc = best[preds[0]]
        for w in preds[1:]:
            acc = np.maximum(acc, best[w])
        best[u] = np.minimum(d[:, u], acc)
    return best[q]


def delta_slim(g):
    """Smallest delta such that every side of every geodesic triangle lies
    in the delta-neighborhood of the union of the other two sides,
    quantifying over all geodesics of all three sides.  A vertex v on a
    side violates delta exactly when both opposite sides can be chosen to
    avoid its delta-ball, so the defect of v is the smaller of the two
    bottleneck values, and triples with repeated vertices come along for
    free (they never dominate)."""
    d = g.distance_matrix()
    n = len(g)
    adj_idx = {
        g.vindex[v]: [g.vindex[w] for w in g.neighbors(v)] for v in g.vertex_list
    }
    maxgeo = np.zeros((n, n, n), dtype=np.int32)
    onmask = np.zeros((n, n, n), dtype=bool)
    for p in range(n):
        for q in range(p, n):
            vec = _maxgeo_vector(d, adj_idx, p, q)
            maxgeo[p, q] = maxgeo[q, p] = vec
            onmask[p, q] = onmask[q, p] = _geodesic_mask(d, p, q)

    delta = 0
    for x in range(n):
        for y in range(x + 1, n):
            # rows: the third triple point z; columns: vertices on a side
            # [x,y] geodesic; entries: distance to the farthest choice of
            # the other two sides
            defect = np.minimum(maxgeo[x], maxgeo[y])[:, onmask[x, y]]
            val = int(defect.max())
            if val > delta:
                delta = val
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
            if (to_s[_geodesic_mask(d, i, j)] > c).any():
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
    for x in g.vertex_list:
        parent = {x: None}
        queue = [x]
        while queue:
            nxt = []
            for u in queue:
                for w in g.neighbors(u):
                    if w not in parent:
                        parent[w] = u
                        nxt.append(w)
            queue = nxt
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


def check_thin_triangles(
    g, paths, phi, b1, tuple_threshold=1_000_000, sample_size=20_000, seed=0
):
    """Measure the smallest B2 per thin-triangles condition.

    Condition (2) ranges over tuples (x, y, s, t, a, b) with s <= t
    positions on the stored (x,y) path and a, b within b1 of the s/t
    points; when the full tuple count exceeds ``tuple_threshold`` a seeded
    subsample of ``sample_size`` tuples is measured instead.  The center
    map must be cyclically symmetric (checked on the triples examined) and
    may be a callable or a mapping on ordered triples.
    """
    check_path_family(g, paths)
    d = g.distance_matrix()
    vlist = g.vertex_list
    pidx = {
        pair: np.array([g.vindex[v] for v in p], dtype=np.intp)
        for pair, p in paths.items()
        if pair[0] in g.vindex and pair[1] in g.vindex
    }

    def lookup(a, b, c):
        return phi(a, b, c) if callable(phi) else phi[a, b, c]

    def hdist(ia, ib):
        sub = d[np.ix_(ia, ib)]
        return int(max(sub.min(axis=1).max(), sub.min(axis=0).max()))

    b2_h, wit_h = 0, (vlist[0], vlist[0])
    for x in vlist:
        for y in vlist:
            if y < x:
                continue
            val = hdist(pidx[x, y], pidx[y, x])
            if val > b2_h:
                b2_h, wit_h = val, (x, y)

    b2_c, wit_c = 0, (vlist[0], vlist[0], vlist[0])
    for a in vlist:
        for b in vlist:
            for c in vlist:
                center = lookup(a, b, c)
                if center != lookup(b, c, a) or center != lookup(c, a, b):
                    raise ValueError(
                        "center map is not cyclically symmetric on (%r, %r, %r)"
                        % (a, b, c)
                    )
                val = int(d[g.vindex[center], pidx[a, b]].min())
                if val > b2_c:
                    b2_c, wit_c = val, (a, b, c)

    balls = {v: [w for w in vlist if d[g.vindex[v], g.vindex[w]] <= b1] for v in vlist}
    total = 0
    for x in vlist:
        for y in vlist:
            sizes = [len(balls[v]) for v in paths[x, y]]
            for s in range(len(sizes)):
                for t in range(s, len(sizes)):
                    total += sizes[s] * sizes[t]

    b2_s, wit_s = 0, None
    checked = 0
    if total <= tuple_threshold:
        mode = "exhaustive"
        for x in vlist:
            for y in vlist:
                p = paths[x, y]
                full = pidx[x, y]
                for s in range(len(p)):
                    for t in range(s, len(p)):
                        sub = full[s : t + 1]
                        for a in balls[p[s]]:
                            for b in balls[p[t]]:
                                val = hdist(pidx[a, b], sub)
                                checked += 1
                                if val > b2_s or wit_s is None:
                                    b2_s, wit_s = val, (x, y, s, t, a, b)
    else:
        mode = "sampled"
        rng = random.Random(seed)
        for _ in range(sample_size):
            x = rng.choice(vlist)
            y = rng.choice(vlist)
            p = paths[x, y]
            s = rng.randrange(len(p))
            t = rng.randrange(len(p))
            if s > t:
                s, t = t, s
            a = rng.choice(balls[p[s]])
            b = rng.choice(balls[p[t]])
            val = hdist(pidx[a, b], pidx[x, y][s : t + 1])
            checked += 1
            if val > b2_s or wit_s is None:
                b2_s, wit_s = val, (x, y, s, t, a, b)

    return ThinReport(
        b1=b1,
        b2_hausdorff=b2_h,
        b2_subsegment=b2_s,
        b2_center=b2_c,
        witness_hausdorff=wit_h,
        witness_subsegment=wit_s,
        witness_center=wit_c,
        mode=mode,
        tuples_total=total,
        tuples_checked=checked,
    )


def sample_fb_ball(center, seeds, moves):
    """Finite induced subgraph of the free-bases graph around ``center``.

    Every seed starts a random walk of ``moves`` Nielsen moves from the
    center; each endpoint contributes its folding-path bases as well.
    Vertices equal up to the free-bases equivalence are merged, edges come
    from adjacency certificates, and the largest connected component is
    returned together with one label per vertex (basis words plus
    provenance of every merged copy).  Both relations go by class keys: the
    elements of a basis map to a basis of the abelianization, so their keys
    are distinct and fix the matching, and adjacency is a shared key.  A
    candidate repeating a key is no basis and raises NotABasisError.
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
    for vert, src in candidates:
        for k, rep in enumerate(reps):
            if fb_equivalent(rep, vert):
                labels[k]["sources"].append(src)
                break
        else:
            reps.append(vert)
            labels.append({"basis": words_str(vert.basis), "sources": [src]})

    m = len(reps)
    edges = []
    adj = {i: [] for i in range(m)}
    for i in range(m):
        for j in range(i + 1, m):
            if fb_adjacent(reps[i], reps[j]) is not None:
                edges.append((i, j))
                adj[i].append(j)
                adj[j].append(i)

    comps = []
    unseen = set(range(m))
    while unseen:
        root = min(unseen)
        comp = {root}
        stack = [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        unseen -= comp
        comps.append(sorted(comp))
    main = max(comps, key=len)
    renum = {old: new for new, old in enumerate(main)}
    graph = FiniteGraph(
        range(len(main)),
        [(renum[u], renum[v]) for u, v in edges if u in renum and v in renum],
    )
    return graph, [labels[old] for old in main]
