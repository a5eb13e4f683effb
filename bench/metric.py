"""Workload ``metric``: delta and thin-triangle measurements of finite
graphs.  Only the hyperbolicity layer runs.

A round builds each graph from its edge list, takes its distance matrix
(the apsp step) and both deltas, then runs the thin-triangles checker with
the geodesic family and the median map on small trees, a small grid, and
one tree with enough tuples to switch the checker to sampled mode.  Sparse
(trees, cycles, grids) and dense (coned-off) graphs stress the layer
differently.
"""

import random

import oracle as o
from harness import Op
from inputs import cone, cycle, grid, prufer_tree

THROUGHPUT = ("delta.total_s", "thin.tuples_per_s")

# Sizes keep every op under about 0.1 s, so that a run repeats each op
# dozens of times and its shortest time is the op's own cost (see
# metrics.wall).
TREE_SIZES = (12, 30, 45)
CYCLE_SIZES = (8, 24, 40)  # C_4k, delta k
GRID_SIZES = (3, 5, 6)
CONED_CYCLES = ((12, 2), (32, 3))  # (cycle length, arcs coned off)
CONED_GRIDS = ((3, 1), (6, 2))  # (side, rows coned off)
# Thin checks: (tree size, b1, tuple target).  The seed picks trees whose
# exhaustive tuple count is within 5% of the target, so that the checker's
# work does not swing with the seed.  Targets sit near each size's median.
THIN_TREES = ((8, 1, 4800), (6, 2, 4600), (6, 3, 6750))
THIN_GRID = (3, 1)
THIN_SAMPLED = (9, 2)  # median 21 000 tuples, just above THIN_THRESHOLD
# Passed to check_thin_triangles in place of its defaults (1 000 000 and
# 20 000), which would make the sampled op alone take most of a round.
THIN_THRESHOLD = 20_000
THIN_SAMPLE = 3_000
LOWER_SAMPLES = 4000


def _arcs(rng, n, count):
    """``count`` disjoint arcs of a cycle of length n, each n/4 long."""
    length = n // 4
    starts = sorted(rng.sample(range(0, n, length), count))
    return [[(s + i) % n for i in range(length)] for s in starts]


def _thin_tree(rng, n, b1, lo, hi):
    for _ in range(10000):
        tree = prufer_tree(rng, n)
        adj = o.adjacency(*tree)
        dist = o.bfs_distances(adj)
        paths = {(x, y): o.bfs_path(adj, dist, x, y) for x in range(n) for y in range(n)}
        if lo <= o.thin_tuple_count(paths, dist, b1) <= hi:
            return tree
    raise RuntimeError("no tree of size %d in the tuple band" % n)


def build(fb, seed):
    rng = random.Random("metric:%d" % seed)
    graphs = []  # (family, graph, exact deltas known up front, brute-force it)
    for n in TREE_SIZES:
        graphs.append(("tree", prufer_tree(rng, n), (0, 0), n == min(TREE_SIZES)))
    for n in CYCLE_SIZES:
        graphs.append(("cycle", cycle(n), (n // 4, n // 4), n == min(CYCLE_SIZES)))
    for k in GRID_SIZES:
        graphs.append(("grid", grid(k), None, k == min(GRID_SIZES)))
    for n, arcs in CONED_CYCLES:
        graphs.append(("coned cycle", cone(cycle(n), _arcs(rng, n, arcs)), None,
                       n == CONED_CYCLES[0][0]))
    for k, rows in CONED_GRIDS:
        chosen = rng.sample(range(k), rows)
        subsets = [[r * k + c for c in range(k)] for r in chosen]
        graphs.append(("coned grid", cone(grid(k), subsets), None, k == CONED_GRIDS[0][0]))

    ops = [Op("delta", _delta(fb, graph), _check_delta(family, graph, exact, brute, i))
           for i, (family, graph, exact, brute) in enumerate(graphs)]

    thin = [(_thin_tree(rng, n, b1, 0.95 * target, 1.05 * target), b1, True)
            for n, b1, target in THIN_TREES]
    thin.append((grid(THIN_GRID[0]), THIN_GRID[1], False))
    n, b1 = THIN_SAMPLED
    thin.append((_thin_tree(rng, n, b1, 1.05 * THIN_THRESHOLD, 1.15 * THIN_THRESHOLD), b1, True))
    ops += [Op("thin", _thin(fb, graph, b1), _check_thin(graph, b1, is_tree))
            for graph, b1, is_tree in thin]
    return ops


# -- ops -------------------------------------------------------------------


def _delta(fb, graph):
    n, edges = graph

    def run(rec):
        g = rec.call("hyperbolicity.FiniteGraph", fb.FiniteGraph, range(n), edges)
        dist = rec.call("hyperbolicity.apsp", g.distance_matrix)
        d4 = rec.call("hyperbolicity.delta_four_point", fb.delta_four_point, g)
        ds = rec.call("hyperbolicity.delta_slim", fb.delta_slim, g)
        rec.high("hyperbolicity.delta_slim.array_bytes", 5 * n ** 3)  # int32 + bool
        return dist, d4, ds
    return run


def _thin(fb, graph, b1):
    n, edges = graph

    def run(rec):
        g = rec.call("hyperbolicity.FiniteGraph", fb.FiniteGraph, range(n), edges)
        paths = rec.call("hyperbolicity.geodesic_family", fb.geodesic_family, g)
        phi = rec.call("hyperbolicity.median_map", fb.median_map, g)
        report = rec.call("hyperbolicity.check_thin_triangles", fb.check_thin_triangles,
                          g, paths, phi, b1, THIN_THRESHOLD, THIN_SAMPLE)
        rec.count("hyperbolicity.thin.tuples", report.tuples_checked)
        rec.count("hyperbolicity.thin.tuples_total", report.tuples_total)
        return paths, phi, report
    return run


# -- checks ----------------------------------------------------------------


def _check_delta(family, graph, exact, brute, idx):
    """apsp equals our BFS.  Trees have delta 0 and C_4k has delta k by both
    measures; the smallest graph of each family matches brute force; every
    other graph lies between a sampled lower bound and half its diameter."""
    ours = {}  # computed at the first check, not during set-up

    def check(result):
        dist, d4, ds = result
        if not ours:
            adj = o.adjacency(*graph)
            ref = ours["ref"] = o.bfs_distances(adj)
            ours["diam"] = o.diameter(ref)
            if brute:
                ours["deltas"] = (o.four_point_brute(ref), o.slim_brute(adj, ref))
            elif exact is None:
                ours["deltas"] = (o.four_point_lower(ref, LOWER_SAMPLES, idx),
                                  o.slim_lower(adj, ref, LOWER_SAMPLES // 10, idx))
        ref, diam = ours["ref"], ours["diam"]
        problems = []
        if dist.tolist() != ref:
            problems.append("apsp differs from BFS on the %s" % family)
        if brute:
            if (d4, ds) != ours["deltas"]:
                problems.append("%s: deltas %s, brute force %s" % (family, (d4, ds), ours["deltas"]))
        elif exact is not None:
            if (d4, ds) != exact:
                problems.append("%s: deltas %s, expected %s" % (family, (d4, ds), exact))
        else:
            low4, lows = ours["deltas"]
            if not low4 <= d4 <= diam / 2:
                problems.append("%s: four-point %s outside [%s, %s]" % (family, d4, low4, diam / 2))
            if not lows <= ds <= diam // 2:
                problems.append("%s: slim %s outside [%s, %s]" % (family, ds, lows, diam // 2))
        return problems
    return check


def _check_thin(graph, b1, is_tree):
    """The family is geodesic, the tuple count is ours, and each witness
    attains its reported value under our distances.  On a tree geodesics
    are unique and the median lies on all three sides, so the Hausdorff and
    center values are 0 and the subsegment value is at most b1."""
    n, edges = graph
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    ours = []  # distances, computed at the first check

    def check(result):
        paths, phi, r = result
        if not ours:
            ours.append(o.bfs_distances(o.adjacency(n, edges)))
        dist = ours[0]
        problems = []
        for (x, y), p in paths.items():
            if p[0] != x or p[-1] != y or len(p) - 1 != dist[x][y] or any(
                    (min(u, v), max(u, v)) not in edge_set for u, v in zip(p, p[1:])):
                problems.append("path (%d, %d) is not a geodesic" % (x, y))
                break
        total = o.thin_tuple_count(paths, dist, b1)
        if r.tuples_total != total:
            problems.append("tuple count %d, ours %d" % (r.tuples_total, total))
        sampled = total > THIN_THRESHOLD
        if r.mode != ("sampled" if sampled else "exhaustive"):
            problems.append("mode %s for %d tuples" % (r.mode, total))
        if r.tuples_checked != (THIN_SAMPLE if sampled else total):
            problems.append("%d tuples checked" % r.tuples_checked)
        x, y = r.witness_hausdorff
        if o.hausdorff(paths[x, y], paths[y, x], dist) != r.b2_hausdorff:
            problems.append("Hausdorff witness does not attain its value")
        x, y, s, t, a, b = r.witness_subsegment
        p = paths[x, y]
        if (dist[a][p[s]] > b1 or dist[b][p[t]] > b1
                or o.hausdorff(paths[a, b], p[s:t + 1], dist) != r.b2_subsegment):
            problems.append("subsegment witness does not attain its value")
        a, b, c = r.witness_center
        sums = [dist[v][a] + dist[v][b] + dist[v][c] for v in range(n)]
        center = sums.index(min(sums))
        if phi(a, b, c) != center:
            problems.append("median map disagrees with our median")
        if min(dist[center][v] for v in paths[a, b]) != r.b2_center:
            problems.append("center witness does not attain its value")
        if is_tree and (r.b2_hausdorff, r.b2_center) != (0, 0):
            problems.append("nonzero Hausdorff or center value on a tree")
        if is_tree and not sampled and r.b2_subsegment > b1:
            problems.append("subsegment value above b1 on a tree")
        return problems
    return check
