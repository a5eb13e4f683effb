"""Independent reference implementations used only by the test suite.

The naive folder shares no traversal code with freebases.folding: it keeps
a flat set of positively-labeled directed edges plus a union-find over
vertices, and repeatedly merges the endpoints of an arbitrary violating
pair chosen by a seeded generator.  Any fixed folding strategy must land
on the same folded graph up to labeled isomorphism, so this is the
confluence oracle for fold_to_rose.

The free-bases oracles search every permutation and inversion pattern (for
equivalence) and every element pair and sign (for adjacency), where the
library lets class keys force the matching.  The recursive canonical code
is the library's traversal before it moved to an explicit stack.

The rebuild folders are the library's folding before it moved to one
union-find engine: every single fold builds the whole quotient graph,
``is_basis`` repairs foldability by conjugation (checking whole wedges) and
compares the folded graph with the rose.  The engine must give the same
answers, the same folding paths and isomorphic folded graphs.
"""

import random
from itertools import permutations, product

from freebases.agraph import (
    AGraph,
    Edge,
    _chain_from,
    fold_pairs,
    is_foldable,
    is_folded,
    labeled_isomorphic,
    natural_vertices,
    rose,
)
from freebases.complexes import FBAdjacency
from freebases.errors import DomainError, FoldabilityError
from freebases.folding import FoldStep, FoldingPath
from freebases.words import (
    concat,
    concat_all,
    conjugate,
    cyclic_normal_form,
    cyclic_reduce,
    find_conjugator,
    invert,
    letter_key,
    letter_str,
    power,
    reduce,
)


def _wedge_edges(b):
    edges = []
    nxt = 1
    for w in b:
        prev = 0
        for k, letter in enumerate(w):
            dst = 0 if k == len(w) - 1 else nxt
            if dst == nxt:
                nxt += 1
            if letter > 0:
                edges.append((prev, dst, letter))
            else:
                edges.append((dst, prev, -letter))
            prev = dst
    return edges, nxt


def naive_folded_graph(b, rank, seed):
    """Fold the wedge of b by merging any violating pair, in random order."""
    rng = random.Random(seed)
    edges, n = _wedge_edges(b)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while True:
        canon = sorted({(find(u), find(v), l) for u, v, l in edges})
        edges = canon
        merges = []
        for i in range(len(canon)):
            u1, v1, l1 = canon[i]
            for j in range(i + 1, len(canon)):
                u2, v2, l2 = canon[j]
                if l1 != l2:
                    continue
                if u1 == u2 and v1 != v2:
                    merges.append((v1, v2))
                if v1 == v2 and u1 != u2:
                    merges.append((u1, u2))
        if not merges:
            break
        x, y = merges[rng.randrange(len(merges))]
        parent[find(x)] = find(y)

    vids = sorted({x for u, v, _ in edges for x in (u, v)})
    ren = {v: i for i, v in enumerate(vids)}
    out = {}
    nid = 0
    for u, v, l in edges:
        out[nid] = Edge(nid, nid + 1, ren[u], ren[v], l)
        out[nid + 1] = Edge(nid + 1, nid, ren[v], ren[u], -l)
        nid += 2
    return AGraph(range(len(vids)), out, base=ren[find(0)], rank=rank)


def _bfs_distances(g):
    """Pure-Python all-pairs distances: {source: {vertex: dist}}."""
    dist = {}
    for s in g.vertex_list:
        d = {s: 0}
        frontier = [s]
        while frontier:
            layer = []
            for x in frontier:
                for y in g.neighbors(x):
                    if y not in d:
                        d[y] = d[x] + 1
                        layer.append(y)
            frontier = layer
        dist[s] = d
    return dist


def _all_geodesics(g, d, x, y):
    """Every geodesic from x to y, walking the distance gradient."""
    if x == y:
        return [(x,)]
    out = []
    for w in g.neighbors(x):
        if d[w][y] == d[x][y] - 1:
            out.extend((x,) + rest for rest in _all_geodesics(g, d, w, y))
    return out


def brute_slim_delta(g):
    """Smallest delta with every geodesic side in the delta-neighborhood of
    the union of the other two, over all triples and all geodesic choices."""
    d = _bfs_distances(g)
    vs = g.vertex_list
    geos = {(x, y): _all_geodesics(g, d, x, y) for x in vs for y in vs}
    best = 0
    for x in vs:
        for y in vs:
            for z in vs:
                for gyz in geos[y, z]:
                    for gzx in geos[z, x]:
                        others = set(gyz) | set(gzx)
                        for gxy in geos[x, y]:
                            for p in gxy:
                                best = max(
                                    best, min(d[p][q] for q in others)
                                )
    return best


def brute_four_point_delta(g):
    """Quadruple scan for the four-point constant, pure Python."""
    d = _bfs_distances(g)
    vs = g.vertex_list
    best = 0
    for x in vs:
        for y in vs:
            for z in vs:
                for w in vs:
                    sums = sorted(
                        (
                            d[x][y] + d[z][w],
                            d[x][z] + d[y][w],
                            d[x][w] + d[y][z],
                        )
                    )
                    best = max(best, sums[2] - sums[1])
    return best / 2


def _class_key(w):
    return min(cyclic_normal_form(w), cyclic_normal_form(invert(w)))


def search_fb_equivalent(a, b):
    """fb_equivalent by trying all n! * 2^n permutations and sign patterns,
    each with the centralizer-coset conjugator check."""
    if a.rank != b.rank:
        raise ValueError("bases of different rank")
    n = a.rank
    if sorted(map(_class_key, a.basis)) != sorted(map(_class_key, b.basis)):
        return False
    targets = b.basis
    for sigma in permutations(range(n)):
        for eps in product((1, -1), repeat=n):
            u = tuple(
                a.basis[sigma[k]] if eps[k] > 0 else invert(a.basis[sigma[k]])
                for k in range(n)
            )
            g0 = find_conjugator(u[0], targets[0])
            if g0 is None:
                continue
            root_len = len(cyclic_reduce(u[0])[0])
            bound = max(
                (len(u[k]) + len(targets[k]) + 2 * len(g0)) // root_len + 1
                for k in range(n)
            )
            for k in range(-bound, bound + 1):
                g = concat(power(u[0], k), g0)
                if all(conjugate(u[i], g) == targets[i] for i in range(n)):
                    return True
    return False


def scan_fb_adjacent(a, b):
    """fb_adjacent by 2n^2 conjugator searches, b's elements outermost.

    Like fb_adjacent it is defined on distinct vertices only; the caller
    checks that (with search_fb_equivalent), so the exhaustive search runs
    once per pair rather than once per direction.
    """
    for j in range(1, b.rank + 1):
        for i in range(1, a.rank + 1):
            for sign in (1, -1):
                target = b.basis[j - 1] if sign > 0 else invert(b.basis[j - 1])
                g = find_conjugator(a.basis[i - 1], target)
                if g is not None:
                    return FBAdjacency(i, j, sign, g)
    return None


def recursive_canonical_code(g, base):
    """Minimal BFS code over all label-respecting traversals from base,
    one Python frame per vertex and label."""
    best = [None]

    def process(idx, num, order, acc):
        if idx == len(order):
            cand = tuple(acc)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        v = order[idx]
        by_label = {}
        for e in g.out_edges(v):
            by_label.setdefault(e.label, []).append(e)
        labels = sorted(by_label, key=letter_key)

        def do_label(li, num, order, acc):
            if li == len(labels):
                process(idx + 1, num, order, acc)
                return
            label = labels[li]
            lk = letter_key(label)
            group = by_label[label]
            fixed = sorted(num[e.dst] for e in group if e.dst in num)
            entries = [lk + (n,) for n in fixed]
            fresh = {}
            for e in group:
                if e.dst not in num:
                    fresh[e.dst] = fresh.get(e.dst, 0) + 1
            targets = sorted(fresh)
            if not targets:
                do_label(li + 1, num, order, acc + [tuple(entries)])
                return
            for perm in permutations(targets):
                num2 = dict(num)
                order2 = list(order)
                ext = list(entries)
                for t in perm:
                    num2[t] = len(order2)
                    order2.append(t)
                    ext.extend([lk + (num2[t],)] * fresh[t])
                do_label(li + 1, num2, order2, acc + [tuple(ext)])

        do_label(0, num, order, acc)

    process(0, {base: 0}, [base], [])
    return (len(g.vertices), len(g.edges)) + (best[0],)


# -- folding by rebuilding the graph at every fold --------------------------


def rebuild_wedge_graph(b, rank):
    """Wedge of loops at vertex 0, subdivided by its own loop."""
    words = [reduce(w, rank) for w in b]
    if any(not w for w in words):
        raise DomainError("cannot build a wedge over an empty word")
    edges = {}
    next_v = 1
    next_e = 0
    for w in words:
        stops = [0] + list(range(next_v, next_v + len(w) - 1)) + [0]
        next_v += len(w) - 1
        for k, letter in enumerate(w):
            a, bb = next_e, next_e + 1
            edges[a] = Edge(a, bb, stops[k], stops[k + 1], letter)
            edges[bb] = Edge(bb, a, stops[k + 1], stops[k], -letter)
            next_e += 2
    return AGraph(range(next_v), edges, base=0, rank=rank)


def rebuild_ensure_foldable(b, rank):
    """ensure_foldable by building and checking two whole wedges per power."""
    words = tuple(reduce(w, rank) for w in b)
    g = rebuild_wedge_graph(words, rank)
    if is_foldable(g):
        return 0, words, g
    boundary = {abs(w[0]) for w in words} | {abs(w[-1]) for w in words}
    if len(boundary) != 1:
        raise FoldabilityError(
            "wedge is not foldable and words have no common boundary letter"
        )
    c = boundary.pop()
    limit = max(len(w) for w in words) // 2 + 2
    for size in range(1, limit + 1):
        for m in (-size, size):
            b2 = tuple(
                concat_all(power((c,), m), w, power((c,), -m)) for w in words
            )
            g2 = rebuild_wedge_graph(b2, rank)
            if is_foldable(g2):
                return m, b2, g2
    raise FoldabilityError(
        "conjugating by powers of %s does not make the wedge foldable"
        % letter_str(c)
    )


def rebuild_single_fold(g, e1_id, e2_id):
    """One fold, building the whole quotient graph."""
    e1, e2 = g.edges[e1_id], g.edges[e2_id]
    if e1.id == e2.id:
        raise ValueError("cannot fold an edge with itself")
    if e1.src != e2.src or e1.label != e2.label:
        raise ValueError("edges %d, %d are not foldable together" % (e1_id, e2_id))
    kept, gone = e1.dst, e2.dst
    kind = "I" if kept != gone else "II"

    def remap(v):
        return kept if v == gone else v

    edges = {}
    for e in g.edges.values():
        if e.id in (e2.id, e2.inv):
            continue
        edges[e.id] = Edge(e.id, e.inv, remap(e.src), remap(e.dst), e.label)
    vertices = {remap(v) for v in g.vertices}
    if kind == "I":
        vertices.discard(gone)
    base = g.base if g.base != gone else kept
    merged = ((kept, gone),) if kind == "I" else ()
    return (
        AGraph(vertices, edges, base=base, rank=g.rank, check=False),
        FoldStep(kind, (e1_id, e2_id), merged),
    )


def rebuild_maximal_fold(g):
    """maximal_fold as a sequence of rebuilding single folds."""
    if is_folded(g):
        raise DomainError("graph is already folded")
    natural = set(natural_vertices(g))
    site = None
    for v, label, ids in fold_pairs(g):
        if v in natural:
            site = (v, label, ids)
            break
    if site is None:
        raise DomainError("no fold site at a natural vertex")
    _, _, ids = site
    chain1 = _chain_from(g, g.edges[ids[0]], natural)
    chain2 = _chain_from(g, g.edges[ids[1]], natural)
    cur = g
    steps = []
    for f, h in zip(chain1, chain2):
        if f.id == h.id or f.label != h.label:
            break
        cur, step = rebuild_single_fold(cur, f.id, h.id)
        steps.append(step)
    return cur, steps


def rebuild_fold_to_rose(b, rank):
    """fold_to_rose with one rebuilt graph per single fold."""
    g = rebuild_wedge_graph(b, rank)
    graphs = [g]
    steps = []
    foldable = [is_foldable(g)]
    cur = g
    while not is_folded(cur):
        try:
            cur, group = rebuild_maximal_fold(cur)
        except DomainError:
            v, label, ids = fold_pairs(cur)[0]
            cur, step = rebuild_single_fold(cur, ids[0], ids[1])
            group = [step]
        graphs.append(cur)
        steps.append(group)
        foldable.append(is_foldable(cur))
    return FoldingPath(graphs, steps, foldable)


def rebuild_fold_completely(g):
    """Single folds at the lowest (vertex, label, edge ids) site until folded."""
    steps = []
    cur = g
    while True:
        sites = fold_pairs(cur)
        if not sites:
            return cur, steps
        _, _, ids = sites[0]
        cur, step = rebuild_single_fold(cur, ids[0], ids[1])
        steps.append(step)


def rebuild_is_basis(b, rank):
    """is_basis by repairing foldability, folding maximally and comparing
    the folded graph with the rose; single folds when no repair exists."""
    if len(b) != rank:
        raise DomainError("expected %d words, got %d" % (rank, len(b)))
    words = tuple(reduce(w, rank) for w in b)
    if any(not w for w in words):
        return False
    try:
        _, b2, _ = rebuild_ensure_foldable(words, rank)
        final = rebuild_fold_to_rose(b2, rank).graphs[-1]
    except FoldabilityError:
        final, _ = rebuild_fold_completely(rebuild_wedge_graph(words, rank))
    return labeled_isomorphic(final, rose(rank))
