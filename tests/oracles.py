"""Reference implementations used only by the test suite, each named with
the library code it checks.

A definition computes its answer the way the quantity is defined, by brute
force or exhaustive search, and so shares no shortcut with the kernel it
checks.  An earlier version is the library's own code before a rewrite; the
ones kept pin a convention (an order, a numbering, the spanning tree at the
base) that no definition here checks.  Which tree spanning_tree picks at
any other root is not checked, only that it spans.  An oracle is retired
only when the mutation score (tools/mutate.py; see README, Tests) of the
code it checks holds without it.

Definitions:
- naive_folded_graph: fold_to_rose, fold_completely, is_basis.  It merges
  any two same-label edges at a vertex, in seeded random order; folding is
  confluent, so every order lands on one graph up to labeled isomorphism.
- bfs_distance_matrix: apsp, one pure-Python search per source.
- brute_four_point_delta: delta_four_point, over every quadruple.
- brute_slim_delta: delta_slim, over every triangle and every choice of its
  three sides among the geodesics that _all_geodesics walks down the
  distance gradient.
- least_geodesic_family: geodesic_family.  A breadth-first tree with sorted
  neighbour scans reaches each vertex along its least geodesic.
- per_pair_is_quasiconvex: is_quasiconvex, one interval per member pair.
- ix_hausdorff_distance, condition1_value, condition3_value:
  hausdorff_distance and the thin-triangle witnesses, from np.ix_
  submatrices rather than the checker's kernel.
- argmin_median_map: median_map's table, an argmin of three columns per call.
- per_tuple_check_thin_triangles: check_thin_triangles, one Hausdorff
  distance per tuple and three center-map calls per triple.
- search_fb_equivalent: fb_equivalent and FBVertex.key, over every
  permutation and sign pattern, each with a bounded coset of conjugators.
- scan_fb_adjacent: fb_adjacent, a conjugator search per element pair and sign.
- definition_fb_ball: sample_fb_ball, merging by search_fb_equivalent and
  joining vertices whose elements are conjugate up to inversion.
- reaches_all: the connectivity checks of AGraph, FiniteGraph and apsp,
  and, with check_spanning_tree, that spanning_tree spans.
- is_foldable, natural_vertices, natural_edges: the foldability flags and
  natural chains, checked vertex by vertex on the whole graph.
- rebuild_wedge_graph, rebuild_ensure_foldable: wedge_graph and
  ensure_foldable, trying powers in order on whole wedges.
- recursive_canonical_code: the least code over all label-respecting
  traversals, against agraph._canonical_code.
- slice_cyclic_normal_form, rotation_find_conjugator: cyclic_normal_form
  and find_conjugator, trying every rotation.
- scan_subgroup_membership: subgroup_membership, reading the reduced word
  along the folded graph one out-edge scan per letter.
- replay_folding_chain: folding_chain, one basis_from_tree per built graph.
- concat_substitute: substitute, one concat per letter.

Earlier versions:
- union_find_fold: single_fold, fold_completely and replayed paths; the
  queue order and surviving ids of fold_completely have no other check.
- fold_pairs, rebuild_maximal_fold, rebuild_fold_to_rose: fold_to_rose's
  choice of fold site, chains walked on whole graphs, folds by union_find_fold.
- chain_walk_smooth: smooth's edge numbering.
- two_search_basis_from_tree: basis_from_tree, tree (rooted at the base)
  and words from two searches.
- queue_tau: tau's tree at the base and words, from list.pop(0) queues.

Test-only helpers: num_topological_edges, check_spanning_tree,
marking_isomorphic (by expansion) and conjugate_related.
"""

import random
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from freebases.agraph import (
    AGraph,
    Edge,
    MarkingEdge,
    MarkingGraph,
    basis_from_tree,
    bfs,
    is_folded,
    is_rose,
    labeled_isomorphic,
)
from freebases.complexes import (
    FBAdjacency,
    FBVertex,
    FFVertex,
    folding_path_bases,
    identity_basis,
)
from freebases.errors import DomainError, FoldabilityError, TrivialFactorError
from freebases.folding import (
    FoldStep,
    FoldingPath,
    _find,
    ensure_foldable,
    fold_to_rose,
    is_basis,
    random_basis,
)
from freebases.hyperbolicity import (
    FiniteGraph,
    ThinReport,
    _indices,
    check_path_family,
)
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
    words_str,
)


def naive_folded_graph(b, rank, seed):
    """Fold the wedge of b by merging any violating pair, in random order."""
    rng = random.Random(seed)
    wedge = rebuild_wedge_graph(b, rank)
    edges = [(e.src, e.dst, e.label) for e in wedge.edges.values() if e.label > 0]
    parent = list(range(len(wedge.vertices)))

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


def bfs_distance_matrix(g):
    """The pure-Python BFS distances as an int32 array in vertex_list order."""
    dist = _bfs_distances(g)
    return np.array([[dist[x][y] for y in g.vertex_list] for x in g.vertex_list], dtype=np.int32)


def brute_slim_delta(g):
    """Smallest delta with every side of every geodesic triangle in the
    delta-neighborhood of the union of the other two: every triple of
    corners, every choice of the three sides, every point of each side.  A
    triangle's sides do not depend on the order of its corners, so the
    corners run over x <= y <= z in vertex_list order."""
    dist = _bfs_distances(g)
    vs = g.vertex_list
    geodesics = {(x, y): _all_geodesics(g, dist, x, y) for x in vs for y in vs}
    best = 0
    for x, y, z in combinations_with_replacement(vs, 3):
        for sides in product(geodesics[x, y], geodesics[y, z], geodesics[z, x]):
            for k, side in enumerate(sides):
                others = sides[k - 1] + sides[k - 2]
                for p in side:
                    best = max(best, min(dist[p][q] for q in others))
    return best


def brute_four_point_delta(g):
    """Half the largest gap between the two largest of the three pairwise
    distance sums, over every quadruple.  The three sums of a quadruple do
    not depend on its order, so x runs over its least index only."""
    d = bfs_distance_matrix(g)
    best = 0
    for x in range(len(d)):
        r, e = d[x, x:], d[x:, x:]
        s1 = r[:, None, None] + e[None, :, :]  # d(x,y) + d(z,w)
        s2 = r[None, :, None] + e[:, None, :]  # d(x,z) + d(y,w)
        s3 = r[None, None, :] + e[:, :, None]  # d(x,w) + d(y,z)
        top = np.maximum(np.maximum(s1, s2), s3)
        mid = s1 + s2 + s3 - top - np.minimum(np.minimum(s1, s2), s3)
        best = max(best, int((top - mid).max()))
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


# -- the graph layer's foldability rule and chain walk -----------------------


def is_foldable(g):
    """The two local foldability conditions: every vertex has degree at
    least 2, a degree-2 vertex two outgoing labels and a higher-degree one
    at least three."""
    for v in g.vertices:
        labels = [e.label for e in g.out_edges(v)]
        if len(labels) <= 1 or len(set(labels)) < min(len(labels), 3):
            return False
    return True


def natural_vertices(g):
    """Vertices of degree at least 3, ascending."""
    return sorted(v for v in g.vertices if g.degree(v) >= 3)


def _chain_from(g, germ, natural):
    chain = [germ]
    guard = len(g.edges) + 1
    while chain[-1].dst not in natural:
        if len(chain) > guard:
            raise DomainError("edge chain does not reach a natural vertex")
        v = chain[-1].dst
        nxt = [e for e in g.out_edges(v) if e.id != chain[-1].inv]
        if len(nxt) != 1:
            raise DomainError("vertex %d is neither natural nor interior" % v)
        chain.append(nxt[0])
    return chain


def natural_edges(g):
    """Maximal chains through degree-2 vertices between natural vertices.

    Each topological edge belongs to exactly one returned chain; chains are
    lists of oriented edge ids.  Raises DomainError when the graph has no
    natural vertex (a circle or a point).
    """
    natural = set(natural_vertices(g))
    if not natural:
        raise DomainError("graph has no natural vertex")
    chains = []
    used = set()
    for v in sorted(natural):
        for germ in sorted(g.out_edges(v), key=lambda e: (letter_key(e.label), e.id)):
            if min(germ.id, germ.inv) in used:
                continue
            chain = _chain_from(g, germ, natural)
            for e in chain:
                used.add(min(e.id, e.inv))
            chains.append([e.id for e in chain])
    return chains


def chain_walk_smooth(g):
    """Erase degree-2 vertices, concatenating labels along each chain.

    The result is a MarkingGraph on the natural vertices.  Requires a core
    graph with at least one natural vertex; for foldable graphs the chain
    words are automatically reduced.
    """
    chains = natural_edges(g)
    edges = {}
    for k, chain in enumerate(chains):
        first = g.edges[chain[0]]
        last = g.edges[chain[-1]]
        word = tuple(g.edges[eid].label for eid in chain)
        a, b = 2 * k, 2 * k + 1
        edges[a] = MarkingEdge(a, b, first.src, last.dst, word)
        edges[b] = MarkingEdge(b, a, last.dst, first.src, invert(word))
    return MarkingGraph(natural_vertices(g), edges)


# -- folding on whole graphs --------------------------------------------------


def fold_pairs(g):
    """All (vertex, label, edge ids) triples witnessing non-foldedness, by
    vertex, then label; the rebuild oracles fold at the first."""
    found = []
    for v in sorted(g.vertices):
        by_label = {}
        for e in g.out_edges(v):
            by_label.setdefault(e.label, []).append(e.id)
        for label in sorted(by_label, key=letter_key):
            ids = by_label[label]
            if len(ids) > 1:
                found.append((v, label, sorted(ids)))
    return found


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


def rebuild_maximal_fold(g):
    """maximal_fold on the whole graph: the chains from the lowest natural
    fold site, walked edge by edge, folded by union_find_fold."""
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
    pairs = []
    for f, h in zip(_chain_from(g, g.edges[ids[0]], natural),
                    _chain_from(g, g.edges[ids[1]], natural)):
        if f.id == h.id or f.label != h.label:
            break
        pairs.append((f.id, h.id))
    return union_find_fold(g, pairs)


def rebuild_fold_to_rose(b, rank):
    """fold_to_rose one whole graph at a time: a maximal fold, or a single
    fold at the lowest site where no natural vertex has one."""
    g = rebuild_wedge_graph(b, rank)
    graphs = [g]
    steps = []
    foldable = [is_foldable(g)]
    cur = g
    while not is_folded(cur):
        try:
            cur, group = rebuild_maximal_fold(cur)
        except DomainError:
            _, _, ids = fold_pairs(cur)[0]
            cur, group = union_find_fold(cur, [ids[:2]])
        graphs.append(cur)
        steps.append(group)
        foldable.append(is_foldable(cur))
    return FoldingPath(graphs, steps, foldable)


def union_find_fold(g, pairs=None):
    """Fold g along ``pairs`` in order, or until folded; ``(graph, steps)``.

    Folding (e1, e2) sends e2, e2.inv to e1, e1.inv in an edge union-find
    and e2.dst to the kept root e1.dst in a vertex union-find, so the graph
    built at the end has the ids of folding the pairs one at a time.  With
    no pairs, each vertex root keeps a label -> edge dict; a kind I fold
    merges the smaller dict into the larger and queues its collisions,
    whose ids are read through the edge union-find when their turn comes.
    """
    vroot = {v: v for v in g.vertices}
    eroot = {eid: eid for eid in g.edges}
    out = None
    if pairs is None:
        out = {v: {} for v in g.vertices}
        pairs = []
        for e in g.edges.values():
            if e.label in out[e.src]:
                pairs.append((out[e.src][e.label], e.id))
            else:
                out[e.src][e.label] = e.id
    steps = []
    for a, b in pairs:  # without given pairs, the queue grows as it is read
        e1, e2 = g.edges[_find(eroot, a)], g.edges[_find(eroot, b)]
        if e1.id == e2.id:
            continue
        kept, gone = _find(vroot, e1.dst), _find(vroot, e2.dst)
        eroot[e2.id], eroot[e2.inv] = e1.id, e1.inv
        if kept == gone:
            steps.append(FoldStep("II", (e1.id, e2.id)))
            continue
        vroot[gone] = kept
        steps.append(FoldStep("I", (e1.id, e2.id), ((kept, gone),)))
        if out is not None:
            big, small = out[kept], out.pop(gone)
            if len(big) < len(small):
                big, small = small, big
            for label, eid in small.items():
                if label in big:
                    pairs.append((big[label], eid))
                else:
                    big[label] = eid
            out[kept] = big
    records = {
        eid: (e.inv, _find(vroot, e.src), _find(vroot, e.dst), e.label)
        for eid, e in g.edges.items()
        if eroot[eid] == eid
    }
    vertices = [v for v in g.vertices if vroot[v] == v]
    base = None if g.base is None else _find(vroot, g.base)
    return AGraph._of(vertices, records, base=base, rank=g.rank), steps


# -- hyperbolicity -----------------------------------------------------------


def argmin_median_map(g):
    """The median center map with one argmin of three distance columns per
    call, lowest vertex in the order on ties."""
    d = g.distance_matrix()

    def phi(a, b, c):
        tot = d[:, g.vindex[a]] + d[:, g.vindex[b]] + d[:, g.vindex[c]]
        return g.vertex_list[int(np.argmin(tot))]

    return phi


def per_pair_is_quasiconvex(g, s, c):
    """is_quasiconvex with one geodesic-interval mask per ordered pair of
    members of s, which must be a nonempty set of vertices of g."""
    d = g.distance_matrix()
    idx = [g.vindex[v] for v in s]
    to_s = d[:, idx].min(axis=1)
    for i in idx:
        for j in idx:
            if (to_s[d[i] + d[j] == d[i, j]] > c).any():
                return False
    return True


def _ix_hausdorff(d, ia, ib):
    """Hausdorff distance between two vertex-index lists, from the np.ix_
    submatrix of their distances."""
    sub = d[np.ix_(ia, ib)]
    return int(max(sub.min(axis=1).max(), sub.min(axis=0).max()))


def ix_hausdorff_distance(p, q, g):
    """Hausdorff distance between the vertex sets of two paths."""
    return _ix_hausdorff(g.distance_matrix(), _indices(g, p, "path"), _indices(g, q, "path"))


def per_tuple_check_thin_triangles(
    g, paths, phi, b1, tuple_threshold=1_000_000, sample_size=20_000, seed=0
):
    """check_thin_triangles with one Hausdorff distance per examined tuple
    and three center-map calls per ordered triple."""
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

    b2_h, wit_h = 0, (vlist[0], vlist[0])
    for x in vlist:
        for y in vlist:
            if y < x:
                continue
            val = _ix_hausdorff(d, pidx[x, y], pidx[y, x])
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
                                val = _ix_hausdorff(d, pidx[a, b], sub)
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
            val = _ix_hausdorff(d, pidx[a, b], pidx[x, y][s : t + 1])
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


def _ball_candidates(center, seeds, moves):
    """The ball sampler's (vertex, provenance) candidates, in its order."""
    candidates = [(center, "center")]
    for s in seeds:
        walked = center.__class__(random_basis(s, moves, rank=center.rank,
                                                start=center.basis))
        candidates.append((walked, "seed %d" % s))
        for k, v in enumerate(folding_path_bases(walked)):
            candidates.append((v, "seed %d / fold %d" % (s, k)))
    return candidates


def definition_fb_ball(center, seeds, moves):
    """sample_fb_ball from the definitions: a candidate joins the first
    representative that search_fb_equivalent finds equal to it (or that has
    its basis tuple), two representatives are adjacent when an element of
    one is conjugate to an element of the other or to its inverse (they
    share a class key), and the largest component of a depth-first search,
    the first on a tie, is kept.  Also returns the number of components."""
    reps, keys, labels = [], [], []
    for vert, src in _ball_candidates(center, seeds, moves):
        vkeys = {_class_key(w) for w in vert.basis}
        k = next((i for i, rep in enumerate(reps) if keys[i] == vkeys and (
            rep.basis == vert.basis or search_fb_equivalent(rep, vert))), len(reps))
        if k == len(reps):
            reps.append(vert)
            keys.append(vkeys)
            labels.append({"basis": words_str(vert.basis), "sources": []})
        labels[k]["sources"].append(src)
    adj = [[j for j in range(len(reps)) if j != i and keys[i] & keys[j]] for i in range(len(reps))]
    comps, unseen = [], set(range(len(reps)))
    while unseen:
        comp = {min(unseen)}
        stack = list(comp)
        while stack:
            for j in adj[stack.pop()]:
                if j not in comp:
                    comp.add(j)
                    stack.append(j)
        unseen -= comp
        comps.append(sorted(comp))
    main = max(comps, key=len)
    renum = {old: new for new, old in enumerate(main)}
    edges = {(renum[i], renum[j]) for i in main for j in adj[i] if i < j}
    return FiniteGraph(range(len(main)), edges), [labels[i] for i in main], len(comps)


# -- traversals ---------------------------------------------------------------


def reaches_all(vertices, neighbours):
    """Does a depth-first walk from the least vertex reach every vertex?"""
    start = min(vertices)
    seen, stack = {start}, [start]
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == set(vertices)


def queue_tau(s):
    """tau with its component search and its two-pass spanning tree as
    list.pop(0) queues."""
    m = s.marking
    e = m.edges[s.edge]
    n = m.betti()
    drop = {e.id, e.inv}

    comp = {e.src}
    queue = [e.src]
    while queue:
        v = queue.pop(0)
        for f in m.out_edges(v):
            if f.id not in drop and f.dst not in comp:
                comp.add(f.dst)
                queue.append(f.dst)

    tree = set()
    words = {e.src: ()}
    order = [e.src]
    for avoid in (drop, set()):
        queue = list(order)
        while queue:
            v = queue.pop(0)
            for f in m.out_edges(v):
                if f.id in avoid or f.dst in words:
                    continue
                tree.update({f.id, f.inv})
                words[f.dst] = concat(words[v], f.word)
                queue.append(f.dst)
                order.append(f.dst)
    if len(words) != len(m.vertices):
        raise DomainError("marking graph is not connected")

    ambient = []
    subset = set()
    for eid, inv_id in sorted(m.topological_edges()):
        if eid in tree:
            continue
        f = m.edges[eid]
        ambient.append(concat_all(words[f.src], f.word, invert(words[f.dst])))
        if eid not in drop and f.src in comp and f.dst in comp:
            subset.add(len(ambient))
    if len(ambient) != n:
        raise DomainError("marking has unexpected rank %d" % len(ambient))
    if not subset:
        raise TrivialFactorError("origin-side vertex group is trivial")
    if len(subset) >= n:
        raise TrivialFactorError("origin-side vertex group is improper")
    if not is_basis(tuple(ambient), n):
        raise DomainError("marking words do not present the free group")
    return FFVertex(tuple(ambient), frozenset(subset))


def least_geodesic_family(g):
    """The least geodesic, as a vertex tuple, of every ordered pair."""
    d = _bfs_distances(g)
    return {(x, y): min(_all_geodesics(g, d, x, y)) for x in g.vertex_list for y in g.vertex_list}


# -- read kernels ------------------------------------------------------------


def slice_cyclic_normal_form(w):
    """cyclic_normal_form as the minimum over all rotations' key tuples."""
    core, _ = cyclic_reduce(w)
    if len(core) <= 1:
        return core
    key = tuple(letter_key(letter) for letter in core)
    best = min(range(len(core)), key=lambda r: key[r:] + key[:r])
    return core[best:] + core[:best]


def rotation_find_conjugator(u, w):
    """find_conjugator trying the rotations of u's core one at a time."""
    u0, p = cyclic_reduce(u)
    w0, q = cyclic_reduce(w)
    if len(u0) != len(w0):
        return None
    n = len(u0)
    if n == 0:
        g = concat(p, invert(q))
        assert conjugate(u, g) == tuple(w)
        return g
    for k in range(n):
        if u0[k:] + u0[:k] == tuple(w0):
            g = concat_all(p, u0[:k], invert(q))
            assert conjugate(u, g) == reduce(w)
            return g
    return None


def scan_subgroup_membership(w, g):
    """subgroup_membership after an is_folded walk, scanning the current
    vertex's out-edges for every letter."""
    if g.base is None:
        raise DomainError("membership needs a based graph")
    if not is_folded(g):
        raise DomainError("membership needs a folded graph")
    v = g.base
    for letter in reduce(w, g.rank):
        v = next((e.dst for e in g.out_edges(v) if e.label == letter), None)
        if v is None:
            return False
    return v == g.base


def _label_steps(g, v, tree=None):
    """bfs step over v's edges (those in ``tree``, if given) by label, then id."""
    edges = sorted(g.out_edges(v), key=lambda e: (letter_key(e.label), e.id))
    return [(e, e.dst) for e in edges if tree is None or e.id in tree]


def _tree_words(g, tree, root):
    """Label word of the unique tree path root -> v, for every vertex v."""
    via = bfs([root], lambda v: _label_steps(g, v, tree))
    if len(via) != len(g.vertices):
        raise DomainError("tree does not span the graph")
    words = {}
    for v, e in via.items():
        words[v] = () if e is None else words[e.src] + (e.label,)
    return words


def two_search_basis_from_tree(g, base):
    """The spanning tree from one search, every vertex's word from a second
    search along it, and one word around each non-tree edge."""
    via = bfs([base], lambda v: _label_steps(g, v))
    if len(via) != len(g.vertices):
        raise DomainError("graph is not connected")
    tree = frozenset(i for e in via.values() if e is not None for i in (e.id, e.inv))
    if g.betti() != g.rank:
        raise DomainError(
            "Betti number %d differs from rank %d" % (g.betti(), g.rank)
        )
    words = _tree_words(g, tree, base)
    out = []
    for eid, inv_id in sorted(g.topological_edges()):
        if eid in tree:
            continue
        e = g.edges[eid]
        rep = e if e.label > 0 else g.edges[inv_id]
        out.append(concat_all(words[rep.src], (rep.label,), invert(words[rep.dst])))
    return out


# -- replaying folding chain ---------------------------------------------------


def replay_folding_chain(b):
    """folding_chain with every graph of the path built by the replay, one
    basis_from_tree per graph and is_rose on the built final graph."""
    n = b.rank
    try:
        m, b2 = ensure_foldable(b.basis, n)
    except FoldabilityError:
        m, b2 = 0, b.basis
    path = fold_to_rose(b2, n)
    bases = [b] + [FBVertex(tuple(basis_from_tree(g, g.base))) for g in path.graphs[1:]]
    if len(bases) > 1 and is_rose(path.graphs[-1]):
        bases[-1] = FBVertex(identity_basis(n))
    return m, path, bases


# -- piecewise substitution ---------------------------------------------------


def concat_substitute(w, basis):
    """Image of w under x_i -> basis[i-1], one ``concat`` per letter."""
    out = ()
    for letter in w:
        piece = basis[letter - 1] if letter > 0 else invert(basis[-letter - 1])
        out = concat(out, piece)
    return out


# -- test-only helpers ---------------------------------------------------------


def num_topological_edges(g):
    return len(g.edges) // 2


def check_spanning_tree(g, tree):
    problems = []
    for eid in tree:
        e = g.edges.get(eid)
        if e is None:
            problems.append("tree edge %d not in graph" % eid)
        elif e.inv not in tree:
            problems.append("tree not closed under involution at edge %d" % eid)
    if not problems:
        n_top = sum(1 for eid in tree if eid < g.edges[eid].inv)
        if n_top != len(g.vertices) - 1:
            problems.append("tree has %d edges for %d vertices" % (n_top, len(g.vertices)))
    return problems


def marking_isomorphic(m1, m2):
    """Word-label preserving isomorphism of marking graphs."""
    return labeled_isomorphic(m1.expand(), m2.expand())


def conjugate_related(u, w):
    """True iff u and w are conjugate in the free group."""
    return cyclic_normal_form(u) == cyclic_normal_form(w)


def condition1_value(g, paths, x, y):
    """Hausdorff distance between the stored (x,y) and (y,x) paths."""
    return ix_hausdorff_distance(paths[x, y], paths[y, x], g)


def condition3_value(g, paths, phi, a, b, c):
    """Distance from the center of (a,b,c) to the stored (a,b) path."""
    d = g.distance_matrix()
    center = phi(a, b, c) if callable(phi) else phi[a, b, c]
    return int(d[g.vindex[center], _indices(g, paths[a, b], "path")].min())
