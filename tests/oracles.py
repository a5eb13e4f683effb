"""Independent reference implementations used only by the test suite.

The naive folder shares no traversal code with freebases.folding: it keeps
a flat set of positively-labeled directed edges plus a union-find over
vertices, and repeatedly merges the endpoints of an arbitrary violating
pair chosen by a seeded generator.  Any fixed folding strategy must land
on the same folded graph up to labeled isomorphism, so this is the
confluence oracle for fold_to_rose.

The free-bases oracles search every permutation and inversion pattern (for
equivalence) and every element pair and sign (for adjacency), where the
library lets class keys force the matching.  The coset search is the
library's equivalence before every vertex got a key: the class keys match
the elements, and the common conjugator is searched over a bounded coset
of the first element's centralizer; the key comparison must agree with
it.  The window walk is ``FBVertex.key`` before it read its power of the
first element's normal form off how far the second element's ends run
along its powers: it tries every power in the window, so it is quadratic
when the normal form is short and the second element long.  The keys must
be equal.  The recursive canonical code is the library's traversal before
it moved to an explicit stack.

The rebuild folders are the library's folding before it moved to one
union-find engine: every single fold builds the whole quotient graph,
``is_basis`` repairs foldability by conjugation (checking whole wedges) and
compares the folded graph with the rose.  The engine must give the same
answers, the same folding paths and isomorphic folded graphs.  Their site
scan ``fold_pairs``, which rescans every vertex, is also the scan that
``fold_to_rose`` ran before each maximal fold until it kept the fold sites
as a set on one live graph.

The chain-walk rules are the graph layer's copies of the fold engine's
rules, from before the engine held the only ones: ``is_foldable`` checks
every vertex's outgoing labels, and ``natural_edges`` walks each chain
through degree-2 vertices on an ``AGraph``.  The rebuild folders use them,
so the engine is checked against a rule it does not share.
``chain_walk_smooth`` is ``smooth`` before it read the live graph; the two
must give the same marking, except that an unreduced chain word made the
old one raise ValueError and makes the new one raise DomainError.

The union-find folder is the library's whole-graph fold engine before one
live graph ran every fold: a union-find over vertices and one over edges,
folding given edge pairs or, with a label -> edge dict per vertex class,
every collision until folded, and building the quotient graph at the end.
The live graph must give the same graphs and the same steps.

The per-pair and per-tuple hyperbolicity scans are the library's delta and
thin-triangle measurements before they were vectorized: one numpy call per
vertex pair (four-point), one geodesic-dag sweep per vertex pair (slim),
and one Hausdorff distance per tuple (thin triangles), with the ball
sampler that compares every candidate with every representative.  The
vectorized code must return the same values, witnesses and graphs.  The
per-call median map is ``median_map`` before it tabled its centers: three
distance columns and one argmin per call.  The table must name the same
center for every ordered triple.  The dense four-point scan is
``delta_four_point`` before it compared only far-apart pairs: every pair
{i, j} against every (k, l), a block of j rows at once.  The pruned scan
must return the same constant.  The per-pair quasiconvexity test is
``is_quasiconvex`` before it read its geodesic intervals from one kernel:
one interval mask per ordered pair of subset members.  The ``np.ix_``
Hausdorff distance is ``hausdorff_distance`` before it shared the
checker's kernel; ``condition1_value`` and the per-tuple checker use it, so
the checker's witnesses are not checked against its own kernel.

The piecewise substitution is ``substitute`` before it reduced once: it
appends one basis image at a time with ``concat``.  The single reduction
must give the same word.

The hand-rolled traversals are the library's graph searches before they
all went through ``agraph.bfs``: the connectivity walks of ``AGraph`` and
``FiniteGraph``, ``spanning_tree``, ``tau``'s component and two-pass tree,
``apsp``, ``geodesic_family`` and the ball sampler's components.  The one
search must give the same answers in the same order.

The two-search basis reader is ``basis_from_tree`` before it read its words
off the spanning tree's own search: one label-ordered BFS for the tree, a
second one along the tree that spells the word of every vertex, and the
words around the non-tree edges from those.  The one-search reader must
return the same words.

The replaying chain is ``folding_chain`` before it read its bases off the
live graph: it folds the path, replays it to build every graph, reads each
basis with ``basis_from_tree`` on the built graph, and tests the built
final graph with ``is_rose``.  The live read must give the same exponent,
bases and path, or the same error.

The quadratic read kernels are the library's word and membership reads
before they went linear: the least rotation as the minimum over every
rotation's key tuple, the conjugator as the first rotation of one core that
equals the other, and membership as a scan of each vertex's out-edges per
letter after a separate foldedness walk.  The linear kernels must return the
same words, the same conjugators and the same answers or errors.

The test-only helpers left the library because only tests called them: an
edge count, a spanning-tree checker, marking isomorphism by expansion,
conjugacy by cyclic normal forms and two of the thin-triangle condition
values.
"""

import random
from itertools import permutations, product

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
    rose,
)
from freebases.complexes import (
    FBAdjacency,
    FBVertex,
    FFVertex,
    fb_adjacent,
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
    _BLOCK,
    FiniteGraph,
    ThinReport,
    _path_indices,
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


def coset_fb_equivalent(a, b):
    """Are two stored bases the same free-bases vertex?

    No two elements of a basis are conjugate, even up to inversion, since
    they map to a basis of the abelianization.  So the class keys force the
    permutation and inversions taking a to b (see FBVertex.classes), and
    only one simultaneous conjugator is left to find.  Those taking the
    first matched pair to each other form the coset {u^k g0} of the
    centralizer of the (primitive, hence root-free) first element, and |k|
    admits a length bound beyond which conjugates are longer than the
    target.  Raises NotABasisError when either tuple repeats a class key.
    """
    if a.rank != b.rank:
        raise ValueError("bases of different rank")
    if a.classes.keys() != b.classes.keys():
        return False
    u = []
    for key, (_, forward) in b.classes.items():
        i, a_forward = a.classes[key]
        u.append(a.basis[i] if a_forward == forward else invert(a.basis[i]))
    targets = b.basis
    g0 = find_conjugator(u[0], targets[0])
    root_len = len(cyclic_reduce(u[0])[0])
    bound = max(
        (len(u[k]) + len(targets[k]) + 2 * len(g0)) // root_len + 1
        for k in range(a.rank)
    )
    for k in range(-bound, bound + 1):
        g = concat(power(u[0], k), g0)
        if all(conjugate(u[i], g) == targets[i] for i in range(a.rank)):
            return True
    return False


def window_fb_key(v, widen=1):
    """FBVertex.key with its power of c searched over the whole window
    |k| <= |w|/|c| + 1, or one ``widen`` times wider, each conjugate built
    from power(c, k); the least (|w|, w) wins."""
    order = sorted(v.classes.items())
    elems = [v.basis[i] if forward else invert(v.basis[i]) for _, (i, forward) in order]
    c = order[0][0]
    g = find_conjugator(elems[0], c)
    bound = widen * (len(conjugate(elems[1], g)) // len(c) + 1)
    tries = (concat(g, power(c, k)) for k in range(-bound, bound + 1))
    _, _, g = min((len(w), w, h) for h in tries for w in [conjugate(elems[1], h)])
    return tuple(conjugate(w, g) for w in elems)


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


def is_foldable(g, report=False):
    """Check the two local foldability conditions.

    Returns a bool, or ``(bool, violations)`` when ``report`` is true.  The
    graph is expected to be a core graph; degree-0 and degree-1 vertices are
    reported as violations since the conditions only make sense without them.
    """
    violations = []
    for v in sorted(g.vertices):
        labels = [e.label for e in g.out_edges(v)]
        distinct = len(set(labels))
        if len(labels) <= 1:
            violations.append("vertex %d has degree %d (not a core graph)" % (v, len(labels)))
        elif len(labels) == 2:
            if distinct < 2:
                violations.append("degree-2 vertex %d has equal outgoing labels" % v)
        else:
            if distinct < 3:
                violations.append(
                    "vertex %d of degree %d has only %d distinct outgoing labels"
                    % (v, len(labels), distinct)
                )
    ok = not violations
    return (ok, violations) if report else ok


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


# -- folding by rebuilding the graph at every fold --------------------------


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
    edges = {
        eid: Edge(eid, e.inv, _find(vroot, e.src), _find(vroot, e.dst), e.label)
        for eid, e in g.edges.items()
        if eroot[eid] == eid
    }
    vertices = [v for v in g.vertices if vroot[v] == v]
    base = None if g.base is None else _find(vroot, g.base)
    return AGraph(vertices, edges, base=base, rank=g.rank, check=False), steps


# -- per-pair and per-tuple hyperbolicity scans ------------------------------


def argmin_median_map(g):
    """The median center map with one argmin of three distance columns per
    call, lowest vertex in the order on ties."""
    d = g.distance_matrix()

    def phi(a, b, c):
        tot = d[:, g.vindex[a]] + d[:, g.vindex[b]] + d[:, g.vindex[c]]
        return g.vertex_list[int(np.argmin(tot))]

    return phi


def per_pair_delta_four_point(g):
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


def dense_delta_four_point(g):
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


def per_pair_delta_slim(g):
    """delta_slim with one geodesic-dag sweep per vertex pair and an n^3
    on-geodesic mask."""
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
            defect = np.minimum(maxgeo[x], maxgeo[y])[:, onmask[x, y]]
            val = int(defect.max())
            if val > delta:
                delta = val
    return delta


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
    return _ix_hausdorff(g.distance_matrix(), _path_indices(g, p), _path_indices(g, q))


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


def scan_sample_fb_ball(center, seeds, moves):
    """sample_fb_ball comparing every candidate with every representative
    by coset_fb_equivalent, and every pair of representatives by
    fb_adjacent."""
    candidates = _ball_candidates(center, seeds, moves)
    reps = []
    labels = []
    for vert, src in candidates:
        for k, rep in enumerate(reps):
            if coset_fb_equivalent(rep, vert):
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


# -- hand-rolled traversals ----------------------------------------------------


def stack_agraph_connected(g):
    """AGraph.validate's connectivity walk: a depth-first stack."""
    seen = {min(g.vertices)}
    stack = [min(g.vertices)]
    while stack:
        v = stack.pop()
        for e in g.out_edges(v):
            if e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return seen == g.vertices


def stack_finite_graph_connected(g):
    """FiniteGraph's connectivity check: a depth-first stack."""
    seen = {g.vertex_list[0]}
    stack = [g.vertex_list[0]]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == g.vertices


def queue_spanning_tree(g, root=None):
    if root is None:
        root = g.base if g.base is not None else min(g.vertices)
    seen = {root}
    tree = set()
    queue = [root]
    for v in queue:
        for e in sorted(g.out_edges(v), key=lambda e: (letter_key(e.label), e.id)):
            if e.dst not in seen:
                seen.add(e.dst)
                tree.add(e.id)
                tree.add(e.inv)
                queue.append(e.dst)
    if seen != g.vertices:
        raise DomainError("graph is not connected")
    return frozenset(tree)


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


def level_apsp(g):
    """apsp one BFS level at a time, with numpy scalar indexing."""
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


def level_geodesic_family(g):
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


def holder_sample_fb_ball(center, seeds, moves):
    """sample_fb_ball merging candidates by coset_fb_equivalent within
    buckets of equal class-key sets, with its components grown through the
    class-key holder lists by hand; also returns the number of
    components."""
    reps = []
    labels = []
    by_keys = {}
    for vert, src in _ball_candidates(center, seeds, moves):
        bucket = by_keys.setdefault(frozenset(vert.classes), [])
        for k in bucket:
            if coset_fb_equivalent(reps[k], vert):
                labels[k]["sources"].append(src)
                break
        else:
            bucket.append(len(reps))
            reps.append(vert)
            labels.append({"basis": words_str(vert.basis), "sources": [src]})

    holders = {}
    for i, rep in enumerate(reps):
        for key in rep.classes:
            holders.setdefault(key, []).append(i)
    comps = []
    unseen = set(range(len(reps)))
    while unseen:
        comp = [min(unseen)]
        unseen.remove(comp[0])
        for i in comp:
            for key in reps[i].classes:
                comp += [j for j in holders[key] if j in unseen]
                unseen.difference_update(holders[key])
        comps.append(sorted(comp))
    main = max(comps, key=len)
    renum = {old: new for new, old in enumerate(main)}
    edges = {(renum[i], renum[j]) for group in holders.values()
             for i in group for j in group if i < j and i in renum}
    return FiniteGraph(range(len(main)), edges), [labels[old] for old in main], len(comps)


# -- quadratic read kernels -------------------------------------------------


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
    return int(d[g.vindex[center], _path_indices(g, paths[a, b])].min())
