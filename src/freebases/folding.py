"""Stallings folds over wedges of words, down to the rose.

The pipeline: build the wedge of loops spelling the given words, repair
foldability by conjugating every word with a power of the common boundary
letter when needed, then repeatedly perform maximal folds until the graph is
folded.  A tuple of words is a free basis exactly when this ends at the rose.

Folds come in two kinds: a fold identifying two edges whose endpoints were
distinct ("I") is a homotopy equivalence; one whose endpoints already
coincided ("II") kills a loop and drops the Betti number.  Folding a wedge
over a basis only ever needs kind I.
"""

import random
from dataclasses import dataclass, field

from .agraph import (
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
from .errors import DomainError, FoldabilityError
from .words import (
    DEFAULT_RANK,
    concat,
    concat_all,
    invert,
    letter_str,
    power,
    reduce,
    word_str,
)


@dataclass(frozen=True)
class FoldStep:
    """A single fold: which edge pair was identified, and which vertex (if
    any) was merged away.  ``merged`` holds (kept, gone) pairs."""

    kind: str  # "I" or "II"
    edges: tuple
    merged: tuple = ()

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "merged": [list(p) for p in self.merged],
        }


@dataclass
class FoldingPath:
    """Sequence of graphs from a wedge to its folded image.

    ``steps[i]`` lists the single folds of the i-th maximal fold, taking
    ``graphs[i]`` to ``graphs[i+1]``.  ``foldable[i]`` records whether
    ``graphs[i]`` satisfies the local foldability conditions.  ``bases`` may
    later be filled with an extracted word basis per graph.
    """

    graphs: list
    steps: list
    foldable: list
    bases: list = field(default=None)

    def single_fold_count(self):
        return sum(len(group) for group in self.steps)

    def fold_kinds(self):
        return [step.kind for group in self.steps for step in group]

    def to_json_dict(self):
        data = {
            "graphs": [g.to_json_dict() for g in self.graphs],
            "steps": [[s.to_json_dict() for s in group] for group in self.steps],
            "foldable": list(self.foldable),
        }
        if self.bases is not None:
            data["bases"] = [[word_str(w) for w in b] for b in self.bases]
        return data


def wedge_graph(b, rank=DEFAULT_RANK):
    """Wedge of loops at vertex 0, loop i spelling the i-th word of b.

    One edge per letter; interior vertices have degree 2.  Words must be
    nonempty and freely reduced letters within the rank.
    """
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


def ensure_foldable(b, rank=DEFAULT_RANK):
    """Conjugate b so that its wedge is foldable.

    Returns ``(m, b2, g)`` with ``b2 = x_c^m . b . x_c^-m`` elementwise,
    ``g = wedge_graph(b2)`` foldable, and |m| minimal (m = 0 when the wedge
    of b is already foldable).  x_c is the common boundary letter: the wedge
    of freely reduced words only fails foldability at the wedge point, and
    only when the first and last letters of all words involve a single
    generator.  Raises FoldabilityError when no such letter exists or no
    power works.
    """
    words = tuple(reduce(w, rank) for w in b)
    g = wedge_graph(words, rank)
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
            g2 = wedge_graph(b2, rank)
            if is_foldable(g2):
                return m, b2, g2
    raise FoldabilityError(
        "conjugating by powers of %s does not make the wedge foldable"
        % letter_str(c)
    )


def single_fold(g, e1_id, e2_id):
    """Identify two outgoing edges with equal label at a common vertex.

    Returns ``(graph, FoldStep)``.  Kind I merges the two endpoints; kind II
    (endpoints already equal) just deletes the duplicate edge.
    """
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


def maximal_fold(g):
    """Fold the maximal graphically-equal initial segments at one fold site.

    The site is chosen deterministically: the natural vertex with the lowest
    id carrying two outgoing edges with equal label, the lowest such label in
    letter order, the two lowest edge ids.  The two chains through degree-2
    vertices starting there are folded together edge by edge for as long as
    their labels agree.  Returns ``(graph, [FoldStep, ...])``.
    """
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
    pairs = []
    for f, h in zip(chain1, chain2):
        if f.id == h.id or f.label != h.label:
            break
        pairs.append((f.id, h.id))
    cur = g
    steps = []
    for a, b in pairs:
        cur, step = single_fold(cur, a, b)
        steps.append(step)
    return cur, steps


def fold_to_rose(b, rank=DEFAULT_RANK):
    """Maximal folds from the wedge of b until the graph is folded.

    The wedge should be foldable (run ensure_foldable first); when an
    intermediate graph loses foldability, which only happens when b is not a
    basis, the fold falls back to plain single folds so the path still
    terminates.  The base vertex is tracked through every merge.
    """
    g = wedge_graph(b, rank)
    graphs = [g]
    steps = []
    foldable = [is_foldable(g)]
    cur = g
    while not is_folded(cur):
        try:
            cur, group = maximal_fold(cur)
        except DomainError:
            v, label, ids = fold_pairs(cur)[0]
            cur, step = single_fold(cur, ids[0], ids[1])
            group = [step]
        graphs.append(cur)
        steps.append(group)
        foldable.append(is_foldable(cur))
    return FoldingPath(graphs, steps, foldable)


def fold_completely(g):
    """Single folds in a fixed order (lowest vertex, label, edge ids) until
    folded.  Order does not matter for the result, by confluence."""
    steps = []
    cur = g
    while True:
        sites = fold_pairs(cur)
        if not sites:
            return cur, steps
        _, _, ids = sites[0]
        cur, step = single_fold(cur, ids[0], ids[1])
        steps.append(step)


def is_basis(b, rank=DEFAULT_RANK):
    """Do the given rank-many words form a free basis?

    Folds the wedge and compares the folded graph with the rose.  Words are
    fed through ensure_foldable first; if no conjugation repairs
    foldability, an exhaustive single-fold completion is used instead (the
    folded image does not depend on fold order).
    """
    if len(b) != rank:
        raise DomainError("expected %d words, got %d" % (rank, len(b)))
    words = tuple(reduce(w, rank) for w in b)
    if any(not w for w in words):
        return False
    try:
        _, b2, _ = ensure_foldable(words, rank)
        final = fold_to_rose(b2, rank).graphs[-1]
    except FoldabilityError:
        final, _ = fold_completely(wedge_graph(words, rank))
    return labeled_isomorphic(final, rose(rank))


def subgroup_membership(w, g):
    """Trace a word through a folded based graph; True iff it closes up.

    Requires a folded graph with a base vertex.
    """
    if g.base is None:
        raise DomainError("membership needs a based graph")
    if not is_folded(g):
        raise DomainError("membership needs a folded graph")
    v = g.base
    for letter in reduce(w, g.rank):
        nxt = None
        for e in g.out_edges(v):
            if e.label == letter:
                nxt = e.dst
                break
        if nxt is None:
            return False
        v = nxt
    return v == g.base


def random_basis(seed, steps, rank=DEFAULT_RANK, frozen=(), start=None):
    """Random free basis: Nielsen moves applied to the standard basis.

    Moves are chosen uniformly among swap, invert, left multiply and right
    multiply.  ``frozen`` positions (0-based) are never modified, though
    they may act as multipliers; ``start`` overrides the initial basis.
    Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    if start is None:
        basis = [(i,) for i in range(1, rank + 1)]
    else:
        basis = [tuple(w) for w in start]
    movable = [i for i in range(rank) if i not in frozen]
    if not movable:
        raise ValueError("no movable positions")
    for _ in range(steps):
        kind = rng.randrange(4)
        i = movable[rng.randrange(len(movable))]
        others = [j for j in range(rank) if j != i]
        j = others[rng.randrange(len(others))]
        if kind == 0:
            movable_others = [k for k in others if k not in frozen]
            if movable_others:
                j = movable_others[rng.randrange(len(movable_others))]
                basis[i], basis[j] = basis[j], basis[i]
            else:
                basis[i] = invert(basis[i])
        elif kind == 1:
            basis[i] = invert(basis[i])
        elif kind == 2:
            basis[i] = concat(basis[j], basis[i])
        else:
            basis[i] = concat(basis[i], basis[j])
        assert basis[i], "a Nielsen move can never produce the empty word"
    return tuple(basis)
