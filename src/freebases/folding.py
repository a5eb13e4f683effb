"""Stallings folds over wedges of words, down to the rose.

One engine runs every fold: ``_LiveGraph`` folds one graph in place, from
flat per-edge records, and builds an ``AGraph`` only when a result is read.
An ``AGraph`` stores the same records, so the engine copies a graph in
and hands a snapshot out without building an ``Edge``.
It folds a given list of edge pairs (``single_fold``, and the replay of a
recorded folding path), the maximal folds of the paper's order
(``fold_to_rose`` keeps one live graph for the whole path, and
``maximal_fold`` is one step of it), or every label collision until the
graph is folded (``fold_completely``, ``is_basis``).  A tuple of rank-many
words is a free basis exactly when its wedge folds to a graph with one
vertex and 2·rank edges, which is the rose; ``is_basis`` reads that off
the folded records of the wedge without building a graph.

Folds come in two kinds: a fold identifying two edges whose endpoints were
distinct ("I") is a homotopy equivalence; one whose endpoints already
coincided ("II") kills a loop and drops the Betti number.  Folding a wedge
over a basis only ever needs kind I.

A graph is *foldable* when it has no vertex of degree below 2, every
degree-2 vertex has two distinct outgoing labels and every vertex of degree
>= 3 (a *natural* vertex) sees at least three distinct outgoing labels;
foldable graphs admit maximal folds that stay foldable.  A *natural edge*
is the chain of edges from a natural vertex through degree-2 vertices to
the next natural vertex.  The engine holds the only copy of both rules:
``FoldingPath.foldable`` and ``smooth`` read them off the live graph.
"""

import random
from collections.abc import Sequence
from dataclasses import dataclass
from operator import add
from typing import NamedTuple

from .agraph import AGraph, MarkingGraph, _step_table, _subdivide, _tree_basis
from .errors import DomainError, FoldabilityError
from .words import (
    DEFAULT_RANK,
    concat,
    conjugate,
    invert,
    is_reduced,
    letter_key,
    letter_str,
    power,
    reduce,
)


class FoldStep(NamedTuple):
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
    ``graphs[i]`` satisfies the local foldability conditions.  ``graphs`` is
    any sequence; ``fold_to_rose`` hands over a ``PathGraphs``, which builds
    each graph only when it is read.  The word basis of each graph is
    ``complexes.folding_chain``'s to return, not the path's.
    """

    graphs: Sequence
    steps: list
    foldable: list

    def single_fold_count(self):
        return sum(len(group) for group in self.steps)

    def fold_kinds(self):
        return [step.kind for group in self.steps for step in group]

    def to_json_dict(self):
        return {
            "graphs": [g.to_json_dict() for g in self.graphs],
            "steps": [[s.to_json_dict() for s in group] for group in self.steps],
            "foldable": list(self.foldable),
        }


class PathGraphs(Sequence):
    """Read-only ``graphs`` of a folding path, each built on first read: the
    wedge from the words, the final graph from the live graph that folded
    them (then dropped), the rest at once by replaying the recorded edge
    pairs on one live graph, so walking the path costs one replay."""

    __slots__ = ("_words", "_rank", "_steps", "_live", "_first", "_last", "_all")

    def __init__(self, words, rank, steps, live):
        self._words, self._rank, self._steps, self._live = words, rank, steps, live
        self._first = self._last = self._all = None

    def __len__(self):
        return len(self._steps) + 1

    def __getitem__(self, k):
        if isinstance(k, int):
            n = len(self._steps) + 1
            if k == 0 or k == -n:
                if self._first is None:
                    self._first = wedge_graph(self._words, self._rank)
                return self._first
            if k == -1 or k == n - 1:
                if self._last is None:
                    self._last, self._live = self._live.graph(), None
                return self._last
        return self._built()[k]

    def _built(self):
        if self._all is None:
            graphs = [self[0]]
            live = _LiveGraph.of(graphs[0])
            for group in self._steps[:-1]:
                live.fold([s.edges for s in group])
                graphs.append(live.graph())
            if self._steps:
                graphs.append(self[-1])
            self._all = graphs
        return self._all


def _wedge_words(b, rank):
    words = tuple(reduce(w, rank) for w in b)
    if not all(words):
        raise DomainError("cannot build a wedge over an empty word")
    return words


def wedge_graph(b, rank=DEFAULT_RANK):
    """Wedge of loops at vertex 0, loop i spelling the i-th word of b.

    The subdivision of a one-vertex marking graph: one edge per letter,
    interior vertices of degree 2.  Words must be nonempty and freely
    reduced letters within the rank.  The graph is built once, unchecked:
    the words are checked here and the involution holds by construction.
    """
    n, records = _subdivide([(0, 0, w) for w in _wedge_words(b, rank)], 1)
    return AGraph._of(range(n), records, base=0, rank=rank)


def ensure_foldable(b, rank=DEFAULT_RANK):
    """Conjugate b so that its wedge is foldable.

    Returns ``(m, b2)`` with ``b2 = x_c^m . b . x_c^-m`` elementwise, the
    wedge of b2 foldable, and |m| minimal (m = 0 when the wedge of b is
    already foldable).  x_c is the common boundary letter: interior
    vertices of a wedge of reduced words see two distinct labels, so only
    the wedge point can fail, when its labels {w[0]} and {-w[-1]} are fewer
    than min(3, degree); then the first and last letters of all words
    involve a single generator.  Each word is split once as x_c^s . u . x_c^t,
    u neither starting nor ending in x_c^±1, so its conjugate by x_c^m is
    x_c^(s+m) . u . x_c^(t-m) and its end letters follow from the signs of
    s+m and t-m; a power of x_c keeps its own.  So powers are tried in the
    order -1, 1, -2, 2, ... on the wedge-point labels alone, and only the
    returned b2 is built.  Raises FoldabilityError when no such letter
    exists or no power works.
    """
    words = _wedge_words(b, rank)
    need = 2 if len(words) == 1 else 3
    if len({w[0] for w in words} | {-w[-1] for w in words}) >= need:
        return 0, words
    boundary = {abs(w[0]) for w in words} | {abs(w[-1]) for w in words}
    if len(boundary) != 1:
        raise FoldabilityError(
            "wedge is not foldable and words have no common boundary letter"
        )
    c = boundary.pop()
    fixed, split = set(), []
    for w in words:
        head = next((k for k, x in enumerate(w) if abs(x) != c), None)
        if head is None:
            fixed.update((w[0], -w[-1]))
            continue
        tail = next(k for k, x in enumerate(reversed(w)) if abs(x) != c)
        split.append((head if w[0] > 0 else -head, w[head], w[-1 - tail],
                      tail if w[-1] > 0 else -tail))

    def end(k, other):
        """The end letter of a run x_c^k, or ``other`` past an empty run."""
        return other if k == 0 else (c if k > 0 else -c)

    limit = max(len(w) for w in words) // 2 + 2
    for size in range(1, limit + 1):
        for m in (-size, size):
            labels = set(fixed)
            for s, first, last, t in split:
                labels.update((end(s + m, first), -end(t - m, last)))
            if len(labels) >= need:
                return m, tuple(conjugate(w, power((c,), -m)) for w in words)
    raise FoldabilityError(
        "conjugating by powers of %s does not make the wedge foldable"
        % letter_str(c)
    )


def _find(root, x):
    """Root of x in a union-find dict, halving the path on the way."""
    while root[x] != x:
        root[x] = x = root[root[x]]
    return x


def single_fold(g, e1_id, e2_id):
    """Identify two outgoing edges with equal label at a common vertex.

    Returns ``(graph, FoldStep)``.  Kind I merges the two endpoints; kind II
    (endpoints already equal) just deletes the duplicate edge.
    """
    edge = g.records()
    for eid in (e1_id, e2_id):
        if eid not in edge:
            raise ValueError("edge %r not in graph" % (eid,))
    if e1_id == e2_id:
        raise ValueError("cannot fold an edge with itself")
    if edge[e1_id][1::2] != edge[e2_id][1::2]:  # (src, label)
        raise ValueError("edges %d, %d are not foldable together" % (e1_id, e2_id))
    live = _LiveGraph.of(g)
    (step,) = live.fold([(e1_id, e2_id)])
    return live.graph(), step


class _LiveGraph:
    """One graph folded in place: the fold engine.

    Each edge id maps to ``[inv, src, dst, label]`` and each vertex to its
    out-edge ids, in no set order.  Folding (a, b) drops b and its inverse,
    moves the gone vertex's out-edges to the kept one, and sends the dropped
    ids to a and its inverse in an edge union-find, so a recorded pair may
    name either.  After ``watch_sites``, each fold updates three sets at the
    vertices it touches (the common source, the kept and the gone vertex):
    ``repeated`` (an out-label twice: the fold sites), ``natural`` (degree
    >= 3) and ``bad`` (foldability violated); the maximal-fold path reads them.
    """

    __slots__ = ("edge", "out", "root", "base", "rank", "repeated", "natural", "bad")

    def __init__(self, edge, vertices, base, rank):
        self.edge, self.base, self.rank = edge, base, rank
        self.out = {v: [] for v in vertices}
        for x, rec in edge.items():
            self.out[rec[1]].append(x)
        self.root = {x: x for x in edge}
        self.repeated = self.natural = self.bad = None

    @classmethod
    def of(cls, g):
        """A live copy of g: its records, as lists."""
        rec = g.records()
        return cls(dict(zip(rec, map(list, rec.values()))), g.vertices, g.base, g.rank)

    @classmethod
    def wedge(cls, words, rank):
        """The wedge of checked words, as ``wedge_graph`` numbers it."""
        n, edge = _subdivide([(0, 0, w) for w in words], 1)
        return cls(edge, range(n), 0, rank)

    def is_rose(self):
        """One vertex, 2·rank edges and no label repeated: the rose."""
        return len(self.out) == 1 and len(self.edge) == 2 * self.rank and not self.repeated

    def basis(self):
        """``basis_from_tree`` at the tracked base, read off the records."""
        return _tree_basis(self.edge, self.out, self.base, self.rank)

    def watch_sites(self):
        self.repeated, self.natural, self.bad = set(), set(), set()
        self._classify(self.out)
        return self

    def _classify(self, vertices):
        edge, out = self.edge, self.out
        repeated, natural, bad = self.repeated, self.natural, self.bad
        for v in vertices:
            repeated.discard(v)
            natural.discard(v)
            bad.discard(v)
            ids = out.get(v)
            if ids is None:
                continue
            degree = len(ids)
            distinct = len({edge[x][3] for x in ids})
            if distinct < degree:
                repeated.add(v)
            if degree >= 3:
                natural.add(v)
            if distinct < min(degree, 3) or degree <= 1:
                bad.add(v)

    def site(self, v):
        """The two lowest edge ids of v's lowest repeated label."""
        by_label = {}
        for x in self.out[v]:
            by_label.setdefault(self.edge[x][3], []).append(x)
        label = min((l for l, ids in by_label.items() if len(ids) > 1), key=letter_key)
        return tuple(sorted(by_label[label])[:2])

    def _chain(self, x):
        """Edge ids from germ x through degree-2 vertices to a natural one."""
        edge, out, natural = self.edge, self.out, self.natural
        chain = [x]
        for _ in range(len(edge) + 2):
            inv, _, v, _ = edge[x]
            if v in natural:
                return chain
            ids = out[v]
            if len(ids) != 2:
                raise DomainError("vertex %d is neither natural nor interior" % v)
            x = ids[1] if ids[0] == inv else ids[0]
            chain.append(x)
        raise DomainError("edge chain does not reach a natural vertex")

    def maximal_pairs(self):
        """Edge pairs of the maximal fold at the lowest natural site, for
        as long as the two chains from its edge pair agree in label."""
        sites = self.repeated & self.natural
        if not sites:
            raise DomainError("no fold site at a natural vertex")
        a, b = self.site(min(sites))
        pairs = []
        for f, h in zip(self._chain(a), self._chain(b)):
            if f == h or self.edge[f][3] != self.edge[h][3]:
                break
            pairs.append((f, h))
        return pairs

    def fold(self, pairs=None, record=True):
        """Fold the pairs in order or, with none given, until folded; the
        FoldSteps, if ``record``.  Until folded, each vertex keeps a label ->
        edge dict, and a kind I fold merges the smaller dict into the larger
        and queues its collisions; an entry naming a dropped edge reads as
        its survivor."""
        edge, out, root = self.edge, self.out, self.root
        steps, touched, watch = [], set(), self.repeated is not None
        index = None
        if pairs is None:
            index, pairs = {v: {} for v in out}, []
            for x, (_, src, _, label) in edge.items():
                y = index[src].setdefault(label, x)
                if y != x:
                    pairs.append((y, x))
        for a, b in pairs:  # without given pairs, the queue grows as it is read
            a, b = _find(root, a), _find(root, b)
            if a == b:
                continue
            (ainv, _, kept, _), (binv, src, gone, _) = edge[a], edge[b]
            root[b], root[binv] = a, ainv
            del edge[b], edge[binv]
            out[src].remove(b)
            out[gone].remove(binv)
            if watch:
                touched.update((src, kept, gone))
            if kept == gone:
                if record:
                    steps.append(FoldStep("II", (a, b)))
                continue
            moved = out.pop(gone)
            for x in moved:
                rec = edge[x]
                rec[1] = kept
                edge[rec[0]][2] = kept
            out[kept] += moved
            if self.base == gone:
                self.base = kept
            if record:
                steps.append(FoldStep("I", (a, b), ((kept, gone),)))
            if index is not None:
                big, small = index[kept], index.pop(gone)
                if len(big) < len(small):
                    big, small = small, big
                for label, x in small.items():
                    y = big.setdefault(label, x)
                    if y != x:
                        pairs.append((y, x))
                index[kept] = big
        if watch:
            self._classify(touched)
        return steps

    def graph(self):
        """A snapshot of the graph as it stands; the records fold on."""
        return AGraph._of(self.out, self.edge, base=self.base, rank=self.rank)


def maximal_fold(g):
    """Fold the maximal graphically-equal initial segments at one fold site.

    The site is chosen deterministically: the natural vertex with the lowest
    id carrying two outgoing edges with equal label, the lowest such label in
    letter order, the two lowest edge ids.  The two chains through degree-2
    vertices starting there are folded together edge by edge for as long as
    their labels agree.  Returns ``(graph, [FoldStep, ...])``.  This is one
    step of the engine that ``fold_to_rose`` runs along the whole path.
    """
    live = _LiveGraph.of(g).watch_sites()
    if not live.repeated:
        raise DomainError("graph is already folded")
    steps = live.fold(live.maximal_pairs())
    return live.graph(), steps


def _fold_path(b, rank):
    """The walk of ``fold_to_rose``: its path so far and the live graph at
    the path's last graph, yielded at the wedge and after each maximal fold."""
    words = _wedge_words(b, rank)
    live = _LiveGraph.wedge(words, rank).watch_sites()
    steps, foldable = [], [not live.bad]
    path = FoldingPath(PathGraphs(words, rank, steps, live), steps, foldable)
    yield path, live
    while live.repeated:
        try:
            pairs = live.maximal_pairs()
        except DomainError:
            pairs = [live.site(min(live.repeated))]
        steps.append(live.fold(pairs))
        foldable.append(not live.bad)
        yield path, live


def fold_to_rose(b, rank=DEFAULT_RANK):
    """Maximal folds from the wedge of b until the graph is folded.

    The wedge should be foldable (run ensure_foldable first); when an
    intermediate graph loses foldability, which only happens when b is not a
    basis, the fold falls back to a single fold at the lowest fold site so
    the path still terminates.  The base vertex is tracked through every
    merge.  The whole path folds one live graph, each fold updating only the
    vertices it touches; no graph is built until ``path.graphs`` is read.
    """
    for path, _ in _fold_path(b, rank):
        pass
    return path


def smooth(g):
    """Erase degree-2 vertices, concatenating labels along each chain.

    The result is a MarkingGraph on the natural vertices, with one edge pair
    per natural edge.  Natural vertices are visited in ascending order, and
    each one's out-edges by label, then id; a germ not yet on a chain starts
    the next one, whose edges take ids 2k and 2k + 1.  Raises DomainError
    when g has no natural vertex (a circle or a point), when a chain meets a
    vertex that is neither natural nor of degree 2, or when a chain's word
    does not reduce, which never happens on a foldable graph.
    """
    live = _LiveGraph.of(g).watch_sites()
    if not live.natural:
        raise DomainError("graph has no natural vertex")
    edge, records, walked = live.edge, {}, set()
    for v in sorted(live.natural):
        for x in sorted(live.out[v], key=lambda x: (letter_key(edge[x][3]), x)):
            if x in walked:
                continue
            chain = live._chain(x)
            walked.add(edge[chain[-1]][0])  # the germ walking this chain back
            word = tuple(edge[y][3] for y in chain)
            if not is_reduced(word):
                raise DomainError("the word of the chain from edge %d does not reduce" % x)
            a, b, dst = len(records), len(records) + 1, edge[chain[-1]][2]
            records[a], records[b] = (b, v, dst, word), (a, dst, v, invert(word))
    return MarkingGraph._of(live.natural, records)


def fold_completely(g):
    """Fold g until it is folded; returns ``(graph, [FoldStep, ...])``.

    The live graph queues the label collisions of g, then those each merge
    makes, and folds them in queue order, so the steps and the ids of the
    merged vertices follow that order, but by confluence the folded graph
    is the same up to labeled isomorphism whatever the order.
    """
    live = _LiveGraph.of(g)
    steps = live.fold()
    return live.graph(), steps


def is_basis(b, rank=DEFAULT_RANK):
    """Do the given rank-many words form a free basis?

    They are when they generate the free group (which is Hopfian), that is
    when their wedge folds to the rose: a folded graph with one vertex and
    2·rank edges.  The wedge folds as edge records, building no graph or step.
    """
    if len(b) != rank:
        raise DomainError("expected %d words, got %d" % (rank, len(b)))
    words = tuple(reduce(w, rank) for w in b)
    if not all(words):
        return False
    live = _LiveGraph.wedge(words, rank)
    live.fold(record=False)
    return live.is_rose()


def _walk(step, v, letters):
    """Walk from v by a label -> {src: dst} table: the last vertex, and
    the letters left from the first that has no edge."""
    letters = iter(letters)
    try:
        for x in letters:
            v = step[x][v]
    except KeyError:
        return v, (x, *letters)
    return v, ()


def subgroup_membership(w, g):
    """Trace a word through a folded based graph; True iff it closes up.

    Requires a folded graph with a base vertex.  The word walks as given: in
    a folded graph a letter and its inverse step back where they started, so
    the walk ends where the reduced word's does.  Say it stops at vertex v
    on a letter x with no edge there.  The reduced prefix does not end in
    x^-1, as its last edge's inverse would carry x out of v; so if the rest
    (x on) is reduced, the reduced word falls off at x too: no member.
    Otherwise the rest is checked, reduced and walked on (the walk so far
    can be retraced).  Linear in |w|, after a step table the graph keeps.
    """
    if g.base is None:
        raise DomainError("membership needs a based graph")
    step = _step_table(g)
    if step is None:
        raise DomainError("membership needs a folded graph")
    w = tuple(w)
    plain = set(map(type, w)) <= {int}  # else reduce's check judges each letter
    v, rest = _walk(step, g.base, w) if plain else (g.base, w)
    if plain and rest:
        letters = set(rest)
        if (0 not in letters and max(map(abs, letters)) <= g.rank
                and 0 not in map(add, rest, rest[1:])):
            return False
    if rest:
        v, rest = _walk(step, v, reduce(rest, g.rank))
    return not rest and v == g.base


def random_basis(seed, steps, rank=DEFAULT_RANK, frozen=(), start=None):
    """Random free basis: Nielsen moves applied to the standard basis.

    Moves are chosen uniformly among swap, invert, left multiply and right
    multiply.  ``frozen`` positions (0-based) are never modified, though
    they may act as multipliers; ``start`` overrides the initial basis.
    Deterministic in ``seed``.  Needs rank >= 2: a move at rank 1 has no
    other element to multiply by.
    """
    if rank < 2:
        raise ValueError("random bases need rank >= 2, got rank %d" % rank)
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
