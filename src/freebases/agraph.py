"""Finite graphs with oriented edges labeled by free-group letters.

An edge is a flat record (inv, src, dst, label) with an involution partner
carrying the inverse label, so each topological edge is stored twice; the
records are a graph's only store, and a graph is immutable.  Vertices
are integers; an optional base vertex marks graphs that present a subgroup.

A graph is *folded* when no vertex has two distinct outgoing edges with the
same label; folded graphs immerse into the rose.
"""

from collections import Counter, namedtuple
from itertools import permutations
from operator import neg

from .errors import ContractibleGraphError, DomainError, distinct, typed
from .words import (
    DEFAULT_RANK,
    concat_all,
    invert,
    is_reduced,
    letter_key,
    letter_str,
    parse_word,
    word_str,
)


Edge = namedtuple("Edge", "id inv src dst label")


def bfs(roots, step, reached=None):
    """Breadth-first search from ``roots``: each vertex reached, mapped to the
    ``via`` that first reached it (None for a root), in discovery order.
    ``step(v)`` yields ``(via, w)`` pairs in scan order.  A ``reached`` dict
    passed in is extended in place; only roots among its vertices are entered."""
    reached = {} if reached is None else reached
    queue = list(roots)
    for v in queue:
        reached.setdefault(v, None)
    for v in queue:
        for via, w in step(v):
            if w not in reached:
                reached[w] = via
                queue.append(w)
    return reached


class _Graph:
    """The involution graph that letter- and word-labeled graphs share.  Its
    one store is a record per edge, id -> (inv, src, dst, label), the partner
    ``inv`` an edge from dst back to src with the inverse label.  The public
    constructors turn the edge objects they are given into records and check
    them; ``_of`` is the one unchecked constructor, for the graphs the library
    builds from checked input.  No code writes to a graph, so the out-edge
    index and the edge-object views (for outside callers) built on first
    read never go stale.  Subclasses say what a label is and add shape rules."""

    __slots__ = ("vertices", "_records", "_edges", "_out")

    def __init__(self, vertices, edges):
        edges = edges.values() if isinstance(edges, dict) else edges
        self.vertices, self._edges, self._out = frozenset(vertices), None, None
        self._records = {e.id: e[1:] for e in edges}
        self._checked()

    @classmethod
    def _of(cls, vertices, records):
        """The unchecked graph that stores a tuple copy of the records
        (lists or tuples)."""
        g = cls.__new__(cls)
        g.vertices, g._edges, g._out = frozenset(vertices), None, None
        g._records = dict(zip(records, map(tuple, records.values())))
        return g

    def _checked(self):
        problems = self.validate()
        if problems:
            raise ValueError("invalid %s: %s" % (self._kind, "; ".join(problems)))
        return self

    def records(self):
        """The store: edge id -> (inv, src, dst, label).  Read only."""
        return self._records

    def out_index(self):
        """Vertex -> its out-edge ids in id order.  Read only."""
        if self._out is None:
            self._out = {v: [] for v in self.vertices}
            for x in sorted(self._records):
                self._out[self._records[x][1]].append(x)
        return self._out

    @property
    def edges(self):
        """Edge id -> edge object (``Edge``, ``MarkingEdge``)."""
        if self._edges is None:
            self._edges = {x: self._edge(x, *rec) for x, rec in self._records.items()}
        return self._edges

    def out_edges(self, v):
        """v's out-edge objects, in id order."""
        return [self.edges[x] for x in self.out_index()[v]]

    def validate(self):
        """All invariant violations as strings; shape rules once the edges hold."""
        return self._edge_problems() or self._shape_problems()

    def _edge_problems(self):
        problems, edge = [], self._records
        for x, (inv, src, dst, label) in edge.items():
            partner = edge.get(inv)
            if partner is None:
                problems.append("edge %d: involution partner %d missing" % (x, inv))
                continue
            if partner[0] != x:
                problems.append("edge %d: involution not symmetric" % x)
            if inv == x:
                problems.append("edge %d: involution has a fixed point" % x)
            if partner[3] != self._inverse(label):
                problems.append("edge %d: partner label is not the inverse" % x)
            if partner[1] != dst or partner[2] != src:
                problems.append("edge %d: partner does not reverse it" % x)
            if src not in self.vertices or dst not in self.vertices:
                problems.append("edge %d: endpoint not a vertex" % x)
            if not self._label_ok(label):
                problems.append("edge %d: bad label %r" % (x, label))
        return problems

    def degree(self, v):
        return len(self.out_index()[v])

    def topological_edges(self):
        """One id pair (e, e.inv) per topological edge, e the lower id."""
        return [(x, rec[0]) for x, rec in self._records.items() if x < rec[0]]

    def betti(self):
        """First Betti number (the graph is connected by invariant)."""
        return len(self._records) // 2 - len(self.vertices) + 1

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        key, show = self._label_key, self._show_label
        edges = [
            {"id": x, "inv": inv, "from": src, "to": dst, key: show(label)}
            for x, (inv, src, dst, label) in sorted(self._records.items())
        ]
        return {"vertices": sorted(self.vertices), "edges": edges}

    @classmethod
    def _read(cls, data, read_label):
        """The vertices and records of a ``to_json_dict`` document, labels read by
        ``read_label``; names and edge ids and ends are ints, no name or id twice,
        and labels are strings."""
        names = typed(data["vertices"], (list,), "vertices")
        vertices = distinct([typed(v, (int,), "vertex name") for v in names], "vertex name")
        items = typed(data["edges"], (list,), "edges")
        ends = [[typed(item[k], (int,), "edge " + k) for k in ("id", "inv", "from", "to")]
                for item in items]
        distinct([x for x, *_ in ends], "edge id")
        return vertices, {x: (*rest, read_label(typed(item[cls._label_key], (str,), "edge label")))
                          for (x, *rest), item in zip(ends, items)}


def _read_letter(text):
    label = parse_word(text, rank=None)
    if len(label) != 1:
        raise ValueError("edge label %r is not a single letter" % (text,))
    return label[0]


class AGraph(_Graph):
    """Letter-labeled graph, optionally based: ``rank`` is at least 1 and each
    label a letter within it; the graph is nonempty and connected, and the
    base, when given, is a vertex."""

    __slots__ = ("base", "rank", "_step")
    _kind, _label_key, _edge = "graph", "label", Edge
    _inverse = staticmethod(neg)
    _show_label = staticmethod(letter_str)

    def __init__(self, vertices, edges, base=None, rank=DEFAULT_RANK):
        self.base, self.rank = base, rank
        super().__init__(vertices, edges)

    @classmethod
    def _of(cls, vertices, records, base=None, rank=DEFAULT_RANK):
        g = super()._of(vertices, records)
        g.base, g.rank = base, rank
        return g

    def _label_ok(self, label):
        return 0 < abs(label) <= self.rank

    def _shape_problems(self):
        if self.rank < 1:
            return ["rank %r is below 1" % (self.rank,)]
        if not self.vertices:
            return ["graph has no vertices"]
        if self.base is not None and self.base not in self.vertices:
            return ["base %r is not a vertex" % (self.base,)]
        edge, out = self._records, self.out_index()
        reached = bfs([min(self.vertices)], lambda v: [(x, edge[x][2]) for x in out[v]])
        return [] if reached.keys() == self.vertices else ["graph is not connected"]

    def with_base(self, base):
        return AGraph._of(self.vertices, self.records(), base=base, rank=self.rank)

    def to_json_dict(self):
        data = super().to_json_dict()
        data["rank"] = self.rank
        if self.base is not None:
            data["base"] = self.base
        return data

    @classmethod
    def from_json_dict(cls, data):
        """The graph of a ``to_json_dict`` document, at the document's rank, else
        (older documents) the least that holds its letters."""
        vertices, records = cls._read(data, _read_letter)
        least = max([DEFAULT_RANK] + [abs(r[3]) for r in records.values()])
        rank = typed(data.get("rank", least), (int,), "rank")
        base = None if data.get("base") is None else typed(data["base"], (int,), "base")
        return cls._of(vertices, records, base=base, rank=rank)._checked()

    def to_dot(self, name="agraph"):
        lines = ["graph %s {" % name]
        for v in sorted(self.vertices):
            shape = ' [shape=doublecircle]' if v == self.base else ""
            lines.append("  %d%s;" % (v, shape))
        edge = self._records
        for x, inv in sorted(self.topological_edges()):
            _, src, dst, label = edge[x] if edge[x][3] > 0 else edge[inv]
            lines.append('  %d -- %d [label="%s"];' % (src, dst, letter_str(label)))
        lines.append("}")
        return "\n".join(lines)


def rose(rank=DEFAULT_RANK):
    """Wedge of ``rank`` loops at vertex 0, loop i labeled x_i."""
    _, records = _subdivide([(0, 0, (i,)) for i in range(1, rank + 1)], 1)
    return AGraph._of([0], records, base=0, rank=rank)


def is_rose(g):
    """Is g the rose of its rank?  A folded graph with one vertex and
    2·rank edges carries every letter once there, so it is."""
    return len(g.vertices) == 1 and len(g.records()) == 2 * g.rank and is_folded(g)


def core(g):
    """Iteratively strip degree-1 vertices; the base is never stripped.

    Raises ContractibleGraphError for an unbased graph whose core would be
    empty (a tree).
    """
    edge, out = g.records(), g.out_index()
    degree = {v: len(out[v]) for v in g.vertices}
    queue = [v for v in g.vertices if degree[v] <= 1 and v != g.base]
    gone = set(queue)
    for v in queue:
        # a stripped vertex has no loop, so its one live edge leads elsewhere
        for x in out[v]:
            dst = edge[x][2]
            if dst not in gone:
                degree[dst] -= 1
                if degree[dst] <= 1 and dst != g.base:
                    gone.add(dst)
                    queue.append(dst)
    if len(gone) == len(g.vertices):
        raise ContractibleGraphError("core of a contractible graph without base")
    kept = {x: rec for x, rec in edge.items() if rec[1] not in gone and rec[2] not in gone}
    return AGraph._of(g.vertices - gone, kept, base=g.base, rank=g.rank)


def is_folded(g):
    """No vertex has two distinct outgoing edges with the same label."""
    return _step_table(g) is not None


def _label_tree(edge, out, root):
    """The BFS from ``root`` over edge records, scanning out-edge ids by
    label, then id: ``(via, tree)``, via mapping each vertex to the id of the
    edge that reached it (None for the root) and tree those ids and their
    inverses.  Raises DomainError unless root is a vertex and the search
    spans the graph."""
    if root not in out:
        raise DomainError("root %r is not a vertex" % (root,))
    order = lambda x: (2 * abs(edge[x][3]) + (edge[x][3] < 0), x)  # letter_key, then id
    via = bfs([root], lambda v: [(x, edge[x][2]) for x in sorted(out[v], key=order)])
    if len(via) != len(out):
        raise DomainError("graph is not connected")
    return via, frozenset(i for x in via.values() if x is not None for i in (x, edge[x][0]))


def spanning_tree(g, root=None):
    """Deterministic BFS spanning tree, as a frozenset of edge ids.

    The set is closed under the involution.  Exploration is breadth-first
    from ``root`` (default: the base, else the smallest vertex), scanning
    each vertex's edges in (label order, edge id) order.
    """
    if root is None:
        root = g.base if g.base is not None else min(g.vertices)
    return _label_tree(g.records(), g.out_index(), root)[1]


def basis_from_tree(g, base):
    """Words read around the non-tree edges, one per topological edge.

    The tree is ``spanning_tree(g, base)``, built by the same search.  For
    each non-tree topological edge, take the orientation whose label has
    positive sign and read (tree path base -> origin) edge (tree path
    terminus -> base), each tree path read back along the search's parent
    edges.  For a core graph whose natural projection to the rose is a
    homotopy equivalence this is a free basis.  Raises DomainError when the
    Betti number differs from the graph's rank or base is not a vertex.
    """
    return _tree_basis(g.records(), g.out_index(), base, g.rank)


def _tree_basis(edge, out, base, rank):
    """``basis_from_tree`` on edge records; the live graph reads its bases so."""
    betti = len(edge) // 2 - len(out) + 1
    if betti != rank:
        raise DomainError("Betti number %d differs from rank %d" % (betti, rank))
    via, tree = _label_tree(edge, out, base)

    def word_to(v):
        letters = []
        while via[v] is not None:
            _, v, _, label = edge[via[v]]
            letters.append(label)
        return tuple(reversed(letters))

    words = []
    for x in sorted(x for x, rec in edge.items() if x < rec[0] and x not in tree):
        _, src, dst, label = edge[x]
        if label < 0:
            src, dst, label = dst, src, -label
        words.append(concat_all(word_to(src), (label,), invert(word_to(dst))))
    return words


# -- markings -------------------------------------------------------------


def _subdivide(chains, next_v):
    """Spell each ``(src, dst, word)`` chain one letter per edge pair, through
    new interior vertices numbered on from ``next_v``: the k-th letter in
    chain order is edge 2k, its inverse 2k + 1.  Returns ``(vertex count,
    records)``, the records id -> [inv, src, dst, label] in id order, as the
    lists that the fold engine folds in place."""
    edge = {}
    for src, dst, word in chains:
        stops = [src, *range(next_v, next_v + len(word) - 1), dst]
        next_v += len(word) - 1
        for a, b, letter in zip(stops, stops[1:], word):
            x = len(edge)
            edge[x], edge[x + 1] = [x + 1, a, b, letter], [x, b, a, -letter]
    return next_v, edge


MarkingEdge = namedtuple("MarkingEdge", "id inv src dst word")


class MarkingGraph(_Graph):
    """Graph with freely reduced nonempty words on edges and no vertices of
    degree less than 3."""

    __slots__ = ()
    _kind, _label_key, _edge = "marking graph", "word", MarkingEdge
    _inverse = staticmethod(invert)
    _show_label = staticmethod(word_str)

    def _label_ok(self, word):
        return bool(word) and is_reduced(word)

    def _shape_problems(self):
        return ["vertex %d has degree %d < 3" % (v, self.degree(v))
                for v in sorted(self.vertices) if self.degree(v) < 3]

    def expand(self):
        """Subdivide every edge word into single letters, giving an unchecked
        AGraph at the least rank that holds its letters."""
        vmap = {v: i for i, v in enumerate(sorted(self.vertices))}
        tops = [self._records[x][1:] for x, _ in sorted(self.topological_edges())]
        n, records = _subdivide([(vmap[a], vmap[b], word) for a, b, word in tops], len(vmap))
        least = max([DEFAULT_RANK] + [abs(rec[3]) for rec in records.values()])
        return AGraph._of(range(n), records, rank=least)

    @classmethod
    def from_json_dict(cls, data):
        return cls._of(*cls._read(data, lambda text: parse_word(text, rank=None)))._checked()


# -- labeled isomorphism --------------------------------------------------


def _vertex_signature(g, v):
    edge, ids = g.records(), g.out_index()[v]
    return (len(ids), tuple(sorted(letter_key(edge[x][3]) for x in ids)))


def _canonical_code(g, base):
    """Minimal BFS code over all label-respecting traversals from base.

    At each vertex the outgoing edges are scanned in label order; edges to
    already-numbered targets come first (by target number), then edges to
    new targets, whose visiting order is branched over when the label alone
    does not determine it.  Folded graphs never branch.  Pending branches
    wait on an explicit stack, so deep graphs need no deep recursion.
    """
    edge, out = g.records(), g.out_index()
    best = None
    stack = [(0, 0, {base: 0}, [base], [])]
    while stack:
        idx, li, num, order, acc = stack.pop()
        while idx < len(order):
            by_label = {}
            for x in out[order[idx]]:
                by_label.setdefault(edge[x][3], []).append(edge[x][2])
            labels = sorted(by_label, key=letter_key)
            for li in range(li, len(labels)):
                lk = letter_key(labels[li])
                targets = by_label[labels[li]]
                entries = sorted(lk + (num[t],) for t in targets if t in num)
                fresh = Counter(t for t in targets if t not in num)
                branches = list(permutations(sorted(fresh)))
                # every branch but the first continues later from a copy
                for perm in branches[1:]:
                    state = (dict(num), list(order), list(acc))
                    _number(perm, fresh, lk, entries, *state)
                    stack.append((idx, li + 1) + state)
                _number(branches[0], fresh, lk, entries, num, order, acc)
            idx, li = idx + 1, 0
        if best is None or tuple(acc) < best:
            best = tuple(acc)
    return (len(g.vertices), len(edge)) + (best,)


def _number(perm, fresh, lk, entries, num, order, acc):
    """Number one label's new targets in the order perm, append its entry."""
    ext = list(entries)
    for t in perm:
        num[t] = len(order)
        order.append(t)
        ext.extend([lk + (num[t],)] * fresh[t])
    acc.append(tuple(ext))


def canonical_code(g, base=None):
    """Isomorphism-invariant code of a graph (based when ``base`` given).

    Without a base the code is minimized over base candidates with minimal
    local signature, so it is invariant under relabeling of vertex and edge
    ids.
    """
    if base is not None:
        return _canonical_code(g, base)
    sig = min(_vertex_signature(g, v) for v in g.vertices)
    return min(
        _canonical_code(g, v)
        for v in sorted(g.vertices)
        if _vertex_signature(g, v) == sig
    )


def _step_table(g):
    """The letter -> {src: dst} table over g's rank, or None when g is not
    folded (two out-edges share a label at one vertex, so the table is
    short).  Built from the records once per graph and kept, None included."""
    if not hasattr(g, "_step"):
        step, edge = {x: {} for i in range(1, g.rank + 1) for x in (i, -i)}, g.records()
        for _, src, dst, label in edge.values():
            step[label][src] = dst
        g._step = step if sum(map(len, step.values())) == len(edge) else None
    return g._step


def _folded_isomorphic(g1, g2, step1, step2):
    """Walk g1 from its base and g2 from its base together, each through its
    step table.  Folded graphs admit at most one based labeled map, so each
    edge of g1 forces its image through g2's table; a missing label, a clash
    or two vertices sent to one refute it.  Equal counts and a connected g1
    make the map a bijection."""
    tables = [(ahead, step2.get(label, {})) for label, ahead in step1.items() if ahead]
    image = {g1.base: g2.base}
    hit = {g2.base}
    queue = [g1.base]
    for v in queue:
        w = image[v]
        for ahead, image_ahead in tables:
            d = ahead.get(v)
            if d is None:
                continue
            t, s = image_ahead.get(w), image.get(d)
            if s is None:
                if t is None or t in hit:
                    return False
                image[d] = t
                hit.add(t)
                queue.append(d)
            elif s != t:
                return False
    return True


def labeled_isomorphic(g1, g2):
    """Label- and base-preserving graph isomorphism.

    Graphs where exactly one side has a base are never isomorphic.  Storage
    orientation of edges is irrelevant since both orientations are encoded.
    Two based folded graphs are compared by one simultaneous walk, linear in
    their size; every other pair by canonical codes.
    """
    if (g1.base is None) != (g2.base is None):
        return False
    if len(g1.vertices) != len(g2.vertices) or len(g1.records()) != len(g2.records()):
        return False
    if g1.base is not None:
        step1, step2 = _step_table(g1), _step_table(g2)
        if step1 is not None and step2 is not None:
            return _folded_isomorphic(g1, g2, step1, step2)
    letters = lambda g: sorted(letter_key(rec[3]) for rec in g.records().values())
    same = letters(g1) == letters(g2)
    return same and canonical_code(g1, g1.base) == canonical_code(g2, g2.base)


def has_loop_labeled(g, v, letter):
    """Is there a loop edge at v labeled by the given letter (or its inverse)?"""
    edge = g.records()
    return any(edge[x][2] == v and abs(edge[x][3]) == abs(letter) for x in g.out_index()[v])
