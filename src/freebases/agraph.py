"""Finite graphs with oriented edges labeled by free-group letters.

An edge is an oriented object with an involution partner carrying the
inverse label, so each topological edge is stored twice.  Vertices are
integers; an optional base vertex marks graphs that present a subgroup.

A graph is *folded* when no vertex has two distinct outgoing edges with the
same label; folded graphs immerse into the rose.
"""

from itertools import permutations
from operator import itemgetter, neg
from typing import NamedTuple

from .errors import ContractibleGraphError, DomainError
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


class Edge(NamedTuple):
    id: int
    inv: int
    src: int
    dst: int
    label: int


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
    """Vertices, edges by id, and each vertex's outgoing edges in id order:
    the involution graph that letter- and word-labeled graphs share.  An edge
    is a record (id, inv, src, dst, label), its partner ``inv`` another edge
    from dst back to src with the inverse label.  Subclasses say what a label
    is and add shape rules.  All are checked at construction, unless the
    library built the graph from checked input (``check=False``).
    """

    __slots__ = ("vertices", "edges", "_out")

    def __init__(self, vertices, edges, check=True):
        self.vertices = frozenset(vertices)
        self.edges = dict(edges) if isinstance(edges, dict) else {e.id: e for e in edges}
        problems = check and self._edge_problems()  # first: out-edge lists need the ends
        if not problems:
            self._out = {v: [] for v in self.vertices}
            for e in sorted(self.edges.values(), key=itemgetter(0)):
                self._out[e.src].append(e)
            problems = check and self._shape_problems()
        if problems:
            raise ValueError("invalid %s: %s" % (self._kind, "; ".join(problems)))

    def validate(self):
        """All invariant violations as strings; shape rules once the edges hold."""
        return self._edge_problems() or self._shape_problems()

    def _edge_problems(self):
        problems = []
        for e in self.edges.values():
            partner = self.edges.get(e.inv)
            if partner is None:
                problems.append("edge %d: involution partner %d missing" % (e.id, e.inv))
                continue
            if partner.inv != e.id:
                problems.append("edge %d: involution not symmetric" % e.id)
            if e.inv == e.id:
                problems.append("edge %d: involution has a fixed point" % e.id)
            if partner[4] != self._inverse(e[4]):
                problems.append("edge %d: partner label is not the inverse" % e.id)
            if partner.src != e.dst or partner.dst != e.src:
                problems.append("edge %d: partner does not reverse it" % e.id)
            if e.src not in self.vertices or e.dst not in self.vertices:
                problems.append("edge %d: endpoint not a vertex" % e.id)
            if not self._label_ok(e[4]):
                problems.append("edge %d: bad label %r" % (e.id, e[4]))
        return problems

    def out_edges(self, v):
        return self._out[v]

    def degree(self, v):
        return len(self._out[v])

    def topological_edges(self):
        """One id pair (e, e.inv) per topological edge, e the lower id."""
        return [(e.id, e.inv) for e in self.edges.values() if e.id < e.inv]

    def betti(self):
        """First Betti number (the graph is connected by invariant)."""
        return len(self.edges) // 2 - len(self.vertices) + 1

    # -- serialization ----------------------------------------------------

    def to_json_dict(self):
        key, show = self._label_key, self._show_label
        edges = [
            {"id": e.id, "inv": e.inv, "from": e.src, "to": e.dst, key: show(e[4])}
            for e in sorted(self.edges.values(), key=itemgetter(0))
        ]
        return {"vertices": sorted(self.vertices), "edges": edges}

    @classmethod
    def _read_edges(cls, data, read_label):
        """The edges of a ``to_json_dict`` document, labels read by ``read_label``."""
        edges = {}
        for item in data["edges"]:
            if item["id"] in edges:
                raise ValueError("repeated edge id %r" % (item["id"],))
            label = read_label(item[cls._label_key])
            edges[item["id"]] = cls._edge(item["id"], item["inv"], item["from"], item["to"], label)
        return edges


def _read_letter(text):
    label = parse_word(text, rank=None)
    if len(label) != 1:
        raise ValueError("edge label %r is not a single letter" % (text,))
    return label[0]


class AGraph(_Graph):
    """Letter-labeled graph, optionally based: ``edges`` maps edge id ->
    Edge, each label a letter within ``rank``; the graph is nonempty and
    connected, and the base, when given, is a vertex."""

    __slots__ = ("base", "rank")
    _kind, _label_key, _edge = "graph", "label", Edge
    _inverse = staticmethod(neg)
    _show_label = staticmethod(letter_str)

    def __init__(self, vertices, edges, base=None, rank=DEFAULT_RANK, check=True):
        self.base = base
        self.rank = rank
        super().__init__(vertices, edges, check)

    def _label_ok(self, label):
        return 0 < abs(label) <= self.rank

    def _shape_problems(self):
        if not self.vertices:
            return ["graph has no vertices"]
        if self.base is not None and self.base not in self.vertices:
            return ["base %r is not a vertex" % (self.base,)]
        reached = bfs([min(self.vertices)], lambda v: [(e, e.dst) for e in self._out[v]])
        return [] if reached.keys() == self.vertices else ["graph is not connected"]

    def with_base(self, base):
        return AGraph(self.vertices, self.edges, base=base, rank=self.rank, check=False)

    def to_json_dict(self):
        data = super().to_json_dict()
        data["rank"] = self.rank
        if self.base is not None:
            data["base"] = self.base
        return data

    @classmethod
    def from_json_dict(cls, data, rank=None):
        """The graph of a ``to_json_dict`` document, at ``rank``, else the
        document's, else (older documents) the least that holds its letters."""
        edges = cls._read_edges(data, _read_letter)
        if rank is None:
            rank = data.get("rank", max([DEFAULT_RANK] + [abs(e.label) for e in edges.values()]))
        return cls(data["vertices"], edges, base=data.get("base"), rank=rank)

    def to_dot(self, name="agraph"):
        lines = ["graph %s {" % name]
        for v in sorted(self.vertices):
            shape = ' [shape=doublecircle]' if v == self.base else ""
            lines.append("  %d%s;" % (v, shape))
        for eid, _ in sorted(self.topological_edges()):
            e = self.edges[eid]
            rep = e if e.label > 0 else self.edges[e.inv]
            lines.append('  %d -- %d [label="%s"];' % (rep.src, rep.dst, letter_str(rep.label)))
        lines.append("}")
        return "\n".join(lines)


def rose(rank=DEFAULT_RANK):
    """Wedge of ``rank`` loops at vertex 0, loop i labeled x_i."""
    edges = {}
    for i in range(1, rank + 1):
        a, b = 2 * (i - 1), 2 * (i - 1) + 1
        edges[a] = Edge(a, b, 0, 0, i)
        edges[b] = Edge(b, a, 0, 0, -i)
    return AGraph([0], edges, base=0, rank=rank, check=False)


def is_rose(g):
    """Is g the rose of its rank?  A folded graph with one vertex and
    2·rank edges carries every letter once there, so it is."""
    return len(g.vertices) == 1 and len(g.edges) == 2 * g.rank and is_folded(g)


def core(g):
    """Iteratively strip degree-1 vertices; the base is never stripped.

    Raises ContractibleGraphError for an unbased graph whose core would be
    empty (a tree).
    """
    degree = {v: g.degree(v) for v in g.vertices}
    queue = [v for v in g.vertices if degree[v] <= 1 and v != g.base]
    gone = set(queue)
    for v in queue:
        # a stripped vertex has no loop, so its one live edge leads elsewhere
        for e in g.out_edges(v):
            if e.dst not in gone:
                degree[e.dst] -= 1
                if degree[e.dst] <= 1 and e.dst != g.base:
                    gone.add(e.dst)
                    queue.append(e.dst)
    if len(gone) == len(g.vertices):
        raise ContractibleGraphError("core of a contractible graph without base")
    edges = {e.id: e for e in g.edges.values() if e.src not in gone and e.dst not in gone}
    return AGraph(g.vertices - gone, edges, base=g.base, rank=g.rank, check=False)


def is_folded(g):
    """No vertex has two distinct outgoing edges with the same label."""
    return _step_table(g) is not None


def _records(g):
    """g's edges as records id -> (inv, src, dst, label), and its out-edge ids."""
    return ({e.id: e[1:] for e in g.edges.values()},
            {v: [e.id for e in es] for v, es in g._out.items()})


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
    return _label_tree(*_records(g), root)[1]


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
    return _tree_basis(*_records(g), base, g.rank)


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
    new interior vertices numbered on from ``next_v``; edge ids run from 0 in
    chain order.  Returns ``(vertex count, edges)``."""
    edges = {}
    for src, dst, word in chains:
        inner = range(next_v, next_v + len(word) - 1)
        next_v += len(inner)
        stops = [src, *inner, dst]
        for k, letter in enumerate(word):
            a = len(edges)
            edges[a] = Edge(a, a + 1, stops[k], stops[k + 1], letter)
            edges[a + 1] = Edge(a + 1, a, stops[k + 1], stops[k], -letter)
    return next_v, edges


class MarkingEdge(NamedTuple):
    id: int
    inv: int
    src: int
    dst: int
    word: tuple


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

    def expand(self, rank=None):
        """Subdivide every edge word into single letters, giving an AGraph;
        its letters are checked only against a ``rank`` given."""
        vmap = {v: i for i, v in enumerate(sorted(self.vertices))}
        tops = [self.edges[eid] for eid, _ in sorted(self.topological_edges())]
        n, edges = _subdivide([(vmap[e.src], vmap[e.dst], e.word) for e in tops], len(vmap))
        least = max([DEFAULT_RANK] + [abs(e.label) for e in edges.values()])
        given = rank is not None  # only a given rank can miss a letter
        return AGraph(range(n), edges, rank=rank if given else least, check=given)

    @classmethod
    def from_json_dict(cls, data, rank=None):
        edges = cls._read_edges(data, lambda text: parse_word(text, rank=rank))
        return cls(data["vertices"], edges)


# -- labeled isomorphism --------------------------------------------------


def _vertex_signature(g, v):
    return (g.degree(v), tuple(sorted(letter_key(e.label) for e in g.out_edges(v))))


def _canonical_code(g, base):
    """Minimal BFS code over all label-respecting traversals from base.

    At each vertex the outgoing edges are scanned in label order; edges to
    already-numbered targets come first (by target number), then edges to
    new targets, whose visiting order is branched over when the label alone
    does not determine it.  Folded graphs never branch.  Pending branches
    wait on an explicit stack, so deep graphs need no deep recursion.
    """
    best = None
    stack = [(0, 0, {base: 0}, [base], [])]
    while stack:
        idx, li, num, order, acc = stack.pop()
        while idx < len(order):
            by_label = {}
            for e in g.out_edges(order[idx]):
                by_label.setdefault(e.label, []).append(e)
            labels = sorted(by_label, key=letter_key)
            for li in range(li, len(labels)):
                lk = letter_key(labels[li])
                group = by_label[labels[li]]
                fixed = sorted(num[e.dst] for e in group if e.dst in num)
                entries = [lk + (n,) for n in fixed]
                fresh = {}
                for e in group:
                    if e.dst not in num:
                        fresh[e.dst] = fresh.get(e.dst, 0) + 1
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
    return (len(g.vertices), len(g.edges)) + (best,)


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
    """The label -> {src: dst} table, or None when g is not folded (two
    out-edges share a label at one vertex, so the table is short)."""
    step = {}
    for _, _, src, dst, label in g.edges.values():
        step.setdefault(label, {})[src] = dst
    return step if sum(map(len, step.values())) == len(g.edges) else None


def _folded_isomorphic(g1, g2, step2):
    """Walk g1 from its base and g2 from its base together.  Folded graphs
    admit at most one based labeled map, so each edge of g1 forces its image
    through g2's table; a missing label, a clash or two vertices sent to one
    refute it.  Equal counts and a connected g1 make the map a bijection."""
    image = {g1.base: g2.base}
    hit = {g2.base}
    queue = [g1.base]
    for v in queue:
        w = image[v]
        for e in g1.out_edges(v):
            try:
                t = step2[e.label][w]
            except KeyError:
                return False
            s = image.get(e.dst)
            if s is None:
                if t in hit:
                    return False
                image[e.dst] = t
                hit.add(t)
                queue.append(e.dst)
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
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return False
    if g1.base is not None:
        step2 = _step_table(g2)
        if step2 is not None and _step_table(g1) is not None:
            return _folded_isomorphic(g1, g2, step2)
    if sorted(map(lambda e: letter_key(e.label), g1.edges.values())) != sorted(
        map(lambda e: letter_key(e.label), g2.edges.values())
    ):
        return False
    if g1.base is not None:
        return _canonical_code(g1, g1.base) == _canonical_code(g2, g2.base)
    return canonical_code(g1) == canonical_code(g2)


def has_loop_labeled(g, v, letter):
    """Is there a loop edge at v labeled by the given letter (or its inverse)?"""
    return any(
        e.dst == v and (e.label == letter or e.label == -letter)
        for e in g.out_edges(v)
    )
