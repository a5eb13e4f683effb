"""Tests for labeled graphs: cores, natural edges, folding predicates,
spanning trees and basis extraction, smoothing, isomorphism.  Smoothing and
foldability are the fold engine's; these tests read them through ``smooth``
and ``FoldingPath.foldable`` beside the chain-walk oracles."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from freebases import agraph
from freebases.agraph import (
    AGraph,
    Edge,
    MarkingEdge,
    MarkingGraph,
    _canonical_code,
    basis_from_tree,
    canonical_code,
    core,
    has_loop_labeled,
    is_folded,
    is_rose,
    labeled_isomorphic,
    rose,
    spanning_tree,
)
from freebases.complexes import SplittingVertex, tau
from freebases.errors import ContractibleGraphError, DomainError, TrivialFactorError
from freebases.folding import (
    fold_completely,
    fold_to_rose,
    is_basis,
    random_basis,
    smooth,
    wedge_graph,
)
from freebases.words import invert, parse_words, reduce
from oracles import (
    check_spanning_tree,
    is_foldable,
    marking_isomorphic,
    natural_edges,
    natural_vertices,
    recursive_canonical_code,
)


def edge_pair(a, src, dst, label):
    return [Edge(a, a + 1, src, dst, label), Edge(a + 1, a, dst, src, -label)]


def records_of(edges):
    """The records id -> (inv, src, dst, label) of a list of edges."""
    return {e.id: e[1:] for e in edges}


def path_agraph(labels):
    """A based segment 0-1-2-... whose i-th edge is labeled labels[i]."""
    edges = []
    for k, l in enumerate(labels):
        edges.extend(edge_pair(2 * k, k, k + 1, l))
    return AGraph(range(len(labels) + 1), edges, base=0)


def test_rose_is_valid_and_folded():
    g = rose(3)
    assert g.validate() == []
    assert is_folded(g)
    assert is_foldable(g)
    assert fold_to_rose(parse_words("a,b,c")).foldable == [True]
    assert g.betti() == 3


def test_validate_names_the_bad_edge():
    edges = edge_pair(0, 0, 1, 1)
    edges[1] = Edge(1, 0, 1, 0, 1)  # partner label not inverted
    g = AGraph._of([0, 1], records_of(edges))
    problems = g.validate()
    assert any("edge" in p and "label" in p for p in problems)


def test_validate_rejects_disconnected():
    edges = edge_pair(0, 0, 0, 1) + edge_pair(2, 1, 1, 1)
    g = AGraph._of([0, 1], records_of(edges))
    assert "graph is not connected" in g.validate()


def test_core_fixes_rose():
    g = rose(3)
    assert labeled_isomorphic(core(g), g)


def test_core_strips_hanging_edge():
    g = rose(2)
    edges = dict(g.edges)
    for e in edge_pair(4, 0, 1, 1):
        edges[e.id] = e
    hung = AGraph([0, 1], edges, base=0, rank=2)
    assert labeled_isomorphic(core(hung), g)
    # a hair of several thousand vertices, stripped one vertex at a time
    n = 5000
    for k in range(n):
        for e in edge_pair(4 + 2 * k, k, k + 1, 1 + k % 2):
            edges[e.id] = e
    long_hair = AGraph(range(n + 1), edges, base=0, rank=2)
    assert labeled_isomorphic(core(long_hair), g)
    assert labeled_isomorphic(core(long_hair.with_base(n)), long_hair.with_base(n))


def test_core_keeps_a_cycle_that_carries_a_hair():
    # triangle 0-1-2 with a hair 1-3: stripping 3 leaves 1 of degree 2
    edges = (edge_pair(0, 0, 1, 1) + edge_pair(2, 1, 2, 2) + edge_pair(4, 2, 0, 3)
             + edge_pair(6, 1, 3, 1))
    g = core(AGraph(range(4), edges))
    assert g.vertices == {0, 1, 2}
    assert sorted(g.edges) == [0, 1, 2, 3, 4, 5]


def test_core_of_unbased_tree_errors():
    g = path_agraph([1, 2])
    unbased = AGraph(g.vertices, g.edges, base=None)
    with pytest.raises(ContractibleGraphError):
        core(unbased)


def test_core_keeps_base():
    g = path_agraph([1, 2])
    assert core(g).vertices == {0}


def test_json_round_trip_at_rank_thirty():
    g = wedge_graph(parse_words("ab,b,c"), 30)
    edges = dict(g.edges)
    for e in edge_pair(len(edges), 0, 0, 30) + edge_pair(len(edges) + 2, 0, 0, -27):
        edges[e.id] = e
    g = AGraph(g.vertices, edges, base=0, rank=30)
    data = json.loads(json.dumps(g.to_json_dict()))
    back = AGraph.from_json_dict(data)
    assert back.rank == data["rank"] == 30
    assert back.to_json_dict() == data
    assert back.edges == g.edges


def _json_copy(g):
    return type(g).from_json_dict(json.loads(json.dumps(g.to_json_dict())))


def test_json_keeps_the_rank():
    g = fold_to_rose(((1,), (2,)), 2).graphs[-1]
    back = _json_copy(g)
    assert back.rank == 2 and is_rose(back)
    # a document written without a rank gets the least that holds its letters
    data = g.to_json_dict()
    del data["rank"]
    assert AGraph.from_json_dict(data).rank == 3


def test_json_round_trip_on_folding_paths_and_their_markings():
    markings = Counter()
    for rank in range(2, 6):
        for s in range(40):
            for g in fold_to_rose(random_basis(1000 + s, 25, rank), rank).graphs:
                back = _json_copy(g)
                assert (back.vertices, back.edges, back.base, back.rank) == (
                    g.vertices, g.edges, g.base, g.rank)
                try:
                    m = smooth(g)
                except DomainError:  # a base left as a hair, say
                    continue
                assert not m.validate()  # smooth builds it unchecked
                back = _json_copy(m)
                assert (back.vertices, back.edges) == (m.vertices, m.edges)
                markings[rank] += 1
    assert markings[3] + markings[4] == 1691


# One defect per case, over a label x (inverse X) and a bad label y (inverse
# Y); both graph types must refuse it with the same problems.
DEFECTS = {
    "missing partner": ([0], [(0, 2, 0, 0, "x"), (1, 0, 0, 0, "X")],
                        ["edge 0: involution partner 2 missing",
                         "edge 1: involution not symmetric"]),
    "fixed point": ([0], [(0, 0, 0, 0, "x")],
                    ["edge 0: involution has a fixed point",
                     "edge 0: partner label is not the inverse"]),
    "non-reversing partner": ([0, 1], [(0, 1, 0, 1, "x"), (1, 0, 0, 1, "X")],
                              ["edge 0: partner does not reverse it",
                               "edge 1: partner does not reverse it"]),
    "non-inverse label": ([0], [(0, 1, 0, 0, "x"), (1, 0, 0, 0, "x")],
                          ["edge 0: partner label is not the inverse",
                           "edge 1: partner label is not the inverse"]),
    "unknown endpoint": ([0], [(0, 1, 5, 0, "x"), (1, 0, 0, 5, "X")],
                         ["edge 0: endpoint not a vertex", "edge 1: endpoint not a vertex"]),
    "bad label": ([0], [(0, 1, 0, 0, "y"), (1, 0, 0, 0, "Y")],
                  ["edge 0: bad label {y!r}", "edge 1: bad label {Y!r}"]),
}


@pytest.mark.parametrize("case", sorted(DEFECTS))
def test_both_graph_types_refuse_a_broken_involution_alike(case):
    vertices, records, problems = DEFECTS[case]
    for make, edge, x, y, inverse in [
        (lambda edges: AGraph(vertices, edges, rank=3), Edge, 1, 4, lambda l: -l),
        (lambda edges: MarkingGraph(vertices, edges), MarkingEdge, (1,), (1, -1), invert),
    ]:
        labels = {"x": x, "X": inverse(x), "y": y, "Y": inverse(y)}
        with pytest.raises(ValueError) as refused:
            make([edge(*r[:4], labels[r[4]]) for r in records])
        assert str(refused.value).split(": ", 1)[1] == "; ".join(problems).format(**labels)


def test_json_with_an_edge_off_the_vertices_is_refused():
    for g in (rose(2), smooth(rose(2))):
        data = g.to_json_dict()
        data["edges"][0]["from"] = data["edges"][1]["to"] = 5
        with pytest.raises(ValueError, match="edge 0: endpoint not a vertex"):
            type(g).from_json_dict(data)


def test_json_with_a_repeated_edge_id_is_refused():
    for g in (rose(2), smooth(rose(2))):
        data = g.to_json_dict()
        data["edges"].append(dict(data["edges"][0]))
        with pytest.raises(ValueError, match="repeated edge id 0"):
            type(g).from_json_dict(data)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(vertices=[0, 0]), "repeated vertex name 0"),
    (lambda d: d.update(vertices=[0.0]), "vertex name 0.0 is not an int"),
    (lambda d: d.update(vertices=[False]), "vertex name False is not an int"),
    (lambda d: d["edges"][0].update(id=0.0), "edge id 0.0 is not an int"),
    (lambda d: d["edges"][1].update(inv=True), "edge inv True is not an int"),
    (lambda d: d["edges"][0].update({"from": "0"}), "edge from '0' is not an int"),
    (lambda d: d["edges"][0].update(to=0.0), "edge to 0.0 is not an int"),
], ids=["repeated", "float-vertex", "false-vertex", "id", "inv", "from", "to"])
def test_json_names_and_ids_must_be_distinct_ints(edit, message):
    for g in (rose(2), smooth(rose(2))):
        data = g.to_json_dict()
        edit(data)
        with pytest.raises(ValueError) as refused:
            type(g).from_json_dict(data)
        assert str(refused.value) == message


def test_json_base_must_be_an_int():
    data = rose(2).to_json_dict()
    data["base"] = False
    with pytest.raises(ValueError, match="^base False is not an int$"):
        AGraph.from_json_dict(data)


@pytest.mark.parametrize("rank", [2.5, True, "2"])
def test_json_rank_must_be_an_int(rank):
    # at rank 2.5 the rose would hold every letter, yet not be the rose of its rank
    data = rose(2).to_json_dict()
    data["rank"] = rank
    with pytest.raises(ValueError) as refused:
        AGraph.from_json_dict(data)
    assert str(refused.value) == "rank %r is not an int" % (rank,)


@pytest.mark.parametrize("rank", [0, -3])
def test_a_rank_below_one_is_refused_by_the_constructor_and_the_json_reader(rank):
    # at rank 0 the one-vertex graph has no edges, as the rose of rank 0 would
    data = {"vertices": [0], "edges": [], "rank": rank, "base": 0}
    with pytest.raises(ValueError) as read:
        AGraph.from_json_dict(data)
    with pytest.raises(ValueError) as built:
        AGraph([0], [], base=0, rank=rank)
    assert str(read.value) == str(built.value) == "invalid graph: rank %d is below 1" % rank
    assert AGraph.from_json_dict(dict(data, rank=1)).rank == 1
    assert is_rose(AGraph.from_json_dict(rose(1).to_json_dict()))


def test_shape_rules_refuse_an_empty_graph_and_a_base_off_the_graph():
    with pytest.raises(ValueError) as refused:
        AGraph([], {})
    assert str(refused.value) == "invalid graph: graph has no vertices"
    with pytest.raises(ValueError) as refused:
        AGraph([0], {}, base=5)
    assert str(refused.value) == "invalid graph: base 5 is not a vertex"
    assert AGraph._of([0, 1], {}, base=1).validate() == ["graph is not connected"]


def test_library_functions_build_no_edge_objects():
    """The library reads a graph through its records and out-edge index
    alone: after each reading below, no graph involved has built its edge
    objects."""
    b = random_basis(7, 8)
    path = fold_to_rose(b)
    wedge, folded = path.graphs[0], path.graphs[-1]
    squared = (reduce(b[0] + b[0]),) + b[1:]
    unfolded, again = wedge_graph(squared), wedge_graph(squared)
    hung = path_agraph([1, 2, 1])  # from Edges, by the public constructor
    marking = smooth(wedge)
    with open(Path(__file__).parent / "data" / "marking.json") as fh:
        read = MarkingGraph.from_json_dict(json.load(fh))
    based = [wedge, folded, unfolded, again, hung, rose(3), core(hung), core(unfolded),
             marking.expand()]
    unbased = [g.with_base(None) for g in (wedge, unfolded, again)]
    graphs = based + unbased + [marking, read]
    for g in graphs:
        assert g.validate() == []
        v = min(g.vertices)
        assert g.degree(v) == len(g.out_index()[v])
        assert len(g.topological_edges()) == len(g.records()) // 2
        assert g.betti() >= 0 and g.to_json_dict()["vertices"] == sorted(g.vertices)
    for g in based + unbased:
        assert g.to_dot().startswith("graph")
        assert len(spanning_tree(g)) == 2 * (len(g.vertices) - 1)
        assert canonical_code(g) and not has_loop_labeled(g, min(g.vertices), 4)
    assert len(basis_from_tree(wedge, 0)) == len(basis_from_tree(folded, folded.base)) == 3
    assert has_loop_labeled(folded, folded.base, 1) and is_folded(folded) and not is_folded(again)
    assert labeled_isomorphic(folded, rose(3))  # the folded walk
    assert labeled_isomorphic(unfolded, again)  # canonical codes, based
    assert labeled_isomorphic(unbased[1], unbased[2])  # canonical codes, unbased
    assert tau(SplittingVertex(read, 4)).subset == {1}
    taus = 0
    for x, _ in marking.topological_edges():
        try:
            taus += bool(tau(SplittingVertex(marking, x)))
        except TrivialFactorError:
            pass
    assert taus
    assert all(g._edges is None for g in graphs)


def test_to_dot_draws_each_edge_once_along_its_positive_letter():
    # edge 0 spells A from 0 to 1, so its partner, a from 1 to 0, is drawn
    edges = edge_pair(0, 0, 1, -1) + edge_pair(2, 1, 1, 1) + edge_pair(4, 0, 0, 2)
    assert AGraph([0, 1], edges, base=0).to_dot("g").splitlines() == [
        "graph g {",
        "  0 [shape=doublecircle];",
        "  1;",
        '  1 -- 0 [label="a"];',
        '  1 -- 1 [label="a"];',
        '  0 -- 0 [label="b"];',
        "}",
    ]


def test_natural_vertices_of_rose():
    g = rose(3)
    m = smooth(g)
    assert m.vertices == {0}
    assert sorted(e.word for e in m.edges.values()) == [(-3,), (-2,), (-1,), (1,), (2,), (3,)]
    assert natural_vertices(g) == [0]
    chains = natural_edges(g)
    assert len(chains) == 3
    covered = {min(eid, g.edges[eid].inv) for chain in chains for eid in chain}
    assert len(covered) == 3


def test_subdivided_loop_interior_vertex_not_natural():
    g = wedge_graph(parse_words("ab,b,c"))
    assert smooth(g).vertices == {0}
    assert natural_vertices(g) == [0]


def test_circle_has_no_natural_vertex():
    edges = edge_pair(0, 0, 1, 1) + edge_pair(2, 1, 0, 1)
    circle = AGraph([0, 1], edges)
    with pytest.raises(DomainError, match="no natural vertex"):
        smooth(circle)
    with pytest.raises(DomainError, match="no natural vertex"):
        natural_edges(circle)


def test_is_folded_examples():
    assert is_folded(rose(3))
    assert not is_folded(wedge_graph(parse_words("ab,b,c")))
    loop = AGraph([0], edge_pair(0, 0, 0, 1))
    assert is_folded(loop)


def test_is_foldable_examples():
    assert fold_to_rose(parse_words("ab,b,c")).foldable[0]
    assert not fold_to_rose(parse_words("a,abA,acA")).foldable[0]
    assert is_foldable(wedge_graph(parse_words("ab,b,c")))
    assert not is_foldable(wedge_graph(parse_words("a,abA,acA")))


def test_spanning_tree_of_rose_is_empty():
    g = rose(3)
    t = spanning_tree(g)
    assert t == frozenset()
    assert check_spanning_tree(g, t) == []


def test_spanning_tree_covers_subdivided_wedge():
    g = wedge_graph(parse_words("ab,b,c"))
    t = spanning_tree(g)
    assert check_spanning_tree(g, t) == []
    assert len(t) == 2 * (len(g.vertices) - 1)


def test_spanning_tree_of_tree_graph_is_everything():
    g = path_agraph([1, 2, 1])
    assert spanning_tree(g) == frozenset(g.edges)


def test_basis_from_tree_on_rose():
    g = rose(3)
    assert basis_from_tree(g, 0) == [(1,), (2,), (3,)]


def test_basis_from_tree_refuses_a_base_off_the_graph():
    g = rose(3).with_base(None)
    for base in (None, 1, "0"):
        with pytest.raises(DomainError, match="not a vertex"):
            basis_from_tree(g, base)
    with pytest.raises(DomainError, match="not a vertex"):
        spanning_tree(g, 1)


def test_basis_extraction_survives_subdivision():
    g = wedge_graph(parse_words("ab,b,c"))
    sub = smooth(g).expand().with_base(0)
    w1 = basis_from_tree(g, g.base)
    w2 = basis_from_tree(sub, 0)
    assert sorted(w1) == sorted(w2)


def test_basis_from_tree_on_two_vertex_wedge():
    g = wedge_graph(parse_words("ab,b,c"))
    words = basis_from_tree(g, g.base)
    assert (3,) in words
    assert is_basis(words)


def test_smooth_rose():
    m = smooth(rose(3))
    labels = sorted(e.word for e in m.edges.values() if e.id < e.inv)
    assert labels == [(1,), (2,), (3,)]


def test_smooth_concatenates_chains():
    g = wedge_graph(parse_words("ab,b,c"))
    m = smooth(g)
    labels = sorted(e.word for e in m.edges.values() if e.id < e.inv)
    assert (1, 2) in labels


def test_smooth_circle_errors():
    edges = edge_pair(0, 0, 1, 1) + edge_pair(2, 1, 0, 1)
    with pytest.raises(DomainError):
        smooth(AGraph([0, 1], edges))


def test_smooth_expand_round_trip():
    for seed in range(6):
        b = random_basis(seed, 6)
        g = fold_to_rose(b).graphs[0]
        m = smooth(g)
        again = smooth(m.expand())
        assert marking_isomorphic(m, again)


def test_graphs_stored_as_records_read_as_their_edge_copies():
    """Graphs store flat records only, and build Edge objects and the
    out-edge index on first read.  Wedges, their folded graphs and the
    folding-path graphs at ranks 2-5, built from records, read exactly as
    the same graphs built from their Edges; so does a rebased copy."""
    rng = random.Random(24)
    graphs = []
    for rank in range(2, 6):
        for _ in range(5):
            b = random_basis(rng.randrange(10**6), 6, rank)
            wedge = wedge_graph((reduce(b[0] + b[0]),) + b[1:], rank)
            graphs += [wedge, fold_completely(wedge)[0], *fold_to_rose(b, rank).graphs]
    graphs += [rose(4), graphs[1].with_base(max(graphs[1].vertices))]
    for g in graphs:
        assert g._edges is None and g._out is None  # nothing built yet
        h = AGraph(g.vertices, g.edges, base=g.base, rank=g.rank)
        assert h._edges is None  # records built once, no edge objects kept
        assert g.records() == h.records() and g.edges == h.edges
        assert all(type(e) is Edge for e in g.edges.values())
        assert all(g.out_edges(v) == h.out_edges(v) for v in g.vertices)
        assert [e.id for e in g.out_edges(g.base)] == sorted(e.id for e in g.out_edges(g.base))
        assert g.to_json_dict() == h.to_json_dict() and g.to_dot() == h.to_dot()
        assert g.validate() == h.validate() == []
        assert spanning_tree(g) == spanning_tree(h)
        assert basis_from_tree(g, g.base) == basis_from_tree(h, h.base)
        assert core(g).to_json_dict() == core(h).to_json_dict()
        assert canonical_code(g, g.base) == canonical_code(h, h.base)
        assert labeled_isomorphic(g, h)
    assert len(graphs) > 120


def test_labeled_isomorphic_under_id_permutation():
    g = wedge_graph(parse_words("ab,b,c"))
    remap = {v: v + 10 for v in g.vertices}
    edges = {
        e.id: Edge(e.id, e.inv, remap[e.src], remap[e.dst], e.label)
        for e in g.edges.values()
    }
    h = AGraph(remap.values(), edges, base=remap[g.base])
    assert labeled_isomorphic(g, h)


def test_labeled_isomorphic_ignores_storage_orientation():
    g = rose(3)
    edges = dict(g.edges)
    edges[0] = Edge(0, 1, 0, 0, -1)
    edges[1] = Edge(1, 0, 0, 0, 1)
    flipped = AGraph([0], edges, base=0)
    assert labeled_isomorphic(g, flipped)


def test_labeled_isomorphic_distinguishes_ranks():
    assert not labeled_isomorphic(rose(3), rose(2))


def test_canonical_code_is_stable():
    g = wedge_graph(parse_words("ab,b,c"))
    assert canonical_code(g) == canonical_code(g)


def _relabelled(g, shift):
    """Copy of g with every vertex id and edge id moved and reversed."""
    top_v, top_e = max(g.vertices), max(g.edges)
    v = {x: shift + top_v - x for x in g.vertices}
    e = {x: shift + top_e - x for x in g.edges}
    edges = {
        e[x.id]: Edge(e[x.id], e[x.inv], v[x.src], v[x.dst], x.label)
        for x in g.edges.values()
    }
    return AGraph(v.values(), edges, base=v[g.base], rank=g.rank)


def test_labeled_isomorphic_on_deep_folded_graph():
    """A wedge of long words starting and ending with their own letter is
    folded; its traversal is far deeper than Python's recursion limit."""
    rng = random.Random(7)
    words = []
    for letter in (1, 2, 3):
        w = [letter]
        while len(w) < 349 or w[-1] == -letter:
            w.append(rng.choice([x for x in (1, -1, 2, -2, 3, -3) if x != -w[-1]]))
        words.append(tuple(w) + (letter,))
    g = wedge_graph(words)
    assert is_folded(g) and len(g.vertices) >= 1000
    assert labeled_isomorphic(g, _relabelled(g, 5))
    # the same letters with the middle of the last word reversed
    other = wedge_graph(words[:2] + [(3,) + words[2][-2:0:-1] + (3,)])
    assert len(other.vertices) == len(g.vertices)
    assert not labeled_isomorphic(g, other)


def _shuffled(g, rng):
    """Copy of g with its vertex ids and edge ids permuted at random."""
    vs, es = sorted(g.vertices), sorted(g.edges)
    v = dict(zip(vs, rng.sample(range(50, 50 + 2 * len(vs)), len(vs))))
    e = dict(zip(es, rng.sample(range(len(es)), len(es))))
    edges = {
        e[x.id]: Edge(e[x.id], e[x.inv], v[x.src], v[x.dst], x.label)
        for x in g.edges.values()
    }
    base = None if g.base is None else v[g.base]
    return AGraph(v.values(), edges, base=base, rank=g.rank)


def _one_label_changed(g, rng):
    """g with the letter of one topological edge replaced."""
    e = g.edges[rng.choice(sorted(g.edges))]
    letter = rng.choice([x for x in range(-g.rank, g.rank + 1) if x not in (0, e.label)])
    edges = dict(g.edges)
    edges[e.id] = e._replace(label=letter)
    edges[e.inv] = edges[e.inv]._replace(label=-letter)
    return AGraph(g.vertices, edges, base=g.base, rank=g.rank)


def test_labeled_isomorphic_agrees_with_canonical_codes(monkeypatch):
    """Based folded pairs take the simultaneous walk, every other pair the
    canonical codes; both answer as code equality does.  Subgroup graphs
    of seeded generators at ranks 2-4 meet a shuffled copy, the graph of a
    Nielsen-equivalent generating set, of the first word squared and a
    one-label change; unfolded wedges and unbased graphs take the codes."""
    rng = random.Random(20261020)
    pairs = []
    for rank in (2, 3, 4):
        for _ in range(12):
            gens = [
                reduce([rng.choice((1, -1)) * rng.randrange(1, rank + 1)
                        for _ in range(rng.randint(1, 12))])
                for _ in range(rng.randint(1, 4))
            ]
            gens = tuple(w for w in gens if w) or ((1,),)
            moved = gens[1:] + (invert(gens[0]),)
            if len(gens) > 1:
                moved = (reduce(moved[0] + moved[-1]),) + moved[1:]
            squared = (reduce(gens[0] + gens[0]),) + gens[1:]
            g = fold_completely(wedge_graph(gens, rank))[0]
            others = [fold_completely(wedge_graph(w, rank))[0] for w in (moved, squared)]
            folded = [_shuffled(g, rng), _one_label_changed(g, rng)] + others
            pairs += [(g, h, True) for h in folded]
            wedge = wedge_graph(gens + gens[:1], rank)
            pairs.append((wedge, _shuffled(wedge, rng), False))
            pairs.append((wedge, wedge_graph(squared + squared[:1], rank), False))
            pairs.append((wedge, wedge.with_base(max(wedge.vertices)), False))
            unbased = g.with_base(None)
            pairs.append((unbased, _shuffled(unbased, rng), False))
            pairs.append((unbased, others[0].with_base(None), False))
            pairs.append((unbased, g, False))
    # the a-cycle of length 2 walks onto the a-loop two-to-one, and a-loops
    # at both ends of a b-edge clash with that cycle plus a b-edge; counts
    # (and, for the second pair, letters) agree
    a_cycle = edge_pair(0, 0, 1, 1) + edge_pair(2, 1, 0, 1)
    a_loop_b_edge = edge_pair(0, 0, 0, 1) + edge_pair(2, 0, 1, 2)
    pairs.append((AGraph([0, 1], a_cycle, base=0), AGraph([0, 1], a_loop_b_edge, base=0), True))
    pairs.append((AGraph([0, 1], a_loop_b_edge + edge_pair(4, 1, 1, 1), base=0),
                  AGraph([0, 1], a_cycle + edge_pair(4, 0, 1, 2), base=0), True))
    # a b-edge into an a-cycle of length 2 walks onto a b-edge into an
    # a-loop, two-to-one away from the base, though every edge has an image
    b_into_a_cycle = edge_pair(0, 0, 1, 2) + edge_pair(2, 1, 2, 1) + edge_pair(4, 2, 1, 1)
    b_into_a_loop = edge_pair(0, 0, 1, 2) + edge_pair(2, 1, 1, 1) + edge_pair(4, 0, 2, 3)
    pairs.append((AGraph([0, 1, 2], b_into_a_cycle, base=0),
                  AGraph([0, 1, 2], b_into_a_loop, base=0), True))

    def code_equal(g1, g2):
        if (g1.base is None) != (g2.base is None):
            return False
        if g1.base is None:
            return canonical_code(g1) == canonical_code(g2)
        return _canonical_code(g1, g1.base) == _canonical_code(g2, g2.base)

    expected = [code_equal(g1, g2) for g1, g2, _ in pairs]
    coded = []
    real = agraph._canonical_code
    monkeypatch.setattr(agraph, "_canonical_code", lambda g, base: coded.append(g) or real(g, base))
    seen = Counter()
    for (g1, g2, walk), answer in zip(pairs, expected):
        del coded[:]
        assert labeled_isomorphic(g1, g2) == answer, (g1.to_json_dict(), g2.to_json_dict())
        assert labeled_isomorphic(g2, g1) == answer
        if walk and is_folded(g1) and is_folded(g2):
            assert not coded
        elif answer:
            assert coded
        seen[walk, is_folded(g1) and is_folded(g2), answer] += 1
    cases = [(walk, walk, answer) for walk in (True, False) for answer in (True, False)]
    assert all(seen[case] >= 5 for case in cases), seen


def test_canonical_code_matches_recursive_oracle():
    """Same code as the recursive traversal, on folded graphs and on
    unfolded wedges and fold paths, where label ties make it branch."""
    for seed in range(10):
        for g in fold_to_rose(random_basis(seed, 5)).graphs:
            h = _relabelled(g, 3)
            code = _canonical_code(g, g.base)
            assert code == recursive_canonical_code(g, g.base)
            assert code == _canonical_code(h, h.base)
    g = wedge_graph(parse_words("ab,ab,ab"))
    assert _canonical_code(g, g.base) == recursive_canonical_code(g, g.base)


def test_has_loop_labeled():
    g = rose(3)
    assert has_loop_labeled(g, 0, 1)
    assert has_loop_labeled(g, 0, -2)
    sub = wedge_graph(parse_words("ab,b,c"))
    assert not has_loop_labeled(sub, 0, 1)


def test_core_idempotent_on_folded_graphs():
    for seed in range(8):
        b = random_basis(seed, 6)
        g = fold_to_rose(b).graphs[-1]
        c1 = core(g)
        assert labeled_isomorphic(core(c1), c1)
        assert c1.betti() == g.betti()


def test_natural_edges_partition_random_graphs():
    """The oracle's chains cover each topological edge once, and smooth
    spells the same chains in the same order, so its words use every edge
    of the graph once."""
    for seed in range(8):
        b = random_basis(seed, 8)
        for g in fold_to_rose(b).graphs:
            chains = natural_edges(g)
            tops = [min(eid, g.edges[eid].inv) for chain in chains for eid in chain]
            assert sorted(set(tops)) == sorted(
                eid for eid, _ in g.topological_edges()
            )
            assert len(tops) == len(set(tops))
            m = smooth(g)
            words = [m.edges[2 * k].word for k in range(len(m.edges) // 2)]
            assert words == [tuple(g.edges[eid].label for eid in c) for c in chains]
            assert sum(map(len, words)) == len(g.edges) // 2
