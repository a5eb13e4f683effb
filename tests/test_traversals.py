"""The searches that run on agraph.bfs against definitions (reachability,
spanning trees, BFS distances, least geodesics and the free-bases ball),
the one-search basis reader and tau against the two-search and queue
versions they replaced, and the rose test against labeled isomorphism with
the rose."""

import random
from collections import Counter

import numpy as np
import pytest

from freebases import complexes
from freebases.agraph import (
    AGraph,
    MarkingEdge,
    MarkingGraph,
    basis_from_tree,
    bfs,
    is_folded,
    is_rose,
    labeled_isomorphic,
    rose,
    spanning_tree,
)
from freebases.complexes import FBVertex, SplittingVertex, identity_basis, sample_fb_ball, tau
from freebases.errors import DomainError
from freebases.folding import fold_to_rose, random_basis, smooth, wedge_graph
from freebases.hyperbolicity import (
    FiniteGraph,
    apsp,
    cone_off,
    cycle_graph,
    geodesic_family,
    grid_graph,
    random_tree,
)
from freebases.words import invert, reduce

import oracles
from oracles import (
    bfs_distance_matrix,
    check_spanning_tree,
    least_geodesic_family,
    queue_tau,
    reaches_all,
    two_search_basis_from_tree,
)
from test_folding import _grown_basis


def _outcome(fn, *args):
    """("ok", value) or ("error", type, message), with dicts as item lists so
    that their order counts."""
    try:
        value = fn(*args)
    except (DomainError, ValueError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return ("ok", list(value.items()) if isinstance(value, dict) else value)


def _word_tuples(rng, rank):
    """A basis, its squared-first-word variant and a random word tuple."""
    b = random_basis(rng.randrange(2**31), rng.randint(3, 10), rank)
    words = tuple(
        reduce([rng.choice((1, -1)) * rng.randrange(1, rank + 1)
                for _ in range(rng.randint(1, 7))])
        for _ in range(rank)
    )
    out = [b, (reduce(b[0] + b[0]),) + b[1:]]
    return out + [words] if all(words) else out


def _path_graphs(seed, ranks, count):
    """Every graph on the folding paths of seeded word tuples."""
    rng = random.Random(seed)
    for rank in ranks:
        for _ in range(count):
            for b in _word_tuples(rng, rank):
                yield from fold_to_rose(b, rank).graphs


def _disjoint_union(g, h):
    """g beside a relabelled copy of h, unchecked (it is not connected)."""
    dv = max(g.vertices) + 1
    de = max(g.records()) + 1
    records = dict(g.records())
    for x, (inv, src, dst, label) in h.records().items():
        records[x + de] = (inv + de, src + dv, dst + dv, label)
    vertices = set(g.vertices) | {v + dv for v in h.vertices}
    return AGraph._of(vertices, records, base=g.base, rank=max(g.rank, h.rank))


def _reaches_all(g, tree=None):
    """Do g's edges, or those in ``tree``, connect its vertices?"""
    return reaches_all(g.vertices, lambda v: [e.dst for e in g.out_edges(v)
                                              if tree is None or e.id in tree])


def _finite_graphs(rng, count):
    """Connected graphs of several families, 1-30 vertices."""
    for k in range(count):
        family = k % 5
        if family == 0:
            yield random_tree(rng.randint(1, 30), rng.randrange(2**31))
        elif family == 1:
            yield cycle_graph(rng.randint(3, 30))
        elif family == 2:
            yield grid_graph(rng.randint(1, 5), rng.randint(1, 6))
        elif family == 3:
            g = grid_graph(rng.randint(1, 5), rng.randint(1, 6))
            vs = g.vertex_list
            yield cone_off(g, [rng.sample(vs, rng.randint(1, len(vs))) for _ in range(2)])
        else:
            t = random_tree(rng.randint(2, 30), rng.randrange(2**31))
            extra = [tuple(rng.sample(t.vertex_list, 2)) for _ in range(rng.randint(0, 6))]
            yield FiniteGraph(t.vertices, list(t.edges) + extra)


def test_bfs_reports_first_discoverers_in_discovery_order():
    adj = {0: [1, 2], 1: [3], 2: [3, 0], 3: [], 4: [0]}
    via = bfs([0], lambda v: [((v, w), w) for w in adj[v]])
    assert list(via.items()) == [(0, None), (1, (0, 1)), (2, (0, 2)), (3, (1, 3))]
    # a passed dict is extended in place; only its roots are entered again
    reached = {0: None, 1: "x", 3: "y"}
    out = bfs([1, 4], lambda v: [((v, w), w) for w in adj[v]], reached)
    assert out is reached
    assert list(reached.items()) == [(0, None), (1, "x"), (3, "y"), (4, None)]


def test_traversals_agree_with_hand_rolled_oracles():
    graphs = list(_path_graphs(20261018, range(2, 6), 8))
    assert len(graphs) > 300
    for k, g in enumerate(graphs):
        assert _reaches_all(g) and "graph is not connected" not in g.validate()
        assert spanning_tree(g) == spanning_tree(g, g.base)
        for root in (g.base, max(g.vertices)):
            tree = spanning_tree(g, root)
            assert check_spanning_tree(g, tree) == [] and _reaches_all(g, tree)
        assert _outcome(spanning_tree, g, -1) == ("error", "DomainError", "root -1 is not a vertex")
        split = _disjoint_union(g, graphs[k - 1])
        assert not _reaches_all(split)
        assert "graph is not connected" in split.validate()
        assert _outcome(spanning_tree, split) == ("error", "DomainError", "graph is not connected")

    rng = random.Random(11)
    for g in _finite_graphs(rng, 120):
        assert reaches_all(g.vertices, g.neighbors)
        ours = apsp(g)
        assert ours.dtype == np.int32 and np.array_equal(ours, bfs_distance_matrix(g))
        assert list(geodesic_family(g).items()) == list(least_geodesic_family(g).items())
        edges = [e for e in g.edges if rng.random() < 0.8]
        unchecked = FiniteGraph(g.vertices, edges, check=False)
        connected = reaches_all(g.vertices, unchecked.neighbors)
        assert _outcome(apsp, unchecked)[0] == ("ok" if connected else "error")
        if connected:
            assert np.array_equal(apsp(unchecked), bfs_distance_matrix(unchecked))
            FiniteGraph(g.vertices, edges)
        else:
            with pytest.raises(ValueError, match="not connected"):
                FiniteGraph(g.vertices, edges)


def test_basis_from_tree_agrees_with_two_search_oracle():
    """One search reads the same words as a spanning-tree search followed
    by a tree-words search, on every graph of the path corpus (unfolded
    intermediate graphs and graphs whose Betti number dropped included)
    and of a 3000-letter path."""
    long_path = fold_to_rose(_grown_basis(random.Random(2), 3, 3000), 3).graphs
    assert len(long_path[0].edges) > 6000 and len(long_path) > 50
    outcomes = Counter()
    for g in [*_path_graphs(20261018, range(2, 6), 8), *long_path]:
        ours = _outcome(basis_from_tree, g, g.base)
        assert ours == _outcome(two_search_basis_from_tree, g, g.base)
        outcomes[ours[0], is_folded(g)] += 1
    assert min(outcomes[k] for k in [("ok", False), ("ok", True), ("error", False)]) > 0, outcomes


def _loops(ends, words):
    """Marking graph with one edge per (src, dst) in ends, spelling words."""
    edges = {}
    for k, ((u, v), w) in enumerate(zip(ends, words)):
        edges[2 * k] = MarkingEdge(2 * k, 2 * k + 1, u, v, w)
        edges[2 * k + 1] = MarkingEdge(2 * k + 1, 2 * k, v, u, invert(w))
    return MarkingGraph(sorted({x for end in ends for x in end}), edges)


def test_tau_agrees_with_queue_oracle():
    rng = random.Random(5)
    markings = [
        _loops([(0, 0), (1, 1), (0, 1)], [(1,), (2,), (1,)]),  # a barbell
        _loops([(0, 0), (0, 0), (1, 1), (1, 1)], [(1,), (2,), (1,), (2,)]),  # two roses
    ]
    for rank in (3, 4):
        for _ in range(10):
            b = random_basis(rng.randrange(2**31), rng.randint(3, 9), rank)
            markings += [smooth(g) for g in fold_to_rose(b, rank).graphs]
    kinds = Counter()
    for m in markings:
        for eid in sorted(m.edges):
            s = SplittingVertex(m, eid)
            ours = _outcome(tau, s)
            assert ours == _outcome(queue_tau, s), (m.to_json_dict(), eid)
            kinds[ours[0] if ours[0] == "ok" else ours[1]] += 1
    assert kinds["ok"] > 500 and kinds["DomainError"] == 8, kinds


def test_sample_fb_ball_agrees_with_holder_oracle(monkeypatch):
    """Folding chains join every walk to the center, so real balls have one
    component; balls without the chains have several."""
    components = {}
    for chains in (True, False):
        if not chains:
            for module in (complexes, oracles):
                monkeypatch.setattr(module, "folding_path_bases", lambda v: [])
        for rank in range(2, 6):
            center = FBVertex(identity_basis(rank))
            for k in range(6):
                seeds = [1000 * rank + 8 * k + i for i in range(2 + k)]
                moves = 1 + k % 3
                g, labels = sample_fb_ball(center, seeds, moves)
                g_ref, labels_ref, comps = oracles.definition_fb_ball(center, seeds, moves)
                assert (g.vertices, g.edges, labels) == (g_ref.vertices, g_ref.edges, labels_ref)
                components.setdefault(chains, []).append(comps)
    assert max(components[True]) == 1
    assert max(components[False]) > 1, components


def test_is_rose_is_isomorphism_with_the_rose():
    seen = set()
    for g in _path_graphs(7, range(2, 6), 10):
        assert g.base is not None
        answer = is_rose(g)
        assert answer == labeled_isomorphic(g, rose(g.rank))
        seen.add(answer)
    assert seen == {True, False}
    assert is_rose(rose(4))
    # one vertex and 2·rank edges, but two loops read a
    assert not is_rose(wedge_graph(((1,), (1,)), 2))
