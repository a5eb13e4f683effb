"""Tests for the finite-graph toolkit: distances, delta constants,
quasiconvexity, coning, and the thin-triangles checker."""

import inspect
import json
import random
from itertools import combinations

import numpy as np
import pytest

from freebases import hyperbolicity
from freebases.complexes import FBVertex, fb_adjacent, identity_basis, sample_fb_ball
from freebases.errors import DomainError
from freebases.hyperbolicity import (
    SLIM_BUDGET_BYTES,
    FiniteGraph,
    apsp,
    check_path_family,
    check_thin_triangles,
    complete_graph,
    condition2_value,
    cone_off,
    cycle_graph,
    delta_four_point,
    delta_slim,
    geodesic_family,
    grid_graph,
    hausdorff_distance,
    is_quasiconvex,
    median_map,
    path_graph,
    random_tree,
)
from freebases.words import parse_words

from oracles import (
    argmin_median_map,
    bfs_distance_matrix,
    brute_four_point_delta,
    brute_slim_delta,
    condition1_value,
    condition3_value,
    definition_fb_ball,
    ix_hausdorff_distance,
    per_pair_is_quasiconvex,
    per_tuple_check_thin_triangles,
)


def test_apsp_examples():
    p3 = path_graph(3)
    assert p3.distance(0, 2) == 2
    k4 = complete_graph(4)
    assert all(
        k4.distance(u, v) == 1 for u in range(4) for v in range(4) if u != v
    )
    assert cycle_graph(6).distance(0, 3) == 3


def test_disconnected_graphs_are_rejected():
    with pytest.raises(ValueError):
        FiniteGraph([0, 1, 2], [(0, 1)])


def test_graph_json_round_trip():
    g = grid_graph(2, 3)
    again = FiniteGraph.from_json_dict(g.to_json_dict())
    assert again.vertices == g.vertices
    assert again.edges == g.edges


def test_graph_rejects_loops_and_stray_edges():
    with pytest.raises(ValueError, match="loop edge at 0"):
        FiniteGraph([0, 1], [(0, 0), (0, 1)])
    with pytest.raises(ValueError, match="unknown endpoint"):
        FiniteGraph([0, 1], [(0, 2)])
    with pytest.raises(ValueError, match="no vertices"):
        FiniteGraph([], [])
    # edges that are not pairs, and names that cannot be put in order; the
    # first fault in input order is named
    for vertices, edges, message in (
            ([0, 1, 2], [(0,), (1, 2)], "edge [0] is not a pair of vertex names"),
            ([0, 1, 2], [(0, 1), (0, 1, 2)], "edge [0, 1, 2] is not a pair of vertex names"),
            ([0, 1, "a"], [(0, 1), (1, "a")], "vertex names 'a' and 1 cannot be put in order"),
            ([0, 1], [(0, "x")], "edge (0, 'x') has an unknown endpoint"),
            ([0, 1, 2], [(2, 5), (1, 1)], "edge (2, 5) has an unknown endpoint")):
        with pytest.raises(ValueError) as refused:
            FiniteGraph(vertices, edges)
        assert str(refused.value) == message


def _same_graph(g, h):
    parts = [(x.vertices, x.edges, x.vertex_list, x.vindex) for x in (g, h)]
    return parts[0] == parts[1] and np.array_equal(g.distance_matrix(), h.distance_matrix())


def test_unchecked_builders_give_the_graph_the_checked_constructor_gives():
    # sample_fb_ball and cone_off vouch for their edges and build through _of
    for rank in (2, 3, 4):
        for seed in range(4):
            g, _ = sample_fb_ball(FBVertex(identity_basis(rank)), range(seed, seed + 6), 4)
            assert len(g) > 1 and _same_graph(g, FiniteGraph(g.vertices, g.edges))
    rng = random.Random(31)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    for k in range(60):
        g = _random_graph(rng, families[k % len(families)])
        if k % 2:  # string names sort apart from their numbers: "v10" < "v2"
            g = FiniteGraph(["v%d" % v for v in g.vertices],
                            [("v%d" % u, "v%d" % v) for u, v in g.edges])
        subsets = [rng.sample(g.vertex_list, rng.randint(1, len(g)))
                   for _ in range(rng.randint(0, 3))]
        coned = cone_off(g, subsets)
        added = [pair for sub in subsets for pair in combinations(sub, 2)]
        assert _same_graph(coned, FiniteGraph(g.vertices, list(g.edges) + added))


def test_every_name_read_refuses_the_first_name_off_the_graph():
    g = path_graph(4)
    for subset in ([0, 9, 8], [0, "a", 9]):
        message = "^subset vertex %r not in graph$" % (subset[1],)
        with pytest.raises(ValueError, match=message):
            is_quasiconvex(g, subset, 1)
        with pytest.raises(ValueError, match=message):
            cone_off(g, [[0, 1], subset])
        with pytest.raises(ValueError, match=message.replace("subset", "path")):
            hausdorff_distance((0, 1), subset, g)


def test_four_point_zero_on_trees():
    for seed in range(8):
        t = random_tree(2 + seed * 4, seed)
        assert delta_four_point(t) == 0


def test_four_point_matches_brute_force():
    cases = [
        cycle_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        cycle_graph(12),
        grid_graph(2, 3),
        complete_graph(5),
        random_tree(9, 2),
    ]
    for g in cases:
        assert delta_four_point(g) == brute_four_point_delta(g)


def test_four_point_grows_with_the_cycle():
    assert delta_four_point(cycle_graph(12)) > delta_four_point(cycle_graph(4))


def test_four_point_is_a_float_zero_below_four_vertices():
    for g in (path_graph(1), path_graph(2), path_graph(3), complete_graph(3)):
        value = delta_four_point(g)
        assert isinstance(value, float) and value == 0.0


def _far_apart(g):
    x, y = hyperbolicity._far_apart_pairs(g)
    d = g.distance_matrix()
    assert (np.diff(d[x, y]) <= 0).all(), "pairs not by decreasing distance"
    vs = g.vertex_list
    return {(vs[i], vs[j]) for i, j in zip(x.tolist(), y.tolist())}


def test_far_apart_pairs_are_leaf_pairs_on_trees_and_antipodes_on_even_cycles():
    for seed in range(12):
        t = random_tree(2 + 3 * seed, seed)
        leaves = [v for v in t.vertex_list if len(t.neighbors(v)) == 1]
        assert _far_apart(t) == set(combinations(leaves, 2))
    for k in range(2, 12):
        assert _far_apart(cycle_graph(2 * k)) == {(i, i + k) for i in range(k)}


def _sizes_past_the_cross_check():
    """Sparse graphs of 10-60 vertices, cycles up to C_40, coned grids and
    FB balls at ranks 2-4, past the 14 vertices of the 320-graph check."""
    rng = random.Random(2015)
    for k in range(150):
        t = random_tree(rng.randint(30, 60) if k < 30 else rng.randint(10, 29),
                        rng.randrange(2**31))
        extra = [tuple(rng.sample(t.vertex_list, 2)) for _ in range(rng.randint(0, 12))]
        yield FiniteGraph(t.vertices, list(t.edges) + extra)
    for n in range(3, 41):
        yield cycle_graph(n)
    for _ in range(12):
        g = grid_graph(rng.randint(3, 7), rng.randint(3, 7))
        yield cone_off(g, [rng.sample(g.vertex_list, rng.randint(2, 8))
                           for _ in range(rng.randint(1, 3))])
    for rank, walks, moves in ((2, 20, 8), (2, 30, 6), (3, 12, 5), (3, 16, 6), (4, 10, 4),
                               (4, 14, 5)):
        center = FBVertex(tuple((i,) for i in range(1, rank + 1)))
        yield sample_fb_ball(center, [rng.randrange(10**6) for _ in range(walks)], moves)[0]


def test_four_point_and_apsp_agree_with_dense_oracles_past_small_sizes(monkeypatch):
    sizes, deltas = set(), set()
    for g in _sizes_past_the_cross_check():
        value = brute_four_point_delta(g)
        # tiny blocks split the pair scan, so that it stops mid-way, and
        # the neighbour rows of the far-apart test
        for block in (1 << 15, 1, 3, 50):
            monkeypatch.setattr(hyperbolicity, "_BLOCK", block)
            assert delta_four_point(g) == value
        assert np.array_equal(apsp(g), bfs_distance_matrix(g))
        sizes.add(len(g))
        deltas.add(value)
    assert max(sizes) > 50 and {0.0, 0.5, 1.0, 1.5, 10.0} <= deltas


def test_deltas_agree_with_oracles_across_block_boundaries(monkeypatch):
    # blocks of a few elements split the pair scan, the slim sweep's
    # sources and each level's gather into single groups
    rng = random.Random(1515)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    for k in range(60):
        monkeypatch.setattr(hyperbolicity, "_BLOCK", [1, 5, 40, 300][k % 4])
        g = _random_graph(rng, families[k % len(families)])
        assert delta_four_point(g) == brute_four_point_delta(g)
        assert delta_slim(g) == brute_slim_delta(g)


def test_slim_sweep_keeps_the_arcs_of_a_row_split_across_chunks(monkeypatch):
    # at _BLOCK = 1 a chunk is one arc, so a row with two arcs into it is
    # written by two chunks; keeping only the last chunk's arcs reads 1 and 2
    monkeypatch.setattr(hyperbolicity, "_BLOCK", 1)
    for g, value in ((cone_off(grid_graph(3, 3), [[0, 5]]), 2),
                     (cone_off(grid_graph(4, 4), [[0, 6]]), 3)):
        assert delta_slim(g) == brute_slim_delta(g) == value


def _arcs_into_rows(d):
    """into[p, u]: the arcs w -> u of the geodesic dag from p, the arcs the
    slim sweep reduces into row (p, u)."""
    return ((d[:, :, None] == d[:, None, :] + 1) & (d == 1)).sum(axis=2)


def test_slim_sweep_mixes_one_arc_and_wide_runs_in_a_piece(monkeypatch):
    # a run of one arc is read by take alone, a wider one through reduceat;
    # an even cycle's antipode has two arcs into it and every other vertex
    # one, and on the fan, the coned grids and the ball some level of one
    # source has rows of both kinds, which one piece holds once the chunk
    # spans the level.  The fan is three squares around vertex 6, each
    # sharing an edge with the next: its slim delta is 2, and the sweep
    # reads 1 if a row takes only its first arc
    fan = FiniteGraph(range(8), [(0, 1), (0, 2), (1, 5), (1, 6), (2, 6), (3, 5), (3, 6), (3, 7),
                                 (4, 6), (4, 7)])
    assert brute_slim_delta(fan) == 2
    center = FBVertex(((1,), (2,), (3,)))
    mixed = [fan, cone_off(grid_graph(3, 4), [[0, 7]]),
             cone_off(grid_graph(4, 4), [[1, 14], [3, 12]]),
             sample_fb_ball(center, range(2, 4), 10)[0]]
    for g in mixed:
        d = g.distance_matrix()
        into = _arcs_into_rows(d)
        assert any(into[p][d[p] == level].min() == 1 < into[p][d[p] == level].max()
                   for p in range(len(g)) for level in range(1, d[p].max() + 1))
    for block in (1, 5, 40, 300):
        monkeypatch.setattr(hyperbolicity, "_BLOCK", block)
        for g in [cycle_graph(8), cycle_graph(12), cycle_graph(14)] + mixed:
            assert delta_slim(g) == brute_slim_delta(g)


def test_deltas_on_a_ball_at_the_production_block(monkeypatch):
    # 243 vertices at one byte an entry: a slim sweep chunk is 546 arcs at
    # the default block (2^17 bytes of 243-byte rows), and every source's
    # widest level is wider, most of them four chunks or more, so levels
    # span many chunks; at 2^20 no level splits
    g, _ = sample_fb_ball(FBVertex(((1,), (2,), (3,))), range(64), 10)
    assert (len(g), len(g.edges)) == (243, 13069)
    chunk = hyperbolicity._BLOCK // (len(g) // 4)
    assert chunk == 546
    d = g.distance_matrix()
    into = _arcs_into_rows(d)
    widest = [np.bincount(d[p], weights=into[p]).max() for p in range(len(g))]
    assert min(widest) > chunk and np.median(widest) > 4 * chunk
    values = (delta_slim(g), delta_four_point(g))
    monkeypatch.setattr(hyperbolicity, "_BLOCK", 1 << 20)
    assert (delta_slim(g), delta_four_point(g)) == values == (2, 1.0)


def test_intervals_yield_each_pair_and_interval_vertex_once_in_order(monkeypatch):
    rng = random.Random(1618)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    for k in range(60):
        block = [1, 5, 40, 300][k % 4]
        monkeypatch.setattr(hyperbolicity, "_BLOCK", block)
        g = _random_graph(rng, families[k % len(families)])
        d, n = g.distance_matrix(), len(g)
        x, y = np.divmod(np.arange(n * n), n)
        width = rng.randint(1, n)
        blocks = list(hyperbolicity._intervals(d, x, y, width))
        assert all(len(v) <= max(1, block // width) for _, _, v in blocks)
        got = [e for b in blocks for e in zip(*(a.tolist() for a in b))]
        assert got == [(i, j, v) for i in range(n) for j in range(n) for v in range(n)
                       if d[i, v] + d[v, j] == d[i, j]]


def test_slim_zero_on_trees_and_paths():
    # one vertex has no pair to scan, two have one pair and its ends
    for n in (1, 2, 6):
        assert delta_slim(path_graph(n)) == 0
    for seed in range(6):
        assert delta_slim(random_tree(3 + seed * 5, seed)) == 0


def test_slim_on_cycles():
    assert delta_slim(cycle_graph(6)) == 1


def test_slim_matches_brute_force():
    cases = [
        cycle_graph(5),
        cycle_graph(6),
        cycle_graph(7),
        complete_graph(4),
        grid_graph(2, 3),
        grid_graph(3, 3),
        random_tree(8, 5),
    ]
    for g in cases:
        assert delta_slim(g) == brute_slim_delta(g)


def test_quasiconvex_subtree():
    t = random_tree(12, 1)
    assert is_quasiconvex(t, list(t.vertices), 0)


def test_quasiconvex_antipodes_in_c6():
    c6 = cycle_graph(6)
    assert not is_quasiconvex(c6, [0, 3], 0)
    assert is_quasiconvex(c6, [0, 3], 1)


def test_quasiconvex_monotone_in_c():
    g = grid_graph(3, 4)
    s = [0, 11]
    values = [is_quasiconvex(g, s, c) for c in range(5)]
    assert values == sorted(values)


def test_quasiconvex_rejects_empty_set():
    with pytest.raises(ValueError):
        is_quasiconvex(path_graph(3), [], 0)


def test_quasiconvex_rejects_a_vertex_off_the_graph():
    with pytest.raises(ValueError, match="subset vertex 7 not in graph"):
        is_quasiconvex(path_graph(4), [7], 1)


def test_quasiconvex_agrees_with_per_pair_oracle(monkeypatch):
    # blocks of a few elements split the interval masks between pairs and
    # each mask's entries between blocks
    rng = random.Random(1616)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    verdicts = set()
    for k in range(80):
        monkeypatch.setattr(hyperbolicity, "_BLOCK", [1, 5, 40, 300][k % 4])
        g = _random_graph(rng, families[k % len(families)])
        vs = g.vertex_list
        if k % 3 == 0:  # the ends of a longest geodesic
            d = g.distance_matrix()
            s = [vs[i] for i in np.unravel_index(d.argmax(), d.shape)]
        else:
            s = rng.sample(vs, rng.randint(1, len(vs) if k % 3 == 1 else min(2, len(vs))))
        if k % 5 == 0:
            s += rng.choices(s, k=2)  # repeated members
        for c in range(4):
            want = per_pair_is_quasiconvex(g, s, c)
            assert is_quasiconvex(g, s, c) == want, (g.to_json_dict(), s, c)
            verdicts.add((c, want))
    assert verdicts == {(c, v) for c in range(4) for v in (False, True)}


def test_cone_off_full_vertex_set():
    p5 = path_graph(5)
    coned = cone_off(p5, [list(p5.vertices)])
    d = coned.distance_matrix()
    assert int(d.max()) == 1


def test_cone_off_empty_list_is_identity():
    g = grid_graph(2, 2)
    assert cone_off(g, []).edges == g.edges


def test_cone_off_never_increases_distances():
    g = grid_graph(3, 3)
    coned = cone_off(g, [[0, 4, 8], [2, 4, 6]])
    d0 = g.distance_matrix()
    d1 = coned.distance_matrix()
    assert (d1 <= d0).all()


def test_cone_off_rows_and_columns_shrinks_delta():
    g = grid_graph(5, 5)
    rows = [[r * 5 + c for c in range(5)] for r in range(5)]
    cols = [[r * 5 + c for r in range(5)] for c in range(5)]
    coned = cone_off(g, rows + cols)
    assert delta_slim(coned) < delta_slim(g)


def test_cone_off_rejects_bad_subsets():
    g = path_graph(3)
    with pytest.raises(ValueError):
        cone_off(g, [[]])
    with pytest.raises(ValueError):
        cone_off(g, [[0, 9]])


def test_hausdorff_examples():
    c6 = cycle_graph(6)
    top = (0, 1, 2, 3)
    bottom = (0, 5, 4, 3)
    assert hausdorff_distance(top, top, c6) == 0
    assert hausdorff_distance(top, tuple(reversed(top)), c6) == 0
    assert hausdorff_distance(top, bottom, c6) == 1


def test_hausdorff_distance_agrees_with_ix_oracle(monkeypatch):
    rng = random.Random(2718)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    values = set()
    for k in range(120):
        monkeypatch.setattr(hyperbolicity, "_BLOCK", [1, 5, 40, 1 << 15][k % 4])
        g = _random_graph(rng, families[k % len(families)])
        fam = _detour_family(g, rng)
        p, q = (fam[tuple(rng.choices(g.vertex_list, k=2))] for _ in range(2))
        s = rng.randrange(len(p))
        p = p[s : rng.randint(s + 1, len(p))]
        want = ix_hausdorff_distance(p, q, g)
        assert hausdorff_distance(p, q, g) == want == hausdorff_distance(q, p, g)
        values.add(want)
    assert set(range(5)) <= values


def test_hausdorff_distance_refuses_an_empty_path():
    g = path_graph(4)
    for p, q, which in (((), (0, 1), "first"), ((2, 3), [], "second")):
        with pytest.raises(ValueError, match="the %s path is empty" % which):
            hausdorff_distance(p, q, g)
    fam = geodesic_family(g)
    assert condition2_value(g, fam, 0, 3, 2, 2, 0, 1) == 2
    with pytest.raises(ValueError, match=r"subsegment \[3, 2\] of the path for \(0, 3\) is empty"):
        condition2_value(g, fam, 0, 3, 3, 2, 0, 1)


def test_condition2_value_refuses_positions_off_the_path():
    """Positions -1 and 9 on the 4-vertex (0, 3) path are refused, not read
    from the end or clipped to it."""
    g = path_graph(4)
    fam = geodesic_family(g)
    assert condition2_value(g, fam, 0, 3, 0, 3, 0, 1) == 2
    assert condition2_value(g, fam, 0, 3, 3, 3, 0, 1) == 3
    for s, t, pos in ((-1, 2, -1), (0, 9, 9), (4, 4, 4), (-2, -1, -2), (0, -1, -1)):
        with pytest.raises(ValueError, match=r"position %d is off the path for \(0, 3\)" % pos):
            condition2_value(g, fam, 0, 3, s, t, 0, 1)


def test_geodesic_family_is_valid_and_geodesic():
    g = grid_graph(3, 3)
    fam = geodesic_family(g)
    check_path_family(g, fam)
    for (x, y), p in fam.items():
        assert len(p) - 1 == g.distance(x, y)


def test_check_path_family_messages():
    g = path_graph(3)
    fam = geodesic_family(g)
    incomplete = dict(fam)
    del incomplete[0, 2]
    with pytest.raises(ValueError, match="no entry"):
        check_path_family(g, incomplete)
    empty = dict(fam)
    empty[0, 2] = ()
    with pytest.raises(ValueError, match=r"path for \(0, 2\) is empty"):
        check_path_family(g, empty)
    wrong = dict(fam)
    wrong[0, 2] = (0, 1)
    with pytest.raises(ValueError, match="wrong endpoints"):
        check_path_family(g, wrong)
    jumping = dict(fam)
    jumping[0, 2] = (0, 2)
    with pytest.raises(ValueError, match="non-edge"):
        check_path_family(g, jumping)


def test_thin_check_refuses_a_family_with_a_non_edge_naming_its_first():
    # steps go either way along an edge; the first step off the edges is named
    g = path_graph(4)
    fam = geodesic_family(g)
    fam[0, 3] = (0, 1, 3, 2, 3)
    with pytest.raises(ValueError, match=r"path for \(0, 3\) uses a non-edge \(1, 3\)"):
        check_thin_triangles(g, fam, median_map(g), 1)
    fam[0, 3] = (0, 1, 2, 1, 2, 3)
    assert check_thin_triangles(g, fam, median_map(g), 1).b2_hausdorff == 0


def test_thin_check_defaults_sample_20000_draws_at_seed_0_past_a_million_tuples():
    defaults = inspect.signature(check_thin_triangles).parameters
    assert [defaults[k].default for k in ("tuple_threshold", "sample_size", "seed")] == [
        1_000_000, 20_000, 0]
    t = random_tree(100, 5)
    fam, phi = geodesic_family(t), median_map(t)
    report = check_thin_triangles(t, fam, phi, 2)
    assert (report.mode, report.tuples_checked, report.tuples_total) == (
        "sampled", 20_000, 47_984_674)
    assert report == check_thin_triangles(t, fam, phi, 2, 1_000_000, 20_000, 0)
    # a count equal to the threshold is still checked exhaustively
    g = grid_graph(3, 3)
    total = check_thin_triangles(g, geodesic_family(g), median_map(g), 1).tuples_total
    exact = check_thin_triangles(g, geodesic_family(g), median_map(g), 1, total, 1)
    assert (exact.mode, exact.tuples_checked) == ("exhaustive", total)


def test_median_map_is_cyclic_and_central():
    t = random_tree(10, 3)
    phi = median_map(t)
    fam = geodesic_family(t)
    vs = t.vertex_list
    for a in vs[:5]:
        for b in vs[:5]:
            for c in vs[:5]:
                m = phi(a, b, c)
                assert m == phi(b, c, a) == phi(c, a, b)
                assert m in fam[a, b] and m in fam[b, c] and m in fam[a, c]


def test_thin_triangles_on_a_tree():
    t = random_tree(12, 0)
    fam = geodesic_family(t)
    report = check_thin_triangles(t, fam, median_map(t), 2)
    assert report.b2_hausdorff == 0
    assert report.b2_center == 0
    assert report.b2_subsegment <= 4
    assert report.mode == "exhaustive"
    assert report.tuples_checked == report.tuples_total
    assert report.b2 == max(
        report.b2_hausdorff, report.b2_subsegment, report.b2_center
    )


def test_thin_triangles_single_vertex():
    g = FiniteGraph([0], [])
    fam = {(0, 0): (0,)}
    report = check_thin_triangles(g, fam, lambda a, b, c: 0, 1)
    assert (report.b2_hausdorff, report.b2_subsegment, report.b2_center) == (0, 0, 0)


def test_thin_triangles_witnesses_are_tight():
    t = random_tree(14, 7)
    fam = geodesic_family(t)
    phi = median_map(t)
    report = check_thin_triangles(t, fam, phi, 2)
    assert condition1_value(t, fam, *report.witness_hausdorff) == report.b2_hausdorff
    assert condition2_value(t, fam, *report.witness_subsegment) == report.b2_subsegment
    assert condition3_value(t, fam, phi, *report.witness_center) == report.b2_center


def test_thin_triangles_subsamples_large_inputs():
    g = grid_graph(3, 4)
    fam = geodesic_family(g)
    report = check_thin_triangles(
        g, fam, median_map(g), 1, tuple_threshold=1000, sample_size=500, seed=3
    )
    assert report.mode == "sampled"
    assert report.tuples_checked == 500
    assert report.tuples_total > 1000


def test_thin_triangles_rejects_asymmetric_phi():
    t = random_tree(6, 1)
    fam = geodesic_family(t)

    def lopsided(a, b, c):
        return a

    with pytest.raises(ValueError):
        check_thin_triangles(t, fam, lopsided, 1)


def test_center_map_reads_every_triple_before_checking_symmetry():
    t = random_tree(6, 1)
    fam = geodesic_family(t)
    median = median_map(t)
    table = {(a, b, c): median(a, b, c) for a in range(6) for b in range(6) for c in range(6)}
    # a fault off a least rotation is named at the least rotation, as the
    # per-tuple oracle names it
    asym = dict(table)
    asym[1, 0, 0] = next(v for v in range(6) if v != table[1, 0, 0])
    for check in (check_thin_triangles, per_tuple_check_thin_triangles):
        with pytest.raises(ValueError, match=r"symmetric on \(0, 0, 1\)"):
            check(t, fam, asym, 1)
    # with a second fault, a missing triple or a center off the graph is
    # reported first, wherever it lies in loop order
    missing = dict(asym)
    del missing[5, 5, 5]
    with pytest.raises(KeyError) as err:
        check_thin_triangles(t, fam, missing, 1)
    assert err.value.args == ((5, 5, 5),)
    outside = dict(asym)
    outside[5, 4, 5] = "outside"
    with pytest.raises(KeyError) as err:
        check_thin_triangles(t, fam, outside, 1)
    assert err.value.args == ("outside",)


def test_median_map_table_is_read_only_in_its_own_vertex_order():
    t = random_tree(7, 3)
    fam = geodesic_family(t)
    median = median_map(t)
    vs = t.vertex_list
    assert median.vertex_list == vs and median.table.shape == (7, 7, 7)
    assert all(vs[median.table[i, j, k]] == median(vs[i], vs[j], vs[k])
               for i in range(7) for j in range(7) for k in range(7))

    def calls(a, b, c):
        return median(a, b, c)

    assert check_thin_triangles(t, fam, median, 2) == check_thin_triangles(t, fam, calls, 2)
    # on vertices named otherwise the map is called per triple, as any map
    shifted = FiniteGraph([v + 10 for v in vs], [(u + 10, v + 10) for u, v in t.edges])
    moved = {(x + 10, y + 10): tuple(v + 10 for v in p) for (x, y), p in fam.items()}
    with pytest.raises(KeyError) as err:
        check_thin_triangles(shifted, moved, median, 2)
    assert err.value.args == (10,)


def test_condition2_uses_ordered_subsegments():
    t = path_graph(5)
    fam = geodesic_family(t)
    assert condition2_value(t, fam, 0, 4, 1, 3, 1, 3) == 0


def test_sample_fb_ball_empty_seed_list():
    center = FBVertex(parse_words("a,b,c"))
    g, labels = sample_fb_ball(center, [], 4)
    assert len(g) == 1
    assert labels[0]["basis"] == "a,b,c"
    assert labels[0]["sources"] == ["center"]


def test_sample_fb_ball_single_multiplication_gives_an_edge():
    center = FBVertex(parse_words("a,b,c"))
    sizes = set()
    for s in range(8):
        g, labels = sample_fb_ball(center, [s], 1)
        sizes.add(len(g))
        if len(g) == 2:
            assert len(g.edges) == 1
            assert any("center" in l["sources"] for l in labels)
    assert 2 in sizes


def test_sample_fb_ball_merges_equivalent_vertices():
    center = FBVertex(parse_words("a,b,c"))
    g, labels = sample_fb_ball(center, [0, 1, 2], 3)
    bases = [l["basis"] for l in labels]
    assert len(bases) == len(set(bases))
    assert len(g.edges) >= len(g) - 1


def test_sample_fb_ball_hands_over_canonical_edges():
    # the graph is built unchecked, so each edge must be a pair i < j of
    # vertices, each listed once
    for rank in (2, 3, 4):
        for seed in range(6):
            g, _ = sample_fb_ball(FBVertex(identity_basis(rank)), range(seed, seed + 8), 4)
            assert all(type(i) is int and 0 <= i < j < len(g) for i, j in g.edges)
            assert FiniteGraph(g.vertices, g.edges).edges == g.edges


def test_sample_fb_ball_agrees_with_scan_oracle():
    rng = random.Random(2024)
    for rank in (2, 3, 4, 5):
        for _ in range(12):
            center = FBVertex(tuple((i,) for i in range(1, rank + 1)))
            seeds = [rng.randrange(10**6) for _ in range(rng.randint(1, 6))]
            moves = rng.randint(1, 4)
            g, labels = sample_fb_ball(center, seeds, moves)
            g_ref, labels_ref, _ = definition_fb_ball(center, seeds, moves)
            assert (g.vertices, g.edges, labels) == (g_ref.vertices, g_ref.edges, labels_ref)

            reps = [FBVertex(parse_words(label["basis"], rank)) for label in labels]
            for i, j in combinations(range(len(reps)), 2):
                cert = fb_adjacent(reps[i], reps[j])
                if (i, j) in g.edges:
                    assert cert is not None and cert.holds_for(reps[i], reps[j])
                else:
                    assert cert is None


def test_delta_slim_refuses_arrays_over_budget():
    # one byte per entry caps any graph at 645 vertices, refused before apsp;
    # int16, for diameters past 127, caps paths at exactly 512 vertices
    assert 645**3 <= SLIM_BUDGET_BYTES < 646**3
    assert 2 * 512**3 == SLIM_BUDGET_BYTES
    with pytest.raises(DomainError, match="646 vertices needs a 269586136-byte array"):
        delta_slim(FiniteGraph._of(range(646), []))
    with pytest.raises(DomainError, match="513 vertices needs a 270011394-byte array"):
        delta_slim(path_graph(513))


def test_delta_slim_budget_admits_exactly_its_bytes(monkeypatch):
    # the n^3 array fills the budget to the byte: at int8 for 12 vertices
    # and for a path of diameter 127, at int16 for one of diameter 129; a
    # path of diameter 128 already needs int16
    monkeypatch.setattr(hyperbolicity, "SLIM_BUDGET_BYTES", 12**3)
    assert delta_slim(path_graph(12)) == 0
    with pytest.raises(DomainError, match="13 vertices needs a 2197-byte array"):
        delta_slim(path_graph(13))
    monkeypatch.setattr(hyperbolicity, "SLIM_BUDGET_BYTES", 128**3)
    assert delta_slim(path_graph(128)) == 0
    monkeypatch.setattr(hyperbolicity, "SLIM_BUDGET_BYTES", 2 * 129**3 - 1)
    with pytest.raises(DomainError, match="129 vertices needs a 4293378-byte array"):
        delta_slim(path_graph(129))
    monkeypatch.setattr(hyperbolicity, "SLIM_BUDGET_BYTES", 2 * 130**3)
    assert delta_slim(path_graph(130)) == 0
    with pytest.raises(DomainError, match="131 vertices needs a 4496182-byte array"):
        delta_slim(path_graph(131))


def test_slim_past_the_int8_range_on_paths_and_cycles():
    # diameters 199 and 150 take int16; C_4k has slim delta k
    assert delta_slim(path_graph(200)) == 0
    assert delta_slim(cycle_graph(300)) == 75


def test_slim_sweep_runs_from_the_first_vertex():
    # a 7-cycle and a 4-cycle sharing an edge: a point reaches defect 2
    # only on a side ending at vertex 0, the first source of the sweep
    edges = [(0, 1), (0, 2), (1, 8), (2, 3), (3, 4), (4, 5), (4, 7), (5, 6), (6, 7), (7, 8)]
    g = FiniteGraph(range(9), edges)
    assert delta_slim(g) == brute_slim_delta(g) == 2


def _random_graph(rng, family):
    """A connected graph on 1-14 vertices of the given family."""
    if family == "tree":
        return random_tree(rng.randint(1, 14), rng.randrange(2**31))
    if family == "cycle":
        return cycle_graph(rng.randint(3, 14))
    rows = rng.randint(1, 3)
    g = grid_graph(rows, rng.randint(1, 14 // rows))
    if family == "grid":
        return g
    if family == "coned grid":
        vs = g.vertex_list
        return cone_off(g, [rng.sample(vs, rng.randint(1, len(vs)))
                            for _ in range(rng.randint(1, 3))])
    t = random_tree(rng.randint(1, 14), rng.randrange(2**31))
    extra = [tuple(rng.sample(t.vertex_list, 2)) for _ in range(rng.randint(0, 4) * (len(t) > 1))]
    return FiniteGraph(t.vertices, list(t.edges) + extra)


def _detour_family(g, rng):
    """Edge paths that go through a random third vertex half the time, so
    paths are not geodesics and revisit vertices."""
    geo = geodesic_family(g)
    fam = {}
    for (x, y), p in geo.items():
        if rng.random() < 0.5:
            fam[x, y] = p
        else:
            z = rng.choice(g.vertex_list)
            fam[x, y] = geo[x, z] + geo[z, y][1:]
    return fam


def _thin_reports(g, fam, phi, b1, threshold, samples, seed):
    """Both checkers' JSON reports, or both errors."""
    out = []
    for check in (check_thin_triangles, per_tuple_check_thin_triangles):
        try:
            out.append(check(g, fam, phi, b1, threshold, samples, seed).to_json_dict())
        except (ValueError, KeyError) as exc:
            out.append((type(exc), exc.args))
    return out


def test_hyperbolicity_agrees_with_per_pair_oracles():
    rng = random.Random(31337)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    seen = set()
    for k in range(320):
        g = _random_graph(rng, families[k % len(families)])
        assert delta_four_point(g) == brute_four_point_delta(g)
        assert delta_slim(g) == brute_slim_delta(g)

        fam = geodesic_family(g) if k % 3 else _detour_family(g, rng)
        vs = g.vertex_list
        median = median_map(g)
        table = {(a, b, c): median(a, b, c) for a in vs for b in vs for c in vs}
        per_call = argmin_median_map(g)
        assert table == {triple: per_call(*triple) for triple in table}
        phi = table if k % 2 else lambda a, b, c: table[a, b, c]
        b1 = k % 4
        threshold = rng.choice([0, 300, 1500])
        samples = rng.choice([0, 1, 2, 57, 300])
        ours, ref = _thin_reports(g, fam, phi, b1, threshold, samples, k)
        assert json.dumps(ours) == json.dumps(ref)
        seen.add((ours["mode"], b1, samples if ours["mode"] == "sampled" else None))

        if k % 8 == 1 and len(vs) > 1:
            # a mapping that breaks symmetry, or misses a triple, or names a
            # center outside the graph, fails on the same triple either way
            broken = dict(table)
            triple = rng.choice(sorted(broken))
            kind = k // 8 % 3
            if kind == 0:
                broken[triple] = next(v for v in vs if v != broken[triple])
            elif kind == 1:
                del broken[triple]
            else:
                for rot in (triple, triple[1:] + triple[:1], triple[2:] + triple[:2]):
                    broken[rot] = "outside"
            ours, ref = _thin_reports(g, fam, broken, b1, threshold, samples, k)
            assert ours == ref and isinstance(ours, tuple), (ours, ref)
    modes = {mode for mode, _, _ in seen}
    assert modes == {"exhaustive", "sampled"}
    assert {b1 for mode, b1, _ in seen if mode == "exhaustive"} == {0, 1, 2, 3}
    assert {0, 1} <= {samples for mode, _, samples in seen if mode == "sampled"}


def test_thin_triangles_agree_with_oracle_across_block_boundaries(monkeypatch):
    # blocks of a few elements split the seg table's (path, start) pairs,
    # the tuples of one (x, y, s, t) and the sampled draws across chunks
    rng = random.Random(4711)
    families = ["tree", "cycle", "grid", "coned grid", "sparse"]
    modes = set()
    for k in range(40):
        monkeypatch.setattr(hyperbolicity, "_BLOCK", [1, 5, 40, 300][k % 4])
        g = _random_graph(rng, families[k % len(families)])
        fam = geodesic_family(g) if k % 3 else _detour_family(g, rng)
        threshold = rng.choice([0, 1500])
        samples = rng.choice([1, 57, 300])
        ours, ref = _thin_reports(g, fam, median_map(g), k % 4, threshold, samples, k)
        assert json.dumps(ours) == json.dumps(ref)
        modes.add(ours["mode"])
    assert modes == {"exhaustive", "sampled"}


def test_thin_triangles_refuse_negative_arguments():
    t = random_tree(5, 2)
    fam = geodesic_family(t)
    phi = median_map(t)
    for kwargs in ({"b1": -1}, {"b1": 1, "tuple_threshold": -1},
                   {"b1": 1, "sample_size": -3}):
        with pytest.raises(ValueError, match="nonnegative"):
            check_thin_triangles(t, fam, phi, **kwargs)


def test_subsegment_distance_reaches_interior_points():
    # leaves 0 and 2 of the tree hang off 1, and the stored (0, 2) path
    # makes an excursion to 4 on the way; with b1 = 0 the subsegment from 0
    # to the second visit of 1 is 2 away from the (0, 1) path only at its
    # interior point 4, and no tuple attains 2 otherwise
    g = FiniteGraph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)])
    fam = geodesic_family(g)
    fam[0, 2] = (0, 1, 3, 4, 3, 1, 2)
    report = check_thin_triangles(g, fam, median_map(g), 0)
    ref = per_tuple_check_thin_triangles(g, fam, median_map(g), 0)
    assert report.to_json_dict() == ref.to_json_dict()
    assert (report.b2_subsegment, report.witness_subsegment) == (2, (0, 2, 0, 5, 0, 1))
