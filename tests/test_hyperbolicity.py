"""Tests for the finite-graph toolkit: distances, delta constants,
quasiconvexity, coning, and the thin-triangles checker."""

import json
import random
from itertools import combinations

import pytest

from freebases import hyperbolicity
from freebases.complexes import FBVertex, fb_adjacent, folding_path_bases
from freebases.errors import DomainError
from freebases.folding import random_basis
from freebases.hyperbolicity import (
    SLIM_BUDGET_BYTES,
    FiniteGraph,
    apsp,
    check_path_family,
    check_thin_triangles,
    complete_graph,
    condition1_value,
    condition2_value,
    condition3_value,
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
    sample_fb_ball,
)
from freebases.words import parse_words

from oracles import (
    argmin_median_map,
    brute_four_point_delta,
    brute_slim_delta,
    coset_fb_equivalent,
    per_pair_delta_four_point,
    per_pair_delta_slim,
    per_tuple_check_thin_triangles,
    scan_sample_fb_ball,
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
    with pytest.raises(ValueError):
        FiniteGraph([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        FiniteGraph([0, 1], [(0, 2)])


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


def test_slim_zero_on_trees_and_paths():
    assert delta_slim(path_graph(6)) == 0
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
    wrong = dict(fam)
    wrong[0, 2] = (0, 1)
    with pytest.raises(ValueError, match="wrong endpoints"):
        check_path_family(g, wrong)
    jumping = dict(fam)
    jumping[0, 2] = (0, 2)
    with pytest.raises(ValueError, match="non-edge"):
        check_path_family(g, jumping)


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


def test_sample_fb_ball_agrees_with_scan_oracle():
    rng = random.Random(2024)
    for rank in (2, 3, 4, 5):
        for _ in range(12):
            center = FBVertex(tuple((i,) for i in range(1, rank + 1)))
            seeds = [rng.randrange(10**6) for _ in range(rng.randint(1, 6))]
            moves = rng.randint(1, 4)
            g, labels = sample_fb_ball(center, seeds, moves)
            g_ref, labels_ref = scan_sample_fb_ball(center, seeds, moves)
            assert (g.vertices, g.edges, labels) == (g_ref.vertices, g_ref.edges, labels_ref)

            sources = {"center": center}
            for s in seeds:
                walked = FBVertex(random_basis(s, moves, rank=rank, start=center.basis))
                sources["seed %d" % s] = walked
                for k, v in enumerate(folding_path_bases(walked)):
                    sources["seed %d / fold %d" % (s, k)] = v
            reps = [FBVertex(parse_words(label["basis"], rank)) for label in labels]
            for rep, label in zip(reps, labels):
                assert all(coset_fb_equivalent(sources[src], rep) for src in label["sources"])
            for i, j in combinations(range(len(reps)), 2):
                cert = fb_adjacent(reps[i], reps[j])
                if (i, j) in g.edges:
                    assert cert is not None and cert.holds_for(reps[i], reps[j])
                else:
                    assert cert is None


def test_delta_slim_refuses_arrays_over_budget():
    assert 4 * 406**3 <= SLIM_BUDGET_BYTES < 4 * 407**3
    with pytest.raises(DomainError, match="budget"):
        delta_slim(path_graph(407))


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
        assert delta_four_point(g) == per_pair_delta_four_point(g)
        assert delta_slim(g) == per_pair_delta_slim(g)

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
