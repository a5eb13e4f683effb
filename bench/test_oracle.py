"""Hand-worked cases for the benchmark's own checking code and generators.

Run with ``python3 -m pytest bench/test_oracle.py`` from the repository root.
None of this imports freebases.
"""

import itertools
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle as o  # noqa: E402
from inputs import cone, cycle, grid, nielsen_basis, prufer_tree, wedge_class  # noqa: E402

A, B, C = 1, 2, 3
a, b, c = -1, -2, -3  # inverses, as in the library's "aA" text form


def test_free_reduction():
    assert o.reduce((A, B, b, a, C)) == (C,)
    assert o.reduce((A, a, B, b)) == ()
    assert o.inverse((A, B, c)) == (C, b, a)
    assert o.conjugate((A,), (B,)) == (b, A, B)
    assert o.conjugate((A, B), (b,)) == (B, A)  # B A B B^-1


def test_cyclic_core_and_least_rotation():
    assert o.cyclic_core((B, A, C, b)) == (A, C)
    assert o.cyclic_core((B, A, b)) == (A,)
    assert o.least_rotation([3, 1, 2, 1, 1]) == 3
    rng = random.Random(0)
    for _ in range(300):
        s = [rng.randrange(3) for _ in range(rng.randrange(1, 12))]
        naive = min(range(len(s)), key=lambda r: s[r:] + s[:r])
        assert s[o.least_rotation(s):] + s[:o.least_rotation(s)] == s[naive:] + s[:naive]


def test_normal_form_uses_the_letter_order():
    # x1 < x1^-1 < x2 < ..., so the rotation starting with A^-1 wins over B
    assert o.normal_form((B, a)) == (a, B)
    assert o.normal_form((C, B, A, c)) == (A, B)
    assert o.class_key((A, B)) == o.class_key((B, A)) == o.class_key((b, a))
    assert o.class_key((A, B)) != o.class_key((A, b))


def test_parse_word():
    assert o.parse_word("abC") == (A, B, c)
    assert o.parse_word("1") == ()


def test_abelianization():
    assert o.ab_det([(A,), (B,), (C,)], 3) == 1
    assert abs(o.ab_det([(A, A), (B,), (C,)], 3)) == 2
    assert abs(o.ab_det([(A, B), (B,), (C,)], 3)) == 1
    assert o.ab_det([(A, B), (A, B), (C,)], 3) == 0
    # (A B) B = A B B: one of the first, one of the second basis element
    assert o.coefficients((A, B, B), [(A, B), (B,)], 2) == [1, 1]


def test_coefficients_reject_non_integral():
    try:
        o.coefficients((A,), [(A, A), (B,)], 2)
    except ValueError:
        return
    raise AssertionError("A is not an integral combination of A^2 and B")


def test_bfs_and_diameter():
    dist = o.bfs_distances(o.adjacency(*cycle(6)))
    assert dist[0] == [0, 1, 2, 3, 2, 1]
    assert o.diameter(dist) == 3


def _exact(graph):
    adj = o.adjacency(*graph)
    dist = o.bfs_distances(adj)
    return o.four_point_brute(dist), o.slim_brute(adj, dist)


def test_tree_has_delta_zero():
    # a spider: centre 0 with legs 0-1-2, 0-3-4, 0-5
    tree = (6, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5)])
    assert _exact(tree) == (0, 0)
    assert _exact(prufer_tree(random.Random(3), 9)) == (0, 0)


def test_cycles_c4k_have_delta_k():
    # C8: the quadruple 0, 2, 4, 6 has sums 8, 4, 4, so the gap is 4 and
    # delta 2; the bigon 0-1-2-3-4 / 0-7-6-5-4 puts 2 at distance 2.
    assert _exact(cycle(8)) == (2, 2)
    assert _exact(cycle(4)) == (1, 1)
    assert _exact(cycle(12)) == (3, 3)


def test_grid_and_cone():
    four, slim = _exact(grid(3))
    assert four == 2 and slim == 2  # opposite corners of a 3x3 grid
    coned = cone(cycle(8), [[0, 1, 2, 3, 4]])
    assert (0, 4) in coned[1] and len(coned[1]) == 8 + 6
    assert _exact(coned)[0] <= 1


def test_lower_bounds_stay_below_the_exact_values():
    rng = random.Random(1)
    for graph in (grid(3), cycle(8), cone(grid(3), [[0, 1, 2]]), prufer_tree(rng, 10)):
        adj = o.adjacency(*graph)
        dist = o.bfs_distances(adj)
        four, slim = o.four_point_brute(dist), o.slim_brute(adj, dist)
        assert o.four_point_lower(dist, 500, 0) <= four <= o.diameter(dist) / 2
        assert o.slim_lower(adj, dist, 100, 0) <= slim <= o.diameter(dist) // 2


def test_hausdorff_from_a_witness():
    dist = o.bfs_distances(o.adjacency(*cycle(8)))
    assert o.hausdorff([0, 1, 2], [0], dist) == 2
    assert o.hausdorff([0, 1, 2, 3, 4], [0, 7, 6, 5, 4], dist) == 2


def test_thin_tuple_count():
    # one edge, b1 = 0: paths [0], [0,1], [1,0], [1] give 1 + 3 + 3 + 1 tuples
    dist = [[0, 1], [1, 0]]
    paths = {(0, 0): [0], (0, 1): [0, 1], (1, 0): [1, 0], (1, 1): [1]}
    assert o.thin_tuple_count(paths, dist, 0) == 8
    # b1 = 1: every ball has both vertices, so each (s, t) pair counts 4
    assert o.thin_tuple_count(paths, dist, 1) == 4 * 8


def test_nielsen_bases_are_bases_with_balanced_words():
    rng = random.Random(5)
    for rank, lo, hi in ((3, 20, 30), (4, 5, 7), (6, 5, 7)):
        basis = nielsen_basis(rng, rank, lo, hi)
        assert abs(o.ab_det(basis, rank)) == 1
        assert all(lo <= len(w) <= hi and o.reduce(w) == w for w in basis)


def test_wedge_classes():
    assert wedge_class([(A,), (B,), (C,)]) == "foldable"
    # every word conjugated by C: a power of C repairs it
    assert wedge_class([(c, A, C), (c, B, C), (C,)]) == "repaired"
    # boundary letters from two generators, only two distinct labels
    assert wedge_class([(A, B, B), (A, C, B), (A, B, C, B)]) == "mixed"
    # words A x A: no power of A brings a third label to the base
    assert wedge_class([(A, B, A), (A, B, B, A), (A, B, C, B, A)]) == "unrepairable"


def test_prufer_trees_are_trees():
    for n in (3, 7, 20):
        size, edges = prufer_tree(random.Random(n), n)
        assert size == n and len(edges) == n - 1
        dist = o.bfs_distances(o.adjacency(n, edges))
        assert all(d >= 0 for row in dist for d in row)


def test_all_geodesics_in_a_grid():
    graph = grid(3)
    adj = o.adjacency(*graph)
    dist = o.bfs_distances(adj)
    assert len(o.all_geodesics(adj, dist, 0, 8)) == 6  # choose 2 of 4 steps
    for p, q in itertools.product(range(9), repeat=2):
        for path in o.all_geodesics(adj, dist, p, q):
            assert len(path) - 1 == dist[p][q]
