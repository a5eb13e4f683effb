"""Acceptance run: eight end-to-end checks, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The folding checks share one corpus of 500 random rank-3 bases.
"""

import json
import random
import time
from functools import lru_cache

from oracles import (
    brute_four_point_delta,
    condition1_value,
    condition3_value,
    naive_folded_graph,
)

from freebases import agraph, complexes, folding, hyperbolicity, words
from freebases.cli import EXPERIMENTS, main
from freebases.complexes import FBVertex, FFVertex

RANK = 3


def verdict(ok, line):
    print("%s: %s" % ("PASS" if ok else "FAIL", line))
    assert ok, line


@lru_cache(maxsize=1)
def corpus():
    rng = random.Random(61803)
    return tuple(
        folding.random_basis(rng.randrange(2**32), rng.randint(1, 12), RANK)
        for _ in range(500)
    )


@lru_cache(maxsize=1)
def fold_paths():
    return tuple(folding.fold_to_rose(b, RANK) for b in corpus())


def test_folding_terminates_soundly_on_500_random_bases():
    t0 = time.perf_counter()
    paths = fold_paths()
    elapsed = time.perf_counter() - t0
    rose = agraph.rose(RANK)
    sound = sum(
        agraph.labeled_isomorphic(p.graphs[-1], rose)
        and all(kind == "I" for kind in p.fold_kinds())
        for p in paths
    )
    ok = sound == 500 and elapsed < 30
    verdict(ok, "fold_to_rose sound on %d/500 random bases in %.2fs (budget 30s)"
            % (sound, elapsed))


def test_any_order_folding_oracle_agrees_on_all_500():
    agree = sum(
        agraph.labeled_isomorphic(
            naive_folded_graph(b, RANK, seed=k), path.graphs[-1]
        )
        for k, (b, path) in enumerate(zip(corpus(), fold_paths()))
    )
    verdict(agree == 500, "any-order fold oracle agrees on %d/500 samples" % agree)


def test_every_basis_extracted_along_every_path_is_a_basis():
    checked = sound = 0
    for path in fold_paths():
        for g in path.graphs:
            extracted = agraph.basis_from_tree(g, g.base)
            checked += 1
            sound += folding.is_basis(tuple(extracted), RANK)
    verdict(sound == checked,
            "spanning-tree bases pass is_basis at %d/%d path graphs" % (sound, checked))


def test_shared_letter_loop_persists_along_200_chains():
    target = FBVertex(complexes.identity_basis(RANK))
    good = 0
    for seed in range(200):
        rng = random.Random(seed)
        c = rng.randrange(1, RANK + 1)
        m = rng.randrange(-3, 4)
        start = tuple([(c,)] + [(i,) for i in range(1, RANK + 1) if i != c])
        b0 = folding.random_basis(seed, 8, RANK, frozen=(0,), start=start)
        g = words.power((c,), m)
        vertex = FBVertex(tuple(words.reduce(words.conjugate(w, g)) for w in b0))
        _, path, bases = complexes.folding_chain(vertex)
        good += (
            all(agraph.has_loop_labeled(gr, gr.base, c) for gr in path.graphs)
            and all((c,) in v.basis for v in bases)
            and all(
                complexes.fb_equivalent(v, target)
                or complexes.fb_adjacent(v, target) is not None
                for v in bases
            )
        )
    verdict(good == 200,
            "shared-letter loop, verbatim letter and distance-1 certificates "
            "on %d/200 chains" % good)


def test_witness_path_bounds_hold_on_200_adjacent_pairs():
    checked = good = 0
    seed = 0
    while checked < 200:
        seed += 1
        rng = random.Random(seed)
        a = FBVertex(folding.random_basis(seed, 8, RANK))
        keep = rng.randrange(RANK)
        second = list(
            folding.random_basis(seed + 10_000, 8, RANK, frozen=(keep,), start=a.basis)
        )
        conj = tuple(
            rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(3))
        )
        moved = words.reduce(words.conjugate(second[keep], conj))
        if moved:
            second[keep] = moved
        b = FBVertex(tuple(second))
        if complexes.fb_equivalent(a, b):
            continue
        checked += 1
        cert = complexes.fb_adjacent(a, b)
        if cert is None or not cert.holds_for(a, b):
            continue
        hl = complexes.h_lipschitz_path(a, b, cert)
        u = FFVertex(a.basis, frozenset(rng.sample(range(1, RANK + 1),
                                                   rng.randrange(1, RANK))))
        hq = complexes.hq_path(u)
        dp = complexes.density_path(u)
        revalidated = all(
            not complexes.witness_path_from_json(
                json.loads(json.dumps(p.to_json_dict()))
            ).validate()
            for p in (hl, hq, dp)
        )
        good += (
            hl.length <= 4
            and hq.length <= 3
            and dp.length <= 3
            and complexes.q_map(complexes.h_map(a)) == a
            and revalidated
        )
    verdict(good == 200,
            "h <= 4, hq <= 3, density <= 3 and q(h(v)) == v with re-validated "
            "witnesses on %d/200 adjacent pairs" % good)


def test_delta_harness_is_exact_on_reference_graphs():
    rng = random.Random(424242)
    trees_flat = all(
        hyperbolicity.delta_four_point(t) == 0 and hyperbolicity.delta_slim(t) == 0
        for t in (
            hyperbolicity.random_tree(rng.randint(2, 40), rng.randrange(2**31))
            for _ in range(50)
        )
    )
    cycles_exact = all(
        hyperbolicity.delta_four_point(hyperbolicity.cycle_graph(n))
        == brute_four_point_delta(hyperbolicity.cycle_graph(n))
        for n in range(3, 13)
    )
    grid = hyperbolicity.grid_graph(10, 10)
    rows = [list(range(10 * i, 10 * i + 10)) for i in range(10)]
    cols = [list(range(j, 100, 10)) for j in range(10)]
    coned = hyperbolicity.cone_off(grid, rows + cols)
    coning_shrinks = hyperbolicity.delta_slim(coned) < hyperbolicity.delta_slim(grid)
    full = hyperbolicity.cone_off(grid, [sorted(grid.vertices)])
    diameter_one = hyperbolicity.apsp(full).max() == 1
    ok = trees_flat and cycles_exact and coning_shrinks and diameter_one
    verdict(ok, "delta 0 on 50 trees [%s], cycle four-point matches oracle for "
            "n <= 12 [%s], coning the 10x10 grid shrinks delta_slim [%s], "
            "full cone has diameter 1 [%s]"
            % (trees_flat, cycles_exact, coning_shrinks, diameter_one))


def test_thin_triangle_checker_is_tight_on_random_trees():
    rng = random.Random(271828)
    checked = good = 0
    for b1 in (1, 2, 3):
        for _ in range(6):
            tree = hyperbolicity.random_tree(rng.randint(4, 20), rng.randrange(2**31))
            fam = hyperbolicity.geodesic_family(tree)
            phi = hyperbolicity.median_map(tree)
            report = hyperbolicity.check_thin_triangles(tree, fam, phi, b1)
            tight = (
                condition1_value(tree, fam, *report.witness_hausdorff)
                == report.b2_hausdorff
                and hyperbolicity.condition2_value(tree, fam, *report.witness_subsegment)
                == report.b2_subsegment
                and condition3_value(tree, fam, phi, *report.witness_center)
                == report.b2_center
            )
            checked += 1
            good += (
                report.b2_hausdorff == 0
                and report.b2_center == 0
                and report.b2_subsegment <= 2 * b1
                and tight
            )
    verdict(good == checked,
            "median centers give B2_hausdorff = B2_center = 0 and "
            "B2_subsegment <= 2*B1 with tight witnesses on %d/%d trees" % (good, checked))


def test_experiment_reports_are_byte_reproducible(tmp_path):
    stable = []
    for name in sorted(EXPERIMENTS):
        argv = ["experiment", name, "--samples", "3", "--seed", "11", "--no-timings"]
        first = tmp_path / ("%s-1.json" % name)
        second = tmp_path / ("%s-2.json" % name)
        rc1 = main(argv + ["--json", str(first)])
        rc2 = main(argv + ["--json", str(second)])
        stable.append(rc1 == 0 and rc2 == 0 and first.read_bytes() == second.read_bytes())
    verdict(all(stable),
            "reports byte-identical across reruns for %d/%d experiments"
            % (sum(stable), len(stable)))
