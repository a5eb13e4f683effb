"""Seeded experiments: property checks run one sample at a time, and the
runner that turns them into a report.

A body takes (rank, seed, moves) and returns a JSON record whose ``ok``
says whether the sample passed.  ``run`` gives each sample index its own
seed and runs the bodies serially or in a process pool, in index order
either way.  A body that raises fails only its own sample: the record is
``ok: false`` with the exception's type and message and ``where`` it was
raised (file basename, line and function of the innermost frame), and the
other samples still run.  Every failing record gets a ``reproduce``
command that reruns that sample alone, at the run's rank, seed and moves.
"""

import json
import os
import random
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import agraph, complexes, folding, hyperbolicity, words
from .complexes import FBVertex, FFVertex
from .errors import DomainError


def _exp_fold_soundness(rank, seed, moves):
    b = folding.random_basis(seed, moves, rank)
    path = folding.fold_to_rose(b, rank)
    is_rose = agraph.is_rose(path.graphs[-1])
    no_type2 = all(kind == "I" for kind in path.fold_kinds())
    exact_count = path.single_fold_count() == sum(len(w) for w in b) - rank
    return {
        "basis": words.words_str(b),
        "maximal_folds": len(path.steps),
        "single_folds": path.single_fold_count(),
        "final_is_rose": is_rose,
        "no_type2": no_type2,
        "exact_fold_count": exact_count,
        "ok": is_rose and no_type2 and exact_count,
    }


def _exp_chain_bases(rank, seed, moves):
    b = FBVertex(folding.random_basis(seed, moves, rank))
    _, _, bases = complexes.folding_chain(b)
    all_bases = all(v.verify() for v in bases)
    return {
        "basis": words.words_str(b.basis),
        "chain_length": len(bases),
        "all_pass_is_basis": all_bases,
        "ok": all_bases,
    }


def _exp_loop_persistence(rank, seed, moves):
    rng = random.Random(seed)
    c = rng.randrange(1, rank + 1)
    m = rng.randrange(-3, 4)
    start = [(c,)] + [(i,) for i in range(1, rank + 1) if i != c]
    b0 = folding.random_basis(seed, moves, rank, frozen=(0,), start=tuple(start))
    g = words.power((c,), m)
    bw = tuple(words.reduce(words.conjugate(w, g)) for w in b0)
    vertex = FBVertex(bw)
    _, path, bases = complexes.folding_chain(vertex)
    loops = all(
        agraph.has_loop_labeled(gph, gph.base, c) for gph in path.graphs
    )
    verbatim = all((c,) in v.basis for v in bases)
    target = FBVertex(complexes.identity_basis(rank))
    certified = all(
        complexes.fb_equivalent(v, target)
        or complexes.fb_adjacent(v, target) is not None
        for v in bases
    )
    return {
        "letter": words.word_str((c,)),
        "exponent": m,
        "basis": words.words_str(bw),
        "chain_length": len(bases),
        "loop_at_base_everywhere": loops,
        "letter_verbatim_everywhere": verbatim,
        "all_vertices_within_1": certified,
        "ok": loops and verbatim and certified,
    }


def _exp_fb_witnesses(rank, seed, moves):
    rng = random.Random(seed)
    a = FBVertex(folding.random_basis(seed, moves, rank))
    keep = rng.randrange(rank)
    second = list(
        folding.random_basis(seed + 1, moves, rank, frozen=(keep,), start=a.basis)
    )
    conj = tuple(
        rng.choice([k for s in (1, -1) for k in (s, 2 * s, 3 * s) if abs(k) <= rank])
        for _ in range(rng.randrange(3))
    )
    moved = words.reduce(words.conjugate(second[keep], conj))
    if moved:
        second[keep] = moved
    b = FBVertex(tuple(second))
    if complexes.fb_equivalent(a, b):
        return {"skipped": "pair is equivalent", "ok": True}
    cert = complexes.fb_adjacent(a, b)
    hl = complexes.h_lipschitz_path(a, b, cert)
    subset = frozenset(
        rng.sample(range(1, rank + 1), rng.randrange(1, rank))
    )
    u = FFVertex(a.basis, subset)
    hq = complexes.hq_path(u)
    dp = complexes.density_path(u)
    revalidated = all(  # each step, both ends and the kind's length bound
        not complexes.witness_path_from_json(json.loads(json.dumps(p.to_json_dict()))).validate()
        for p in (hl, hq, dp)
    )
    ok = (
        cert is not None
        and cert.holds_for(a, b)
        and complexes.q_map(complexes.h_map(a)) == a
        and revalidated
    )
    return {
        "a": words.words_str(a.basis),
        "b": words.words_str(b.basis),
        "h_lipschitz_length": hl.length,
        "hq_length": hq.length,
        "density_length": dp.length,
        "revalidated": revalidated,
        "ok": ok,
    }


def _exp_delta_trees(rank, seed, moves):
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    tree = hyperbolicity.random_tree(n, seed)
    d4 = hyperbolicity.delta_four_point(tree)
    ds = hyperbolicity.delta_slim(tree)
    return {
        "vertices": n,
        "delta_four_point": d4,
        "delta_slim": ds,
        "ok": d4 == 0 and ds == 0,
    }


def _exp_thin_trees(rank, seed, moves):
    rng = random.Random(seed)
    n = rng.randint(4, 20)
    b1 = 1 + seed % 3
    tree = hyperbolicity.random_tree(n, seed)
    fam = hyperbolicity.geodesic_family(tree)
    phi = hyperbolicity.median_map(tree)
    report = hyperbolicity.check_thin_triangles(tree, fam, phi, b1)
    wit = report.witness_subsegment
    tight = (
        hyperbolicity.condition2_value(tree, fam, *wit) == report.b2_subsegment
    )
    ok = (
        report.b2_hausdorff == 0
        and report.b2_center == 0
        and report.b2_subsegment <= 2 * b1
        and tight
    )
    return {
        "vertices": n,
        "b1": b1,
        "b2_hausdorff": report.b2_hausdorff,
        "b2_subsegment": report.b2_subsegment,
        "b2_center": report.b2_center,
        "witness_tight": tight,
        "ok": ok,
    }


def _ball_certified(g, labels, rank):
    """The labelled bases have distinct keys (fb_adjacent refuses equivalent
    vertices), and every edge's certificate re-validates."""
    verts = [FBVertex(words.parse_words(label["basis"], rank)) for label in labels]
    if len({v.key for v in verts}) < len(verts):
        return False
    certs = ((complexes.fb_adjacent(verts[i], verts[j]), verts[i], verts[j]) for i, j in g.edges)
    return all(c is not None and c.holds_for(a, b) for c, a, b in certs)


def _exp_fb_ball(rank, seed, moves):
    ball_seeds = [seed * 31 + i for i in range(8)]
    center = FBVertex(complexes.identity_basis(rank))
    g, labels = complexes.sample_fb_ball(center, ball_seeds, moves)
    return {
        "vertices": len(g),
        "edges": len(g.edges),
        "delta_four_point": hyperbolicity.delta_four_point(g),
        "delta_slim": hyperbolicity.delta_slim(g),
        "center_label": labels[0]["basis"] if labels else None,
        "ok": _ball_certified(g, labels, rank),
    }


EXPERIMENTS = {
    "fold-soundness": _exp_fold_soundness,
    "chain-bases": _exp_chain_bases,
    "loop-persistence": _exp_loop_persistence,
    "fb-witnesses": _exp_fb_witnesses,
    "delta-trees": _exp_delta_trees,
    "thin-trees": _exp_thin_trees,
    "fb-ball": _exp_fb_ball,
}
# experiments that need more than rank 2: (least rank, what needs it)
MIN_RANK = {"fb-witnesses": (3, "witness paths")}


def _sample_seed(seed, index):
    return seed * 1_000_003 + index


def _run_sample(fn, rank, seed, moves):
    try:
        return fn(rank, seed, moves)
    except Exception as exc:  # the sample fails; the run goes on
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = "%s:%d in %s" % (os.path.basename(frame.filename), frame.lineno, frame.name)
        return {"ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc), "where": where}}


def run(name, rank, seed, indices, moves, workers):
    """The report of experiment ``name`` on the given sample indices, every
    sample included, or DomainError before any sample runs when the rank is
    below the experiment's least rank."""
    least, what = MIN_RANK.get(name, (2, None))
    if rank < least:
        raise DomainError("%s need rank >= %d" % (what, least))
    fn = EXPERIMENTS[name]
    seeds = [_sample_seed(seed, k) for k in indices]
    n = len(seeds)
    if workers > 1 and n > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_sample, [fn] * n, [rank] * n, seeds, [moves] * n))
    else:
        results = [_run_sample(fn, rank, s, moves) for s in seeds]
    samples = []
    failures = 0
    for k, record in zip(indices, results):
        record = dict(record)
        record["index"] = k
        if not record.get("ok", False):
            failures += 1
            record["reproduce"] = ("freebases experiment %s --rank %d --seed %d --moves %d "
                                   "--only %d" % (name, rank, seed, moves, k))
        samples.append(record)
    return {
        "experiment": name,
        "config": {"rank": rank, "seed": seed, "samples": n, "moves": moves},
        "summary": {"pass": n - failures, "fail": failures},
        "samples": samples,
    }
