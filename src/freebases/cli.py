"""Command-line surface: folding, witnesses, delta measurements, and the
seeded experiment runner.

Exit codes: 0 success, 1 domain error (non-basis input, trivial factor,
invalid witness, failing experiment samples), 2 malformed input or flags.
Every command writes a JSON report (``--json`` overrides the path, which
defaults to ``<out>/<command>.json``); reports are byte-stable for a fixed
seed when ``--no-timings`` is passed.  ``FREEBASES_OUT`` sets the default
output directory.
"""

import argparse
import json
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import agraph, complexes, folding, hyperbolicity, words
from .complexes import FBVertex, FFVertex, SplittingVertex
from .errors import DomainError, NotABasisError


def _emit(args, default_name, data):
    path = args.json_path or os.path.join(args.out, default_name)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _load_json(path, parse=lambda data: data):
    """parse(the JSON document at path).  A document of the wrong shape is
    malformed input: the TypeError or AttributeError raised while reading
    it becomes a ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse(data)
    except (TypeError, AttributeError) as exc:
        raise ValueError("malformed %s: %s" % (path, exc)) from exc


def _basis_words(text, rank):
    """text's words, refused unless there are rank of them."""
    b = words.parse_words(text, rank)
    if len(b) != rank:
        raise NotABasisError("not a basis: %d words at rank %d: %s" % (len(b), rank, text))
    return b


def _verified(vertex, text):
    """The vertex, refused unless its (ambient) basis is a free basis: the
    commands below, and the key's uniqueness, assume one."""
    if not vertex.verify():
        raise NotABasisError("not a basis: %s" % text)
    return vertex


def _maybe_time(args, data, t0):
    if not args.no_timings:
        data["timings"] = {"wall_seconds": round(time.time() - t0, 3)}


def cmd_fold(args):
    t0 = time.time()
    b = words.parse_words(args.basis, args.rank)
    path = folding.fold_to_rose(b, args.rank)
    final = path.graphs[-1]
    is_rose = agraph.is_rose(final)
    data = path.to_json_dict()
    data["final_is_rose"] = is_rose
    data["single_fold_count"] = path.single_fold_count()
    _maybe_time(args, data, t0)
    out = _emit(args, "fold.json", data)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(final.to_dot())
    print(
        "fold: %d maximal folds (%d single), final %s (wrote %s)"
        % (
            len(path.steps),
            path.single_fold_count(),
            "rose" if is_rose else "non-rose folded graph",
            out,
        )
    )
    if not is_rose:
        raise NotABasisError("not a basis: folding ends at a non-rose graph")
    return 0


def cmd_path_bases(args):
    t0 = time.time()
    b = FBVertex(_basis_words(args.b, args.rank))
    m, path, bases = complexes.folding_chain(b)
    standard = FBVertex(complexes.identity_basis(args.rank))
    reaches = complexes.fb_equivalent(bases[-1], standard)
    data = {
        "conjugation_exponent": m,
        "bases": [words.words_str(v.basis) for v in bases],
        "all_pass_is_basis": all(v.verify() for v in bases),
        "reaches_standard_basis": reaches,
    }
    _maybe_time(args, data, t0)
    out = _emit(args, "path-bases.json", data)
    print("path-bases: %d vertices (wrote %s)" % (len(bases), out))
    if not reaches:
        raise NotABasisError("not a basis: chain does not reach the standard basis")
    return 0


def cmd_fb(args):
    a = _verified(FBVertex(_basis_words(args.a, args.rank)), args.a)
    b = _verified(FBVertex(_basis_words(args.b, args.rank)), args.b)
    cert = complexes.fb_adjacent(a, b)
    data = {"adjacent": cert is not None}
    if cert is not None:
        data["cert"] = cert.to_json_dict()
    out = _emit(args, "fb-adjacent.json", data)
    print(
        "fb-adjacent: %s (wrote %s)"
        % ("certificate (%d, %d, %+d)" % (cert.i, cert.j, cert.sign) if cert else "none", out)
    )
    return 0


def cmd_witness(args):
    if args.verify:
        wp = _load_json(args.verify, complexes.witness_path_from_json)
        for v in wp.vertices:
            _verified(v, words.words_str(v.ambient))
        bound = complexes.WITNESS_BOUNDS.get(wp.kind)
        if bound is None:
            raise ValueError("unknown witness kind %r" % wp.kind)
        problems = wp.validate()
        if wp.length > bound:
            problems.append("length %d exceeds the %s bound %d" % (wp.length, wp.kind, bound))
        if problems:
            raise DomainError("witness invalid: " + "; ".join(problems))
        print("witness %s: valid, length %d <= %d" % (args.verify, wp.length, bound))
        return 0
    if not args.kind:
        raise ValueError("either --kind or --verify is required")
    if args.kind == "h-lipschitz":
        if not (args.a and args.b):
            raise ValueError("--kind h-lipschitz needs --a and --b")
        a = _verified(FBVertex(_basis_words(args.a, args.rank)), args.a)
        b = _verified(FBVertex(_basis_words(args.b, args.rank)), args.b)
        path = complexes.h_lipschitz_path(a, b)
    else:
        if not (args.ambient and args.subset):
            raise ValueError("--kind %s needs --ambient and --subset" % args.kind)
        u = FFVertex(
            _basis_words(args.ambient, args.rank),
            frozenset(int(k) for k in args.subset.split(",")),
        )
        _verified(u, args.ambient)
        path = complexes.hq_path(u) if args.kind == "hq" else complexes.density_path(u)
    data = path.to_json_dict()
    reread = complexes.witness_path_from_json(json.loads(json.dumps(data)))
    if reread.validate():
        raise AssertionError("freshly generated witness failed re-validation")
    out = _emit(args, "witness.json", data)
    print("witness %s: length %d (wrote %s)" % (args.kind, path.length, out))
    return 0


def cmd_tau(args):
    m = _load_json(args.marking, agraph.MarkingGraph.from_json_dict)
    u = complexes.tau(SplittingVertex(m, args.edge))
    data = u.to_json_dict()
    out = _emit(args, "tau.json", data)
    print(
        "tau: factor of rank %d in ambient rank %d (wrote %s)"
        % (len(u.subset), len(u.ambient), out)
    )
    return 0


def cmd_delta(args):
    t0 = time.time()
    g = _load_json(args.infile, hyperbolicity.FiniteGraph.from_json_dict)
    if args.method == "four-point":
        value = hyperbolicity.delta_four_point(g)
    else:
        value = hyperbolicity.delta_slim(g)
    data = {
        "method": args.method,
        "delta": value,
        "vertices": len(g),
        "edges": len(g.edges),
    }
    _maybe_time(args, data, t0)
    out = _emit(args, "delta.json", data)
    print("delta (%s): %s (wrote %s)" % (args.method, value, out))
    return 0


def cmd_cone_off(args):
    g = _load_json(args.infile, hyperbolicity.FiniteGraph.from_json_dict)
    subsets = _load_json(args.subsets)
    coned = hyperbolicity.cone_off(g, subsets)
    data = coned.to_json_dict()
    out = _emit(args, "cone-off.json", data)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(coned.to_dot())
    print(
        "cone-off: %d -> %d edges (wrote %s)" % (len(g.edges), len(coned.edges), out)
    )
    return 0


def cmd_thin_check(args):
    t0 = time.time()
    g = _load_json(args.infile, hyperbolicity.FiniteGraph.from_json_dict)
    paths = _load_json(args.paths, lambda data: {
        (entry["from"], entry["to"]): tuple(entry["path"]) for entry in data
    })
    if args.phi == "median":
        phi = hyperbolicity.median_map(g)
    else:
        phi = _load_json(args.phi, lambda data: {
            tuple(entry["triple"]): entry["center"] for entry in data
        })
    report = hyperbolicity.check_thin_triangles(
        g,
        paths,
        phi,
        args.b1,
        tuple_threshold=args.tuple_threshold,
        sample_size=args.sample_size,
        seed=args.seed,
    )
    data = report.to_json_dict()
    _maybe_time(args, data, t0)
    out = _emit(args, "thin-check.json", data)
    print(
        "thin-check: B2 = %d (hausdorff %d, subsegment %d, center %d; %s) (wrote %s)"
        % (
            report.b2,
            report.b2_hausdorff,
            report.b2_subsegment,
            report.b2_center,
            report.mode,
            out,
        )
    )
    return 0


# -- experiments ------------------------------------------------------------


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
    revalidated = all(
        not complexes.witness_path_from_json(json.loads(json.dumps(p.to_json_dict()))).validate()
        for p in (hl, hq, dp)
    )
    ok = (
        cert is not None
        and cert.holds_for(a, b)
        and hl.length <= 4
        and hq.length <= 3
        and dp.length <= 3
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
    g, labels = hyperbolicity.sample_fb_ball(center, ball_seeds, moves)
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


def cmd_experiment(args):
    t0 = time.time()
    fn = EXPERIMENTS[args.name]
    for flag in ("samples", "moves", "only"):
        if (getattr(args, flag) or 0) < 0:  # --only is None when absent
            raise ValueError("--%s must be nonnegative" % flag)
    least, what = MIN_RANK.get(args.name, (2, None))
    if args.rank < least:
        raise DomainError("%s need rank >= %d" % (what, least))
    indices = [args.only] if args.only is not None else list(range(args.samples))
    seeds = [_sample_seed(args.seed, k) for k in indices]
    if args.workers > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(
                pool.map(fn, [args.rank] * len(seeds), seeds, [args.moves] * len(seeds))
            )
    else:
        results = [fn(args.rank, s, args.moves) for s in seeds]
    samples = []
    failures = 0
    for k, record in zip(indices, results):
        record = dict(record)
        record["index"] = k
        if not record.get("ok", False):
            failures += 1
            record["reproduce"] = "freebases experiment %s --rank %d --seed %d --only %d" % (
                args.name,
                args.rank,
                args.seed,
                k,
            )
        samples.append(record)
    data = {
        "experiment": args.name,
        "config": {
            "rank": args.rank,
            "seed": args.seed,
            "samples": len(indices),
            "moves": args.moves,
        },
        "summary": {"pass": len(indices) - failures, "fail": failures},
        "samples": samples,
    }
    _maybe_time(args, data, t0)
    out = _emit(args, "experiment-%s.json" % args.name, data)
    print(
        "experiment %s: %d/%d samples pass (wrote %s)"
        % (args.name, len(indices) - failures, len(indices), out)
    )
    if failures:
        raise DomainError("%d of %d samples failed" % (failures, len(indices)))
    return 0


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rank", type=int, default=words.DEFAULT_RANK,
                        help="rank of the free group (default 3)")
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument("--out", default=os.environ.get("FREEBASES_OUT", "."),
                        help="output directory for reports")
    common.add_argument("--json", dest="json_path", metavar="FILE",
                        help="explicit path for the JSON report")
    common.add_argument("--no-timings", action="store_true",
                        help="omit wall-clock fields (byte-stable reports)")

    parser = argparse.ArgumentParser(
        prog="freebases",
        description="Stallings foldings, free-bases chains, and hyperbolicity measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fold", parents=[common], help="fold a wedge of words to the rose")
    p.add_argument("--basis", required=True, help='comma-separated words, e.g. "ab,b,c"')
    p.add_argument("--dot", help="also write the final graph in DOT form")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("path-bases", parents=[common],
                       help="bases read along the folding path")
    p.add_argument("--b", required=True, help="comma-separated words")
    p.set_defaults(func=cmd_path_bases)

    p = sub.add_parser("fb-adjacent", parents=[common],
                       help="adjacency certificate for two free bases")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_fb)

    p = sub.add_parser("witness", parents=[common],
                       help="generate or re-validate a factor-path witness")
    p.add_argument("--kind", choices=sorted(complexes.WITNESS_BOUNDS))
    p.add_argument("--a", help="first basis (h-lipschitz)")
    p.add_argument("--b", help="second basis (h-lipschitz)")
    p.add_argument("--ambient", help="ambient basis (hq, density)")
    p.add_argument("--subset", help='1-based positions, e.g. "2,3" (hq, density)')
    p.add_argument("--verify", metavar="FILE", help="re-validate a witness file")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("tau", parents=[common],
                       help="vertex group of a one-edge collapse")
    p.add_argument("--marking", required=True, help="marking graph JSON file")
    p.add_argument("--edge", type=int, required=True, help="natural edge id to keep")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("delta", parents=[common], help="hyperbolicity constant")
    p.add_argument("--in", dest="infile", required=True, help="graph JSON file")
    p.add_argument("--method", choices=["four-point", "slim"], default="four-point")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("cone-off", parents=[common], help="cone off vertex subsets")
    p.add_argument("--in", dest="infile", required=True, help="graph JSON file")
    p.add_argument("--subsets", required=True, help="JSON file: list of vertex lists")
    p.add_argument("--dot", help="also write the coned graph in DOT form")
    p.set_defaults(func=cmd_cone_off)

    p = sub.add_parser("thin-check", parents=[common],
                       help="measure thin-triangles constants")
    p.add_argument("--in", dest="infile", required=True, help="graph JSON file")
    p.add_argument("--paths", required=True, help="path family JSON file")
    p.add_argument("--phi", required=True, help='center map JSON file or "median"')
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--tuple-threshold", type=int, default=1_000_000)
    p.add_argument("--sample-size", type=int, default=20_000)
    p.set_defaults(func=cmd_thin_check)

    p = sub.add_parser("experiment", parents=[common], help="run a seeded experiment")
    p.add_argument("name", choices=sorted(EXPERIMENTS))
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--moves", type=int, default=8, help="Nielsen moves per sample")
    p.add_argument("--only", type=int, help="run a single sample index")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.rank < 2:
            raise ValueError("rank must be at least 2")
        return args.func(args)
    except (DomainError, ValueError, KeyError, OSError) as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        # the operation refused its input (1), or the input was malformed (2)
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
