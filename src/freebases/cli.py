"""Command-line surface: folding, witnesses, delta measurements, and the
seeded experiments of ``freebases.experiments``.

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
import sys
import time

from . import agraph, complexes, experiments, folding, hyperbolicity, words
from .complexes import FBVertex, FFVertex, SplittingVertex
from .errors import NAME, DomainError, NotABasisError, typed
from .experiments import EXPERIMENTS


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
        data, wp = _load_json(args.verify, lambda d: (d, complexes.witness_path_from_json(d)))
        for v in wp.vertices:
            _verified(v, words.words_str(v.ambient))
        stated = wp.to_json_dict()  # compared as JSON text, where 3.0 and true are not 3 and 1
        text = {k: [json.dumps(doc.get(k), sort_keys=True) for doc in (data, stated)]
                for k in data.keys() | stated.keys()}
        problems = ["its %r does not re-derive" % k for k, (was, now) in sorted(text.items())
                    if was != now] + wp.validate()
        if problems:
            raise DomainError("witness invalid: " + "; ".join(problems))
        bound = complexes.WITNESS_BOUNDS[wp.kind]
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


def _name(v):
    return typed(v, NAME, "vertex name")


def _subsets(data):
    """Cone-off subsets: a list of lists of vertex names, as in graph JSON."""
    return [list(map(_name, typed(s, (list,), "subset"))) for s in typed(data, (list,), "subsets")]


def cmd_cone_off(args):
    g = _load_json(args.infile, hyperbolicity.FiniteGraph.from_json_dict)
    subsets = _load_json(args.subsets, _subsets)
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
        (_name(entry["from"]), _name(entry["to"])):
            tuple(map(_name, typed(entry["path"], (list,), "path")))
        for entry in typed(data, (list,), "path family")
    })
    if args.phi == "median":
        phi = hyperbolicity.median_map(g)
    else:
        phi = _load_json(args.phi, lambda data: {
            tuple(map(_name, typed(entry["triple"], (list,), "triple"))): _name(entry["center"])
            for entry in typed(data, (list,), "center map")
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


def cmd_experiment(args):
    t0 = time.time()
    for flag in ("samples", "moves", "only"):
        if (getattr(args, flag) or 0) < 0:  # --only is None when absent
            raise ValueError("--%s must be nonnegative" % flag)
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    indices = [args.only] if args.only is not None else list(range(args.samples))
    data = experiments.run(args.name, args.rank, args.seed, indices, args.moves, args.workers)
    _maybe_time(args, data, t0)
    out = _emit(args, "experiment-%s.json" % args.name, data)
    failures = data["summary"]["fail"]
    print(
        "experiment %s: %d/%d samples pass (wrote %s)"
        % (args.name, len(indices) - failures, len(indices), out)
    )
    if failures:
        raise DomainError("%d of %d samples failed" % (failures, len(indices)))
    return 0


def build_parser():
    rank, seed, common = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    rank.add_argument("--rank", type=int, default=words.DEFAULT_RANK,
                      help="rank of the free group (default 3)")
    seed.add_argument("--seed", type=int, default=0, help="base random seed")
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

    p = sub.add_parser("fold", parents=[rank, common], help="fold a wedge of words to the rose")
    p.add_argument("--basis", required=True, help='comma-separated words, e.g. "ab,b,c"')
    p.add_argument("--dot", help="also write the final graph in DOT form")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("path-bases", parents=[rank, common],
                       help="bases read along the folding path")
    p.add_argument("--b", required=True, help="comma-separated words")
    p.set_defaults(func=cmd_path_bases)

    p = sub.add_parser("fb-adjacent", parents=[rank, common],
                       help="adjacency certificate for two free bases")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_fb)

    p = sub.add_parser("witness", parents=[rank, common],
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

    p = sub.add_parser("thin-check", parents=[seed, common],
                       help="measure thin-triangles constants")
    p.add_argument("--in", dest="infile", required=True, help="graph JSON file")
    p.add_argument("--paths", required=True, help="path family JSON file")
    p.add_argument("--phi", required=True, help='center map JSON file or "median"')
    p.add_argument("--b1", type=int, required=True)
    p.add_argument("--tuple-threshold", type=int, default=1_000_000)
    p.add_argument("--sample-size", type=int, default=20_000)
    p.set_defaults(func=cmd_thin_check)

    p = sub.add_parser("experiment", parents=[rank, seed, common], help="run a seeded experiment")
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
        if "rank" in args and args.rank < 2:
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
