#!/usr/bin/env python3
"""Benchmark for freebases: three seeded workloads in closed loop.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With ``--workload`` it runs that workload in this process: it imports the
library from ``src/`` next to this directory, builds the seeded inputs,
then runs whole rounds of the op list for ``--seconds`` seconds, checking
every output.  It prints a table of ops and metrics, then one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (traced rounds alternate with untraced ones; the spans go to
``bench/out/``).  Without ``--workload`` it runs every workload, each in a
fresh process, one after the other.
"""

import os

# Pin native thread pools before numpy is imported, here and in children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = {"long-words": "long_words", "fb-ball": "fb_ball", "metric": "metric"}
# Op kinds that fail on every run because of a known fault (see README).
KNOWN_FAULTS = {"witness_rank4": "F1", "subgroup_equal_large": "F2"}
SETUP_REPEATS = 5  # set-ups per run, each an import and an input build


class SetupError(Exception):
    pass


def import_library():
    """Import freebases afresh from this checkout's src/, dropping any copy
    imported before; returns the module."""
    if not os.path.isfile(os.path.join(SRC, "freebases", "__init__.py")):
        raise SetupError("no freebases sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "freebases" or m.startswith("freebases.")]:
        del sys.modules[name]
    import freebases
    if os.path.dirname(os.path.dirname(os.path.abspath(freebases.__file__))) != SRC:
        raise SetupError("freebases was imported from %s" % freebases.__file__)
    return freebases


def run_workload(args):
    from harness import run_rounds
    import metrics
    import reference

    refs = reference.build()
    module = importlib.import_module(WORKLOADS[args.workload])
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fb = import_library()
        ops = module.build(fb, args.seed)
        setups.append(time.perf_counter() - t0)
    setup_s = metrics.median(setups)

    rounds, rec, stats = run_rounds(ops, refs, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]

    e2e = metrics.end_to_end(untraced, setup_s, peak_rss_mb)
    shown = dict(e2e)
    shown["wall_s"] = (metrics.wall(untraced), "s")
    shown["reference_s"] = (metrics.reference(untraced), "s")
    shown.update((k, v) for k, v in metrics.throughput(untraced, rec.is_basis_seconds).items()
                 if k in module.THROUGHPUT)
    if args.trace:
        layer = metrics.per_layer(untraced, traced, rec.is_basis_seconds)
        shown.update(layer)
        write_spans(args, rec)
    reported = layer if args.trace else e2e

    print("workload %s  seed %d  rounds %d (%d traced)  ops per round %d"
          % (args.workload, args.seed, len(rounds), len(traced), len(ops)))
    print("  %-22s %9s %7s %10s  %s" % ("op kind", "attempted", "failed", "s", "first error"))
    for kind in stats.attempted:
        note = stats.first_error.get(kind, "")
        if kind in KNOWN_FAULTS:
            note = "[%s] %s" % (KNOWN_FAULTS[kind], note)
        seconds = metrics.wall(untraced, {i for i, op in enumerate(ops) if op.kind == kind})
        print("  %-22s %9d %7d %10.4f  %s"
              % (kind, stats.attempted[kind], stats.failed[kind], seconds, note))
    for name, (value, unit) in shown.items():
        print("  %-44s %16.6g %s" % (name, value, unit))

    attempted = sum(stats.attempted.values())
    failed = sum(stats.failed.values())
    print(json.dumps({
        "correct": stats.bad_checks == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))


def write_spans(args, rec):
    """Write the traced rounds' spans, start and end relative to the first."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    t0 = rec.spans[0][1] if rec.spans else 0.0
    path = os.path.join(out, "trace-%s-seed%d.json" % (args.workload, args.seed))
    with open(path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "fields": ["name", "start_s", "end_s", "parent", "op_id"],
            "dropped": rec.spans_dropped,
            "spans": [[n, s - t0, e - t0, p, op] for n, s, e, p, op in rec.spans],
        }, fh)


def run_all(args):
    """Every workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise SetupError("workload %s exited with %d" % (name, proc.returncode))
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"]["%s.%s" % (name, key)] = value
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            run_all(args)
        else:
            run_workload(args)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
