"""Metric definitions: the end-to-end set and the per-layer set.

End-to-end metrics come from untraced rounds.  Per-layer metrics are the
busy seconds and call counts of every span name, work counts read off
returned objects, per-layer throughputs, and the tracing overhead.  Values
are medians over rounds unless said otherwise; a metric whose calls a
workload never makes reads 0 there.
"""

import statistics

# Every library call the benchmark makes, as <layer>.<function>.
SPANS = [
    "words.find_conjugator",
    "words.cyclic_normal_form",
    "agraph.labeled_isomorphic",
    "folding.wedge_graph",
    "folding.is_basis",
    "folding.fold_to_rose",
    "folding.fold_completely",
    "folding.subgroup_membership",
    "complexes.sample_fb_ball",
    "complexes.fb_equivalent",
    "complexes.fb_adjacent",
    "complexes.folding_chain",
    "complexes.h_lipschitz_path",
    "complexes.witness_roundtrip",
    "hyperbolicity.FiniteGraph",
    "hyperbolicity.apsp",
    "hyperbolicity.delta_four_point",
    "hyperbolicity.delta_slim",
    "hyperbolicity.geodesic_family",
    "hyperbolicity.median_map",
    "hyperbolicity.check_thin_triangles",
]

DELTA = {"hyperbolicity.apsp", "hyperbolicity.delta_four_point", "hyperbolicity.delta_slim"}
FOLDS = {"folding.fold_to_rose", "folding.fold_completely", "complexes.folding_chain"}
FB_QUERIES = {"complexes.fb_equivalent", "complexes.fb_adjacent"}


def median(values):
    return statistics.median(values) if values else 0.0


def busy(r, names, kinds=None):
    return sum(v for (k, n), v in r.busy.items()
               if n in names and (kinds is None or k in kinds))


def calls(r, names, kinds=None):
    return sum(v for (k, n), v in r.calls.items()
               if n in names and (kinds is None or k in kinds))


def _per(work, seconds):
    return work / seconds if seconds > 0 else 0.0


# name -> (unit, value of one untraced round).  These are the per-layer
# throughputs; each applies to the workloads listed in the README.
THROUGHPUT = {
    "fold.letters_per_s": ("letters/s", lambda r: _per(
        r.counts.get("fold.letters", 0), busy(r, {"folding.is_basis"}))),
    "fold.path_letters_per_s": ("letters/s", lambda r: _per(
        r.counts.get("fold.path_letters", 0),
        busy(r, {"folding.fold_to_rose", "folding.fold_completely"},
             {"fold_to_rose", "fold_subgroup"}))),
    "member.letters_per_s": ("letters/s", lambda r: _per(
        r.counts.get("member.letters", 0), busy(r, {"folding.subgroup_membership"}))),
    "conj.letters_per_s": ("letters/s", lambda r: _per(
        r.counts.get("conj.letters", 0),
        busy(r, {"words.find_conjugator", "words.cyclic_normal_form"}))),
    "fb.ball_s": ("s", lambda r: busy(r, {"complexes.sample_fb_ball"})),
    "fb.queries_per_s": ("queries/s", lambda r: _per(
        calls(r, FB_QUERIES), busy(r, FB_QUERIES))),
    "fb.chain_s": ("s", lambda r: busy(r, {"complexes.folding_chain"})),
    "fb.ball_delta_s": ("s", lambda r: busy(r, DELTA, {"ball_delta"})),
    "delta.total_s": ("s", lambda r: busy(r, DELTA, {"delta"})),
    "thin.tuples_per_s": ("tuples/s", lambda r: _per(
        r.counts.get("hyperbolicity.thin.tuples", 0),
        busy(r, {"hyperbolicity.check_thin_triangles"}))),
}

# name -> (unit, value of one traced round), read off returned objects.
COUNTS = {
    "folding.single_folds": ("count", lambda r: r.counts.get("folding.single_folds", 0)),
    "folding.graphs_built": ("count", lambda r: r.counts.get("folding.graphs_built", 0)),
    "folding.single_folds_per_s": ("1/s", lambda r: _per(
        r.counts.get("folding.single_folds", 0), busy(r, FOLDS))),
    "agraph.iso.vertices": ("count", lambda r: r.counts.get("agraph.iso.vertices", 0)),
    "complexes.ball.candidates": ("count", lambda r: r.counts.get("complexes.ball.candidates", 0)),
    "complexes.ball.vertices": ("count", lambda r: r.counts.get("complexes.ball.vertices", 0)),
    "complexes.ball.edges": ("count", lambda r: r.counts.get("complexes.ball.edges", 0)),
    "complexes.ball.edge_ratio": ("ratio", lambda r: _per(
        r.counts.get("complexes.ball.edges", 0), r.counts.get("complexes.ball.pairs", 0))),
    "hyperbolicity.thin.tuples": ("count", lambda r: r.counts.get("hyperbolicity.thin.tuples", 0)),
    "hyperbolicity.thin.checked_ratio": ("ratio", lambda r: _per(
        r.counts.get("hyperbolicity.thin.tuples", 0),
        r.counts.get("hyperbolicity.thin.tuples_total", 0))),
    "hyperbolicity.delta_slim.array_bytes": ("bytes_computed", lambda r: r.counts.get(
        "hyperbolicity.delta_slim.array_bytes", 0)),
}


def wall(rounds, keep=None):
    """Time of the op list once: the sum over ops of each op's shortest time
    across rounds.  On a shared machine, bursts of outside load lasting
    seconds slow every op they overlap by up to a third; the shortest of
    dozens of rounds is the op's own cost, and it repeats to a few percent
    where the median over rounds does not.  ``keep`` selects op indices."""
    per_op = zip(*[r.op_seconds for r in rounds])
    return sum(min(t) for i, t in enumerate(per_op) if keep is None or i in keep)


def reference(rounds):
    """Time of the reference computations once, each at its shortest time
    across rounds, as ``wall`` takes the ops."""
    return sum(min(t) for t in zip(*[r.ref_seconds for r in rounds]))


def end_to_end(untraced, setup_s, peak_rss_mb):
    """``wall_ref`` is ``wall`` in units of ``reference``, both from the
    same rounds: a slower host slows both alike, a slower library only the
    first."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_ref": (wall(untraced) / reference(untraced), "x_ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def throughput(untraced, is_basis_seconds):
    out = {name: (median([fn(r) for r in untraced]), unit)
           for name, (unit, fn) in THROUGHPUT.items()}
    out["fold.decide_p50_ms"] = (1000 * median(is_basis_seconds), "ms")
    return out


def per_layer(untraced, traced, is_basis_seconds):
    out = {}
    for name in SPANS:
        out[name + ".busy_s"] = (median([busy(r, {name}) for r in traced]), "s")
        out[name + ".calls"] = (median([calls(r, {name}) for r in traced]), "count")
    for name, (unit, fn) in COUNTS.items():
        out[name] = (median([fn(r) for r in traced]), unit)
    out.update(throughput(untraced, is_basis_seconds))
    out["wall_s"] = (wall(untraced), "s")
    out["reference_s"] = (reference(untraced), "s")
    traced_wall = wall(traced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - wall(untraced), "s")
    return out
