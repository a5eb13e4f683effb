"""Workload ``fb-ball``: the free-bases graph.  Mostly the complexes layer,
with words inside it, plus the deltas of the sampled balls.

A round samples balls around the standard basis at ranks 3 and 4 and
measures both deltas of each; decides equivalence and adjacency at ranks
4-6 for three kinds of pair (disguised copies, same-key partial
conjugates, Nielsen neighbours), which take the three paths through
fb_equivalent (search that succeeds, exhaustive search that fails, early
exit on differing class keys); builds folding chains of short bases; and
builds h-Lipschitz witness paths with a JSON round trip, whose rank-4 cases
carry fault F1.
"""

import json
import random

import oracle as o
from harness import Op
from inputs import inverse, nielsen_basis, random_word, reduce

THROUGHPUT = ("fb.ball_s", "fb.queries_per_s", "fb.chain_s", "fb.ball_delta_s")

# (rank, walks, moves).  Sixteen small balls rather than a few large ones:
# ball sizes vary with the walks, and the deltas grow like n^4, so a few
# large balls would make the round's cost swing with the seed.
BALLS = [(3, 7, 4)] * 8 + [(4, 6, 3)] * 8
PAIR_RANKS = (4, 5, 6)
# The exhaustive search of fb_equivalent takes about 0.7 s at rank 6, as
# long as the rest of the round together; a run would repeat it too few
# times for its shortest time to settle (see metrics.wall).  So at rank 6
# only the Nielsen neighbours run, and the same-key pairs (the failing
# exhaustive search) and disguised copies run at ranks 4 and 5.
DISGUISED_RANKS = (4, 5)
SAME_KEY_RANKS = (4, 5)
SAME_KEY_ADJACENT_RANKS = (4, 5)
PAIR_LETTERS_PER_WORD = 6
CHAINS = [(3, 20), (3, 30), (3, 40), (4, 24), (4, 36), (4, 48)]  # (rank, L)
WITNESS_RANK3 = 3  # seeded pairs at rank 3
WITNESS_RANK4 = 2  # fixed pairs at rank 4 (fault F1)
BALL_LOWER_SAMPLES = 4000


def _balanced(rng, rank, per_word):
    """Basis with every word per_word +- 1 letters long, the word with the
    longest cyclic core first.  fb_equivalent searches powers of
    the first word up to a bound inversely proportional to that core's
    length, so this keeps its cost about the same from seed to seed."""
    b = nielsen_basis(rng, rank, per_word - 1, per_word + 1)
    return tuple(sorted(b, key=lambda w: -len(o.cyclic_core(w))))


def _relabel(rng, basis):
    """Image of the basis under a random signed permutation of the
    generators, an automorphism of the free group."""
    rank = len(basis)
    image = list(range(1, rank + 1))
    rng.shuffle(image)
    image = [x * rng.choice((1, -1)) for x in image]
    return tuple(tuple(image[x - 1] if x > 0 else -image[-x - 1] for x in w) for w in basis)


def _disguise(a, g):
    """Keep a1 first, reverse the order of the rest, invert every other word
    and conjugate all by g: the same free-bases vertex.  fb_equivalent tries
    permutations in lexicographic order, so it finds this one at the end of
    the block of permutations fixing a1, the same block it exhausts on a
    same-key pair."""
    n = len(a)
    order = [0] + list(range(n - 1, 0, -1))
    return tuple(o.conjugate(a[i] if k % 2 == 0 else inverse(a[i]), g)
                 for k, i in enumerate(order))


def build(fb, seed):
    rng = random.Random("fb-ball:%d" % seed)
    ops = []
    balls = {}  # ball index -> sampled graph, filled by the ball op

    for idx, (rank, walks, moves) in enumerate(BALLS):
        seeds = [rng.randrange(10**6) for _ in range(walks)]
        center = fb.FBVertex(tuple((i,) for i in range(1, rank + 1)))
        ops.append(Op("ball", _ball(fb, center, seeds, moves, idx, balls), _check_ball(rank)))
    for idx in range(len(BALLS)):
        ops.append(Op("ball_delta", _ball_delta(fb, idx, balls), _check_ball_delta(idx)))

    # The pair bases are a fixed template per rank with the generators
    # relabelled by a seeded signed permutation.  The cost of the exhaustive
    # search changes by about 10% with the words themselves, and a single
    # rank-6 search is a third of the round, so the seed changes the letters
    # but not the lengths and overlaps that set that cost.
    template = random.Random("fb-ball:pairs")
    for rank in PAIR_RANKS:
        a = _relabel(rng, _balanced(template, rank, PAIR_LETTERS_PER_WORD))
        g = random_word(rng, rank, 3)
        same_key = a[:-1] + (o.conjugate(a[-1], a[0]),)
        neighbour = (a[0], reduce(a[1] + a[2])) + a[2:]
        A = fb.FBVertex(a)
        if rank in DISGUISED_RANKS:
            ops.append(Op("fb_disguised", _equivalent(fb, A, fb.FBVertex(_disguise(a, g))),
                          _expect_equivalent(True)))
        if rank in SAME_KEY_RANKS:
            adjacent = rank in SAME_KEY_ADJACENT_RANKS
            ops.append(Op("fb_same_key",
                          _equiv_and_adjacent(fb, A, fb.FBVertex(same_key), adjacent),
                          _check_same_key(a, same_key, adjacent)))
        ops.append(Op("fb_neighbour", _equiv_and_adjacent(fb, A, fb.FBVertex(neighbour), True),
                      _check_neighbour(a, neighbour)))

    for rank, length in CHAINS:
        b = nielsen_basis(rng, rank, 0.8 * length / rank, 1.2 * length / rank)
        ops.append(Op("folding_chain", _chain(fb, fb.FBVertex(b)), _check_chain(b)))

    for _ in range(WITNESS_RANK3):
        a = nielsen_basis(rng, 3, 5, 7)
        ops.append(_witness_op(fb, "witness_rank3", a))
    fixed = random.Random("fb-ball:F1")
    for _ in range(WITNESS_RANK4):
        a = nielsen_basis(fixed, 4, 5, 7)
        ops.append(_witness_op(fb, "witness_rank4", a))
    return ops


def _witness_op(fb, kind, a):
    """a and its neighbour a1 -> a1 a2 share a2, so they are adjacent."""
    b = (reduce(a[0] + a[1]),) + a[1:]
    return Op(kind, _witness(fb, fb.FBVertex(a), fb.FBVertex(b)), _check_witness(a, b))


# -- ops -------------------------------------------------------------------


def _ball(fb, center, seeds, moves, idx, balls):
    def run(rec):
        graph, labels = rec.call("complexes.sample_fb_ball", fb.sample_fb_ball,
                                 center, seeds, moves)
        m = len(graph)
        rec.count("complexes.ball.candidates", sum(len(x["sources"]) for x in labels))
        rec.count("complexes.ball.vertices", m)
        rec.count("complexes.ball.edges", len(graph.edges))
        rec.count("complexes.ball.pairs", m * (m - 1) // 2)
        balls[idx] = graph
        return graph, labels
    return run


def _ball_delta(fb, idx, balls):
    def run(rec):
        g = balls[idx]
        dist = rec.call("hyperbolicity.apsp", g.distance_matrix)
        d4 = rec.call("hyperbolicity.delta_four_point", fb.delta_four_point, g)
        ds = rec.call("hyperbolicity.delta_slim", fb.delta_slim, g)
        n = len(g)
        rec.high("hyperbolicity.delta_slim.array_bytes", 5 * n ** 3)  # int32 + bool
        return g, dist, d4, ds
    return run


def _equivalent(fb, a, b):
    def run(rec):
        return rec.call("complexes.fb_equivalent", fb.fb_equivalent, a, b)
    return run


def _equiv_and_adjacent(fb, a, b, adjacent):
    def run(rec):
        eq = rec.call("complexes.fb_equivalent", fb.fb_equivalent, a, b)
        cert = rec.call("complexes.fb_adjacent", fb.fb_adjacent, a, b) if adjacent else None
        return eq, cert
    return run


def _chain(fb, b):
    def run(rec):
        m, path, bases = rec.call("complexes.folding_chain", fb.folding_chain, b)
        rec.count("folding.single_folds", sum(len(s) for s in path.steps))
        rec.count("folding.graphs_built", len(path.graphs))
        return path, bases
    return run


def _witness(fb, a, b):
    def roundtrip(path):
        data = json.loads(json.dumps(path.to_json_dict()))
        back = fb.witness_path_from_json(data)
        return back, back.validate()

    def run(rec):
        path = rec.call("complexes.h_lipschitz_path", fb.h_lipschitz_path, a, b)
        back, problems = rec.call("complexes.witness_roundtrip", roundtrip, path)
        return path, back, problems
    return run


# -- checks ----------------------------------------------------------------


def _keys(basis):
    return {o.class_key(w) for w in basis}


def _check_ball(rank):
    """Reps are bases; two reps are joined exactly when some element of one
    is conjugate to an element of the other or its inverse, that is, when
    their class-key sets intersect."""
    def check(result):
        graph, labels = result
        bases = [tuple(o.parse_word(w) for w in x["basis"].split(",")) for x in labels]
        problems = []
        if any(abs(o.ab_det(b, rank)) != 1 for b in bases):
            problems.append("a ball vertex is not a basis")
        keys = [_keys(b) for b in bases]
        expected = {(i, j) for i in range(len(keys)) for j in range(i + 1, len(keys))
                    if keys[i] & keys[j]}
        if set(graph.edges) != expected:
            problems.append("ball edges differ from the class-key intersections "
                            "(%d vs %d)" % (len(graph.edges), len(expected)))
        return problems
    return check


def _check_ball_delta(idx):
    """apsp equals our BFS; both deltas lie between a sampled lower bound
    and half the diameter."""
    memo = {}

    def check(result):
        g, dist, d4, ds = result
        key = frozenset(g.edges)
        if key not in memo:
            adj = o.adjacency(len(g), g.edges)
            ref = o.bfs_distances(adj)
            memo.clear()
            memo[key] = (ref, o.diameter(ref),
                         o.four_point_lower(ref, BALL_LOWER_SAMPLES, idx),
                         o.slim_lower(adj, ref, BALL_LOWER_SAMPLES // 10, idx))
        ref, diam, low4, lows = memo[key]
        problems = []
        if dist.tolist() != ref:
            problems.append("apsp differs from BFS")
        if not low4 <= d4 <= diam / 2:
            problems.append("four-point delta %s outside [%s, %s]" % (d4, low4, diam / 2))
        if not lows <= ds <= diam // 2:
            problems.append("slim delta %s outside [%s, %s]" % (ds, lows, diam // 2))
        return problems
    return check


def _expect_equivalent(value):
    def check(result):
        return [] if result is value else ["fb_equivalent returned %r" % (result,)]
    return check


def _cert_problems(cert, a, b):
    if cert is None:
        return ["no adjacency certificate"]
    target = b[cert.j - 1] if cert.sign > 0 else inverse(b[cert.j - 1])
    if o.conjugate(a[cert.i - 1], cert.conjugator) != target:
        return ["certificate does not re-verify"]
    return []


def _check_same_key(a, b, adjacent):
    """b replaces a_n by a1^-1 a_n a1.  The class keys agree, so an
    equivalence would have to fix every position; the conjugator would then
    centralize a1 and a2, so it is trivial, but a1 does not commute with
    a_n.  Hence adjacent (they share a1) but not equivalent."""
    def check(result):
        eq, cert = result
        problems = []
        if sorted(map(o.class_key, a)) != sorted(map(o.class_key, b)):
            problems.append("class keys differ")
        if b[-1] == a[-1]:
            problems.append("a1 commutes with a_n")
        if eq is not False:
            problems.append("fb_equivalent returned %r" % (eq,))
        return problems + (_cert_problems(cert, a, b) if adjacent else [])
    return check


def _check_neighbour(a, b):
    """A Nielsen move changes one class key (abelianization), so the
    vertices differ; they share every other element."""
    def check(result):
        eq, cert = result
        problems = []
        if sorted(map(o.class_key, a)) == sorted(map(o.class_key, b)):
            problems.append("class keys agree")
        if eq is not False:
            problems.append("fb_equivalent returned %r" % (eq,))
        return problems + _cert_problems(cert, a, b)
    return check


def _check_chain(b):
    rank = len(b)

    def check(result):
        path, bases = result
        problems = []
        if bases[0].basis != b:
            problems.append("chain does not start at the input")
        if bases[-1].basis != tuple((i,) for i in range(1, rank + 1)):
            problems.append("chain does not end at the standard basis")
        if any(abs(o.ab_det(v.basis, rank)) != 1 for v in bases):
            problems.append("a chain vertex is not a basis")
        if len(bases) != len(path.graphs):
            problems.append("one basis per graph expected")
        steps = [s for group in path.steps for s in group]
        letters = len(path.graphs[0].edges) // 2
        if len(steps) != letters - rank or any(s.kind != "I" for s in steps):
            problems.append("folding a basis takes L - rank folds of kind I")
        return problems
    return check


def _check_witness(a, b):
    def check(result):
        path, back, problems = result
        problems = list(problems)
        if back != path:
            problems.append("round trip changed the path")
        if path.length > 4:
            problems.append("length %d exceeds 4" % path.length)
        vs = path.vertices
        if (vs[0].ambient, set(vs[0].subset)) != (a, {1}):
            problems.append("path does not start at h(a)")
        if (vs[-1].ambient, set(vs[-1].subset)) != (b, {1}):
            problems.append("path does not end at h(b)")
        for u, w, step in zip(vs, vs[1:], path.steps):
            if step.kind == "nested":
                ok = u.ambient == w.ambient and (u.subset < w.subset or w.subset < u.subset)
            else:
                uw = u.ambient[min(u.subset) - 1]
                ww = w.ambient[min(w.subset) - 1]
                ok = (len(u.subset) == len(w.subset) == 1 and o.conjugate(uw, step.conjugator)
                      == (ww if step.sign > 0 else inverse(ww)))
            if not ok:
                problems.append("a %s step does not re-verify" % step.kind)
        return problems
    return check
