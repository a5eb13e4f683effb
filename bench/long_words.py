"""Workload ``long-words``: folding, membership, conjugacy and subgroup
equality on long words.  Only the words, agraph and folding layers run.

Per basis slot (rank, total length L, wedge class) the round decides the
basis and its squared-first-word variant, folds the basis to the rose,
folds the wedge of the subgroup H = <b1^2, b2, ..., bn> and traces
membership queries through that folded graph, and runs conjugacy queries
on disguised conjugates of long words.  Small subgroups then get equality
queries; two fixed large ones carry fault F2.
"""

import random

import oracle as o
from harness import Op
from inputs import inverse, nielsen_basis, random_word, reduce, wedge_class

THROUGHPUT = ("fold.letters_per_s", "fold.decide_p50_ms", "fold.path_letters_per_s",
              "member.letters_per_s", "conj.letters_per_s")

# (rank, L, wedge class).  The class fixes which path the library's basis
# test takes (see inputs.wedge_class), so that its cost does not swing with
# the seed; all four paths are present.  Each rank takes the classes that
# are common among its bases of these lengths (rank 3: mixed and
# unrepairable; rank 4: foldable and mixed, and repaired ones made from
# foldable ones), so that drawing a basis of the class takes few tries and
# set-up time does not swing with the seed either.  Many mid-sized slots
# rather than a few long ones keep a round to about two seconds and average
# out what varies; the costliest path, unrepairable, comes in small slots.
SLOTS = [
    (3, 40, "mixed"),
    (3, 50, "unrepairable"),
    (3, 50, "unrepairable"),
    (3, 60, "unrepairable"),
    (3, 60, "unrepairable"),
    (3, 70, "mixed"),
    (4, 48, "repaired"),
    (4, 56, "foldable"),
    (4, 64, "mixed"),
    (4, 80, "foldable"),
    (4, 80, "mixed"),
    (4, 80, "repaired"),
]
MEMBER_QUERIES = 3  # members and as many non-members per subgroup
QUERY_LETTERS = 2500
CONJ_LETTERS = 1500
CONJUGATOR_LETTERS = 40
# Small subgroup-equality inputs stay far below the F2 threshold: L <= 80
# keeps every folded graph under 160 vertices.
EQUAL_SLOTS = [(3, 36), (3, 44), (4, 40), (4, 48)]
# Fixed (seed-independent) large subgroups: word lengths give folded graphs
# of about 330 and 450 vertices, far above the F2 threshold.
F2_INPUTS = [(3, 112), (4, 114)]


def _balanced(rng, rank, length):
    """Basis of total length within 10% of ``length``, with words of about
    equal length: the longest word sets the cost of the library's
    conjugation search, so it must not swing with the seed."""
    return nielsen_basis(rng, rank, 0.9 * length / rank, 1.1 * length / rank)


def _basis(rng, rank, length, cls):
    for _ in range(5000):
        if cls == "repaired":
            # conjugating every word by one letter c breaks foldability in
            # a way that a power of c repairs
            b0 = _balanced(rng, rank, length - 2 * rank)
            c = (rng.randrange(rank) + 1) * rng.choice((1, -1))
            b = tuple(reduce((-c,) + w + (c,)) for w in b0)
        else:
            b = _balanced(rng, rank, length)
        if wedge_class(b) == cls:
            return tuple(sorted(b, key=len))
    raise RuntimeError("no %s basis found for rank %d, L %d" % (cls, rank, length))


def _product(rng, gens, letters, extra=None):
    """Reduced product of random generators^+-1 with at least ``letters``
    letters; ``extra`` is inserted once at a random position."""
    factors = []
    while sum(len(f) for f in factors) < letters:
        g = gens[rng.randrange(len(gens))]
        factors.append(g if rng.random() < 0.5 else inverse(g))
    if extra is not None:
        factors.insert(rng.randrange(len(factors) + 1), extra)
    return reduce(tuple(x for f in factors for x in f))


def _square_first(b):
    return (reduce(b[0] + b[0]),) + b[1:]


def _letters(ws):
    return sum(len(w) for w in ws)


def _labels_of_rose(rank):
    return sorted(list(range(1, rank + 1)) + list(range(-rank, 0)))


def build(fb, seed):
    rng = random.Random("long-words:%d" % seed)
    ops = []
    folded = {}  # slot index -> folded graph of H, filled by the fold op

    for idx, (rank, length, cls) in enumerate(SLOTS):
        b = _basis(rng, rank, length, cls)
        sq = _square_first(b)
        L, LH = _letters(b), _letters(sq)
        ops += [
            Op("decide_basis", _decide(fb, b, rank), _expect_basis(b, rank, True)),
            Op("decide_nonbasis", _decide(fb, sq, rank), _expect_basis(sq, rank, False)),
            Op("fold_to_rose", _to_rose(fb, b, rank), _check_rose(L, rank)),
            Op("fold_subgroup", _fold_subgroup(fb, sq, rank, idx, folded),
               _check_subgroup(LH, rank)),
        ]
        queries = []
        for k in range(2 * MEMBER_QUERIES):
            member = k % 2 == 0
            extra = None if member else (b[0] if rng.random() < 0.5 else inverse(b[0]))
            queries.append((_product(rng, sq, QUERY_LETTERS, extra), member))
        for q, member in queries:
            ops.append(Op("membership", _member(fb, q, idx, folded),
                          _check_member(q, member, b, rank)))
        u = _product(rng, b, CONJ_LETTERS)
        w = o.conjugate(u, random_word(rng, rank, CONJUGATOR_LETTERS))
        ops.append(Op("conjugacy", _conj(fb, u, w), _check_conj(u, w)))

    for rank, length in EQUAL_SLOTS:
        b = _balanced(rng, rank, length)
        h = _square_first(b)
        same = (reduce(h[1] + h[0]), inverse(h[0])) + h[2:]
        other = (reduce(b[1] + b[1]), b[0]) + b[2:]
        ops.append(Op("subgroup_equal", _equal(fb, h, same, rank), _expect(True)))
        # b1 generates part of `other` but has odd b1 exponent, so it is not
        # in H = <b1^2, b2, ...>: the subgroups differ
        ops.append(Op("subgroup_equal", _equal(fb, h, other, rank), _expect(False)))

    fixed = random.Random("long-words:F2")
    for rank, length in F2_INPUTS:
        us = tuple(_edge_word(fixed, rank, length, i + 1) for i in range(rank))
        same = (inverse(us[-1]),) + us[:-1]
        ops.append(Op("subgroup_equal_large", _equal(fb, us, same, rank), _expect(True)))
    return ops


def _edge_word(rng, rank, length, letter):
    """Reduced word of the given length starting and ending with ``letter``.
    A wedge of such words with distinct letters is already folded, so the
    op spends its time in labeled_isomorphic."""
    while True:
        w = (letter,) + random_word(rng, rank, length - 2) + (letter,)
        if o.reduce(w) == w:
            return w


# -- ops -------------------------------------------------------------------


def _decide(fb, words, rank):
    def run(rec):
        rec.count("fold.letters", _letters(words))
        return rec.call("folding.is_basis", fb.is_basis, words, rank)
    return run


def _to_rose(fb, words, rank):
    def run(rec):
        path = rec.call("folding.fold_to_rose", fb.fold_to_rose, words, rank)
        rec.count("fold.path_letters", _letters(words))
        rec.count("folding.single_folds", sum(len(s) for s in path.steps))
        rec.count("folding.graphs_built", len(path.graphs))
        return path
    return run


def _fold_subgroup(fb, gens, rank, idx, folded):
    def run(rec):
        wedge = rec.call("folding.wedge_graph", fb.wedge_graph, gens, rank)
        g, steps = rec.call("folding.fold_completely", fb.fold_completely, wedge)
        rec.count("fold.path_letters", _letters(gens))
        rec.count("folding.single_folds", len(steps))
        folded[idx] = g
        return g, steps
    return run


def _member(fb, q, idx, folded):
    def run(rec):
        rec.count("member.letters", len(q))
        return rec.call("folding.subgroup_membership", fb.subgroup_membership, q, folded[idx])
    return run


def _conj(fb, u, w):
    def run(rec):
        g = rec.call("words.find_conjugator", fb.find_conjugator, u, w)
        nu = rec.call("words.cyclic_normal_form", fb.cyclic_normal_form, u)
        nw = rec.call("words.cyclic_normal_form", fb.cyclic_normal_form, w)
        rec.count("conj.letters", 2 * (len(u) + len(w)))
        return g, nu, nw
    return run


def _equal(fb, gens1, gens2, rank):
    def run(rec):
        g1, _ = rec.call("folding.fold_completely", fb.fold_completely,
                         rec.call("folding.wedge_graph", fb.wedge_graph, gens1, rank))
        g2, _ = rec.call("folding.fold_completely", fb.fold_completely,
                         rec.call("folding.wedge_graph", fb.wedge_graph, gens2, rank))
        rec.count("agraph.iso.vertices", len(g1.vertices) + len(g2.vertices))
        return rec.call("agraph.labeled_isomorphic", fb.labeled_isomorphic, g1, g2)
    return run


# -- checks ----------------------------------------------------------------


def _expect(value):
    def check(result):
        return [] if result is value else ["returned %r, expected %r" % (result, value)]
    return check


def _expect_basis(words, rank, is_basis):
    """Bases have abelianization determinant +-1; squaring the first word of
    a basis doubles it, so the variant is no basis (parity argument)."""
    def check(result):
        det = o.ab_det(words, rank)
        problems = []
        if is_basis and abs(det) != 1:
            problems.append("generated basis has determinant %d" % det)
        if not is_basis and abs(det) != 2:
            problems.append("squared variant has determinant %d" % det)
        if result is not is_basis:
            problems.append("is_basis returned %r, expected %r" % (result, is_basis))
        return problems
    return check


def _check_rose(letters, rank):
    def check(path):
        steps = [s for group in path.steps for s in group]
        problems = []
        if len(steps) != letters - rank:
            problems.append("%d single folds, expected L - rank = %d" % (len(steps), letters - rank))
        if any(s.kind != "I" for s in steps):
            problems.append("fold of kind II while folding a basis")
        final = path.graphs[-1]
        if len(final.vertices) != 1:
            problems.append("final graph has %d vertices" % len(final.vertices))
        if sorted(e.label for e in final.edges.values()) != _labels_of_rose(rank):
            problems.append("final labels are not +-1..+-rank")
        return problems
    return check


def _check_subgroup(letters, rank):
    """H is free on its rank-many generators, so folding keeps the Betti
    number: every fold is of kind I, their number is the drop in vertex
    count, and the folded graph has Betti number rank."""
    def check(result):
        g, steps = result
        problems = []
        if any(s.kind != "I" for s in steps):
            problems.append("a fold of kind II on a rank-preserving wedge")
        expected = (letters - rank + 1) - len(g.vertices)
        if len(steps) != expected:
            problems.append("%d single folds, expected %d" % (len(steps), expected))
        out = [(e.src, e.label) for e in g.edges.values()]
        if len(out) != len(set(out)):
            problems.append("result is not folded")
        betti = len(g.edges) // 2 - len(g.vertices) + 1
        if betti != rank:
            problems.append("folded graph has Betti number %d, expected %d" % (betti, rank))
        return problems
    return check


def _check_member(q, member, basis, rank):
    """Members are products of H's generators.  A non-member carries one
    extra b1^+-1, so its b1 exponent in the basis is odd, while every
    element of H = <b1^2, b2, ...> has an even one."""
    parity = []

    def check(result):
        if not parity:
            parity.append(o.coefficients(q, basis, rank)[0] % 2)
        problems = []
        if parity[0] != (0 if member else 1):
            problems.append("query has b1 exponent parity %d" % parity[0])
        if result is not member:
            problems.append("membership returned %r, expected %r" % (result, member))
        return problems
    return check


def _check_conj(u, w):
    def check(result):
        g, nu, nw = result
        nf = o.normal_form(u)
        problems = []
        if g is None or o.conjugate(u, g) != w:
            problems.append("conjugator does not satisfy g^-1 u g = w")
        if tuple(nu) != nf or tuple(nw) != nf:
            problems.append("normal forms differ from the least rotation")
        return problems
    return check
