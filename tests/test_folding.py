"""Tests for Stallings folds: wedges, fold steps, complete folding paths,
basis recognition, the naive-order confluence oracle, and the rebuild
oracles and the union-find folder that the fold engine replaced."""

import random
from collections import Counter

import pytest

from freebases import folding
from freebases.agraph import (
    AGraph,
    Edge,
    _step_table,
    has_loop_labeled,
    is_folded,
    is_rose,
    labeled_isomorphic,
    rose,
)
from freebases.complexes import FBVertex, folding_chain
from freebases.errors import DomainError, FoldabilityError
from freebases.folding import (
    _LiveGraph,
    ensure_foldable,
    fold_completely,
    fold_to_rose,
    is_basis,
    maximal_fold,
    random_basis,
    single_fold,
    smooth,
    subgroup_membership,
    wedge_graph,
)
from freebases.words import conjugate, invert, parse_word, parse_words, power, reduce

from oracles import (
    chain_walk_smooth,
    naive_folded_graph,
    num_topological_edges,
    rebuild_ensure_foldable,
    rebuild_fold_to_rose,
    rebuild_wedge_graph,
    replay_folding_chain,
    scan_subgroup_membership,
    union_find_fold,
)

X = parse_words("a,b,c")


def test_wedge_of_standard_basis_is_rose():
    assert labeled_isomorphic(wedge_graph(X), rose(3))


def test_wedge_counts():
    g = wedge_graph(parse_words("ab,b,c"))
    assert len(g.vertices) == 2
    assert num_topological_edges(g) == 4


def test_wedge_rejects_empty_word():
    with pytest.raises(DomainError):
        wedge_graph(((1,), (), (3,)))


def test_ensure_foldable_strips_one_conjugation():
    m, b2 = ensure_foldable(parse_words("a,abA,acA"))
    assert m == -1
    assert b2 == X
    assert fold_to_rose(b2).foldable[0]


def test_ensure_foldable_noop_when_foldable():
    m, b2 = ensure_foldable(parse_words("ab,b,c"))
    assert m == 0
    assert b2 == parse_words("ab,b,c")


def test_ensure_foldable_strips_two():
    m, b2 = ensure_foldable(parse_words("a,aabAA,aacAA"))
    assert m == -2
    assert b2 == X


def test_ensure_foldable_may_need_a_power_past_half_the_longest_word():
    # A^5 b A^2 and a^2 B c a^5: no power of a below the fifth gives the
    # wedge point three labels, and the longest word has nine letters
    b2 = ((2,) + (-1,) * 7, (1,) * 7 + (-2, 3))
    assert ensure_foldable(((-1,) * 5 + (2, -1, -1), (1, 1, -2, 3) + (1,) * 5)) == (5, b2)


def test_ensure_foldable_at_rank_one():
    # one word meets the wedge point twice, so two labels are all it can see
    assert ensure_foldable(((1,),), 1) == (0, ((1,),))


def test_ensure_foldable_mixed_boundary_fails():
    with pytest.raises(FoldabilityError):
        ensure_foldable(parse_words("aB,aaB,abaB"))


def test_ensure_foldable_commuting_powers_fail():
    with pytest.raises(FoldabilityError):
        ensure_foldable(((1, 1), (1, 1, 1), (1, 1, 1, 1)))


def test_single_fold_type1_merges_leaves():
    edges = [
        Edge(0, 1, 0, 1, 1), Edge(1, 0, 1, 0, -1),
        Edge(2, 3, 0, 2, 1), Edge(3, 2, 2, 0, -1),
        Edge(4, 5, 0, 0, 2), Edge(5, 4, 0, 0, -2),
    ]
    g = AGraph([0, 1, 2], edges, base=0)
    folded, step = single_fold(g, 0, 2)
    assert step.kind == "I"
    assert len(folded.vertices) == 2


def test_single_fold_type2_drops_betti():
    edges = [
        Edge(0, 1, 0, 1, 1), Edge(1, 0, 1, 0, -1),
        Edge(2, 3, 0, 1, 1), Edge(3, 2, 1, 0, -1),
    ]
    g = AGraph([0, 1], edges)
    folded, step = single_fold(g, 0, 2)
    assert step.kind == "II"
    assert folded.betti() == g.betti() - 1


def test_single_fold_requires_shared_origin_and_label():
    g = rose(3)
    with pytest.raises(ValueError):
        single_fold(g, 0, 2)


def test_single_fold_refuses_to_fold_an_edge_with_itself():
    g = wedge_graph(parse_words("ab,b,c"))
    for eid in (0, 5):
        with pytest.raises(ValueError, match="cannot fold an edge with itself"):
            single_fold(g, eid, eid)


def test_single_fold_refuses_an_edge_not_in_the_graph():
    g = wedge_graph(parse_words("ab,b,c"))
    for pair in ((0, 99), (99, 0), (-1, -1), (None, 2)):
        with pytest.raises(ValueError, match="not in graph"):
            single_fold(g, *pair)


def test_single_fold_of_wedge_reaches_rose():
    g = wedge_graph(parse_words("ab,b,c"))
    pairs = [
        (e1.id, e2.id)
        for e1 in g.out_edges(0)
        for e2 in g.out_edges(0)
        if e1.id < e2.id and e1.label == e2.label
    ]
    assert len(pairs) == 1
    folded, step = single_fold(g, *pairs[0])
    assert step.kind == "I"
    assert labeled_isomorphic(folded, rose(3))


def test_maximal_fold_single_step():
    g = wedge_graph(parse_words("ab,b,c"))
    folded, steps = maximal_fold(g)
    assert len(steps) == 1
    assert labeled_isomorphic(folded, rose(3))


def test_maximal_fold_follows_the_common_segment():
    g = wedge_graph((parse_word("abc"), parse_word("bc")))
    folded, steps = maximal_fold(g)
    assert len(steps) == 2
    assert is_folded(folded)


def test_maximal_fold_rejects_folded_input():
    folded = fold_completely(wedge_graph(parse_words("aa,b,c")))[0]
    for g in (rose(3), folded):
        with pytest.raises(DomainError, match="already folded"):
            maximal_fold(g)


def test_fold_to_rose_trivial():
    path = fold_to_rose(X)
    assert len(path.graphs) == 1
    assert labeled_isomorphic(path.graphs[0], rose(3))


def test_fold_to_rose_one_fold():
    path = fold_to_rose(parse_words("ab,b,c"))
    assert len(path.graphs) == 2
    assert labeled_isomorphic(path.graphs[-1], rose(3))
    assert all(path.foldable)


def test_fold_to_rose_non_basis_terminates_off_rose():
    path = fold_to_rose(parse_words("aa,b,c"))
    final = path.graphs[-1]
    assert is_folded(final)
    assert not labeled_isomorphic(final, rose(3))


def test_is_basis_examples():
    assert is_basis(X)
    assert is_basis(parse_words("ab,b,c"))
    assert not is_basis(parse_words("aa,b,c"))
    # an empty word has no loop to give; numbered as one, the wedge of
    # a, bc would read as the rose
    assert not is_basis(((1,), (), (2, 3)))


def test_is_basis_wrong_count():
    with pytest.raises(DomainError):
        is_basis(parse_words("a,b"))


def test_subgroup_membership():
    g = fold_to_rose(parse_words("aa,b,c")).graphs[-1]
    assert subgroup_membership((), g)
    assert subgroup_membership(parse_word("aa"), g)
    assert not subgroup_membership(parse_word("a"), g)
    # unreduced, the query would step along a b-edge that the a-vertex lacks
    assert subgroup_membership((1, 2, -2, 1), g)
    assert not subgroup_membership(iter((1,)), g)
    assert subgroup_membership(iter((1, 2, -2, 1)), g)


def test_subgroup_membership_agrees_with_scan_oracle():
    rng = random.Random(23)
    graphs = [AGraph([0], {}, base=0, rank=2), wedge_graph(parse_words("ab,b,c"))]
    graphs.append(graphs[-1].with_base(None))
    # two parallel a-edges from 0 to 1: not folded, though no edge repeats
    parallel = AGraph([0, 1], [Edge(0, 1, 0, 1, 1), Edge(1, 0, 1, 0, -1),
                               Edge(2, 3, 0, 1, 1), Edge(3, 2, 1, 0, -1)], base=0)
    with pytest.raises(DomainError, match="folded"):
        subgroup_membership((1, -1), parallel)
    assert _step_table(parallel) is None and parallel._step is None  # kept, not rebuilt
    graphs.append(parallel)
    gens = {}
    for rank in (2, 3, 4, 28):
        for seed in range(5):
            b = random_basis(seed, 6, rank)
            for words in (b, (reduce(b[0] + b[0]),) + b[1:], b[1:]):
                g = fold_completely(wedge_graph(words, rank))[0]
                assert _step_table(g) is _step_table(g) is not None
                graphs.append(g)
                gens[id(g)] = words
    answers, kinds = set(), Counter()
    for g in graphs:
        words = gens.get(id(g), ((1,),))
        letters = [s * i for i in range(1, g.rank + 1) for s in (1, -1)]
        queries = [(), (g.rank + 1,), (1, -(g.rank + 1)), (0,), (1.0,), (True,), (True, -1)]
        for _ in range(12):
            member = ()
            for _ in range(rng.randrange(1, 6)):
                w = rng.choice(words)
                member += w if rng.random() < 0.5 else invert(w)
            cut = rng.randrange(len(member) + 1)
            x = rng.choice(letters)
            queries += [member, member[:cut] + (x, -x) + member[cut:],
                        member + (x,), tuple(rng.choice(letters) for _ in range(6)),
                        member[:cut] + (g.rank + 1,) + member[cut:],
                        member + (g.rank + 1, -(g.rank + 1)),
                        member[:cut] + (rng.choice((0, 1.0, True)),) + member[cut:]]
            # a cancelling pair whose first letter has no edge where it is read
            if g.base is not None and is_folded(g):
                v = g.base
                for letter in member[:cut]:
                    v = next((e.dst for e in g.out_edges(v) if e.label == letter), None)
                    if v is None:
                        break
                off = v is not None and [
                    y for y in letters if all(e.label != y for e in g.out_edges(v))]
                if off:
                    y = rng.choice(off)
                    queries.append(member[:cut] + (y, -y) + member[cut:])
                    kinds["falls off, then cancels"] += 1
        for q in queries:
            outcome = _outcome(subgroup_membership, q, g)
            assert outcome == _outcome(scan_subgroup_membership, q, g), (q, g.to_json_dict())
            assert _outcome(subgroup_membership, iter(q), g) == outcome, q
            answers.add(outcome[:2])
            kinds[outcome[:2]] += 1
    assert answers == {("ok", True), ("ok", False), ("error", "DomainError"),
                       ("error", "ValueError")}
    assert kinds["falls off, then cancels"] >= 100, kinds


def test_subgroup_membership_exit_after_the_walk_falls_off(monkeypatch):
    """H = <aa, b, c>: the walk falls off at the second letter of each query
    below.  A reduced rest of int letters answers False at once, without
    ``reduce``; a rest that cancels back into the graph is reduced and walks
    on; bad letters past the fall-off raise as in ``reduce``, and bools
    read as today."""
    g = fold_completely(wedge_graph(parse_words("aa,b,c")))[0]
    cases = [((1, 2), False), ((1, 2, 3, -1, 2), False), ((1, 2, 1, 1, 2), False),
             ((1, 2, -2, 1), True), ((1, 3, 2, -2, -3, 1), True), ((1, 2, 3, -3, -2, 1, 2), True),
             ((1, 2, 4), ValueError), ((1, 2, -4, 4), ValueError), ((1, 2, 0), ValueError),
             ((1, 2, 2.0), ValueError), ((1, 2, -2, 1.0), ValueError),
             ((True, True), True), ((True, 2), False), ((1, 2, -2, True), True)]
    real, reduced = folding.reduce, []
    monkeypatch.setattr(folding, "reduce", lambda w, rank=None: reduced.append(w) or real(w, rank))
    for q, want in cases:
        del reduced[:]
        outcome = _outcome(subgroup_membership, q, g)
        assert (not reduced) == (want is False and {type(x) for x in q} == {int}), q
        assert outcome == _outcome(scan_subgroup_membership, q, g), q
        if want is ValueError:
            assert outcome[:2] == ("error", "ValueError"), q
        else:
            assert outcome == ("ok", want), q


def test_subgroup_membership_on_a_hundred_thousand_letters():
    b = random_basis(9, 12, 3)
    g = fold_completely(wedge_graph((reduce(b[0] + b[0]),) + b[1:], 3))[0]
    rng = random.Random(31)
    pieces = [power(b[0], 2), b[1], b[2]]
    pieces += [invert(w) for w in pieces]
    letters = []
    while len(letters) < 200_000:
        letters += rng.choice(pieces)
    query = reduce(letters)
    assert len(query) >= 100_000
    assert subgroup_membership(query, g)
    assert not subgroup_membership(query + b[0], g)


def test_random_basis_zero_steps():
    assert random_basis(11, 0) == X


def test_random_basis_refuses_rank_below_two():
    for rank in (0, 1):
        for steps in (0, 3):
            with pytest.raises(ValueError, match="rank %d" % rank):
                random_basis(7, steps, rank)


def test_random_basis_deterministic():
    assert random_basis(5, 12) == random_basis(5, 12)


def test_random_basis_outputs_are_bases():
    for seed in range(25):
        assert is_basis(random_basis(seed, 10))


def test_fold_count_matches_length_excess():
    for seed in range(20):
        b = random_basis(seed, 9)
        try:
            _, b2 = ensure_foldable(b)
        except FoldabilityError:
            continue
        path = fold_to_rose(b2)
        assert path.single_fold_count() == sum(len(w) for w in b2) - 3


def test_no_type2_folds_on_bases():
    for seed in range(20):
        b = random_basis(seed, 9)
        try:
            _, b2 = ensure_foldable(b)
        except FoldabilityError:
            continue
        assert all(kind == "I" for kind in fold_to_rose(b2).fold_kinds())


def test_intermediates_stay_foldable():
    for seed in range(20):
        b = random_basis(seed, 9)
        try:
            _, b2 = ensure_foldable(b)
        except FoldabilityError:
            continue
        assert all(fold_to_rose(b2).foldable)


def test_smooth_refuses_an_unreduced_chain_word():
    """A well-formed core graph off the foldable path: a chain through
    degree-2 vertices spells a word that cancels.  That is a refusal
    (DomainError), not malformed input (ValueError)."""
    g = fold_to_rose(random_basis(1034, 25, 3), 3).graphs[4]
    with pytest.raises(DomainError, match="does not reduce"):
        smooth(g)


def test_smooth_agrees_with_chain_walk_oracle():
    """Every graph of 160 folding paths at ranks 2-5: smooth gives the chain
    walk's marking, or both refuse with DomainError.  Where a chain word
    does not reduce, the oracle's marking check raised ValueError and
    smooth raises DomainError."""
    outcomes = Counter()
    for rank in range(2, 6):
        for s in range(40):
            for g in fold_to_rose(random_basis(1000 + s, 25, rank), rank).graphs:
                try:
                    ref = chain_walk_smooth(g).to_json_dict()
                except (DomainError, ValueError) as exc:
                    ref = type(exc)
                if ref is ValueError:
                    with pytest.raises(DomainError, match="does not reduce"):
                        smooth(g)
                    outcomes["unreduced"] += 1
                elif ref is DomainError:
                    with pytest.raises(DomainError):
                        smooth(g)
                    outcomes["refused"] += 1
                else:
                    assert smooth(g).to_json_dict() == ref, (rank, s)
                    outcomes["equal"] += 1
    assert outcomes == {"equal": 2789, "refused": 182, "unreduced": 41}


def test_confluence_against_naive_oracle():
    for seed in range(20):
        b = random_basis(seed, 9)
        final = fold_to_rose(b).graphs[-1]
        oracle = naive_folded_graph(b, 3, seed * 17 + 1)
        assert labeled_isomorphic(final, oracle)


def test_fold_completely_agrees_with_maximal_folds():
    for seed in range(10):
        b = random_basis(seed, 8)
        final, _ = fold_completely(wedge_graph(b))
        assert labeled_isomorphic(final, fold_to_rose(b).graphs[-1])


def test_loop_persists_when_first_word_is_a_letter():
    for seed in range(15):
        b = random_basis(seed, 8, frozen=(0,))
        assert b[0] == (1,)
        path = fold_to_rose(b)
        for g in path.graphs:
            assert has_loop_labeled(g, g.base, 1)


def test_ensure_foldable_rejects_empty_word():
    with pytest.raises(DomainError):
        ensure_foldable(((1,), (2, -2), (3,)))


def _outcome(fn, *args):
    """What a call gives: ("ok", value) or ("error", type, message)."""
    try:
        return ("ok", fn(*args))
    except (DomainError, ValueError, KeyError) as exc:
        return ("error", type(exc).__name__, str(exc))


def _as_json(outcome, convert):
    return ("ok", convert(outcome[1])) if outcome[0] == "ok" else outcome


def _wedge_class(b, rank):
    """Which of the rebuild oracle's four basis-test paths b takes."""
    try:
        m, _, _ = rebuild_ensure_foldable(b, rank)
    except FoldabilityError as exc:
        return "mixed" if "no common boundary" in str(exc) else "unrepairable"
    return "foldable" if m == 0 else "repaired"


def _engine_inputs():
    """Seeded (rank, words, seed) inputs at ranks 2-5: bases of every wedge
    class, their squared-first-word variants, and random word tuples."""
    rng = random.Random(20261018)
    out = []
    for rank in range(2, 6):
        for k in range(12):
            seed = 100 * rank + k
            b = random_basis(seed, 5 + k % 6, rank)
            c = rng.randrange(1, rank + 1) * rng.choice((1, -1))
            d = rng.choice([x for x in range(1, rank + 1) if x != abs(c)])
            bases = [
                b,
                # a common conjugator c^k: repaired by a power of c
                tuple(conjugate(w, power((c,), 1 + k % 2)) for w in b),
                # a common conjugator d.c: boundary letter c, no power helps
                tuple(conjugate(w, (d, c)) for w in b),
            ]
            # (u, v) a rank-2 basis, extended by u.x_i.u^-1: the wedge point
            # keeps the labels of (u, v), which involve two generators
            u, v = random_basis(seed, 6 + k % 5, 2)
            bases.append((u, v) + tuple(reduce(u + (i,) + invert(u)) for i in range(3, rank + 1)))
            for basis in bases:
                out.append((rank, basis, seed))
                out.append((rank, (reduce(basis[0] + basis[0]),) + basis[1:], seed))
            for _ in range(2):
                words = tuple(
                    reduce([rng.choice((1, -1)) * rng.randrange(1, rank + 1)
                            for _ in range(rng.randrange(1, 7))])
                    for _ in range(rank)
                )
                if all(words):
                    out.append((rank, words, seed))
    return out


def test_fold_engine_agrees_with_rebuild_oracles():
    inputs = _engine_inputs()
    assert len(inputs) >= 300
    classes = Counter()
    kinds = Counter()
    for rank, b, seed in inputs:
        naive = naive_folded_graph(b, rank, seed)
        basis = labeled_isomorphic(naive, rose(rank))
        if basis:
            classes[_wedge_class(b, rank)] += 1
        assert is_basis(b, rank) == basis, (rank, b)
        assert wedge_graph(b, rank).to_json_dict() == rebuild_wedge_graph(b, rank).to_json_dict()

        final, steps = fold_completely(wedge_graph(b, rank))
        assert labeled_isomorphic(final, naive), (rank, b)
        kinds.update(step.kind for step in steps)

        path = _as_json(_outcome(fold_to_rose, b, rank), lambda p: p.to_json_dict())
        ref_path = _as_json(_outcome(rebuild_fold_to_rose, b, rank), lambda p: p.to_json_dict())
        assert path == ref_path, (rank, b)
        # the library returns (m, b2); the oracle also returns its wedge
        repair = _as_json(_outcome(ensure_foldable, b, rank),
                          lambda r: (*r, wedge_graph(r[1], rank).to_json_dict()))
        ref_repair = _as_json(_outcome(rebuild_ensure_foldable, b, rank),
                              lambda r: (r[0], r[1], r[2].to_json_dict()))
        assert repair == ref_repair, (rank, b)
    assert min(classes[c] for c in ("foldable", "repaired", "unrepairable", "mixed")) >= 20, classes
    assert kinds["II"] > 0, kinds


def _grown_basis(rng, rank, target):
    """A basis grown by Nielsen moves, each lengthening one word, until its
    total length reaches ``target`` (it ends below twice that)."""
    b = [(i,) for i in range(1, rank + 1)]
    while sum(len(w) for w in b) < target:
        i, j = rng.sample(range(rank), 2)
        w = b[j] if rng.random() < 0.5 else invert(b[j])
        grown = reduce(b[i] + w) if rng.random() < 0.5 else reduce(w + b[i])
        if len(grown) > len(b[i]):
            b[i] = grown
    return tuple(b)


def _chain_json(chain):
    m, path, bases = chain
    return m, [v.basis for v in bases], path.to_json_dict(), path.foldable


def _check_chain_against_replay(words, rng):
    """folding_chain reads the replaying oracle's exponent, bases and path,
    or raises its error; the path's graphs, each read once in random index
    order after the bases, are the oracle's."""
    chain = _outcome(folding_chain, FBVertex(words))
    ref = _outcome(replay_folding_chain, FBVertex(words))
    if ref[0] == "error":
        assert chain == ref, words
        return
    ref_json = _chain_json(ref[1])
    ref_graphs = ref_json[2]["graphs"]
    n = len(ref_graphs)
    order = [k - n * rng.randrange(2) for k in range(n)]
    rng.shuffle(order)
    graphs = chain[1][1].graphs
    assert [graphs[k].to_json_dict() for k in order] == [ref_graphs[k] for k in order], words
    assert _chain_json(chain[1]) == ref_json, words


def test_path_graphs_agree_with_rebuild_oracle():
    """The lazily built graphs of a folding path, read in random index order
    and by forward iteration, are the rebuild oracle's graphs; bases and
    their squared-first-word variants at ranks 2-5, up to about 500
    letters, some taking the single-fold fallback.  On the same words,
    folding_chain agrees with the replaying chain oracle."""
    rng = random.Random(20261019)
    chain_rng = random.Random(20261018)
    fallbacks = 0
    longest = 0
    for rank in range(2, 6):
        for target in (5, 30, 120, 400):
            b = _grown_basis(rng, rank, target)
            longest = max(longest, sum(len(w) for w in b))
            for words in (b, (reduce(b[0] + b[0]),) + b[1:]):
                ref = rebuild_fold_to_rose(words, rank)
                ref_graphs = [g.to_json_dict() for g in ref.graphs]
                n = len(ref_graphs)
                path = fold_to_rose(words, rank)
                assert len(path.graphs) == len(path.steps) + 1 == n
                assert path.graphs[-1].to_json_dict() == ref_graphs[-1]
                assert path.graphs[0].to_json_dict() == ref_graphs[0]
                order = list(range(-n, n))
                rng.shuffle(order)
                for k in order:
                    assert path.graphs[k].to_json_dict() == ref_graphs[k], (rank, words, k)
                with pytest.raises(IndexError):
                    path.graphs[n]
                forward = fold_to_rose(words, rank)
                assert [g.to_json_dict() for g in forward.graphs] == ref_graphs
                assert [g.to_json_dict() for g in forward.graphs[1:]] == ref_graphs[1:]
                assert forward.to_json_dict() == ref.to_json_dict()
                for k, ok in enumerate(path.foldable[:-1]):
                    if ok:
                        g, steps = maximal_fold(path.graphs[k])
                        assert g.to_json_dict() == ref_graphs[k + 1], (rank, words, k)
                        assert steps == path.steps[k]
                    else:
                        try:
                            maximal_fold(path.graphs[k])
                        except DomainError:
                            fallbacks += 1
                _check_chain_against_replay(words, chain_rng)
    assert longest >= 400
    assert fallbacks > 0


def test_folding_chain_raises_the_replay_oracles_error():
    """A wedge whose folds kill a loop: both chains raise on the first graph
    whose Betti number fell below the rank."""
    words = parse_words("abcA,aBcA,acA")
    assert _outcome(folding_chain, FBVertex(words)) == (
        "error", "DomainError", "Betti number 2 differs from rank 3")
    _check_chain_against_replay(words, random.Random(0))


def test_is_basis_on_ten_thousand_letters():
    rng = random.Random(7)
    b = [(1,), (2,), (3,)]
    while sum(len(w) for w in b) < 10_000:
        i, j = rng.sample(range(3), 2)
        w = b[j] if rng.random() < 0.5 else invert(b[j])
        b[i] = reduce(b[i] + w) if rng.random() < 0.5 else reduce(w + b[i])
    b = tuple(b)
    assert sum(len(w) for w in b) >= 10_000
    assert is_basis(b, 3)
    assert not is_basis((reduce(b[0] + b[0]),) + b[1:], 3)


def test_ensure_foldable_agrees_with_rebuild_oracle_on_2000_letters():
    """Forty words C^k.A.v.a.c^k (v from c to c), k = 10 or 11 in turn:
    under every power of c the wedge point keeps fewer than three labels,
    so the whole scan runs and both refuse.  A power of c among them keeps
    its own end letters, c and C, which with A make m = 10 work."""
    rng = random.Random(8)
    words = []
    for i in range(40):
        middle = reduce([rng.choice((1, -1, 2, -2)) for _ in range(40)])
        words.append(conjugate((3,) + middle + (3,), (1,) + power((2,), 10 + i % 2)))
    assert 1800 < sum(len(w) for w in words) < 2400
    outcomes = []
    for b in (tuple(words), tuple(words) + ((2, 2, 2),)):
        ours = _outcome(ensure_foldable, b, 3)
        assert ours == _as_json(_outcome(rebuild_ensure_foldable, b, 3), lambda r: r[:2])
        outcomes.append(ours[0] if ours[0] == "error" else ours[1][0])
    assert outcomes == ["error", 10]


def test_ensure_foldable_on_ten_thousand_letters():
    """(a, b, c) conjugated by c^2500 comes back at m = 2500, every smaller
    power leaving the wedge point two labels; a grown basis of 10^4 letters,
    which no power repairs, is refused.  No timing assert."""
    b = tuple(conjugate(w, power((3,), 2500)) for w in X)
    assert sum(len(w) for w in b) > 10_000
    assert ensure_foldable(b) == (2500, X)
    grown = _grown_basis(random.Random(2), 3, 10_000)
    with pytest.raises(FoldabilityError, match="does not make"):
        ensure_foldable(grown)


def _ten_thousand_letter_basis():
    """The basis of ``test_is_basis_on_ten_thousand_letters``."""
    rng = random.Random(7)
    b = [(1,), (2,), (3,)]
    while sum(len(w) for w in b) < 10_000:
        i, j = rng.sample(range(3), 2)
        w = b[j] if rng.random() < 0.5 else invert(b[j])
        b[i] = reduce(b[i] + w) if rng.random() < 0.5 else reduce(w + b[i])
    return tuple(b)


def test_fold_engine_agrees_with_union_find_oracle():
    """The live graph against the whole-graph union-find folder it replaced:
    single folds on every legal pair of small wedges and of the graphs
    along their paths, the replay of recorded folding paths, and folding
    until folded (the engine inputs, the graphs along the replayed paths,
    and a 10^4-letter basis with its squared variant) give equal JSON and
    equal steps; ``is_basis`` gives the oracle's rose test's answers."""
    small = [parse_words(s) for s in ("ab,b,c", "a,a,b", "aBab,bab,c", "abcA,aBcA,acA",
                                      "aa,ab,ba", "abab,ab,c")]
    singles = Counter()
    for words in small:
        for g in fold_to_rose(words).graphs:
            for v in sorted(g.vertices):
                for e1 in g.out_edges(v):
                    for e2 in g.out_edges(v):
                        if e1.id == e2.id or e1.label != e2.label:
                            continue
                        folded, step = single_fold(g, e1.id, e2.id)
                        ref, ref_steps = union_find_fold(g, [(e1.id, e2.id)])
                        assert [step] == ref_steps, (words, e1, e2)
                        assert folded.to_json_dict() == ref.to_json_dict(), (words, e1, e2)
                        singles[step.kind] += 1
    assert singles["I"] > 20 and singles["II"] > 0, singles

    rng = random.Random(20261020)
    replayed = []
    for rank in range(2, 6):
        for target in (5, 30, 120, 400):
            b = _grown_basis(rng, rank, target)
            for words in (b, (reduce(b[0] + b[0]),) + b[1:]):
                path = fold_to_rose(words, rank)
                ref = [path.graphs[0]]
                for group in path.steps:
                    g, steps = union_find_fold(ref[-1], [s.edges for s in group])
                    assert steps == group, (rank, words)
                    ref.append(g)
                assert [g.to_json_dict() for g in path.graphs] == [g.to_json_dict() for g in ref]
                replayed += ref
    assert len(replayed) > 300

    inputs = [(rank, b) for rank, b, _ in _engine_inputs()]
    big = _ten_thousand_letter_basis()
    inputs += [(3, big), (3, (reduce(big[0] + big[0]),) + big[1:])]
    wedges = [wedge_graph(b, rank) for rank, b in inputs]
    kinds = Counter()
    for g in wedges + replayed:
        final, steps = fold_completely(g)
        ref, ref_steps = union_find_fold(g)
        assert steps == ref_steps, g.to_json_dict()
        assert final.to_json_dict() == ref.to_json_dict(), g.to_json_dict()
        kinds.update(step.kind for step in steps)
    assert kinds["II"] > 0, kinds
    answers = Counter()
    for (rank, b), g in zip(inputs, wedges):
        assert _LiveGraph.wedge(b, rank).graph().to_json_dict() == g.to_json_dict()
        answer = is_basis(b, rank)
        assert answer == is_rose(union_find_fold(g)[0]), (rank, b)
        answers[answer] += 1
    assert answers[True] >= 100 and answers[False] >= 100, answers
