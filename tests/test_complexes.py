"""Tests for free-bases and free-factor vertices, adjacency certificates,
witness paths, folding chains, and the collapse map from splittings."""

import json
import random

import pytest

from freebases import complexes
from freebases.agraph import MarkingEdge, MarkingGraph
from freebases.complexes import (
    WITNESS_BOUNDS,
    FBAdjacency,
    FBVertex,
    FFStep,
    FFVertex,
    SplittingVertex,
    density_path,
    fb_adjacent,
    fb_chain_report,
    fb_equivalent,
    ff_step_witness,
    folding_chain,
    folding_path_bases,
    h_lipschitz_path,
    h_map,
    hq_path,
    identity_basis,
    q_map,
    sample_fb_ball,
    substitute,
    tau,
    witness_path_from_json,
)
from freebases.errors import DomainError, NotABasisError, TrivialFactorError
from freebases.folding import fold_to_rose, random_basis, smooth
from freebases.words import (
    concat,
    conjugate,
    cyclic_normal_form,
    invert,
    parse_word,
    parse_words,
    power,
    reduce,
)
from oracles import (
    _ball_candidates,
    concat_substitute,
    definition_fb_ball,
    scan_fb_adjacent,
    search_fb_equivalent,
    slice_cyclic_normal_form,
)

X = FBVertex(parse_words("a,b,c"))


def fb(text):
    return FBVertex(parse_words(text))


def ff(text, subset):
    return FFVertex(parse_words(text), frozenset(subset))


def test_identity_basis():
    assert identity_basis(3) == ((1,), (2,), (3,))


def test_substitute_rewrites_letters():
    basis = parse_words("ab,b,c")
    assert substitute(parse_word("aC"), basis) == (1, 2, -3)


def test_substitute_agrees_with_concat_oracle():
    # seeded bases at ranks 2-6 and words of up to 400 letters, unreduced
    # ones and words w + w^-1 that cancel to the identity among them
    rng = random.Random(11)
    for k in range(200):
        rank = 2 + k % 5
        basis = random_basis(rng.randrange(10**6), rng.randint(0, 12), rank)
        letters = [x for i in range(1, rank + 1) for x in (i, -i)]
        w = tuple(rng.choice(letters) for _ in range(rng.choice([0, 1, 7, 60, 400])))
        if k % 7 == 0:
            w = w + invert(w)
        assert substitute(w, basis) == concat_substitute(w, basis)


def test_fbvertex_rejects_empty_words():
    with pytest.raises(ValueError):
        FBVertex(((1,), (), (3,)))


def test_fbvertex_verify():
    assert X.verify()
    assert not fb("aa,b,c").verify()


def test_ffvertex_requires_proper_subset():
    with pytest.raises(ValueError):
        FFVertex(parse_words("a,b,c"), frozenset())
    with pytest.raises(ValueError):
        FFVertex(parse_words("a,b,c"), frozenset({1, 2, 3}))
    with pytest.raises(ValueError):
        FFVertex(parse_words("a,b,c"), frozenset({4}))


def test_ffvertex_words():
    assert ff("a,b,c", {2, 3}).words == ((2,), (3,))
    listed = FFVertex(parse_words("a,b,c"), [3, 2])
    assert type(listed.subset) is frozenset and listed.words == ((2,), (3,))


def test_fb_equivalent_common_conjugator():
    assert fb_equivalent(X, fb("Bab,b,Bcb"))


def test_fb_equivalent_permutation_and_sign():
    assert fb_equivalent(X, fb("b,A,c"))


def test_fb_equivalent_rejects_nielsen_neighbor():
    assert not fb_equivalent(X, fb("ab,b,c"))


def test_fb_equivalent_rank_mismatch():
    with pytest.raises(ValueError):
        fb_equivalent(X, FBVertex(parse_words("a,b")))


def test_fb_equivalent_under_random_moves():
    """Conjugating, permuting, and inverting never leaves the class."""
    rng = random.Random(42)
    for seed in range(12):
        basis = list(random_basis(seed, 8))
        g = tuple(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(4)))
        rng.shuffle(basis)
        moved = tuple(
            reduce(conjugate(w if rng.random() < 0.5 else invert(w), g))
            for w in basis
        )
        assert fb_equivalent(FBVertex(tuple(random_basis(seed, 8))), FBVertex(moved))


def _oracle_pairs(per_kind):
    """Seeded pairs at ranks 2-5: disguised copies (permuted, inverted and
    conjugated), same-key pairs (last element conjugated by the first),
    Nielsen neighbours and independent random bases."""
    rng = random.Random(2012)
    for rank in range(2, 6):
        letters = [s * k for k in range(1, rank + 1) for s in (1, -1)]
        for seed in range(per_kind):
            a = random_basis(1000 * rank + seed, rank + 3, rank)
            g = reduce(tuple(rng.choice(letters) for _ in range(rng.randrange(4))))
            order = list(range(rank))
            rng.shuffle(order)
            yield "disguised", a, tuple(
                conjugate(a[i] if rng.random() < 0.5 else invert(a[i]), g)
                for i in order
            )
            yield "same-key", a, a[:-1] + (conjugate(a[-1], a[0]),)
            yield "neighbour", a, random_basis(seed, 1, rank, start=a)
            yield "random", a, random_basis(rng.randrange(10**6), rank + 3, rank)


def test_fb_relations_agree_with_search_oracles():
    kinds = {}
    for kind, a, b in _oracle_pairs(26):
        u, v = FBVertex(a), FBVertex(b)
        eq = fb_equivalent(u, v)
        assert eq == search_fb_equivalent(u, v), (kind, a, b)
        if not eq:
            assert fb_adjacent(u, v) == scan_fb_adjacent(u, v), (kind, a, b)
            assert fb_adjacent(v, u) == scan_fb_adjacent(v, u), (kind, a, b)
        kinds.setdefault(kind, set()).add(eq)
    assert kinds["disguised"] == {True}
    assert False in kinds["same-key"]
    assert sum(1 for _ in _oracle_pairs(26)) >= 400


def test_key_is_invariant_and_its_window_suffices():
    """Over 2000 seeded bases at ranks 2-6: permuting, inverting elements
    and conjugating by words of up to 12 letters leaves the key alone.  So
    does swapping, inverting and conjugating (b, b^-n a b^n), (b, b^n a),
    (b, a b^n), (ab, (ab)^n a) and (ab, b (ab)^n) for n up to 200, whose
    keys take powers of the first element far out in their window."""
    rng = random.Random(10)
    for trial in range(2000):
        rank = 2 + trial % 5
        basis = list(random_basis(rng.randrange(10**6), rng.randrange(1, 10), rank))
        i, j = rng.sample(range(rank), 2)
        if rng.random() < 0.5:  # an element disguised by a power of another
            basis[j] = conjugate(basis[j], power(basis[i], rng.randrange(-5, 6)))
        if rng.random() < 0.3:  # or multiplied by one, so powers tie in length
            basis[j] = concat(power(basis[i], rng.randrange(-6, 7)), basis[j])
        v = FBVertex(tuple(basis))
        letters = [s * k for k in range(1, rank + 1) for s in (1, -1)]
        g = reduce(tuple(rng.choice(letters) for _ in range(rng.randrange(13))))
        rng.shuffle(basis)
        moved = FBVertex(tuple(
            conjugate(w if rng.random() < 0.5 else invert(w), g) for w in basis
        ))
        assert moved.key == v.key, (v.basis, moved.basis)
    a, b, ab = (1,), (2,), (1, 2)
    for n in (1, 2, 3, 4, 5, 10, 25, 50, 100, 200):
        for c, w in [(b, power(b, -n) + a + power(b, n)), (b, power(b, n) + a),
                     (b, a + power(b, n)), (ab, power(ab, n) + a), (ab, b + power(ab, n))]:
            v = FBVertex((c, w))
            for g in ((1,), (-2, 1), power(c, n // 2 + 1)):
                assert FBVertex((invert(conjugate(w, g)), conjugate(c, g))).key == v.key, n


def test_ball_keys_a_candidate_only_on_a_class_key_tie(monkeypatch):
    """On seeded rank-3 and rank-4 balls some class-key set is held by two
    distinct vertices.  The sampler keeps both and agrees with the holder
    oracle; it classes the first candidate of each basis tuple only, and
    keys exactly those whose class-key set another tuple shares."""
    made = []

    class Recorded(FBVertex):
        def __post_init__(self):
            super().__post_init__()
            made.append(self)

    monkeypatch.setattr(complexes, "FBVertex", Recorded)
    rng = random.Random(20)
    split = {3: 0, 4: 0}
    for rank, walks, moves in [(3, 7, 4)] * 20 + [(4, 6, 3)] * 20:
        seeds = [rng.randrange(10**6) for _ in range(walks)]
        g_ref, labels_ref, _ = definition_fb_ball(FBVertex(identity_basis(rank)), seeds, moves)
        made.clear()
        g, labels = sample_fb_ball(Recorded(identity_basis(rank)), seeds, moves)
        assert (g.vertices, g.edges, labels) == (g_ref.vertices, g_ref.edges, labels_ref)

        first = {}  # basis tuple -> its first candidate, in candidate order
        for v in made:
            first.setdefault(v.basis, v)
        buckets = {}  # class-key set -> distinct basis tuples
        for basis in first:
            buckets.setdefault(frozenset(FBVertex(basis).classes), []).append(basis)
        for v in made:
            shared = len(buckets[frozenset(FBVertex(v.basis).classes)]) > 1
            assert ("classes" in v.__dict__) == (v is first[v.basis]), v.basis
            assert ("key" in v.__dict__) == (v is first[v.basis] and shared), v.basis
        kept = [parse_words(label["basis"], rank) for label in labels]
        for bases in buckets.values():
            keys = {FBVertex(basis).key for basis in bases}
            if len(keys) > 1:
                split[rank] += 1
                assert len([b for b in kept if b in bases]) == len(keys), bases
    assert min(split.values()) > 0, split


def test_fb_equivalent_exits_on_differing_class_key_sets():
    """A last element conjugated by the first keeps the class-key set but
    moves the vertex at rank 3 and up, so both keys are compared; a Nielsen
    neighbour changes the set, and neither key is computed."""
    rng = random.Random(21)
    for trial in range(30):
        rank = 3 + trial % 3
        a = random_basis(rng.randrange(10**6), rng.randrange(1, 8), rank)
        u, same_set = FBVertex(a), FBVertex(a[:-1] + (conjugate(a[-1], a[0]),))
        assert u.classes.keys() == same_set.classes.keys()
        assert not fb_equivalent(u, same_set)
        assert not search_fb_equivalent(u, same_set)
        assert "key" in u.__dict__ and "key" in same_set.__dict__
        u, neighbour = FBVertex(a), FBVertex((a[0], concat(a[1], a[2])) + a[2:])
        assert not fb_equivalent(u, neighbour)
        assert "key" not in u.__dict__ and "key" not in neighbour.__dict__


def test_class_key_set_decides_a_rank_two_vertex():
    """Out(F_2) is GL(2, Z), so at rank 2 the class-key set alone fixes the
    vertex: no class-key set of 20 seeded balls carries two keys.  The
    class keys are the least rotations the rotation oracle picks."""
    rng = random.Random(22)
    center = FBVertex(identity_basis(2))
    buckets = {}  # class-key set -> keys
    for _ in range(20):
        seeds = [rng.randrange(10**6) for _ in range(8)]
        for vert, _ in _ball_candidates(center, seeds, 8):
            buckets.setdefault(frozenset(vert.classes), set()).add(vert.key)
            for w in vert.basis:
                assert cyclic_normal_form(w) == slice_cyclic_normal_form(w), w
                key = min(slice_cyclic_normal_form(w), slice_cyclic_normal_form(invert(w)))
                assert key in vert.classes, w
    assert len(buckets) > 50
    assert all(len(keys) == 1 for keys in buckets.values())


def test_key_at_rank_one():
    assert fb("Bab").key == fb("A").key
    assert fb_equivalent(fb("Bab"), fb("A"))
    assert not fb_equivalent(fb("a"), fb("aa"))


def test_key_refuses_repeated_class_keys():
    for bad, pair in (("a,A,c", "1 and 2"), ("A,a,c", "1 and 2"), ("a,bAB,c", "1 and 2"),
                      ("ab,c,BA", "1 and 3")):
        with pytest.raises(NotABasisError, match="^elements %s are conjugate" % pair):
            fb(bad).key


def test_repeated_class_keys_are_refused():
    for bad in ("a,A,c", "a,bAB,c", "ab,c,BA"):
        for left, right in ((fb(bad), X), (X, fb(bad))):
            with pytest.raises(DomainError):
                fb_equivalent(left, right)
            with pytest.raises(DomainError):
                fb_adjacent(left, right)


def test_fb_adjacent_shared_element():
    cert = fb_adjacent(X, fb("ab,b,c"))
    assert (cert.i, cert.j, cert.sign) == (2, 2, 1)
    assert cert.holds_for(X, fb("ab,b,c"))


def test_fb_adjacent_inverse_match():
    cert = fb_adjacent(X, fb("C,ab,b"))
    assert (cert.i, cert.j, cert.sign) == (3, 1, -1)


def test_fb_adjacent_none():
    assert fb_adjacent(X, fb("abca,bca,ca")) is None


def test_fb_adjacent_on_equivalent_vertices_errors():
    with pytest.raises(DomainError):
        fb_adjacent(X, fb("Bab,b,Bcb"))


def test_fb_adjacent_is_symmetric():
    pairs = [("ab,b,c", "b,Ba,c"), ("a,b,c", "a,ab,c")]
    for left, right in pairs:
        u, v = fb(left), fb(right)
        cert = fb_adjacent(u, v)
        back = fb_adjacent(v, u)
        assert (cert is None) == (back is None)
        if cert is not None:
            transposed = FBAdjacency(
                back.j, back.i, back.sign, invert(back.conjugator)
            )
            assert transposed.holds_for(v, u) or back.holds_for(v, u)


def test_h_map_takes_first_element():
    u = h_map(X)
    assert u.ambient == X.basis
    assert u.subset == frozenset({1})
    assert h_map(fb("ab,b,c")).words == ((1, 2),)


def test_q_map_returns_ambient():
    assert q_map(ff("a,b,c", {1})) == X
    assert q_map(ff("ab,b,c", {1, 2})) == fb("ab,b,c")


def test_q_after_h_is_identity():
    for seed in range(10):
        v = FBVertex(random_basis(seed, 8))
        assert q_map(h_map(v)) == v


def test_ff_step_witness_nested():
    step = ff_step_witness(ff("a,b,c", {1}), ff("a,b,c", {1, 2}))
    assert step is not None
    assert step.kind == "nested"
    assert step.cost == 1


def test_ff_step_witness_rejects_disjoint():
    assert ff_step_witness(ff("a,b,c", {1}), ff("a,b,c", {2})) is None
    assert ff_step_witness(ff("a,b,c", {1, 2}), ff("a,b,c", {2, 3})) is None


def test_h_lipschitz_path_degenerate():
    path = h_lipschitz_path(X, fb("a,ab,c"))
    assert path.length == 0
    assert path.validate() == []


def test_h_lipschitz_path_full_climb():
    a = fb("b,a,c")
    b = fb("ab,a,c")
    path = h_lipschitz_path(a, b)
    assert path.length == 4
    assert len(path.vertices) == 6
    assert path.vertices[0] == h_map(a)
    assert path.vertices[-1] == h_map(b)
    assert [v.words for v in path.vertices] == [
        ((2,),),
        ((2,), (1,)),
        ((1,),),
        ((1,),),
        ((1, 2), (1,)),
        ((1, 2),),
    ]
    assert path.validate() == []


def test_h_lipschitz_path_respects_bound_on_random_pairs():
    count = 0
    for seed in range(40):
        a = FBVertex(random_basis(seed, 8))
        b = FBVertex(random_basis(seed + 1000, 8, frozen=(1,), start=a.basis))
        if fb_equivalent(a, b):
            continue
        cert = fb_adjacent(a, b)
        if cert is None:
            continue
        path = h_lipschitz_path(a, b, cert)
        assert path.length <= WITNESS_BOUNDS["h-lipschitz"]
        assert path.validate() == []
        count += 1
    assert count > 10


def test_hq_path_examples():
    assert hq_path(ff("a,b,c", {1})).length == 0
    path = hq_path(ff("a,b,c", {2, 3}))
    assert path.length == 3
    assert [v.subset for v in path.vertices] == [
        frozenset({2, 3}),
        frozenset({2}),
        frozenset({1, 2}),
        frozenset({1}),
    ]
    assert path.validate() == []
    assert path.vertices[-1] == h_map(q_map(ff("a,b,c", {2, 3})))


def test_density_path_examples():
    assert density_path(ff("a,b,c", {1})).length == 0
    p1 = density_path(ff("a,b,c", {2, 3}))
    assert p1.length <= 3
    assert p1.vertices[-1] == h_map(fb("a,b,c"))
    assert p1.validate() == []
    p2 = density_path(ff("a,b,c", {1, 2}))
    assert p2.length <= 2
    assert p2.validate() == []


def test_witness_paths_need_rank_three():
    with pytest.raises(DomainError):
        hq_path(FFVertex(parse_words("a,b"), frozenset({2})))


def test_witness_json_round_trip():
    for subset in ({2, 3}, {1}):  # {1} gives a path of one vertex and no step
        path = hq_path(ff("ab,b,c", subset))
        reread = witness_path_from_json(json.loads(json.dumps(path.to_json_dict())))
        assert reread == path
        assert reread.validate() == []


def test_witness_json_round_trip_above_rank_three():
    for rank in (4, 5, 6):
        a = FBVertex(random_basis(rank, 6, rank))
        b = FBVertex(random_basis(rank + 1, 3, rank, frozen=(0,), start=a.basis))
        path = h_lipschitz_path(a, b)
        data = json.loads(json.dumps(path.to_json_dict()))
        reread = witness_path_from_json(data)
        assert reread == path
        assert reread.to_json_dict() == data


def test_witness_json_round_trip_past_z():
    # at rank 27 the last letter is written x27
    a = FBVertex(identity_basis(27))
    b = FBVertex(((27, 1),) + identity_basis(27)[1:])
    path = h_lipschitz_path(a, b)
    data = json.loads(json.dumps(path.to_json_dict()))
    assert "x27a" in data["vertices"][-1]["ambient"]
    reread = witness_path_from_json(data)
    assert reread == path
    assert reread.to_json_dict() == data


def test_witness_validate_catches_corruption():
    path = hq_path(ff("a,b,c", {2, 3}))
    data = path.to_json_dict()
    data["vertices"][1]["subset"] = [1]
    broken = witness_path_from_json(data)
    assert broken.validate() != []


def test_folding_path_bases_trivial():
    assert folding_path_bases(X) == [X]


def test_folding_path_bases_one_fold():
    chain = folding_path_bases(fb("ab,b,c"))
    assert chain == [fb("ab,b,c"), X]


def test_folding_chain_reports_conjugation():
    """(a, abA, acA) is X conjugated by a^-1: the chain is a single vertex."""
    m, path, bases = folding_chain(fb("a,abA,acA"))
    assert m == -1
    assert bases == [fb("a,abA,acA")]
    assert fb_equivalent(bases[-1], X)


def test_folding_chain_reaches_rose():
    m, path, bases = folding_chain(fb("ab,bab,c"))
    assert m == 0
    assert bases[0] == fb("ab,bab,c")
    assert bases[-1] == X
    assert all(v.verify() for v in bases)


def test_folding_chain_survives_unfoldable_input():
    """Bases whose wedge resists the conjugation repair still get a chain."""
    for seed in range(40):
        b = FBVertex(random_basis(seed, 12))
        m, _, bases = folding_chain(b)
        assert bases[0] == b
        assert all(v.verify() for v in bases)


def test_fb_chain_report_equivalent_endpoints():
    report = fb_chain_report(X, fb("Bab,b,Bcb"))
    assert len(report.vertices) == 1
    assert report.hops == []
    assert report.bound == 0


def test_fb_chain_report_shared_letter():
    report = fb_chain_report(X, fb("a,ba,c"))
    assert report.bound is not None
    assert report.bound <= len(report.hops)
    assert report.shared == (1,)
    assert report.target_certs
    assert all(
        h.status in ("equivalent", "adjacent") for h in report.target_certs
    )


def test_fb_chain_report_lands_on_target_coordinates():
    a = fb("ab,bab,c")
    report = fb_chain_report(a, fb("ab,b,c"))
    assert report.vertices[-1] == a


def test_fb_chain_report_respects_a_coordinates():
    a = fb("ab,bab,c")
    report = fb_chain_report(a, fb("a,ba,c"))
    assert report.shared == substitute((1,), a.basis)
    for hop in report.hops:
        assert hop.status in ("equivalent", "adjacent")


def rose_marking():
    return smooth(fold_to_rose(parse_words("a,b,c")).graphs[0])


def two_vertex_marking():
    E = MarkingEdge
    edges = [
        E(0, 1, 0, 0, (1,)), E(1, 0, 0, 0, (-1,)),
        E(2, 3, 1, 1, (2,)), E(3, 2, 1, 1, (-2,)),
        E(4, 5, 0, 1, (1,)), E(5, 4, 1, 0, (-1,)),
    ]
    return MarkingGraph((0, 1), edges)


def test_tau_on_rose_loop():
    m = rose_marking()
    loops = sorted(m.edges.values(), key=lambda e: e.id)
    u = tau(SplittingVertex(m, loops[0].id))
    assert u.words == ((2,), (3,))


def test_tau_on_bridge_edge():
    m = two_vertex_marking()
    u = tau(SplittingVertex(m, 4))
    assert u.words == ((1,),)
    w = tau(SplittingVertex(m, 5))
    assert w.words == ((2,),)


def test_tau_rejects_trivial_factor():
    one_loop = MarkingGraph._of((0,), {0: (1, 0, 0, (1,)), 1: (0, 0, 0, (-1,))})
    with pytest.raises(TrivialFactorError):
        tau(SplittingVertex(one_loop, 0))


def test_tau_rejects_an_improper_factor():
    # a loop a at 0 with a hair to 1 (unchecked: 1 has degree 1); collapsing
    # all but the hair leaves the loop's whole group on the origin's side
    hair = MarkingGraph._of((0, 1), {0: (1, 0, 0, (1,)), 1: (0, 0, 0, (-1,)),
                                     2: (3, 0, 1, (2,)), 3: (2, 1, 0, (-2,))})
    with pytest.raises(TrivialFactorError, match="improper"):
        tau(SplittingVertex(hair, 2))


def test_tau_rejects_loops_whose_words_are_no_basis():
    E = MarkingEdge
    loops = MarkingGraph((0,), [E(0, 1, 0, 0, (1, 1)), E(1, 0, 0, 0, (-1, -1)),
                                E(2, 3, 0, 0, (2,)), E(3, 2, 0, 0, (-2,)),
                                E(4, 5, 0, 0, (3,)), E(5, 4, 0, 0, (-3,))])
    with pytest.raises(DomainError, match="do not present the free group"):
        tau(SplittingVertex(loops, 2))


def test_splitting_vertex_checks_edge_membership():
    with pytest.raises(ValueError):
        SplittingVertex(two_vertex_marking(), 99)
