"""Vertices and certified edges of the free-bases and free-factor graphs.

A free-bases vertex is a basis of F_N up to permuting, inverting and
simultaneously conjugating its elements; two distinct vertices are adjacent
when some element of one is conjugate into an element (or inverse) of the
other.  A free-factor vertex is a proper free factor, always presented here
as a subset of an explicit ambient basis so that adjacency can be certified
by nesting.  Everything this module asserts about distances comes with a
witness object that can be re-validated from scratch.  ``sample_fb_ball``
gives finite balls of the free-bases graph as metric graphs.

Rank 3 is the smallest rank where the free-factor graph used here makes
sense (a 2-element subset of a basis must still be a proper factor), so the
witness-path builders require rank >= 3.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations

from .agraph import MarkingGraph, bfs
from .errors import DomainError, FoldabilityError, NotABasisError, TrivialFactorError
from .folding import _find, _fold_path, ensure_foldable, is_basis, random_basis
from .hyperbolicity import FiniteGraph
from .words import (
    check_letters,
    concat,
    concat_all,
    conjugate,
    cyclic_reduce,
    find_conjugator,
    invert,
    is_reduced,
    least_rotation,
    parse_word,
    power,
    reduce,
    word_str,
    words_str,
)


def identity_basis(rank):
    return tuple((i,) for i in range(1, rank + 1))


def substitute(w, basis):
    """Image of w under the endomorphism x_i -> basis[i-1]: one free
    reduction of the joined images, linear in their total length."""
    return reduce(tuple(chain.from_iterable(
        basis[letter - 1] if letter > 0 else invert(basis[-letter - 1]) for letter in w
    )))


@dataclass(frozen=True)
class FBVertex:
    """A free-bases vertex, stored as one explicit representative basis."""

    basis: tuple

    def __post_init__(self):
        if not self.basis:
            raise ValueError("empty basis")
        for w in self.basis:
            if not w or not is_reduced(w):
                raise ValueError("basis words must be nonempty and reduced")

    @property
    def rank(self):
        return len(self.basis)

    def verify(self):
        """Check that the representative really is a free basis."""
        return is_basis(self.basis, self.rank)

    @cached_property
    def classes(self):
        """Class key -> (0-based position, orientation) of each element.

        An element's class key is its conjugacy class up to inversion, the
        lesser cyclic normal form of it and its inverse: the least rotations
        of its cyclically reduced core and of the core's inverse.  The
        orientation says whether it is the element's own.  A basis maps to
        a basis of the abelianization, so its class keys are distinct; a
        tuple repeating one is no basis and raises NotABasisError.  The set
        of class keys is a vertex invariant.
        """
        index = {}
        for pos, w in enumerate(self.basis):
            check_letters(w, None)
            # w is reduced, so its core is w less its conjugating ends
            lo, hi = 0, len(w)
            while hi - lo >= 2 and w[lo] == -w[hi - 1]:
                lo += 1
                hi -= 1
            core = tuple(w[lo:hi])
            inv = invert(core)
            i, j = least_rotation(core), least_rotation(inv)
            forward = core[i:] + core[:i]
            key = min(forward, inv[j:] + inv[:j])
            if key in index:
                raise NotABasisError(
                    "elements %d and %d are conjugate up to inversion"
                    % (index[key][0] + 1, pos + 1)
                )
            index[key] = (pos, key == forward)
        return index

    @cached_property
    def key(self):
        """Normal form: two bases are one free-bases vertex exactly when
        their keys are equal.

        The elements, in class-key order and each oriented to its class
        key, are conjugated by p·core[:i], which takes the first, p·core·p^-1,
        to its cyclic normal form c = core[i:] + core[:i], then by the power
        c^k (a primitive c is root-free, so these are all the conjugators
        fixing it) that makes the second element w shortest, then least; k
        is unique, since two basis elements share no power.  Past
        |k| = |w|/|c| + 1, c^-k w c^k only grows.  The search is linear in
        |w|; see ``_least_conjugate``.
        Raises NotABasisError when the tuple repeats a class key.
        """
        order = sorted(self.classes.items())
        c = order[0][0]
        if len(order) == 1:
            return (c,)
        elems = [self.basis[i] if forward else invert(self.basis[i])
                 for _, (i, forward) in order]
        core, p = cyclic_reduce(elems[0])
        g = concat(p, core[:least_rotation(core)])
        w, k = _least_conjugate(conjugate(elems[1], g), c)
        g = concat(g, power(c, k))
        return (c, w) + tuple(conjugate(x, g) for x in elems[2:])

    def to_json_dict(self):
        return {"basis": [word_str(w) for w in self.basis]}


def _agree(w, c, start=0):
    """How many leading letters of w read along c·c·c·... from c[start]."""
    i, n = 0, len(c)
    while i < len(w) and w[i] == c[(start + i) % n]:
        i += 1
    return i


def _least_conjugate(w, c):
    """The least (|v|, v) over v = c^-k·w·c^k with |k| <= |w|/|c| + 1, for
    c cyclically reduced and primitive and w no power of c: ``(v, k)``.

    c's axis passes through the base point o, reading c forward and c^-1
    backward, and |c^-k·w·c^k| is how far w moves its point x = c^k·o.  The
    path x, o, w·o, w·x backtracks at o as far as w follows the axis towards
    x, and at w·o as far as w^-1 does.  Where the two backtracks overlap, all
    of w cancels; where they just meet, the two tails along the axis then
    cancel as far as they agree, less than |c| letters, c being no proper
    power.  So every length is read off a few prefix agreements, in time
    linear in |w|.  The lengths are convex in k, so the shortest k form one
    run, and the walk out from k = 0 each way stops at the first longer
    conjugate.  Along the run x slides by |c| on the stretch shared by the
    axes of c and w.  Each step of the run compares the same two letters,
    where w's axis leaves c's, so the least word is at an end of the run.
    """
    n, size, wi = len(c), len(w), invert(w)
    m, run = size, (0, 0)  # the shortest length so far and its k range
    for z, sign in ((c, 1), (invert(c), -1)):
        p, r = _agree(w, z), _agree(wi, z)
        tails = _agree(z[r % n:] + z[:r % n], z, p) if p + r == size else 0
        for j in range(1, size // n + 2):
            t = j * n
            a, b = min(t, p), min(t, r)
            length = size + 2 * t - 2 * min(a + b, size) - 2 * min(tails, t - a, t - b)
            if length > m:
                break
            k = sign * j
            if length < m:
                m, run = length, (k, k)
            else:
                run = (min(run[0], k), max(run[1], k))
    return min((conjugate(w, power(c, k)) if k else w, k) for k in set(run))


@dataclass(frozen=True)
class FFVertex:
    """A proper free factor: the subgroup generated by a subset of an
    ambient basis.  ``subset`` holds 1-based positions into ``ambient``."""

    ambient: tuple
    subset: frozenset

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))
        n = len(self.ambient)
        if not self.subset:
            raise ValueError("free factor needs a nonempty generating subset")
        if len(self.subset) >= n:
            raise ValueError("free factor must be proper")
        if not all(1 <= k <= n for k in self.subset):
            raise ValueError("subset positions out of range")

    @property
    def words(self):
        return tuple(self.ambient[k - 1] for k in sorted(self.subset))

    def verify(self):
        return is_basis(self.ambient, len(self.ambient))

    def to_json_dict(self):
        return {
            "ambient": [word_str(w) for w in self.ambient],
            "subset": sorted(self.subset),
        }


def fb_equivalent(a, b):
    """Are two stored bases the same free-bases vertex?  Exactly when their
    keys agree (see FBVertex.key), if either is a basis.  Equal keys have
    equal class-key sets, so differing sets answer False with no key
    computed.  Raises NotABasisError when either tuple repeats a class key."""
    if a.rank != b.rank:
        raise ValueError("bases of different rank")
    return a.classes.keys() == b.classes.keys() and a.key == b.key


@dataclass(frozen=True)
class FBAdjacency:
    """Certificate that two free-bases vertices are adjacent: element i of
    the first is conjugate to element j (to the power sign) of the second,
    by the stored conjugator."""

    i: int
    j: int
    sign: int
    conjugator: tuple

    def holds_for(self, a, b):
        target = b.basis[self.j - 1]
        if self.sign < 0:
            target = invert(target)
        return conjugate(a.basis[self.i - 1], self.conjugator) == target

    def to_json_dict(self):
        return {
            "i": self.i,
            "j": self.j,
            "sign": self.sign,
            "conjugator": word_str(self.conjugator),
        }


def fb_adjacent(a, b):
    """Certificate for the first element of b shared with a, or None.

    Two elements are conjugate up to inversion exactly when their class
    keys agree, and the keys of a basis are distinct (its elements map to a
    basis of the abelianization), so looking b's elements up in a's key
    index fixes the element of a and the sign; one conjugator is computed,
    for the first hit.  Raises DomainError on equivalent vertices, where
    adjacency is not defined, and NotABasisError on tuples repeating a key.
    """
    if fb_equivalent(a, b):
        raise DomainError("fb_adjacent called on equivalent vertices")
    return _shared_key_cert(a, b)


def _shared_key_cert(a, b):
    """Certificate for the first element of b whose class key a shares, or
    None; on inequivalent vertices this is exactly adjacency."""
    for key, (j, forward) in b.classes.items():
        if key in a.classes:
            i, a_forward = a.classes[key]
            sign = 1 if a_forward == forward else -1
            target = b.basis[j] if sign > 0 else invert(b.basis[j])
            return FBAdjacency(i + 1, j + 1, sign, find_conjugator(a.basis[i], target))
    return None


def h_map(v):
    """Free factor spanned by the first element of the stored basis."""
    return FFVertex(v.basis, frozenset({1}))


def q_map(u):
    """Any ambient basis of the factor's presentation; here the stored one,
    so q_map(h_map(v)) == v on the nose."""
    return FBVertex(u.ambient)


@dataclass(frozen=True)
class FFStep:
    """One certified hop in a factor-graph path.

    ``nested``: both endpoints share the ambient basis and one subset
    strictly contains the other (a genuine factor-graph edge, cost 1).
    ``conjugate-cyclic``: both endpoints are cyclic factors generating the
    same conjugacy class, witnessed by a conjugator (the same vertex seen
    in two coordinate systems, cost 0).
    """

    kind: str
    conjugator: tuple = ()
    sign: int = 1

    @property
    def cost(self):
        return 1 if self.kind == "nested" else 0

    def to_json_dict(self):
        data = {"kind": self.kind, "cost": self.cost}
        if self.kind == "conjugate-cyclic":
            data["conjugator"] = word_str(self.conjugator)
            data["sign"] = self.sign
        return data


def ff_step_witness(u, w):
    """Certify adjacency of two factors given with the same ambient basis.

    Returns an FFStep when the ambients agree and one subset strictly
    contains the other (the only certified shape), else None.
    """
    if u.ambient != w.ambient:
        return None
    if u.subset < w.subset or w.subset < u.subset:
        return FFStep("nested")
    return None


WITNESS_BOUNDS = {"h-lipschitz": 4, "hq": 3, "density": 3}


def witness_path_from_json(data):
    """Rebuild a WitnessPath from its JSON form (for re-validation), at the
    rank of its ambient bases."""
    vertices = tuple(
        FFVertex(
            tuple(parse_word(w, len(v["ambient"])) for w in v["ambient"]),
            frozenset(v["subset"]),
        )
        for v in data["vertices"]
    )
    rank = len(vertices[0].ambient) if vertices else None
    steps = tuple(
        FFStep(
            s["kind"],
            conjugator=parse_word(s.get("conjugator", "1"), rank),
            sign=s.get("sign", 1),
        )
        for s in data["steps"]
    )
    return WitnessPath(data["kind"], vertices, steps)


def check_step(u, w, step):
    """Re-validate one hop from scratch."""
    if step.kind == "nested":
        return ff_step_witness(u, w) is not None
    if step.kind == "conjugate-cyclic":
        if len(u.subset) != 1 or len(w.subset) != 1:
            return False
        uw = u.words[0]
        ww = w.words[0] if step.sign > 0 else invert(w.words[0])
        return conjugate(uw, step.conjugator) == ww
    return False


@dataclass(frozen=True)
class WitnessPath:
    """A certified factor-graph path; ``length`` counts genuine edges."""

    kind: str
    vertices: tuple
    steps: tuple

    @property
    def length(self):
        return sum(step.cost for step in self.steps)

    def validate(self):
        problems = []
        if len(self.steps) != len(self.vertices) - 1:
            problems.append("step count does not match vertex count")
            return problems
        for k, step in enumerate(self.steps):
            if not check_step(self.vertices[k], self.vertices[k + 1], step):
                problems.append("step %d (%s) does not certify" % (k, step.kind))
        return problems

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "length": self.length,
            "vertices": [v.to_json_dict() for v in self.vertices],
            "steps": [s.to_json_dict() for s in self.steps],
        }


def _require_rank3(n):
    if n < 3:
        raise DomainError("witness paths need rank >= 3")


def h_lipschitz_path(a, b, cert=None):
    """Factor path from h_map(a) to h_map(b) of length at most 4.

    Requires adjacent free-bases vertices; ``cert`` may carry the adjacency
    certificate (computed otherwise).  The path climbs from the first
    element of a to the shared element, re-anchors it in b's coordinates at
    zero cost, and descends to the first element of b; either side
    degenerates when the shared element already sits in position 1.
    """
    _require_rank3(a.rank)
    _require_rank3(b.rank)
    if cert is None:
        cert = fb_adjacent(a, b)
        if cert is None:
            raise DomainError("vertices are not adjacent")
    if not cert.holds_for(a, b):
        raise DomainError("adjacency certificate does not validate")
    A, B = a.basis, b.basis
    vertices = [FFVertex(A, {1})]
    steps = []
    if cert.i != 1:
        vertices.append(FFVertex(A, {1, cert.i}))
        vertices.append(FFVertex(A, {cert.i}))
        steps.extend([FFStep("nested"), FFStep("nested")])
    vertices.append(FFVertex(B, {cert.j}))
    steps.append(
        FFStep("conjugate-cyclic", conjugator=cert.conjugator, sign=cert.sign)
    )
    if cert.j != 1:
        vertices.append(FFVertex(B, {1, cert.j}))
        vertices.append(FFVertex(B, {1}))
        steps.extend([FFStep("nested"), FFStep("nested")])
    path = WitnessPath("h-lipschitz", tuple(vertices), tuple(steps))
    assert not path.validate()
    return path


def _path_to_first_factor(u, kind):
    """Shared construction: climb down to one generator of the factor, over
    to the first ambient element, for both hq_path and density_path."""
    _require_rank3(len(u.ambient))
    bpos = min(u.subset)
    vertices = [u]
    steps = []
    if u.subset != {bpos}:
        vertices.append(FFVertex(u.ambient, {bpos}))
        steps.append(FFStep("nested"))
    if bpos != 1:
        vertices.append(FFVertex(u.ambient, {bpos, 1}))
        vertices.append(FFVertex(u.ambient, {1}))
        steps.extend([FFStep("nested"), FFStep("nested")])
    path = WitnessPath(kind, tuple(vertices), tuple(steps))
    assert not path.validate()
    return path


def hq_path(u):
    """Path of length <= 3 from a factor to h_map(q_map(factor))."""
    return _path_to_first_factor(u, "hq")


def density_path(u):
    """Path of length <= 3 from a factor to an h-image: h-images are
    3-dense among the factors presented over a basis."""
    return _path_to_first_factor(u, "density")


# -- folding chains in the free-bases graph --------------------------------


def folding_chain(b):
    """Folding path from b to the standard basis, with extracted bases.

    Returns ``(m, path, bases)``: the conjugation exponent from
    ensure_foldable, the FoldingPath of the conjugated words, and one
    FBVertex per path graph.  The first entry is b itself (conjugation does
    not move the vertex).  The wedge is folded once, on one live graph, and
    after each maximal fold the next basis is read off its records by
    ``basis_from_tree``'s search at the tracked wedge vertex, or is the
    standard basis once the folds reach the rose; no graph is built.

    ensure_foldable only handles words wearing a common conjugator; folding
    itself copes with any wedge, so when it fails the words are used as
    given (m = 0).
    """
    n = b.rank
    try:
        m, b2 = ensure_foldable(b.basis, n)
    except FoldabilityError:
        m, b2 = 0, b.basis
    folds = _fold_path(b2, n)
    path, _ = next(folds)  # at the wedge, whose basis is b
    bases = [b] + [FBVertex(identity_basis(n) if live.is_rose() else tuple(live.basis()))
                   for _, live in folds]
    return m, path, bases


def folding_path_bases(b):
    """The free-bases chain [b, ..., standard basis] along the folding."""
    return folding_chain(b)[2]


def sample_fb_ball(center, seeds, moves):
    """Finite induced subgraph of the free-bases graph around ``center``.

    Every seed starts a random walk of ``moves`` Nielsen moves from the
    center; each endpoint contributes its folding-path bases as well.
    Candidates with equal keys (see FBVertex.key) are one vertex.  Equal
    keys have equal class-key sets, so candidates are bucketed by that set
    and a key is computed only in a bucket that already holds a
    representative; a repeated basis tuple (most often the standard basis
    ending each chain) is looked up by the tuple, so it is classed once.
    Edges join representatives sharing a class key, which on distinct
    vertices is exactly adjacency.  Components are unions of the groups
    holding a class key.  The largest, the one with the least member on a
    tie, is returned unchecked, since the unions proved it connected, with
    one label per vertex (basis words plus provenance of every merged
    copy).  A candidate repeating a class key is no basis and raises
    NotABasisError.
    """
    candidates = [(center, "center")]
    for s in seeds:
        walked = center.__class__(random_basis(s, moves, rank=center.rank,
                                                start=center.basis))
        candidates.append((walked, "seed %d" % s))
        for k, v in enumerate(folding_path_bases(walked)):
            candidates.append((v, "seed %d / fold %d" % (s, k)))

    reps = []
    labels = []
    buckets, by_basis = {}, {}  # class-key set / basis tuple -> representatives
    for vert, src in candidates:
        k = by_basis.get(vert.basis)
        if k is None:
            bucket = buckets.setdefault(frozenset(vert.classes), [])
            k = next((j for j in bucket if reps[j].key == vert.key), len(reps))
            by_basis[vert.basis] = k
            if k == len(reps):
                bucket.append(k)
                reps.append(vert)
                labels.append({"basis": words_str(vert.basis), "sources": []})
        labels[k]["sources"].append(src)

    holders = {}  # class key -> representatives carrying it
    for i, rep in enumerate(reps):
        for key in rep.classes:
            holders.setdefault(key, []).append(i)

    root = list(range(len(reps)))
    for first, *rest in holders.values():
        first = _find(root, first)
        for j in rest:
            root[_find(root, j)] = first
    comps = {}  # root -> members, in order of their least member
    for i in range(len(reps)):
        comps.setdefault(_find(root, i), []).append(i)
    main = max(comps.values(), key=len)
    renum = {old: new for new, old in enumerate(main)}
    edges = {(renum[i], renum[j]) for group in holders.values()
             for i, j in combinations(group, 2) if i in renum}
    return FiniteGraph(range(len(main)), edges, check=False), [labels[old] for old in main]


@dataclass(frozen=True)
class ChainHop:
    status: str  # "equivalent" | "adjacent" | "uncertified"
    cert: FBAdjacency = None

    def to_json_dict(self):
        data = {"status": self.status}
        if self.cert is not None:
            data["cert"] = self.cert.to_json_dict()
        return data


@dataclass
class ChainReport:
    """Free-bases chain between two vertices with per-hop certificates.

    ``bound`` is a certified upper bound for the graph distance between the
    endpoints (None when some hop failed to certify).  When the chain was
    built from a shared single letter, ``shared`` names it and
    ``target_certs`` show every chain vertex within distance 1 of the
    target.
    """

    vertices: list
    hops: list
    bound: int
    conjugation_exponent: int
    shared: tuple = None
    target_certs: list = field(default_factory=list)

    def to_json_dict(self):
        data = {
            "vertices": [v.to_json_dict() for v in self.vertices],
            "hops": [h.to_json_dict() for h in self.hops],
            "bound": self.bound,
            "conjugation_exponent": self.conjugation_exponent,
        }
        if self.shared is not None:
            data["shared"] = word_str(self.shared)
        if self.target_certs:
            data["target_certs"] = [
                h.to_json_dict() for h in self.target_certs
            ]
        return data


def _hop_between(a, u_ref, v_ref, u, v):
    """Hop between two reference-chain vertices, its certificate pushed
    through x_i -> a_i and re-validated on their images u, v."""
    if fb_equivalent(u_ref, v_ref):
        return ChainHop("equivalent")
    cert = _shared_key_cert(u_ref, v_ref)
    if cert is None:
        return ChainHop("uncertified")
    cert = FBAdjacency(cert.i, cert.j, cert.sign, substitute(cert.conjugator, a.basis))
    if not cert.holds_for(u, v):
        raise AssertionError("mapped certificate failed to validate")
    return ChainHop("adjacent", cert)


def fb_chain_report(a, b_rel):
    """Chain in the free-bases graph from b to a, with certificates.

    ``b_rel`` must give b's words in a's coordinates (for the standard a
    they coincide).  The chain is computed by folding b_rel down to the
    standard basis and pushing every vertex through x_i -> a_i, which is an
    isometry of the free-bases graph, so hop statuses are computed on the
    reference chain and re-validated after mapping.
    """
    m, _, ref = folding_chain(b_rel)
    mapped = [
        FBVertex(tuple(substitute(w, a.basis) for w in v.basis)) for v in ref
    ]
    hops = [
        _hop_between(a, ref[k], ref[k + 1], mapped[k], mapped[k + 1])
        for k in range(len(ref) - 1)
    ]
    certified = all(h.status != "uncertified" for h in hops)
    bound = sum(1 for h in hops if h.status == "adjacent") if certified else None
    shared = None
    target_certs = []
    first = b_rel.basis[0]
    if len(first) == 1:
        shared = substitute(first, a.basis)
        target_certs = [
            _hop_between(a, v_ref, ref[-1], v, mapped[-1])
            for v, v_ref in zip(mapped, ref)
        ]
    return ChainReport(mapped, hops, bound, m, shared, target_certs)


# -- collapse map from splittings to factors --------------------------------


@dataclass(frozen=True)
class SplittingVertex:
    """A one-edge splitting presented by a marking graph and the single
    natural edge left uncollapsed."""

    marking: MarkingGraph
    edge: int

    def __post_init__(self):
        if self.edge not in self.marking.edges:
            raise ValueError("edge %r not in marking" % (self.edge,))


def tau(s):
    """Vertex group of the origin side of the collapsed splitting.

    Collapsing every natural edge but the chosen one leaves a one-edge
    splitting; the vertex group of the origin's collapse class is free on
    the words read around the non-tree edges of that component.  The result
    is returned as a subset of the full ambient basis obtained by extending
    the component's spanning tree to the whole graph.  Raises
    TrivialFactorError when the factor is trivial or improper.
    """
    m = s.marking
    e = m.edges[s.edge]
    n = m.betti()
    drop = {e.id, e.inv}

    # spanning tree: BFS inside the origin's component, then on across e from all of it
    via = bfs([e.src], lambda v: ((f, f.dst) for f in m.out_edges(v) if f.id not in drop))
    comp = set(via)
    bfs(list(via), lambda v: ((f, f.dst) for f in m.out_edges(v)), via)
    if len(via) != len(m.vertices):
        raise DomainError("marking graph is not connected")
    tree = {i for f in via.values() if f is not None for i in (f.id, f.inv)}
    words = {}
    for v, f in via.items():
        words[v] = () if f is None else concat(words[f.src], f.word)

    ambient = []
    subset = set()
    for eid, inv_id in sorted(m.topological_edges()):
        if eid in tree:
            continue
        f = m.edges[eid]
        ambient.append(concat_all(words[f.src], f.word, invert(words[f.dst])))
        if eid not in drop and f.src in comp and f.dst in comp:
            subset.add(len(ambient))
    if len(ambient) != n:
        raise DomainError("marking has unexpected rank %d" % len(ambient))
    if not subset:
        raise TrivialFactorError("origin-side vertex group is trivial")
    if len(subset) >= n:
        raise TrivialFactorError("origin-side vertex group is improper")
    if not is_basis(tuple(ambient), n):
        raise DomainError("marking words do not present the free group")
    return FFVertex(tuple(ambient), frozenset(subset))
