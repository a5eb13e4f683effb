"""Tests for free word arithmetic: reduction, inversion, conjugacy."""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from freebases.words import (
    concat,
    concat_all,
    conjugate,
    cyclic_normal_form,
    cyclic_reduce,
    find_conjugator,
    invert,
    least_rotation,
    letter_key,
    parse_word,
    parse_words,
    power,
    reduce,
    word_str,
    words_str,
)

from oracles import conjugate_related, rotation_find_conjugator, slice_cyclic_normal_form

letters = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_seqs = st.lists(letters, max_size=12).map(tuple)
reduced_words = raw_seqs.map(reduce)


def test_reduce_cancellation():
    assert reduce((1, -1)) == ()
    assert reduce((1, 2, -2, 1)) == (1, 1)


def test_reduce_leaves_reduced_input_alone():
    assert reduce((1, 2, -1)) == (1, 2, -1)


def test_reduce_reads_a_one_shot_iterable_once():
    assert reduce(iter((1, 2))) == (1, 2)
    assert reduce(x for x in (1, 2, -2, 1)) == (1, 1)
    with pytest.raises(ValueError):
        reduce(iter((1, 4)), rank=3)


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce((0,))
    with pytest.raises(ValueError):
        reduce((4,), rank=3)


@given(raw_seqs)
def test_reduce_idempotent_and_nonincreasing(seq):
    w = reduce(seq)
    assert reduce(w) == w
    assert len(w) <= len(seq)


def test_invert_examples():
    assert invert((1, 2)) == (-2, -1)
    assert invert(()) == ()


@given(reduced_words)
def test_invert_is_an_involution(w):
    assert invert(invert(w)) == w


def test_concat_examples():
    assert concat((1,), (-1,)) == ()
    assert concat((1, 2), (-2, 3)) == (1, 3)
    assert concat((), (2, 1)) == (2, 1)


@given(reduced_words, reduced_words, reduced_words)
def test_concat_associative(u, v, w):
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


@given(reduced_words)
def test_empty_word_is_identity(w):
    assert concat((), w) == w
    assert concat(w, ()) == w
    assert concat(w, invert(w)) == ()


def test_cyclic_normal_form_examples():
    assert cyclic_normal_form((2, 1, -2)) == (1,)
    assert cyclic_normal_form((2, 1)) == (1, 2)
    assert cyclic_normal_form(()) == ()


def test_least_rotation_is_the_least_offset_of_a_least_rotation():
    # by definition, over every word of up to six letters a, A, b, B; an offset
    # is below the length, so a word of at most one letter has offset 0
    for n in range(7):
        for core in product((1, -1, 2, -2), repeat=n):
            keys = [tuple(map(letter_key, core[i:] + core[:i])) for i in range(n)]
            assert least_rotation(core) == (keys.index(min(keys)) if core else 0), core


@given(reduced_words, reduced_words)
def test_cyclic_normal_form_invariant_under_conjugation(w, g):
    assert cyclic_normal_form(reduce(conjugate(w, g))) == cyclic_normal_form(w)


def test_cyclic_reduce_recovers_conjugator():
    core, p = cyclic_reduce((2, 1, -2))
    assert core == (1,)
    assert reduce(concat_all(p, core, invert(p))) == (2, 1, -2)


def test_conjugate_related_examples():
    assert conjugate_related((2, 1, -2), (1,))
    assert conjugate_related((1, 2), (2, 1))
    assert not conjugate_related((1,), (-1,))


@given(reduced_words)
def test_conjugate_related_reflexive(w):
    assert conjugate_related(w, w)


@given(reduced_words, reduced_words)
def test_conjugate_related_symmetric(u, w):
    assert conjugate_related(u, w) == conjugate_related(w, u)


def test_find_conjugator_examples():
    assert find_conjugator((1,), (-2, 1, 2)) == (2,)
    assert find_conjugator((1, 2), (2, 1)) == (1,)
    assert find_conjugator((1,), (2,)) is None
    assert find_conjugator((), (1, 2, -2, -1)) == ()


@given(reduced_words, reduced_words)
def test_find_conjugator_witness_checks(u, w):
    g = find_conjugator(u, w)
    if g is None:
        assert not conjugate_related(u, w)
    else:
        assert reduce(concat_all(invert(g), u, g)) == w


def _kernel_words():
    """Seeded words for the read-kernel cross-checks: every letter sequence of
    length up to 3 at rank 2 (unreduced ones included), powers and conjugates
    of powers, random unreduced words up to rank 30 (letters past z), and
    words over letters whose packed int32 bytes match across letter
    boundaries (1, 256, 65536, 16777216 and inverses)."""
    rng = random.Random(17)

    def draw(letters, n):
        return tuple(rng.choice(letters) for _ in range(n))

    out = [w for n in range(4) for w in product((1, -1, 2, -2), repeat=n)]
    for base in ((1,), (-2,), (1, 2), (1, -2), (2, 1, 1), (28, -27)):
        for n in range(1, 9):
            out.append(power(base, n))
            out.append(conjugate(power(base, n), reduce(draw((1, -1, 2, -2, 3), 3))))
    for rank in (2, 3, 30):
        letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
        out += [draw(letters, rng.randrange(13)) for _ in range(150)]
    overlap = (1, 256, 65536, 16777216, -1, -256, -65536, -16777216)
    out += [draw(overlap, rng.randrange(1, 7)) for _ in range(200)]
    return out


def test_read_kernels_agree_with_quadratic_oracles():
    words = _kernel_words()
    rng = random.Random(29)
    answers = set()
    for u in words:
        assert cyclic_normal_form(u) == slice_cyclic_normal_form(u), u
        core, _ = cyclic_reduce(u)
        k = rng.randrange(len(core) + 1)
        partners = [rng.choice(words), conjugate(u, rng.choice(words)),
                    conjugate(core[k:] + core[:k], rng.choice(words))]
        if core:
            # same core length, one letter changed: mostly not conjugate
            partners.append(core[:-1] + (rng.choice((1, -1, 2, -2)),))
        for w in partners:
            g = find_conjugator(u, w)
            # the oracle's empty-core check fails on unreduced w, so it reads w reduced
            assert g == rotation_find_conjugator(u, reduce(w)), (u, w)
            answers.add(g is None)
    assert answers == {True, False}


def test_cyclic_normal_form_on_a_hundred_thousand_letters():
    periodic = (1, -2) * 50_000
    assert cyclic_normal_form(periodic) == periodic
    assert cyclic_normal_form(periodic[1:] + periodic[:1]) == periodic
    rng = random.Random(41)
    letters = [1]
    while len(letters) < 100_010:
        letters.append(rng.choice([x for x in (1, -1, 2, -2, 3, -3) if x != -letters[-1]]))
    core, _ = cyclic_reduce(letters)
    assert len(core) >= 100_000
    form = cyclic_normal_form(core)
    k = (word_str(core) * 2).find(word_str(form))  # one character per letter
    assert 0 <= k and form == core[k:] + core[:k]
    key = [letter_key(x) for x in form]
    assert all(key <= key[r:] + key[:r] for r in rng.sample(range(len(key)), 40))
    assert cyclic_normal_form(conjugate(core, core[:7777])) == form
    assert cyclic_normal_form(form[33_333:] + form[:33_333]) == form


def test_find_conjugator_on_ten_thousand_letters():
    u = (1, 2) * 5000
    assert find_conjugator(u, u[:-1] + (3,)) is None
    assert find_conjugator(u, u[1:] + u[:1]) == (1,)
    rng = random.Random(43)
    w = reduce([rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(12_000)])
    v = conjugate(w, reduce([rng.choice((1, -1, 2, -2)) for _ in range(40)]))
    assert conjugate(w, find_conjugator(w, v)) == v


@given(reduced_words, st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_concat(w, k):
    expected = ()
    for _ in range(abs(k)):
        expected = concat(expected, w if k > 0 else invert(w))
    assert power(w, k) == expected


def test_power_is_the_reduced_repeat():
    assert power((1, -2), 20_000) == reduce((1, -2) * 20_000)
    # (1, 2, -1)^k cancels across every seam; (1, 2, 1, -2, -1) too
    for w in ((1, -2), (2,), (1, 2, -1), (1, 2, 1, -2, -1), (3, -1, 2, 1, -3)):
        for k in range(-5, 6):
            expected = ()
            for _ in range(abs(k)):
                expected = concat(expected, w if k > 0 else invert(w))
            assert power(w, k) == expected, (w, k)
    assert power((1, 2, -1), 3) == (1, 2, 2, 2, -1)
    assert power((1, 2, -1), -2) == (1, -2, -2, -1)
    assert power((1, 2), 0) == ()


def test_text_round_trip():
    assert parse_word("abA") == (1, 2, -1)
    assert parse_word("1") == ()
    assert word_str(()) == "1"
    assert word_str((1, 2, -1)) == "abA"
    assert parse_words("ab,b,c") == ((1, 2), (2,), (3,))
    assert words_str(((1, 2), (2,), (3,))) == "ab,b,c"


def test_parse_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("a?b")
    with pytest.raises(ValueError):
        parse_word("d", rank=3)


@given(reduced_words)
def test_word_str_round_trips(w):
    assert parse_word(word_str(w)) == w


def test_letters_past_z_round_trip():
    w = (27, -30, 1, -26, 100, 270)
    assert word_str(w) == "x27X30aZx100x270"
    assert parse_word(word_str(w), rank=270) == w
    with pytest.raises(ValueError):
        parse_word("x27", rank=26)


def test_letters_up_to_z_have_one_spelling():
    for text in ("x1", "x26", "X5", "x027"):
        with pytest.raises(ValueError):
            parse_word(text, rank=None)


@given(st.lists(st.integers(1, 400).flatmap(lambda i: st.sampled_from([i, -i])),
                max_size=12).map(reduce))
def test_word_str_round_trips_at_any_rank(w):
    assert parse_word(word_str(w), rank=None) == w
