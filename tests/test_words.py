"""Tests for free word arithmetic: reduction, inversion, conjugacy."""

import pytest
from hypothesis import given, strategies as st

from freebases.words import (
    concat,
    concat_all,
    conjugate,
    conjugate_related,
    cyclic_normal_form,
    cyclic_reduce,
    find_conjugator,
    invert,
    parse_word,
    parse_words,
    power,
    reduce,
    word_str,
    words_str,
)

letters = st.sampled_from([1, -1, 2, -2, 3, -3])
raw_seqs = st.lists(letters, max_size=12).map(tuple)
reduced_words = raw_seqs.map(reduce)


def test_reduce_cancellation():
    assert reduce((1, -1)) == ()
    assert reduce((1, 2, -2, 1)) == (1, 1)


def test_reduce_leaves_reduced_input_alone():
    assert reduce((1, 2, -1)) == (1, 2, -1)


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


@given(reduced_words, reduced_words)
def test_find_conjugator_witness_checks(u, w):
    g = find_conjugator(u, w)
    if g is None:
        assert not conjugate_related(u, w)
    else:
        assert reduce(concat_all(invert(g), u, g)) == w


@given(reduced_words, st.integers(min_value=-4, max_value=4))
def test_power_matches_repeated_concat(w, k):
    expected = ()
    for _ in range(abs(k)):
        expected = concat(expected, w if k > 0 else invert(w))
    assert power(w, k) == expected


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
