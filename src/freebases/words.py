"""Words in a free group of finite rank.

A letter is a nonzero integer: ``i`` stands for the i-th generator ``x_i``
(1-based) and ``-i`` for its inverse.  A word is a tuple of letters; the
empty tuple is the identity.  Functions returning words always return freely
reduced tuples.

Text encoding: ``a``..``z`` are x_1..x_26, ``A``..``Z`` their inverses,
``x27``/``X27`` and so on the letters past z, and the string ``"1"`` denotes
the empty word.  So ``"abA"`` parses to ``(1, 2, -1)``.

The letter order used everywhere for tie-breaking is
x_1 < x_1^-1 < x_2 < x_2^-1 < ... (generator before its inverse).
"""

import re
from array import array

DEFAULT_RANK = 3


def letter_key(letter):
    """Sort key realising the order x_1 < x_1^-1 < x_2 < x_2^-1 < ..."""
    return (abs(letter), 0 if letter > 0 else 1)


def check_letters(seq, rank):
    for letter in seq:
        if not isinstance(letter, int) or letter == 0:
            raise ValueError("letters must be nonzero integers, got %r" % (letter,))
        if rank is not None and abs(letter) > rank:
            raise ValueError(
                "letter index %d out of range for rank %d" % (abs(letter), rank)
            )


def reduce(seq, rank=None):
    """Freely reduce a letter sequence.

    Cancels adjacent inverse pairs until none remain.  With ``rank`` given,
    raises ValueError on letters outside ``1..rank``.  Any iterable will
    do; it is read once.
    """
    seq = tuple(seq)
    check_letters(seq, rank)
    out = []
    for letter in seq:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def is_reduced(seq):
    return all(seq[k] != -seq[k + 1] for k in range(len(seq) - 1))


def invert(w):
    """Inverse word: reversed letters, each negated."""
    return tuple(-letter for letter in reversed(w))


def concat(u, w):
    """Reduced product u·w."""
    u = list(u)
    for letter in w:
        if u and u[-1] == -letter:
            u.pop()
        else:
            u.append(letter)
    return tuple(u)


def concat_all(*ws):
    out = ()
    for w in ws:
        out = concat(out, w)
    return out


def power(w, k):
    """w^k, reduced: one free reduction of k copies, linear in k·|w|."""
    if k < 0:
        w, k = invert(w), -k
    return reduce(tuple(w) * k)


def conjugate(w, g):
    """g^-1 · w · g, reduced."""
    return concat(concat(invert(g), tuple(w)), g)


def cyclic_reduce(w):
    """Cyclically reduced core of w.

    Returns ``(core, p)`` with ``w = p · core · p^-1`` as reduced words.
    """
    w = reduce(w)
    p = []
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        p.append(w[lo])
        lo += 1
        hi -= 1
    return w[lo:hi], tuple(p)


def least_rotation(core):
    """Offset i of the least rotation core[i:] + core[:i] under the letter
    order: a two-pointer scan over the doubled word (Booth 1980, Shiloach
    1981), in time linear in its length."""
    n = len(core)
    if n <= 1:
        return 0
    key = [2 * abs(letter) + (letter < 0) for letter in core] * 2  # letter_key order
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = key[i + k], key[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        elif i > j:
            i, j = j, i
        k = 0
    return i


def cyclic_normal_form(w):
    """Canonical representative of the conjugacy class of w.

    Cyclically reduces, then takes the rotation that is minimal under the
    letter order (see ``least_rotation``).  Two words are conjugate iff
    their normal forms coincide.
    """
    core, _ = cyclic_reduce(w)
    i = least_rotation(core)
    return core[i:] + core[:i]


def find_conjugator(u, w):
    """A word g with g^-1 · u · g == w, or None if u, w are not conjugate.

    Built from the cyclic decompositions u = p·u0·p^-1, w = q·w0·q^-1 and the
    least rotation offset k with rot_k(u0) == w0: then g = p · u0[:k] · q^-1.
    k is found by one C-level substring search for w0 in the packed doubled
    u0, skipping hits off the letter boundaries, so the cost is about linear
    in the word lengths.  The witness is verified before being returned.
    """
    u0, p = cyclic_reduce(u)
    w0, q = cyclic_reduce(w)
    if len(u0) != len(w0):
        return None
    packed = array("i", u0)
    needle = array("i", w0).tobytes()
    hay = packed.tobytes() * 2
    pos = hay.find(needle)
    while pos > 0 and pos % packed.itemsize:
        pos = hay.find(needle, pos + 1)
    if pos < 0:
        return None
    g = concat_all(p, u0[: pos // packed.itemsize], invert(q))
    assert conjugate(u, g) == reduce(w)
    return g


_ORIGIN = ord("a")
# one letter: x/X and a number from 27 on, longest match first, or one character
_LETTER = re.compile(r"[xX]([1-9][0-9]{2,}|[3-9][0-9]|2[7-9])|[a-zA-Z]")


def parse_word(text, rank=DEFAULT_RANK):
    """Parse ``"abA"`` style text to a word; ``"1"`` is the empty word.

    Letters past z are read in their ``x27``/``X27`` form; letters up to z
    have only their one-character spelling.  Raises ValueError on characters
    outside the alphabet or letters beyond ``rank``.
    """
    text = text.strip()
    if text == "1" or text == "":
        return ()
    letters = []
    pos = 0
    while pos < len(text):
        m = _LETTER.match(text, pos)
        if m is None:
            raise ValueError("bad character %r in word %r" % (text[pos], text))
        ch, pos = text[pos], m.end()
        index = int(m.group(1)) if m.group(1) else ord(ch.lower()) - _ORIGIN + 1
        letters.append(index if ch.islower() else -index)
    check_letters(letters, rank)
    return reduce(letters)


def letter_str(letter):
    if abs(letter) > 26:
        # no single-character encoding past z; fall back to a readable form
        return "x%d" % letter if letter > 0 else "X%d" % -letter
    ch = chr(_ORIGIN + abs(letter) - 1)
    return ch if letter > 0 else ch.upper()


def word_str(w):
    """Inverse of parse_word; the empty word renders as "1"."""
    if not w:
        return "1"
    return "".join(letter_str(letter) for letter in w)


def parse_words(text, rank=DEFAULT_RANK):
    """Parse a comma-separated list of words, e.g. ``"ab,b,c"``."""
    return tuple(parse_word(part, rank) for part in text.split(","))


def words_str(ws):
    return ",".join(word_str(w) for w in ws)
