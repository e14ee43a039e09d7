"""The word factorizations the bijections are built on.

Three unique factorizations are provided:

* the block parse of a nonempty Dyck word
      W = U (U W_1 D)(U W_2 D)...(U W_s D) D T
  where the outer U...D pair is the first return to the axis, the s blocks
  are the first-return factors of its interior, and T is the remainder;

* the spine parse of a nonempty Dyck word
      W = (U W_1)(U W_2)...(U W_s) U D^{s+1} T
  where Q = W up to its first return is cut at its trailing descent: the
  descent has length s+1 (equivalently, Q's rightmost peak sits at height
  s+1), the U before it is the anchor, and the i-th spine U is the last
  rise from height i-1 to i inside Q;

* the crossing factorization of a balanced word into maximal runs of
  same-sign excursions, whose factors alternate between nonempty Dyck
  words and negative Dyck words.

Note on the spine parse: anchoring on the rightmost peak of the whole word
would be ambiguous (UUDDUD has its global rightmost peak at height 1 but
spine length 2); the first-return prefix is the reading under which the two
parses invert each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWordError, NotADyckWordError, NotBilateralError
from .words import _LONG, _U, PathWord, _rows, _up_and_heights, _ups, require_dyck


def _first_return_len(data) -> int:
    """Length of the prefix of a nonempty Dyck word ending at its first return.

    Accepts str or bytes; indices coincide since the alphabet is ASCII.
    """
    if isinstance(data, str):
        data = data.encode("ascii")
    h = 0
    for i, ch in enumerate(data, 1):
        h = h + 1 if ch == _U else h - 1
        if not h:
            return i
    raise NotADyckWordError("word never returns to the axis")


def _check_nonempty_dyck(w: PathWord) -> None:
    if not w.text:
        raise EmptyWordError("the empty word has no factorization")
    require_dyck(w)


@dataclass(frozen=True)
class PhiDecomposition:
    """Block parse (s inner Dyck words and a tail Dyck word)."""

    inner: tuple[PathWord, ...]
    tail: PathWord

    @property
    def s(self) -> int:
        return len(self.inner)

    def recompose(self) -> PathWord:
        blocks = "".join("U" + w.text + "D" for w in self.inner)
        return PathWord("U" + blocks + "D" + self.tail.text)


@dataclass(frozen=True)
class PsiDecomposition:
    """Spine parse (s inner Dyck words, an anchor peak, and a tail)."""

    inner: tuple[PathWord, ...]
    tail: PathWord

    @property
    def s(self) -> int:
        return len(self.inner)

    def recompose(self) -> PathWord:
        spine = "".join("U" + w.text for w in self.inner)
        return PathWord(spine + "U" + "D" * (self.s + 1) + self.tail.text)


@dataclass(frozen=True)
class CrossingFactorization:
    """Alternating Dyck / negative Dyck factors; one more factor than crossings."""

    factors: tuple[PathWord, ...]

    @property
    def crossings(self) -> int:
        return max(len(self.factors) - 1, 0)

    def recompose(self) -> PathWord:
        return PathWord("".join(f.text for f in self.factors))


def first_return_split(w: PathWord) -> tuple[PathWord, PathWord]:
    """Split a nonempty Dyck word at its first return to the axis.

    Returns (head, rest) with head prime (exactly one contact) and
    head + rest == w.
    """
    _check_nonempty_dyck(w)
    r = _first_return_len(w.text)
    return PathWord(w.text[:r]), PathWord(w.text[r:])


def _phi_parse_text(text: str) -> tuple[list, str]:
    """Block parse of a nonempty Dyck word; returns (inner texts, tail text)."""
    r = _first_return_len(text)
    interior, tail = text[1 : r - 1], text[r:]
    inner = []
    h = 0
    start = 0
    for i, ch in enumerate(interior, 1):
        h = h + 1 if ch == "U" else h - 1
        if not h:
            inner.append(interior[start + 1 : i - 1])
            start = i
    return inner, tail


def phi_parse(w: PathWord) -> PhiDecomposition:
    """Block parse of a nonempty Dyck word.

    The number of blocks s equals the number of down-steps at height 2
    before the first contact.
    """
    _check_nonempty_dyck(w)
    inner, tail = _phi_parse_text(w.text)
    return PhiDecomposition(tuple(PathWord(t) for t in inner), PathWord(tail))


def _psi_parse_text(text: str) -> tuple[list, str]:
    """Spine parse of a nonempty Dyck word; returns (inner texts, tail text)."""
    r = _first_return_len(text)
    q, tail = text[:r], text[r:]
    stripped = q.rstrip("D")
    s = len(q) - len(stripped) - 1
    body = q[: len(stripped) - 1]  # drop the anchor U as well
    if not s:
        return [], tail
    # Last rise to each spine level 1..s; later rises overwrite earlier ones.
    last_rise = [0] * (s + 1)
    h = 0
    for idx, ch in enumerate(body):
        if ch == "U":
            h += 1
            if h <= s:
                last_rise[h] = idx
        else:
            h -= 1
    cuts = last_rise[1:] + [len(body)]
    inner = [body[cuts[i] + 1 : cuts[i + 1]] for i in range(s)]
    return inner, tail


def psi_parse(w: PathWord) -> PsiDecomposition:
    """Spine parse of a nonempty Dyck word.

    s + 1 equals the height of the rightmost peak of the word's
    first-return prefix (the length of that prefix's trailing descent).
    """
    _check_nonempty_dyck(w)
    inner, tail = _psi_parse_text(w.text)
    return PsiDecomposition(tuple(PathWord(t) for t in inner), PathWord(tail))


def _negative_steps(mat: np.ndarray, h=None) -> np.ndarray:
    """Where the steps of balanced words, one per column of a ``(steps,
    words)`` uint8 matrix, run below the axis, which is where their negative
    crossing factors lie; ``h`` holds the words' heights if known."""
    if h is None:
        h = _up_and_heights(mat)[1]
    return (h < 0) | ((h == 0) & (mat == _U))


def _crossing_factors(data: bytes) -> list:
    """Factor boundaries as (start, end, is_negative), in word order; on a
    long balanced word, wherever the sign of the steps changes."""
    if len(data) >= _LONG:
        negative = _negative_steps(_rows([data.decode("ascii")]))[:, 0]
        start = np.flatnonzero(negative[1:] != negative[:-1]) + 1
        start = [0] + start.tolist()
        return list(zip(start, start[1:] + [len(data)], negative[start].tolist()))
    if not data:
        return []
    # a factor starts where a step leaves the axis with the other sign
    factors = []
    h = start = 0
    negative = data[0] != _U
    for i, ch in enumerate(data):
        if ch == _U:
            if not h and negative:
                factors.append((start, i, True))
                start, negative = i, False
            h += 1
        else:
            if not h and not negative:
                factors.append((start, i, False))
                start, negative = i, True
            h -= 1
    factors.append((start, len(data), negative))
    return factors


def crossing_factorize(w: PathWord) -> CrossingFactorization:
    """Cut a balanced word at every axis vertex where the excursion sign flips.

    Factors are maximal runs of same-sign excursions; they alternate between
    nonempty Dyck words and negative Dyck words, and there is exactly one
    more factor than the word has crossings.  The empty word has no factors.
    """
    if 2 * _ups(w.text) != len(w.text):
        raise NotBilateralError("crossing factorization requires a balanced word")
    parts = _crossing_factors(w.text.encode("ascii"))
    return CrossingFactorization(
        tuple(PathWord(w.text[a:b]) for a, b, _ in parts)
    )


# --- bracketing renderers ------------------------------------------------
#
# Textual forms of the two parses, applied recursively: block arguments are
# wrapped in parentheses (an empty argument prints as "()"), tails print
# inline.  Neither recurses, so arbitrarily deep words are fine: the block
# parse's renderer reads each step's bracket from its position's parity,
# and the spine parse's is a single-pass stack machine on the mirrored word.

_BRACKET_MIRROR = str.maketrans("UD()", "DU)(")


def phi_bracketing(w: PathWord) -> str:
    """Fully bracketed form of a Dyck word under the block parse."""
    require_dyck(w)
    return _phi_bracketing_text(w.text)


def _phi_bracketing_text(text: str) -> str:
    # a U to odd height opens a node, U, and one to even height a block, U(;
    # a D closes them alike.  A step's heights have its position's parity,
    # so a step at an even index is a U to odd height or a D from even.
    out = []
    emit = out.append
    even = False
    for ch in text:
        even = not even  # the step's index is even
        if ch == "U":
            emit("U" if even else "U(")
        else:
            emit(")D" if even else "D")
    return "".join(out)


def psi_bracketing(w: PathWord) -> str:
    """Fully bracketed form of a Dyck word under the spine parse."""
    require_dyck(w)
    return _psi_bracketing_text(w.text)


def _psi_bracketing_text(text: str) -> str:
    mirrored = text.translate(_BRACKET_MIRROR)[::-1]
    out = []
    emit = out.append
    stack = []
    i = 0
    n = len(mirrored)
    while i < n:
        if mirrored[i] == "U":
            j = i + 1
            while mirrored[j] == "U":
                j += 1
            s = j - i - 1
            emit("U" * (s + 1))
            emit("D")
            if s:
                emit("(")
                stack.append(s)
            i = j + 1
        else:
            k = stack[-1] - 1
            if k:
                stack[-1] = k
                emit(")D(")
            else:
                stack.pop()
                emit(")D")
            i += 1
    return "".join(out).translate(_BRACKET_MIRROR)[::-1]
