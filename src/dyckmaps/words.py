"""Step words: representation, validation, classification, the one height scan.

A word is a finite sequence of up-steps (+1) and down-steps (-1) read as a
walk starting at height 0.  Everything else in the library (statistics,
decompositions, bijections, enumeration) operates on these words.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidCharacterError, NotADyckWordError, NotBilateralError

# Accepted input alphabets: U/D canonical, u/d case-folded, (/) aliases.
_ALIAS_TABLE = str.maketrans("ud()", "UDUD")
_FLIP_TABLE = str.maketrans("UD", "DU")

# Above this many steps, height scans switch to vectorised numpy passes.
_LONG = 4096
# From this many words on, a cumsum down the steps of a matrix adds whole rows.
_ROW_SUMS = 512


class Step(Enum):
    """One lattice step; serialized as 'U' or 'D'."""

    UP = "U"
    DOWN = "D"

    @property
    def char(self) -> str:
        return self.value

    @property
    def delta(self) -> int:
        return 1 if self is Step.UP else -1

    @property
    def flipped(self) -> "Step":
        return Step.DOWN if self is Step.UP else Step.UP


class PathClass(Enum):
    """Classification of a step word.

    EMPTY             the zero-length word
    DYCK              nonempty, returns to 0, never dips below 0
    NEGATIVE_DYCK     nonempty, returns to 0, never rises above 0
    BILATERAL_PROPER  returns to 0 and visits both signs
    NOT_CLOSED        does not end at height 0 (not a balanced word at all)
    """

    EMPTY = "empty"
    DYCK = "dyck"
    NEGATIVE_DYCK = "negative_dyck"
    BILATERAL_PROPER = "bilateral_proper"
    NOT_CLOSED = "not_closed"


# Vertex heights after each step; the start vertex at height 0 is implicit.
HeightProfile = list


def _rows(texts: list) -> np.ndarray:
    """Equal-length canonical words as the columns of a C-contiguous
    ``(steps, words)`` uint8 matrix of their ASCII bytes: steps run down
    axis 0.  :func:`_row_texts` turns it back; these two and
    :func:`_parse_rows` are the only conversions between words and matrices."""
    width = len(texts[0]) if texts else 0
    data = "".join(texts).encode("ascii")  # a one-word list joins without a copy
    by_word = np.frombuffer(data, dtype=np.uint8).reshape(len(texts), width)
    # a one-word (steps, 1) column has the bytes of the word and is no copy
    return np.ascontiguousarray(by_word.T)


def _parse_rows(texts: list) -> tuple[np.ndarray, np.ndarray]:
    """:func:`parse_word` of equal-length texts at once: the matrix of
    :func:`_rows` after the alias table, and which columns parse.  A
    character outside the alphabets, non-ASCII included, fails its column."""
    text = "".join(texts)
    if any(alias in text for alias in "ud()"):  # the table reads every character
        text = text.translate(_ALIAS_TABLE)
    data = text.encode("ascii", "replace")
    mat = np.frombuffer(data, dtype=np.uint8).reshape(len(texts), -1).T.copy()
    return mat, ((mat == 85) | (mat == 68)).all(axis=0)


def _row_texts(mat: np.ndarray) -> list:
    """The words of a ``(steps, words)`` uint8 matrix of steps, one per column."""
    width = mat.shape[0]
    data = mat.T.tobytes().decode("ascii")
    return [data[i * width : (i + 1) * width] for i in range(mat.shape[1])]


def _cumsum_down(x: np.ndarray, dtype, out=None) -> np.ndarray:
    """``np.cumsum(x, axis=0, dtype=dtype, out=out)`` of a ``(steps, words)``
    matrix.  numpy sums one strided column at a time, which costs more than
    a loop over the steps once a row holds many words: 24 x 1,024 int32
    steps took 121 us against 23 us."""
    if x.shape[1] < _ROW_SUMS or not len(x):
        return np.cumsum(x, axis=0, dtype=dtype, out=out)
    if out is None:
        out = np.empty(x.shape, dtype)
    out[0] = x[0]
    for step in range(1, len(x)):
        np.add(out[step - 1], x[step], out=out[step])
    return out


def _up_and_heights(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up-step mask and vertex heights of equal-length words, one per column
    of a ``(steps, words)`` uint8 matrix, by one cumsum down axis 0; heights
    are in the smallest signed type that holds them."""
    up = mat == 85  # ord('U')
    width = mat.shape[0]
    dtype = np.int8 if width < 128 else np.int16 if width < 32768 else np.int32
    steps = up.view(np.int8) * np.int8(2) - np.int8(1)
    return up, _cumsum_down(steps, dtype)


class _Scan(NamedTuple):
    final: int
    lo: int
    hi: int
    peaks: int
    valleys: int
    contacts: int
    crossings: int
    ups: int
    ups_odd: int
    downs_odd: int


def _scan_text(text: str) -> _Scan:
    """Every local statistic of a canonical word: one walk for the heights,
    contacts and crossings, string counts for the rest.  An up-step at index
    i ends at the parity of i + 1 and a down-step starts at the parity of i."""
    if len(text) >= _LONG:
        return _Scan(*(int(field[0]) for field in _scan_rows(_rows([text]))))
    h = lo = hi = 0
    contacts = crossings = 0
    prev = ""
    for ch in text:
        if ch == "U":
            if not h and prev == "U":
                crossings += 1
            h += 1
            if h > hi:
                hi = h
            elif not h:
                contacts += 1
        else:
            if not h and prev == "D":
                crossings += 1
            h -= 1
            if h < lo:
                lo = h
            elif not h:
                contacts += 1
        prev = ch
    ups = (len(text) + h) >> 1
    ups_odd = text[0::2].count("U")
    downs_odd = (len(text) >> 1) - (ups - ups_odd)  # the D's at odd indices
    return _Scan(h, lo, hi, text.count("UD"), text.count("DU"), contacts, crossings,
                 ups, ups_odd, downs_odd)


def _count(mask: np.ndarray) -> np.ndarray:
    """The True entries of each column of a mask, as int32, which holds any
    word length."""
    return np.add.reduce(mask, axis=0, dtype=np.int32)


def _scan_rows(mat: np.ndarray, h=None) -> _Scan:
    """The fields of :func:`_scan_text` for equal-length words, one per column
    of a ``(steps, words)`` uint8 matrix, as int arrays from one height scan
    down axis 0; ``h`` holds the words' heights if known."""
    up = mat == 85  # ord('U')
    if h is None:
        h = _up_and_heights(mat)[1]
    down = ~up
    same = up[:-1] == up[1:]
    ups = _count(up)
    return _Scan(
        2 * ups - mat.shape[0],
        h.min(axis=0, initial=0),
        h.max(axis=0, initial=0),
        _count(up[:-1] & down[1:]),
        _count(down[:-1] & up[1:]),
        _count(h == 0),
        _count((h[:-1] == 0) & same),
        ups,
        _count(up[0::2]),  # an up-step at index i ends at the parity of i + 1
        _count(down[1::2]),  # a down-step at index i starts at the parity of i
    )


class PathWord:
    """Immutable validated step word.

    Construction requires canonical text over {U, D}; use :func:`parse_word`
    for the lenient alphabets.  The word's one statistics scan (its height
    extremes, contacts, crossings and parity counts) and its vertex height
    list are computed once on demand and cached.  All transforms return
    fresh words, and a pickle or copy is rebuilt from the text alone, so
    instances are safe to share between workers.
    """

    __slots__ = ("text", "_scanned", "_heights")

    def __init__(self, text: str = ""):
        if text.count("U") + text.count("D") != len(text):
            bad = next(i for i, ch in enumerate(text) if ch not in "UD")
            raise InvalidCharacterError(text[bad], bad + 1)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "_scanned", None)
        object.__setattr__(self, "_heights", None)

    def __setattr__(self, name, value):
        raise AttributeError("PathWord is immutable")

    def __reduce__(self):
        return PathWord, (self.text,)

    # Internal caches bypass the immutability guard.
    def _cache(self, name, value):
        object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other) -> bool:
        if isinstance(other, PathWord):
            return self.text == other.text
        return NotImplemented

    def __hash__(self) -> int:
        return hash((PathWord, self.text))

    def __repr__(self) -> str:
        return f"PathWord({self.text!r})"

    def __str__(self) -> str:
        return self.text

    def __iter__(self):
        return (Step.UP if ch == "U" else Step.DOWN for ch in self.text)

    def __getitem__(self, index: int) -> Step:
        ch = self.text[index]
        return Step.UP if ch == "U" else Step.DOWN

    def serialize(self) -> str:
        """Canonical text form; the empty word serializes to ''."""
        return self.text

    @property
    def length(self) -> int:
        return len(self.text)

    def _scan(self) -> _Scan:
        scan = self._scanned
        if scan is None:
            scan = _scan_text(self.text)
            self._cache("_scanned", scan)
        return scan

    @property
    def final_height(self) -> int:
        return self._scan().final

    @property
    def min_height(self) -> int:
        return self._scan().lo

    @property
    def max_height(self) -> int:
        return self._scan().hi

    def _height_list(self) -> list:
        heights = self._heights
        if heights is None:
            text = self.text
            if len(text) >= _LONG:
                heights = _up_and_heights(_rows([text]))[1][:, 0].tolist()
            else:
                heights = []
                h = 0
                for ch in text:
                    h = h + 1 if ch == "U" else h - 1
                    heights.append(h)
            self._cache("_heights", heights)
        return heights


def parse_word(text: str) -> PathWord:
    """Parse a word from text.

    Accepts 'U'/'D', the case-folded 'u'/'d', and '('/')' as aliases for
    up/down.  The empty string parses to the empty word.  Raises
    InvalidCharacterError (1-based position) on anything else.
    """
    canon = text.translate(_ALIAS_TABLE)
    return PathWord(canon)


def classify(w: PathWord) -> PathClass:
    """Classify a word; open words classify as NOT_CLOSED rather than erroring."""
    if not w.text:
        return PathClass.EMPTY
    s = w._scan()
    if s.final != 0:
        return PathClass.NOT_CLOSED
    if s.lo >= 0:
        return PathClass.DYCK
    if s.hi <= 0:
        return PathClass.NEGATIVE_DYCK
    return PathClass.BILATERAL_PROPER


def height_profile(w: PathWord) -> HeightProfile:
    """Vertex heights after each step (prefix sums of +-1)."""
    return list(w._height_list())


def step_height(w: PathWord, i: int) -> int:
    """Height of the 1-based i-th step.

    An up-step ending at height j and a down-step starting at height j are
    both at height j; equivalently the larger endpoint height of the step.
    O(1) after the word's height list has been built once.
    """
    if not 1 <= i <= len(w.text):
        raise IndexError(f"step index {i} out of range 1..{len(w.text)}")
    heights = w._height_list()
    before = heights[i - 2] if i >= 2 else 0
    after = heights[i - 1]
    return before if before > after else after


def reflect(w: PathWord) -> PathWord:
    """Flip every step (mirror in the horizontal axis); defined for any word."""
    return PathWord(w.text.translate(_FLIP_TABLE))


def _describe_dyck_violation(text: str) -> str:
    """Human-readable reason why text is not a Dyck word (1-based positions)."""
    h = 0
    for i, ch in enumerate(text, 1):
        h = h + 1 if ch == "U" else h - 1
        if h < 0:
            return f"vertex below axis at step {i}"
    return f"path ends at height {h} instead of 0"


def require_dyck(w: PathWord) -> None:
    """Raise NotADyckWordError unless the word is empty or a Dyck word."""
    cls = classify(w)
    if cls not in (PathClass.EMPTY, PathClass.DYCK):
        raise NotADyckWordError(
            f"not a Dyck word: {_describe_dyck_violation(w.text)}"
        )


def _dyck_rows(mat: np.ndarray) -> np.ndarray:
    """Which columns of a ``(steps, words)`` uint8 matrix, at least one step
    long, are Dyck words."""
    h = _up_and_heights(mat)[1]
    return (h.min(axis=0) >= 0) & (h[-1] == 0)


def _closed_rows(mat: np.ndarray) -> np.ndarray:
    """Which columns of a ``(steps, words)`` uint8 matrix end at height 0."""
    return 2 * (mat == 85).sum(axis=0, dtype=np.int32) == len(mat)


def require_closed(w: PathWord) -> None:
    """Raise NotBilateralError unless the word ends at height 0."""
    final = 2 * w.text.count("U") - len(w.text)  # counted, so no scan
    if final:
        raise NotBilateralError(f"not a bilateral Dyck word: path ends at height {final}")
