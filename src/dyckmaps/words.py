"""Step words: representation, validation, classification, the one height scan.

A word is a finite sequence of up-steps (+1) and down-steps (-1) read as a
walk starting at height 0.  Everything else in the library (statistics,
decompositions, bijections, enumeration) operates on these words.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidCharacterError, NotADyckWordError, NotBilateralError

# Accepted input alphabets: U/D canonical, u/d case-folded, (/) aliases.
_ALIAS_TABLE = str.maketrans("ud()", "UDUD")
_FLIP_TABLE = str.maketrans("UD", "DU")
# The step encoding: words as bytes or as uint8 matrix columns hold ASCII U, D.
_U, _D = 85, 68  # ord("U"), ord("D")
_FLIP_BITS = _U ^ _D  # byte ^ _FLIP_BITS turns U into D and D into U
_FLIP_B = bytes.maketrans(b"UD", b"DU")

# From this many steps on, a word goes through numpy: its height scans and
# per-word maps, _ups, _height_list and _crossing_factors.
_LONG = 4096
# From this many words on, a cumsum of int8 or int16 down at least _BLOCKS
# steps of a matrix adds whole rows, in blocks of about sqrt(steps) rows; any
# other cumsum adds them one at a time from four times as many words.
_ROW_SUMS = 128
_BLOCKS = 64


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


def _parse_rows(texts: list) -> np.ndarray:
    """:func:`parse_word` of equal-length texts at once: the matrix of
    :func:`_rows`, after the alias table, of the texts before the first one
    with a character outside the alphabets, non-ASCII included."""
    data = _canonical("".join(texts)).encode("ascii", "replace")
    mat = np.frombuffer(data, dtype=np.uint8).reshape(len(texts), -1).T.copy()
    return np.ascontiguousarray(mat[:, :_leading(((mat == _U) | (mat == _D)).all(axis=0))])


def _leading(passed: np.ndarray) -> int:
    """How many entries of a boolean vector come before its first False."""
    return len(passed) if passed.all() else int(passed.argmin())


def _row_texts(mat: np.ndarray) -> list:
    """The words of a ``(steps, words)`` uint8 matrix of steps, one per column."""
    width = mat.shape[0]
    data = mat.T.tobytes().decode("ascii")
    return [data[i * width : (i + 1) * width] for i in range(mat.shape[1])]


def _flips(mask: np.ndarray) -> np.ndarray:
    """XOR operand that flips the steps where ``mask`` holds."""
    return mask.view(np.uint8) * np.uint8(_FLIP_BITS)


def _cumsum_down(x: np.ndarray, dtype, out=None) -> np.ndarray:
    """``np.cumsum(x, axis=0, dtype=dtype, out=out)`` of a ``(steps, words)``
    matrix.  numpy sums one strided column at a time, which costs more than
    adding whole rows once a row holds many words.  A sum of int8 or int16,
    the heights, down at least ``_BLOCKS`` steps is cut into blocks of about
    sqrt(steps) rows: one add per row sums that row of every block at once,
    then one add per block carries the sum before it.  Any other sum adds
    its rows one at a time.  Best of 7 on a 2-core x86 host: int8 steps as
    int16 heights at 400 x 327, a CLI chunk of 400-step lines, took 320-400
    us by numpy and 110-210 us in blocks, and at 100 x 1,300, 250 x 520 and
    64 x 2,016, chunks of 100-, 250- and 64-step lines, 250-300, 710-730
    and 195 us row by row against 90-105, 145-150 and 88 us in blocks;
    int32 in place at 20 x 4,096 took 386 us by numpy and 46 us row by row.
    numpy's in-place sum of 32 or 64 bits stays the faster one at 200 x 327
    int32 (50-60 against 90 us in blocks) and 400 x 327 intp (130-140
    against 230-260 us), and blocks of intp lose to the row loop once a row
    holds 16 kB (64 x 2,016: 250 against 170 us).  A word of one column keeps numpy's sum: 10^6 x 1 took
    3.1 against 7.1 ms in blocks.  One block adds whole 1-D rows, not the
    block loop's one-row slices, which took 52 against 46 us at 20 x 4,096
    int32 in place and 48 against 37 us as int8 -> int16 at 16 x 4,096."""
    steps, words = x.shape
    in_blocks = steps >= _BLOCKS and np.dtype(dtype).itemsize <= 2
    if words < (_ROW_SUMS if in_blocks else 4 * _ROW_SUMS) or not steps:
        return np.cumsum(x, axis=0, dtype=dtype, out=out)
    if out is None:
        out = np.empty(x.shape, dtype)
    block = math.isqrt(steps) if in_blocks else steps
    if block == steps:
        out[0] = x[0]
        for step in range(1, steps):
            np.add(out[step - 1], x[step], out=out[step])
        return out
    out[::block] = x[::block]
    for step in range(1, block):  # this row of every block
        np.add(out[step - 1 : steps - 1 : block], x[step::block], out=out[step::block])
    for start in range(block, steps, block):
        out[start : start + block] += out[start - 1]
    return out


def _up_and_heights(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Up-step mask and vertex heights of equal-length words, one per column
    of a ``(steps, words)`` uint8 matrix, by one cumsum down axis 0; heights
    are in the smallest signed type that holds them."""
    up = mat == _U
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
    word length.  One column, a long word's, is counted by
    ``np.count_nonzero``: summing it as int32 costs about three times as
    much."""
    if mask.shape[1] == 1:
        return np.array([np.count_nonzero(mask)], dtype=np.int32)
    return np.add.reduce(mask, axis=0, dtype=np.int32)


def _scan_rows(mat: np.ndarray, h=None) -> _Scan:
    """The fields of :func:`_scan_text` for equal-length words, one per column
    of a ``(steps, words)`` uint8 matrix, as int arrays from one height scan
    down axis 0; ``h`` holds the words' heights if known."""
    up = mat == _U
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
        if not isinstance(text, str):
            raise TypeError(f"PathWord takes str, not {type(text).__name__}")
        if not text.isascii() or text.encode("ascii").translate(None, b"UD"):
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
    return PathWord(_canonical(text))


def _canonical(text: str) -> str:
    """``text`` after the alias table, which reads every character, so only
    where an alias occurs."""
    return text.translate(_ALIAS_TABLE) if any(a in text for a in "ud()") else text


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


def _dyck_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """Which columns of a ``(steps, words)`` uint8 matrix, at least one step
    long, are Dyck words; ``h`` holds their heights if known."""
    h = _up_and_heights(mat)[1] if h is None else h
    return (h.min(axis=0) >= 0) & (h[-1] == 0)


def _closed_rows(mat: np.ndarray) -> np.ndarray:
    """Which columns of a ``(steps, words)`` uint8 matrix end at height 0."""
    return 2 * _count(mat == _U) == len(mat)


def _ups(text: str) -> int:
    """The U's of a canonical word, with no height scan: from ``_LONG`` steps
    on by numpy, as ``str.count`` branches on every step of a random word."""
    if len(text) < _LONG:
        return text.count("U")
    return int(np.count_nonzero(np.frombuffer(text.encode("ascii"), np.uint8) == _U))


def require_closed(w: PathWord) -> None:
    """Raise NotBilateralError unless the word ends at height 0."""
    final = 2 * _ups(w.text) - len(w.text)
    if final:
        raise NotBilateralError(f"not a bilateral Dyck word: path ends at height {final}")
