"""Path statistics and the Narayana numbers.

All statistics are defined on arbitrary step words, below the axis included:
a UD factor at height 0 is a peak, an up-step from -2 to -1 is at odd
height (mathematical parity, so -1 is odd and -2 is even).  This convention
is what makes the statistics compatible with the bilateral bijections.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotBilateralError
from .words import PathWord, _LONG, _rows, _up_and_heights


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
        return _scan_text_long(text)
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


def _scan_text_long(text: str) -> _Scan:
    return _Scan(*(int(field[0]) for field in _scan_rows(_rows([text]))))


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


class StatRecord(NamedTuple):
    """All statistics of one balanced word."""

    n: int
    peaks: int
    valleys: int
    contacts: int
    crossings: int
    ups_odd: int
    ups_even: int
    downs_odd: int
    downs_even: int
    max_height: int
    min_height: int
    is_prime: bool

    def to_text(self) -> str:
        """Flat key:value form, fields in declaration order."""
        return _TEXT_TEMPLATE.format(*self[:-1], "true" if self.is_prime else "false")

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self))


_TEXT_TEMPLATE = " ".join(f"{name}:{{}}" for name in StatRecord._fields)


def semilength(w: PathWord) -> int:
    """Half the number of steps; requires a balanced word."""
    if w.text and w.final_height != 0:
        raise NotBilateralError("semilength is defined for balanced words only")
    return len(w.text) // 2


def peaks(w: PathWord) -> int:
    """Number of UD factors, at any height."""
    return w.text.count("UD")


def valleys(w: PathWord) -> int:
    """Number of DU factors, at any height."""
    return w.text.count("DU")


def contacts(w: PathWord) -> int:
    """Steps touching the axis from above or below.

    A contact is a down-step at height 1 or an up-step at height 0, i.e.
    exactly the steps that end on the axis.
    """
    return _scan_text(w.text).contacts


def crossings(w: PathWord) -> int:
    """Adjacent same-direction step pairs straddling the axis."""
    return _scan_text(w.text).crossings


def ups_at_odd_height(w: PathWord) -> int:
    """Up-steps whose ending height is odd (so -1 counts, -2 does not)."""
    return _scan_text(w.text).ups_odd


def ups_at_even_height(w: PathWord) -> int:
    s = _scan_text(w.text)
    return s.ups - s.ups_odd


def downs_at_odd_height(w: PathWord) -> int:
    """Down-steps whose starting height is odd."""
    return _scan_text(w.text).downs_odd


def downs_at_even_height(w: PathWord) -> int:
    s = _scan_text(w.text)
    return (len(w.text) - s.ups) - s.downs_odd


def stat_record(w: PathWord) -> StatRecord:
    """Bundle of all statistics; cached on the word after the first call."""
    cached = w._stats
    if cached is not None:
        return cached
    rec = _stat_record_text(w.text)
    w._cache("_stats", rec)
    return rec


def _require_balanced(text: str) -> None:
    """Raise NotBilateralError unless a canonical word ends on the axis."""
    if 2 * text.count("U") != len(text):
        raise NotBilateralError("statistics bundle requires a balanced word")


def _record(s: _Scan, size: int) -> StatRecord:
    """The record of a balanced word of ``size`` steps from its scan."""
    return StatRecord(
        n=size // 2,
        peaks=s.peaks,
        valleys=s.valleys,
        contacts=s.contacts,
        crossings=s.crossings,
        ups_odd=s.ups_odd,
        ups_even=s.ups - s.ups_odd,
        downs_odd=s.downs_odd,
        downs_even=(size - s.ups) - s.downs_odd,
        max_height=s.hi,
        min_height=s.lo,
        is_prime=(s.lo >= 0 and s.contacts == 1),
    )


def _stat_record_text(text: str) -> StatRecord:
    """All statistics of a canonical balanced word from one scan."""
    _require_balanced(text)
    return _record(_scan_text(text), len(text))


def _stat_records_rows(mat: np.ndarray) -> list:
    """:func:`_stat_record_text` of balanced words, one per column of a
    ``(steps, words)`` uint8 matrix, from one scan."""
    size = mat.shape[0]
    fields = (field.tolist() for field in _scan_rows(mat))
    return [_record(_Scan(*scan), size) for scan in zip(*fields)]


def narayana(n: int, k: int) -> int:
    """N(n, k) = C(n, k) * C(n, k-1) / n, exactly.

    Counts Dyck words of semilength n with k peaks (equivalently with k
    up-steps at odd height).  Zero outside 1 <= k <= n.  Python integers
    are arbitrary precision, so no overflow can occur; exact divisibility
    is asserted as a sanity check.
    """
    if n < 1:
        raise ValueError("narayana requires n >= 1")
    if k < 1 or k > n:
        return 0
    num = math.comb(n, k) * math.comb(n, k - 1)
    q, r = divmod(num, n)
    assert r == 0, "Narayana product must be divisible by n"
    return q
