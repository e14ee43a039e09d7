"""Path statistics and the Narayana numbers.

All statistics are defined on arbitrary step words, below the axis included:
a UD factor at height 0 is a peak, an up-step from -2 to -1 is at odd
height (mathematical parity, so -1 is odd and -2 is even).  This convention
is what makes the statistics compatible with the bilateral bijections.

Every statistic but peaks and valleys, which are string counts, reads the
word's one cached scan (``words._scan_text``), so a word is walked at most
once however many of them are asked for.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NotBilateralError
from .words import PathWord, _Scan, _scan_rows


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
    if 2 * w.text.count("U") != len(w.text):
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
    return w._scan().contacts


def crossings(w: PathWord) -> int:
    """Adjacent same-direction step pairs straddling the axis."""
    return w._scan().crossings


def ups_at_odd_height(w: PathWord) -> int:
    """Up-steps whose ending height is odd (so -1 counts, -2 does not)."""
    return w._scan().ups_odd


def ups_at_even_height(w: PathWord) -> int:
    s = w._scan()
    return s.ups - s.ups_odd


def downs_at_odd_height(w: PathWord) -> int:
    """Down-steps whose starting height is odd."""
    return w._scan().downs_odd


def downs_at_even_height(w: PathWord) -> int:
    s = w._scan()
    return (len(w.text) - s.ups) - s.downs_odd


def stat_record(w: PathWord) -> StatRecord:
    """Bundle of all statistics, from the word's cached scan."""
    _require_balanced(w)
    return _record(w._scan(), len(w.text))


def _require_balanced(w: PathWord) -> None:
    """Raise NotBilateralError unless the word ends on the axis."""
    if w._scan().final:
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


def _stat_records_rows(mat: np.ndarray) -> list:
    """:func:`stat_record` of balanced words, one per column of a
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
