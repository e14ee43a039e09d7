"""Exhaustive generation, uniform sampling, and exact distribution tables.

Words are enumerated in lexicographic order with U < D by unranking: a
block is a range of ranks, and its words are built step by step as the
columns of a uint8 matrix, so enumeration is deterministic, restartable at
any rank, and bounded in memory by one block.  The text streams, ``enum``
and the verification sweeps all read these blocks.
Counts are exact Python integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb
from typing import Iterator

import numpy as np

from .errors import UnknownStatisticError
from .stats import StatRecord
from .words import PathWord, _row_texts

# Reference count sequences for cross-checks, embedded rather than computed.
CATALAN_NUMBERS = (
    1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
    742900, 2674440, 9694845, 35357670,
)
CENTRAL_BINOMIALS = (
    1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620, 184756, 705432,
    2704156, 10400600, 40116600, 155117520, 601080390,
)
_MAX_RANK_N = 33  # the largest n whose C(2n, n) ranks fit in int64
_TEXT_STEPS = 1 << 18  # steps per block of the text streams


def _check_semilength(n: int) -> None:
    if n < 0:
        raise ValueError("semilength must be nonnegative")


def catalan(n: int) -> int:
    """Number of Dyck words of semilength n, exactly."""
    _check_semilength(n)
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    """Number of balanced words of semilength n, exactly."""
    _check_semilength(n)
    return comb(2 * n, n)


@lru_cache(maxsize=None)  # at most two classes of each n <= _MAX_RANK_N
def _endings(n: int, dyck: bool) -> np.ndarray:
    """``ends[r, h + n + 1]``: the number of r-step walks from height h back
    to the axis (never below it for Dyck words), for 0 <= r <= 2n.

    Cached, so the table is read-only: every block of a class reads the same
    one."""
    off = n + 1
    ends = np.zeros((2 * n + 1, 2 * n + 3), dtype=np.int64)
    ends[0, off] = 1
    for r in range(1, 2 * n + 1):
        ends[r, 1:-1] = ends[r - 1, 2:] + ends[r - 1, :-2]
        if dyck:
            ends[r, :off] = 0
    ends.setflags(write=False)
    return ends


def _rank_blocks(n: int, dyck: bool, rows: int) -> Iterator[tuple]:
    """All Dyck (``dyck``) or balanced words of semilength n, in lexicographic
    order (U < D), as consecutive rank ranges ``(n, dyck, start, stop)`` of
    at most ``rows`` words; :func:`_rank_rows` builds a range's words.

    The ranks are int64, which holds C(2n, n) up to n = 33 only; a larger
    or negative n raises ``ValueError`` at the call.
    """
    _check_semilength(n)
    if n > _MAX_RANK_N:
        raise ValueError(f"semilength must be at most {_MAX_RANK_N} for int64 ranks")
    size = int(_endings(n, dyck)[2 * n, n + 1])
    return ((n, dyck, start, min(start + rows, size)) for start in range(0, size, rows))


def _rank_rows(n: int, dyck: bool, start: int, stop: int) -> np.ndarray:
    """The words of ranks start..stop-1 of a class of :func:`_rank_blocks`,
    one per column of a C-contiguous ``(2n, words)`` uint8 matrix.

    Unranks step by step, each step one contiguous row of the matrix,
    against the completion counts of :func:`_endings` (Kreher & Stinson,
    *Combinatorial Algorithms*, ch. 2): a word steps D where its rank is at
    least the number of completions after a U, and then drops those
    completions from its rank.
    """
    ends = _endings(n, dyck)
    rank = np.arange(start, stop, dtype=np.int64)
    h = np.full(len(rank), n + 2)  # column of ends: the height after a U
    mat = np.empty((2 * n, len(rank)), dtype=np.uint8)
    for step in range(2 * n):
        after_up = ends[2 * n - step - 1].take(h)
        down = rank >= after_up
        np.subtract(rank, after_up, out=rank, where=down)
        mat[step] = np.where(down, 68, 85)
        h += 1 - 2 * down
    return mat


def _text_blocks(n: int, dyck: bool) -> Iterator[list]:
    """The words of :func:`_rank_blocks` as lists of text, at most
    ``_TEXT_STEPS`` steps each."""
    blocks = _rank_blocks(n, dyck, _TEXT_STEPS // max(2 * n, 1))
    return (_row_texts(_rank_rows(*block)) for block in blocks)


def _dyck_texts(n: int) -> Iterator[str]:
    """All Dyck words of semilength n, in lexicographic order."""
    return chain.from_iterable(_text_blocks(n, True))


def _balanced_texts(n: int) -> Iterator[str]:
    """All balanced words of semilength n, in lexicographic order."""
    return chain.from_iterable(_text_blocks(n, False))


def generate_dyck(n: int) -> Iterator[PathWord]:
    """All Dyck words of semilength n, lexicographically (U < D), Catalan(n) many.

    Raises ``ValueError`` at the call for n < 0, and for n > 33, beyond
    the int64 ranks of the enumerator.
    """
    return (PathWord(t) for t in _dyck_texts(n))


def generate_bilateral(n: int) -> Iterator[PathWord]:
    """All balanced words of semilength n, lexicographically, C(2n, n) many.

    Raises ``ValueError`` at the call for n < 0, and for n > 33, where
    C(2n, n) passes 2^63.
    """
    return (PathWord(t) for t in _balanced_texts(n))


def _random_balanced_text(n: int, rng: np.random.Generator) -> str:
    arr = np.empty(2 * n, dtype=np.uint8)
    arr[:n] = 85  # 'U'
    arr[n:] = 68  # 'D'
    rng.shuffle(arr)
    return _row_texts(arr[:, None])[0]


def _random_dyck_text(n: int, rng: np.random.Generator) -> str:
    """Uniform Dyck word via the cycle construction.

    Shuffle n+1 up-steps and n down-steps; exactly one rotation of the
    cycle keeps every proper prefix sum positive, namely the one starting
    right after the last minimum of the prefix sums.  Dropping its leading
    up-step leaves a uniform Dyck word of semilength n.
    """
    delta = np.ones(2 * n + 1, dtype=np.int64)
    delta[n + 1 :] = -1
    rng.shuffle(delta)
    sums = np.cumsum(delta)
    cut = int(np.flatnonzero(sums == sums.min())[-1]) + 1
    rotated = np.concatenate((delta[cut:], delta[:cut]))
    body = rotated[1:]
    return _row_texts(np.where(body == 1, np.uint8(85), np.uint8(68))[:, None])[0]


def sample_bilateral(n: int, seed: int) -> PathWord:
    """Uniform balanced word of semilength n; deterministic in the seed."""
    _check_semilength(n)
    return PathWord(_random_balanced_text(n, np.random.default_rng(seed)))


def sample_dyck(n: int, seed: int) -> PathWord:
    """Uniform Dyck word of semilength n; deterministic in the seed."""
    _check_semilength(n)
    return PathWord(_random_dyck_text(n, np.random.default_rng(seed)))


@dataclass(frozen=True)
class DistributionTable:
    """Exact counts of one word class at one semilength, keyed by statistics.

    ``counts`` maps a statistic value (one statistic) or a value pair (two
    statistics) to the number of words attaining it; the counts sum to the
    class size.
    """

    path_class: str
    n: int
    stats: tuple
    counts: dict

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def to_csv(self) -> str:
        header = ",".join(self.stats + ("count",))
        lines = [header]
        for key in sorted(self.counts):
            cells = key if isinstance(key, tuple) else (key,)
            lines.append(",".join(str(c) for c in cells + (self.counts[key],)))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        entries = []
        for key in sorted(self.counts):
            cells = key if isinstance(key, tuple) else (key,)
            entry = dict(zip(self.stats, cells))
            entry["count"] = self.counts[key]
            entries.append(entry)
        return {
            "class": self.path_class,
            "n": self.n,
            "stats": list(self.stats),
            "counts": entries,
        }


def _check_stat_name(name: str) -> str:
    if name not in StatRecord._fields:
        raise UnknownStatisticError(
            f"unknown statistic {name!r}; expected one of {', '.join(StatRecord._fields)}"
        )
    return name


# The counter each statistic reads; n, ups_even and downs_even follow from n.
_COUNTER_OF = {
    "peaks": "peaks", "valleys": "valleys", "contacts": "contacts",
    "crossings": "crossings", "ups_odd": "ups_odd", "ups_even": "ups_odd",
    "downs_odd": "downs_odd", "downs_even": "downs_odd",
}
_READS_PREV = {"peaks", "valleys", "crossings"}


def _step_counts(prev, up: bool, h: int) -> dict:
    """What one step adds to each counter, by the rules of ``_scan_text``:
    ``prev`` is True/False after an up/down-step and None before the first
    step, ``h`` is the height before the step."""
    if up:
        return {"valleys": prev is False, "crossings": prev is True and h == 0,
                "contacts": h == -1, "ups_odd": h & 1 == 0}
    return {"peaks": prev is True, "crossings": prev is False and h == 0,
            "contacts": h == 1, "downs_odd": h & 1}


def _transfer_counts(n: int, dyck: bool, stats: tuple) -> dict:
    """Exact counts of the words of one class by the values of ``stats``.

    A transfer-matrix count over the steps (Stanley, EC1 4.7): a state is
    (height, previous step, running max, running min, prime flag, packed
    counters), mapped to the number of prefixes that reach it.  A field that
    no requested statistic reads stays constant, so it splits no states.  The
    prime flag holds while every step but the last ends above the axis,
    which is ``min_height >= 0 and contacts == 1`` for n >= 1.  Steps that go
    below the axis (Dyck) or can no longer return to it are pruned.
    """
    counters = list(dict.fromkeys(_COUNTER_OF[s] for s in stats if s in _COUNTER_OF))
    base = 2 * n + 1  # above any counter's value
    weight = {c: base**i for i, c in enumerate(counters)}
    track_prev = bool(_READS_PREV.intersection(counters))
    track_hi = "max_height" in stats
    track_lo = "min_height" in stats
    floor = 0 if dyck else -n
    # (h, prev) -> the two steps from it as (next height, next prev, increment)
    moves = {
        (h, prev): [
            (h + 1 if up else h - 1, up if track_prev else None,
             sum(weight[c] * v for c, v in _step_counts(prev, up, h).items()
                 if c in weight))
            for up in (True, False)
        ]
        for h in range(floor, n + 1)
        for prev in ((None, True, False) if track_prev else (None,))
    }
    states = {(0, None, 0, 0, "is_prime" in stats and n > 0, 0): 1}
    for left in range(2 * n - 1, -1, -1):  # steps left after this one
        nxt = {}
        for (h, prev, hi, lo, prime, packed), count in states.items():
            for h2, prev2, inc in moves[h, prev]:
                if h2 < floor or h2 > left or -h2 > left:
                    continue
                key = (
                    h2,
                    prev2,
                    h2 if track_hi and h2 > hi else hi,
                    h2 if track_lo and h2 < lo else lo,
                    prime and (h2 > 0 or not left),
                    packed + inc,
                )
                nxt[key] = nxt.get(key, 0) + count
        states = nxt

    def value(stat: str, hi: int, lo: int, prime: bool, packed: int) -> int:
        if stat == "n":
            return n
        if stat == "max_height":
            return hi
        if stat == "min_height":
            return lo
        if stat == "is_prime":
            return int(prime)
        c = packed // weight[_COUNTER_OF[stat]] % base
        return n - c if stat in ("ups_even", "downs_even") else c

    counts = {}
    for (_, _, *fields), count in states.items():
        values = tuple(value(stat, *fields) for stat in stats)
        key = values if len(stats) == 2 else values[0]
        counts[key] = counts.get(key, 0) + count
    return counts


def distribution(
    path_class: str, n: int, stat1: str, stat2: str | None = None
) -> DistributionTable:
    """Exact distribution of one or two statistics over a word class.

    ``path_class`` is "dyck" or "bilateral".  The counts come from an exact
    dynamic program over the steps, with no enumeration of the class, so
    cost is polynomial in n (well under a second at n = 30).
    """
    cls = path_class.lower()
    if cls not in ("dyck", "bilateral"):
        raise ValueError(f"unknown word class {path_class!r}")
    _check_stat_name(stat1)
    if stat2 is not None:
        _check_stat_name(stat2)
    _check_semilength(n)
    stats = (stat1,) if stat2 is None else (stat1, stat2)
    return DistributionTable(cls, n, stats, _transfer_counts(n, cls == "dyck", stats))
