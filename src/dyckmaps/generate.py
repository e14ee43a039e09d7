"""Exhaustive generation, uniform sampling, and exact distribution tables.

Words are enumerated in lexicographic order with U < D by unranking: a
block is a range of ranks, and its words are built step by step as the
columns of a uint8 matrix up to their last ``_TAIL`` = 14 steps, which one
gather reads from a cached table of every such walk back to the axis (at
most 2^14 walks, 229 KB); a shorter word is the tail of such a walk.  Each
class has that table and one of completion counts, built once for n = 33.
So enumeration is deterministic, restartable at any rank, and bounded in
memory by one block and those tables.  The text streams, ``enum`` and the
verification sweeps all read these blocks.
Counts are exact Python integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from math import comb
from typing import Iterator

import numpy as np

from .errors import UnknownStatisticError
from .stats import StatRecord
from .words import _D, _U, PathWord, _flips, _row_texts

_MAX_RANK_N = 33  # the largest n whose C(2n, n) ranks fit in int64
_TEXT_STEPS = 1 << 18  # steps per block of the text streams
_TAIL = 14  # the last steps of a word, read from a table of walks
_AXIS = _MAX_RANK_N + 1  # the column of height 0 in the table of _endings


def _check_semilength(n: int) -> None:
    if n < 0:
        raise ValueError("semilength must be nonnegative")


def _check_rank_n(n: int) -> None:
    if n > _MAX_RANK_N:
        raise ValueError(f"semilength must be at most {_MAX_RANK_N} for int64 ranks")


def catalan(n: int) -> int:
    """Number of Dyck words of semilength n, exactly."""
    _check_semilength(n)
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    """Number of balanced words of semilength n, exactly."""
    _check_semilength(n)
    return comb(2 * n, n)


# |C_n| for every n the enumerator takes, by the closed forms and not by
# _endings: the reference that a sweep checks the enumerator's counts by.
CATALAN_NUMBERS = tuple(catalan(n) for n in range(_MAX_RANK_N + 1))
CENTRAL_BINOMIALS = tuple(central_binomial(n) for n in range(_MAX_RANK_N + 1))


@lru_cache(maxsize=None)  # one table per class
def _endings(dyck: bool) -> np.ndarray:
    """``ends[r, h + _AXIS]``: the number of r-step walks from height h back
    to the axis (never below it for Dyck words), for 0 <= r <= 2n and
    |h| <= n at n = ``_MAX_RANK_N``, which holds every class the ranks reach.

    Cached, so the table is read-only: every block of the class reads it."""
    n = _MAX_RANK_N
    ends = np.zeros((2 * n + 1, 2 * n + 3), dtype=np.int64)
    ends[0, _AXIS] = 1
    for r in range(1, 2 * n + 1):
        ends[r, 1:-1] = ends[r - 1, 2:] + ends[r - 1, :-2]
        if dyck:
            ends[r, :_AXIS] = 0
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
    _check_rank_n(n)
    size = int(_endings(dyck)[2 * n, _AXIS])
    return ((n, dyck, start, min(start + rows, size)) for start in range(0, size, rows))


def _unrank(ends: np.ndarray, left: int, rank: np.ndarray, h, rows) -> np.ndarray:
    """Unrank words with ``left`` steps to go into ``rows``, a step a row, by
    ``ends`` (Kreher & Stinson, *Combinatorial Algorithms*, ch. 2): a word steps
    D where its rank is at least the completions after a U, then drops those
    from its rank (in place); returns ``h``, its ``ends`` column after a U."""
    for step, row in enumerate(rows):
        after_up = ends[left - step - 1].take(h)
        down = rank >= after_up
        rank -= after_up * down  # arithmetic: np.where branches on every word
        row[:] = _U - _flips(down)
        h = h + 1 - 2 * down
    return h


@lru_cache(maxsize=None)  # one table per class
def _tails(dyck: bool) -> tuple:
    """The at most 2^t t-step walks back to the axis, t = ``_TAIL`` (never
    below it for Dyck words), as read-only uint8 columns, by starting height,
    then lexicographic; ``first[h + t]``, the column of the first walk from
    height h; and ``pad[n]``, n <= t/2, the walks from height 0 before those
    that start (UD)^(t/2 - n) and end with the words of semilength n."""
    t, ends = _TAIL, _endings(dyck)
    sizes = ends[t, _AXIS - t : _AXIS + t + 1]  # from heights -t..t
    first = np.cumsum(sizes) - sizes
    walks = np.empty((t, int(sizes.sum())), dtype=np.uint8)
    h = np.repeat(np.arange(_AXIS + 1 - t, _AXIS + t + 2), sizes)  # ends' column after a U
    _unrank(ends, t, np.arange(walks.shape[1]) - first.repeat(sizes), h, walks)
    for table in (walks, first):
        table.setflags(write=False)
    # the walks that step U at the prefix's i-th D: height 2, t - 2 - 2i steps left
    pad = np.cumsum(ends[t - 2 :: -2, _AXIS + 2])[::-1].tolist() + [0]
    return walks, first, tuple(pad)


def _rank_rows(n: int, dyck: bool, start: int, stop: int) -> np.ndarray:
    """The words of ranks start..stop-1 of a class of :func:`_rank_blocks`,
    one per column of a C-contiguous ``(2n, words)`` uint8 matrix.

    Unranks the first max(2n - t, 0) steps, t = ``_TAIL``, by :func:`_unrank`;
    a word's height and rank there pick its last t steps from :func:`_tails`
    (2^t * t bytes at most, 229 KB for balanced words) in one gather.  A word
    shorter than t steps is the tail of a walk padded in front with UD's: its
    rank moves on by ``pad[n]``, and the gather reads the walks' last 2n rows.
    """
    walks, first, pad = _tails(dyck)
    head = max(2 * n - _TAIL, 0)
    skip = pad[min(n, _TAIL // 2)]  # 0 where head > 0
    rank = np.arange(start + skip, stop + skip, dtype=np.int64)
    mat = np.empty((2 * n, len(rank)), dtype=np.uint8)
    h = _unrank(_endings(dyck), 2 * n, rank, _AXIS + 1, mat[:head])  # height + _AXIS + 1
    column = rank + first.take(h - (_AXIS + 1 - _TAIL))
    walks[head + _TAIL - 2 * n :].take(column, axis=1, out=mat[head:])
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
    arr[:n] = _U
    arr[n:] = _D
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
    return _row_texts((_U - _flips(body < 0))[:, None])[0]


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

    def _cells(self) -> list:
        """Each key's cells and then its count, in ascending key order."""
        return [(*(key if isinstance(key, tuple) else (key,)), self.counts[key])
                for key in sorted(self.counts)]

    def to_csv(self) -> str:
        lines = [self.stats + ("count",), *self._cells()]
        return "".join(",".join(map(str, line)) + "\n" for line in lines)

    def to_dict(self) -> dict:
        entries = [dict(zip(self.stats + ("count",), row)) for row in self._cells()]
        return {"class": self.path_class, "n": self.n, "stats": list(self.stats),
                "counts": entries}


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


def _transfer_counts(n: int, dyck: bool, stats: tuple, every: bool = False) -> dict:
    """Exact counts of the words of one class by the values of ``stats``, as
    ``{n: counts}``, or with ``every`` as ``{k: counts}`` for each k <= n.

    A transfer-matrix count over the steps (Stanley, EC1 4.7).  A state is
    (height, previous step, running max, running min, prime flag), mapped to
    one Python int whose base-2**bits digit at index ``packed`` counts the
    prefixes that reach the state with those packed counter values.  A step
    shifts the int left by ``bits`` per unit it adds to ``packed``; merging
    two states is one int add.  No digit carries: each prefix a state counts
    completes to a distinct word, so a digit is at most C(2n, n) < 2**bits.
    A field that no requested statistic reads stays constant, so it splits
    no states.  The prime flag holds while every step but the last ends
    above the axis: ``min_height >= 0 and contacts == 1`` for n >= 1; a step
    clears it by the height it starts from.  Steps that go below the axis
    (Dyck) or can no longer return to it by step 2n are pruned, so the states
    at height 0 after step 2k are the words of semilength k, flag and all.
    """
    counters = list(dict.fromkeys(_COUNTER_OF[s] for s in stats if s in _COUNTER_OF))
    base = n + 1  # above any counter's value: each counts at most n steps
    weight = {c: base**i for i, c in enumerate(counters)}
    bits = comb(2 * n, n).bit_length()
    track_prev = bool(_READS_PREV.intersection(counters))
    track_hi = "max_height" in stats
    track_lo = "min_height" in stats
    floor = 0 if dyck else -n
    # the rules read a height h only as -1, 0, 1 or its parity, 2 + (h & 1)
    shifts = {(prev, up, h): bits * sum(weight[c] * v for c, v in
                                        _step_counts(prev, up, h).items() if c in weight)
              for prev in (None, True, False) for up in (True, False) for h in range(-1, 4)}
    # (h, prev) -> the two steps from it as (next height, next prev, shift);
    # a tracked prev is None only before the first step, at h = 0
    prevs = (True, False) if track_prev else (None,)
    moves = {
        (h, prev): [(h + 1 if up else h - 1, up if track_prev else None,
                     shifts[prev, up, h if -1 <= h <= 1 else 2 + (h & 1)])
                    for up in (True, False)]
        for h, prev in {(0, None), *product(range(floor, n + 1), prevs)}
    }
    states = {(0, None, 0, 0, "is_prime" in stats): 1}
    at_axis = {0: states} if every else {}  # the words of each semilength
    for left in range(2 * n - 1, -1, -1):  # steps left after this one
        nxt = {}
        for (h, prev, hi, lo, prime), digits in states.items():
            for h2, prev2, shift in moves[h, prev]:
                if h2 < floor or h2 > left or -h2 > left:
                    continue
                key = (
                    h2,
                    prev2,
                    h2 if track_hi and h2 > hi else hi,
                    h2 if track_lo and h2 < lo else lo,
                    prime and (h > 0 or left == 2 * n - 1),
                )
                nxt[key] = nxt.get(key, 0) + (digits << shift)
        states = nxt
        if every and left % 2 == 0:
            at_axis[n - left // 2] = {key: d for key, d in states.items() if key[0] == 0}
    at_axis[n] = states

    def value(stat: str, k: int, hi: int, lo: int, prime: bool, packed: int) -> int:
        if stat == "n":
            return k
        if stat == "max_height":
            return hi
        if stat == "min_height":
            return lo
        if stat == "is_prime":
            return int(prime and k > 0)
        c = packed // weight[_COUNTER_OF[stat]] % base
        return k - c if stat in ("ups_even", "downs_even") else c

    tables, mask = {}, (1 << bits) - 1
    for k, states in at_axis.items():
        counts = tables[k] = {}
        for (_, _, *fields), digits in states.items():
            for packed in range(-(-digits.bit_length() // bits)):
                if count := digits >> bits * packed & mask:
                    values = tuple(value(stat, k, *fields, packed) for stat in stats)
                    key = values if len(stats) == 2 else values[0]
                    counts[key] = counts.get(key, 0) + count
    return {k: dict(sorted(counts.items())) for k, counts in tables.items()}


def distribution(
    path_class: str, n: int, stat1: str, stat2: str | None = None
) -> DistributionTable:
    """Exact distribution of one or two statistics over a word class.

    ``path_class`` is "dyck" or "bilateral".  The counts come from an exact
    dynamic program over the steps, with no enumeration of the class, so
    cost is polynomial in n: at n = 30 on a 2-core machine a table took at
    most 40 ms, but (max_height, min_height), with no counter, 0.08-0.13 s.
    The counts iterate in ascending key order.
    """
    cls = path_class.lower()
    if cls not in ("dyck", "bilateral"):
        raise ValueError(f"unknown word class {path_class!r}")
    _check_stat_name(stat1)
    if stat2 is not None:
        _check_stat_name(stat2)
    _check_semilength(n)
    stats = (stat1,) if stat2 is None else (stat1, stat2)
    return DistributionTable(cls, n, stats, _transfer_counts(n, cls == "dyck", stats)[n])
