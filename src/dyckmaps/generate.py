"""Exhaustive generation, uniform sampling, and exact distribution tables.

Words are generated in lexicographic order with U < D by an in-place
successor algorithm, so enumeration is deterministic and restartable; the
verification sweeps get the same order as blocks of uint8 matrix rows,
grown column by column from common prefixes.
Counts are exact Python integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
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


def catalan(n: int) -> int:
    """Number of Dyck words of semilength n, exactly."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def central_binomial(n: int) -> int:
    """Number of balanced words of semilength n, exactly."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    return comb(2 * n, n)


def _next_word(buf: list, floor: int) -> bool:
    """Advance a balanced word buffer to its lexicographic successor (U < D).

    Flips the rightmost U whose prefix height h before it exceeds ``floor``
    (so the flipped prefix ends at or above it) and after which the suffix
    can still return to the axis, then fills the suffix minimally (all U's
    first).  ``floor`` is 0 for Dyck words and -2n, below any reachable
    height, for balanced words.  Returns False at the last word.
    """
    size = len(buf)
    h = 0  # height before the position being examined, built right to left
    for i in range(size - 1, -1, -1):
        if buf[i] == "U":
            h -= 1
            if h > floor:
                rest = size - i - 1
                u = (rest - h + 1) // 2
                if 0 <= u <= rest:
                    buf[i] = "D"
                    buf[i + 1 : i + 1 + u] = "U" * u
                    buf[i + 1 + u :] = "D" * (rest - u)
                    return True
        else:
            h += 1
    return False


def _texts(n: int, dyck: bool) -> Iterator[str]:
    """All Dyck (``dyck``) or all balanced words of semilength n, in
    lexicographic order."""
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    if n == 0:
        yield ""
        return
    floor = 0 if dyck else -2 * n
    buf = list("U" * n + "D" * n)
    while True:
        yield "".join(buf)
        if not _next_word(buf, floor):
            return


def _endings(n: int, dyck: bool) -> np.ndarray:
    """``ends[r, h + n + 1]``: the number of r-step walks from height h back
    to the axis (never below it for Dyck words), for 0 <= r <= 2n."""
    off = n + 1
    ends = np.zeros((2 * n + 1, 2 * n + 3), dtype=np.int64)
    ends[0, off] = 1
    for r in range(1, 2 * n + 1):
        ends[r, 1:-1] = ends[r - 1, 2:] + ends[r - 1, :-2]
        if dyck:
            ends[r, :off] = 0
    return ends


def _grow(prefixes: np.ndarray, ends: np.ndarray, stop: int) -> np.ndarray:
    """Extend prefix rows column by column to ``stop`` steps, each row's U
    child before its D child, so that lexicographic order is kept."""
    rows, start = prefixes.shape
    n = ends.shape[0] // 2
    mat = np.empty((rows, stop), dtype=np.uint8)
    mat[:, :start] = prefixes
    h = np.count_nonzero(prefixes == 85, axis=1) * 2 - start + n + 1  # offset heights
    for col in range(start, stop):
        left = ends[2 * n - col - 1]
        child = np.flatnonzero(np.stack((left[h + 1], left[h - 1]), axis=1))
        parent, down = child >> 1, child & 1
        mat = mat[parent]
        mat[:, col] = np.where(down, 68, 85)
        h = h[parent] + 1 - 2 * down
    return mat


def _prefix_blocks(n: int, dyck: bool, rows: int) -> Iterator[np.ndarray]:
    """All Dyck (``dyck``) or balanced words of semilength n, in lexicographic
    order, as blocks of common prefixes with at most ``rows`` words between
    them; :func:`_block_rows` expands a block.

    The prefixes all have the least length at which none has more than
    rows // 4 endings, and consecutive prefixes are grouped greedily, so a
    block holds more than 3/4 of ``rows`` words unless it is the last.
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    ends = _endings(n, dyck)
    most = max(rows // 4, 1)
    depth = next(d for d in range(2 * n + 1)  # heights within d of the axis
                 if ends[2 * n - d, max(n + 1 - d, 0) : n + 2 + d].max() <= most)
    prefixes = _grow(np.empty((1, 0), dtype=np.uint8), ends, depth)
    heights = np.count_nonzero(prefixes == 85, axis=1) * 2 - depth + n + 1
    done = np.cumsum(ends[2 * n - depth, heights])  # words up to each prefix
    a = 0
    while a < len(prefixes):
        b = int(np.searchsorted(done, (done[a - 1] if a else 0) + rows, "right"))
        yield prefixes[a:b]
        a = b


def _block_rows(n: int, dyck: bool, prefixes: np.ndarray) -> np.ndarray:
    """The words of a block of :func:`_prefix_blocks`, one per row of a
    ``(rows, 2n)`` uint8 matrix, in lexicographic order."""
    return _grow(prefixes, _endings(n, dyck), 2 * n)


_dyck_texts = partial(_texts, dyck=True)
_balanced_texts = partial(_texts, dyck=False)


def generate_dyck(n: int) -> Iterator[PathWord]:
    """All Dyck words of semilength n, lexicographically (U < D), Catalan(n) many."""
    return (PathWord(t) for t in _dyck_texts(n))


def generate_bilateral(n: int) -> Iterator[PathWord]:
    """All balanced words of semilength n, lexicographically, C(2n, n) many."""
    return (PathWord(t) for t in _balanced_texts(n))


def _random_balanced_text(n: int, rng: np.random.Generator) -> str:
    if n == 0:
        return ""
    arr = np.empty(2 * n, dtype=np.uint8)
    arr[:n] = 85  # 'U'
    arr[n:] = 68  # 'D'
    rng.shuffle(arr)
    return _row_texts(arr[None])[0]


def _random_dyck_text(n: int, rng: np.random.Generator) -> str:
    """Uniform Dyck word via the cycle construction.

    Shuffle n+1 up-steps and n down-steps; exactly one rotation of the
    cycle keeps every proper prefix sum positive, namely the one starting
    right after the last minimum of the prefix sums.  Dropping its leading
    up-step leaves a uniform Dyck word of semilength n.
    """
    if n == 0:
        return ""
    delta = np.ones(2 * n + 1, dtype=np.int64)
    delta[n + 1 :] = -1
    rng.shuffle(delta)
    sums = np.cumsum(delta)
    cut = int(np.flatnonzero(sums == sums.min())[-1]) + 1
    rotated = np.concatenate((delta[cut:], delta[:cut]))
    body = rotated[1:]
    return _row_texts(np.where(body == 1, np.uint8(85), np.uint8(68))[None])[0]


def sample_bilateral(n: int, seed: int) -> PathWord:
    """Uniform balanced word of semilength n; deterministic in the seed."""
    return PathWord(_random_balanced_text(n, np.random.default_rng(seed)))


def sample_dyck(n: int, seed: int) -> PathWord:
    """Uniform Dyck word of semilength n; deterministic in the seed."""
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


_CLASS_SOURCES = {"dyck": _dyck_texts, "bilateral": _balanced_texts}


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
    if cls not in _CLASS_SOURCES:
        raise ValueError(f"unknown word class {path_class!r}")
    _check_stat_name(stat1)
    if stat2 is not None:
        _check_stat_name(stat2)
    if n < 0:
        raise ValueError("semilength must be nonnegative")
    stats = (stat1,) if stat2 is None else (stat1, stat2)
    return DistributionTable(cls, n, stats, _transfer_counts(n, cls == "dyck", stats))
