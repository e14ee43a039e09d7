"""Exhaustive generation, uniform sampling, and exact distribution tables.

Words are generated in lexicographic order with U < D by an in-place
successor algorithm, so enumeration is deterministic and restartable.
Counts are exact Python integers throughout.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import comb
from operator import attrgetter
from typing import Iterator

import numpy as np

from .errors import UnknownStatisticError
from .stats import StatRecord, _stat_record_text
from .words import PathWord

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
    return arr.tobytes().decode("ascii")


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
    return (
        np.where(body == 1, np.uint8(85), np.uint8(68))
        .astype(np.uint8)
        .tobytes()
        .decode("ascii")
    )


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


def distribution(
    path_class: str, n: int, stat1: str, stat2: str | None = None
) -> DistributionTable:
    """Exact distribution of one or two statistics over a word class.

    ``path_class`` is "dyck" or "bilateral".  Streams the class; memory is
    proportional to the number of distinct key values only.
    """
    try:
        source = _CLASS_SOURCES[path_class.lower()]
    except KeyError:
        raise ValueError(f"unknown word class {path_class!r}") from None
    _check_stat_name(stat1)
    if stat2 is not None:
        _check_stat_name(stat2)
    stats = (stat1,) if stat2 is None else (stat1, stat2)
    pick = attrgetter(*stats)  # one value, or a pair for two statistics
    raw = Counter(pick(_stat_record_text(text)) for text in source(n))
    # int() of each field once per distinct key, so is_prime counts as 0/1
    counts = {
        tuple(map(int, key)) if stat2 is not None else int(key): count
        for key, count in raw.items()
    }
    return DistributionTable(path_class.lower(), n, stats, counts)
