"""The six length-preserving maps on step words.

phi / psi     inverse bijections on Dyck words exchanging the number of
              up-steps at odd height with the number of peaks, while
              preserving semilength and the number of contacts;
alpha         reflection in the axis (an involution);
beta          first-return swap U W1 D W2 -> U W2 D W1 (an involution that
              shifts up-steps between odd and even heights);
phi_ext /     extensions of phi / psi to all balanced words, exchanging
psi_ext       odd-height up-steps with peaks on the whole bilateral class:
              phi / psi of the word with its negative crossing factors
              flipped, and beta-swapped before phi or after psi.

Every map has one per-word core on ASCII bytes and a twin on a matrix of
equal-length words, one per column; ``_MAPS`` holds each map's domain,
core and twin.  A record's ``text`` runs the core on a word under
``words._LONG`` = 4,096 steps and the twin on a longer one, as one column,
and its ``image``, which the public maps, ``map`` lines and traces run,
checks such a word on that matrix first, by ``images``, the check and map
of a ``map`` run.  phi and psi run in O(length) with no recursion.  phi
reads its blocks level by level: its core walks that level rule, and its
twin is a rank core, one level order of the odd vertices keyed by word and
height.  psi keeps a run transducer, a left-to-right stack machine on the
reversed-and-flipped word; its twin loops over the steps of a matrix of
words under ``_LONG`` steps and runs its own rank core, one level order of
the vertex heights per parity, on each longer word.  A level order sorts
each key packed above its position in uint32 where the two fit 32 bits,
else the keys by a stable argsort.  Both forms of an extension call the
Dyck core once per word; the extensions of a matrix with no step below the
axis, so with no negative factor, are its Dyck maps, with no beta gather.
At 10^6 steps a rank core peaks at about 10-11 bytes per step, and phi,
psi, beta and the extensions at 14-15.  Every twin takes the matrix of no
steps, the chunk of the empty word, without a special case.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .decompose import (
    _crossing_factors,
    _first_return_len,
    _negative_steps,
    _phi_bracketing_text,
    _phi_parse_text,
    _psi_bracketing_text,
    _psi_parse_text,
)
from .errors import DyckError
from .render import _MAX_CELLS
from .words import (_D, _FLIP_B, _FLIP_BITS, _LONG, _U, PathWord, _closed_rows,
                    _cumsum_down, _dyck_rows, _flips, _leading, _row_texts, _rows,
                    _up_and_heights, require_closed, require_dyck)


def _phi_b(data: bytes) -> bytes:
    """Rewrite U (U W_1 D)...(U W_s D) D T  ->  (U W_1')...(U W_s') UD D^s T',
    applied to every nesting level in one pass, by the level rule of
    :func:`_phi_rows`: the step leaving odd vertex 2j+1, at height k, emits
    U if it is a U and UD D^c if it is a D, where c counts the vertices at
    height k since the last one an up-step reached.  The output starts
    as all D's, so only each emission's U is written.
    """
    out = bytearray(b"D" * len(data))
    since = [0] * (len(data) // 2 + 1)  # c at each height
    h = pos = 0
    for a, b in zip(data[0::2], data[1::2]):
        if a == _U:
            h += 1
            since[h] = c = 0
        else:
            h -= 1
            since[h] = c = since[h] + 1
        out[pos] = _U
        if b == _U:
            h += 1
            pos += 1
        else:
            h -= 1
            pos += c + 2
    return bytes(out)


def _psi_b(data: bytes) -> bytes:
    """Mirror-image transducer inverting _phi_b.

    On the reversed/flipped word each prime factor starts with a maximal
    U-run of length s+1; the run collapses to the anchor peak and the s
    level-closing D's fan back out around the inner factors.
    """
    data = data.translate(_FLIP_B)[::-1]
    out = bytearray(len(data))
    pos = 0
    stack = []
    i = 0
    n = len(data)
    while i < n:
        if data[i] == _U:
            j = i + 1
            while data[j] == _U:
                j += 1
            s = j - i - 1
            out[pos] = _U
            if s:
                out[pos + 1] = _U
                stack.append(s)
            else:
                out[pos + 1] = _D
            pos += 2
            i = j + 1
        else:
            k = stack[-1] - 1
            out[pos] = _D
            if k:
                stack[-1] = k
                out[pos + 1] = _U
            else:
                stack.pop()
                out[pos + 1] = _D
            pos += 2
            i += 1
    return bytes(out).translate(_FLIP_B)[::-1]


def _alpha_b(data: bytes) -> bytes:
    return data.translate(_FLIP_B)


def _beta_b(data: bytes) -> bytes:
    if not data:
        return data  # beta(empty) = empty makes the map total
    r = _first_return_len(data)
    return b"U" + data[r:] + b"D" + data[1 : r - 1]


def _ext_b(data: bytes, core, before, after) -> bytes:
    """Theorem 2's extension of the Dyck map ``core`` to a balanced word:
    flip each negative crossing factor through ``before``, apply ``core``
    once, then each negative factor's image through ``after`` and flip it
    back (``bytes`` is the identity).  ``core`` maps a Dyck word prime by
    prime, each to a prime of its length, so a negative factor goes through
    alpha o after o core o before o alpha in its place."""
    factors = _crossing_factors(data)
    parts = []
    for a, b, negative in factors:  # a loop: faster here than a comprehension
        parts.append(before(data[a:b].translate(_FLIP_B)) if negative else data[a:b])
    image = core(b"".join(parts))
    parts = []
    for a, b, negative in factors:
        parts.append(after(image[a:b]).translate(_FLIP_B) if negative else image[a:b])
    return b"".join(parts)


def _phi_ext_b(data: bytes) -> bytes:
    return _ext_b(data, _phi_b, _beta_b, bytes)


def _psi_ext_b(data: bytes) -> bytes:
    return _ext_b(data, _psi_b, bytes, _beta_b)


# --- matrix twins ----------------------------------------------------------
#
# The str-level maps on equal-length words, one per column of a C-contiguous
# ``(steps, words)`` uint8 matrix, computed for all words at once; the
# verification sweeps run them on chunks of a class.  Steps run down axis 0,
# so each loop pass, cumsum and reduction reads contiguous rows that hold one
# step of every word.  Loops run over the steps or over the n steps of one
# kind, never over words.  Every twin takes the words' heights ``h`` where the
# caller has them (see :func:`~dyckmaps.words._up_and_heights`); a twin that
# needs none ignores them.  Masks act by arithmetic, gathers and &, |, ^: np.where,
# where=, boolean indexing and str.count branch on each element of a random mask.

_AT = np.int32  # positions in a chunk; half the memory of the default int64


def _key_type(top: int, words: int) -> type:
    """The type of :func:`_level_order`'s unpacked keys, and of one word's heights:
    uint16 where they fit, which numpy sorts by radix, else int32."""
    return np.uint16 if words * (top + 1) <= 1 << 16 else np.int32


def _level_order(h: np.ndarray, top: int) -> np.ndarray:
    """The flat stable argsort of the keys ``word * (top + 1) + height`` of heights
    ``h`` up to ``top``, of one word or one per column.  Where a key and a flat
    position fit 32 bits, each key shifted above its position makes a distinct
    uint32, so one in-place sort orders them; else numpy's stable argsort."""
    words, bits = h.shape[1] if h.ndim > 1 else 1, (h.size - 1).bit_length()
    packs = (words * (top + 1) - 1).bit_length() + bits <= 32
    keys = h.astype(np.uint32 if packs else _key_type(top, words))
    if words > 1:
        keys += np.arange(0, words * (top + 1), top + 1, dtype=keys.dtype)
    if not packs:
        return np.argsort(keys, axis=None, kind="stable")
    keys <<= bits
    keys |= np.arange(h.size, dtype=np.uint32).reshape(h.shape)
    keys = keys.ravel()
    keys.sort()
    return np.bitwise_and(keys, (1 << bits) - 1, out=np.empty(h.size, dtype=np.intp))


def _phi_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_phi_b` on Dyck words, one per column, by one level order.

    In the block parse, applied at every level, a U to odd height opens a
    node and one to even height a block.  So the step leaving odd vertex
    2j+1, at height k, emits U if it is a U and UD D^c if it is a D, with c
    the blocks of the node it closes; no other step emits.  c counts the
    vertices at height k since the last one that an up-step reached.  Keyed
    by word and then height, the odd vertices sort word by word, level by
    level, each level in word order, so c is a vertex's rank less the rank
    of that one; the first vertex of each level of a word is reached by an
    up-step, which resets the count.  The emissions fill each word in order,
    so a cumsum of their lengths down the words places the U's into a
    matrix of D's.
    """
    size, words = mat.shape
    if h is None:
        up, h = _up_and_heights(mat)
    else:
        up = mat == _U
    order = _level_order(h[0::2], int(h[0::2].max(initial=0)))  # vertex 2j+1 follows step 2j
    del h
    rank = np.arange(len(order), dtype=_AT)
    count = up[0::2].ravel()[order] * rank
    np.maximum.accumulate(count, out=count)
    np.subtract(rank, count, out=count)
    emit = rank  # its buffer takes c in word order, then the emitted lengths
    emit[order] = count
    del order, count
    emit += 2
    emit = emit.reshape(size // 2, words)
    emit *= ~up[1::2]  # a U emits one byte
    emit += up[1::2]
    _cumsum_down(emit, _AT, out=emit)  # where each emission ends
    emit *= words  # a step down a word moves a whole row of the matrix
    emit += np.arange(words, dtype=_AT)
    out = np.full((size, words), _D, dtype=np.uint8)
    out[:1] = _U
    out.ravel()[emit[:-1].ravel()] = _U
    return out


def _psi_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_psi_b` on Dyck words, one per column.

    The flipped and reversed words have their D's where the words have U's.
    The transducer of :func:`_psi_b` emits two bytes per such D: after a
    U-run of length s+1, U then U (pushing s) or D (s = 0); after another D,
    D then U or D, as the top count, less one, stays above zero or runs out
    and is popped.  The loop runs over the n D's of all words at once, each
    word with its own depth into a ``(words, n+2)`` stack over a base slot of
    1, so a peak at depth 0 never pops; it records each step's top, which
    gives the second bytes after the loop.  Words of at least ``_LONG`` steps
    go through :func:`_psi_rank` one by one, which alone reads ``h``.
    """
    size, rows = mat.shape
    if size >= _LONG:
        columns = [_psi_rank(mat[:, j], None if h is None else h[:, j])
                   for j in range(rows)]
        return np.stack(columns, axis=1) if rows else np.empty((size, 0), np.uint8)
    n = size // 2
    # the U-run before a mirrored D is the D-run after its U in the word: the
    # steps up to the next U, which is where the next word starts after a
    # word's last U, since a Dyck word starts with a U
    up = np.flatnonzero(mat.T == _U)  # word by word
    run = (np.append(up[1:], size * rows) - up).reshape(rows, n)
    run = np.ascontiguousarray(run.T[::-1], dtype=np.int16)  # mirrored: the last U first
    run -= 1
    peak = run > 0
    push = run > 1
    spine = run - 1
    lone = (~peak).astype(np.int16)
    stack = np.ones(rows * (n + 2), dtype=np.int16)  # each word's base slot holds 1
    top_at = np.arange(0, rows * (n + 2), n + 2)
    record = np.empty((n, rows), dtype=np.int16)  # each step's top, less one if lone
    for k in range(n):
        top = stack.take(top_at, out=record[k])
        top -= lone[k]
        stack[top_at] = top
        top_at -= top == 0  # popped
        stack[top_at + 1] = spine[k]  # read only once a push has written it
        top_at += push[k]
    second_up = push | (record != 0) & ~peak
    out = np.empty((size, rows), dtype=np.uint8)  # mirrored
    out[0::2] = _U - _flips(~peak)
    out[1::2] = _U - _flips(~second_up)
    return out[::-1] ^ np.uint8(_FLIP_BITS)


def _alpha_rows(mat: np.ndarray, h=None) -> np.ndarray:
    return mat ^ np.uint8(_FLIP_BITS)


def _beta_source(negative: np.ndarray, returns) -> np.ndarray:
    """Where beta on the negative crossing factors of the words of a
    ``(steps, words)`` matrix takes each step from: its flat positions, as
    an intp matrix of the same shape for :func:`_gather`.  ``negative``
    marks the steps of those factors, which are Dyck up to a flip, and
    ``returns`` lists flat positions of their steps that end on the axis:
    each factor's first and last return among them, in any order.

    Beta, U W1 D W2 -> U W2 D W1, moves the pieces U, W2, D and W1 of a
    factor as blocks, so a step's source less its position is constant on
    each piece: a cumsum down each word of its changes at the piece
    boundaries gives it.  One sort of the factors' starts, tagged by a low
    bit, with the returns, all in word order, puts each start before its
    own factor's returns, since a factor ends on the axis: the key after a
    start is its first return, and the key before the next start its last
    step, the last factor's before a start past every word.
    The sources are intp, which the gather reads without a conversion; on a
    long word they are also the largest block, which keeps the working set
    under twice that size, so glibc keeps the freed heap for the next call
    instead of returning it to be faulted in again.
    """
    size, rows = negative.shape
    edges = negative.copy()
    edges[1:] &= ~negative[:-1]
    start = np.flatnonzero(edges)
    del edges
    word = np.concatenate((returns, start))
    step = word // rows  # numpy divides by a scalar without divmod's cost
    word -= step * rows
    word *= size + 1  # in word order: word * (size + 1) + step
    word += step
    keys = np.append(word, rows * (size + 1))  # a start past the last word
    keys <<= 1
    keys[len(returns):] |= 1
    keys.sort()
    at = np.flatnonzero(keys & 1)
    first = keys[at[:-1] + 1] >> 1  # the step that ends U W1 D
    end = keys[at[1:] - 1] >> 1
    end += 1
    at = keys[at[:-1]] >> 1
    del keys
    word = at // (size + 1)
    start = (at - word * (size + 1)) * rows + word
    # the flat lengths of U W1 and of D W2: a step moves a whole row
    r = (first - at) * rows
    m = (end - first) * rows
    del first, end, at, word, step  # before the largest block
    # the cumsum counts the flat position: the word's column, plus a row a step
    shift = np.full((size + 1) * rows, rows, dtype=np.intp)
    shift[:rows] = np.arange(rows)
    shift[start + rows] += r  # W2 comes from |U W1| steps on
    shift[start + m] -= m  # the D from |W1| - |W2| steps on
    shift[start + m + rows] -= r  # W1 from |D W2| steps back
    shift[start + r + m] += m
    source = shift.reshape(size + 1, rows)[:-1]
    _cumsum_down(source, np.intp, out=source)
    return source


def _gather(words: np.ndarray, source: np.ndarray) -> np.ndarray:
    """The steps of a ``(steps, words)`` matrix at the flat positions of
    :func:`_beta_source`."""
    # a 1-D gather: on a long word a 2-D one faults its pages in on every call
    return words.ravel()[source.ravel()].reshape(words.shape)


def _beta_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_beta_b` on Dyck words, one per column: each word is one factor,
    whose first return is the first step of its column to end on the axis,
    and whose last step ends there too."""
    if h is None:
        h = _up_and_heights(mat)[1]
    size, rows = mat.shape
    zero = np.ones((size + 1, rows), dtype=bool)  # a last row for the matrix of no steps
    np.equal(h, 0, out=zero[:-1])
    first = zero.argmax(axis=0)
    del zero
    word = np.arange(rows)
    returns = np.concatenate((first * rows + word, (size - 1) * rows + word))
    return _gather(mat, _beta_source(np.ones(mat.shape, dtype=bool), returns))


def _negative_factors(mat: np.ndarray, h: np.ndarray) -> tuple:
    """The steps of the negative crossing factors of balanced words, one per
    column, and the flat positions of those that end on the axis, the
    arguments of :func:`_beta_source`."""
    negative = _negative_steps(mat, h)
    return negative, np.flatnonzero((h == 0) & negative)


def _phi_ext_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_phi_ext_b` on balanced words, one per column.

    The formula of :func:`_ext_b`, with one phi for all the words: one
    gather takes every negative factor through beta after a flip, which
    leaves a Dyck word; phi maps it prime by prime, so factor by factor;
    the negative factors flip back.  A matrix with no step below the axis
    has no negative factor, and phi maps it and its heights as they are.
    """
    h = _up_and_heights(mat)[1] if h is None else h
    if h.min(initial=0) >= 0:
        return _phi_rows(mat, h)
    negative, returns = _negative_factors(mat, h)
    del h  # unless the caller holds them, the heights go before beta's arrays
    flips, source = _flips(negative), _beta_source(negative, returns)
    del negative, returns
    dyck = _gather(mat, source)
    dyck ^= flips  # in place: on a long word no buffer lands above the source
    del source  # freed before phi's arrays
    return _phi_rows(dyck) ^ flips


def _psi_ext_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_psi_ext_b` on balanced words, one per column, as in
    :func:`_ext_b`: flip the negative factors, psi, beta on them, flip back.

    psi maps a Dyck word prime by prime, each to a prime of its length, so
    its image returns to the axis where the flipped words do, and beta's
    gather source is that of the words, built after psi, so that on a long
    word the two never share the heap.  A matrix with no step below the
    axis has no negative factor, and psi maps it and its heights as they are.
    """
    h = _up_and_heights(mat)[1] if h is None else h
    if h.min(initial=0) >= 0:
        return _psi_rows(mat, h)
    negative, returns = _negative_factors(mat, h)
    del h  # freed before psi, whose rank core scans a long word's flipped heights itself
    flips = _flips(negative)
    dyck = _psi_rows(mat ^ flips)
    return _gather(dyck, _beta_source(negative, returns)) ^ flips


# --- the rank core of psi ----------------------------------------------------
#
# psi on one long Dyck word of uint8 steps.  The level order of the vertex
# heights lists the vertices level by level, each level in word order, as in
# :func:`_phi_rows`.  A vertex's height has the parity of its position, so
# each parity sorts apart.

def _psi_rank(row: np.ndarray, h=None) -> np.ndarray:
    """:func:`_psi_b` on one Dyck word; ``h`` holds its vertex heights if
    known, else they are scanned here.

    The j-th U gives output bytes 2j and 2j+1: UD if one D follows it and
    DD if more do.  If a U follows it, they are UU if a U or the end of the
    word follows its matching D, and DU if a D does; that D ends at the
    next vertex of the U's height in level order.
    """
    size = len(row)
    h = _up_and_heights(row[:, None])[1][:, 0] if h is None else h
    after = np.ones(size + 2, dtype=bool)  # the step after each vertex; U past the end
    up = np.equal(row, _U, out=after[:size])
    top = int(h.max(initial=0))
    keys = np.zeros(size + 1, dtype=_key_type(top, 1))  # every vertex, the start included
    keys[1:] = h
    del h
    then_up = np.empty(size + 1, dtype=bool)  # the step after the level's next vertex
    for parity in (0, 1):
        vertex = _level_order(keys[parity::2], top)
        vertex *= 2
        vertex += parity
        then_up[vertex[:-1]] = after[vertex[1:]]
        del vertex
    del keys
    at = np.flatnonzero(up)  # the U's, one per output pair
    one = ~after[1:][at]  # a D follows the U
    first = then_up[at]  # the first byte is a U; after one D, if a U or the end follows
    first ^= one & (first ^ after[2:][at])
    out = np.empty(size, dtype=np.uint8)
    out[0::2] = _U - _flips(~first)
    out[1::2] = _U - _flips(one)
    return out


class _Map(NamedTuple):
    """A map as the API, the CLI and the sweeps run it; ``images`` checks, then
    maps, a matrix of words up to the first outside the domain, ``image`` a word."""

    dyck: bool  # its domain: Dyck words, else balanced words
    word: Callable[[bytes], bytes]  # its per-word core on ASCII steps
    rows: Callable  # its matrix twin on equal-length words: (mat, h=None)

    def text(self, text: str) -> str:
        """The map on canonical text: from ``_LONG`` steps on by the twin, on
        the word as one column, else by the per-word core."""
        if len(text) >= _LONG:
            return _row_texts(self.rows(_rows([text])))[0]
        return self.word(text.encode("ascii")).decode("ascii")

    def images(self, mat: np.ndarray) -> list:
        """The images, as texts, of the words of a ``(steps, words)`` uint8 matrix of
        at least one step before its first column outside the domain, checked by
        ``_dyck_rows`` from heights that the twin then takes, or by ``_closed_rows``;
        none if the first column fails, since every twin maps a matrix of no words."""
        h = _up_and_heights(mat)[1] if self.dyck else None
        k = _leading(_dyck_rows(mat, h) if self.dyck else _closed_rows(mat))
        h = None if h is None else h[:, :k]
        return _row_texts(self.rows(np.ascontiguousarray(mat[:, :k]), h))

    def image(self, w: PathWord) -> str:
        """A word of ``_LONG`` steps or more is checked and mapped by
        :meth:`images` as one column; any other, or one that fails there,
        goes to the domain's ``require_*``, then the core."""
        text = w.text
        if len(text) >= _LONG:
            done = self.images(_rows([text]))
            if done:
                return done[0]
        (require_dyck if self.dyck else require_closed)(w)
        return self.word(text.encode("ascii")).decode("ascii")


_MAPS = {  # one record per name of ``map --op``
    "phi": _Map(True, _phi_b, _phi_rows),
    "psi": _Map(True, _psi_b, _psi_rows),
    "alpha": _Map(False, _alpha_b, _alpha_rows),
    "beta": _Map(True, _beta_b, _beta_rows),
    "phi-ext": _Map(False, _phi_ext_b, _phi_ext_rows),
    "psi-ext": _Map(False, _psi_ext_b, _psi_ext_rows),
}


def phi(w: PathWord) -> PathWord:
    """Dyck bijection sending k up-steps at odd height to k peaks.

    Preserves semilength and the number of contacts; phi(empty) = empty.
    Inverse of :func:`psi`.
    """
    return PathWord(_MAPS["phi"].image(w))


def psi(w: PathWord) -> PathWord:
    """Inverse of :func:`phi`; sends k peaks to k up-steps at odd height."""
    return PathWord(_MAPS["psi"].image(w))


def alpha(w: PathWord) -> PathWord:
    """Reflect a balanced word in the axis; an involution.

    Swaps peaks with valleys and steps at odd height with steps at even
    height (an up-step at height j maps to a down-step at height 1-j).
    """
    return PathWord(_MAPS["alpha"].image(w))


def beta(w: PathWord) -> PathWord:
    """First-return swap U W1 D W2 -> U W2 D W1 on Dyck words; an involution.

    Away from the outermost U...D pair it exchanges odd and even step
    heights, so a word with k up-steps at odd height maps to one with k-1
    up-steps at even height.  It does not preserve the number of contacts.
    Extended by beta(empty) = empty to make the map total.
    """
    return PathWord(_MAPS["beta"].image(w))


def phi_ext(w: PathWord) -> PathWord:
    """Extension of phi to all balanced words.

    Dyck words map through phi; negative words through the conjugation
    alpha o phi o beta o alpha; anything else is cut at its crossings and
    mapped factor by factor.  Sends k up-steps at odd height to k peaks and
    preserves length, crossings, and each factor's class.
    """
    return PathWord(_MAPS["phi-ext"].image(w))


def psi_ext(w: PathWord) -> PathWord:
    """Inverse of :func:`phi_ext` (negative factors use alpha o beta o psi o alpha)."""
    return PathWord(_MAPS["psi-ext"].image(w))


# --- staged (traced) evaluation ------------------------------------------
#
# Breadth-first evaluation of phi / psi producing one display line per
# rewriting round.  Pending subwords are shown in parentheses with their
# full parse bracketing; every rewritten region keeps an enclosing pair of
# display-only parentheses, and empty subwords print as "()" so their
# positions stay visible.  The frontier is kept flat (group parentheses are
# mark tokens, excluded from the final word), so no recursion is involved.
# The round count is not bounded by the height (k+2 for (UD)^k), so the lines'
# running total of characters is capped: a refused trace costs O(cap) work.

_PEND = 0
_LIT = 1
_MARK = 2


def _stages(w: PathWord, rewrite, bracket) -> tuple[PathWord, list]:
    lines = [bracket(w.text)]
    size = len(lines[0])
    frontier = [(_PEND, w.text)]
    top_level = True
    while True:
        nxt = []
        for kind, payload in frontier:
            if kind != _PEND:
                nxt.append((kind, payload))
                continue
            body = rewrite(payload)
            if top_level:
                nxt.extend(body)
            else:
                nxt.append((_MARK, "("))
                nxt.extend(body)
                nxt.append((_MARK, ")"))
        top_level = False
        frontier = nxt
        line = "".join(
            "(" + bracket(payload) + ")"
            if kind == _PEND
            else payload
            for kind, payload in frontier
        )
        size += len(line)
        if size > _MAX_CELLS:
            raise DyckError(f"trace needs more than the cap of {_MAX_CELLS} characters")
        lines.append(line)
        if all(kind != _PEND for kind, _ in frontier):
            break
    result = PathWord("".join(p for k, p in frontier if k == _LIT))
    return result, lines


def _phi_rewrite(text: str) -> list:
    if not text:
        return []
    inner, tail = _phi_parse_text(text)
    body = []
    for sub in inner:
        body.append((_LIT, "U"))
        body.append((_PEND, sub))
    body.append((_LIT, "UD" + "D" * len(inner)))
    body.append((_PEND, tail))
    return body


def _psi_rewrite(text: str) -> list:
    if not text:
        return []
    inner, tail = _psi_parse_text(text)
    body = [(_LIT, "U")]
    for sub in inner:
        body.append((_LIT, "U"))
        body.append((_PEND, sub))
        body.append((_LIT, "D"))
    body.append((_LIT, "D"))
    body.append((_PEND, tail))
    return body


def phi_stages(w: PathWord) -> tuple[PathWord, list]:
    """Apply phi one rewriting round at a time.

    Returns (phi(w), lines): line 0 is the input's bracketed parse, each
    further line shows the word after one more round, the last line with no
    pending subwords left.  Raises DyckError if the lines exceed 10^7 characters.
    """
    require_dyck(w)
    return _stages(w, _phi_rewrite, _phi_bracketing_text)


def psi_stages(w: PathWord) -> tuple[PathWord, list]:
    """Apply psi one rewriting round at a time; see :func:`phi_stages`."""
    require_dyck(w)
    return _stages(w, _psi_rewrite, _psi_bracketing_text)
