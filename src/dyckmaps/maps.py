"""The six length-preserving maps on step words.

phi / psi     inverse bijections on Dyck words exchanging the number of
              up-steps at odd height with the number of peaks, while
              preserving semilength and the number of contacts;
alpha         reflection in the axis (an involution);
beta          first-return swap U W1 D W2 -> U W2 D W1 (an involution that
              shifts up-steps between odd and even heights);
phi_ext /     extensions of phi / psi to all balanced words, factor by
psi_ext       factor across crossings, exchanging odd-height up-steps with
              peaks on the whole bilateral class.

phi and psi run in O(length) with no recursion.  Both have a left-to-right
stack transducer for a word under ``words._LONG`` = 4,096 steps (psi runs
the mirrored one on the reversed-and-flipped word) and a twin on a matrix of
equal-length words, one per column, which also takes a longer word as one
column.  phi's twin is a rank core: one stable argsort of the odd vertices,
keyed by word and height.  psi's twin loops over the steps of a matrix of
words under ``_LONG`` steps and runs its own rank core, one stable argsort
of the vertex heights per parity, on each longer word.  The sort keys are
uint16 (a radix sort) while the words times the heights fit in 2^16 and
int32 above.  A rank core peaks at about 12 bytes per step, an extension on
a long word at about 15.
"""

from __future__ import annotations

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
from .words import (_LONG, PathWord, _cumsum_down, _row_texts, _rows,
                    _up_and_heights, require_closed, require_dyck)

_U, _D = 85, 68  # ord('U'), ord('D'); the cores run on ASCII bytes
_FLIP_B = bytes.maketrans(b"UD", b"DU")
_FLIP_STR = str.maketrans("UD", "DU")


def _phi_b(data: bytes) -> bytes:
    """Rewrite U (U W_1 D)...(U W_s D) D T  ->  (U W_1')...(U W_s') UD D^s T',
    applied to every nesting level in one pass.

    Stack frames: an int >= 0 counts the blocks of an open node, -1 marks an
    open block.  A 'U' under a node opens a block (emitted), a 'U' under a
    block opens a node (deferred); closing a node emits its relocated
    UD D^s group, closing a block emits nothing.  Output goes into a
    preallocated buffer (the map preserves length), so cost is O(length).
    """
    out = bytearray(len(data))
    pos = 0
    stack = []
    push = stack.append
    pop = stack.pop
    for ch in data:
        if ch == _U:
            if stack and stack[-1] >= 0:
                stack[-1] += 1
                out[pos] = _U
                pos += 1
                push(-1)
            else:
                push(0)
        else:
            s = pop()
            if s >= 0:
                out[pos] = _U
                out[pos + 1] = _D
                pos += 2
                if s:
                    end = pos + s
                    out[pos:end] = b"D" * s
                    pos = end
    return bytes(out)


def _psi_mirror_b(data: bytes) -> bytes:
    """Mirror-image transducer inverting _phi_b.

    On the reversed/flipped word each prime factor starts with a maximal
    U-run of length s+1; the run collapses to the anchor peak and the s
    level-closing D's fan back out around the inner factors.
    """
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
    return bytes(out)


def _psi_b(data: bytes) -> bytes:
    mirrored = data.translate(_FLIP_B)[::-1]
    return _psi_mirror_b(mirrored).translate(_FLIP_B)[::-1]


def _beta_b(data: bytes) -> bytes:
    if not data:
        return data  # beta(empty) = empty makes the map total
    r = _first_return_len(data)
    return b"U" + data[r:] + b"D" + data[1 : r - 1]


def _phi_beta_b(data: bytes) -> bytes:
    return _phi_b(_beta_b(data))


def _beta_psi_b(data: bytes) -> bytes:
    return _beta_b(_psi_b(data))


def _ext_b(data: bytes, core, negative_core) -> bytes:
    """Map a balanced word factor by factor across its crossings: positive
    factors through ``core``, negative factors through ``negative_core``
    conjugated by the reflection alpha."""
    parts = []
    for a, b, negative in _crossing_factors(data):
        seg = data[a:b]
        if negative:
            parts.append(negative_core(seg.translate(_FLIP_B)).translate(_FLIP_B))
        else:
            parts.append(core(seg))
    return b"".join(parts)


# str-level wrappers used by the verification engine and the public maps;
# a word of at least _LONG steps goes through the matrix twin as one column

def _phi_text(text: str) -> str:
    if len(text) >= _LONG:
        return _row_texts(_phi_rows(_rows([text])))[0]
    return _phi_b(text.encode("ascii")).decode("ascii")


def _psi_text(text: str) -> str:
    if len(text) >= _LONG:
        return _row_texts(_psi_rows(_rows([text])))[0]
    return _psi_b(text.encode("ascii")).decode("ascii")


def _alpha_text(text: str) -> str:
    return text.translate(_FLIP_STR)


def _beta_text(text: str) -> str:
    return _beta_b(text.encode("ascii")).decode("ascii")


def _phi_ext_text(text: str) -> str:
    if len(text) >= _LONG:
        return _row_texts(_phi_ext_rows(_rows([text])))[0]
    return _ext_b(text.encode("ascii"), _phi_b, _phi_beta_b).decode("ascii")


def _psi_ext_text(text: str) -> str:
    if len(text) >= _LONG:
        return _row_texts(_psi_ext_rows(_rows([text])))[0]
    return _ext_b(text.encode("ascii"), _psi_b, _beta_psi_b).decode("ascii")


# --- matrix twins ----------------------------------------------------------
#
# The str-level maps on equal-length words, one per column of a C-contiguous
# ``(steps, words)`` uint8 matrix, computed for all words at once; the
# verification sweeps run them on chunks of a class.  Steps run down axis 0,
# so each loop pass, cumsum and reduction reads contiguous rows that hold one
# step of every word.  Loops run over the steps or over the n steps of one
# kind, never over words.  Every twin takes the words' heights ``h`` where the
# caller has them (see :func:`~dyckmaps.words._up_and_heights`); a twin that
# needs none ignores them.  Masks become bytes by arithmetic: np.where is an
# order of magnitude slower on matrices this small.

_FLIP_BITS = _U ^ _D  # byte ^ _FLIP_BITS turns U into D and D into U
_AT = np.int32  # positions in a chunk; half the memory of the default int64


def _flips(mask: np.ndarray) -> np.ndarray:
    """XOR operand that flips the steps where ``mask`` holds."""
    return mask.view(np.uint8) * np.uint8(_FLIP_BITS)


def _key_type(top: int, words: int) -> type:
    """The type of the sort keys ``word * (top + 1) + height`` of ``words``
    words of heights up to ``top``: uint16 where they fit, which numpy
    sorts by radix, else int32."""
    return np.uint16 if words * (top + 1) <= 1 << 16 else np.int32


def _phi_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_phi_b` on Dyck words, one per column, by one stable argsort.

    The frames of ``_phi_b`` at odd depth k are nodes, those at even depth
    blocks.  So the step leaving odd vertex 2j+1, at height k, emits U if it
    is a U and UD D^c if it is a D, with c the blocks of the node it closes;
    no other step emits.  c counts the vertices at height k since the last
    one that an up-step reached.  Keyed by word and then height, the odd
    vertices sort word by word, level by level, each level in word order,
    so c is a vertex's rank less the rank of that one; the first vertex of
    each level of a word is reached by an up-step, which resets the count.
    The emissions fill each word in order, so a cumsum of their lengths
    down the words places the U's into a matrix of D's.
    """
    size, words = mat.shape
    if not mat.size:
        return mat.copy()
    if h is None:
        up, h = _up_and_heights(mat)
    else:
        up = mat == _U
    top = int(h[0::2].max())
    key = _key_type(top, words)
    keys = h[0::2].astype(key)  # vertex 2j+1 follows step 2j
    del h
    keys += np.arange(0, words * (top + 1), top + 1, dtype=key)
    order = np.argsort(keys, axis=None, kind="stable").astype(_AT)
    del keys
    rank = np.arange(len(order), dtype=_AT)
    count = up[0::2].ravel()[order] * rank
    np.maximum.accumulate(count, out=count)
    np.subtract(rank, count, out=count)
    emit = rank  # its buffer takes c in word order, then the emitted lengths
    emit[order] = count
    del order, count
    emit += 2
    emit = emit.reshape(size // 2, words)
    np.copyto(emit, 1, where=up[1::2])
    _cumsum_down(emit, _AT, out=emit)  # where each emission ends
    emit *= words  # a step down a word moves a whole row of the matrix
    emit += np.arange(words, dtype=_AT)
    out = np.full((size, words), _D, dtype=np.uint8)
    out[0] = _U
    out.ravel()[emit[:-1].ravel()] = _U
    return out


def _psi_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_psi_b` on Dyck words, one per column.

    The flipped and reversed words have their D's where the words have U's.
    ``_psi_mirror_b`` emits two bytes per such D: after a U-run of length
    s+1, U then U (pushing s) or D (s = 0); after another D, D then U or D,
    as the top count, less one, stays above zero or runs out and is popped.
    The loop runs over the n D's of all words at once, each word with its
    own depth into a ``(words, n+1)`` stack.  Words of at least ``_LONG``
    steps go through :func:`_psi_rank` one by one.
    """
    size, rows = mat.shape
    if not mat.size:
        return mat.copy()
    if size >= _LONG:
        return np.stack([_psi_rank(mat[:, j]) for j in range(rows)], axis=1)
    n = size // 2
    if h is None:
        h = _up_and_heights(mat)[1]
    # the U-run before a mirrored D is the D-run after its U in the word;
    # (steps + height) / 2 counts the U's so far, so a U and the D's after
    # it share a bin of the count, word by word
    last_up = (h + np.arange(1, size + 1)[:, None]) >> 1
    last_up = last_up * rows + np.arange(rows)
    run = np.bincount(last_up.ravel(), minlength=(n + 1) * rows).reshape(n + 1, rows)
    run = run[:0:-1] - 1  # mirrored: the last U first
    peak = run > 0
    push = run > 1
    spine = (run - 1).astype(np.int16)
    stack = np.zeros(rows * (n + 1), dtype=np.int16)
    top_at = np.arange(-1, rows * (n + 1) - 1, n + 1)  # depth 0 reads an unused slot
    second_up = np.empty((n, rows), dtype=bool)
    for k in range(n):
        lone = ~peak[k]
        p = push[k]
        top = stack[top_at]
        second_up[k] = p | (lone & (top != 1))
        stack[top_at + p] = np.where(p, spine[k], top - lone)
        top_at += p
        top_at -= lone & (top == 1)
    out = np.empty((size, rows), dtype=np.uint8)  # mirrored
    out[0::2] = _U - _flips(~peak)
    out[1::2] = _U - _flips(~second_up)
    return out[::-1] ^ np.uint8(_FLIP_BITS)


def _alpha_rows(mat: np.ndarray, h=None) -> np.ndarray:
    return mat ^ np.uint8(_FLIP_BITS)


def _in_word_order(flat: np.ndarray, rows: int, size: int) -> np.ndarray:
    """Flat positions of a ``(size, rows)`` matrix as ``word * (size + 1) +
    step``, which orders them word by word."""
    step, word = np.divmod(flat, rows)
    word *= size + 1
    word += step
    return word


def _beta_in_factors(words: np.ndarray, returns, negative) -> np.ndarray:
    """The words of a ``(steps, words)`` matrix with beta on their negative
    crossing factors.  ``negative`` marks the steps of those factors, which
    are Dyck up to a flip, and ``returns`` lists the flat positions of their
    steps that end on the axis.

    Beta, U W1 D W2 -> U W2 D W1, moves the pieces U, W2, D and W1 of a
    factor as blocks, so a step's source less its position is constant on
    each piece: a cumsum down each word of its changes at the piece
    boundaries gives it.  A factor's first return and last step are the
    next ones of its word, which a search finds in word order.
    The sources are intp, which the gather reads without a conversion; on a
    long word they are also the largest block, which keeps the working set
    under twice that size, so glibc keeps the freed heap for the next call
    instead of returning it to be faulted in again.
    """
    size, rows = words.shape
    edges = negative.copy()
    edges[1:] &= ~negative[:-1]
    start = np.flatnonzero(edges)
    edges[:] = negative
    edges[:-1] &= ~negative[1:]
    last = np.flatnonzero(edges)
    del edges
    at = _in_word_order(start, rows, size)
    first = np.sort(_in_word_order(returns, rows, size))
    first = first[np.searchsorted(first, at)]  # the step that ends U W1 D
    end = np.sort(_in_word_order(last, rows, size))
    end = end[np.searchsorted(end, at)] + 1
    # the flat lengths of U W1 and of D W2: a step moves a whole row
    r = (first - at) * rows
    m = (end - first) * rows
    # the cumsum counts the flat position: the word's column, plus a row a step
    shift = np.full((size + 1) * rows, rows, dtype=np.intp)
    shift[:rows] = np.arange(rows)
    shift[start + rows] += r  # W2 comes from |U W1| steps on
    shift[start + m] -= m  # the D from |W1| - |W2| steps on
    shift[start + m + rows] -= r  # W1 from |D W2| steps back
    shift[start + r + m] += m
    source = shift.reshape(size + 1, rows)[:-1]
    _cumsum_down(source, np.intp, out=source)
    # a 1-D gather: on a long word a 2-D one faults its pages in on every call
    return words.ravel()[source.ravel()].reshape(words.shape)


def _beta_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_beta_b` on Dyck words, one per column: each word is one factor."""
    if not mat.size:
        return mat.copy()
    if h is None:
        h = _up_and_heights(mat)[1]
    returns = np.flatnonzero(h == 0)
    return _beta_in_factors(mat, returns, np.ones(mat.shape, dtype=bool))


def _negative_factors(mat: np.ndarray, h=None) -> tuple:
    """The steps of the negative crossing factors of balanced words, one per
    column, and the flat positions of those that end on the axis, the
    arguments of :func:`_beta_in_factors`.  The heights are freed on return,
    before the maps' next arrays, which keeps long words lean."""
    if h is None:
        h = _up_and_heights(mat)[1]
    negative = _negative_steps(mat, h)
    return negative, np.flatnonzero((h == 0) & negative)


def _phi_ext_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_phi_ext_text` on balanced words, one per column.

    One gather takes every negative factor through beta after a flip, which
    leaves a Dyck word; phi maps it prime by prime, so factor by factor;
    the negative factors flip back.
    """
    if not mat.size:
        return mat.copy()
    negative, returns = _negative_factors(mat, h)
    flips = _flips(negative)
    return _phi_rows(_beta_in_factors(mat, returns, negative) ^ flips) ^ flips


def _psi_ext_rows(mat: np.ndarray, h=None) -> np.ndarray:
    """:func:`_psi_ext_text` on balanced words, one per column: flip the
    negative factors, psi, beta on the negative factors, flip them back.

    psi maps a Dyck word prime by prime, each to a prime of its length, so
    its image returns to the axis where the flipped words do.
    """
    if not mat.size:
        return mat.copy()
    negative, returns = _negative_factors(mat, h)
    flips = _flips(negative)
    return _beta_in_factors(_psi_rows(mat ^ flips), returns, negative) ^ flips


# --- the rank core of psi ----------------------------------------------------
#
# psi on one long Dyck word of uint8 steps.  A stable argsort of the vertex
# heights lists the vertices level by level, each level in word order, as in
# :func:`_phi_rows`.  A vertex's height has the parity of its position, so
# each parity sorts apart.

def _psi_rank(row: np.ndarray) -> np.ndarray:
    """:func:`_psi_b` on one Dyck word.

    The j-th U gives output bytes 2j and 2j+1: UD if one D follows it and
    DD if more do.  If a U follows it, they are UU if a U or the end of the
    word follows its matching D, and DU if a D does; that D ends at the
    next vertex of the U's height in level order.
    """
    size = len(row)
    up, h = _up_and_heights(row[:, None])
    after = np.ones(size + 2, dtype=bool)  # the step after each vertex; U past the end
    after[:size] = up[:, 0]
    up = after[:size]
    key = _key_type(int(h.max(initial=0)), 1)
    keys = np.zeros(size + 1, dtype=key)  # every vertex, the start included
    keys[1:] = h[:, 0]
    del h
    then_up = np.empty(size + 1, dtype=bool)  # the step after the level's next vertex
    for parity in (0, 1):
        vertex = np.argsort(keys[parity::2], kind="stable").astype(_AT)
        vertex *= 2
        vertex += parity
        then_up[vertex[:-1]] = after[vertex[1:]]
        del vertex
    one = ~after[1:-1]  # a D follows the step
    first = np.where(one, after[2:], then_up[:-1])  # the first byte is a U
    out = np.empty(size, dtype=np.uint8)
    out[0::2] = _U - _flips(~first[up])
    out[1::2] = _U - _flips(one[up])
    return out


# The matrix twin of each str-level map: the sweeps and the CLI run a map
# through its twin on equal-length words.
_ROWS_OF = {
    _phi_text: _phi_rows,
    _psi_text: _psi_rows,
    _alpha_text: _alpha_rows,
    _beta_text: _beta_rows,
    _phi_ext_text: _phi_ext_rows,
    _psi_ext_text: _psi_ext_rows,
}


def phi(w: PathWord) -> PathWord:
    """Dyck bijection sending k up-steps at odd height to k peaks.

    Preserves semilength and the number of contacts; phi(empty) = empty.
    Inverse of :func:`psi`.
    """
    require_dyck(w)
    return PathWord(_phi_text(w.text))


def psi(w: PathWord) -> PathWord:
    """Inverse of :func:`phi`; sends k peaks to k up-steps at odd height."""
    require_dyck(w)
    return PathWord(_psi_text(w.text))


def alpha(w: PathWord) -> PathWord:
    """Reflect a balanced word in the axis; an involution.

    Swaps peaks with valleys and steps at odd height with steps at even
    height (an up-step at height j maps to a down-step at height 1-j).
    """
    require_closed(w)
    return PathWord(_alpha_text(w.text))


def beta(w: PathWord) -> PathWord:
    """First-return swap U W1 D W2 -> U W2 D W1 on Dyck words; an involution.

    Away from the outermost U...D pair it exchanges odd and even step
    heights, so a word with k up-steps at odd height maps to one with k-1
    up-steps at even height.  It does not preserve the number of contacts.
    Extended by beta(empty) = empty to make the map total.
    """
    require_dyck(w)
    return PathWord(_beta_text(w.text))


def phi_ext(w: PathWord) -> PathWord:
    """Extension of phi to all balanced words.

    Dyck words map through phi; negative words through the conjugation
    alpha o phi o beta o alpha; anything else is cut at its crossings and
    mapped factor by factor.  Sends k up-steps at odd height to k peaks and
    preserves length, crossings, and each factor's class.
    """
    require_closed(w)
    return PathWord(_phi_ext_text(w.text))


def psi_ext(w: PathWord) -> PathWord:
    """Inverse of :func:`phi_ext` (negative factors use alpha o beta o psi o alpha)."""
    require_closed(w)
    return PathWord(_psi_ext_text(w.text))


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
