"""The matrix fast path of the sweeps against the per-word code it stands for:
the chunked enumerator, the six matrix maps and the row scan, word by word;
phi's rank core on one-word columns and on matrices past the uint16 sort
keys, psi's step loop and psi's rank core of long words, against the stack
transducers; the level order of both rank cores against a stable argsort."""

import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import dyckmaps.decompose
import dyckmaps.maps
import oracles
from dyckmaps import beta
from dyckmaps.decompose import _crossing_factors, _first_return_len
from dyckmaps.generate import (
    _random_balanced_text,
    _random_dyck_text,
    _rank_blocks,
    _rank_rows,
)
from dyckmaps.maps import (
    _MAPS,
    _alpha_b,
    _beta_b,
    _beta_rows,
    _beta_source,
    _ext_b,
    _gather,
    _level_order,
    _negative_factors,
    _phi_b,
    _phi_ext_rows,
    _phi_rows,
    _psi_b,
    _psi_ext_rows,
    _psi_rank,
    _psi_rows,
)
from dyckmaps.verify import _CHUNK, verify_randomized
from dyckmaps.stats import (_JSON_TEMPLATE, _TEXT_TEMPLATE, _stat_line, _stat_lines_rows,
                            stat_record)
from dyckmaps.words import (_LONG, PathWord, _cumsum_down, _rows, _scan_rows, _scan_text,
                            _up_and_heights)

# every Dyck word with n <= 10 and every balanced word with n <= 8
CASES = [("dyck", n) for n in range(11)] + [("bilateral", n) for n in range(9)]
# the records of the CLI and the sweeps: every map on Dyck words, the maps
# on balanced words on those too
MAPS = {
    "dyck": list(_MAPS.values()),
    "bilateral": [op for op in _MAPS.values() if not op.dyck],
}


@lru_cache(maxsize=None)
def _class(path_class, n):
    """(matrix of the whole class from 1,024-row blocks, its words sorted by
    the brute-force oracle)."""
    dyck = path_class == "dyck"
    blocks = [_rank_rows(*b) for b in _rank_blocks(n, dyck, 1024)]
    words = oracles.all_dyck(n) if dyck else oracles.all_balanced(n)
    return np.concatenate(blocks, axis=1), sorted(words, key=oracles.lex_key)


def _texts_of(mat):
    return [col.tobytes().decode("ascii") for col in mat.T]


@pytest.mark.parametrize("path_class, n", CASES)
def test_blocks_enumerate_the_class_in_order(path_class, n):
    mat, texts = _class(path_class, n)
    assert mat.dtype == np.uint8 and mat.shape == (2 * n, len(texts))
    assert _texts_of(mat) == texts


@pytest.mark.parametrize("rows", [1, 2, 7, 100, 1024])
@pytest.mark.parametrize("path_class, n", [("dyck", 10), ("bilateral", 8), ("dyck", 0)])
def test_every_block_holds_at_most_the_chunk(path_class, n, rows):
    dyck = path_class == "dyck"
    sizes = [_rank_rows(*b).shape[1] for b in _rank_blocks(n, dyck, rows)]
    assert max(sizes) <= rows
    assert sum(sizes) == len(_class(path_class, n)[1])
    if rows >= 4:  # all but the last block are more than 3/4 full
        assert min(sizes[:-1], default=rows) > 3 * rows / 4


@pytest.mark.parametrize("path_class, n", CASES)
def test_blocks_and_twins_are_c_contiguous_steps_by_words(path_class, n):
    for block in _rank_blocks(n, path_class == "dyck", 1024):
        mat = _rank_rows(*block)
        for image in [mat] + [op.rows(mat) for op in MAPS[path_class]]:
            assert image.dtype == np.uint8 and image.flags.c_contiguous
            assert image.shape == (2 * n, block[3] - block[2])


@pytest.mark.parametrize("path_class, n", CASES)
def test_matrix_maps_equal_the_word_maps(path_class, n):
    mat, texts = _class(path_class, n)
    h = _up_and_heights(mat)[1]
    for op in MAPS[path_class]:
        image = op.rows(mat)
        assert image.dtype == np.uint8 and image.shape == mat.shape
        assert _texts_of(image) == [op.text(t) for t in texts], op.rows.__name__
        assert np.array_equal(op.rows(mat, h), image), op.rows.__name__  # heights given


@pytest.mark.parametrize("path_class, n", CASES)
def test_row_scan_equals_the_word_scan_in_every_field(path_class, n):
    mat, texts = _class(path_class, n)
    scan = _scan_rows(mat)
    want = [_scan_text(t) for t in texts]
    for i, field in enumerate(scan._fields):
        assert scan[i].tolist() == [s[i] for s in want], field
    given = _scan_rows(mat, _up_and_heights(mat)[1])
    assert [f.tolist() for f in given] == [f.tolist() for f in scan]


@pytest.mark.parametrize("path_class, n", CASES)
def test_row_records_equal_the_word_records(path_class, n):
    mat, texts = _class(path_class, n)
    records = [stat_record(PathWord(t)) for t in texts]
    # against json.dumps, so that a numpy int or an int for a bool shows
    want = [json.dumps(r.to_dict()) for r in records]
    assert _stat_lines_rows(mat, _JSON_TEMPLATE) == want
    assert [_stat_line(r, _JSON_TEMPLATE) for r in records] == want
    assert _stat_lines_rows(mat, _TEXT_TEMPLATE) == [r.to_text() for r in records]


@pytest.mark.parametrize("dyck", [True, False], ids=["dyck", "bilateral"])
def test_twins_of_cli_sized_chunks_equal_the_word_maps(dyck):
    # 160 words of 400 steps: the heights are summed in blocks of rows
    sample = dyckmaps.sample_dyck if dyck else dyckmaps.sample_bilateral
    texts = [sample(200, seed).text for seed in range(160)]
    mat = _rows(texts)
    h = _up_and_heights(mat)[1]
    assert np.array_equal(h.T, [PathWord(t)._height_list() for t in texts])
    for op in MAPS["dyck" if dyck else "bilateral"]:
        want = [op.text(t) for t in texts]
        assert _texts_of(op.rows(mat)) == want, op.rows.__name__
        assert _texts_of(op.rows(mat, h)) == want, op.rows.__name__
    assert _stat_lines_rows(mat, _TEXT_TEMPLATE) == [
        stat_record(PathWord(t)).to_text() for t in texts]


def _outside(text, kind):
    """A word of the length of ``text`` outside a domain: a "dipping" balanced
    word that is not Dyck, from a Dyck word, or an "open" one."""
    if kind == "dipping":
        return text[-1] + text[:-1]  # starts with the D that ends a Dyck word
    return text[:-1] + ("U" if text[-1] == "D" else "D")


@pytest.mark.parametrize("bad_at", [None, 0, 17, 39], ids=["none", "first", "middle", "last"])
@pytest.mark.parametrize("name", list(_MAPS))
def test_images_map_the_columns_before_the_first_outside_the_domain(name, bad_at):
    op = _MAPS[name]
    sample = dyckmaps.sample_dyck if op.dyck else dyckmaps.sample_bilateral
    for kind in ["dipping", "open"] if op.dyck else ["open"]:
        texts = [sample(10, seed).text for seed in range(40)]
        keep = len(texts)
        if bad_at is not None:
            keep = bad_at
            if bad_at < 39:
                texts[39] = _outside(texts[39], "open")  # a later one changes nothing
            texts[bad_at] = _outside(texts[bad_at], kind)
            with pytest.raises(dyckmaps.DyckError):
                op.image(PathWord(texts[bad_at]))
        want = [op.image(PathWord(t)) for t in texts[:keep]]
        assert op.images(_rows(texts)) == want, kind


# every pair of dtypes that the heights scan, phi and beta's sources sum in
_SUM_TYPES = [(np.int8, np.int8), (np.int8, np.int16), (np.int32, np.int32),
              (np.intp, np.intp)]


@pytest.mark.parametrize("steps, words", [
    (steps, words) for steps in [0, 1, 63, 64, 65, 400, 401, 4097]
    for words in [1, 127, 128, 511, 512, 4096] if steps * words < 1 << 22])
def test_cumsum_down_equals_numpys_cumsum(steps, words):
    rng = np.random.default_rng(steps * 7919 + words)
    for source, dtype in _SUM_TYPES:
        x = rng.integers(-1, 2, (steps, words)).astype(source)
        want = np.cumsum(x, axis=0, dtype=dtype)
        got = _cumsum_down(x, dtype)
        assert got.dtype == dtype and np.array_equal(got, want), (source, dtype)
        if source is dtype:  # in place, as _phi_rows and _beta_source call it
            assert _cumsum_down(x, dtype, out=x) is x
            assert np.array_equal(x, want), (source, dtype)


@pytest.mark.parametrize("words", [1, 600])  # 600 is past 4 * _ROW_SUMS, where rows add up
def test_every_twin_maps_a_matrix_of_no_steps_to_a_fresh_one(words):
    mat = np.empty((0, words), np.uint8)
    for rows_fn in [op.rows for op in _MAPS.values()]:
        image = rows_fn(mat)
        assert image.shape == (0, words) and image.dtype == np.uint8, rows_fn.__name__
        assert image.flags.c_contiguous, rows_fn.__name__
        assert image is not mat and image.base is not mat, rows_fn.__name__
    assert verify_randomized(0, 600, 1, check_scaling=False).ok


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (8, 0), (_LONG, 0)])
def test_every_twin_maps_a_matrix_of_no_words(shape):
    # psi's long branch stacks its columns, and a matrix of none has no column
    for name, op in _MAPS.items():
        image = op.rows(np.empty(shape, np.uint8))
        assert image.shape == shape and image.dtype == np.uint8, name


@pytest.mark.parametrize("n", range(1, 11))
def test_rank_cores_equal_the_transducers_on_every_dyck_word(n):
    mat, texts = _class("dyck", n)
    for row, text in zip(mat.T, texts):
        data = text.encode("ascii")
        assert _phi_rows(row[:, None]).tobytes() == _phi_b(data), text
        assert _psi_rank(row).tobytes() == _psi_b(data), text


def test_phi_rows_sort_int32_keys_past_the_uint16_range():
    """300 words of 500 steps with heights up to 250 need keys of 300 x 251
    values, more than uint16 holds."""
    rng = np.random.default_rng(7)
    texts = ["U" * 250 + "D" * 250 if i % 3 == 0 else _random_dyck_text(250, rng)
             for i in range(300)]
    image = _phi_rows(_rows(texts))
    assert _texts_of(image) == [_phi_b(t.encode("ascii")).decode("ascii") for t in texts]


def test_psi_rows_equals_the_transducer_on_random_and_extreme_columns():
    """327 random columns of 400 steps, the shape of a CLI chunk, then the
    deepest and shallowest stacks, U^n D^n and (UD)^n, and U^k (UD)^m D^k,
    mixed with random columns in one matrix."""
    rng = np.random.default_rng(31)
    random = [_random_dyck_text(200, rng) for _ in range(327)]
    extreme = ["U" * 200 + "D" * 200, "UD" * 200] + [
        "U" * k + "UD" * (200 - k) + "D" * k for k in (1, 2, 37, 100, 199)]
    for texts in (random, extreme + random[:9] + extreme[::-1]):
        want = [_psi_b(t.encode("ascii")).decode("ascii") for t in texts]
        assert _texts_of(_psi_rows(_rows(texts))) == want


def test_psi_rows_keeps_each_word_on_its_own_stack(monkeypatch):
    """Every top the step loop reads lies in its word's n + 2 slots, so a
    peak on an empty stack stays on the base slot and no word reads or
    writes another's."""
    texts = ["UD" * 40, "U" * 40 + "D" * 40, "UUDD" * 20, "UD" * 40,
             "U" * 20 + "UD" * 20 + "D" * 20]
    real, rows, slots = np.take, len(texts), 42  # n + 2 slots a word

    def take(a, indices, *args, **kwargs):
        if a.dtype == np.int16 and len(a) == rows * slots:  # the stack
            assert np.array_equal(np.floor_divide(indices, slots), np.arange(rows))
        return real(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", take)
    image = _psi_rows(_rows(texts))
    assert _texts_of(image) == [_psi_b(t.encode("ascii")).decode("ascii") for t in texts]


def _vertex_heights(text):
    """The heights of the vertices of a word, the start included."""
    h = np.zeros(len(text) + 1, dtype=np.int32)
    h[1:] = _up_and_heights(_rows([text]))[1][:, 0]
    return h


def _level_cases():
    """name: (heights, their top, whether key and position pack in 32 bits)."""
    rng = np.random.default_rng(37)
    size = 10**6
    walk = _vertex_heights(_random_dyck_text(size // 2, rng))
    climb = _vertex_heights("U" * (size // 2) + "D" * (size // 2))
    return {
        # a full sweep chunk of heights up to n: 16 + 16 bits at n = 15
        "chunk-n15": (rng.integers(0, 16, (15, _CHUNK)), 15, True),
        "chunk-n16": (rng.integers(0, 17, (16, _CHUNK)), 16, False),
        # one parity of a 10^6-step word: 19 bits of position
        "random-1e6": (walk[1::2], int(walk.max()), True),
        "U^n-D^n-1e6": (climb[0::2], size // 2, False),
    }


def _count_argsorts(monkeypatch):
    """The calls of np.argsort from here on, one item each."""
    calls, real = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


@pytest.mark.parametrize("name", ["chunk-n15", "chunk-n16", "random-1e6", "U^n-D^n-1e6"])
def test_the_level_order_equals_the_stable_argsort(monkeypatch, name):
    h, top, packs = _level_cases()[name]
    words = h.shape[1] if h.ndim > 1 else 1
    want = np.argsort(h + np.arange(words) * (top + 1), axis=None, kind="stable")
    calls = _count_argsorts(monkeypatch)
    kept = h.copy()
    got = _level_order(h, top)
    assert got.dtype == np.intp and np.array_equal(got, want)
    assert np.array_equal(h, kept)
    assert not calls if packs else calls  # the packed sort, else the stable argsort


@pytest.mark.parametrize("n", range(1, 17))
def test_a_full_chunk_takes_the_packed_sort_up_to_n15(monkeypatch, n):
    # phi sorts the heights of a chunk's Dyck words, at most n
    calls = _count_argsorts(monkeypatch)
    _level_order(np.zeros((n, _CHUNK), np.int8), n)
    assert bool(calls) == (n > 15)


@pytest.mark.parametrize("n", range(1, 9))
def test_the_long_ext_path_equals_the_factor_loop_on_every_balanced_word(monkeypatch, n):
    monkeypatch.setattr(dyckmaps.maps, "_LONG", 1)  # every word takes the long path
    for text in _class("bilateral", n)[1]:
        data = text.encode("ascii")
        phi_ext, psi_ext = _MAPS["phi-ext"].text(text), _MAPS["psi-ext"].text(text)
        assert phi_ext == _ext_b(data, _phi_b, _beta_b, bytes).decode("ascii"), text
        assert psi_ext == _ext_b(data, _psi_b, bytes, _beta_b).decode("ascii"), text


def _alternating_factors(count, rng):
    """A balanced word of ``count`` crossing factors, the first negative."""
    flip = str.maketrans("UD", "DU")
    factors = [_random_dyck_text(int(rng.integers(1, 40)), rng) for _ in range(count)]
    return "".join(f.translate(flip) if i % 2 == 0 else f for i, f in enumerate(factors))


def test_a_short_word_of_many_factors_equals_the_oracles():
    """The exhaustive oracle cases stop at six factors; this word has 60."""
    text = _alternating_factors(60, np.random.default_rng(13))
    assert len(text) < _LONG and len(_crossing_factors(text.encode("ascii"))) == 60
    assert _MAPS["phi-ext"].text(text) == oracles.phi_ext(text)
    assert _MAPS["psi-ext"].text(text) == oracles.psi_ext(text)


@pytest.mark.parametrize("ext, core, oracle", [
    (_MAPS["phi-ext"].text, "_phi_b", oracles.phi_ext),
    (_MAPS["psi-ext"].text, "_psi_b", oracles.psi_ext),
], ids=["_phi_ext_text-_phi_b-phi_ext", "_psi_ext_text-_psi_b-psi_ext"])
def test_a_short_ext_calls_its_dyck_core_once_per_word(monkeypatch, ext, core, oracle):
    calls = []
    real = getattr(dyckmaps.maps, core)
    monkeypatch.setattr(dyckmaps.maps, core, lambda data: calls.append(data) or real(data))
    text = _alternating_factors(7, np.random.default_rng(17))
    assert len(text) < _LONG and ext(text) == oracle(text)
    assert len(calls) == 1 and len(calls[0]) == len(text)


def _refuse_beta(*args):
    raise AssertionError("the beta gather ran")


@pytest.mark.parametrize("ext, dyck_rows, core, before, after",
                         [(_phi_ext_rows, _phi_rows, _phi_b, _beta_b, bytes),
                          (_psi_ext_rows, _psi_rows, _psi_b, bytes, _beta_b)])
def test_an_extension_maps_a_matrix_with_no_negative_factor_by_its_dyck_map(
        monkeypatch, ext, dyck_rows, core, before, after):
    """The test is per matrix: one balanced column sends every column
    through the beta gather, which still fixes the Dyck ones."""
    rng = np.random.default_rng(23)
    texts = [_random_dyck_text(20, rng) for _ in range(64)]
    for mat in (_rows(texts), np.empty((0, 3), np.uint8)):
        want = [_ext_b(t.encode("ascii"), core, before, after).decode("ascii")
                for t in _texts_of(mat)]
        with monkeypatch.context() as patch:
            patch.setattr(dyckmaps.maps, "_beta_source", _refuse_beta)
            image = ext(mat)
        assert np.array_equal(image, dyck_rows(mat)) and _texts_of(image) == want
    texts.insert(40, "DU" * 20)
    image = ext(_rows(texts))
    assert _texts_of(image) == [_ext_b(t.encode("ascii"), core, before, after).decode("ascii")
                                for t in texts]


def _beta_pieces(text):
    """The word with beta on each negative crossing factor, flipped and back,
    by the per-word code: the pieces of :func:`_ext_b` that the gather of
    :func:`_beta_source` takes to one word."""
    data = text.encode("ascii")
    return b"".join(_alpha_b(_beta_b(_alpha_b(data[a:b]))) if negative else data[a:b]
                    for a, b, negative in _crossing_factors(data)).decode("ascii")


def _beta_gather(mat):
    source = _beta_source(*_negative_factors(mat, _up_and_heights(mat)[1]))
    assert source.dtype == np.intp and source.shape == mat.shape
    return _texts_of(_gather(mat, source))


@pytest.mark.parametrize("n", range(8))
def test_the_beta_gather_equals_the_per_word_pieces_on_every_balanced_word(n):
    mat, texts = _class("bilateral", n)
    assert _beta_gather(mat) == [_beta_pieces(t) for t in texts]


@pytest.mark.parametrize("texts", [
    ["UDUDDU", "UUDDDU", "UDDDUU", "DDUUDU", "UUUDDD"],  # a factor ends on the last row
    ["DDDUUU", "DUDUDU", "DDUUDU", "DUDDUU"],  # every step negative
    ["UDDUUD", "DUUUDD", "UUDDDU", "DUUDDU"],  # lone DU factors
    ["DU", "UD", "DU"],
], ids=["ends-last", "all-negative", "lone-DU", "one-DU"])
def test_the_beta_gather_on_the_edges_of_its_factors(texts):
    assert _beta_gather(_rows(texts)) == [_beta_pieces(t) for t in texts]
    assert _beta_gather(_rows(texts[::-1])) == [_beta_pieces(t) for t in texts[::-1]]


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (6, 0)])
def test_the_beta_gather_of_no_words_or_no_steps(shape):
    mat = np.empty(shape, np.uint8)
    assert _beta_gather(mat) == [""] * shape[1]
    assert _beta_rows(mat).shape == shape


def test_beta_rows_on_words_whose_first_return_is_their_last_step():
    """Primes, whose first return and last step are one step, alone and mixed
    with words that return to the axis earlier."""
    primes = ["UUDUDUDUDD", "UUUUUDDDDD", "UUDUUDDUDD"]
    assert all(_first_return_len(t.encode("ascii")) == 10 for t in primes)
    for texts in (primes, primes[:1], ["UDUDUDUDUD"] + primes + ["UUDDUUUDDD"], ["UD"] * 3):
        mat = _rows(texts)
        want = [_beta_b(t.encode("ascii")).decode("ascii") for t in texts]
        assert _texts_of(_beta_rows(mat)) == want
        assert _texts_of(_beta_rows(mat, _up_and_heights(mat)[1])) == want


def _long_words():
    """(word, is Dyck) of at least _LONG steps; heights of 2^16 and above
    need int32 sort keys."""
    rng = np.random.default_rng(11)
    k = 1 << 15
    return {
        "random-dyck": (_random_dyck_text(k, rng), True),
        "U^k-D^k": ("U" * k + "D" * k, True),
        "U^2k-D^2k": ("U" * (2 * k + 99) + "D" * (2 * k + 99), True),
        "(UD)^k": ("UD" * k, True),
        # five climbs of 16,384 steps, each with a random Dyck word on top
        "tall-interleaved": ("".join("U" * (k // 2) + _random_dyck_text(2048, rng)
                                     for _ in range(5)) + "D" * (5 * k // 2), True),
        "random-balanced": (_random_balanced_text(k, rng), False),
        "negative-factors": (_alternating_factors(600, rng), False),
    }


LONG_WORDS = _long_words()


def _public_beta(text):
    return beta(PathWord(text)).text


@pytest.mark.parametrize("name", LONG_WORDS)
def test_text_maps_equal_the_transducers_on_long_words(name):
    text, dyck = LONG_WORDS[name]
    assert len(text) >= _LONG
    data = text.encode("ascii")
    want = {"phi-ext": _ext_b(data, _phi_b, _beta_b, bytes),
            "psi-ext": _ext_b(data, _psi_b, bytes, _beta_b), "alpha": _alpha_b(data)}
    if dyck:
        want.update({"phi": _phi_b(data), "psi": _psi_b(data), "beta": _beta_b(data)})
        assert _public_beta(text) == want["beta"].decode("ascii")
    for name, image in want.items():
        assert _MAPS[name].text(text) == image.decode("ascii"), name


def _refuse_first_return(data):
    raise AssertionError("beta walked to the first return")


@pytest.mark.parametrize("name", [name for name, (_, dyck) in LONG_WORDS.items() if dyck])
def test_the_beta_text_map_takes_a_long_word_through_its_twin(monkeypatch, name):
    text = LONG_WORDS[name][0]
    want = _beta_b(text.encode("ascii")).decode("ascii")
    monkeypatch.setattr(dyckmaps.maps, "_first_return_len", _refuse_first_return)
    assert _MAPS["beta"].text(text) == want


@pytest.mark.parametrize("name", LONG_WORDS)
def test_crossing_factors_of_long_words_equal_the_loop(monkeypatch, name):
    data = LONG_WORDS[name][0].encode("ascii")
    fast = _crossing_factors(data)
    monkeypatch.setattr(dyckmaps.decompose, "_LONG", len(data) + 1)
    assert fast == _crossing_factors(data)
    if name == "negative-factors":
        assert len(fast) == 600 and fast[0][2] is True


@pytest.mark.parametrize("name", [name for name, (_, dyck) in LONG_WORDS.items() if dyck])
def test_psi_rows_takes_the_heights_of_long_words(name):
    mat = _rows([LONG_WORDS[name][0]])
    assert np.array_equal(_psi_rows(mat, _up_and_heights(mat)[1]), _psi_rows(mat))


@pytest.mark.parametrize("ext", [_phi_ext_rows, _psi_ext_rows])
def test_the_extensions_leave_the_heights_they_are_given(ext):
    """The sweep's chunk check scans the words again with those heights."""
    rng = np.random.default_rng(29)
    matrices = [_rows([_random_dyck_text(20, rng) for _ in range(8)]),
                _rows([_random_balanced_text(20, rng) for _ in range(8)]),
                _rows([LONG_WORDS["random-dyck"][0]]),
                _rows([LONG_WORDS["random-balanced"][0]])]
    for mat in matrices:
        h = _up_and_heights(mat)[1]
        kept = h.copy()
        ext(mat, h)
        assert np.array_equal(h, kept)


@pytest.mark.parametrize("name", LONG_WORDS)
def test_the_scan_of_one_column_equals_that_of_a_wider_matrix(name):
    text = LONG_WORDS[name][0]
    one, two = _scan_rows(_rows([text])), _scan_rows(_rows([text, text]))
    for field, a, b in zip(one._fields, one, two):
        assert a.shape == (1,) and a.dtype == b.dtype, field
        assert a.tolist() == b[:1].tolist(), field


@pytest.mark.parametrize("fn", [_MAPS["phi"].text, _MAPS["psi"].text, _public_beta,
                                _MAPS["beta"].text],
                         ids=["_phi_text", "_psi_text", "_public_beta", "_beta_text"])
def test_long_maps_peak_under_40_bytes_per_step(fn):
    size = 1 << 20
    text = _random_dyck_text(size // 2, np.random.default_rng(5))
    fn(text)  # numpy's one-time set-up is not the map's
    tracemalloc.start()
    try:
        fn(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * size, peak / size


@pytest.mark.parametrize("fn", [_MAPS["phi-ext"].text, _MAPS["psi-ext"].text],
                         ids=["_phi_ext_text", "_psi_ext_text"])
def test_long_ext_maps_peak_under_40_bytes_per_step(fn):
    size = 1 << 20
    text = _random_balanced_text(size // 2, np.random.default_rng(5))
    fn(text)  # numpy's one-time set-up is not the map's
    tracemalloc.start()
    try:
        fn(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * size, peak / size
