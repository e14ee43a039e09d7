"""The matrix fast path of the sweeps against the per-word code it stands for:
the chunked enumerator, the six matrix maps and the row scan, word by word;
phi's rank core on one-word columns and on matrices past the uint16 sort
keys, and psi's rank core of long words, against the stack transducers."""

import json
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

import dyckmaps.decompose
import dyckmaps.maps
import oracles
from dyckmaps.decompose import _crossing_factors
from dyckmaps.generate import (
    _random_balanced_text,
    _random_dyck_text,
    _rank_blocks,
    _rank_rows,
)
from dyckmaps.maps import (
    _alpha_rows,
    _alpha_text,
    _beta_psi_b,
    _beta_rows,
    _beta_text,
    _ext_b,
    _ext_factors,
    _phi_b,
    _phi_beta_b,
    _phi_ext_rows,
    _phi_ext_text,
    _phi_rows,
    _phi_text,
    _psi_b,
    _psi_ext_rows,
    _psi_ext_text,
    _psi_rank,
    _psi_rows,
    _psi_text,
)
from dyckmaps.verify import _CHUNK
from dyckmaps.stats import _stat_records_rows, stat_record
from dyckmaps.words import _LONG, PathWord, _rows, _scan_rows, _scan_text, _up_and_heights

# every Dyck word with n <= 10 and every balanced word with n <= 8
CASES = [("dyck", n) for n in range(11)] + [("bilateral", n) for n in range(9)]
MAPS = {
    "dyck": [(_phi_rows, _phi_text), (_psi_rows, _psi_text),
             (_beta_rows, _beta_text), (_alpha_rows, _alpha_text)],
    "bilateral": [(_phi_ext_rows, _phi_ext_text), (_psi_ext_rows, _psi_ext_text),
                  (_alpha_rows, _alpha_text)],
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
        for image in [mat] + [rows_fn(mat) for rows_fn, _ in MAPS[path_class]]:
            assert image.dtype == np.uint8 and image.flags.c_contiguous
            assert image.shape == (2 * n, block[3] - block[2])


@pytest.mark.parametrize("path_class, n", CASES)
def test_matrix_maps_equal_the_word_maps(path_class, n):
    mat, texts = _class(path_class, n)
    h = _up_and_heights(mat)[1]
    for rows_fn, text_fn in MAPS[path_class]:
        image = rows_fn(mat)
        assert image.dtype == np.uint8 and image.shape == mat.shape
        assert _texts_of(image) == [text_fn(t) for t in texts], rows_fn.__name__
        assert np.array_equal(rows_fn(mat, h), image), rows_fn.__name__  # heights given


@pytest.mark.parametrize("n", range(10))
def test_ext_twins_on_a_shared_factor_structure_equal_their_own(n):
    for block in _rank_blocks(n, False, _CHUNK):
        mat = _rank_rows(*block)
        h = _up_and_heights(mat)[1]
        factors = _ext_factors(mat, h)
        assert np.array_equal(_phi_ext_rows(mat, h, factors), _phi_ext_rows(mat))
        assert np.array_equal(_psi_ext_rows(mat, h, factors), _psi_ext_rows(mat))


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
    # as JSON, so that a numpy int or an int for a bool shows
    got = [json.dumps(r.to_dict()) for r in _stat_records_rows(mat)]
    assert got == [json.dumps(stat_record(PathWord(t)).to_dict()) for t in texts]


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


@pytest.mark.parametrize("n", range(1, 9))
def test_the_long_ext_path_equals_the_factor_loop_on_every_balanced_word(monkeypatch, n):
    monkeypatch.setattr(dyckmaps.maps, "_LONG", 1)  # every word takes the long path
    for text in _class("bilateral", n)[1]:
        data = text.encode("ascii")
        assert _phi_ext_text(text) == _ext_b(data, _phi_b, _phi_beta_b).decode("ascii"), text
        assert _psi_ext_text(text) == _ext_b(data, _psi_b, _beta_psi_b).decode("ascii"), text


def _alternating_factors(count, rng):
    """A balanced word of ``count`` crossing factors, the first negative."""
    flip = str.maketrans("UD", "DU")
    factors = [_random_dyck_text(int(rng.integers(1, 40)), rng) for _ in range(count)]
    return "".join(f.translate(flip) if i % 2 == 0 else f for i, f in enumerate(factors))


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


@pytest.mark.parametrize("name", LONG_WORDS)
def test_text_maps_equal_the_transducers_on_long_words(name):
    text, dyck = LONG_WORDS[name]
    assert len(text) >= _LONG
    data = text.encode("ascii")
    want = {_phi_ext_text: _ext_b(data, _phi_b, _phi_beta_b),
            _psi_ext_text: _ext_b(data, _psi_b, _beta_psi_b)}
    if dyck:
        want.update({_phi_text: _phi_b(data), _psi_text: _psi_b(data)})
    for fn, image in want.items():
        assert fn(text) == image.decode("ascii"), fn.__name__


@pytest.mark.parametrize("name", LONG_WORDS)
def test_crossing_factors_of_long_words_equal_the_loop(monkeypatch, name):
    data = LONG_WORDS[name][0].encode("ascii")
    fast = _crossing_factors(data)
    monkeypatch.setattr(dyckmaps.decompose, "_LONG", len(data) + 1)
    assert fast == _crossing_factors(data)
    if name == "negative-factors":
        assert len(fast) == 600 and fast[0][2] is True


@pytest.mark.parametrize("fn", [_phi_ext_text, _psi_ext_text])
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
