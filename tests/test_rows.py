"""The matrix fast path of the sweeps against the per-word code it stands for:
the chunked enumerator, the six matrix maps and the row scan, row by row."""

import json
from functools import lru_cache

import numpy as np
import pytest

from dyckmaps.generate import _block_rows, _prefix_blocks, _texts
from dyckmaps.maps import (
    _alpha_rows,
    _alpha_text,
    _beta_rows,
    _beta_text,
    _phi_ext_rows,
    _phi_ext_text,
    _phi_rows,
    _phi_text,
    _psi_ext_rows,
    _psi_ext_text,
    _psi_rows,
    _psi_text,
)
from dyckmaps.stats import _scan_rows, _scan_text, _stat_record_text, _stat_records_rows

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
    """(matrix of the whole class from 1,024-row blocks, its words per word)."""
    dyck = path_class == "dyck"
    blocks = [_block_rows(n, dyck, b) for b in _prefix_blocks(n, dyck, 1024)]
    return np.concatenate(blocks), list(_texts(n, dyck))


def _texts_of(mat):
    return [row.tobytes().decode("ascii") for row in mat]


@pytest.mark.parametrize("path_class, n", CASES)
def test_blocks_enumerate_the_class_in_order(path_class, n):
    mat, texts = _class(path_class, n)
    assert mat.dtype == np.uint8 and mat.shape == (len(texts), 2 * n)
    assert _texts_of(mat) == texts


@pytest.mark.parametrize("rows", [1, 2, 7, 100, 1024])
@pytest.mark.parametrize("path_class, n", [("dyck", 10), ("bilateral", 8), ("dyck", 0)])
def test_every_block_holds_at_most_the_chunk(path_class, n, rows):
    dyck = path_class == "dyck"
    sizes = [len(_block_rows(n, dyck, b)) for b in _prefix_blocks(n, dyck, rows)]
    assert max(sizes) <= rows
    assert sum(sizes) == len(_class(path_class, n)[1])
    if rows >= 4:  # all but the last block are more than 3/4 full
        assert min(sizes[:-1], default=rows) > 3 * rows / 4


@pytest.mark.parametrize("path_class, n", CASES)
def test_matrix_maps_equal_the_word_maps(path_class, n):
    mat, texts = _class(path_class, n)
    for rows_fn, text_fn in MAPS[path_class]:
        image = rows_fn(mat)
        assert image.dtype == np.uint8 and image.shape == mat.shape
        assert _texts_of(image) == [text_fn(t) for t in texts], rows_fn.__name__


@pytest.mark.parametrize("path_class, n", CASES)
def test_row_scan_equals_the_word_scan_in_every_field(path_class, n):
    mat, texts = _class(path_class, n)
    scan = _scan_rows(mat)
    want = [_scan_text(t) for t in texts]
    for i, field in enumerate(scan._fields):
        assert scan[i].tolist() == [s[i] for s in want], field


@pytest.mark.parametrize("path_class, n", CASES)
def test_row_records_equal_the_word_records(path_class, n):
    mat, texts = _class(path_class, n)
    # as JSON, so that a numpy int or an int for a bool shows
    got = [json.dumps(r.to_dict()) for r in _stat_records_rows(mat)]
    assert got == [json.dumps(_stat_record_text(t).to_dict()) for t in texts]
