import time

import pytest

import oracles
from dyckmaps import DyckError, NotBilateralError, parse_word, render_ascii, sample_bilateral


def test_render_single_peak():
    assert render_ascii(parse_word("UD")) == "/\\\n--"


def test_render_two_level_hill():
    assert render_ascii(parse_word("UUDD")) == " /\\\n/  \\\n----"


def test_render_crossing_word():
    # one row above the axis, the axis rule, one row below
    assert render_ascii(parse_word("UDDU")) == "/\\\n----\n  \\/"


def test_render_negative_word():
    assert render_ascii(parse_word("DU")) == "--\n\\/"


def test_render_empty():
    assert render_ascii(parse_word("")) == ""


def test_render_block_height():
    w = parse_word("UUDDUDDUUD")
    block = render_ascii(w)
    rows = block.splitlines()
    glyph_rows = [r for r in rows if set(r) - {"-"}]
    assert len(glyph_rows) == w.max_height - w.min_height
    axis_rows = [r for r in rows if r and not (set(r) - {"-"})]
    assert axis_rows == ["-" * len(w)]
    # one glyph per step overall
    assert sum(r.count("/") + r.count("\\") for r in rows) == len(w)


def test_render_rejects_open_words():
    with pytest.raises(NotBilateralError):
        render_ascii(parse_word("UUD"))


def test_render_refuses_oversized_blocks_quickly():
    w = parse_word("U" * 20000 + "D" * 20000)  # 40000 steps x 20000 rows
    start = time.perf_counter()
    with pytest.raises(DyckError, match="800000000 cells.*cap of 10000000"):
        render_ascii(w)
    assert time.perf_counter() - start < 0.5


def test_render_cap_admits_the_largest_measured_hill():
    k = 2000  # 4000 steps x 2000 rows = 8 * 10^6 cells, under the cap
    rows = render_ascii(parse_word("U" * k + "D" * k)).splitlines()
    assert len(rows) == k + 1 and rows[-1] == "-" * (2 * k)


@pytest.mark.parametrize("n", range(9))
def test_render_equals_the_band_by_band_oracle_on_every_balanced_word(n):
    for text in oracles.all_balanced(n):
        assert render_ascii(parse_word(text)) == oracles.render(text), text


@pytest.mark.parametrize("seed", range(5))
def test_render_equals_the_band_by_band_oracle_on_long_words(seed):
    text = sample_bilateral(2000, seed).text
    if seed == 4:  # a hill and a valley, each the word's whole height
        text = "U" * 700 + "D" * 1400 + "U" * 700
    assert render_ascii(parse_word(text)) == oracles.render(text)
