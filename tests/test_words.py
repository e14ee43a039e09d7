import ast
import copy
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

import dyckmaps
import oracles
from conftest import balanced_texts
from dyckmaps import (
    InvalidCharacterError,
    PathClass,
    PathWord,
    Step,
    classify,
    height_profile,
    parse_word,
    reflect,
    step_height,
)
from dyckmaps.words import _LONG, _parse_rows, _row_texts, _ups

GOLDEN_TOP = "UUUUDDDUUUUDDUDDDD"


def test_parse_simple():
    w = parse_word("UUDD")
    assert len(w) == 4
    assert w.final_height == 0
    assert w.min_height == 0
    assert w.max_height == 2


def test_parse_empty_is_not_an_error():
    w = parse_word("")
    assert len(w) == 0
    assert w.serialize() == ""
    assert classify(w) is PathClass.EMPTY


def test_parse_invalid_character_reports_position():
    with pytest.raises(InvalidCharacterError) as err:
        parse_word("UXD")
    assert err.value.position == 2
    assert err.value.char == "X"


@pytest.mark.parametrize("text, position, char", [
    ("x", 1, "x"), ("UDU D", 4, " "), ("UUDD\n", 5, "\n"), ("UDUDé", 5, "é"),
    ("U" * 10**6 + "DxD", 10**6 + 2, "x"), ("DU" * 3000 + "UD\0", 6003, "\0"),
    ("UD" * 3000 + "Dé", 6002, "é"), ("DU" * 3000 + "\U0001D54CU", 6001, "\U0001D54C"),
    ("UD" * 3000 + "Uu", 6002, "u"),
], ids=["first", "space", "newline", "non-ascii", "long", "nul", "long-non-ascii",
        "long-astral", "long-lowercase"])
def test_an_invalid_character_is_reported_at_its_first_position(text, position, char):
    with pytest.raises(InvalidCharacterError) as err:
        PathWord(text)
    assert (err.value.position, err.value.char) == (position, char)
    assert str(err.value) == f"invalid character {char!r} at position {position}"


@pytest.mark.parametrize("value, name", [(b"UD", "bytes"), (None, "NoneType"), (5, "int")])
def test_a_word_that_is_not_str_is_a_type_error_naming_its_type(value, name):
    with pytest.raises(TypeError, match=f"not {name}$"):
        PathWord(value)


@pytest.mark.parametrize("size", [_LONG - 1, _LONG, _LONG + 1])
def test_ups_counts_the_us_on_both_sides_of_the_long_threshold(size):
    rng = random.Random(size)
    text = "".join(rng.choice("UD") for _ in range(size))
    assert _ups(text) == text.count("U")
    assert _ups("U" * size) == size and _ups("D" * size) == 0


@pytest.mark.parametrize(
    "alias,canonical",
    [("uudd", "UUDD"), ("(())", "UUDD"), ("Ud()", "UDUD"), ("((", "UU")],
)
def test_parse_alias_alphabets(alias, canonical):
    assert parse_word(alias).serialize() == canonical


@pytest.mark.parametrize("text", ["", "UD" * 3000, "UUDD"])
def test_a_canonical_word_is_parsed_without_the_alias_table(text):
    assert parse_word(text).text is text  # translate would copy it


@pytest.mark.parametrize("alias", ["u", "d", "(", ")"])
@pytest.mark.parametrize("bad", ["x", "é", " "])
def test_an_alias_leaves_the_position_of_an_invalid_character(alias, bad):
    for text in ("UD" * 3000 + bad + "UD", alias + "D" * 4 + bad):
        with pytest.raises(InvalidCharacterError) as plain:
            parse_word(text)
        with pytest.raises(InvalidCharacterError) as aliased:
            parse_word(alias + text[1:])
        assert (plain.value.position, plain.value.char) == (text.index(bad) + 1, bad)
        assert (aliased.value.position, aliased.value.char) == (text.index(bad) + 1, bad)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("UUDD", PathClass.DYCK),
        ("DDUU", PathClass.NEGATIVE_DYCK),
        ("UDDU", PathClass.BILATERAL_PROPER),
        ("UDU", PathClass.NOT_CLOSED),
        ("", PathClass.EMPTY),
    ],
)
def test_classify_examples(text, expected):
    assert classify(parse_word(text)) is expected


def test_classify_matches_oracle_exhaustively():
    for n in range(6):
        for text in oracles.all_balanced(n):
            assert classify(PathWord(text)).value == oracles.classify(text)
    assert classify(PathWord("UUD")).value == "not_closed"
    assert classify(PathWord("DDD")).value == "not_closed"


def test_height_profile_examples():
    assert height_profile(parse_word("UUDD")) == [1, 2, 1, 0]
    assert height_profile(parse_word("DDUU")) == [-1, -2, -1, 0]
    # computed by the prefix-sum oracle
    assert height_profile(parse_word(GOLDEN_TOP)) == oracles.heights(GOLDEN_TOP)
    assert oracles.heights(GOLDEN_TOP) == [
        1, 2, 3, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 4, 3, 2, 1, 0,
    ]


def test_step_height_examples():
    assert step_height(parse_word("UUDD"), 3) == 2
    assert step_height(parse_word("DDUU"), 3) == -1
    assert step_height(parse_word("UD"), 1) == 1
    assert step_height(parse_word("UD"), 2) == 1


def test_step_height_out_of_range():
    w = parse_word("UD")
    with pytest.raises(IndexError):
        step_height(w, 0)
    with pytest.raises(IndexError):
        step_height(w, 3)


def test_step_height_matches_oracle():
    for n in range(5):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            for i in range(1, len(text) + 1):
                assert step_height(w, i) == oracles.step_height(text, i)


def test_step_height_reflection_parity():
    # an up-step at height j reflects to a down-step at height 1 - j
    for text in oracles.all_balanced(4):
        w = PathWord(text)
        r = reflect(w)
        for i in range(1, len(text) + 1):
            assert step_height(r, i) == 1 - step_height(w, i)


def test_word_equality_and_hash_follow_text():
    assert PathWord("UD") == PathWord("UD")
    assert PathWord("UD") != PathWord("DU")
    assert len({PathWord("UD"), PathWord("UD"), PathWord("DU")}) == 2


def test_word_is_immutable():
    w = PathWord("UD")
    with pytest.raises(AttributeError):
        w.text = "DU"


@pytest.mark.parametrize("scanned", [False, True], ids=["fresh", "scanned"])
@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_a_word_pickles_and_copies_from_its_text(how, scanned):
    w = parse_word("UUDDDU")
    if scanned:
        classify(w)
        height_profile(w)
    dup = {"pickle": lambda x: pickle.loads(pickle.dumps(x)),
           "copy": copy.copy, "deepcopy": copy.deepcopy}[how](w)
    assert (dup, hash(dup), dup.text) == (w, hash(w), "UUDDDU")
    assert (dup._scanned, dup._heights) == (None, None)  # rebuilt, no cache carried
    assert classify(dup) is PathClass.BILATERAL_PROPER
    with pytest.raises(AttributeError):
        dup.text = "DU"


def test_step_enum():
    assert [s.char for s in parse_word("UD")] == ["U", "D"]
    assert parse_word("UD")[0] is Step.UP
    assert Step.UP.flipped is Step.DOWN
    assert Step.DOWN.delta == -1


def test_extremes_include_start_vertex():
    w = parse_word("UUUUDD")  # never returns; min must still be 0
    assert w.min_height == 0
    assert w.max_height == 4
    assert w.final_height == 2


@given(balanced_texts(max_n=12))
def test_parse_serialize_round_trip(text):
    w = parse_word(text)
    assert parse_word(w.serialize()) == w
    assert w.serialize() == text


def test_long_word_extremes_match_small_scan():
    text = ("UUDD" * 2000) + "UDDU" + ("DU" * 128)
    w = PathWord(text)
    hs = oracles.heights(text)
    assert w.final_height == hs[-1]
    assert w.min_height == min(0, min(hs))
    assert w.max_height == max(0, max(hs))
    assert height_profile(w) == hs


def test_only_words_spells_out_the_step_bytes():
    # the ASCII codes of U and D live in words; enumeration and the
    # factorizations take them from there, not from the bijections module
    for path in sorted(Path(dyckmaps.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.stem != "words":
            assert not [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and type(node.value) is int
                        and node.value in (85, 68)], path.name
        if path.stem in ("generate", "decompose"):
            assert not [node.lineno for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and node.module in ("maps", "dyckmaps.maps")], path.name


@pytest.mark.parametrize("bad, at", [
    (None, 6), ("UXDD", 0), ("UD.D", 2), ("UD\u00e9D", 2), ("UD\rD", 4), ("[]()", 5),
], ids=["none", "first", "middle", "non-ascii", "carriage-return", "last"])
def test_parse_rows_holds_the_texts_before_the_first_that_does_not_parse(bad, at):
    texts = ["UUDD", "uudd", "(())", "uU)D", "DdUu", "U(D)"]  # the aliases mixed in one run
    if bad is not None:
        texts[at] = bad
        with pytest.raises(InvalidCharacterError):
            parse_word(bad)
    mat = _parse_rows(texts)
    assert mat.dtype == np.uint8 and mat.flags.c_contiguous and mat.shape == (4, at)
    assert _row_texts(mat) == [parse_word(text).text for text in texts[:at]]
