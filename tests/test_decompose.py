import pytest
from hypothesis import given

import oracles
from conftest import balanced_texts, dyck_texts
from dyckmaps import (
    EmptyWordError,
    NotADyckWordError,
    NotBilateralError,
    PathWord,
    crossing_factorize,
    first_return_split,
    parse_word,
    phi_bracketing,
    phi_parse,
    psi_bracketing,
    psi_parse,
)
from dyckmaps.words import PathClass, classify

GOLDEN_TOP = "UUUUDDDUUUUDDUDDDD"
GOLDEN_BOTTOM = "UUUDDUUUDUUDDDUDDD"


def _texts(words):
    return [w.text for w in words]


# --- first return ----------------------------------------------------------

def test_first_return_split_examples():
    assert _texts(first_return_split(parse_word("UDUD"))) == ["UD", "UD"]
    assert _texts(first_return_split(parse_word("UUDD"))) == ["UUDD", ""]
    assert _texts(first_return_split(parse_word("UUDDUD"))) == ["UUDD", "UD"]


def test_first_return_split_errors():
    with pytest.raises(EmptyWordError):
        first_return_split(parse_word(""))
    with pytest.raises(NotADyckWordError):
        first_return_split(parse_word("UDDU"))


def test_first_return_head_is_prime():
    for n in range(1, 8):
        for text in oracles.all_dyck(n):
            head, rest = first_return_split(PathWord(text))
            assert head.text + rest.text == text
            assert oracles.contacts(head.text) == 1
            assert oracles.classify(rest.text) in ("empty", "dyck")


# --- block parse (forward map) ----------------------------------------------

def test_phi_parse_examples():
    dec = phi_parse(parse_word("UUDDUD"))
    assert (_texts(dec.inner), dec.tail.text, dec.s) == ([""], "UD", 1)

    dec = phi_parse(parse_word("UD"))
    assert (dec.s, dec.inner, dec.tail.text) == (0, (), "")
    assert dec.recompose().text == "UD"

    dec = phi_parse(parse_word(GOLDEN_TOP))
    assert _texts(dec.inner) == ["UUDD", "UUUDDUDD"]
    assert dec.tail.text == ""
    assert dec.s == 2


def test_phi_parse_round_trip_exhaustive():
    for n in range(1, 7):
        for text in oracles.all_dyck(n):
            dec = phi_parse(PathWord(text))
            assert dec.recompose().text == text
            for sub in dec.inner:
                assert classify(sub) in (PathClass.EMPTY, PathClass.DYCK)
            assert classify(dec.tail) in (PathClass.EMPTY, PathClass.DYCK)


def test_parse_recompositions_to_n10():
    from dyckmaps.generate import _dyck_texts

    for n in range(1, 11):
        for text in _dyck_texts(n):
            w = PathWord(text)
            assert phi_parse(w).recompose().text == text
            assert psi_parse(w).recompose().text == text


def test_phi_parse_s_counts_downsteps_at_height_two_before_first_contact():
    from dyckmaps.generate import _dyck_texts

    for n in range(1, 11):
        for text in _dyck_texts(n):
            dec = phi_parse(PathWord(text))
            hs = [0] + oracles.heights(text)
            first_contact = next(
                i for i, ch in enumerate(text, 1)
                if ch == "D" and max(hs[i - 1], hs[i]) == 1
                or ch == "U" and max(hs[i - 1], hs[i]) == 0
            )
            downs_at_2 = sum(
                1
                for i in range(1, first_contact)
                if text[i - 1] == "D" and max(hs[i - 1], hs[i]) == 2
            )
            assert dec.s == downs_at_2


# --- spine parse (inverse map) ----------------------------------------------

def test_psi_parse_examples():
    dec = psi_parse(parse_word(GOLDEN_BOTTOM))
    assert _texts(dec.inner) == ["UUDD", "UUDUUDDD"]
    assert (dec.s, dec.tail.text) == (2, "")

    dec = psi_parse(parse_word("UDUD"))
    assert (dec.s, dec.inner, dec.tail.text) == (0, (), "UD")

    dec = psi_parse(parse_word("UUDDUD"))
    assert (_texts(dec.inner), dec.tail.text) == ([""], "UD")


def test_psi_parse_round_trip_exhaustive():
    for n in range(1, 7):
        for text in oracles.all_dyck(n):
            dec = psi_parse(PathWord(text))
            assert dec.recompose().text == text
            for sub in dec.inner:
                assert classify(sub) in (PathClass.EMPTY, PathClass.DYCK)


def test_psi_parse_anchor_is_rightmost_peak_of_prime_prefix():
    from dyckmaps.generate import _dyck_texts

    for n in range(1, 11):
        for text in _dyck_texts(n):
            dec = psi_parse(PathWord(text))
            head, _ = oracles.first_return(text)
            peak_heights = [
                oracles.step_height(head, i)
                for i in range(1, len(head))
                if head[i - 1] == "U" and head[i] == "D"
            ]
            assert dec.s + 1 == peak_heights[-1]


def _dyck_tuples(total, parts):
    """All tuples of `parts` Dyck words with semilengths summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first_n in range(total + 1):
        for first in oracles.all_dyck(first_n):
            for rest in _dyck_tuples(total - first_n, parts - 1):
                yield (first,) + rest


@pytest.mark.parametrize("n", range(1, 6))
def test_parses_are_unique_over_synthetic_components(n):
    # every synthetically recomposed decomposition parses back to itself
    from dyckmaps.decompose import PhiDecomposition, PsiDecomposition

    for s in range(n):
        budget = n - 1 - s  # outer pair plus one step pair per block
        for parts in _dyck_tuples(budget, s + 1):
            inner = tuple(PathWord(t) for t in parts[:-1])
            tail = PathWord(parts[-1])
            built = PhiDecomposition(inner, tail)
            word = built.recompose()
            assert phi_parse(word) == built
            built = PsiDecomposition(inner, tail)
            word = built.recompose()
            assert psi_parse(word) == built


# --- crossing factorization --------------------------------------------------

def test_crossing_factorize_examples():
    assert _texts(crossing_factorize(parse_word("UDDU")).factors) == ["UD", "DU"]
    assert _texts(crossing_factorize(parse_word("UUDD")).factors) == ["UUDD"]
    assert _texts(crossing_factorize(parse_word("DUDUUD")).factors) == ["DUDU", "UD"]
    assert crossing_factorize(parse_word("")).factors == ()


def test_crossing_factorize_rejects_open_words():
    with pytest.raises(NotBilateralError):
        crossing_factorize(parse_word("UUD"))


def test_crossing_factorize_structure_exhaustive():
    for n in range(7):
        for text in oracles.all_balanced(n):
            fact = crossing_factorize(PathWord(text))
            assert fact.recompose().text == text
            assert fact.crossings == oracles.crossings(text)
            classes = [oracles.classify(f.text) for f in fact.factors]
            assert all(c in ("dyck", "negative_dyck") for c in classes)
            for a, b in zip(classes, classes[1:]):
                assert a != b
            assert fact.factors == tuple(
                PathWord(t) for t in oracles.crossing_factors(text)
            )


@given(balanced_texts(max_n=30))
def test_crossing_factorize_round_trip(text):
    fact = crossing_factorize(PathWord(text))
    assert fact.recompose().text == text
    assert len(fact.factors) == (oracles.crossings(text) + 1 if text else 0)


# --- bracketing ---------------------------------------------------------------

def test_phi_bracketing_golden():
    assert phi_bracketing(parse_word(GOLDEN_TOP)) == (
        "UU(UU()DD)DU(UU(UD)DU()DD)DD"
    )


def test_psi_bracketing_golden():
    assert psi_bracketing(parse_word(GOLDEN_BOTTOM)) == (
        "U(U()UDD)U(U(UD)U()UDDD)UDDD"
    )


def test_phi_bracketing_matches_recursive_rendering_exhaustively():
    for n in range(10):
        for text in oracles.all_dyck(n):
            assert phi_bracketing(PathWord(text)) == oracles.phi_bracketing(text)


def test_bracketing_small_cases():
    assert phi_bracketing(parse_word("")) == ""
    assert psi_bracketing(parse_word("")) == ""
    assert phi_bracketing(parse_word("UD")) == "UD"
    assert psi_bracketing(parse_word("UD")) == "UD"
    assert phi_bracketing(parse_word("UUDD")) == "UU()DD"
    assert psi_bracketing(parse_word("UUDD")) == "U()UDD"


@given(dyck_texts(max_n=10))
def test_bracketing_strips_back_to_word(text):
    w = PathWord(text)
    assert phi_bracketing(w).replace("(", "").replace(")", "") == text
    assert psi_bracketing(w).replace("(", "").replace(")", "") == text
