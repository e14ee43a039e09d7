import math
import random
from functools import lru_cache
from itertools import accumulate, product

import pytest
from hypothesis import given

import dyckmaps.words
import oracles
from conftest import balanced_texts
from dyckmaps import (
    NotBilateralError,
    PathWord,
    alpha,
    classify,
    contacts,
    crossing_factorize,
    crossings,
    downs_at_even_height,
    downs_at_odd_height,
    height_profile,
    narayana,
    parse_word,
    peaks,
    phi_ext,
    psi_ext,
    semilength,
    stat_record,
    ups_at_even_height,
    ups_at_odd_height,
    valleys,
)
from dyckmaps.words import require_closed

GOLDEN_TOP = "UUUUDDDUUUUDDUDDDD"
GOLDEN_BOTTOM = "UUUDDUUUDUUDDDUDDD"


def test_semilength():
    assert semilength(parse_word("UUDD")) == 2
    assert semilength(parse_word("")) == 0
    assert semilength(parse_word(GOLDEN_TOP)) == 9


def test_semilength_rejects_open_words():
    with pytest.raises(NotBilateralError):
        semilength(parse_word("UDU"))


def test_peaks_examples():
    assert peaks(parse_word(GOLDEN_BOTTOM)) == 4
    assert peaks(parse_word("DDUU")) == 0
    assert peaks(parse_word("DUDU")) == 1  # peak at height 0 counts


def test_valleys_examples():
    assert valleys(parse_word("UDUD")) == 1
    assert valleys(parse_word("UUDD")) == 0
    assert valleys(parse_word("DDUU")) == 1


def test_contacts_examples():
    assert contacts(parse_word(GOLDEN_TOP)) == 1
    assert contacts(parse_word("UDUD")) == 2
    assert contacts(parse_word("DU")) == 1


def test_crossings_examples():
    assert crossings(parse_word("UDDU")) == 1
    assert crossings(parse_word("UUDD")) == 0
    assert crossings(parse_word("UDDUUD")) == 2


def test_parity_counts_examples():
    assert ups_at_odd_height(parse_word(GOLDEN_TOP)) == 4
    assert ups_at_odd_height(parse_word("DUDU")) == 0
    assert ups_at_odd_height(parse_word("DDUU")) == 1  # the up-step at height -1


def test_all_stats_match_oracle_exhaustively():
    for n in range(6):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            assert peaks(w) == oracles.peaks(text)
            assert valleys(w) == oracles.valleys(text)
            assert contacts(w) == oracles.contacts(text)
            assert crossings(w) == oracles.crossings(text)
            assert ups_at_odd_height(w) == oracles.ups_odd(text)
            assert ups_at_even_height(w) == oracles.ups_even(text)
            assert downs_at_odd_height(w) == oracles.downs_odd(text)
            assert downs_at_even_height(w) == oracles.downs_even(text)


def test_scans_of_open_words_match_oracles_exhaustively():
    # the parity counts read a step's height parity from its position, which
    # must hold on words that do not end on the axis too
    for length in range(11):
        for steps in product("UD", repeat=length):
            text = "".join(steps)
            hs = [0] + oracles.heights(text)
            want = dyckmaps.words._Scan(
                hs[-1],
                min(hs),
                max(hs),
                oracles.peaks(text),
                oracles.valleys(text),
                oracles.contacts(text),
                oracles.crossings(text),
                text.count("U"),
                oracles.ups_odd(text),
                oracles.downs_odd(text),
            )
            assert dyckmaps.words._scan_text(text) == want
            rows = dyckmaps.words._scan_rows(dyckmaps.words._rows([text]))
            assert tuple(int(field[0]) for field in rows) == want


def test_stat_record_examples():
    rec = stat_record(parse_word("UD"))
    assert rec.n == 1
    assert rec.peaks == 1
    assert rec.contacts == 1
    assert rec.ups_odd == 1
    assert rec.crossings == 0
    assert rec.is_prime is True

    empty = stat_record(parse_word(""))
    assert empty == type(empty)(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, False)

    bottom = stat_record(parse_word(GOLDEN_BOTTOM))
    assert (bottom.n, bottom.peaks, bottom.contacts) == (9, 4, 1)


def test_stat_record_rejects_open_words():
    with pytest.raises(NotBilateralError):
        stat_record(parse_word("UUD"))


@pytest.mark.parametrize(
    "text", ["", "UDDU", GOLDEN_TOP, "UD" * 3000], ids=["empty", "short", "golden", "long"]
)
def test_stat_record_scans_a_fresh_word_once(monkeypatch, text):
    calls = _spy_scans(monkeypatch)
    stat_record(parse_word(text))
    assert calls == [text]


def _spy_scans(monkeypatch) -> list:
    """The texts that ``words._scan_text`` is called on from now on."""
    calls = []
    original = dyckmaps.words._scan_text
    monkeypatch.setattr(dyckmaps.words, "_scan_text", lambda t: calls.append(t) or original(t))
    return calls


_LONG = dyckmaps.words._LONG
_FRESH = {
    "balanced-12": "UDDUUDDDUUUD",
    "open-12": "UU" + "DU" * 5,
    "balanced-long": "UUDDDUUD" * (_LONG // 8),
    "open-long": "DD" + "UD" * (_LONG // 2 - 1),
}


@pytest.mark.parametrize("text", _FRESH.values(), ids=_FRESH)
def test_every_reader_shares_one_scan_and_closure_checks_take_none(monkeypatch, text):
    calls = _spy_scans(monkeypatch)
    closed = 2 * text.count("U") == len(text)
    for op in (require_closed, alpha, phi_ext, psi_ext, crossing_factorize, semilength):
        w = parse_word(text)
        if closed:
            op(w)
        else:
            with pytest.raises(NotBilateralError):
                op(w)
    assert calls == []
    w = parse_word(text)
    classify(w)
    hs = [0, *accumulate(1 if ch == "U" else -1 for ch in text)]
    assert (w.final_height, w.min_height, w.max_height) == (hs[-1], min(hs), max(hs))
    for stat in (contacts, crossings, ups_at_odd_height, ups_at_even_height,
                 downs_at_odd_height, downs_at_even_height):
        stat(w)
    if closed:
        stat_record(w)
    else:
        with pytest.raises(NotBilateralError):
            stat_record(w)
    assert calls == [text]


def test_stat_record_consistent_with_parts():
    for n in range(6):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            rec = stat_record(w)
            assert rec.n == n
            assert rec.peaks == peaks(w)
            assert rec.valleys == valleys(w)
            assert rec.contacts == contacts(w)
            assert rec.crossings == crossings(w)
            assert rec.ups_odd == ups_at_odd_height(w)
            assert rec.ups_even == ups_at_even_height(w)
            assert rec.downs_odd == downs_at_odd_height(w)
            assert rec.downs_even == downs_at_even_height(w)
            assert rec.max_height == w.max_height
            assert rec.min_height == w.min_height
            assert rec.is_prime == (
                oracles.classify(text) == "dyck" and rec.contacts == 1
            )


def test_stat_record_serialization():
    rec = stat_record(parse_word("UD"))
    assert rec.to_text() == (
        "n:1 peaks:1 valleys:0 contacts:1 crossings:0 ups_odd:1 ups_even:0 "
        "downs_odd:1 downs_even:0 max_height:1 min_height:0 is_prime:true"
    )
    assert rec.to_dict()["is_prime"] is True


@given(balanced_texts(max_n=10))
def test_stat_invariants(text):
    w = PathWord(text)
    rec = stat_record(w)
    n = len(text) // 2
    assert rec.ups_odd + rec.ups_even == n
    assert rec.downs_odd + rec.downs_even == n
    assert rec.peaks - rec.valleys in (-1, 0, 1)
    assert rec.contacts >= rec.crossings
    if oracles.classify(text) == "dyck":
        assert rec.peaks == rec.valleys + 1
        assert rec.contacts >= 1


def test_long_words_use_same_definitions(monkeypatch):
    # cached heights keep the oracles' definitions and make 8192 steps affordable
    monkeypatch.setattr(oracles, "heights", lru_cache(maxsize=None)(oracles.heights))
    base = "UUDDUDDUUDUDDDUU"  # balanced, dips below axis
    text = base * 512  # above the vectorised-scan threshold
    w = PathWord(text)
    assert peaks(w) == oracles.peaks(text)
    assert valleys(w) == oracles.valleys(text)
    assert contacts(w) == oracles.contacts(text)
    assert crossings(w) == oracles.crossings(text)
    assert ups_at_odd_height(w) == oracles.ups_odd(text)
    assert downs_at_odd_height(w) == oracles.downs_odd(text)


# words whose counts pass 2^16 (a uint16 count wraps) or whose heights pass
# 2^15 (an int16 count wraps), with their scans in closed form
_WIDE_SCANS = {
    "(UD)^70000": ("UD" * 70_000, dyckmaps.words._Scan(
        final=0, lo=0, hi=1, peaks=70_000, valleys=69_999, contacts=70_000,
        crossings=0, ups=70_000, ups_odd=70_000, downs_odd=70_000)),
    "U^40000 D^40000": ("U" * 40_000 + "D" * 40_000, dyckmaps.words._Scan(
        final=0, lo=0, hi=40_000, peaks=1, valleys=0, contacts=1,
        crossings=0, ups=40_000, ups_odd=20_000, downs_odd=20_000)),
}


@pytest.mark.parametrize("name", _WIDE_SCANS)
def test_scan_counts_of_long_words_do_not_wrap(name):
    text, want = _WIDE_SCANS[name]
    scan = dyckmaps.words._scan_rows(dyckmaps.words._rows([text]))
    assert [field.tolist() for field in scan] == [[value] for value in want]
    assert dyckmaps.words._scan_text(text) == want
    size = len(text)
    assert stat_record(PathWord(text)) == (
        size // 2, want.peaks, want.valleys, want.contacts, want.crossings,
        want.ups_odd, want.ups - want.ups_odd, want.downs_odd,
        size - want.ups - want.downs_odd, want.hi, want.lo, want.contacts == 1,
    )


def _threshold_word(length, closed):
    """A seeded open word of ``length`` steps that starts with D, or a closed
    one of the largest even length not above ``length``."""
    rng = random.Random(length)
    if closed:
        steps = list("U" * (length // 2) + "D" * (length // 2))
        rng.shuffle(steps)
        return "".join(steps)
    return "D" + "".join(rng.choice("UD") for _ in range(length - 1))


@pytest.mark.parametrize("closed", [False, True], ids=["open", "closed"])
@pytest.mark.parametrize("length", [4095, 4096, 4097])
def test_scans_at_the_numpy_threshold_match_oracles(monkeypatch, length, closed):
    assert dyckmaps.words._LONG == 4096  # both scan paths meet here
    # the oracles rebuild the height list on every step query; caching it
    # keeps their definitions and makes 4096-step words affordable
    monkeypatch.setattr(oracles, "heights", lru_cache(maxsize=None)(oracles.heights))
    text = _threshold_word(length, closed)
    hs = oracles.heights(text)
    w = PathWord(text)
    assert (w.final_height, w.min_height, w.max_height) == (
        hs[-1], min(0, min(hs)), max(0, max(hs))
    )
    assert height_profile(w) == hs
    assert dyckmaps.words._scan_text(text) == (
        hs[-1],
        min(0, min(hs)),
        max(0, max(hs)),
        oracles.peaks(text),
        oracles.valleys(text),
        oracles.contacts(text),
        oracles.crossings(text),
        oracles.ups_odd(text) + oracles.ups_even(text),
        oracles.ups_odd(text),
        oracles.downs_odd(text),
    )


def test_narayana_values():
    assert narayana(1, 1) == 1
    assert narayana(3, 2) == 3
    assert narayana(5, 3) == 20
    assert [narayana(5, k) for k in range(1, 6)] == [1, 10, 20, 10, 1]
    assert narayana(4, 0) == 0
    assert narayana(4, 5) == 0


def test_narayana_requires_positive_n():
    with pytest.raises(ValueError):
        narayana(0, 1)


def test_narayana_matches_brute_force_peak_counts():
    for n in range(1, 7):
        by_peaks = {}
        for text in oracles.all_dyck(n):
            by_peaks[oracles.peaks(text)] = by_peaks.get(oracles.peaks(text), 0) + 1
        assert by_peaks == {k: narayana(n, k) for k in range(1, n + 1) if narayana(n, k)}


def test_narayana_rows_sum_to_catalan():
    for n in range(1, 13):
        assert sum(narayana(n, k) for k in range(1, n + 1)) == oracles.catalan(n)


def test_narayana_exact_at_large_n():
    # stays exact well past any fixed-width integer
    assert narayana(40, 20) == (
        math.comb(40, 20) * math.comb(40, 19) // 40
    )
