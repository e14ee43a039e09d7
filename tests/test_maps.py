import pytest
from hypothesis import given, settings

import dyckmaps
import dyckmaps.maps
import dyckmaps.words
import oracles
from conftest import balanced_texts, dyck_texts
from dyckmaps import (
    DyckError,
    NotADyckWordError,
    NotBilateralError,
    PathWord,
    alpha,
    beta,
    contacts,
    crossing_factorize,
    crossings,
    parse_word,
    peaks,
    phi,
    phi_ext,
    phi_stages,
    psi,
    psi_ext,
    psi_stages,
    semilength,
    ups_at_even_height,
    ups_at_odd_height,
    valleys,
)
from dyckmaps.maps import _MAPS

GOLDEN_TOP = "UUUUDDDUUUUDDUDDDD"
GOLDEN_BOTTOM = "UUUDDUUUDUUDDDUDDD"


# --- the Dyck bijection -------------------------------------------------------

def test_phi_golden_example():
    assert phi(parse_word(GOLDEN_TOP)).text == GOLDEN_BOTTOM


def test_psi_golden_example():
    assert psi(parse_word(GOLDEN_BOTTOM)).text == GOLDEN_TOP


def test_phi_base_and_small_cases():
    assert phi(parse_word("")).text == ""
    assert psi(parse_word("")).text == ""
    assert phi(parse_word("UUDUDD")).text == "UUUDDD"
    assert psi(parse_word("UUUDDD")).text == "UUDUDD"
    assert phi(parse_word("UUDDUD")).text == "UUDDUD"  # a fixed point


def test_phi_psi_reject_non_dyck():
    for bad in ("UDDU", "DDUU", "UUD"):
        with pytest.raises(NotADyckWordError):
            phi(parse_word(bad))
        with pytest.raises(NotADyckWordError):
            psi(parse_word(bad))


def _count_height_scans(monkeypatch):
    calls = []
    real = dyckmaps.words._up_and_heights
    for module in (dyckmaps.words, dyckmaps.maps):
        monkeypatch.setattr(module, "_up_and_heights", lambda mat: calls.append(1) or real(mat))
    return calls


@pytest.mark.parametrize("op, oracle", [(phi, oracles.phi), (psi, oracles.psi),
                                        (beta, oracles.beta)])
@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "scanned"])
def test_a_long_dyck_word_is_scanned_once(monkeypatch, op, oracle, cached):
    word = PathWord("UUDUDD" * 1000)
    if cached:
        word.min_height
    calls = _count_height_scans(monkeypatch)
    # phi and psi go prime by prime, and UUDUDD is prime; beta's oracle does not recurse
    want = oracle(word.text) if op is beta else oracle("UUDUDD") * 1000
    assert op(word).text == want
    assert len(calls) == 1


@pytest.mark.parametrize("op", [phi, psi, beta])
@pytest.mark.parametrize("text, reason", [
    ("UD" * 3000 + "DU", "vertex below axis at step 6001"),
    ("D" + "UD" * 3000 + "U", "vertex below axis at step 1"),
    ("UD" * 3000 + "UU", "path ends at height 2 instead of 0"),
    ("U" * 3001 + "D" * 3000, "path ends at height 1 instead of 0"),
], ids=["dips", "starts-below", "open", "open-above"])
@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "scanned"])
def test_long_non_dyck_words_are_refused_with_their_reason(op, text, reason, cached):
    word = PathWord(text)
    if cached:
        word.min_height
    with pytest.raises(NotADyckWordError) as info:
        op(word)
    assert str(info.value) == f"not a Dyck word: {reason}"


def _refuse_require_closed(w):
    raise AssertionError("require_closed ran")


@pytest.mark.parametrize("op, name", [(alpha, "alpha"), (phi_ext, "phi-ext"),
                                      (psi_ext, "psi-ext")], ids=["alpha", "phi_ext", "psi_ext"])
def test_a_long_balanced_word_is_checked_on_the_twins_matrix(monkeypatch, op, name):
    text = dyckmaps.sample_bilateral(3000, 7).text
    want = _MAPS[name].word(text.encode("ascii")).decode("ascii")
    monkeypatch.setattr(dyckmaps.maps, "require_closed", _refuse_require_closed)
    assert op(PathWord(text)).text == want


def test_phi_matches_recursive_transcription_exhaustively():
    for n in range(10):
        for text in oracles.all_dyck(n):
            assert _MAPS["phi"].text(text) == oracles.phi(text)
            assert _MAPS["psi"].text(text) == oracles.psi(text)


def test_round_trips_exhaustive():
    for n in range(9):
        for text in oracles.all_dyck(n):
            assert _MAPS["psi"].text(_MAPS["phi"].text(text)) == text
            assert _MAPS["phi"].text(_MAPS["psi"].text(text)) == text


def test_statistic_transport_exhaustive():
    for n in range(8):
        for text in oracles.all_dyck(n):
            image = _MAPS["phi"].text(text)
            assert oracles.peaks(image) == oracles.ups_odd(text)
            assert oracles.contacts(image) == oracles.contacts(text)


@given(dyck_texts(max_n=60))
@settings(max_examples=200)
def test_round_trip_property(text):
    w = PathWord(text)
    assert psi(phi(w)) == w
    assert phi(psi(w)) == w
    assert peaks(phi(w)) == ups_at_odd_height(w)
    assert contacts(phi(w)) == contacts(w)


# --- reflection ---------------------------------------------------------------

def test_alpha_examples():
    assert alpha(parse_word("UUDD")).text == "DDUU"
    assert alpha(parse_word("")).text == ""
    assert alpha(parse_word("UDDU")).text == "DUUD"


def test_alpha_rejects_open_words():
    with pytest.raises(NotBilateralError):
        alpha(parse_word("UUD"))


def test_alpha_involution_and_transport():
    for n in range(6):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            r = alpha(w)
            assert alpha(r) == w
            assert peaks(r) == valleys(w)
            assert valleys(r) == peaks(w)
            assert ups_at_odd_height(r) == oracles.downs_even(text)


# --- first-return swap ----------------------------------------------------------

def test_beta_examples():
    assert beta(parse_word("UUDD")).text == "UDUD"
    assert beta(parse_word("UDUD")).text == "UUDD"
    assert beta(parse_word("")).text == ""


def test_beta_rejects_non_dyck():
    with pytest.raises(NotADyckWordError):
        beta(parse_word("DU"))


def test_beta_involution_and_parity_shift():
    for n in range(1, 8):
        for text in oracles.all_dyck(n):
            w = PathWord(text)
            b = beta(w)
            assert beta(b) == w
            assert ups_at_even_height(b) == ups_at_odd_height(w) - 1
            assert ups_at_odd_height(b) == ups_at_even_height(w) + 1


def test_beta_text_map_fixes_the_empty_word():
    # the text map itself defines beta(empty) = empty, so sweeps need no branch
    assert _MAPS["beta"].text("") == ""


def test_beta_changes_contacts_somewhere_small():
    witnesses = [
        text
        for n in range(1, 4)
        for text in oracles.all_dyck(n)
        if oracles.contacts(oracles.beta(text)) != oracles.contacts(text)
    ]
    assert witnesses  # exists already among the tiny words
    w = PathWord(witnesses[0])
    assert contacts(beta(w)) != contacts(w)


# --- bilateral extension ----------------------------------------------------------

def test_phi_ext_examples():
    assert phi_ext(parse_word("DDUU")).text == "DUDU"
    assert phi_ext(parse_word("UDDU")).text == "UDDU"
    assert phi_ext(parse_word("UUDUDD")).text == "UUUDDD"


def test_psi_ext_examples():
    assert psi_ext(parse_word("DUDU")).text == "DDUU"
    assert psi_ext(parse_word("UDDU")).text == "UDDU"
    assert psi_ext(parse_word("")).text == ""


def test_ext_maps_reject_open_words():
    with pytest.raises(NotBilateralError):
        phi_ext(parse_word("UUD"))
    with pytest.raises(NotBilateralError):
        psi_ext(parse_word("D"))


@pytest.mark.parametrize("op", [alpha, phi_ext, psi_ext, crossing_factorize, semilength])
@pytest.mark.parametrize("text", ["UDDU" * 3, "UUDDDU" * 1000], ids=["short", "long"])
def test_closure_check_scans_no_heights(monkeypatch, op, text):
    calls = []
    original = dyckmaps.words._scan_text
    monkeypatch.setattr(dyckmaps.words, "_scan_text", lambda t: calls.append(t) or original(t))
    op(parse_word(text))
    assert calls == []


@pytest.mark.parametrize("op", [alpha, phi_ext, psi_ext])
@pytest.mark.parametrize(
    "text, final", [("UUD", 1), ("D", -1), ("DDUDD", -3), ("UD" * 3000 + "UU", 2)]
)
def test_open_words_are_refused_with_their_final_height(op, text, final):
    with pytest.raises(NotBilateralError) as info:
        op(parse_word(text))
    assert str(info.value) == f"not a bilateral Dyck word: path ends at height {final}"


def test_ext_maps_match_recursive_transcription_exhaustively():
    for n in range(7):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            assert phi_ext(w).text == oracles.phi_ext(text)
            assert psi_ext(w).text == oracles.psi_ext(text)


def test_ext_round_trips_and_transport_exhaustive():
    for n in range(7):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            image = phi_ext(w)
            assert psi_ext(image) == w
            assert phi_ext(psi_ext(w)) == w
            assert peaks(image) == ups_at_odd_height(w)
            assert crossings(image) == crossings(w)
            assert len(image) == len(w)


def test_ext_preserves_factor_classes_and_lengths():
    from dyckmaps import crossing_factorize

    for n in range(6):
        for text in oracles.all_balanced(n):
            w = PathWord(text)
            before = crossing_factorize(w).factors
            after = crossing_factorize(phi_ext(w)).factors
            assert len(before) == len(after)
            for f, g in zip(before, after):
                assert len(f) == len(g)
                assert oracles.classify(f.text) == oracles.classify(g.text)


def test_single_negative_word_maps_to_zero_peak_word():
    assert phi_ext(parse_word("DU")).text == "DU"


@given(balanced_texts(max_n=50))
@settings(max_examples=200)
def test_ext_round_trip_property(text):
    w = PathWord(text)
    assert psi_ext(phi_ext(w)) == w
    assert phi_ext(psi_ext(w)) == w
    assert peaks(phi_ext(w)) == ups_at_odd_height(w)


# --- staged evaluation --------------------------------------------------------

def test_phi_stages_golden():
    result, lines = phi_stages(parse_word(GOLDEN_TOP))
    assert result.text == GOLDEN_BOTTOM
    assert lines[0] == "UU(UU()DD)DU(UU(UD)DU()DD)DD"
    assert lines[1] == "U(UU()DD)U(UU(UD)DU()DD)UDDD()"
    # every line strips back to a word of the input's length
    for line in lines[1:]:
        assert len(line.replace("(", "").replace(")", "")) == len(GOLDEN_TOP)


def test_psi_stages_golden():
    result, lines = psi_stages(parse_word(GOLDEN_BOTTOM))
    assert result.text == GOLDEN_TOP
    assert lines[0] == "U(U()UDD)U(U(UD)U()UDDD)UDDD"
    assert lines[1] == "UU(U()UDD)DU(U(UD)U()UDDD)DD()"


def test_stages_agree_with_direct_maps():
    for n in range(7):
        for text in oracles.all_dyck(n):
            w = PathWord(text)
            assert phi_stages(w)[0] == phi(w)
            assert psi_stages(w)[0] == psi(w)


def test_stages_of_empty_word():
    result, lines = phi_stages(parse_word(""))
    assert result.text == ""
    assert lines[0] == ""


@pytest.mark.parametrize("stages", [phi_stages, psi_stages])
def test_staged_trace_cap_counts_every_line(monkeypatch, stages):
    w = parse_word("UUDUDD" * 5)
    _, lines = stages(w)
    total = sum(map(len, lines))
    monkeypatch.setattr(dyckmaps.maps, "_MAX_CELLS", total)
    assert stages(w)[1] == lines
    monkeypatch.setattr(dyckmaps.maps, "_MAX_CELLS", total - 1)
    with pytest.raises(DyckError, match=f"cap of {total - 1} characters"):
        stages(w)


@pytest.mark.parametrize("stages", [phi_stages, psi_stages])
def test_staged_trace_refuses_many_rounds_at_low_height(monkeypatch, stages):
    # (UD)^k has height 1 but takes about k rounds, so a bound made up front
    # from length and height cannot catch it
    monkeypatch.setattr(dyckmaps.maps, "_MAX_CELLS", 1000)
    with pytest.raises(DyckError, match="cap of 1000 characters"):
        stages(parse_word("UD" * 100))


def test_trace_cap_admits_the_largest_measured_hill():
    k = 2000  # 7,015,000 characters of trace lines, under the cap of 10^7
    result, lines = phi_stages(parse_word("U" * k + "D" * k))
    assert result == phi(parse_word("U" * k + "D" * k))
    assert sum(map(len, lines)) == 7_015_000
