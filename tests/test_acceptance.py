"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy sweeps run the production text-level pipeline directly; expected
values come from the embedded reference sequences, the closed-form counting
formula, and the independent recurrences in oracles.py.
"""

import time

import numpy as np
import pytest

import oracles
from dyckmaps import (
    CATALAN_NUMBERS,
    CENTRAL_BINOMIALS,
    contacts,
    distribution,
    narayana,
    parse_word,
    peaks,
    phi,
    psi,
    ups_at_odd_height,
)
from dyckmaps.generate import (
    _balanced_texts,
    _dyck_texts,
    _random_balanced_text,
)
from dyckmaps.maps import _MAPS
from dyckmaps.verify import _time_maps
from dyckmaps.words import _scan_text

GOLDEN_TOP = "UUUUDDDUUUUDDUDDDD"
GOLDEN_BOTTOM = "UUUDDUUUDUUDDDUDDD"


def _report(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")
    return ok


def test_golden_example_exact_and_fast():
    w = parse_word(GOLDEN_TOP)
    image = phi(w)
    ok = image.text == GOLDEN_BOTTOM
    ok &= psi(image) == w
    ok &= ups_at_odd_height(w) == 4 and contacts(w) == 1
    ok &= peaks(image) == 4 and contacts(image) == 1
    best = min(
        _timed_once(_MAPS["phi"].text, GOLDEN_TOP) for _ in range(30)
    )
    ok &= best < 1e-3
    assert _report(
        "golden example: exact mapping, statistics, < 1 ms",
        ok,
        f"min map time {best * 1e6:.1f} us",
    )


def _timed_once(fn, arg) -> float:
    start = time.perf_counter()
    fn(arg)
    return time.perf_counter() - start


@pytest.mark.slow
def test_theorem1_exhaustive_to_n12():
    start = time.perf_counter()
    failures = 0
    words = 0
    for n in range(13):
        count = 0
        for text in _dyck_texts(n):
            count += 1
            image = _MAPS["phi"].text(text)
            if (_MAPS["psi"].text(image) != text
                    or _MAPS["phi"].text(_MAPS["psi"].text(text)) != text):
                failures += 1
                continue
            s = _scan_text(text)
            si = _scan_text(image)
            if si.peaks != s.ups_odd or si.contacts != s.contacts:
                failures += 1
        assert count == CATALAN_NUMBERS[n]
        words += count
    elapsed = time.perf_counter() - start
    assert _report(
        "round trips and transport over every Dyck word, n <= 12",
        failures == 0,
        f"{words} words, {elapsed:.1f}s",
    )
    assert failures == 0


def test_narayana_equidistribution_to_n12():
    ok = True
    for n in range(1, 13):
        row = {k: narayana(n, k) for k in range(1, n + 1)}
        by_peaks = distribution("dyck", n, "peaks").counts
        by_ups_odd = distribution("dyck", n, "ups_odd").counts
        ok &= by_peaks == row
        ok &= by_ups_odd == row
        ok &= sum(row.values()) == oracles.catalan(n) == CATALAN_NUMBERS[n]
    assert _report(
        "peak and odd-up-step distributions equal the Narayana rows, n = 1..12",
        ok,
    )


def test_joint_contact_refinement_to_n10():
    ok = True
    for n in range(1, 11):
        with_ups = distribution("dyck", n, "contacts", "ups_odd").counts
        with_peaks = distribution("dyck", n, "contacts", "peaks").counts
        ok &= with_ups == with_peaks
    assert _report(
        "joint (contacts, ups_odd) matches joint (contacts, peaks), n = 1..10",
        ok,
    )


@pytest.mark.slow
def test_theorem2_exhaustive_to_n10():
    start = time.perf_counter()
    failures = 0
    words = 0
    dist_ok = True
    for n in range(11):
        count = 0
        odd = {}
        pks = {}
        for text in _balanced_texts(n):
            count += 1
            image = _MAPS["phi-ext"].text(text)
            if (_MAPS["psi-ext"].text(image) != text
                    or _MAPS["phi-ext"].text(_MAPS["psi-ext"].text(text)) != text):
                failures += 1
                continue
            s = _scan_text(text)
            si = _scan_text(image)
            if si.peaks != s.ups_odd or si.crossings != s.crossings:
                failures += 1
            odd[s.ups_odd] = odd.get(s.ups_odd, 0) + 1
            pks[s.peaks] = pks.get(s.peaks, 0) + 1
        assert count == CENTRAL_BINOMIALS[n]
        dist_ok &= odd == pks
        words += count
    elapsed = time.perf_counter() - start
    assert _report(
        "round trips, transport, crossings over every balanced word, n <= 10",
        failures == 0 and dist_ok,
        f"{words} words, {elapsed:.1f}s",
    )
    assert failures == 0 and dist_ok


_FLIP = str.maketrans("UD", "DU")


def _alpha(text: str) -> str:
    return text.translate(_FLIP)


def test_involution_suite():
    ok_involutions = True
    for n in range(11):
        for text in _balanced_texts(n):
            if _alpha(_alpha(text)) != text:
                ok_involutions = False
    shift_ok = True
    beta_involution_ok = True
    for n in range(11):
        for text in _dyck_texts(n):
            if not text:
                continue
            swapped = _MAPS["beta"].text(text)
            if _MAPS["beta"].text(swapped) != text:
                beta_involution_ok = False
            s = _scan_text(text)
            sb = _scan_text(swapped)
            if (sb.ups - sb.ups_odd) != s.ups_odd - 1:
                shift_ok = False
    witness = next(
        (
            text
            for n in range(4)
            for text in _dyck_texts(n)
            if text
            and _scan_text(_MAPS["beta"].text(text)).contacts != _scan_text(text).contacts
        ),
        None,
    )
    ok = ok_involutions and beta_involution_ok and shift_ok and witness is not None
    # peak preservation under the first-return swap: false in general; the
    # very first nontrivial word is already a counterexample, so this
    # criterion cannot pass as stated and is reported honestly.
    peak_counterexample = next(
        (
            text
            for n in range(11)
            for text in _dyck_texts(n)
            if text and _scan_text(_MAPS["beta"].text(text)).peaks != _scan_text(text).peaks
        ),
        None,
    )
    peaks_preserved = peak_counterexample is None
    _report(
        "involutions, parity shift, contact-change witness, peak preservation",
        ok and peaks_preserved,
        f"witness={witness}, peak-preservation counterexample={peak_counterexample}",
    )
    assert ok
    assert peaks_preserved, (
        f"the first-return swap does not preserve peak count: "
        f"{peak_counterexample} has {_scan_text(peak_counterexample).peaks} peaks "
        f"but maps to {_MAPS['beta'].text(peak_counterexample)} with "
        f"{_scan_text(_MAPS['beta'].text(peak_counterexample)).peaks}"
    )


@pytest.mark.slow
def test_scale_and_performance():
    rng = np.random.default_rng(20260808)

    ok_small = True
    for _ in range(10_000):
        text = _random_balanced_text(200, rng)  # 400 steps
        image = _MAPS["phi-ext"].text(text)
        if (_MAPS["psi-ext"].text(image) != text
                or _MAPS["phi-ext"].text(_MAPS["psi-ext"].text(text)) != text):
            ok_small = False
            break
        if _scan_text(image).peaks != _scan_text(text).ups_odd:
            ok_small = False
            break

    ok_big = True
    big = [_random_balanced_text(500_000, rng) for _ in range(10)]
    for text in big:
        image = _MAPS["phi-ext"].text(text)
        if _MAPS["psi-ext"].text(image) != text:
            ok_big = False
            break
        if _scan_text(image).peaks != _scan_text(text).ups_odd:
            ok_big = False
            break

    half = [_random_balanced_text(250_000, rng) for _ in range(10)]
    # the batches take turns, so that a slow stretch of the host falls on both
    t_half, t_full = _time_maps(_MAPS["phi-ext"].text, (half, big), repeats=3)
    ratio = t_full / t_half
    ok_linear = ratio <= 2.5

    tall = "U" * 500_000 + "D" * 500_000  # height 5 * 10^5
    ok_tall = (
        _MAPS["psi"].text(_MAPS["phi"].text(tall)) == tall
        and _MAPS["phi"].text(_MAPS["psi"].text(tall)) == tall
        and _MAPS["psi-ext"].text(_MAPS["phi-ext"].text(tall)) == tall
        and _MAPS["beta"].text(_MAPS["beta"].text(tall)) == tall
    )

    ok = ok_small and ok_big and ok_linear and ok_tall
    assert _report(
        "randomized scale: 10^4 x 400 steps, 10 x 10^6 steps, linear cost, "
        "height 5x10^5",
        ok,
        f"doubling ratio {ratio:.2f}",
    )
