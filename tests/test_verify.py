import io
import json
import os
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

import dyckmaps.verify
from dyckmaps import (
    CATALAN_NUMBERS,
    cli,
    distribution,
    parse_word,
    phi_ext,
    verify_involutions_and_transport,
    verify_randomized,
    verify_theorem1,
    verify_theorem2,
)
from dyckmaps.maps import _alpha_text, _beta_text, _phi_ext_text, _phi_text

DATA = Path(__file__).parent / "data"


# deliberately broken forward map: drops the relocated descent run
def _broken_phi(text):
    return _phi_text(text).replace("UDD", "UD", 1)


# deliberately broken involutions: each damages the first matching factor
def _broken_alpha(text):
    return _alpha_text(text).replace("DU", "UD", 1)


def _broken_beta(text):
    return _beta_text(text).replace("UUDD", "UDUD", 1)



def test_theorem1_passes_small():
    report = verify_theorem1(3)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["dyck.round_trip.psi_after_phi"].words_tested == 9  # 1+1+2+5


def test_theorem1_trivial_n():
    assert verify_theorem1(1).ok


def test_theorem1_catches_mutated_map():
    report = verify_theorem1(2, phi_fn=_broken_phi)
    assert not report.ok
    failed = [c for c in report.checks if not c.passed]
    assert failed
    # counterexample is tiny and reproducible
    examples = [c.counterexample for c in failed if c.counterexample is not None]
    assert examples
    assert all(len(e) <= 4 for e in examples)
    assert _broken_phi(examples[0]) != _phi_text(examples[0])


def test_theorem1_counterexample_is_lexicographically_first():
    report = verify_theorem1(3, phi_fn=_broken_phi)
    failing = next(c for c in report.checks if not c.passed and c.counterexample)
    # UUDD is the first word (n ascending, U < D within n) the mutation damages
    assert failing.counterexample == "UUDD"


@pytest.mark.parametrize("verify, kwargs", [
    (verify_theorem1, {"phi_fn": lambda text: 5}),
    (verify_theorem2, {"phi_ext_fn": lambda text: phi_ext(parse_word(text))}),
], ids=["int", "PathWord"])
def test_maps_returning_anything_but_text_fail_every_word_check(verify, kwargs):
    report = verify(2, **kwargs)
    assert not report.ok
    *per_word, dist = report.checks
    assert "distribution" in dist.name and dist.passed  # it reads no image
    assert per_word
    for check in per_word:
        assert not check.passed and check.counterexample == "", check.name


@pytest.mark.parametrize(
    "verify", [verify_theorem1, verify_theorem2], ids=lambda f: f.__name__
)
def test_parallel_matches_serial(verify):
    serial = verify(5, jobs=1)
    parallel = verify(5, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


def _no_pool(*args, **kwargs):
    raise AssertionError("no worker process may start")


def _refuse(*args, **kwargs):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="at least 1"):
        verify_theorem1(2, jobs=jobs)


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(dyckmaps.verify, "Pool", _no_pool)
    assert verify_theorem2(3, jobs=4).to_dict() == verify_theorem2(3).to_dict()


def test_unpicklable_map_rejected_before_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dyckmaps.verify, "Pool", _no_pool)
    with pytest.raises(ValueError, match="phi_fn"):
        verify_theorem1(3, phi_fn=lambda t: t, jobs=2)


class _CountingPool:
    """Stand-in for multiprocessing.Pool that runs chunks in-process and
    counts how many pools were opened."""

    opened = 0

    def __init__(self, processes):
        type(self).opened += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    imap = staticmethod(map)


@pytest.mark.parametrize(
    "verify, max_n", [(verify_theorem1, 8), (verify_theorem2, 5)],
    ids=["verify_theorem1", "verify_theorem2"],
)
def test_parallel_sweep_opens_one_pool(monkeypatch, verify, max_n):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dyckmaps.verify, "Pool", _CountingPool)
    monkeypatch.setattr(_CountingPool, "opened", 0)
    parallel = verify(max_n, jobs=2)
    assert _CountingPool.opened == 1
    assert parallel.to_dict() == verify(max_n, jobs=1).to_dict()


def test_theorem2_passes_small():
    report = verify_theorem2(2)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["bilateral.round_trip.psi_after_phi"].words_tested == 9  # 1+2+6


def test_theorem2_single_crossing_word():
    assert verify_theorem2(1).ok  # includes DU -> DU, the 0-peak word


def test_theorem2_contact_preservation_is_a_negative_control():
    report = verify_theorem2(3, include_contact_preservation=True)
    assert not report.ok
    failed = {c.name: c for c in report.checks if not c.passed}
    assert set(failed) == {"bilateral.contacts_preserved"}
    assert failed["bilateral.contacts_preserved"].counterexample is not None
    # everything else still passes
    assert all(
        c.passed for c in report.checks if c.name != "bilateral.contacts_preserved"
    )


# --- the two failure branches of the distribution check -------------------

_DIST_CHECKS = {
    verify_theorem1: ("dyck.joint_distribution.contacts_x_stats",
                      "joint distributions differ at n=3, key=(1, 1)"),
    verify_theorem2: ("bilateral.distribution.peaks_eq_ups_odd",
                      "distributions differ at n=3, key=0"),
}


def _skewed_distribution(path_class, n, *stats):
    """The exact table, but at n = 3 the peak table counts its least key once
    more than it should."""
    table = distribution(path_class, n, *stats)
    if n != 3 or "peaks" not in stats:
        return table
    counts = dict(table.counts)
    counts[min(counts)] += 1
    return replace(table, counts=counts)


def _only_distribution_fails(report, expected, name, note):
    """Every check of report as in expected, but name failed with note."""
    want = expected.to_dict()
    for check in want["checks"]:
        if check["name"] == name:
            check.update(passed=False, note=note)
    want["ok"] = False
    assert report.to_dict() == want


@pytest.mark.parametrize("verify", list(_DIST_CHECKS), ids=lambda f: f.__name__)
def test_a_distribution_mismatch_fails_only_the_distribution_check(monkeypatch, verify):
    expected = verify(5)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dyckmaps.verify, "distribution", _skewed_distribution)
    serial = verify(5)
    _only_distribution_fails(serial, expected, *_DIST_CHECKS[verify])
    # the tables are counted in the parent, so workers change nothing
    assert verify(5, jobs=2).to_dict() == serial.to_dict()


def test_a_class_size_mismatch_is_reported_and_ends_the_comparison(monkeypatch):
    expected = verify_theorem1(5)
    name = "dyck.joint_distribution.contacts_x_stats"
    wrong = list(CATALAN_NUMBERS)
    wrong[4] += 1
    monkeypatch.setattr(dyckmaps.verify, "CATALAN_NUMBERS", tuple(wrong))
    _only_distribution_fails(verify_theorem1(5), expected, name,
                             "class size mismatch at n=4: 14")
    # a size mismatch at n = 2 ends the comparison before the skewed n = 3
    wrong = list(CATALAN_NUMBERS)
    wrong[2] += 1
    monkeypatch.setattr(dyckmaps.verify, "CATALAN_NUMBERS", tuple(wrong))
    monkeypatch.setattr(dyckmaps.verify, "distribution", _skewed_distribution)
    _only_distribution_fails(verify_theorem1(5), expected, name,
                             "class size mismatch at n=2: 2")
    # the first mismatch names the note, not the last
    wrong[4] += 1
    monkeypatch.setattr(dyckmaps.verify, "CATALAN_NUMBERS", tuple(wrong))
    _only_distribution_fails(verify_theorem1(5), expected, name,
                             "class size mismatch at n=2: 2")
    # and a size mismatch at n = 4 leaves the table difference at n = 3 named
    wrong[2] -= 1
    monkeypatch.setattr(dyckmaps.verify, "CATALAN_NUMBERS", tuple(wrong))
    _only_distribution_fails(verify_theorem1(5), expected, *_DIST_CHECKS[verify_theorem1])


def test_involutions_pass():
    report = verify_involutions_and_transport(4)
    assert report.ok
    witness = next(
        c for c in report.checks if c.name == "beta.contact_change_witness"
    )
    assert witness.passed
    assert witness.witness == "UUDD"  # lexicographically first witness


def test_involutions_vacuous_pass_at_zero():
    report = verify_involutions_and_transport(0)
    # the witness search still extends through semilength 3
    assert report.ok


def test_beta_peak_preservation_check_fails_honestly():
    report = verify_involutions_and_transport(3, include_beta_peak_preservation=True)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["beta.transport.peaks_preserved"]
    assert failed[0].counterexample == "UUDD"


def test_randomized_small():
    report = verify_randomized(8, trials=50, seed=1234, check_scaling=False)
    assert report.ok
    assert all(c.words_tested == 50 for c in report.checks)


def test_randomized_trivial():
    assert verify_randomized(0, trials=3, seed=0, check_scaling=False).ok


@pytest.mark.parametrize(
    "n, trials, message", [(3, -5, "trials"), (-2, 3, "semilength")]
)
def test_randomized_rejects_negative_sizes(n, trials, message):
    with pytest.raises(ValueError, match=message):
        verify_randomized(n, trials=trials, seed=0, check_scaling=False)


def test_randomized_with_scaling():
    report = verify_randomized(256, trials=40, seed=7)
    assert report.ok
    scaling = next(c for c in report.checks if c.name == "random.linear_scaling")
    assert "ratio" in scaling.note


def _fake_timing(monkeypatch, n, cost, slow_words=0):
    """Give verify a clock that only its timed map moves: each word costs
    cost(length).  From the first word of length 4n (the doubled batch) on,
    the next ``slow_words`` words cost three times as much, as when the host
    slows down for a while."""
    state = {"now": 0.0, "slow": None}

    def phi_ext(text):
        if state["slow"] is None and len(text) == 4 * n:
            state["slow"] = slow_words
        factor = 1
        if state["slow"]:
            state["slow"] -= 1
            factor = 3
        state["now"] += factor * cost(len(text))
        return _phi_ext_text(text)

    monkeypatch.setattr(dyckmaps.verify, "_phi_ext_text", phi_ext)
    monkeypatch.setattr(
        dyckmaps.verify, "time", SimpleNamespace(perf_counter=lambda: state["now"])
    )


def _scaling_check(n, trials):
    report = verify_randomized(n, trials=trials, seed=5)
    return next(c for c in report.checks if c.name == "random.linear_scaling")


def test_scaling_survives_a_slowdown_over_two_batches(monkeypatch):
    # the slowdown covers two batches' worth of words from the first doubled
    # batch on: back to back (base, base, doubled, doubled) that is both
    # doubled batches and a ratio of 6; taking turns, one of each kind
    _fake_timing(monkeypatch, 64, cost=float, slow_words=2 * 10)
    check = _scaling_check(64, 10)
    assert check.passed, check.note
    assert check.note == "time ratio for doubled length: 2.00"


def test_scaling_still_fails_a_quadratic_map(monkeypatch):
    _fake_timing(monkeypatch, 64, cost=lambda length: float(length) ** 2)
    check = _scaling_check(64, 10)
    assert not check.passed
    assert check.note == "time ratio for doubled length: 4.00"


def test_report_formatting():
    report = verify_theorem1(2)
    text = report.format_text()
    assert "PASS" in text and "all passed" in text
    payload = report.to_dict()
    assert payload["ok"] is True
    assert all("name" in c for c in payload["checks"])

    broken = verify_theorem1(2, phi_fn=_broken_phi)
    lines = broken.format_text().splitlines()
    assert any(line.startswith("FAIL") and "counterexample=" in line for line in lines)


def _cli_verify(fmt, max_n=8):
    out = io.StringIO()
    assert cli.run(["verify", "--max-n", str(max_n), "--format", fmt], stdout=out) == 0
    return out.getvalue()


def _report_json(report):
    return json.dumps(report.to_dict(), indent=2) + "\n"


# Outputs captured from the engines before they were merged into one sweep
# driver; any change to names, order, counts or counterexamples shows here.
_GOLDEN = {
    "verify_max_n_8.txt": lambda: _cli_verify("text"),
    "verify_max_n_8.json": lambda: _cli_verify("json"),
    "verify_max_n_10.json": lambda: _cli_verify("json", 10),
    "theorem1_broken_phi_n5.json":
        lambda: _report_json(verify_theorem1(5, phi_fn=_broken_phi)),
    "theorem2_contacts_n4.json":
        lambda: _report_json(verify_theorem2(4, include_contact_preservation=True)),
    "involutions_beta_peaks_n3.json": lambda: _report_json(
        verify_involutions_and_transport(3, include_beta_peak_preservation=True)
    ),
}


def _involutions_json(n, **kwargs):
    return _report_json(verify_involutions_and_transport(n, **kwargs))


def _with_broken(name, broken, **kwargs):
    with mock.patch.object(dyckmaps.verify, name, broken):
        return _involutions_json(4, **kwargs)


# Outputs captured before the involution and randomized checks moved onto the
# theorem engine; n <= 2 puts the witness search beyond max_n.
for _n in (0, 1, 2):
    _GOLDEN[f"involutions_n{_n}.json"] = partial(_involutions_json, _n)
    _GOLDEN[f"involutions_beta_peaks_n{_n}.json"] = partial(
        _involutions_json, _n, include_beta_peak_preservation=True
    )
_GOLDEN.update({
    "involutions_broken_alpha_n4.json":
        lambda: _with_broken("_alpha_text", _broken_alpha),
    "involutions_broken_beta_n4.json": lambda: _with_broken(
        "_beta_text", _broken_beta, include_beta_peak_preservation=True
    ),
    "randomized_n50_trials200_seed3.json": lambda: _report_json(
        verify_randomized(50, 200, 3, check_scaling=False)
    ),
    "randomized_n0_trials5_seed1.json": lambda: _report_json(
        verify_randomized(0, 5, 1, check_scaling=False)
    ),
})


@pytest.mark.parametrize("fixture", list(_GOLDEN))
def test_output_matches_golden_fixture(fixture):
    assert _GOLDEN[fixture]() == (DATA / fixture).read_text()


# --- the batched path against the per-word path ---------------------------

def _sweeps(n):
    """to_dict() of all four sweeps at n, with the checks expected to fail."""
    return [
        verify_theorem1(n).to_dict(),
        verify_theorem2(n, include_contact_preservation=True).to_dict(),
        verify_involutions_and_transport(n, include_beta_peak_preservation=True).to_dict(),
    ]


def test_chunk_boundaries_leave_the_reports_alone(monkeypatch):
    want = [_sweeps(n) for n in range(7)]
    monkeypatch.setattr(dyckmaps.verify, "_CHUNK", 7)
    assert [_sweeps(n) for n in range(7)] == want


def test_default_maps_run_batched_in_chunks_of_at_most_chunk_rows(monkeypatch):
    shapes = []
    rank_rows = dyckmaps.verify._rank_rows

    def recording(n, dyck, start, stop):
        mat = rank_rows(n, dyck, start, stop)
        shapes.append(mat.shape)
        return mat

    monkeypatch.setattr(dyckmaps.verify, "_rank_rows", recording)
    monkeypatch.setattr(dyckmaps.verify, "_theorem_chunk", _refuse)
    verify_theorem1(10)
    verify_theorem2(8)
    verify_involutions_and_transport(8)
    # theorem 1 and beta over Dyck words, theorem 2 and alpha over balanced ones
    assert sum(rows for _, rows in shapes) == 23714 + 2056 + 2 * 17577
    assert max(rows for _, rows in shapes) <= dyckmaps.verify._CHUNK
    assert len(shapes) > 4 * 11  # the largest classes take several chunks


# equal-valued wrappers: any injected map sends a sweep down the per-word path
def _phi_ext_wrapped(text):
    return dyckmaps.verify._phi_ext_text(text)


def _beta_wrapped(text):
    return _beta_text(text)


def test_injected_maps_give_the_same_report_in_a_pool(monkeypatch):
    # a pool of two workers whatever the host's CPU count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []
    pool = dyckmaps.verify.Pool

    def counted_pool(jobs):
        pools.append(jobs)
        return pool(jobs)

    monkeypatch.setattr(dyckmaps.verify, "Pool", counted_pool)
    broken = verify_theorem1(6, phi_fn=_broken_phi, jobs=1).to_dict()
    wrapped = verify_theorem2(6, phi_ext_fn=_phi_ext_wrapped, jobs=1).to_dict()
    assert pools == []
    assert verify_theorem1(6, phi_fn=_broken_phi, jobs=2).to_dict() == broken
    assert verify_theorem2(6, phi_ext_fn=_phi_ext_wrapped, jobs=2).to_dict() == wrapped
    assert pools == [2, 2]
    assert not broken["ok"] and wrapped["ok"]


@pytest.mark.parametrize("n", range(9))
def test_expected_failures_agree_on_both_paths(monkeypatch, n):
    batched = verify_theorem2(n, include_contact_preservation=True).to_dict()
    beta_batched = verify_involutions_and_transport(
        n, include_beta_peak_preservation=True).to_dict()
    with monkeypatch.context() as patched:
        patched.setattr(dyckmaps.verify, "_row_chunk", _refuse)
        per_word = verify_theorem2(
            n, include_contact_preservation=True, phi_ext_fn=_phi_ext_wrapped).to_dict()
    monkeypatch.setattr(dyckmaps.verify, "_beta_text", _beta_wrapped)  # alpha stays batched
    beta_per_word = verify_involutions_and_transport(
        n, include_beta_peak_preservation=True).to_dict()
    assert per_word == batched
    assert beta_per_word == beta_batched
    contacts = next(c for c in batched["checks"]
                    if c["name"] == "bilateral.contacts_preserved")
    peaks = next(c for c in beta_batched["checks"]
                 if c["name"] == "beta.transport.peaks_preserved")
    if n == 8:  # the comparison covers real counterexamples
        assert contacts["counterexample"] and peaks["counterexample"]
