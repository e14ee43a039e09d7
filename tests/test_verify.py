import io
import json
import os
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import dyckmaps.maps
import dyckmaps.verify
import dyckmaps.words
from dyckmaps import (
    CATALAN_NUMBERS,
    CENTRAL_BINOMIALS,
    cli,
    distribution,
    parse_word,
    phi_ext,
    verify_involutions_and_transport,
    verify_randomized,
    verify_theorem1,
    verify_theorem2,
)
from dyckmaps.decompose import _negative_steps
from dyckmaps.generate import (_dyck_texts, _random_balanced_text, _rank_blocks,
                               _rank_rows, _transfer_counts)
from dyckmaps.maps import _MAPS, _key_type, _phi_ext_b
from dyckmaps.verify import _Theorem, _sweep
from dyckmaps.words import _row_texts, _up_and_heights

DATA = Path(__file__).parent / "data"
# the maps on canonical text, bound before any test patches a record
_TEXT = {name: op.text for name, op in _MAPS.items()}


# deliberately broken forward map: drops the relocated descent run
def _broken_phi(text):
    return _TEXT["phi"](text).replace("UDD", "UD", 1)


# deliberately broken involutions: each damages the first matching factor
def _broken_alpha(text):
    return _TEXT["alpha"](text).replace("DU", "UD", 1)


def _broken_beta(text):
    return _TEXT["beta"](text).replace("UUDD", "UDUD", 1)



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
    assert _broken_phi(examples[0]) != _TEXT["phi"](examples[0])


def test_theorem1_counterexample_is_lexicographically_first():
    report = verify_theorem1(3, phi_fn=_broken_phi)
    failing = next(c for c in report.checks if not c.passed and c.counterexample)
    # UUDD is the first word (n ascending, U < D within n) the mutation damages
    assert failing.counterexample == "UUDD"


def _raising_phi(text):
    if "UUDD" in text:
        raise RuntimeError("a broken map that raises")
    return _TEXT["phi"](text)


def test_a_map_that_raises_gives_the_first_word_it_raises_on():
    report = verify_theorem1(4, phi_fn=_raising_phi)
    by_name = {c.name: c for c in report.checks}
    # UUDD is the first word (n ascending, U < D within n) that contains UUDD
    for name in ("dyck.round_trip.psi_after_phi", "dyck.transport.peaks_from_ups_odd",
                 "dyck.transport.contacts_preserved"):
        assert by_name[name].counterexample == "UUDD", name
    # the second trip feeds it psi's images, and it raises on the first such image
    first = next(v for n in range(5) for v in _dyck_texts(n) if "UUDD" in _TEXT["psi"](v))
    assert by_name["dyck.round_trip.phi_after_psi"].counterexample == first
    assert by_name["dyck.joint_distribution.contacts_x_stats"].passed


@pytest.mark.parametrize("verify, kwargs, counterexample", [
    (verify_theorem1, {"phi_fn": lambda text: 5}, ""),
    (verify_theorem2, {"phi_ext_fn": lambda text: phi_ext(parse_word(text))}, ""),
    (verify_theorem1, {"phi_fn": lambda text: text + "UD"}, ""),
    # the empty word is in every class, so its image fits
    (verify_theorem2, {"phi_ext_fn": lambda text: "U" * len(text)}, "UD"),
    (verify_theorem1, {"phi_fn": lambda text: text[::-1]}, "UD"),  # balanced, not Dyck
    (verify_theorem1, {"phi_fn": lambda text: text.replace("D", "d")}, "UD"),
    (verify_theorem1, {"phi_fn": lambda text: text.replace("D", "\u0414")}, "UD"),
], ids=["int", "PathWord", "wrong-length", "not-balanced", "not-dyck", "alias",
        "non-ascii"])
def test_maps_returning_anything_but_text_fail_every_word_check(verify, kwargs,
                                                                counterexample):
    report = verify(2, **kwargs)
    assert not report.ok
    *per_word, dist = report.checks
    assert "distribution" in dist.name and dist.passed  # it reads no image
    assert per_word
    for check in per_word:
        assert not check.passed and check.counterexample == counterexample, check.name


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


def _skewed_transfer_counts(n, dyck, stats, every=False):
    """The exact tables, but at n = 3 the peak table counts its least key once
    more than it should."""
    tables = _transfer_counts(n, dyck, stats, every)
    if 3 in tables and "peaks" in stats:
        tables[3][min(tables[3])] += 1
    return tables


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
    monkeypatch.setattr(dyckmaps.verify, "_transfer_counts", _skewed_transfer_counts)
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
    monkeypatch.setattr(dyckmaps.verify, "_transfer_counts", _skewed_transfer_counts)
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


# a sweep reads every semilength's tables from one run of the dynamic program;
# the notes are those of one distribution() call per semilength and key set
@pytest.mark.parametrize("path_class, keys, note", [
    ("dyck", (("max_height", "peaks"), ("max_height", "ups_odd")),
     "tables differ at n=3, key=(2, 1)"),
    ("dyck", (("is_prime", "contacts"), ("is_prime", "peaks")),
     "tables differ at n=3, key=(1, 1)"),
    ("bilateral", (("min_height", "peaks"), ("min_height", "valleys")),
     "tables differ at n=1, key=(-1, 0)"),
    ("bilateral", (("is_prime", "peaks"), ("is_prime", "ups_odd")), ""),
])
def test_a_sweep_names_the_first_semilength_and_key_whose_tables_differ(
    path_class, keys, note
):
    involution = _MAPS["beta" if path_class == "dyck" else "alpha"]
    spec = _Theorem(path_class, {"map": involution}, ("involution",), (), keys,
                    ("distribution", "tables"))
    check = _sweep(spec, 6, jobs=1).checks[-1]
    assert (check.name, check.passed, check.note) == ("distribution", not note, note)
    for n in range(7):  # the same first difference, one semilength at a time
        a, b = (distribution(path_class, n, *stats).counts for stats in keys)
        if a != b:
            diff = min(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            assert note == f"tables differ at n={n}, key={diff}"
            break
    else:
        assert note == ""


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


@pytest.mark.parametrize("sweep", [verify_theorem1, verify_involutions_and_transport])
def test_a_sweep_past_the_rank_range_is_refused_before_it_sweeps(monkeypatch, sweep):
    def swept(*args):
        raise AssertionError("swept a semilength")

    monkeypatch.setattr(dyckmaps.verify, "_sweep_n", swept)
    with pytest.raises(ValueError, match="at most 33 for int64 ranks"):
        sweep(34)
    assert sweep(-1).checks[0].words_tested == 0  # an empty range, as before


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


def test_randomized_samples_run_on_the_matrix_in_bounded_chunks(monkeypatch):
    shapes = []
    check_chunk = dyckmaps.verify._check_chunk

    def recording(mat, spec):
        shapes.append(mat.shape)
        return check_chunk(mat, spec)

    monkeypatch.setattr(dyckmaps.verify, "_check_chunk", recording)
    monkeypatch.setattr(dyckmaps.verify, "_try", _refuse)  # the twins take every sample
    assert verify_randomized(2048, 64, 1, check_scaling=False).ok
    chunk = dyckmaps.verify._CHUNK
    assert sum(words for _, words in shapes) == 2 * 64  # once per round trip
    assert all(words <= chunk and steps * words <= 32 * chunk for steps, words in shapes)
    assert len(shapes) > 1  # 64 words of 4,096 steps take two chunks


def _fake_timing(monkeypatch, n, cost, slow_words=0):
    """Give verify a clock that only its timed map moves: each word costs
    cost(length).  From the first word of length 4n (the doubled batch) on,
    the next ``slow_words`` words cost three times as much, as when the host
    slows down for a while."""
    state = {"now": 0.0, "slow": None}

    def phi_ext(data):
        if state["slow"] is None and len(data) == 4 * n:
            state["slow"] = slow_words
        factor = 1
        if state["slow"]:
            state["slow"] -= 1
            factor = 3
        state["now"] += factor * cost(len(data))
        return _phi_ext_b(data)

    monkeypatch.setitem(dyckmaps.maps._MAPS, "phi-ext",
                        dyckmaps.maps._MAPS["phi-ext"]._replace(word=phi_ext))
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
    with mock.patch.dict(dyckmaps.maps._MAPS, {name: broken}):
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
        lambda: _with_broken("alpha", _broken_alpha),
    "involutions_broken_beta_n4.json": lambda: _with_broken(
        "beta", _broken_beta, include_beta_peak_preservation=True
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


def test_the_sweeps_compute_no_final_height_and_no_height_extremes(monkeypatch):
    # no check compares these fields, so the lazy scan never computes them
    runs = [partial(verify_theorem1, 8), partial(verify_theorem2, 6),
            partial(verify_involutions_and_transport, 6),
            partial(verify_randomized, 20, 50, 0, check_scaling=False)]
    want = [run().to_dict() for run in runs]

    def unread(scan):
        raise AssertionError("a sweep computed a field that no check compares")

    for field in ("final", "lo", "hi"):
        monkeypatch.setattr(dyckmaps.words._RowScan, field, property(unread))
    assert [run().to_dict() for run in runs] == want


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
    monkeypatch.setattr(dyckmaps.verify, "_try", _refuse)  # no map runs word by word
    verify_theorem1(10)
    verify_theorem2(8)
    verify_involutions_and_transport(8)
    # theorem 1 and beta over Dyck words, theorem 2 and alpha over balanced ones
    assert sum(rows for _, rows in shapes) == 23714 + 2056 + 2 * 17577
    assert max(rows for _, rows in shapes) <= dyckmaps.verify._CHUNK
    assert len(shapes) > 4 * 11  # the largest classes take several chunks


# equal-valued wrappers: any injected map runs word by word
def _phi_ext_wrapped(text):
    return _TEXT["phi-ext"](text)


def _beta_wrapped(text):
    return _TEXT["beta"](text)


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


def test_involutions_run_in_a_pool_of_jobs(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    pools = []
    pool = dyckmaps.verify.Pool

    def counted_pool(jobs):
        pools.append(jobs)
        return pool(jobs)

    monkeypatch.setattr(dyckmaps.verify, "Pool", counted_pool)
    serial = verify_involutions_and_transport(
        6, include_beta_peak_preservation=True, jobs=1).to_dict()
    assert pools == []
    assert verify_involutions_and_transport(
        6, include_beta_peak_preservation=True, jobs=2).to_dict() == serial
    assert pools == [2, 2]  # alpha, then beta
    assert not serial["ok"]  # beta's expected failure is found in the pool too


def test_cli_verify_passes_jobs_to_every_sweep(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dyckmaps.verify, "Pool", _CountingPool)
    monkeypatch.setattr(_CountingPool, "opened", 0)
    serial = io.StringIO()
    assert cli.run(["verify", "--max-n", "4"], stdout=serial) == 0
    assert _CountingPool.opened == 0
    parallel = io.StringIO()
    assert cli.run(["verify", "--max-n", "4", "--jobs", "2"], stdout=parallel) == 0
    assert _CountingPool.opened == 4  # theorem 1, theorem 2, alpha and beta
    assert parallel.getvalue() == serial.getvalue()


# --- the second round trip: derived from the first, or swept ---------------

_SIZES = {verify_theorem1: "CATALAN_NUMBERS", verify_theorem2: "CENTRAL_BINOMIALS"}


def _both_trips_swept(monkeypatch, verify, max_n, **maps):
    """verify's report with both round trips swept at every n: with no
    reference sizes, no class size is confirmed, and nothing is compared."""
    with monkeypatch.context() as patched:
        patched.setattr(dyckmaps.verify, _SIZES[verify], ())
        return verify(max_n, **maps).to_dict()


@pytest.mark.parametrize("verify, arg, inverse, word, other", [
    (verify_theorem1, "psi_fn", _TEXT["psi"], "UUDUDD", "UDUDUD"),
    (verify_theorem1, "psi_fn", _TEXT["psi"], "UUDUDD", "DUDUDU"),  # not Dyck
    (verify_theorem2, "psi_ext_fn", _TEXT["psi-ext"], "DUUD", "UDDU"),
    (verify_theorem2, "psi_ext_fn", _TEXT["psi-ext"], "DUUD", "UUUU"),  # not balanced
], ids=["dyck", "dyck-misfit", "bilateral", "bilateral-misfit"])
def test_an_inverse_wrong_on_one_word_fails_both_round_trips(
        monkeypatch, verify, arg, inverse, word, other):
    assert inverse(word) != other

    def wrong(text):
        return other if text == word else inverse(text)

    report = verify(4, **{arg: wrong}).to_dict()
    first, second, *rest = report["checks"]
    # the forward map sends inverse(word) to word, which the inverse misses
    assert (first["passed"], first["counterexample"]) == (False, inverse(word))
    assert (second["passed"], second["counterexample"]) == (False, word)
    assert all(check["passed"] for check in rest)
    assert report == _both_trips_swept(monkeypatch, verify, 4, **{arg: wrong})


def _reversed_but(word):
    """A matrix twin that reverses every word but ``word``, which it fixes."""
    def twin(mat, h=None):
        return dyckmaps.words._rows(
            [text if text == word else text[::-1] for text in _row_texts(mat)])
    return twin


def test_a_twin_image_outside_the_class_sweeps_the_second_trip(monkeypatch):
    # phi and psi reverse Dyck words out of the class, so both trips fail
    # first on UD, whose images DU lie outside C_1 (psi fixes only UUDD)
    maps = dyckmaps.maps._MAPS
    monkeypatch.setitem(maps, "phi", maps["phi"]._replace(rows=_reversed_but(None)))
    monkeypatch.setitem(maps, "psi", maps["psi"]._replace(rows=_reversed_but("UUDD")))
    report = verify_theorem1(3).to_dict()
    first, second = report["checks"][:2]
    assert (first["passed"], first["counterexample"]) == (False, "UD")
    assert (second["passed"], second["counterexample"]) == (False, "UD")
    assert report == _both_trips_swept(monkeypatch, verify_theorem1, 3)


def test_no_twin_sees_a_word_outside_its_class(monkeypatch):
    maps = dyckmaps.maps._MAPS
    phi_rows, psi_rows = maps["phi"].rows, maps["psi"].rows
    seen = []

    def phi_out_of_class(mat, h=None):  # reverses the words that start UUD
        image = phi_rows(mat, h)
        if len(mat) > 2:
            starts = (mat[:3] == np.array([[85], [85], [68]], np.uint8)).all(axis=0)
            image[:, starts] = mat[::-1, starts]
        return image

    def psi_recording(mat, h=None):
        if len(mat):
            seen.append(dyckmaps.words._dyck_rows(mat))
        return psi_rows(mat, h)

    monkeypatch.setitem(maps, "phi", maps["phi"]._replace(rows=phi_out_of_class))
    monkeypatch.setitem(maps, "psi", maps["psi"]._replace(rows=psi_recording))
    report = verify_theorem1(5).to_dict()
    first, second, peaks, contacts = report["checks"][:4]
    assert (first["passed"], first["counterexample"]) == (False, "UUDD")
    assert not peaks["passed"] and not contacts["passed"]
    assert len(seen) > 1 and all(columns.all() for columns in seen)
    assert report == _both_trips_swept(monkeypatch, verify_theorem1, 5)


@pytest.mark.parametrize("arg, fn", [("psi_fn", _TEXT["psi"]), ("phi_fn", _TEXT["phi"])],
                         ids=["psi_fn", "phi_fn"])
def test_a_class_size_mismatch_sweeps_the_second_trip(monkeypatch, arg, fn):
    calls = []

    def counted(text):
        calls.append(text)
        return fn(text)

    report = verify_theorem1(5, **{arg: counted})
    assert len(calls) == sum(CATALAN_NUMBERS[:6])  # once on each word or image
    wrong = list(CATALAN_NUMBERS)
    wrong[4] += 1
    monkeypatch.setattr(dyckmaps.verify, "CATALAN_NUMBERS", tuple(wrong))
    calls.clear()
    mismatched = verify_theorem1(5, **{arg: counted})
    # at n = 4 the second trip is swept too: once more on each word or image
    assert len(calls) == sum(CATALAN_NUMBERS[:6]) + CATALAN_NUMBERS[4]
    assert mismatched.checks[:-1] == report.checks[:-1]
    assert mismatched.checks[1].passed


def test_a_swept_second_trip_runs_in_the_sweep_pool(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(dyckmaps.verify, "Pool", _CountingPool)
    monkeypatch.setattr(_CountingPool, "opened", 0)
    report = verify_theorem1(6, phi_fn=_broken_phi, jobs=2)
    assert _CountingPool.opened == 1
    assert not report.checks[1].passed  # swept, since the first trip fails
    assert report.to_dict() == verify_theorem1(6, phi_fn=_broken_phi).to_dict()


def test_randomized_sweeps_its_second_trip(monkeypatch):
    rng = np.random.default_rng(1234)
    word = [_random_balanced_text(8, rng) for _ in range(50)][10]
    assert _TEXT["phi-ext"](word) != word

    def wrong(text):
        return text if text == word else _TEXT["psi-ext"](text)

    monkeypatch.setitem(dyckmaps.maps._MAPS, "psi-ext", wrong)
    report = verify_randomized(8, trials=50, seed=1234, check_scaling=False)
    second = next(c for c in report.checks if c.name == "random.round_trip.phi_after_psi")
    assert (second.passed, second.counterexample) == (False, word)


def _spec_of(monkeypatch, verify, n):
    """The record that ``verify(n)`` sweeps."""
    with monkeypatch.context() as patched:
        patched.setattr(dyckmaps.verify, "_sweep", lambda spec, max_n, jobs: spec)
        return verify(n)


def _full_block(n, dyck):
    chunk = dyckmaps.verify._CHUNK
    return next(b for b in _rank_blocks(n, dyck, chunk) if b[3] - b[2] == chunk)


def test_a_theorem2_chunk_builds_two_beta_sources(monkeypatch):
    built = []
    source = dyckmaps.maps._beta_source

    def counted(negative, returns):
        built.append(negative.copy())
        return source(negative, returns)

    spec = _spec_of(monkeypatch, verify_theorem2, 8)
    first = next(dyckmaps.verify._trips(spec))  # the pass a sweep runs
    block = _full_block(8, False)
    mat = _rank_rows(*block)
    image = dyckmaps.maps._phi_ext_rows(mat)
    monkeypatch.setattr(dyckmaps.maps, "_beta_source", counted)
    size, failures = dyckmaps.verify._check_chunk(block, first)
    assert (size, failures) == (dyckmaps.verify._CHUNK, {})
    # the words' source for phi_ext, then the image's for psi_ext
    assert len(built) == 2
    for negative, words in zip(built, (mat, image)):
        assert np.array_equal(negative, _negative_steps(words, _up_and_heights(words)[1]))


@pytest.mark.parametrize("trip", [0, 1], ids=["first_trip", "second_trip"])
@pytest.mark.parametrize("verify, n, dyck", [(verify_theorem1, 10, True),
                                             (verify_theorem2, 8, False)],
                         ids=["verify_theorem1", "verify_theorem2"])
def test_a_full_chunk_peaks_under_30_bytes_per_step(monkeypatch, verify, n, dyck, trip):
    spec = list(dyckmaps.verify._trips(_spec_of(monkeypatch, verify, n)))[trip]
    block = _full_block(n, dyck)
    dyckmaps.verify._check_chunk(block, spec)  # numpy's one-time set-up is not the chunk's
    tracemalloc.start()
    try:
        dyckmaps.verify._check_chunk(block, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = 2 * n * dyckmaps.verify._CHUNK
    # theorem 2's first trip peaks near 25 bytes a step: the old bound of
    # 36 would have let one more int64 matrix of the chunk's shape, 8 bytes
    # a step, through
    assert peak < 30 * steps, peak / steps


def test_a_full_chunk_keeps_uint16_sort_keys_up_to_n15():
    # phi sorts the heights of a chunk's Dyck words, at most n
    assert _key_type(15, dyckmaps.verify._CHUNK) is np.uint16
    assert _key_type(16, dyckmaps.verify._CHUNK) is np.int32


@pytest.mark.parametrize("n", range(9))
def test_expected_failures_agree_on_both_paths(monkeypatch, n):
    batched = verify_theorem2(n, include_contact_preservation=True).to_dict()
    beta_batched = verify_involutions_and_transport(
        n, include_beta_peak_preservation=True).to_dict()
    calls = []

    def counted(text):
        calls.append(text)
        return _phi_ext_wrapped(text)

    per_word = verify_theorem2(
        n, include_contact_preservation=True, phi_ext_fn=counted).to_dict()
    # once on each word: its round trips pass, so the second follows
    assert len(calls) == sum(CENTRAL_BINOMIALS[: n + 1])
    beta_calls = []

    def beta_counted(text):
        beta_calls.append(text)
        return _beta_wrapped(text)

    monkeypatch.setitem(dyckmaps.maps._MAPS, "beta", beta_counted)  # alpha stays batched
    beta_per_word = verify_involutions_and_transport(
        n, include_beta_peak_preservation=True).to_dict()
    assert len(beta_calls) == 2 * sum(CATALAN_NUMBERS[: n + 1])  # beta is its own inverse
    assert per_word == batched
    assert beta_per_word == beta_batched
    contacts = next(c for c in batched["checks"]
                    if c["name"] == "bilateral.contacts_preserved")
    peaks = next(c for c in beta_batched["checks"]
                 if c["name"] == "beta.transport.peaks_preserved")
    if n == 8:  # the comparison covers real counterexamples
        assert contacts["counterexample"] and peaks["counterexample"]
