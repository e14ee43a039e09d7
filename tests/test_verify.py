import io
import json
import os
from functools import partial
from pathlib import Path
from unittest import mock

import pytest

import dyckmaps.verify
from dyckmaps import (
    cli,
    verify_involutions_and_transport,
    verify_randomized,
    verify_theorem1,
    verify_theorem2,
)
from dyckmaps.maps import _alpha_text, _beta_text, _phi_text

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


@pytest.mark.parametrize(
    "verify", [verify_theorem1, verify_theorem2], ids=lambda f: f.__name__
)
def test_parallel_matches_serial(verify):
    serial = verify(5, jobs=1)
    parallel = verify(5, jobs=2)
    assert serial.to_dict() == parallel.to_dict()


def _no_pool(*args, **kwargs):
    raise AssertionError("no worker process may start")


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


def _cli_verify(fmt):
    out = io.StringIO()
    assert cli.run(["verify", "--max-n", "8", "--format", fmt], stdout=out) == 0
    return out.getvalue()


def _report_json(report):
    return json.dumps(report.to_dict(), indent=2) + "\n"


# Outputs captured from the engines before they were merged into one sweep
# driver; any change to names, order, counts or counterexamples shows here.
_GOLDEN = {
    "verify_max_n_8.txt": lambda: _cli_verify("text"),
    "verify_max_n_8.json": lambda: _cli_verify("json"),
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
