"""Brute-force verification engine for the library's central claims.

Each function sweeps a word class exhaustively (or samples it) and checks
round trips and statistic transport, returning a
:class:`VerificationReport`.  The theorems' distribution identities are
counted exactly, every semilength of a sweep from one run of the dynamic
program of :func:`~dyckmaps.generate.distribution`; the sweep only checks
that it saw the whole class.

A sweep reads each class in chunks of at most ``_CHUNK`` = 4,096 words,
the rank ranges of :func:`~dyckmaps.generate._rank_blocks` in lexicographic
order.  One worker checks every chunk as a ``(2n, words)`` uint8 matrix
whose steps run down axis 0: each map runs once on the chunk, the words
and images are scanned once each, and the checks are predicates on whole
columns.  Default maps, ``maps._MAPS`` records, run their twins.  A chunk peaks
under 30 bytes per step, and phi packs its sort keys into uint32 up to n = 15.
:func:`verify_randomized` passes its samples to the same worker.

Each theorem is a bijection of the finite class C_n of words of semilength
n, so a first round trip that holds on all of C_n implies the second, the
first trip of the maps swapped (:func:`_trips`), which :func:`_sweep` runs
only where the first fails or a class size is off; samples cover no class,
so :func:`verify_randomized` runs both.  This needs maps that are functions
and an enumerator that yields C_n once, as the tests check by an oracle.

The map arguments of the exhaustive engines are injectable so that a
deliberately broken map can be shown to produce a counterexample.  An
injected map runs word by word and its images are stacked into a matrix;
an image that cannot be a column of it (no text of the word's length over
U and D) or that lies outside the class fails every check of its word.
A counterexample is the first failing word of the first failing chunk,
and chunks are merged in stream order, so it is the lexicographically
first failing word and reproducible from (check name, word) alone.
"""

from __future__ import annotations

import os
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from multiprocessing import Pool
from typing import NamedTuple

import numpy as np

from .decompose import _negative_steps
from .generate import (
    CATALAN_NUMBERS,
    CENTRAL_BINOMIALS,
    _check_rank_n,
    _dyck_texts,
    _random_balanced_text,
    _rank_blocks,
    _rank_rows,
    _transfer_counts,
)
from .maps import _MAPS, _Map, _beta_b
from .words import (_D, _U, _dyck_rows, _row_texts, _rows, _scan_rows, _scan_text,
                    _up_and_heights)

_CHUNK = 4096  # words per chunk of a sweep


@dataclass
class CheckResult:
    """Outcome of one named check over one class and range of semilengths."""

    name: str
    path_class: str
    n_range: tuple
    words_tested: int
    passed: bool
    counterexample: str | None = None
    witness: str | None = None
    note: str = ""

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lo, hi = self.n_range
        line = (
            f"{status}  {self.name}  class={self.path_class} "
            f"n={lo}..{hi} words={self.words_tested}"
        )
        if self.counterexample is not None:
            line += f" counterexample={self.counterexample or '(empty)'}"
        if self.witness is not None:
            line += f" witness={self.witness}"
        if self.note:
            line += f" ({self.note})"
        return line


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_text(self) -> str:
        lines = [c.format_line() for c in self.checks]
        failed = sum(not c.passed for c in self.checks)
        lines.append(
            f"{len(self.checks)} checks, "
            + ("all passed" if not failed else f"{failed} FAILED")
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "class": c.path_class,
                    "n_range": list(c.n_range),
                    "words_tested": c.words_tested,
                    "passed": c.passed,
                    "counterexample": c.counterexample,
                    "witness": c.witness,
                    "note": c.note,
                }
                for c in self.checks
            ],
        }


def _check_jobs(jobs: int, maps: dict) -> int:
    """Validate a worker-process count, clamp it to the CPU count, and make
    sure that the maps can be sent to the worker processes it asks for."""
    cpus = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(
            f"jobs must be at least 1 (values above the {cpus} CPUs are "
            f"clamped to {cpus}), got {jobs}"
        )
    jobs = min(jobs, cpus)
    if jobs > 1:
        for arg, fn in maps.items():
            try:
                pickle.dumps(fn)
            except (pickle.PicklingError, AttributeError, TypeError) as exc:
                raise ValueError(
                    f"{arg} cannot be sent to worker processes (jobs > 1): {exc}"
                ) from None
    return jobs


def _results(spec, n_range, total, failures) -> list:
    """One CheckResult per named check of a record, failed on a counterexample."""
    names = spec.round_trips + tuple(name for name, _ in spec.checks)
    return [
        CheckResult(name, spec.path_class, n_range, total, name not in failures,
                    counterexample=failures.get(name))
        for name in names
    ]


# --- the theorems, stated as data and run by one sweep ----------------------

def _try(fn, arg):
    """fn(arg), or None when it raises or returns anything but text, so that
    broken injected maps surface as counterexamples instead of crashes."""
    try:
        image = fn(arg)
    except Exception:
        return None
    return image if isinstance(image, str) else None


# Checks: predicate(mat, image, h, hi, s, si) on the words of a chunk and
# their images under the forward map, one per column of two uint8
# matrices, with the heights and the scans of both; True for each column
# where the check holds.

def _peaks_from_ups_odd(mat, image, h, hi, s, si):
    return si.peaks == s.ups_odd


def _contacts_preserved(mat, image, h, hi, s, si):
    return si.contacts == s.contacts


def _crossings_preserved(mat, image, h, hi, s, si):
    return si.crossings == s.crossings


def _factors_preserved(mat, image, h, hi, s, si):
    # factors alternate in sign, so the steps below the axis fix them all
    return (_negative_steps(mat, h) == _negative_steps(image, hi)).all(axis=0)


class _Theorem(NamedTuple):
    """A bijection theorem or an involution stated as data for :func:`_sweep`.

    ``path_class``, "dyck" or "bilateral", fixes the words and class sizes.
    ``maps`` maps a name for each map (that of the argument injecting it,
    where one does) to the map, a ``_MAPS`` record or a function on text:
    forward then inverse, or an involution's one map.  A chunk runs one
    round trip (:func:`_trips`) and ``checks``, (name, predicate) pairs.
    The exact distributions of the ``dist_keys`` (two tuples of statistic
    names, or none) must agree at every semilength; ``dist_check`` holds
    that check's name and the noun of its failure note.
    """

    path_class: str
    maps: dict
    round_trips: tuple  # check names: inverse after forward, forward after inverse
    checks: tuple
    dist_keys: tuple
    dist_check: tuple


def _images(fn, mat, *args):
    """fn on words, one per column: the images as a matrix, and which do
    not fit it.  A ``_MAPS`` record runs its twin on the matrix with ``args``;
    any other map runs word by word through :func:`_try`; an image fits as
    text of its word's length over U and D; a misfit's column is no image."""
    if isinstance(fn, _Map):
        return fn.rows(mat, *args), False
    texts = _row_texts(mat)
    images = [_try(fn, text) for text in texts]
    fits = np.array([image is not None and len(image) == len(text) and image.isascii()
                     for image, text in zip(images, texts)], dtype=bool)
    out = _rows([image if fit else text for image, text, fit in zip(images, texts, fits)])
    fits &= ((out == _U) | (out == _D)).all(axis=0)
    return out, ~fits


def _check_chunk(chunk, spec: _Theorem):
    """The size of one chunk and the first failing word of each check.

    ``chunk`` is a ``(steps, words)`` uint8 matrix or the arguments of
    :func:`_rank_rows`, which is what a worker process is sent.  The words
    make the one round trip of ``spec``; they and their images are scanned
    for heights once each, and the class test, the maps, the scans and the
    checks share them.  A word whose image misfits (:func:`_images`) or
    lies outside the class fails the trip and every check, and here its
    image column takes the word, so the inverse sees only words of its class.
    """
    mat = chunk if isinstance(chunk, np.ndarray) else _rank_rows(*chunk)
    forward, *rest = spec.maps.values()
    inverse = rest[0] if rest else forward
    h = _up_and_heights(mat)[1]
    image, misfit = _images(forward, mat, h)
    hi = _up_and_heights(image)[1]
    if len(hi):  # the second trip follows only from images in the class
        dyck = spec.path_class == "dyck"
        misfit = misfit | ~(_dyck_rows(image, hi) if dyck else hi[-1] == 0)
        if misfit.any():
            image, hi = np.where(misfit, mat, image), np.where(misfit, h, hi)
    back, back_misfit = _images(inverse, image, hi)
    failing = {spec.round_trips[0]: misfit | back_misfit | (back != mat).any(axis=0)}
    del back
    s = _scan_rows(mat, h)
    si = _scan_rows(image, hi)
    for name, holds in spec.checks:
        failing[name] = misfit | ~holds(mat, image, h, hi, s, si)
    # the first failing word of each check, in lexicographic order
    failures = {name: _row_texts(mat[:, [words.argmax()]])[0]
                for name, words in failing.items() if words.any()}
    return mat.shape[1], failures


def _trips(spec: _Theorem):
    """One-trip records: the first round trip and the checks, then the maps swapped."""
    yield spec._replace(round_trips=spec.round_trips[:1])
    if len(spec.maps) == 2:
        yield spec._replace(maps=dict(reversed(spec.maps.items())),
                            round_trips=spec.round_trips[1:], checks=())


def _sweep_n(imap, spec: _Theorem, chunks) -> tuple:
    """The words of the chunks of :func:`_check_chunk` and each check's first failure."""
    count, failures = 0, {}
    for size, fails in imap(partial(_check_chunk, spec=spec), chunks):
        count += size
        for name, word in fails.items():
            failures.setdefault(name, word)
    return count, failures


def _sweep(spec: _Theorem, max_n: int, jobs: int) -> VerificationReport:
    """Check one theorem over its whole class at every semilength 0..max_n.

    Every chunk is a rank range of :func:`_rank_blocks` with at most
    ``_CHUNK`` words, in lexicographic order, checked by
    :func:`_check_chunk`, in worker processes when ``jobs`` > 1.

    A theorem with two maps runs its first round trip and its checks on
    each class C_n.  If no word fails that trip (as an image outside C_n
    does) and the sweep counted |C_n| words (``CATALAN_NUMBERS`` or
    ``CENTRAL_BINOMIALS``), the forward map is injective on the finite C_n,
    hence onto it, so for v = forward(w), forward(inverse(v)) = forward(w) = v,
    given maps with no state and the same output for the same input.  Otherwise
    the second trip of :func:`_trips` sweeps the same chunks in the same pool;
    its failures join the first's, so each counterexample is a full sweep's.

    The distribution identity reads only the swept words' own statistics,
    which no map changes, so it is counted exactly in this process.
    """
    _check_rank_n(max_n)  # before the classes below max_n are swept
    jobs = _check_jobs(jobs, spec.maps)
    dyck = spec.path_class == "dyck"
    sizes = CATALAN_NUMBERS if dyck else CENTRAL_BINOMIALS
    first, *second = _trips(spec)
    failures = {}  # first counterexample per check name, in stream order
    total = 0
    dist_note = ""  # why the distribution check fails, if it does
    tables = [_transfer_counts(max(max_n, 0), dyck, keys, True) for keys in spec.dist_keys]
    # one pool for every semilength; the builtin map runs chunks in-process
    with (Pool(jobs) if jobs > 1 else nullcontext()) as pool:
        imap = map if pool is None else pool.imap
        for n in range(max_n + 1):
            blocks = list(_rank_blocks(n, dyck, _CHUNK))  # a second trip reads them again
            count_n, fails = _sweep_n(imap, first, blocks)
            sized = n < len(sizes) and count_n == sizes[n]
            if second and (first.round_trips[0] in fails or not sized):
                fails.update(_sweep_n(imap, second[0], blocks)[1])  # join, not replace
            for name, word in fails.items():
                failures.setdefault(name, word)
            total += count_n
            if not dist_note and n < len(sizes) and not sized:
                dist_note = f"class size mismatch at n={n}: {count_n}"
            if not dist_note and spec.dist_keys:
                dist_a, dist_b = (table[n] for table in tables)
                if dist_a != dist_b:
                    diff = min(k for k in dist_a.keys() | dist_b.keys()
                               if dist_a.get(k) != dist_b.get(k))
                    dist_note = f"{spec.dist_check[1]} differ at n={n}, key={diff}"
    rng = (0, max_n)
    report = VerificationReport(_results(spec, rng, total, failures))
    if spec.dist_keys:
        report.checks.append(CheckResult(
            spec.dist_check[0], spec.path_class, rng, total, not dist_note, note=dist_note
        ))
    return report


def verify_theorem1(
    max_n: int, *, phi_fn=None, psi_fn=None, jobs: int = 1
) -> VerificationReport:
    """Exhaustively check the Dyck bijection up to semilength max_n.

    Checks that psi inverts phi and vice versa, that phi sends the
    odd-height up-step count to the peak count while preserving contacts,
    and that the joint (contacts, ups_odd) and (contacts, peaks)
    distributions coincide at every semilength.  psi(phi(w)) = w on a
    finite class makes phi onto it, so phi(psi(v)) = v is swept only where
    that fails (:func:`_sweep`); injected maps must be functions.
    """
    theorem = _Theorem(
        "dyck",
        {"phi_fn": phi_fn or _MAPS["phi"], "psi_fn": psi_fn or _MAPS["psi"]},
        ("dyck.round_trip.psi_after_phi", "dyck.round_trip.phi_after_psi"),
        (
            ("dyck.transport.peaks_from_ups_odd", _peaks_from_ups_odd),
            ("dyck.transport.contacts_preserved", _contacts_preserved),
        ),
        (("contacts", "ups_odd"), ("contacts", "peaks")),
        ("dyck.joint_distribution.contacts_x_stats", "joint distributions"),
    )
    return _sweep(theorem, max_n, jobs)


def verify_theorem2(
    max_n: int,
    *,
    phi_ext_fn=None,
    psi_ext_fn=None,
    include_contact_preservation: bool = False,
    jobs: int = 1,
) -> VerificationReport:
    """Exhaustively check the bilateral bijection up to semilength max_n.

    Checks the round trips, the peaks / odd-height-up-steps transport, and
    preservation of the crossing count and of the whole crossing-factor
    structure; the peak and odd-up-step distributions are compared at every
    semilength.  ``include_contact_preservation`` adds a contact check that
    is expected to fail (the negative-factor conjugation moves contacts) and
    exists as a negative control.  The second round trip follows from the
    first, as in :func:`verify_theorem1`; injected maps must be functions.
    """
    checks = (
        ("bilateral.transport.peaks_from_ups_odd", _peaks_from_ups_odd),
        ("bilateral.crossings_preserved", _crossings_preserved),
        ("bilateral.factor_structure_preserved", _factors_preserved),
    )
    if include_contact_preservation:
        checks += (("bilateral.contacts_preserved", _contacts_preserved),)
    theorem = _Theorem(
        "bilateral",
        {
            "phi_ext_fn": phi_ext_fn or _MAPS["phi-ext"],
            "psi_ext_fn": psi_ext_fn or _MAPS["psi-ext"],
        },
        ("bilateral.round_trip.psi_after_phi", "bilateral.round_trip.phi_after_psi"),
        checks,
        (("ups_odd",), ("peaks",)),
        ("bilateral.distribution.peaks_eq_ups_odd", "distributions"),
    )
    return _sweep(theorem, max_n, jobs)


# --- involutions and their transports --------------------------------------

def _peak_valley_swap(mat, image, h, hi, s, si):
    return (si.peaks == s.valleys) & (si.valleys == s.peaks)


def _parity_swap(mat, image, h, hi, s, si):
    return si.ups_odd == s.ups - s.downs_odd  # downs at even height of a balanced word


def _odd_to_even_shift(mat, image, h, hi, s, si):
    # vacuous on the empty word, which beta fixes
    return (s.ups == 0) | (si.ups - si.ups_odd == s.ups_odd - 1)


def _peaks_preserved(mat, image, h, hi, s, si):
    return si.peaks == s.peaks


def _beta_moves_contacts(text) -> bool:
    image = _beta_b(text.encode("ascii")).decode("ascii")
    return _scan_text(image).contacts != _scan_text(text).contacts


def verify_involutions_and_transport(
    max_n: int, *, include_beta_peak_preservation: bool = False, jobs: int = 1
) -> VerificationReport:
    """Check that alpha and beta are involutions and transport statistics.

    alpha must swap peaks with valleys and odd-height up-steps with
    even-height down-steps over all balanced words; beta must shift one
    up-step from odd to even height over nonempty Dyck words.  A witness
    that beta changes the contact count is searched through semilength
    max(max_n, 3) and its existence is itself a check.
    ``include_beta_peak_preservation`` adds a peak-preservation check for
    beta that is expected to fail (beta does not preserve peak count).
    """
    alpha = _Theorem(
        "bilateral", {"alpha": _MAPS["alpha"]}, ("alpha.involution",),
        (
            ("alpha.transport.peak_valley_swap", _peak_valley_swap),
            ("alpha.transport.parity_swap", _parity_swap),
        ),
        (), (),
    )
    beta_checks = (("beta.transport.odd_to_even_shift", _odd_to_even_shift),)
    if include_beta_peak_preservation:
        beta_checks += (("beta.transport.peaks_preserved", _peaks_preserved),)
    beta = _Theorem(
        "dyck", {"beta": _MAPS["beta"]}, ("beta.involution",), beta_checks, (), ()
    )
    report = _sweep(alpha, max_n, jobs)
    report.checks += _sweep(beta, max_n, jobs).checks
    # a search for one word, not a check over the class
    witness_n = max(max_n, 3)
    dyck_words = chain.from_iterable(map(_dyck_texts, range(witness_n + 1)))
    witness = next(filter(_beta_moves_contacts, dyck_words), None)
    report.checks.append(
        CheckResult("beta.contact_change_witness", "dyck", (0, witness_n),
                    report.checks[-1].words_tested,  # the Dyck words swept
                    witness is not None, witness=witness)
    )
    return report


# --- randomized / performance ----------------------------------------------

def _time_maps(fn, batches, repeats: int = 2) -> list:
    """The least time fn takes over each batch of words.  The batches take
    turns, so that a slowdown of the host that lasts a while falls on every
    batch alike instead of on the last ones."""
    best = [float("inf")] * len(batches)
    for _ in range(repeats):
        for i, texts in enumerate(batches):
            start = time.perf_counter()
            for text in texts:
                fn(text)
            best[i] = min(best[i], time.perf_counter() - start)
    return best


def verify_randomized(
    n: int, trials: int, seed: int, *, check_scaling: bool = True
) -> VerificationReport:
    """Round trips and transport on uniform random balanced words.

    Sweeps both trips of :func:`_trips` over ``trials`` samples of semilength
    ``n``; additionally times the forward map on words of semilength 2n and
    checks that total cost grew by at most 2.5x (linear scaling), unless
    the sample is too small for timing to mean anything (n < 64 or trials < 2).
    """
    if n < 0:
        raise ValueError(f"semilength n must be nonnegative, got {n}")
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    rng = np.random.default_rng(seed)
    texts = [_random_balanced_text(n, rng) for _ in range(trials)]
    spec = _Theorem(
        "bilateral",
        {"phi_ext_fn": _MAPS["phi-ext"], "psi_ext_fn": _MAPS["psi-ext"]},
        ("random.round_trip.psi_after_phi", "random.round_trip.phi_after_psi"),
        (("random.transport.peaks_from_ups_odd", _peaks_from_ups_odd),),
        (), (),
    )
    # chunks no larger than a sweep's at n = 16, which bounds their memory
    size = min(_CHUNK, max(1, 32 * _CHUNK // max(2 * n, 1)))
    failures = {}
    for trip in _trips(spec):  # the trips' check names differ
        chunks = (_rows(texts[start : start + size]) for start in range(0, trials, size))
        failures.update(_sweep_n(map, trip, chunks)[1])
    report = VerificationReport(_results(spec, (n, n), trials, failures))
    if check_scaling and n >= 64 and trials >= 2:
        doubled = [_random_balanced_text(2 * n, rng) for _ in range(trials)]
        t_base, t_doubled = _time_maps(_MAPS["phi-ext"].text, (texts, doubled))
        ratio = t_doubled / t_base if t_base > 0 else float("inf")
        report.checks.append(
            CheckResult("random.linear_scaling", "bilateral", (n, 2 * n),
                        2 * trials, ratio <= 2.5,
                        note=f"time ratio for doubled length: {ratio:.2f}")
        )
    return report
