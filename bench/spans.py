"""In-memory spans and counters, and the per-layer metrics derived from them.

A span is (name, start, end, parent, run id) plus the steps and words it
covered.  Spans are recorded only by the benchmark's own code, around calls
into the public functions of each dyckmaps module; nothing inside the
package is patched.  Spans stay in memory and are written once, at the end
of a traced run.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "steps", "words")

    def __init__(self, name, parent, run, steps, words):
        self.name = name
        self.parent = parent
        self.run = run
        self.steps = steps
        self.words = words
        self.start = self.end = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Records spans and counters for one run id ('main' or 'probe')."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, steps: int = 0, words: int = 0):
        sp = Span(name, self._open[-1] if self._open else None, self.run, steps, words)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        sp.start = perf_counter_ns()
        try:
            yield sp
        finally:
            sp.end = perf_counter_ns()
            self._open.pop()

    def add(self, counter: str, value: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value


class NullTracer:
    """Stands in for a Tracer in untraced passes; records nothing."""

    def span(self, name, steps=0, words=0):
        return nullcontext()

    def add(self, counter, value):
        pass


NULL = NullTracer()


def _totals(spans):
    out = {}
    for sp in spans:
        t = out.setdefault(sp.name, [0, 0, 0])
        t[0] += sp.ns
        t[1] += sp.steps
        t[2] += sp.words
    return out


def _replay_children_ns(spans, replay_name):
    """Time covered by the direct children of every span named replay_name."""
    parents = {i for i, sp in enumerate(spans) if sp.name == replay_name}
    return sum(sp.ns for sp in spans if sp.parent in parents)


# Span names whose time per step or per word becomes a per-layer metric.
_PER_STEP = (
    "words.parse_word", "words.classify",
    "stats.stat_record.short", "stats.stat_record.long",
    "decompose.crossing_factorize.short", "decompose.crossing_factorize.long",
    "maps.phi.short", "maps.psi.short", "maps.phi_ext.short", "maps.psi_ext.short",
    "maps.phi.long", "maps.psi.long", "maps.phi_ext.long", "maps.psi_ext.long",
)
_PER_WORD = ("generate.generate_dyck", "generate.generate_bilateral")
# Layer calls timed per traced pass, as (busy_s reported, self_s reported).
# A self time subtracts the replay of the public calls the layer makes on the
# same inputs (see workloads.py), so it is an estimate and may be negative.
_CALLS = {
    "generate.distribution": (True, True),
    "verify.verify_theorem1": (True, True),
    "verify.verify_theorem2": (True, True),
    "verify.verify_involutions_and_transport": (True, False),
    "cli.run.map": (True, True),
    "cli.run.stats": (False, True),
}


def derive(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics from one tracer's spans over `passes` traced passes.

    A metric whose layer has no span in this tracer is left out.
    """
    spans = tracer.spans
    totals = _totals(spans)
    out = {}
    for name in _PER_STEP:
        ns, steps, _ = totals.get(name, (0, 0, 0))
        if steps:
            out[name + ".ns_per_step"] = ns / steps
    for name in _PER_WORD:
        ns, _, words = totals.get(name, (0, 0, 0))
        if words:
            out[name + ".ns_per_word"] = ns / words
    for name, (report_busy, report_self) in _CALLS.items():
        if name not in totals:
            continue
        busy = totals[name][0]
        if report_busy:
            out[name + ".busy_s"] = busy / passes / 1e9
        if report_self:
            replayed = _replay_children_ns(spans, "replay." + name)
            out[name + ".self_s"] = (busy - replayed) / passes / 1e9
    factorized = totals.get("decompose.crossing_factorize.short", (0, 0, 0))[2] + \
        totals.get("decompose.crossing_factorize.long", (0, 0, 0))[2]
    if factorized:
        out["decompose.factors_per_word"] = tracer.counts["decompose.factors"] / factorized
    if "verify.words_tested" in tracer.counts:
        out["verify.words_tested"] = tracer.counts["verify.words_tested"] / passes
    if "cli.lines" in tracer.counts:
        out["cli.lines"] = tracer.counts["cli.lines"] / passes
    return out


def overhead_frac(traced_s: list, untraced_s: list) -> float:
    """Median traced pass wall time against median untraced pass wall time."""
    return statistics.median(traced_s) / statistics.median(untraced_s) - 1.0


def write_spans(path, tracers) -> None:
    with open(path, "w") as fh:
        json.dump([sp.to_dict() for tr in tracers for sp in tr.spans], fh)
