"""The benchmark workloads: seeded inputs, one timed pass, the replays a traced
run adds, and the output checks that decide `failed`.

A pass returns its outputs and its first-output times in seconds: for each
`map` call through the CLI, the time until 1% of its lines had arrived; in a
workload without the CLI, the time until the first call of the pass returned.

Inputs come from the benchmark's own generators (numpy's default_rng, the
cycle lemma for Dyck words, a shuffle for balanced words), never from
dyckmaps.sample_*, so a library change cannot change a workload.  The checks
are oracles the benchmark holds itself: closed-form counts computed with
math.comb, statistics counted with the benchmark's own numpy code, and exact
round trips.

Every workload runs at jobs=1.  Sizes are chosen so that a pass takes one to
five seconds on a 2-core box and a run of the benchmark holds several passes.
"""

from __future__ import annotations

import io
import math
from time import perf_counter

import numpy as np

import dyckmaps as dm
from dyckmaps import cli

U, D = 85, 68  # ord('U'), ord('D')


# --- inputs ----------------------------------------------------------------

def dyck_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform Dyck word of semilength n by the cycle lemma, as ASCII bytes.

    Of the 2n+1 rotations of a shuffled sequence of n+1 up-steps and n
    down-steps, exactly one has all prefix sums positive: the one starting at
    the last minimum of the prefix sums.  Its first step is an up-step;
    dropping it leaves a Dyck word, uniformly distributed.
    """
    delta = np.full(2 * n + 1, -1, dtype=np.int8)
    delta[: n + 1] = 1
    rng.shuffle(delta)
    before = np.concatenate(([0], np.cumsum(delta[:-1], dtype=np.int64)))
    start = len(before) - 1 - int(np.argmin(before[::-1]))
    body = np.roll(delta, -start)[1:]
    return np.where(body > 0, U, D).astype(np.uint8)


def balanced_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`count` uniform balanced words of semilength n, one per row."""
    base = np.array([U] * n + [D] * n, dtype=np.uint8)
    return rng.permuted(np.tile(base, (count, 1)), axis=1)


# --- oracles ---------------------------------------------------------------

def class_sizes(path_class: str, max_n: int) -> list:
    """Class size at each semilength 0..max_n, from math.comb."""
    if path_class == "dyck":
        return [math.comb(2 * n, n) // (n + 1) for n in range(max_n + 1)]
    return [math.comb(2 * n, n) for n in range(max_n + 1)]


def narayana_row(n: int) -> dict:
    """Dyck words of semilength n by number of peaks."""
    return {k: math.comb(n, k) * math.comb(n, k - 1) // n for k in range(1, n + 1)}


def contacts_row(n: int) -> dict:
    """Dyck words of semilength n by number of returns to the axis."""
    return {k: k * math.comb(2 * n - k, n) // (2 * n - k) for k in range(1, n + 1)}


def ups_odd_row(n: int) -> dict:
    """Balanced words of semilength n by number of up-steps at odd height."""
    return {k: math.comb(n, k) ** 2 for k in range(n + 1)}


_ROWS = 1024  # rows per numpy block, so the oracle's memory stays small


def own_stats(mat: np.ndarray) -> dict:
    """Statistics of equal-length words (one per row), counted by definition.

    Heights are vertex heights after each step; an up-step is at odd height
    when it ends at an odd height, a down-step when it starts at one.
    """
    rows, length = mat.shape
    names = ("peaks", "valleys", "contacts", "crossings", "ups_odd", "ups",
             "downs_odd", "max_height", "min_height")
    out = {k: np.zeros(rows, dtype=np.int64) for k in names}
    for a in range(0, rows, _ROWS):
        up = mat[a : a + _ROWS] == U
        step = np.where(up, 1, -1).astype(np.int32)
        h = np.cumsum(step, axis=1, dtype=np.int32)
        out["peaks"][a : a + _ROWS] = np.count_nonzero(up[:, :-1] & ~up[:, 1:], axis=1)
        out["valleys"][a : a + _ROWS] = np.count_nonzero(~up[:, :-1] & up[:, 1:], axis=1)
        out["contacts"][a : a + _ROWS] = np.count_nonzero(h == 0, axis=1)
        out["crossings"][a : a + _ROWS] = np.count_nonzero(
            (h[:, :-1] == 0) & (up[:, :-1] == up[:, 1:]), axis=1)
        out["ups_odd"][a : a + _ROWS] = np.count_nonzero(up & (h % 2 != 0), axis=1)
        out["ups"][a : a + _ROWS] = np.count_nonzero(up, axis=1)
        out["downs_odd"][a : a + _ROWS] = np.count_nonzero(~up & ((h + 1) % 2 != 0), axis=1)
        out["max_height"][a : a + _ROWS] = np.maximum(h.max(axis=1), 0)
        out["min_height"][a : a + _ROWS] = np.minimum(h.min(axis=1), 0)
    out["n"] = np.full(rows, length // 2, dtype=np.int64)
    return out


def own_record(text: str) -> dict:
    """The StatRecord fields of one balanced word, from own_stats."""
    s = {k: int(v[0]) for k, v in own_stats(as_row(text)).items()}
    downs = len(text) - s["ups"]
    return {
        "n": s["n"], "peaks": s["peaks"], "valleys": s["valleys"],
        "contacts": s["contacts"], "crossings": s["crossings"],
        "ups_odd": s["ups_odd"], "ups_even": s["ups"] - s["ups_odd"],
        "downs_odd": s["downs_odd"], "downs_even": downs - s["downs_odd"],
        "max_height": s["max_height"], "min_height": s["min_height"],
        "is_prime": s["min_height"] >= 0 and s["contacts"] == 1,
    }


def own_class(rec: dict) -> str:
    if not rec["n"]:
        return "empty"
    if rec["min_height"] >= 0:
        return "dyck"
    return "negative_dyck" if rec["max_height"] <= 0 else "bilateral_proper"


def as_row(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)[None, :]


def step_rows(lines: list, length: int) -> tuple:
    """Stack the lines that are words of exactly `length` U/D steps.

    Returns (matrix, indices of the stacked lines); any other line is left
    out, so a caller counts it as failed.
    """
    keep = [i for i, x in enumerate(lines) if len(x) == length]
    data = "".join(lines[i] for i in keep).encode("ascii", "replace")
    mat = np.frombuffer(data, dtype=np.uint8).reshape(len(keep), length)
    valid = ((mat == U) | (mat == D)).all(axis=1)
    return mat[valid], [i for i, ok in zip(keep, valid) if ok]


def class_steps(sizes: list) -> int:
    """Total steps of all words of the given class sizes (index = semilength)."""
    return sum(2 * n * count for n, count in enumerate(sizes))


def _mismatches(got: dict, want: dict) -> tuple:
    """(keys compared, keys whose counts differ) over both key sets."""
    keys = got.keys() | want.keys()
    return len(keys), sum(got.get(k) != want.get(k) for k in keys)


# --- CLI plumbing ----------------------------------------------------------

class Capture:
    """Stdout for cli.run that keeps the text and notes when 1% of the
    expected lines (at least one) has arrived."""

    def __init__(self, lines: int):
        self.parts = []
        self.target = max(1, math.ceil(lines / 100))
        self.seen = 0
        self.first_at = None

    def write(self, s: str) -> int:
        self.parts.append(s)
        if self.first_at is None:
            self.seen += s.count("\n")
            if self.seen >= self.target:
                self.first_at = perf_counter()
        return len(s)

    def flush(self) -> None:
        pass

    def getvalue(self) -> str:
        return "".join(self.parts)


def run_cli(argv: list, stdin_text: str, lines: int) -> tuple:
    """One cli.run call; returns (exit code, stdout text, seconds to first output)."""
    out, err = Capture(lines), io.StringIO()
    stdin = io.StringIO(stdin_text)
    start = perf_counter()
    rc = cli.run(argv, stdin=stdin, stdout=out, stderr=err)
    end = perf_counter()
    return rc, out.getvalue(), (out.first_at or end) - start


def _map_batch(tr, name: str, fn, words: list, steps: int) -> list:
    with tr.span(name, steps, len(words)):
        return [fn(w) for w in words]


def _enumerate(tr, path_class: str, n: int) -> list:
    size = class_sizes(path_class, n)[n]
    with tr.span("generate.generate_" + path_class, 2 * n * size, size):
        return list(dm.generate_dyck(n) if path_class == "dyck"
                    else dm.generate_bilateral(n))


# --- workloads -------------------------------------------------------------

class Sweep:
    """Exhaustive verification of both theorems, as `dyckmaps verify` runs it."""

    name = "sweep"
    SIZES = {"full": (10, 8), "probe": (5, 4)}

    def __init__(self, seed: int, scale: str = "full"):
        self.n1, self.n2 = self.SIZES[scale]
        dyck1 = class_sizes("dyck", self.n1)
        bal2 = class_sizes("bilateral", self.n2)
        dyck2 = class_sizes("dyck", self.n2)
        # theorem 1 sweeps dyck1; theorem 2 and the involution check sweep
        # bal2, and the involution check sweeps dyck2 as well
        self.words = sum(dyck1) + 2 * sum(bal2) + sum(dyck2)
        self.steps = class_steps(dyck1) + 2 * class_steps(bal2) + class_steps(dyck2)

    def run(self, tr) -> tuple:
        start = perf_counter()
        with tr.span("verify.verify_theorem1", words=sum(class_sizes("dyck", self.n1))):
            r1 = dm.verify_theorem1(self.n1)
        first = perf_counter() - start
        with tr.span("verify.verify_theorem2", words=sum(class_sizes("bilateral", self.n2))):
            r2 = dm.verify_theorem2(self.n2)
        with tr.span("verify.verify_involutions_and_transport"):
            r3 = dm.verify_involutions_and_transport(self.n2)
        reports = [(self.n1, r1), (self.n2, r2), (self.n2, r3)]
        tr.add("verify.words_tested", sum(
            sum({c.path_class: c.words_tested for c in r.checks}.values())
            for _, r in reports))
        return {"reports": reports}, [first]

    def check(self, out: dict) -> tuple:
        attempted = failed = 0
        for max_n, report in out["reports"]:
            attempted += 1
            failed += not report.ok
            for c in report.checks:
                attempted += 1
                expected = sum(class_sizes(c.path_class, max_n))
                failed += not (c.passed and c.words_tested == expected)
        return attempted, failed

    def replay(self, tr, out: dict) -> None:
        """The public calls equivalent to each theorem's sweep, on its words."""
        with tr.span("replay.verify.verify_theorem1"):
            for n in range(self.n1 + 1):
                words = _enumerate(tr, "dyck", n)
                steps = 2 * n * len(words)
                images = _map_batch(tr, "maps.phi.short", dm.phi, words, steps)
                _map_batch(tr, "maps.psi.short", dm.psi, images, steps)
                pre = _map_batch(tr, "maps.psi.short", dm.psi, words, steps)
                _map_batch(tr, "maps.phi.short", dm.phi, pre, steps)
                _map_batch(tr, "stats.stat_record.short", dm.stat_record,
                           words + images, 2 * steps)
        with tr.span("replay.verify.verify_theorem2"):
            for n in range(self.n2 + 1):
                words = _enumerate(tr, "bilateral", n)
                steps = 2 * n * len(words)
                images = _map_batch(tr, "maps.phi_ext.short", dm.phi_ext, words, steps)
                _map_batch(tr, "maps.psi_ext.short", dm.psi_ext, images, steps)
                pre = _map_batch(tr, "maps.psi_ext.short", dm.psi_ext, words, steps)
                _map_batch(tr, "maps.phi_ext.short", dm.phi_ext, pre, steps)
                _map_batch(tr, "stats.stat_record.short", dm.stat_record,
                           words + images, 2 * steps)
                facs = _map_batch(tr, "decompose.crossing_factorize.short",
                                  dm.crossing_factorize, words + images, 2 * steps)
                tr.add("decompose.factors", sum(len(f.factors) for f in facs))


class Table:
    """Exact distribution tables, as `dyckmaps table` builds them; no map runs."""

    name = "table"
    SIZES = {"full": (11, 9), "probe": (6, 5)}

    def __init__(self, seed: int, scale: str = "full"):
        self.n1, self.n2 = self.SIZES[scale]
        self.sizes = (class_sizes("dyck", self.n1)[-1],
                      class_sizes("bilateral", self.n2)[-1])
        self.words = sum(self.sizes)
        self.steps = 2 * self.n1 * self.sizes[0] + 2 * self.n2 * self.sizes[1]

    def run(self, tr) -> tuple:
        start = perf_counter()
        with tr.span("generate.distribution", 2 * self.n1 * self.sizes[0], self.sizes[0]):
            joint = dm.distribution("dyck", self.n1, "contacts", "peaks")
        first = perf_counter() - start
        with tr.span("generate.distribution", 2 * self.n2 * self.sizes[1], self.sizes[1]):
            odd = dm.distribution("bilateral", self.n2, "ups_odd")
        return {"joint": joint, "odd": odd}, [first]

    def check(self, out: dict) -> tuple:
        n1, n2 = self.n1, self.n2
        contacts, peaks = {}, {}
        for (c, p), count in out["joint"].counts.items():
            contacts[c] = contacts.get(c, 0) + count
            peaks[p] = peaks.get(p, 0) + count
        results = [
            _mismatches(contacts, contacts_row(n1)),
            _mismatches(peaks, narayana_row(n1)),
            _mismatches(out["odd"].counts, ups_odd_row(n2)),
        ]
        totals = [(out["joint"].total, self.sizes[0]), (out["odd"].total, self.sizes[1])]
        attempted = sum(a for a, _ in results) + len(totals)
        failed = sum(f for _, f in results) + sum(got != want for got, want in totals)
        return attempted, failed

    def replay(self, tr, out: dict) -> None:
        """Enumeration plus one statistics record per word, as each table does."""
        with tr.span("replay.generate.distribution"):
            for path_class, n in (("dyck", self.n1), ("bilateral", self.n2)):
                words = _enumerate(tr, path_class, n)
                _map_batch(tr, "stats.stat_record.short", dm.stat_record,
                           words, 2 * n * len(words))


class LongWords:
    """Three very long words through every per-word operation, then the CLI."""

    name = "long_words"
    SIZES = {"full": 10**6, "probe": 8192}

    def __init__(self, seed: int, scale: str = "full"):
        n = self.SIZES[scale] // 2
        rng = np.random.default_rng(seed)
        rows = [dyck_row(rng, n), balanced_rows(rng, 1, n)[0],
                np.array([U] * n + [D] * n, dtype=np.uint8)]
        self.texts = [r.tobytes().decode("ascii") for r in rows]
        self.is_dyck = [True, False, True]
        self.records = None  # the oracle's counts, built at the first check
        self.stdin = "".join(t + "\n" for t in self.texts)
        self.words = len(self.texts)
        self.steps = sum(len(t) for t in self.texts)

    def run(self, tr) -> tuple:
        results = []
        for text, dyck in zip(self.texts, self.is_dyck):
            size = len(text)
            r = {}
            with tr.span("words.parse_word", size, 1):
                w = dm.parse_word(text)
            r["parsed"] = w.text
            with tr.span("words.classify", size, 1):
                r["class"] = dm.classify(w).value
            with tr.span("stats.stat_record.long", size, 1):
                r["record"] = dm.stat_record(w).to_dict()
            with tr.span("decompose.crossing_factorize.long", size, 1):
                r["factors"] = [f.text for f in dm.crossing_factorize(w).factors]
            tr.add("decompose.factors", len(r["factors"]))
            if dyck:
                with tr.span("maps.phi.long", size, 1):
                    image = dm.phi(w)
                with tr.span("maps.psi.long", size, 1):
                    r["phi_back"] = dm.psi(image).text
                r["phi_image"] = image.text
            with tr.span("maps.phi_ext.long", size, 1):
                image = dm.phi_ext(w)
            with tr.span("maps.psi_ext.long", size, 1):
                r["ext_back"] = dm.psi_ext(image).text
            r["ext_image"] = image.text
            results.append(r)
        with tr.span("cli.run.map", self.steps, self.words):
            rc, text, first = run_cli(["map", "--op", "phi-ext"], self.stdin, self.words)
        tr.add("cli.lines", self.words)
        return {"results": results, "cli": (rc, text)}, [first]

    def check(self, out: dict) -> tuple:
        if self.records is None:
            self.records = [own_record(t) for t in self.texts]
        checks = []
        for text, want, r in zip(self.texts, self.records, out["results"]):
            checks += [
                r["parsed"] == text,
                r["class"] == own_class(want),
                r["record"] == want,
                "".join(r["factors"]) == text
                and len(r["factors"]) == want["crossings"] + 1,
                r["ext_back"] == text,
                _transported(r["ext_image"], want, ("crossings",)),
            ]
            if "phi_image" in r:
                checks += [
                    r["phi_back"] == text,
                    _transported(r["phi_image"], want, ("contacts",)),
                ]
        rc, cli_text = out["cli"]
        lines = cli_text.splitlines()
        checks.append(rc == 0)
        for i, r in enumerate(out["results"]):
            checks.append(i < len(lines) and lines[i] == r["ext_image"])
        return len(checks), checks.count(False)

    def replay(self, tr, out: dict) -> None:
        """What the `map --op phi-ext` call does per line, through the public API."""
        with tr.span("replay.cli.run.map"):
            for text in self.texts:
                with tr.span("words.parse_word", len(text), 1):
                    w = dm.parse_word(text)
                with tr.span("maps.phi_ext.long", len(text), 1):
                    dm.phi_ext(w)


def _transported(image: str, want: dict, preserved: tuple) -> bool:
    """The image has the input's length, up-step count and `preserved`
    statistics, and as many peaks as the input has up-steps at odd height."""
    mat, _ = step_rows([image], 2 * want["n"])
    if not len(mat):
        return False
    got = own_record(image)
    return got["peaks"] == want["ups_odd"] \
        and got["ups_odd"] + got["ups_even"] == want["n"] \
        and all(got[k] == want[k] for k in preserved)


class CliStream:
    """Many short balanced words piped through map, the inverse map, and stats."""

    name = "cli_stream"
    SIZES = {"full": (10_000, 200), "probe": (100, 200)}

    def __init__(self, seed: int, scale: str = "full"):
        count, n = self.SIZES[scale]
        self.mat = balanced_rows(np.random.default_rng(seed), count, n)
        self.length = 2 * n
        self.lines = [row.tobytes().decode("ascii") for row in self.mat]
        self.stdin = "".join(t + "\n" for t in self.lines)
        self.want = None  # the oracle's counts, built at the first check
        self.words = count
        self.steps = count * self.length

    def run(self, tr) -> tuple:
        steps, words = self.steps, self.words
        with tr.span("cli.run.map", steps, words):
            rc1, images, first = run_cli(["map", "--op", "phi-ext"], self.stdin, words)
        with tr.span("cli.run.map", steps, words):
            rc2, back, first2 = run_cli(["map", "--op", "psi-ext"], images, words)
        with tr.span("cli.run.stats", steps, words):
            rc3, stats, _ = run_cli(["stats"], images, words)
        tr.add("cli.lines", 3 * words)
        return {"rc": (rc1, rc2, rc3), "images": images, "back": back,
                "stats": stats}, [first, first2]

    def check(self, out: dict) -> tuple:
        if self.want is None:
            self.want = own_stats(self.mat)
        n = self.words
        rcs = out["rc"]
        back = out["back"].splitlines()
        round_trip_failed = sum(i >= len(back) or back[i] != line
                                for i, line in enumerate(self.lines))
        images, rows = step_rows(out["images"].splitlines()[:n], self.length)
        image_stats = own_stats(images)
        want = {k: v[rows] for k, v in self.want.items()}
        transported = int(np.count_nonzero(
            (image_stats["peaks"] == want["ups_odd"])
            & (image_stats["crossings"] == want["crossings"])
            & (image_stats["ups"] == want["ups"])))
        stats_failed = n - self._stats_lines_ok(out["stats"].splitlines(), rows, image_stats)
        failed = sum(rc != 0 for rc in rcs) + round_trip_failed \
            + (n - transported) + stats_failed
        return len(rcs) + 3 * n, failed

    def _stats_lines_ok(self, lines: list, rows: list, image_stats: dict) -> int:
        """Stats lines that match the benchmark's own count on the image and
        carry the input's ups_odd as peaks."""
        fields = ("n", "peaks", "valleys", "ups_odd", "max_height", "min_height")
        ok = 0
        for j, i in enumerate(rows):
            if i >= len(lines):
                continue
            rec = dict(part.split(":", 1) for part in lines[i].split() if ":" in part)
            ok += all(rec.get(f) == str(image_stats[f][j]) for f in fields) \
                and rec.get("peaks") == str(self.want["ups_odd"][i])
        return ok

    def replay(self, tr, out: dict) -> None:
        """What each cli.run call does per line, through the public API, plus
        the layers the maps only reach internally."""
        steps = self.steps
        image_texts = out["images"].splitlines()
        with tr.span("replay.cli.run.map"):
            words = _map_batch(tr, "words.parse_word", dm.parse_word, self.lines, steps)
            _map_batch(tr, "maps.phi_ext.short", dm.phi_ext, words, steps)
            words = _map_batch(tr, "words.parse_word", dm.parse_word, image_texts, steps)
            _map_batch(tr, "maps.psi_ext.short", dm.psi_ext, words, steps)
        with tr.span("replay.cli.run.stats"):
            words = _map_batch(tr, "words.parse_word", dm.parse_word, image_texts, steps)
            _map_batch(tr, "stats.stat_record.short", dm.stat_record, words, steps)
        words = [dm.parse_word(t) for t in self.lines]
        _map_batch(tr, "words.classify", dm.classify, words, steps)
        words = [dm.parse_word(t) for t in self.lines]
        facs = _map_batch(tr, "decompose.crossing_factorize.short",
                          dm.crossing_factorize, words, steps)
        tr.add("decompose.factors", sum(len(f.factors) for f in facs))


WORKLOADS = {cls.name: cls for cls in (Sweep, Table, LongWords, CliStream)}
