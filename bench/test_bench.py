"""Tests of the benchmark itself: seeded inputs, the oracles, and that one
corrupted output makes `failed` greater than zero.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dyckmaps as dm
import workloads as W
from spans import NULL
from worker import _traced

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _flip(text: str, line: int) -> str:
    """The same text with the first step of one line flipped."""
    lines = text.split("\n")
    lines[line] = ("D" if lines[line][0] == "U" else "U") + lines[line][1:]
    return "\n".join(lines)


def test_inputs_depend_only_on_the_seed():
    a, b, c = (W.CliStream(s, "probe") for s in (5, 5, 6))
    assert a.lines == b.lines != c.lines
    x, y = W.LongWords(5, "probe"), W.LongWords(5, "probe")
    assert x.texts == y.texts
    classes = [dm.classify(dm.parse_word(t)).value for t in x.texts]
    assert classes[0] == classes[2] == "dyck"
    assert x.texts[2] == "U" * 4096 + "D" * 4096


def test_dyck_generator_reaches_every_word():
    rng = np.random.default_rng(0)
    seen = {W.dyck_row(rng, 3).tobytes().decode() for _ in range(400)}
    assert seen == {w.text for w in dm.generate_dyck(3)}


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_forms_match_enumeration(n):
    assert dm.distribution("dyck", n, "peaks").counts == W.narayana_row(n)
    assert dm.distribution("dyck", n, "contacts").counts == W.contacts_row(n)
    assert dm.distribution("bilateral", n, "ups_odd").counts == W.ups_odd_row(n)


def test_own_stats_match_stat_record():
    for w in list(dm.generate_bilateral(4)):
        if w.text:
            assert W.own_record(w.text) == dm.stat_record(w).to_dict()


@pytest.fixture(params=sorted(W.WORKLOADS))
def probe(request):
    wl = W.WORKLOADS[request.param](3, "probe")
    out, firsts = wl.run(NULL)
    assert firsts and min(firsts) > 0
    return wl, out


def test_clean_pass_has_no_failures(probe):
    wl, out = probe
    attempted, failed = wl.check(out)
    assert attempted > 0 and failed == 0


def test_one_corrupted_cli_line_fails():
    wl = W.CliStream(3, "probe")
    out, _ = wl.run(NULL)
    for key in ("images", "back", "stats"):
        bad = dict(out)
        if key == "stats":
            bad[key] = out[key].replace("peaks:", "peaks:1", 1)
        else:
            bad[key] = _flip(out[key], 7)
        assert wl.check(bad)[1] >= 1, key
    assert wl.check(dict(out, rc=(0, 1, 0)))[1] == 1


def test_one_wrong_table_count_fails():
    wl = W.Table(3, "probe")
    out, _ = wl.run(NULL)
    for key in ("joint", "odd"):
        table = out[key]
        counts = dict(table.counts)
        first = next(iter(counts))
        counts[first] += 1
        bad = dict(out, **{key: dm.DistributionTable(table.path_class, table.n,
                                                     table.stats, counts)})
        assert wl.check(bad)[1] >= 1, key


def test_one_failed_or_miscounted_check_fails():
    wl = W.Sweep(3, "probe")
    out, _ = wl.run(NULL)
    check = out["reports"][1][1].checks[2]
    check.words_tested += 1
    assert wl.check(out)[1] == 1
    check.words_tested -= 1
    check.passed = False
    assert wl.check(out)[1] == 2  # the check and its report's ok


def test_one_corrupted_long_output_fails():
    wl = W.LongWords(3, "probe")
    out, _ = wl.run(NULL)
    rc, text = out["cli"]
    assert wl.check(dict(out, cli=(rc, _flip(text, 1))))[1] == 1
    out["results"][0]["record"]["peaks"] += 1
    assert wl.check(out)[1] == 1


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    wl = W.CliStream(3, "probe")
    spans_path = tmp_path / "spans.json"
    res = _traced(wl, 3, 0.0, str(spans_path))
    assert sorted(res["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert res["failed"] == 0
    spans = json.loads(spans_path.read_text())
    assert {"name", "start", "end", "parent", "run"} <= set(spans[0])
    assert {s["run"] for s in spans} == {"main", "probe"}


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170)


def test_run_prints_the_result_line():
    done = _run(ROOT, "--workload", "table", "--seed", "4", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    stamp = json.loads(done.stdout.splitlines()[0])["stamp"]
    scaled = result["metrics"]["words_per_s"]["value"]
    assert scaled == pytest.approx(stamp["unscaled"]["words_per_s"] * stamp["host_slowdown"])


def test_run_without_the_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "table", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
