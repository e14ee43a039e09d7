import io
import json
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

import dyckmaps.cli
import dyckmaps.generate
import dyckmaps.maps
import dyckmaps.verify
from dyckmaps.cli import run

GOLDEN_TOP = "UUUUDDDUUUUDDUDDDD"
GOLDEN_BOTTOM = "UUUDDUUUDUUDDDUDDD"


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_map_phi_golden():
    code, out, err = _run(["map", "--op", "phi"], GOLDEN_TOP + "\n")
    assert code == 0
    assert out == GOLDEN_BOTTOM + "\n"
    assert err == ""


def test_map_streams_line_per_line():
    code, out, _ = _run(["map", "--op", "phi"], "UD\n\nUUDD\n")
    assert code == 0
    assert out == "UD\n\nUUDD\n"  # blank line is the empty word


def test_map_round_trip_pipe():
    code, mid, _ = _run(["map", "--op", "phi"], "UUDUDD\nUD\nUUDDUD\n")
    assert code == 0
    code, back, _ = _run(["map", "--op", "psi"], mid)
    assert code == 0
    assert back == "UUDUDD\nUD\nUUDDUD\n"


def test_map_accepts_alias_alphabets():
    code, out, _ = _run(["map", "--op", "alpha"], "(())\n")
    assert code == 0
    assert out == "DDUU\n"


def test_map_rejects_bad_domain_with_line_info():
    code, out, err = _run(["map", "--op", "phi"], "UD\nUDDU\n")
    assert code == 1
    assert "line 2" in err
    assert "not a Dyck word" in err
    assert "step 3" in err  # first below-axis vertex


def test_map_reports_invalid_character_position():
    code, _, err = _run(["map", "--op", "phi"], "UXD\n")
    assert code == 1
    assert "position 2" in err
    assert "line 1" in err


def test_map_trace_emits_stage_lines():
    code, out, _ = _run(["map", "--op", "phi", "--trace"], GOLDEN_TOP + "\n")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# UU(UU()DD)DU(UU(UD)DU()DD)DD"
    assert lines[1] == "# U(UU()DD)U(UU(UD)DU()DD)UDDD()"
    assert lines[-1] == GOLDEN_BOTTOM
    assert all(l.startswith("# ") for l in lines[:-1])


def test_stats_text_format():
    code, out, _ = _run(["stats"], "UD\n")
    assert code == 0
    assert out == (
        "n:1 peaks:1 valleys:0 contacts:1 crossings:0 ups_odd:1 ups_even:0 "
        "downs_odd:1 downs_even:0 max_height:1 min_height:0 is_prime:true\n"
    )


def test_stats_json_format():
    code, out, _ = _run(["stats", "--format", "json"], "UUDD\nDU\n")
    assert code == 0
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["n"] == 2 and first["peaks"] == 1 and first["is_prime"] is True
    assert second["ups_odd"] == 0 and second["min_height"] == -1


def test_classify_command():
    code, out, _ = _run(["classify"], "UUDD\nDDUU\nUDDU\nUDU\n\n")
    assert code == 0
    assert out.splitlines() == [
        "dyck", "negative_dyck", "bilateral_proper", "not_closed", "empty",
    ]


def test_enum_command():
    code, out, _ = _run(["enum", "--class", "dyck", "--n", "3"])
    assert code == 0
    words = out.splitlines()
    assert len(words) == 5
    assert words[0] == "UUUDDD" and words[-1] == "UDUDUD"


def test_enum_rejects_oversized_n():
    code, _, err = _run(["enum", "--class", "dyck", "--n", "31"])
    assert code == 1
    assert "30" in err


def test_table_csv():
    code, out, _ = _run(
        ["table", "--class", "dyck", "--n", "3", "--stat", "peaks"]
    )
    assert code == 0
    assert out == "peaks,count\n1,1\n2,3\n3,1\n"


def test_table_json_two_stats():
    code, out, _ = _run(
        ["table", "--class", "dyck", "--n", "3",
         "--stat", "contacts", "--stat2", "peaks", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"] == ["contacts", "peaks"]
    assert sum(e["count"] for e in payload["counts"]) == 5


def _refuse_enumeration(monkeypatch):
    """Make every word source raise, so a refused command provably walks nothing."""

    def boom(*args, **kwargs):
        raise AssertionError("enumerated a class")

    monkeypatch.setattr(dyckmaps.generate, "_texts", boom)
    for path_class in ("dyck", "bilateral"):
        monkeypatch.setitem(dyckmaps.generate._CLASS_SOURCES, path_class, boom)
    monkeypatch.setattr(dyckmaps.verify, "_dyck_texts", boom)


@pytest.mark.parametrize("path_class, n, message", [
    ("dyck", "30", "Catalan(30) = 3814986502092304 words exceeds the cap of 100000000"),
    ("dyck", "17", "Catalan(17) = 129644790 words exceeds the cap of 100000000"),
    ("bilateral", "15", "C(30, 15) = 155117520 words exceeds the cap of 100000000"),
])
def test_enum_refuses_a_class_over_the_word_cap(monkeypatch, path_class, n, message):
    _refuse_enumeration(monkeypatch)
    code, out, err = _run(["enum", "--class", path_class, "--n", n])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_verify_refuses_sweeps_over_the_word_cap(monkeypatch):
    _refuse_enumeration(monkeypatch)
    code, out, err = _run(["verify", "--max-n", "14", "--randomized"])
    assert (code, out) == (1, "")
    assert err == (
        "error: 2 * sum over n <= 14 of (Catalan(n) + C(2n, n)) = 115771186 words"
        " exceeds the cap of 100000000\n"
    )
    assert 2 * sum(dyckmaps.generate.catalan(n) + dyckmaps.generate.central_binomial(n)
                   for n in range(14)) <= dyckmaps.cli._MAX_WORDS


def test_table_at_n30_counts_the_whole_class():
    code, out, err = _run(["table", "--class", "bilateral", "--n", "30",
                           "--stat", "max_height", "--stat2", "min_height"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "max_height,min_height,count"
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == comb(60, 30)


def test_table_unknown_statistic():
    code, _, err = _run(
        ["table", "--class", "dyck", "--n", "3", "--stat", "wiggles"]
    )
    assert code == 1
    assert "wiggles" in err


def test_verify_command_passes():
    code, out, _ = _run(["verify", "--max-n", "3"])
    assert code == 0
    assert "all passed" in out


def test_verify_command_json():
    code, out, _ = _run(["verify", "--max-n", "2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_verify_command_randomized():
    code, out, _ = _run(
        ["verify", "--max-n", "2", "--randomized",
         "--rand-n", "16", "--trials", "20", "--seed", "42"]
    )
    assert code == 0
    assert "random.round_trip" in out


def test_verify_rejects_jobs_below_one():
    code, out, err = _run(["verify", "--max-n", "2", "--jobs", "-3"])
    assert code == 1
    assert out == ""
    assert "jobs must be at least 1" in err and "-3" in err


def test_verify_rejects_negative_randomized_sizes():
    code, out, err = _run(["verify", "--max-n", "0", "--randomized",
                           "--trials", "-5", "--rand-n", "3"])
    assert (code, out) == (1, "")
    assert "trials must be nonnegative" in err
    code, out, err = _run(["verify", "--max-n", "0", "--randomized",
                           "--rand-n", "-2"])
    assert (code, out) == (1, "")
    assert "semilength n must be nonnegative" in err
    assert "negative dimensions" not in err


def test_render_command():
    code, out, _ = _run(["render"], "UD\n")
    assert code == 0
    assert out == "/\\\n--\n\n"


def test_render_command_refuses_oversized_word():
    code, out, err = _run(["render"], "U" * 20000 + "D" * 20000 + "\n")
    assert (code, out) == (1, "")
    assert "line 1" in err and "cells" in err


def test_trace_command_refuses_an_over_cap_trace(monkeypatch):
    monkeypatch.setattr(dyckmaps.maps, "_MAX_CELLS", 1000)
    code, out, err = _run(["map", "--op", "phi", "--trace"], "UD" * 100 + "\n")
    assert (code, out) == (1, "")
    assert "line 1" in err and "cap of 1000 characters" in err


def test_unknown_subcommand_is_input_error():
    code, _, _ = _run(["frobnicate"])
    assert code == 1


def test_console_entry_point_runs_in_subprocess():
    import os

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    proc = subprocess.run(
        [sys.executable, "-m", "dyckmaps", "map", "--op", "phi"],
        input=GOLDEN_TOP + "\n",
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN_BOTTOM + "\n"


# Golden transcripts of the per-line commands: stdout, an "[exit N]" line,
# then stderr, captured before the commands shared one per-line driver.
DATA = Path(__file__).parent / "data"
_DYCK_IN = "\n(())\nudud\nUUDUDD\n" + GOLDEN_TOP + "\nUDUUDD\n"
_BALANCED_IN = "\n(())\nudud\nDDUU\nUDDUUDDU\nUUDDDUDDUU\n" + GOLDEN_TOP + "\n"
_LONG_IN = "U" * 2050 + "D" * 2050 + "\n" + "UUDD" * 600 + "DDUU" * 500 + "\n"
_CLI_CASES = {
    **{
        f"map_{op}{suffix}": (["map", "--op", op] + flags, stdin)
        for op, stdin in [
            ("phi", _DYCK_IN), ("psi", _DYCK_IN), ("beta", _DYCK_IN),
            ("alpha", _BALANCED_IN), ("phi-ext", _BALANCED_IN),
            ("psi-ext", _BALANCED_IN),
        ]
        for suffix, flags in [("", []), ("_trace", ["--trace"])]
    },
    "stats_text": (["stats"], _BALANCED_IN + _LONG_IN),
    "stats_json": (["stats", "--format", "json"], _BALANCED_IN + _LONG_IN),
    "classify": (["classify"], _BALANCED_IN + "UUD\nDDDUU\n"),
    "render": (["render"], _BALANCED_IN),
    # two good lines, a bad line 3, and a good line that is never reached
    "map_phi_fail": (["map", "--op", "phi"], "UUDD\nUD\nUDDU\nUD\n"),
    "map_phi_trace_fail": (["map", "--op", "phi", "--trace"], "UUDD\nUD\nUDDU\nUD\n"),
    "stats_fail": (["stats"], "UD\nDU\nUUD\nUD\n"),
    "classify_fail": (["classify"], "UD\nUUD\nUXD\nUD\n"),
    "render_fail": (["render"], "UD\nDU\nUUD\nUD\n"),
}


def _transcript(argv, stdin_text):
    code, out, err = _run(argv, stdin_text)
    return f"{out}[exit {code}]\n{err}"


@pytest.mark.parametrize("case", list(_CLI_CASES))
def test_cli_output_matches_golden_fixture(case):
    expected = (DATA / f"cli_{case}.txt").read_text()
    assert _transcript(*_CLI_CASES[case]) == expected


# table transcripts captured while distribution still enumerated the class
_TABLE_CASES = {
    "table": ["table", "--class", "bilateral", "--n", "8",
              "--stat", "contacts", "--stat2", "crossings"],
    "table_prime": ["table", "--class", "dyck", "--n", "9",
                    "--stat", "max_height", "--stat2", "is_prime"],
    "table_fail": ["table", "--class", "bilateral", "--n", "3",
                   "--stat", "peaks", "--stat2", "wiggles"],
}


@pytest.mark.parametrize("case", list(_TABLE_CASES))
def test_table_output_matches_golden_fixture(case):
    expected = (DATA / f"cli_{case}.txt").read_text()
    assert _transcript(_TABLE_CASES[case], "") == expected
