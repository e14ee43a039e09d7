import io
import json
import subprocess
import sys
from math import comb
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dyckmaps.cli
import dyckmaps.generate
import dyckmaps.maps
import dyckmaps.render
import dyckmaps.stats
import dyckmaps.verify
import dyckmaps.words
import oracles
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


@pytest.mark.parametrize("path_class, n", [("bilateral", 9), ("bilateral", 0), ("dyck", 0)])
def test_enum_writes_the_brute_force_class_one_block_per_write(path_class, n):
    out = _Writes()
    code = run(["enum", "--class", path_class, "--n", str(n)], stdout=out)
    words = sorted(oracles.all_dyck(n) if path_class == "dyck" else oracles.all_balanced(n),
                   key=oracles.lex_key)
    assert code == 0
    assert out.getvalue() == "".join(word + "\n" for word in words)
    rows = dyckmaps.generate._TEXT_STEPS // max(2 * n, 1)
    assert out.writes == -(-len(words) // rows)  # 48,620 words of 18 steps: 4 blocks


def test_enum_builds_one_block_when_the_pipe_breaks(monkeypatch):
    built = []
    rank_rows = dyckmaps.generate._rank_rows

    def recording(*block):
        built.append(block)
        return rank_rows(*block)

    class BrokenPipe:
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(dyckmaps.generate, "_rank_rows", recording)
    code = run(["enum", "--class", "bilateral", "--n", "12"], stdout=BrokenPipe())
    assert (code, len(built)) == (0, 1)


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

    monkeypatch.setattr(dyckmaps.generate, "_rank_blocks", boom)
    monkeypatch.setattr(dyckmaps.verify, "_rank_blocks", boom)


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


@pytest.mark.parametrize("rand_n, trials, steps", [
    (10**8, 1, 6 * 10**8), (16666667, 1, 100000002), (1, 10**8, 6 * 10**8),
])
def test_verify_refuses_randomized_steps_over_the_cap(monkeypatch, rand_n, trials, steps):
    def boom(*args, **kwargs):
        raise AssertionError("sampled a word")

    monkeypatch.setattr(dyckmaps.verify, "_random_balanced_text", boom)
    code, out, err = _run(["verify", "--max-n", "0", "--randomized",
                           "--rand-n", str(rand_n), "--trials", str(trials)])
    assert (code, out) == (1, "")
    assert err == (f"error: 6 * trials * rand-n = {steps} steps exceeds the cap"
                   " of 100000000\n")
    # 99,999,996 steps, under the cap, get as far as sampling
    code, _, err = _run(["verify", "--max-n", "0", "--randomized",
                         "--rand-n", "16666666", "--trials", "1"])
    assert code == 2 and "sampled a word" in err


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


# --- the chunked per-line path of map and stats ------------------------------

_PUBLIC_MAPS = {
    "phi": dyckmaps.phi, "psi": dyckmaps.psi, "beta": dyckmaps.beta,
    "alpha": dyckmaps.alpha, "phi-ext": dyckmaps.phi_ext, "psi-ext": dyckmaps.psi_ext,
}
_DYCK_OPS = ("phi", "psi", "beta")
_PER_LINE_CASES = [["map", "--op", op] for op in _PUBLIC_MAPS] + [
    ["stats"], ["stats", "--format", "json"]]


def _answer(argv, line):
    """What the command prints for one input line, through the public API."""
    word = dyckmaps.parse_word(line.rstrip("\r\n"))
    if argv[0] == "classify":
        return dyckmaps.classify(word).value
    if argv[0] == "render":  # a blank line after each drawing
        return dyckmaps.render_ascii(word) + "\n"
    if argv[0] == "map":
        return _PUBLIC_MAPS[argv[2]](word).text
    if argv[1:] == ["--format", "json"]:
        return json.dumps(dyckmaps.stat_record(word).to_dict())
    return dyckmaps.stat_record(word).to_text()


def _reference(argv, stdin_text):
    """What the command prints, line by line through the public API."""
    return "".join(_answer(argv, line) + "\n" for line in io.StringIO(stdin_text))


def _words(dyck, n, count, seed):
    sample = dyckmaps.sample_dyck if dyck else dyckmaps.sample_bilateral
    return [sample(n, seed + i).text for i in range(count)]


def _mixed_input(dyck):
    """Runs of 40, 31, 33 and 32 equal-length words, blank lines, CRLF
    endings, the u/d and (/) aliases and one word of 2 * _LONG steps."""
    runs = [_words(dyck, 10, 40, 0), _words(dyck, 12, 31, 100),
            [""] * 3, _words(dyck, 15, 33, 200),
            _words(dyck, dyckmaps.words._LONG, 1, 300), _words(dyck, 4, 5, 400),
            _words(dyck, 9, 32, 500), [""] * 40]
    lines = [word for run in runs for word in run]
    lines[3] = lines[3].lower()
    lines[50] = lines[50].replace("U", "(").replace("D", ")")
    lines[75] += "\r"
    lines[140] += "\r"
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("chunk_chars", [3000, None], ids=["ragged", "one-chunk"])
def test_stats_text_lines_from_the_scan_equal_each_words_record(monkeypatch, chunk_chars):
    dipping = "DUUD" * 5  # a bilateral word of 20 steps that dips below the axis
    lines = (_words(False, 10, 20, 0) + [dipping] + _words(False, 10, 20, 20)
             + [""] * 33 + _words(True, 12, 33, 100)
             + _words(False, dyckmaps.words._LONG // 2, 1, 200)
             + _words(False, 40, 130, 300))  # 130 words of 80 steps
    stdin_text = "".join(line + "\n" for line in lines)
    monkeypatch.setattr(dyckmaps.cli, "_CHUNK_CHARS", chunk_chars or len(stdin_text))
    by_rows = []
    lines_rows = dyckmaps.cli._stat_lines_rows

    def spy(mat, template):
        by_rows.append(mat.shape[1])
        return lines_rows(mat, template)

    monkeypatch.setattr(dyckmaps.cli, "_stat_lines_rows", spy)
    want = "".join(dyckmaps.stat_record(dyckmaps.parse_word(line)).to_text() + "\n"
                   for line in lines)
    assert _run(["stats"], stdin_text) == (0, want, "")
    # the first chunk ends with the long line; then 38 lines of 81 characters a chunk
    assert by_rows == ([41, 33, 130] if chunk_chars is None else [41, 33, 38, 38, 38])


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("argv", _PER_LINE_CASES, ids=" ".join)
def test_chunked_output_equals_the_per_word_reference(monkeypatch, argv):
    stdin_text = _mixed_input(argv[-1] in _DYCK_OPS)
    monkeypatch.setattr(dyckmaps.cli, "_CHUNK_CHARS", 900)
    out, err = _Writes(), io.StringIO()
    code = run(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == _reference(argv, stdin_text)
    assert out.writes >= 3  # one write per chunk


def _path_spies(monkeypatch, argv, row_fail, word_fail):
    """Make the row twin of the command raise on matrices for which
    ``row_fail(mat)`` holds, and its per-word function on words whose text
    ``word_fail(text)`` holds."""

    def guard(fn, fails):
        def guarded(arg, *rest):
            if fails(arg):
                raise AssertionError("took the wrong path")
            return fn(arg, *rest)
        return guarded

    if argv[0] == "stats":
        for name, fails in [("_stat_lines_rows", row_fail),
                            ("stat_record", lambda word: word_fail(word.text))]:
            monkeypatch.setattr(dyckmaps.cli, name,
                                guard(getattr(dyckmaps.cli, name), fails))
        return
    op = dyckmaps.maps._MAPS[argv[2]]
    monkeypatch.setitem(dyckmaps.maps._MAPS, argv[2], op._replace(
        word=guard(op.word, lambda data: word_fail(data.decode("ascii"))),
        rows=guard(op.rows, row_fail)))


@pytest.mark.parametrize("op", _DYCK_OPS)
def test_a_dyck_run_scans_its_heights_once(monkeypatch, op):
    argv = ["map", "--op", op]
    stdin_text = "".join(line + "\n" for line in _words(True, 10, 64, 0))  # one run
    want = _reference(argv, stdin_text)
    scans = []
    heights = dyckmaps.words._up_and_heights

    def counted(mat):
        scans.append(mat.shape)
        return heights(mat)

    for module in (dyckmaps.words, dyckmaps.maps):
        monkeypatch.setattr(module, "_up_and_heights", counted)
    assert _run(argv, stdin_text) == (0, want, "")
    assert scans == [(20, 64)]  # for the check, and passed on to the twin


@pytest.mark.parametrize("argv", _PER_LINE_CASES, ids=" ".join)
def test_runs_of_32_equal_lengths_take_the_row_twin(monkeypatch, argv):
    dyck = argv[-1] in _DYCK_OPS
    long_n = dyckmaps.words._LONG // 2
    lines = (_words(dyck, 10, 32, 0) + [""] * 32 + _words(dyck, 11, 31, 50)
             + _words(dyck, long_n, 32, 100))
    stdin_text = "".join(line + "\n" for line in lines)
    want = _reference(argv, stdin_text)  # the public maps run the records patched below
    monkeypatch.setattr(dyckmaps.cli, "_CHUNK_CHARS", len(stdin_text))  # one chunk
    # a map's long line, one by one, reaches the twin as one column
    shapes = [(20, 32), (2 * long_n, 1)] if argv[0] == "map" else [(20, 32)]
    _path_spies(monkeypatch, argv,
                row_fail=lambda mat: mat.shape not in shapes,
                word_fail=lambda text: len(text) == 20)
    code, out, err = _run(argv, stdin_text)
    assert (code, err) == (0, "")
    assert out == want


@pytest.mark.parametrize("op", _DYCK_OPS)
def test_a_long_dyck_line_scans_its_heights_once(monkeypatch, op):
    argv = ["map", "--op", op]
    stdin_text = _words(True, dyckmaps.words._LONG // 2, 1, 0)[0] + "\n"
    want = _reference(argv, stdin_text)
    scans = []
    heights = dyckmaps.words._up_and_heights

    def counted(mat):
        scans.append(mat.shape)
        return heights(mat)

    for module in (dyckmaps.words, dyckmaps.maps):
        monkeypatch.setattr(module, "_up_and_heights", counted)
    assert _run(argv, stdin_text) == (0, want, "")
    assert scans == [(dyckmaps.words._LONG, 1)]  # for the check, and passed on to the twin


def _refuse_require_closed(w):
    raise AssertionError("require_closed ran")


@pytest.mark.parametrize("op", ["alpha", "phi-ext", "psi-ext"])
def test_a_long_balanced_line_is_checked_on_the_twins_matrix(monkeypatch, op):
    argv = ["map", "--op", op]
    stdin_text = _words(False, dyckmaps.words._LONG // 2, 1, 0)[0] + "\n"
    want = _reference(argv, stdin_text)
    monkeypatch.setattr(dyckmaps.maps, "require_closed", _refuse_require_closed)
    assert _run(argv, stdin_text) == (0, want, "")


_GOOD_LINE = "UUDUDDUDUUUDDDUUDUDD"  # a Dyck word of 20 steps


@pytest.mark.parametrize("argv, bad", [
    (["map", "--op", "phi-ext"], "UUDXDD"),
    (["map", "--op", "phi-ext"], "UUDUD"),
    (["map", "--op", "phi"], "UDDUUD"),
    (["map", "--op", "psi"], "UUDD" * 5 + "U"),
    (["stats"], "UUDXDD"),
    (["stats", "--format", "json"], "DUDUDDU"),
], ids=["invalid-char", "open", "not-dyck", "open-dyck-op", "stats-char", "stats-open"])
def test_a_bad_line_mid_chunk_ends_the_output_after_the_lines_before_it(
        monkeypatch, argv, bad):
    # 21 characters a line: lines 1-96 fill chunk 1, lines 97-192 chunk 2,
    # and 47 good lines of chunk 2 come before the bad line 144
    monkeypatch.setattr(dyckmaps.cli, "_CHUNK_CHARS", 2000)
    lines = [_GOOD_LINE] * 300
    lines[143] = bad
    code, out, err = _run(argv, "".join(line + "\n" for line in lines))
    with pytest.raises(dyckmaps.DyckError) as exc:
        _reference(argv, bad + "\n")
    assert code == 1
    assert out == _reference(argv, "".join(line + "\n" for line in lines[:143]))
    assert err == f"error: {exc.value} (line 144)\n"


_RUN_BAD_CASES = {
    **{f"{kind}-{op}": (["map", "--op", op], bad, message)
       for kind, bad, message in [
           ("below", "UDDU" + "UD" * 8, "not a Dyck word: vertex below axis at step 3"),
           ("open", "UU" + "UD" * 9, "not a Dyck word: path ends at height 2 instead of 0"),
       ]
       for op in _DYCK_OPS},
    **{f"open-{op}": (["map", "--op", op], "UU" + "UD" * 9,
                      "not a bilateral Dyck word: path ends at height 2")
       for op in ("alpha", "phi-ext", "psi-ext")},
    **{f"open-{' '.join(argv)}": (argv, "UU" + "UD" * 9,
                                  "statistics bundle requires a balanced word")
       for argv in (["stats"], ["stats", "--format", "json"])},
}


def _refuse_closed_rows(mat):
    raise AssertionError("_closed_rows ran")


def _spy_on_the_check(monkeypatch, argv):
    """The texts of the words that the command's domain check sees from now
    on, in every module that binds the check."""
    if argv[0] == "stats":
        check = dyckmaps.stats._require_balanced
    elif argv[-1] in _DYCK_OPS:
        check = dyckmaps.words.require_dyck
    else:
        check = dyckmaps.words.require_closed
    checked = []

    def spy(word):
        checked.append(word.text)
        check(word)

    for module in (dyckmaps.cli, dyckmaps.maps, dyckmaps.stats, dyckmaps.words):
        for name, value in list(vars(module).items()):
            if value is check:
                monkeypatch.setattr(module, name, spy)
    return checked


@pytest.mark.parametrize("argv, bad, message", list(_RUN_BAD_CASES.values()),
                         ids=list(_RUN_BAD_CASES))
def test_a_bad_word_in_a_run_is_checked_by_matrix_with_the_same_output(
        monkeypatch, argv, bad, message):
    # 64 words of 20 steps, one run for the twin: a word outside the domain at
    # line 33, an invalid character at line 40, another bad word at line 50
    # (a good one for the commands on balanced words)
    lines = _words(argv[-1] in _DYCK_OPS, 10, 64, 0)
    lines[32] = bad
    lines[39] = "UD" * 9 + "UX"
    lines[49] = "DU" * 10
    want = _reference(argv, "".join(line + "\n" for line in lines[:32]))
    checked = _spy_on_the_check(monkeypatch, argv)
    if argv[0] == "stats":  # the run's scan checks it, with no second count of its U's
        for module in (dyckmaps.cli, dyckmaps.maps, dyckmaps.stats, dyckmaps.words):
            for name, value in list(vars(module).items()):
                if value is dyckmaps.words._closed_rows:
                    monkeypatch.setattr(module, name, _refuse_closed_rows)
    code, out, err = _run(argv, "".join(line + "\n" for line in lines))
    assert code == 1
    assert out == want
    assert err == f"error: {message} (line 33)\n"
    assert checked == [bad]  # the rows the matrix passed are not checked again


@pytest.mark.parametrize("argv", [["stats"], ["stats", "--format", "json"]], ids=" ".join)
def test_a_stats_line_taken_word_by_word_is_checked_once(monkeypatch, argv):
    # runs under _MIN_ROWS lines, the empty word and a word of _LONG steps
    lines = (_words(False, 10, 5, 0) + [""] + _words(False, 11, 31, 100)
             + _words(False, dyckmaps.words._LONG // 2, 1, 200))
    stdin_text = "".join(line + "\n" for line in lines)
    want = _reference(argv, stdin_text)
    checked = _spy_on_the_check(monkeypatch, argv)
    assert _run(argv, stdin_text) == (0, want, "")
    assert checked == lines


@pytest.mark.parametrize("argv", _PER_LINE_CASES, ids=" ".join)
@pytest.mark.parametrize("bad", [
    None, "X" + "UD" * 9 + "D", "UD" * 9 + "U.", "UD" * 4 + "U\u00e9" + "UD" * 5,
    "UD" * 4 + "U\rD" + "UD" * 4 + "D",
], ids=["none", "first-step", "last-step", "non-ascii", "carriage-return"])
def test_a_run_parsed_as_a_matrix_agrees_with_parse_word(argv, bad):
    # a run of 40 lines of 20 steps with the aliases, CRLF endings and, at
    # line 35, a word with one character outside the alphabets
    lines = _words(argv[-1] in _DYCK_OPS, 10, 40, 0)
    lines[2] = lines[2].lower()
    lines[5] = lines[5].replace("U", "(").replace("D", ")")
    lines[8] = lines[8].replace("U", "u")
    for i in (1, 20, 39):
        lines[i] += "\r"
    if bad is not None:
        assert len(bad) == 20  # a line of the run
        lines[34] = bad
    code, out, err = _run(argv, "".join(line + "\n" for line in lines))
    if bad is None:
        assert (code, err) == (0, "")
        assert out == _reference(argv, "".join(line + "\n" for line in lines))
        return
    with pytest.raises(dyckmaps.DyckError) as exc:
        _reference(argv, bad + "\n")
    assert code == 1
    assert out == _reference(argv, "".join(line + "\n" for line in lines[:34]))
    assert err == f"error: {exc.value} (line 35)\n"


@pytest.mark.parametrize("argv", _PER_LINE_CASES, ids=" ".join)
def test_only_short_runs_and_long_lines_are_parsed_word_by_word(monkeypatch, argv):
    dyck = argv[-1] in _DYCK_OPS
    lines = _words(dyck, 10, 64, 0)  # one run, with the aliases and a CRLF ending
    lines[3], lines[5] = lines[3].lower(), lines[5].replace("U", "(").replace("D", ")")
    lines[7] += "\r"
    short, long = _words(dyck, 11, 31, 100), _words(dyck, dyckmaps.words._LONG // 2, 1, 200)
    stdin_text = "".join(line + "\n" for line in lines + short + long)
    monkeypatch.setattr(dyckmaps.cli, "_CHUNK_CHARS", len(stdin_text))  # one chunk
    parsed = []

    def spy(text):
        parsed.append(text)
        return dyckmaps.parse_word(text)

    monkeypatch.setattr(dyckmaps.cli, "parse_word", spy)
    code, out, err = _run(argv, stdin_text)
    assert (code, err) == (0, "")
    assert out == _reference(argv, stdin_text)
    assert parsed == short + long


class _TerminalLines:
    """A terminal stdin that refuses to hand out a line before the answers
    to all earlier lines, and nothing more, are on ``stdout``."""

    def __init__(self, lines, stdout, answered):
        self.lines = lines
        self.stdout = stdout
        self.answered = answered  # the output after each number of lines

    def isatty(self):
        return True

    def __iter__(self):
        for i, line in enumerate(self.lines):
            if self.stdout.getvalue() != self.answered[i]:
                raise AssertionError(f"line {i + 1} read before line {i} was answered")
            yield line


_NO_TWIN_CASES = [["classify"], ["render"], ["map", "--op", "phi", "--trace"]]


@pytest.mark.parametrize("argv", _PER_LINE_CASES + _NO_TWIN_CASES, ids=" ".join)
def test_a_terminal_gets_each_answer_before_the_next_line_is_read(argv):
    dyck = argv[-1] in _DYCK_OPS or "--trace" in argv
    lines = [line + "\n" for line in _words(dyck, 10, 40, 0)]
    answered = [""]
    for line in lines:
        answered.append(answered[-1] + _run(argv, line)[1])
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdin=_TerminalLines(lines, out, answered), stdout=out, stderr=err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == answered[-1]
    if argv in _PER_LINE_CASES:
        assert out.getvalue() == _reference(argv, "".join(lines))


def _spied_run(argv, lines):
    """Run a command on a non-terminal stdin of ``lines``; also return, for
    each write to stdout, the lines read since the write before it and the
    text written."""
    read = []
    writes = []

    class Stdin(io.StringIO):
        def __next__(self):  # readlines takes its lines from here too
            line = super().__next__()
            read.append(line)
            return line

    class Stdout(io.StringIO):
        def write(self, s):
            done = sum(len(chunk) for chunk, _ in writes)
            writes.append((read[done:], s))
            return super().write(s)

    out, err = Stdout(), io.StringIO()
    code = run(argv, stdin=Stdin("".join(lines)), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue(), writes


def test_a_chunk_holds_at_most_the_character_bound_and_one_line():
    size = 10**5
    lines = ["UD" * (size // 2) + "\n", "DU" * (size // 2) + "\n"] * 4
    code, out, err, writes = _spied_run(["map", "--op", "alpha"], lines)
    assert (code, err) == (0, "")
    assert out == "".join(line.translate(str.maketrans("UD", "DU")) for line in lines)
    for chunk, s in writes:
        assert len(chunk) == s.count("\n")  # nothing read ahead
        assert sum(map(len, chunk)) <= dyckmaps.cli._CHUNK_CHARS + size + 1
    assert sum(len(chunk) for chunk, _ in writes) == len(lines)


@pytest.mark.parametrize("argv", _NO_TWIN_CASES, ids=" ".join)
def test_a_command_without_a_twin_answers_each_line_before_reading_the_next(argv):
    lines = [line + "\n" for line in _words(True, 10, 40, 0)]
    code, out, err, writes = _spied_run(argv, lines)
    assert (code, err) == (0, "")
    assert [chunk for chunk, _ in writes] == [[line] for line in lines]
    assert [s for _, s in writes] == [_run(argv, line)[1] for line in lines]


@pytest.mark.parametrize("argv, over_cap", [
    (["render"], "U" * 50 + "D" * 50),  # 100 steps x 50 rows
    (["map", "--op", "phi", "--trace"], "UD" * 100),
], ids=" ".join)
def test_a_line_over_the_cap_ends_the_output_after_the_lines_before_it(
        monkeypatch, argv, over_cap):
    monkeypatch.setattr(dyckmaps.render, "_MAX_CELLS", 1000)
    monkeypatch.setattr(dyckmaps.maps, "_MAX_CELLS", 1000)
    good = [line + "\n" for line in _words(True, 10, 5, 0)]
    code, out, err = _run(argv, "".join(good) + over_cap + "\n" + good[0])
    with pytest.raises(dyckmaps.DyckError) as exc:
        if argv[0] == "render":
            dyckmaps.render_ascii(dyckmaps.parse_word(over_cap))
        else:
            dyckmaps.phi_stages(dyckmaps.parse_word(over_cap))
    assert code == 1
    assert out == "".join(_run(argv, line)[1] for line in good)
    assert out.count("\n") > 5  # each good line answered
    assert err == f"error: {exc.value} (line 6)\n"


# --- whole streams against the public API, line by line -------------------------

_STREAM_CASES = _PER_LINE_CASES + [["classify"], ["render"]]


def _line_by_line(argv, lines):
    """(exit status, stdout, stderr) of a command on ``lines`` by the public
    API one line at a time, up to the first error and its line number."""
    out = []
    for lineno, line in enumerate(lines, 1):
        try:
            out.append(_answer(argv, line) + "\n")
        except dyckmaps.DyckError as exc:
            return 1, "".join(out), f"error: {exc} (line {lineno})\n"
    return 0, "".join(out), ""


def _dress(text, how):
    """The line of a word in an alias alphabet or with a CRLF ending."""
    if how == "lower":
        return text.lower()
    if how == "brackets":
        return text.replace("U", "(").replace("D", ")")
    if how == "mixed":
        return "".join(ch.lower() if i % 3 else ch for i, ch in enumerate(text))
    return text + "\r"


@st.composite
def _streams(draw):
    """Input lines: runs of 1-33 words of one length, Dyck or balanced, 31, 32
    and 33 often; at most one line of a run dipping below the axis, open or
    with a character outside the alphabets; some lines in an alias alphabet
    or with a CRLF ending; empty lines; a word of about ``_LONG`` steps."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 9)) == 9:  # shrinks away from the long word
            size = dyckmaps.words._LONG + draw(st.sampled_from([-2, 0, 2]))
            lines.append(dyckmaps.sample_dyck(size // 2, draw(st.integers(0, 99))).text)
            continue
        n = draw(st.integers(1, 12))
        count = draw(st.sampled_from([31, 32, 33, 31, 32, 33, 1, 5, 20]))
        sample = dyckmaps.sample_dyck if draw(st.booleans()) else dyckmaps.sample_bilateral
        seed = draw(st.integers(0, 10**6))
        run = [sample(n, seed + i).text for i in range(count)]
        bad = draw(st.sampled_from([None, None, "dipping", "open", "X", "é", "\r"]))
        if bad is not None:
            i = draw(st.integers(0, count - 1))
            word = run[i]
            if bad == "dipping":
                run[i] = "D" + word[:-1] if word[-1] == "D" else "DU" * n
            elif bad == "open":
                run[i] = word[:-1] + ("U" if word[-1] == "D" else "D")
            else:
                at = draw(st.integers(0, 2 * n - 1))
                run[i] = word[:at] + bad + word[at + 1:]
        for i, how in draw(st.dictionaries(st.integers(0, count - 1), st.sampled_from(
                ["lower", "brackets", "mixed", "crlf"]), max_size=4)).items():
            run[i] = _dress(run[i], how)
        lines += run + [""] * draw(st.sampled_from([0, 0, 1, 3]))
    return lines


@settings(max_examples=100, deadline=None)
@given(lines=_streams(), chunk_chars=st.integers(100, 4000))
def test_streams_answer_as_the_public_api_line_by_line(lines, chunk_chars):
    stdin_text = "".join(line + "\n" for line in lines)
    with mock.patch.object(dyckmaps.cli, "_CHUNK_CHARS", chunk_chars):
        for argv in _STREAM_CASES:
            assert _run(argv, stdin_text) == _line_by_line(argv, lines), argv


# --- one chunk's answers, without a stream -------------------------------------

def _op_answers(texts, op="phi-ext", many=True):
    record = dyckmaps.maps._MAPS[op]
    return dyckmaps.cli._answers(texts, record.image, record.images if many else None)


def _error_of(text):
    try:
        dyckmaps.phi_ext(dyckmaps.parse_word(text))
    except dyckmaps.DyckError as exc:
        return exc
    raise AssertionError(f"{text!r} has no error")


def test_an_empty_chunk_has_no_answers_and_no_error():
    assert _op_answers([]) == ([], None)
    assert _op_answers([], many=False) == ([], None)


@pytest.mark.parametrize("bad_at", [None, 0, 20, 39])
def test_answers_without_a_twin_go_word_by_word(bad_at):
    texts = _words(False, 10, 40, 0)
    if bad_at is not None:
        texts[bad_at] = texts[bad_at][:-1] + "U"  # open
    answers, error = _op_answers(texts, many=False)
    keep = len(texts) if bad_at is None else bad_at
    assert answers == [_answer(["map", "--op", "phi-ext"], t) for t in texts[:keep]]
    if bad_at is None:
        assert error is None
    else:
        assert str(error) == str(_error_of(texts[bad_at]))


def test_a_run_whose_first_column_fails_has_no_answers():
    texts = _words(False, 10, 40, 0)
    texts[0] = texts[0][:-1] + "U"
    answers, error = _op_answers(texts)
    assert answers == [] and str(error) == str(_error_of(texts[0]))


def test_the_first_bad_text_of_the_chunk_wins_across_lengths():
    # a run of 33 10-step texts fails at index 5, which the twin reaches first,
    # and a group of 12-step texts at index 3
    short = _words(False, 5, 33, 0)
    short[2] = short[2][:-1] + "U"  # open, at index 5
    group = _words(False, 6, 2, 100) + ["UDXD" + "UD" * 4]
    texts = [short[0], *group, short[1], short[2]] + short[3:]
    answers, error = _op_answers(texts)
    assert answers == [_answer(["map", "--op", "phi-ext"], t) for t in texts[:3]]
    assert isinstance(error, dyckmaps.InvalidCharacterError)
    assert str(error) == str(_error_of(texts[3]))


@pytest.mark.parametrize("many", [False, True], ids=["word-by-word", "twin"])
def test_no_text_after_a_failing_one_of_its_length_is_answered(many):
    texts = _words(True, 10, 40, 0)
    texts[10] = "D" + texts[10][:-1]  # dipping, so the twin stops there
    record = dyckmaps.maps._MAPS["phi"]
    seen = []

    def one(word):
        seen.append(word.text)
        return record.image(word)

    answers, error = dyckmaps.cli._answers(texts, one, record.images if many else None)
    assert len(answers) == 10 and isinstance(error, dyckmaps.NotADyckWordError)
    assert seen == (texts[:11] if not many else texts[10:11])
