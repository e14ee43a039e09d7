"""Batch command-line interface.

Words stream one per line on standard input; a blank line is the empty
word.  Exit codes: 0 success, 1 input or validation error, 2 internal
error (a bug), 3 verification failure.

Every command that reads stdin runs one driver, :func:`_per_chunk`, which
reads a chunk of lines at a time and writes their :func:`_answers`.
``map`` (without ``--trace``) and ``stats`` have matrix twins: their chunk
ends once it holds more than ``_CHUNK_CHARS`` characters, or at the end of
the input, and ``_answers`` parses each run of at least ``_MIN_ROWS``
equal-length lines of a chunk as one matrix, which the op's ``maps._MAPS``
record checks against its domain and maps (``_Map.images``), or the matrix
scan of the statistics checks and formats; the output is the same as word
by word.  ``classify``, ``render`` and ``map --trace`` have no twin and read
one line per chunk, as every command does on a terminal.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .decompose import crossing_factorize, first_return_split
from .errors import DyckError
from .generate import _text_blocks, catalan, central_binomial, distribution
from .maps import _MAPS, phi_stages, psi_stages
from .render import render_ascii
from .stats import _JSON_TEMPLATE, _TEXT_TEMPLATE, _stat_line, _stat_lines_rows, stat_record
from .verify import (
    VerificationReport,
    verify_involutions_and_transport,
    verify_randomized,
    verify_theorem1,
    verify_theorem2,
)
from .words import _LONG, _parse_rows, classify, parse_word

_MAX_N = 30  # the range of --n and --max-n
# Words one enum or verify command may walk: enum walks one class at one n,
# verify the words of all its sweeps.  table counts without walking.
_MAX_WORDS = 10**8
# Steps verify --randomized may sample: trials words of 2 * rand-n steps and
# as many of 4 * rand-n for the timing check
_MAX_RANDOM_STEPS = 10**8
# map and stats read more than this many characters of input per chunk, so
# one chunk costs memory in proportion to it plus one line
_CHUNK_CHARS = 1 << 17
# Equal-length lines of a chunk that are parsed, checked and answered as one
# matrix; a shorter run goes word by word.  With the parse and the check, psi
# and psi-ext break even at 16-20 words of 20 or 400 steps, the others at 4-20.
_MIN_ROWS = 32

_STAGED_OPS = {"phi": phi_stages, "psi": psi_stages}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckmaps",
        description="Bijections and exact statistics on Dyck and bilateral Dyck paths.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="transform words from stdin")
    p_map.add_argument("--op", required=True, choices=sorted(_MAPS))
    p_map.add_argument(
        "--trace", action="store_true",
        help="emit '#'-prefixed bracketed stage lines before each result",
    )

    p_stats = sub.add_parser("stats", help="statistics record per word from stdin")
    p_stats.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("classify", help="class of each word from stdin")

    p_enum = sub.add_parser("enum", help="stream all words of a class")
    p_enum.add_argument("--class", dest="path_class", required=True,
                        choices=("dyck", "bilateral"))
    p_enum.add_argument("--n", type=int, required=True)

    p_table = sub.add_parser("table", help="exact distribution table")
    p_table.add_argument("--class", dest="path_class", required=True,
                         choices=("dyck", "bilateral"))
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--stat", required=True)
    p_table.add_argument("--stat2", default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run the verification engine")
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--randomized", action="store_true",
                          help="also run randomized round-trip checks")
    p_verify.add_argument("--rand-n", type=int, default=200,
                          help="semilength for randomized checks")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("render", help="ASCII drawing of each word from stdin")
    return parser


def _chunks(stdin, limit: int):
    """Lists of input lines holding more than ``limit`` characters, the last
    one at most that many; one line each if ``limit`` is 0."""
    if not limit:
        return ([line] for line in stdin)
    return iter(lambda: stdin.readlines(limit), [])  # the line loop runs in C


def _answers(texts: list, one, many=None) -> tuple:
    """The answers to ``texts`` before the first that fails, and its
    DyckError, or None; ``one`` checks and answers a word.  A run of at
    least ``_MIN_ROWS`` texts of one length below ``_LONG`` is parsed as a
    uint8 matrix up to its first bad text, and ``many`` answers its columns
    up to the first that fails; the texts from there on go word by word,
    and none after a text that fails is answered."""
    by_length = {}
    for i, text in enumerate(texts):
        by_length.setdefault(len(text), []).append(i)
    answers = [None] * len(texts)
    bad, error = len(texts), None  # the first text that fails, and why
    for size, rows in by_length.items():
        if many is not None and len(rows) >= _MIN_ROWS and 0 < size < _LONG:
            done = many(_parse_rows([texts[i] for i in rows]))
            for i, answer in zip(rows, done):
                answers[i] = answer
            rows = rows[len(done):]
        for i in rows:
            if i >= bad:
                break
            try:
                answers[i] = one(parse_word(texts[i]))
            except DyckError as exc:
                bad, error = i, exc
    return answers[:bad], error


def _per_chunk(stdin, stdout, one, *, many=None) -> int:
    """Print the :func:`_answers` to the input lines a chunk at a time; a
    chunk is one line without a twin, since one answer can reach the render
    or trace cap, and on a terminal.  The first DyckError ends the command
    once the answers to the lines before it are printed, and names its line."""
    limit = 0 if many is None or stdin.isatty() else _CHUNK_CHARS
    lineno = 0  # the lines before the chunk
    for chunk in _chunks(stdin, limit):
        answers, error = _answers([line.rstrip("\r\n") for line in chunk], one, many)
        stdout.write("".join([answer + "\n" for answer in answers]))
        if error is not None:
            raise DyckError(f"{error} (line {lineno + len(answers) + 1})") from error
        lineno += len(chunk)
    return 0


def _cmd_map(args, stdin, stdout) -> int:
    if args.trace:
        return _per_chunk(stdin, stdout, lambda word: "\n".join(_trace_lines(args, word)))
    op = _MAPS[args.op]
    return _per_chunk(stdin, stdout, op.image, many=op.images)


def _cmd_stats(args, stdin, stdout) -> int:
    template = _JSON_TEMPLATE if args.format == "json" else _TEXT_TEMPLATE
    return _per_chunk(stdin, stdout, lambda word: _stat_line(stat_record(word), template),
                      many=lambda mat: _stat_lines_rows(mat, template))


def _trace_lines(args, word) -> list:
    """The image of one word after its '#'-prefixed trace lines."""
    staged = _STAGED_OPS.get(args.op)
    if staged is not None:
        result, stages = staged(word)
        return [f"# {line}" for line in stages] + [result.text]
    image = _MAPS[args.op].image(word)  # checks the word before its trace
    return _simple_trace(args.op, word) + [image]


def _simple_trace(op: str, word) -> list:
    """Trace lines of the ops without staged traces: alpha, beta, the extensions."""
    if op == "alpha":
        return ["# reflect every step"]
    if op == "beta":
        if not word.text:
            return []
        head, rest = first_return_split(word)
        return [f"# swap U({head.text[1:-1]})D {rest.text} -> "
                f"U({rest.text})D {head.text[1:-1]}"]
    factors = crossing_factorize(word).factors
    return ["# factors: " + " | ".join(f.text for f in factors)] if factors else []


def _check_n(n: int) -> None:
    if not 0 <= n <= _MAX_N:
        raise DyckError(f"--n must be between 0 and {_MAX_N}")


def _check_cap(what: str, count: int, cap=_MAX_WORDS, unit="words") -> None:
    if count > cap:
        raise DyckError(f"{what} = {count} {unit} exceeds the cap of {cap}")


def _cmd_enum(args, stdin, stdout) -> int:
    _check_n(args.n)
    n = args.n
    if args.path_class == "dyck":
        _check_cap(f"Catalan({n})", catalan(n))
    else:
        _check_cap(f"C({2 * n}, {n})", central_binomial(n))
    for texts in _text_blocks(n, args.path_class == "dyck"):
        stdout.write("\n".join(texts) + "\n")
    return 0


def _cmd_table(args, stdin, stdout) -> int:
    _check_n(args.n)
    table = distribution(args.path_class, args.n, args.stat, args.stat2)
    if args.format == "json":
        print(json.dumps(table.to_dict()), file=stdout)
    else:
        stdout.write(table.to_csv())
    return 0


def _cmd_verify(args, stdin, stdout) -> int:
    if not 0 <= args.max_n <= _MAX_N:
        raise DyckError(f"--max-n must be between 0 and {_MAX_N}")
    # each class is swept twice: theorem 1 and beta over Dyck words,
    # theorem 2 and alpha over balanced words
    _check_cap(
        f"2 * sum over n <= {args.max_n} of (Catalan(n) + C(2n, n))",
        2 * sum(catalan(n) + central_binomial(n) for n in range(args.max_n + 1)),
    )
    if args.randomized:  # negative sizes are refused by verify_randomized
        _check_cap("6 * trials * rand-n", 6 * max(args.trials, 0) * max(args.rand_n, 0),
                     _MAX_RANDOM_STEPS, "steps")
    # run first so that invalid --rand-n/--trials fail before the sweeps
    randomized = (
        verify_randomized(args.rand_n, args.trials, args.seed).checks
        if args.randomized else []
    )
    report = VerificationReport()
    report.checks += verify_theorem1(args.max_n, jobs=args.jobs).checks
    report.checks += verify_theorem2(args.max_n, jobs=args.jobs).checks
    report.checks += verify_involutions_and_transport(
        args.max_n, jobs=args.jobs).checks
    report.checks += randomized
    if args.format == "json":
        print(json.dumps(report.to_dict()), file=stdout)
    else:
        print(report.format_text(), file=stdout)
    return 0 if report.ok else 3


_COMMANDS = {
    "map": _cmd_map,
    "stats": _cmd_stats,
    "classify": lambda args, stdin, stdout: _per_chunk(
        stdin, stdout, lambda word: classify(word).value),
    "enum": _cmd_enum,
    "table": _cmd_table,
    "verify": _cmd_verify,
    # a blank line after each drawing
    "render": lambda args, stdin, stdout: _per_chunk(
        stdin, stdout, lambda word: render_ascii(word) + "\n"),
}


def run(argv, stdin=None, stdout=None, stderr=None) -> int:
    """Run one CLI invocation; streams are injectable for testing."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args, stdin, stdout)
    except (DyckError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - indicates a bug
        print(f"internal error: {exc!r}", file=stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
