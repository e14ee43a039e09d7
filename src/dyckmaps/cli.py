"""Batch command-line interface.

Words stream one per line on standard input; a blank line is the empty
word.  Exit codes: 0 success, 1 input or validation error, 2 internal
error (a bug), 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .decompose import crossing_factorize, first_return_split
from .errors import DyckError
from .generate import _CLASS_SOURCES, catalan, central_binomial, distribution
from .maps import alpha, beta, phi, phi_ext, phi_stages, psi, psi_ext, psi_stages
from .render import render_ascii
from .stats import stat_record
from .verify import (
    VerificationReport,
    verify_involutions_and_transport,
    verify_randomized,
    verify_theorem1,
    verify_theorem2,
)
from .words import classify, parse_word

_MAX_N = 30  # the range of --n and --max-n
# Words one enum or verify command may walk: enum walks one class at one n,
# verify the words of all its sweeps.  table counts without walking.
_MAX_WORDS = 10**8

_PLAIN_OPS = {
    "phi": phi,
    "psi": psi,
    "alpha": alpha,
    "beta": beta,
    "phi-ext": phi_ext,
    "psi-ext": psi_ext,
}
_STAGED_OPS = {"phi": phi_stages, "psi": psi_stages}


class _LineError(Exception):
    """Validation error tagged with the offending input line."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"{message} (line {lineno})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyckmaps",
        description="Bijections and exact statistics on Dyck and bilateral Dyck paths.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="transform words from stdin")
    p_map.add_argument("--op", required=True, choices=sorted(_PLAIN_OPS))
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


def _per_line(format_word):
    """A command that prints the lines ``format_word(args, word)`` returns for
    each input line; any DyckError names the line it came from."""

    def command(args, stdin, stdout) -> int:
        for lineno, line in enumerate(stdin, 1):
            try:
                lines = format_word(args, parse_word(line.rstrip("\r\n")))
            except DyckError as exc:
                raise _LineError(lineno, str(exc)) from exc
            for out in lines:
                print(out, file=stdout)
        return 0

    return command


def _map_lines(args, word) -> list:
    """The image of one word, after its '#'-prefixed trace lines with --trace."""
    if not args.trace:
        return [_PLAIN_OPS[args.op](word).text]
    staged = _STAGED_OPS.get(args.op)
    if staged is not None:
        result, stages = staged(word)
        return [f"# {line}" for line in stages] + [result.text]
    result = _PLAIN_OPS[args.op](word)
    return _simple_trace(args.op, word) + [result.text]


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


def _stats_lines(args, word) -> list:
    rec = stat_record(word)
    return [json.dumps(rec.to_dict()) if args.format == "json" else rec.to_text()]


def _check_n(n: int) -> None:
    if not 0 <= n <= _MAX_N:
        raise DyckError(f"--n must be between 0 and {_MAX_N}")


def _check_words(what: str, words: int) -> None:
    if words > _MAX_WORDS:
        raise DyckError(f"{what} = {words} words exceeds the cap of {_MAX_WORDS}")


def _cmd_enum(args, stdin, stdout) -> int:
    _check_n(args.n)
    n = args.n
    if args.path_class == "dyck":
        _check_words(f"Catalan({n})", catalan(n))
    else:
        _check_words(f"C({2 * n}, {n})", central_binomial(n))
    for text in _CLASS_SOURCES[args.path_class](n):
        print(text, file=stdout)
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
    _check_words(
        f"2 * sum over n <= {args.max_n} of (Catalan(n) + C(2n, n))",
        2 * sum(catalan(n) + central_binomial(n) for n in range(args.max_n + 1)),
    )
    # run first so that invalid --rand-n/--trials fail before the sweeps
    randomized = (
        verify_randomized(args.rand_n, args.trials, args.seed).checks
        if args.randomized else []
    )
    report = VerificationReport()
    report.checks += verify_theorem1(args.max_n, jobs=args.jobs).checks
    report.checks += verify_theorem2(args.max_n, jobs=args.jobs).checks
    report.checks += verify_involutions_and_transport(args.max_n).checks
    report.checks += randomized
    if args.format == "json":
        print(json.dumps(report.to_dict()), file=stdout)
    else:
        print(report.format_text(), file=stdout)
    return 0 if report.ok else 3


_COMMANDS = {
    "map": _per_line(_map_lines),
    "stats": _per_line(_stats_lines),
    "classify": _per_line(lambda args, word: [classify(word).value]),
    "enum": _cmd_enum,
    "table": _cmd_table,
    "verify": _cmd_verify,
    # a blank line after each drawing
    "render": _per_line(lambda args, word: [render_ascii(word), ""]),
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
    except (_LineError, DyckError, ValueError) as exc:
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
