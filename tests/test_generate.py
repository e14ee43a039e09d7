import json
import tracemalloc
from collections import Counter
from itertools import product
from math import comb
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import dyckmaps.generate
import oracles
from dyckmaps import (
    CATALAN_NUMBERS,
    CENTRAL_BINOMIALS,
    StatRecord,
    UnknownStatisticError,
    catalan,
    central_binomial,
    distribution,
    generate_bilateral,
    generate_dyck,
    narayana,
    sample_bilateral,
    sample_dyck,
    stat_record,
)
from dyckmaps.generate import (
    _COUNTER_OF,
    _MAX_RANK_N,
    _READS_PREV,
    _TAIL,
    _balanced_texts,
    _dyck_texts,
    _endings,
    _rank_blocks,
    _rank_rows,
    _step_counts,
    _tails,
    _transfer_counts,
)
from dyckmaps.words import PathWord, _scan_rows, classify

DATA = Path(__file__).parent / "data"


def test_catalan_and_central_binomial_match_recurrences():
    # one entry for every n the enumerator takes
    assert len(CATALAN_NUMBERS) == len(CENTRAL_BINOMIALS) == _MAX_RANK_N + 1
    for n in range(_MAX_RANK_N + 1):
        assert catalan(n) == oracles.catalan(n) == CATALAN_NUMBERS[n]
        assert central_binomial(n) == oracles.central_binomial(n) == CENTRAL_BINOMIALS[n]


def test_generate_dyck_order_and_count():
    words = [w.text for w in generate_dyck(3)]
    assert len(words) == 5
    assert words[0] == "UUUDDD"
    assert words[-1] == "UDUDUD"
    assert words == sorted(words, key=oracles.lex_key)  # U < D order


def test_generate_dyck_boundaries():
    assert [w.text for w in generate_dyck(0)] == [""]
    assert [w.text for w in generate_dyck(1)] == ["UD"]
    assert sum(1 for _ in generate_dyck(4)) == 14


def test_generate_bilateral_small():
    assert sorted(w.text for w in generate_bilateral(1)) == ["DU", "UD"]
    words = [w.text for w in generate_bilateral(2)]
    assert len(words) == 6
    assert words == sorted(words, key=oracles.lex_key)
    assert words[0] == "UUDD" and words[-1] == "DDUU"


def test_generators_match_brute_force():
    for n in range(9):
        assert [w.text for w in generate_dyck(n)] == sorted(
            oracles.all_dyck(n), key=oracles.lex_key
        )
        assert [w.text for w in generate_bilateral(n)] == sorted(
            oracles.all_balanced(n), key=oracles.lex_key
        )


def test_generated_words_classify_correctly():
    for n in range(1, 7):
        for w in generate_dyck(n):
            assert classify(w).value == "dyck"
        for w in generate_bilateral(n):
            assert classify(w).value in ("dyck", "negative_dyck", "bilateral_proper")


def test_generator_counts_to_reference():
    for n in range(11):
        assert sum(1 for _ in generate_dyck(n)) == CATALAN_NUMBERS[n]
    for n in range(9):
        assert sum(1 for _ in generate_bilateral(n)) == CENTRAL_BINOMIALS[n]


@pytest.mark.parametrize("generate", [generate_dyck, generate_bilateral])
def test_generators_refuse_semilengths_past_the_int64_ranks(generate):
    # C(68, 34) = 28,453,041,475,240,576,740 is past 2^63
    assert next(generate(33)).text == "U" * 33 + "D" * 33
    # refused at the call, before any next()
    with pytest.raises(ValueError, match="semilength must be at most 33"):
        generate(34)
    with pytest.raises(ValueError, match="semilength must be nonnegative"):
        generate(-1)


@pytest.mark.parametrize("dyck", [True, False], ids=["dyck", "bilateral"])
def test_the_cached_completion_table_is_read_only(dyck):
    ends = _endings(5, dyck)
    assert ends is _endings(5, dyck)  # every block of the class shares it
    with pytest.raises(ValueError, match="read-only"):
        ends[0, 0] = 1


def _stepwise_rank_rows(block) -> np.ndarray:
    """``_rank_rows`` with no tail table: the step loop over every step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dyckmaps.generate, "_TAIL", 0)
        return _rank_rows(*block)


def _tail_path_cases():
    """(n, dyck, rows, every) for the tail-path tests: every block at each
    size up to n = 9; past it, 1- and 7-word blocks are taken at a stride
    (every block of n = 11 one word at a time would take about 20 s)."""
    for dyck in (True, False):
        for n in range(12):
            for rows in (1, 7, 1024, 4096):
                yield n, dyck, rows, 1 if n <= 9 or rows > 7 else 97


@pytest.mark.parametrize("n, dyck, rows, every", _tail_path_cases())
def test_rank_rows_with_its_tail_table_equal_the_step_loop_alone(n, dyck, rows, every):
    blocks = list(_rank_blocks(n, dyck, rows))
    reference = np.concatenate([_stepwise_rank_rows(b) for b in _rank_blocks(n, dyck, 4096)],
                               axis=1)
    for block in blocks[::every] + blocks[-1:]:
        mat = _rank_rows(*block)
        assert mat.dtype == np.uint8 and mat.flags.c_contiguous and mat.flags.writeable
        assert np.array_equal(mat, reference[:, block[2] : block[3]]), block


@pytest.mark.parametrize("dyck", [True, False], ids=["dyck", "bilateral"])
def test_rank_rows_at_n33_equal_the_step_loop_alone_on_the_first_and_last_block(dyck):
    size = (CATALAN_NUMBERS if dyck else CENTRAL_BINOMIALS)[33]
    blocks = _rank_blocks(33, dyck, 4096)
    # the last block, without listing the 10^13 or more before it
    for block in (next(blocks), (33, dyck, size - size % 4096, size)):
        assert np.array_equal(_rank_rows(*block), _stepwise_rank_rows(block)), block


@pytest.mark.parametrize("dyck", [True, False], ids=["dyck", "bilateral"])
def test_the_cached_tail_table_is_read_only_and_lists_every_walk_in_order(dyck):
    walks, first = _tails(_TAIL, dyck)
    assert _tails(_TAIL, dyck)[0] is walks  # every block of every class shares it
    _rank_rows(20, dyck, 0, 10)
    assert _tails(_TAIL, dyck)[0] is walks
    with pytest.raises(ValueError, match="read-only"):
        walks[0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1
    assert walks.shape[1] <= 2**_TAIL and walks.nbytes <= 2**_TAIL * _TAIL
    # each t-step walk back to the axis once, by starting height, then in
    # lexicographic order
    for t in range(9):
        walks, first = _tails(t, dyck)
        by_height = sorted(
            (-text.count("U") + text.count("D"), oracles.lex_key(text), text)
            for text in map("".join, product("UD", repeat=t))
        )
        expected = [text for h, _, text in by_height
                    if not dyck or h + min([0, *oracles.heights(text)]) >= 0]
        assert [col.tobytes().decode() for col in walks.T] == expected
        starts = [h for h, _, text in by_height if text in expected]
        assert [first[h + t] for h in sorted(set(starts))] == [
            starts.index(h) for h in sorted(set(starts))]


def test_the_first_word_costs_one_block_of_memory():
    # a tree of every prefix of a few dozen steps would take gigabytes
    tracemalloc.start()
    try:
        first = next(generate_bilateral(33))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.text == "U" * 33 + "D" * 33
    assert peak < 2_000_000


# --- distributions --------------------------------------------------------------

def test_distribution_examples():
    assert distribution("dyck", 3, "peaks").counts == {1: 1, 2: 3, 3: 1}
    assert distribution("dyck", 3, "ups_odd").counts == {1: 1, 2: 3, 3: 1}
    assert distribution("bilateral", 2, "peaks").counts == {0: 1, 1: 4, 2: 1}


def test_distribution_matches_narayana_rows():
    for n in range(1, 9):
        row = {k: narayana(n, k) for k in range(1, n + 1)}
        assert distribution("dyck", n, "peaks").counts == row
        assert distribution("dyck", n, "ups_odd").counts == row


def test_distribution_two_statistics():
    table = distribution("dyck", 4, "contacts", "peaks")
    assert table.total == catalan(4)
    brute = {}
    for text in oracles.all_dyck(4):
        key = (oracles.contacts(text), oracles.peaks(text))
        brute[key] = brute.get(key, 0) + 1
    assert table.counts == brute


def test_distribution_tables_serialize():
    table = distribution("dyck", 3, "peaks")
    assert table.to_csv() == "peaks,count\n1,1\n2,3\n3,1\n"
    payload = table.to_dict()
    assert payload["class"] == "dyck"
    assert payload["counts"][0] == {"peaks": 1, "count": 1}
    both = distribution("dyck", 3, "contacts", "peaks")
    assert both.to_csv().splitlines()[0] == "contacts,peaks,count"
    prime = distribution("dyck", 3, "is_prime")
    assert prime.to_csv() == "is_prime,count\n0,3\n1,2\n"
    prime2 = distribution("dyck", 3, "contacts", "is_prime")
    assert prime2.to_csv() == "contacts,is_prime,count\n1,1,2\n2,0,2\n3,0,1\n"
    assert json.dumps(prime2.to_dict()["counts"][0]) == (
        '{"contacts": 1, "is_prime": 1, "count": 2}'
    )


def test_distribution_validates_inputs():
    with pytest.raises(UnknownStatisticError):
        distribution("dyck", 3, "sidewaysness")
    with pytest.raises(ValueError):
        distribution("motzkin", 3, "peaks")


def test_distribution_totals():
    for n in range(7):
        assert distribution("dyck", n, "peaks").total == catalan(n)
        assert distribution("bilateral", n, "peaks").total == central_binomial(n)


def test_distribution_checks_class_then_statistic_then_semilength():
    with pytest.raises(ValueError, match="word class"):
        distribution("motzkin", -1, "wiggles")
    with pytest.raises(UnknownStatisticError):
        distribution("dyck", -1, "peaks", "wiggles")
    with pytest.raises(ValueError, match="nonnegative"):
        distribution("bilateral", -1, "peaks")


# to_dict() of tables captured while distribution still enumerated the class
_TABLE_FIXTURES = {
    "table_dyck_n11_contacts_peaks.json": ("dyck", 11, "contacts", "peaks"),
    "table_bilateral_n9_ups_odd.json": ("bilateral", 9, "ups_odd"),
    "table_dyck_n11_is_prime.json": ("dyck", 11, "is_prime"),
    "table_bilateral_n9_is_prime.json": ("bilateral", 9, "is_prime"),
    "table_dyck_n11_contacts_is_prime.json": ("dyck", 11, "contacts", "is_prime"),
    "table_bilateral_n9_contacts_is_prime.json":
        ("bilateral", 9, "contacts", "is_prime"),
    "table_bilateral_n7_max_height_min_height.json":
        ("bilateral", 7, "max_height", "min_height"),
}


@pytest.mark.parametrize("fixture", list(_TABLE_FIXTURES))
def test_distribution_matches_golden_fixture(fixture):
    table = distribution(*_TABLE_FIXTURES[fixture])
    assert json.dumps(table.to_dict(), indent=2) + "\n" == (DATA / fixture).read_text()
    for key, count in table.counts.items():
        assert type(count) is int
        assert all(type(v) is int for v in (key if isinstance(key, tuple) else (key,)))


_EVERY_KEY = [(a,) for a in StatRecord._fields] + [
    (a, b) for a in StatRecord._fields for b in StatRecord._fields
]


@pytest.mark.parametrize("path_class, max_n", [("dyck", 10), ("bilateral", 8)])
def test_distribution_equals_enumeration_for_every_field_and_pair(path_class, max_n):
    for n in range(max_n + 1):
        texts = _dyck_texts(n) if path_class == "dyck" else _balanced_texts(n)
        records = [stat_record(PathWord(t)) for t in texts]
        for stats in _EVERY_KEY:
            expected = Counter(map(attrgetter(*stats), records))
            got = distribution(path_class, n, *stats).counts
            assert got == dict(expected), (path_class, n, stats)


def _tally(values) -> Counter:
    """Counts of per-row keys: one int array, or a tuple of them for pairs."""
    if isinstance(values, tuple):
        keys, counts = np.unique(np.stack(values, axis=1), axis=0, return_counts=True)
        return Counter(dict(zip(map(tuple, keys.tolist()), counts.tolist())))
    keys, counts = np.unique(values, return_counts=True)
    return Counter(dict(zip(keys.tolist(), counts.tolist())))


# the keys of the theorems' distribution checks, over the whole range of the
# exhaustive sweeps that the tests run
@pytest.mark.parametrize("path_class, max_n, keys", [
    ("dyck", 12, [("contacts", "ups_odd"), ("contacts", "peaks")]),
    ("bilateral", 10, [("ups_odd",), ("peaks",)]),
], ids=["dyck", "bilateral"])
def test_theorem_distributions_equal_a_tally_of_the_swept_rows(path_class, max_n, keys):
    dyck = path_class == "dyck"
    for n in range(max_n + 1):
        tallies = {stats: Counter() for stats in keys}
        for block in _rank_blocks(n, dyck, 1024):
            scan = _scan_rows(_rank_rows(*block))
            for stats, tally in tallies.items():
                tally.update(_tally(attrgetter(*stats)(scan)))
        for stats, tally in tallies.items():
            got = distribution(path_class, n, *stats).counts
            assert got == dict(tally), (path_class, n, stats)


# the dict transfer-matrix count that the digit-packed one in
# ``_transfer_counts`` replaced, kept verbatim as its slow reference: every
# counter value is a state of its own
def _dict_transfer_counts(n: int, dyck: bool, stats: tuple) -> dict:
    counters = list(dict.fromkeys(_COUNTER_OF[s] for s in stats if s in _COUNTER_OF))
    base = 2 * n + 1  # above any counter's value
    weight = {c: base**i for i, c in enumerate(counters)}
    track_prev = bool(_READS_PREV.intersection(counters))
    track_hi = "max_height" in stats
    track_lo = "min_height" in stats
    floor = 0 if dyck else -n
    # (h, prev) -> the two steps from it as (next height, next prev, increment)
    moves = {
        (h, prev): [
            (h + 1 if up else h - 1, up if track_prev else None,
             sum(weight[c] * v for c, v in _step_counts(prev, up, h).items()
                 if c in weight))
            for up in (True, False)
        ]
        for h in range(floor, n + 1)
        for prev in ((None, True, False) if track_prev else (None,))
    }
    states = {(0, None, 0, 0, "is_prime" in stats and n > 0, 0): 1}
    for left in range(2 * n - 1, -1, -1):  # steps left after this one
        nxt = {}
        for (h, prev, hi, lo, prime, packed), count in states.items():
            for h2, prev2, inc in moves[h, prev]:
                if h2 < floor or h2 > left or -h2 > left:
                    continue
                key = (
                    h2,
                    prev2,
                    h2 if track_hi and h2 > hi else hi,
                    h2 if track_lo and h2 < lo else lo,
                    prime and (h2 > 0 or not left),
                    packed + inc,
                )
                nxt[key] = nxt.get(key, 0) + count
        states = nxt

    def value(stat: str, hi: int, lo: int, prime: bool, packed: int) -> int:
        if stat == "n":
            return n
        if stat == "max_height":
            return hi
        if stat == "min_height":
            return lo
        if stat == "is_prime":
            return int(prime)
        c = packed // weight[_COUNTER_OF[stat]] % base
        return n - c if stat in ("ups_even", "downs_even") else c

    counts = {}
    for (_, _, *fields), count in states.items():
        values = tuple(value(stat, *fields) for stat in stats)
        key = values if len(stats) == 2 else values[0]
        counts[key] = counts.get(key, 0) + count
    return counts


# past the semilengths that the enumeration test reaches
@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("path_class", ["dyck", "bilateral"])
def test_distribution_equals_the_dict_transfer_count_for_every_field_and_pair(
    path_class, n
):
    for stats in _EVERY_KEY:
        got = distribution(path_class, n, *stats).counts
        assert got == _dict_transfer_counts(n, path_class == "dyck", stats), stats
        assert list(got) == sorted(got), stats


@pytest.mark.parametrize("path_class, keys", [
    ("dyck", [("contacts", "ups_odd"), ("contacts", "peaks")]),
    ("bilateral", [("ups_odd",), ("peaks",)]),
], ids=["dyck", "bilateral"])
def test_theorem_distributions_equal_the_dict_transfer_count_at_n20(path_class, keys):
    for stats in keys:
        got = distribution(path_class, 20, *stats).counts
        assert got == _dict_transfer_counts(20, path_class == "dyck", stats), stats


# a sweep reads every semilength's table from one run at its largest n
@pytest.mark.parametrize("path_class", ["dyck", "bilateral"])
def test_one_dp_run_gives_the_table_of_every_semilength_up_to_its_n(path_class):
    for stats in _EVERY_KEY:
        tables = _transfer_counts(12, path_class == "dyck", stats, every=True)
        assert list(tables) == list(range(13)), stats
        for k, counts in tables.items():
            assert counts == distribution(path_class, k, *stats).counts, (stats, k)
            assert list(counts) == sorted(counts), (stats, k)


def test_distributions_at_n30_equal_their_closed_forms():
    n = 30
    narayana_row = {k: narayana(n, k) for k in range(1, n + 1)}
    assert distribution("dyck", n, "peaks").counts == narayana_row
    ballot = {k: k * comb(2 * n - k, n) // (2 * n - k) for k in range(1, n + 1)}
    assert sum(ballot.values()) == catalan(n)  # so each quotient is exact
    assert distribution("dyck", n, "contacts").counts == ballot
    squares = {k: comb(n, k) ** 2 for k in range(n + 1)}  # OEIS A008459
    assert distribution("bilateral", n, "peaks").counts == squares
    assert distribution("bilateral", n, "ups_odd").counts == squares
    # phi_ext carries odd-height up-steps to peaks and keeps the crossings
    assert (distribution("bilateral", n, "crossings", "ups_odd").counts
            == distribution("bilateral", n, "crossings", "peaks").counts)


# C(68, 34) is past 2^63, so every count here is past int64 or summed past it
@pytest.mark.parametrize("n", [34, 40])
def test_single_statistic_counts_past_2_63_are_exact_python_ints(n):
    assert central_binomial(n) > 2**63
    for path_class, size in (("dyck", catalan(n)), ("bilateral", central_binomial(n))):
        for stat in StatRecord._fields:
            counts = distribution(path_class, n, stat).counts
            assert sum(counts.values()) == size, (path_class, stat)
            assert all(type(c) is int for c in counts.values()), (path_class, stat)


# --- sampling -------------------------------------------------------------------

@pytest.mark.parametrize("sample", [sample_dyck, sample_bilateral])
def test_samplers_refuse_negative_semilengths(sample):
    with pytest.raises(ValueError, match="semilength must be nonnegative"):
        sample(-1, seed=7)


def test_samplers_trivial_sizes():
    assert sample_dyck(0, seed=7).text == ""
    assert sample_bilateral(0, seed=7).text == ""
    assert sample_dyck(1, seed=123).text == "UD"
    assert sample_bilateral(1, seed=123).text in ("UD", "DU")


def test_samplers_are_deterministic_in_the_seed():
    a = sample_dyck(40, seed=99).text
    b = sample_dyck(40, seed=99).text
    c = sample_dyck(40, seed=100).text
    assert a == b
    assert a != c
    assert sample_bilateral(40, seed=5) == sample_bilateral(40, seed=5)


def test_sample_dyck_words_are_pinned_per_seed():
    # captured before the sampler's last copy was dropped
    assert [sample_dyck(12, seed).text for seed in (0, 1, 2)] == [
        "UUDUDUDDUDUUDUDDUUDDUUDD",
        "UDUUUUUUUUDDDUDUDUDDDDDD",
        "UUDUDDUUUUUUDDDUDDDUDUDD",
    ]


def test_samples_land_in_the_right_class():
    for seed in range(40):
        assert classify(sample_dyck(9, seed)).value == "dyck"
        w = sample_bilateral(9, seed)
        assert w.final_height == 0
        assert len(w) == 18


def test_sample_dyck_chi_square_uniformity():
    # 42000 draws over the 42 Dyck words of semilength 5; dof = 41,
    # sigma = sqrt(2 * 41); accept within 3 sigma of the mean.
    draws = 42000
    counts = {}
    for seed in range(draws):
        text = sample_dyck(5, seed).text
        counts[text] = counts.get(text, 0) + 1
    assert len(counts) == 42
    expected = draws / 42
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert abs(chi2 - 41) <= 3 * (2 * 41) ** 0.5


def test_sample_bilateral_chi_square_uniformity():
    draws = 6000
    counts = {}
    for seed in range(draws):
        text = sample_bilateral(2, seed).text
        counts[text] = counts.get(text, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert abs(chi2 - 5) <= 3 * (2 * 5) ** 0.5
