"""Self-contained naive reference implementations used as test oracles.

Everything here works on plain strings over {U, D} and is written for
obviousness, not speed: direct definition scans, literal recursive
transcriptions of the rewriting rules, and brute-force enumeration.  No
imports from the package under test.
"""

from __future__ import annotations

from itertools import product


def heights(text):
    """Prefix sums of +-1, one per step."""
    out = []
    h = 0
    for ch in text:
        h = h + 1 if ch == "U" else h - 1
        out.append(h)
    return out


def classify(text):
    if not text:
        return "empty"
    hs = heights(text)
    if hs[-1] != 0:
        return "not_closed"
    if min(hs) >= 0:
        return "dyck"
    if max(hs) <= 0:
        return "negative_dyck"
    return "bilateral_proper"


def step_height(text, i):
    """1-based; the larger endpoint height of step i."""
    hs = [0] + heights(text)
    return max(hs[i - 1], hs[i])


def peaks(text):
    return sum(1 for a, b in zip(text, text[1:]) if a == "U" and b == "D")


def valleys(text):
    return sum(1 for a, b in zip(text, text[1:]) if a == "D" and b == "U")


def contacts(text):
    """Down-steps at height 1 plus up-steps at height 0."""
    total = 0
    for i, ch in enumerate(text, 1):
        j = step_height(text, i)
        if (ch == "D" and j == 1) or (ch == "U" and j == 0):
            total += 1
    return total


def crossings(text):
    total = 0
    for i in range(1, len(text)):
        a, b = text[i - 1], text[i]
        if a == b == "D" and step_height(text, i) == 1 and step_height(text, i + 1) == 0:
            total += 1
        if a == b == "U" and step_height(text, i) == 0 and step_height(text, i + 1) == 1:
            total += 1
    return total


def _parity_count(text, want_step, want_odd):
    total = 0
    for i, ch in enumerate(text, 1):
        if ch == want_step and (step_height(text, i) % 2 != 0) == want_odd:
            total += 1
    return total


def ups_odd(text):
    return _parity_count(text, "U", True)


def ups_even(text):
    return _parity_count(text, "U", False)


def downs_odd(text):
    return _parity_count(text, "D", True)


def downs_even(text):
    return _parity_count(text, "D", False)


def first_return(text):
    """(head, rest) split of a nonempty Dyck word at its first return."""
    hs = heights(text)
    r = hs.index(0) + 1
    return text[:r], text[r:]


def block_parse(text):
    """(inner list, tail) of the U(UW1D)...(UWsD)D T factorization."""
    head, tail = first_return(text)
    interior = head[1:-1]
    inner = []
    while interior:
        blk, interior = first_return(interior)
        inner.append(blk[1:-1])
    return inner, tail


def phi(text):
    """Literal recursive transcription of the forward rewriting rule."""
    if not text:
        return ""
    inner, tail = block_parse(text)
    s = len(inner)
    return "".join("U" + phi(sub) for sub in inner) + "UD" + "D" * s + phi(tail)


def phi_bracketing(text):
    """Recursive rendering of the block parse: every block's interior in
    parentheses, the tail inline."""
    if not text:
        return ""
    inner, tail = block_parse(text)
    blocks = "".join("U(" + phi_bracketing(sub) + ")D" for sub in inner)
    return "U" + blocks + "D" + phi_bracketing(tail)


def spine_parse(text):
    """(inner list, tail) of the (UW1)...(UWs) U D^{s+1} T factorization."""
    head, tail = first_return(text)
    run = len(head) - len(head.rstrip("D"))
    s = run - 1
    body = head[: len(head) - run - 1]
    inner = []
    hs = [0] + heights(body)
    pos = len(body)
    for level in range(s, 0, -1):
        cut = max(
            i for i in range(len(body)) if body[i] == "U" and hs[i + 1] == level
        )
        inner.append(body[cut + 1 : pos])
        pos = cut
    inner.reverse()
    return inner, tail


def psi(text):
    """Literal recursive transcription of the inverse rewriting rule."""
    if not text:
        return ""
    inner, tail = spine_parse(text)
    return (
        "U" + "".join("U" + psi(sub) + "D" for sub in inner) + "D" + psi(tail)
    )


def alpha(text):
    return "".join("D" if ch == "U" else "U" for ch in text)


def beta(text):
    if not text:
        return ""
    head, rest = first_return(text)
    return "U" + rest + "D" + head[1:-1]


def crossing_factors(text):
    """Maximal same-sign excursion runs."""
    factors = []
    current = ""
    sign = 0
    start = 0
    for i, h in enumerate(heights(text)):
        if h == 0:
            exc = text[start : i + 1]
            exc_sign = 1 if exc[0] == "U" else -1
            if sign and exc_sign != sign:
                factors.append(current)
                current = ""
            current += exc
            sign = exc_sign
            start = i + 1
    if current:
        factors.append(current)
    return factors


def phi_ext(text):
    parts = []
    for factor in crossing_factors(text):
        if factor[0] == "U":
            parts.append(phi(factor))
        else:
            parts.append(alpha(phi(beta(alpha(factor)))))
    return "".join(parts)


def psi_ext(text):
    parts = []
    for factor in crossing_factors(text):
        if factor[0] == "U":
            parts.append(psi(factor))
        else:
            parts.append(alpha(beta(psi(alpha(factor)))))
    return "".join(parts)


def render(text):
    """ASCII drawing of a balanced word, one band at a time, top down: the
    band between heights j-1 and j holds '/' or '\\' at each step whose
    higher vertex is at height j, and a rule of '-' marks the axis."""
    if not text:
        return ""
    hs = heights(text)
    rows = []
    for band in range(max(0, *hs), min(0, *hs), -1):
        cells = []
        prev = 0
        for ch, h in zip(text, hs):
            if max(prev, h) == band:
                cells.append("/" if ch == "U" else "\\")
            else:
                cells.append(" ")
            prev = h
        rows.append("".join(cells).rstrip())
    rows.insert(max(0, *hs), "-" * len(text))
    return "\n".join(rows)


def all_balanced(n):
    """Every balanced word of semilength n by filtering the full cube."""
    for combo in product("UD", repeat=2 * n):
        if combo.count("U") == n:
            yield "".join(combo)


def all_dyck(n):
    for text in all_balanced(n):
        if min(heights(text), default=0) >= 0:
            yield text


_LEX = str.maketrans("UD", "AB")


def lex_key(text):
    """Sort key realizing lexicographic order with U < D."""
    return text.translate(_LEX)


def catalan(n):
    """Catalan numbers by the convolution recurrence."""
    vals = [1]
    for m in range(n):
        vals.append(sum(vals[i] * vals[m - i] for i in range(m + 1)))
    return vals[n]


def central_binomial(n):
    """C(2n, n) by the ratio recurrence, exactly."""
    value = 1
    for k in range(1, n + 1):
        value = value * 2 * (2 * k - 1) // k
    return value
