"""The brute-force verification engine.

Every claim the library makes about its maps can be machine-checked at
desk scale.  The engine enumerates word classes in chunks, runs round
trips and statistic transport on a whole chunk at once, compares whole
distributions, and reports the lexicographically first counterexample when
something breaks.  One worker checks every chunk, the randomized samples
included.  A map passed in by the caller runs word by word, and an image
that is no word of the class (wrong length, letters other than U and D,
or outside the class) fails every check of its word.
"""

from dyckmaps import (
    parse_word,
    phi,
    verify_involutions_and_transport,
    verify_randomized,
    verify_theorem1,
    verify_theorem2,
)

print("Dyck bijection, all words up to semilength 8:")
print(verify_theorem1(8).format_text())
print()

print("bilateral extension, all words up to semilength 7:")
print(verify_theorem2(7).format_text())
print()

print("involutions and transports up to semilength 7:")
print(verify_involutions_and_transport(7).format_text())
print()

print("randomized checks, 200 words of semilength 300:")
print(verify_randomized(300, trials=200, seed=7).format_text())
print()


# Break the forward map on purpose: drop the relocated descent run.  The
# engine pins the damage to the first word that exposes it.
def broken(text):
    return phi(parse_word(text)).text.replace("UDD", "UD", 1)


print("the same engine against a deliberately broken map:")
report = verify_theorem1(3, phi_fn=broken)
print(report.format_text())
assert not report.ok
