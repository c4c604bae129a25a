"""From a Jordan triple to its reduction chain and back.

A triple holds Jordan blocks per symbol and their signs: a sign on
every single block where singles are defined, which fixes the sign of
each adjacent pair by the product rule, and otherwise a sign on every
adjacent pair.  Admissible triples
reduce step by step to an alternated one; the canonical chain records
the steps, and realizing the chain rebuilds the triple exactly.

Run with:  python3 demos/triple_classification_tour.py
"""

from segtriples import (
    CuspidalSupport,
    CuspidalSymbol,
    MINUS,
    ODD,
    PLUS,
    canonical_chain,
    chain_text,
    make_triple,
    realize_chain,
    subordinate_reductions,
    triple_text,
    validate_triple,
)

rho = CuspidalSymbol("rho", 1, ODD)
cusp = CuspidalSupport("sigma", {})

# four blocks with alternating-ish signs; pair signs follow by the
# product rule since singles are defined here
t = make_triple(cusp, [(rho, a) for a in (1, 3, 5, 7)],
                {(rho, 1): PLUS, (rho, 3): PLUS, (rho, 5): MINUS, (rho, 7): MINUS})
print("triple:", triple_text(t))
print("valid: ", validate_triple(t) == [])
print()

print("one-step subordinations (pairs carrying +1 can be removed):")
for red in subordinate_reductions(t):
    print(f"  drop ({red.lower},{red.upper}) -> {triple_text(red.result)}")
print()

chain = canonical_chain(t)
print("canonical chain, base first:")
print(" ", chain_text(chain))
for step in chain.steps:
    print(f"  grow ({step.lower},{step.upper}) at {step.rho.id} with sign {step.sign:+d}")
print()

rebuilt = realize_chain(chain)
assert rebuilt == t
print("realize_chain(canonical_chain(t)) == t:", rebuilt == t)
