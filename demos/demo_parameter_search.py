#!/usr/bin/env python3
"""Grid search for smooth split-Jacobian curves, deduplicated by geometric
isomorphism class and filtered by a hypothesis predicate."""

from functools import partial

from isogeny_forge.scholten import (
    at_most_one_supersingular,
    box_grid,
    parameter_search,
    split_jacobian_ok,
)

P = 7

predicates = [
    (f"max-one-supersingular@{P}", partial(at_most_one_supersingular, p=P)),
    ("split-jacobian@50", partial(split_jacobian_ok, bound=50)),
]

print(f"searching |a|,|b|,|c|,|d| <= 3 with predicates {[n for n, _ in predicates]}")
count = 0
for rec in parameter_search(box_grid(3), predicates):
    count += 1
    if count <= 12:
        C = rec.curve
        print(f"  {C.params}: lam={C.lam}, sextic={C.curve.coeffs}")
print(f"{count} isomorphism classes found")
