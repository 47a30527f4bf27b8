#!/usr/bin/env python3
"""Tour of the invariant gradient fields on sl(3).

Everything below is exact rational arithmetic: each printed identity is a
literal equality of coordinate vectors, not an approximation.
"""

import random

from nilab import (
    bracket,
    build_algebra,
    center_of,
    centralizer,
    eval_generator,
    gradient,
    make_samples,
    mixed_term,
    taylor_terms,
    trace_form,
    verify_field_identities,
)

alg = build_algebra("A", 2)  # sl(3)
print(f"algebra: {alg.name}, dim {alg.dim}, generator degrees {alg.generator_degrees}")

rng = random.Random(0)
x = alg.random_element(rng)
y = alg.random_element(rng)

# The generators are tr(x^2) and tr(x^3); their gradients against the trace
# form are 2x and 3(x^2 - tr(x^2)/3).
print("\np_1(x) = tr x^2 =", eval_generator(alg, 1, x))
p1 = gradient(alg, 1, x)
print("P_1(x) == 2x:", p1 == x.scale(2))

# The defining pairing: <dp_j(x), y> = T(P_j(x), y), with the left side
# recovered purely from scalar values of p_j along the line x + t y.
p2 = gradient(alg, 2, x)  # re-derives the pairing on five seeded directions
print("pairing T(P_2(x), y) =", trace_form(p2, y))

# Equivariance: dP(x).[y,x] = [y, P(x)].  The directional derivative is the
# t-coefficient of P(x + t v).
lhs = taylor_terms(alg, 2, x, bracket(y, x)).terms[1]
print("equivariance dP_2(x).[y,x] == [y, P_2(x)]:", lhs == bracket(y, p2))

# Exchange symmetry: the Taylor coefficients of P along x->y read backwards
# are the coefficients along y->x.
tx = taylor_terms(alg, 2, x, y)
ty = taylor_terms(alg, 2, y, x)
print("exchange symmetry:", all(tx.terms[k] == ty.terms[2 - k] for k in range(3)))

# Mixed derivatives are terms of the same closed-form expansion, taken in
# two directions.
d2 = mixed_term(alg, 2, x, y, 1, y, 1)
print("d^2 P_2(x).y.y == 2 * (second Taylor coefficient):", d2 == tx.terms[2].scale(2))

# P(x) always lands in the center of the centralizer of x.
print("P_2(x) in center of z(x):", center_of(centralizer(x)).contains(p2))

# The full per-sample suite (pairing, equivariance, exchange, propagation,
# membership, unipotent invariance) on 10 seeded samples, one report per
# generator; each line it checks is evaluated once for both generators:
for report in verify_field_identities(alg, make_samples(alg, 10, seed=0)):
    print(report.summary())
