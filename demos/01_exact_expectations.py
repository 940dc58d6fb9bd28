"""Exact expectations of a finite contextual model, step by step.

A contextual model attaches hidden variables not only to the source pair
(lambda1, lambda2) but also to each instrument, with a separate instrument
space per measurement setting.  This script builds a small model by hand,
evaluates the product expectation and the single-wing marginals by exact
enumeration, and shows two structural facts:

 - the raw marginals never react to anything on the other wing, and
 - conditioning on joint detection (coincidences) can make single-wing
   statistics depend on both settings without any signaling.
"""

import math

import numpy as np

from contextlab.models import (
    FiniteContextualModel,
    coincidence_expectation,
    marginal,
    pair_expectation,
    postselected_marginal,
    random_model,
)

X0, X1 = 0.0, math.pi / 4
Y0, Y1 = math.pi / 8, 3 * math.pi / 8

# Source: two values per side, slightly correlated.
source = [[0.35, 0.15], [0.15, 0.35]]

# Each wing gets its own instrument variable per setting.  Outcomes live in
# {-1, 0, +1}; 0 is "no click".  Note the zero outcomes on Bob's second
# setting: that wing sometimes stays dark there.
dist = [0.5, 0.5]
alice = {
    X0: ((0, 1), dist, [[1, -1], [1, 1]]),
    X1: ((0, 1), dist, [[1, 1], [-1, 1]]),
}
bob = {
    Y0: ((0, 1), dist, [[1, -1], [-1, -1]]),
    Y1: ((0, 1), dist, [[0, 1], [1, 1]]),
}
model = FiniteContextualModel((0, 1), (0, 1), source, alice, bob)

print("product expectations E(AB | x, y):")
for x in (X0, X1):
    for y in (Y0, Y1):
        print(f"  x={x:.4f}  y={y:.4f}  E = {pair_expectation(model, x, y):+.6f}")

# A wing is named by its index: 0 is Alice (outcome A, setting x), 1 is Bob
# (outcome B, setting y).
print("\nraw single-wing expectations (no reference to the other wing):")
for x in (X0, X1):
    print(f"  E(A | x={x:.4f}) = {marginal(model, 0, x):+.6f}")
for y in (Y0, Y1):
    print(f"  E(B | y={y:.4f}) = {marginal(model, 1, y):+.6f}")

# Swap Bob's tables for something entirely different: Alice's marginals are
# bit-identical, not merely close.
other = random_model(np.random.default_rng(99), n1=2, n2=2, n_inst=3)
swapped = FiniteContextualModel(
    model.lambda1_space,
    model.lambda2_space,
    model.source_dist,
    alice,
    {y: other.tables(1, y)[:3] for y in other.bob_settings},  # (space, dist, outcome)
)
print("\nafter replacing every Bob table:")
for x in (X0, X1):
    same = marginal(swapped, 0, x) == marginal(model, 0, x)
    print(f"  E(A | x={x:.4f}) unchanged bit-for-bit: {same}")

# Conditioning on both wings clicking is another story: the reweighting by
# the partner's detection profile makes the conditional marginal depend on
# both settings.  Nothing propagates between the wings; the dependence is
# created by the selection of trials.
print("\ncoincidence-conditioned quantities (Bob's second setting has dark cells):")
for y in (Y0, Y1):
    e_c = coincidence_expectation(model, X0, y)
    m_a = postselected_marginal(model, X0, y, 0)
    print(f"  y={y:.4f}:  E(AB | both clicked) = {e_c:+.6f}   E(A | both clicked) = {m_a:+.6f}")
print("\nraw E(A | x=0) for comparison:", f"{marginal(model, 0, X0):+.6f}")
