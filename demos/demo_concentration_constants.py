#!/usr/bin/env python3
"""Concentration constants as extremal eigenvalue problems.

The best constant C in  ||f||^2 <= C * ||f restricted to E||^2  over a
finite-dimensional model space is exactly 1/lambda_min of the compression
of multiplication by the indicator of E. Entries are closed-form Gram
integrals, so the only error source is the eigensolve itself.
"""

import math

import numpy as np

from lacspec import (
    Grid,
    Sequence,
    SpectralProfile,
    TailSchedule,
    ThickSet,
    gram_matrix,
    ls_constant,
    nazarov_constant,
    periodic_comb,
    theorem_split_check,
)

print("=" * 70)
print("1. Gram matrices of exponentials restricted to a torus set")
print("=" * 70)
E = ThickSet(((0.0, 0.5),), (0.0, 1.0))
G = gram_matrix(E, Sequence((0, 1)))
print("E = [0, 1/2], frequencies {0, 1}:")
print(G.entries)
est = nazarov_constant(E, Sequence((0, 1)))
print(f"lambda_min = {est.lambda_min!r}")
print(f"analytic    {0.5 - 1 / math.pi!r}  (= 1/2 - 1/pi)")

print()
print("2. The constant degrades as the set shrinks")
print("-" * 70)
seq = Sequence((1, 2, 4, 8, 16, 32))
print("  |E|    lambda_min      C = 1/lambda_min")
for m in (0.9, 0.7, 0.5, 0.3):
    est = nazarov_constant(ThickSet(((0.0, m),), (0.0, 1.0)), seq)
    print(f"  {m:.1f}    {est.lambda_min:.8f}    {est.constant_C:10.3f}")

print()
print("=" * 70)
print("3. Thick-set constants for the unit band and for sparse profiles")
print("=" * 70)
grid = Grid(8.0, 8192)
window = (0.0, 8.0)
print("profile [0, 1], periodic combs of density gamma:")
print("  gamma   C")
for gamma in (0.2, 0.5, 0.8):
    E = periodic_comb(gamma, 1.0, window)
    est = ls_constant(E, (0.0, 1.0), grid)
    print(f"  {gamma:.1f}    {est.constant_C:9.4f}")
E = periodic_comb(0.5, 1.0, window)
unit = ls_constant(E, (0.0, 1.0), grid)
sparse = ls_constant(E, SpectralProfile(Sequence((4, 16, 64, 256))), grid)
print(f"same set, profile union of [4^k, 4^k + 1]: C = {sparse.constant_C:.4f}")
print(f"(unit band alone gave C = {unit.constant_C:.4f}; a larger model")
print("space can only raise the constant)")

print()
print("=" * 70)
print("4. Head/tail split of a synthesized function")
print("=" * 70)
rng = np.random.Generator(np.random.Philox(77))
seq = Sequence((4, 16, 64, 256))
schedule = TailSchedule(((1, 2),))
ratios = []
for _ in range(20):
    blocks = [rng.standard_normal(9) + 1j * rng.standard_normal(9)
              for _ in range(4)]
    rec = theorem_split_check(blocks, seq, schedule, 1, E, grid)
    ratios.append(rec.ratio)
print(f"20 random spectra over {list(seq)}, E the half-density comb:")
print(f"restricted-norm ratios stay in [{min(ratios):.4f}, {max(ratios):.4f}]")
control = theorem_split_check([[1.0]], Sequence((4,)),
                              TailSchedule.constant(1), 1, E, grid)
print(f"pure-frequency control: ratio^2 = {control.ratio**2!r} (exactly the")
print("set density 1/2, since |F| is constant)")
