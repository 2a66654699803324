#!/usr/bin/env python3
"""Constructing and certifying lacunary sequences.

Walks through the three lacunarity grades (ratio test, difference-collision
count, scheduled tails), the greedy avoidance construction with its cubic
growth certificate, and the paired-power sequence that separates the
difference-collision grades.
"""

from lacspec import (
    TailSchedule,
    Sequence,
    build_counterexample,
    build_greedy,
    check_hadamard,
    greedy_growth_table,
    strong_zygmund_profile,
    zygmund_constant,
)

print("=" * 70)
print("1. Ratio test (Hadamard grade)")
print("=" * 70)
geometric = Sequence((1, 2, 4, 8, 16))
report = check_hadamard(geometric, q=2.0)
print(f"{list(geometric)}: min ratio {report.constant}, passes q=2: {report.passes}")

dense = Sequence((1, 2, 3, 5, 8))
report = check_hadamard(dense, q=2.0)
print(f"{list(dense)}: min ratio {report.constant}, passes q=2: {report.passes}")

print()
print("=" * 70)
print("2. Difference collisions (Zygmund grade)")
print("=" * 70)
print("For each ordered pair of terms, count the ordered pairs whose")
print("difference lands within L of it (the pair itself included).")
for vals in [(0, 10), (1, 2, 4, 8)]:
    rep = zygmund_constant(Sequence(vals), L=1)
    print(f"{list(vals)}: N = {rep.constant}, extremal pairs {rep.witness[:4].tolist()}")

print()
print("=" * 70)
print("3. Greedy avoidance construction")
print("=" * 70)
print("Each term is the smallest positive integer avoiding a + b - c + p")
print("over all earlier terms and |p| <= L. Growth certificate: the next")
print("term never exceeds (2L+1) n^3 + 1.")
seq = build_greedy(12)
print(f"first 12 terms: {list(seq)}")
table = greedy_growth_table(12)
print("   n   lambda_n   bound")
for n, value, L, bound in table:
    print(f"  {n:2d}   {value:8d}   {bound}")

print()
print("Scheduled thresholds: avoid more aggressively as the sequence grows.")
schedule = TailSchedule(((1, 1), (2, 6), (3, 14)))
stepped = build_greedy(20, schedule)
print(f"schedule M(1)=1, M(2)=6, M(3)=14: {list(stepped)}")
for rep in strong_zygmund_profile(stepped, schedule, [1, 2, 3]):
    print(f"  tail at threshold {int(rep.parameter)}: collision count "
          f"{rep.constant} (the self pair alone)")

print()
print("=" * 70)
print("4. The paired-power sequence 4^k, 4^k + k")
print("=" * 70)
seq = build_counterexample(20)
print(f"first terms: {list(seq)[:8]} ...")
rep = zygmund_constant(seq, L=1)
print(f"collision count at L=1: {rep.constant} (bounded: plain Zygmund grade)")
for L in (2, 4, 8):
    rep = zygmund_constant(seq, L)
    print(f"collision count at L={L}: {rep.constant} >= {L}"
          f"  (grows with L: not the strong grade)")
print()
print("The consecutive-pair differences (4^k + k) - 4^k = k form an")
print("arithmetic family, so widening the collision window by L always")
print("captures at least L of them.")
