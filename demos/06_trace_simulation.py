"""Trace-side machinery on affine functions: rounding, averaged
compositions, the intertwining ladder, and density of evaluation points.

Run:  python demos/06_trace_simulation.py
"""

from fractions import Fraction
from math import ceil

from ahcert import (
    GridFunction,
    averaged_composition,
    constant_map,
    density_check,
    gap_series,
    identity_map,
    induced_gap,
    make_geometric_family,
    round_convex_weights,
    sequences,
    simulate_intertwining,
    synthetic_system_pair,
    van_der_corput,
)

print("Rounding convex weights to multiples of 1/N:")
alphas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
epsilon = Fraction(1, 10)
N = ceil(Fraction(4 * len(alphas)) / epsilon) + 1
plan = round_convex_weights(alphas, epsilon, N)
print(f"  alphas = {[str(a) for a in alphas]}, N = {N}")
print(f"  betas  = {[str(b) for b in plan.betas]}, "
      f"multiplicities = {plan.multiplicities}")
print(f"  total deviation = {plan.deviation} < eps/2 = {epsilon / 2}")

print()
print("Averaging compositions against a weighted reference operator:")
f = GridFunction.from_callable(lambda x: 1 - x / 2, 256)  # trace functions are affine
h = [identity_map(), constant_map(Fraction(0))]
ref = [(Fraction(2, 3), h[0]), (Fraction(1, 3), h[1])]
plan2 = round_convex_weights([w for w, _ in ref], epsilon, N)
maps = [m for m, c in zip(h, plan2.multiplicities) for _ in range(c)]
(_, gap), = averaged_composition([f], maps, ref)
print(f"  sup gap for f(x) = 1 - x/2: {gap} (~ {float(gap):.5f}) < eps = {epsilon}")

print()
table = sequences(make_geometric_family(6), 12)
print("Stage gaps between two systems agreeing in the d leading entries:")
for n in range(4):
    print(f"  stage {n}: 2 k(n+1)/l(n+1) = {induced_gap(table, n)}")
series = gap_series(table)
print(f"  the series sums to 2 (omega + omega'), so its total is at most "
      f"2 (omega + omega'_ub) = {series.total_bound} (~{float(series.total_bound):.6f}) < 2/5")

print()
stages = 5
print(f"Intertwining ladder over {stages} stages (synthetic maps, v(x) = x):")
sys_a, sys_b = synthetic_system_pair(sequences(make_geometric_family(6), stages), stages)
v = GridFunction.from_callable(lambda x: x, 512)
result = simulate_intertwining(sys_a, sys_b, v, 0, stages)
for i, (dist, bound) in enumerate(zip(result.step_distances, result.step_bounds)):
    print(f"  step {i}: distance ~{float(dist):.8f} <= bound {bound}")
# simulate_intertwining raises on any step above its bound.
print("  all within bounds: True")

print()
print("Density of evaluation points (the low-discrepancy default):")
points = van_der_corput(64)
for eps in (Fraction(1, 32), Fraction(1, 64), Fraction(1, 128)):
    print(f"  every window of width {eps} hit: {density_check(points, 0, eps)}")
