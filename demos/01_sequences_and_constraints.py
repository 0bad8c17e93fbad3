"""Walk through the integer sequences and the certified constant bounds.

Run:  python demos/01_sequences_and_constraints.py
"""

from fractions import Fraction

from ahcert import check_constraints, make_geometric_family, sequences

family = make_geometric_family(6)
table = sequences(family, 8)

print("Stage data for the geometric family with base 6")
print(f"{'n':>3} {'d':>10} {'k':>3} {'l':>10} {'r':>14} {'s':>14} {'t':>12}")
for n in range(9):
    print(
        f"{n:>3} {table.d[n]:>10} {table.k[n]:>3} {table.l[n]:>10} "
        f"{table.r[n]:>14} {table.s[n]:>14} {table.t[n]:>12}"
    )

print()
print("The ratio s(n)/r(n) decreases toward its limit; t(n)/r(n) increases")
print("and stays pinched between the first evaluation fraction omega and")
print("omega plus the tail of the remaining fractions:")
for n in range(1, 9):
    sr = Fraction(table.s[n], table.r[n])
    tr = Fraction(table.t[n], table.r[n])
    print(f"  n={n}:  s/r = {str(sr):>24}  t/r = {str(tr):>22}  ({float(tr):.6f})")

print()
print(f"omega                    = {table.omega} (= k(1)/l(1))")
print(f"omega' upper bound       = {table.omega_prime_ub} "
      f"(~ {float(table.omega_prime_ub):.6f}, partial sum + geometric tail)")
print(f"kappa upper envelope     = {table.kappa_ub} (~ {float(table.kappa_ub):.6f})")
print(f"kappa certified lower bd = {table.kappa_lb} (~ {float(table.kappa_lb):.6f})")

print()
print("The lower bound sharpens as more stages enter the partial product:")
for n in (1, 2, 3, 5, 8):
    lb = sequences(family, n).kappa_lb
    print(f"  from stage {n}: kappa >= {float(lb):.8f}")

def compact(value):
    text = str(value)
    if len(text) <= 24:
        return text
    approx = float(value)
    return f"~{approx:.3e}" if approx >= 100 else f"~{approx:.8f}"


print()
report = check_constraints(family, 40)
print(f"Constraint check at horizon 40 (all pass: {report.all_passed}):")
for entry in report.entries:
    head = entry.checks[0]
    print(f"  {entry.name:<20} {entry.status:<6} [{entry.evidence}]  "
          f"{head.name}: {compact(head.lhs)} {head.rel} {compact(head.rhs)}")
