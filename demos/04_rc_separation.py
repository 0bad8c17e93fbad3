"""Separating the comparison radii of the two corners, certificate by
certificate.

Run:  python demos/04_rc_separation.py
"""

from fractions import Fraction

from ahcert import (
    certify_rc_lower,
    make_geometric_family,
    rc_upper,
    separation,
    sequences,
)

table = sequences(make_geometric_family(6), 40)

print("Upper side (distinguished corner): one check covers every stage past the horizon")
upper = rc_upper(table)
(c,) = upper.checks
print(f"  {c.name}:")
print(f"    ~{float(c.lhs):.6f} {c.rel} {c.rhs} -> {c.holds} "
      f"(left side exact, {c.lhs.denominator.bit_length()}-bit denominator)")
print(f"certified limit bound: rc <= {upper.certified_limit_bound} "
      f"(halved limiting dimension-to-rank ratio)")

print()
rho = Fraction(3, 2)
print(f"Lower side (complementary corner) at rho = {rho}:")
cert = certify_rc_lower(table, rho)
print(f"  delta = {cert.delta}, epsilon = {cert.epsilon}, "
      f"n0 = {cert.n0}, working stage n = {cert.n}")
print(f"  test ranks: N1 = {cert.N1}, N2 = rho N1 = {cert.N2} "
      f"(ambient r({cert.n}) = {table.r[cert.n]})")
print(f"  trace gap at the two extreme mixtures: "
      f"{cert.endpoint_lambda1} and {cert.endpoint_lambda0}, both > {rho}")
print(f"  recorded inequalities: {len(cert.checks)}, "
      f"all re-verified independently: {cert.reverify()}")

print()
print("A few of the recorded inequalities (each self-contained):")
for c in cert.checks[:6]:
    print(f"  {c.name}: {c.lhs} {c.rel} {c.rhs} -> {c.holds}")

print()
report = separation(table, rho=rho)
print(
    f"Separation: rc(q corner) <= {report.upper_bound} < rho = {report.rho} "
    f"<= rc(complement corner); status = {report.status}"
)
