"""The square-zero ring computation behind the embedding obstruction.

The dense ring shown here is the reference; ``min_trivial_embedding_rank``
computes the same bound in the symmetric subring.

Run:  python demos/03_chern_obstruction.py
"""

from ahcert import (
    invert_unit,
    min_trivial_embedding_rank,
    multiply,
    total_chern_product_bundle,
)
from ahcert.chern import from_coefficients, one

print("In Z[e1..ek]/(e_j^2), the total class of the k-fold line-bundle")
print("product is prod (1 + e_j).  For k = 3 its coefficients (by subset):")
total = total_chern_product_bundle(3)
for mask in range(8):
    subset = tuple(j + 1 for j in range(3) if mask >> j & 1)
    print(f"  {subset or '()'}: {total.coefficients[mask]}")

print()
print("Its inverse is the alternating product prod (1 - e_j):")
inverse = invert_unit(total)
for mask in range(8):
    subset = tuple(j + 1 for j in range(3) if mask >> j & 1)
    print(f"  {subset or '()'}: {inverse.coefficients[mask]}")
print(f"product check: total * inverse == 1 -> {multiply(total, inverse) == one(3)}")

print()
print("A two-element sanity check: (1 + e1)(1 - e1) collapses to 1 because")
print("e1^2 = 0:")
a = from_coefficients(1, {(): 1, (1,): 1})
b = from_coefficients(1, {(): 1, (1,): -1})
print(f"  (1 + e1)(1 - e1) == 1 -> {multiply(a, b) == one(1)}")

print()
print("Embedding bound: a complement inside a trivial bundle carries the")
print("inverse class, whose top coefficient (-1)^k never vanishes, so the")
print("complement has rank >= k and the trivial bundle rank >= 2k:")
for k in range(0, 11):
    bound = min_trivial_embedding_rank(k)
    print(
        f"  k={k:>2}: min trivial rank = {bound.min_rank:>2}, "
        f"top coefficient = {bound.top_coefficient:+d}"
    )
