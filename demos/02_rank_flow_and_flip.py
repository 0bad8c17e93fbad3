"""Rank vectors through the stages, the Bott element, and the flip.

Run:  python demos/02_rank_flow_and_flip.py
"""

from ahcert import (
    K0Class,
    cuntz_threshold,
    flip_compatibility,
    initial_bott_shape,
    make_geometric_family,
    push_bott,
    push_k0,
    q_perp_ranks,
    sequences,
    stage_layout,
)

table = sequences(make_geometric_family(6), 10)

print("Each stage map has a two-component layout; for stage 0 -> 1:")
layout = stage_layout(table, 0)
print(f"  first-component target entries : {[e.kind for e in layout.x_target]}")
print(f"  second-component target entries: {[e.kind for e in layout.y_target]}")

print()
print("The class of the distinguished corner projection starts at (1, 0)")
print("and flows through the merged connecting matrices [[d, k], [k, d]]:")
cls = K0Class(0, 1, 0)
for n in range(6):
    perp = q_perp_ranks(table, n)
    print(
        f"  stage {n}: [q] = ({cls.x}, {cls.y})   "
        f"[q complement] = ({perp.x_rank}, {perp.y_rank})   swap matches: "
        f"{(cls.y, cls.x) == (perp.x_rank, perp.y_rank)}"
    )
    if n < 5:
        cls = push_k0(table, cls)

print()
print("The distinguished positive element keeps a rank-s(n) twisted part")
print("plus constant parts bounded by the closed forms:")
shape = initial_bott_shape()
for n in range(6):
    r, s, t = table.r[n], table.s[n], table.t[n]
    print(
        f"  stage {n}: twisted rank {shape.bott_rank} (= s), "
        f"constants <= ({shape.x_const_rank_ub}, {shape.y_const_rank_ub}) "
        f"(= (r-s-t, t) = ({r - s - t}, {t}))"
    )
    if n < 5:
        shape = push_bott(shape, table)

print()
print("A trivial projection cannot approximately dominate the twisted part")
print("unless its rank reaches twice the twist:")
for n in range(5):
    print(f"  stage {n}: threshold = 2 s({n}) = {cuntz_threshold(table, n)}")

print()
report = flip_compatibility(table)
print(
    "Flip report: the swapped [q] class equals the complement's ranks "
    "(t(n), r(n) - t(n)) at stage 0, and the t recursion carries this to "
    f"every stage ({len(report.checks)} exact checks at any horizon):"
)
for c in report.checks:
    print(f"  {c.name}: {c.lhs} {c.rel} {c.rhs}")
print("(The swap is an involution and commutes with every connecting matrix")
print(" [[d, k], [k, d]] by construction, so those facts are not re-checked.)")
