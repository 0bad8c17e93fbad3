"""Acceptance suite: one test per shipping criterion, one printed line each.

Every criterion is evaluated with exact arithmetic (zero tolerance) and,
where stated, a wall-clock budget.  The printed lines go through the
real stdout so they are visible regardless of capture settings.
"""

import random
import time
from fractions import Fraction
from math import ceil

from ahcert.chern import (
    MultilinearClass,
    invert_unit,
    min_trivial_embedding_rank,
    multiply,
    one,
    total_chern_product_bundle,
)
from ahcert.params import make_geometric_family, sequences
from ahcert.pipeline import certify_theorem
from ahcert.ranks import (
    K0Class,
    connecting_matrix,
    initial_bott_shape,
    push_bott,
    push_k0,
    q_perp_ranks,
)
from ahcert.rcbounds import certify_rc_lower, rc_upper, verify_checks
from ahcert.telescope import telescope, weierstrass_check
from ahcert.tracesim import (
    GridFunction,
    gap_series,
    induced_gap,
    round_convex_weights,
    simulate_intertwining,
    synthetic_system_pair,
)


def report_line(capsys, criterion: int, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion}: {status} ({elapsed:.2f}s) {detail}"
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_full_certification(capsys):
    t0 = time.monotonic()
    report = certify_theorem({"N": 6, "horizon": 40, "rho": "3/2"})
    elapsed = time.monotonic() - t0
    table = report.table
    ok = (
        report.verdict == "Certified"
        and elapsed < 5.0
        and table.omega == Fraction(1, 7)
        and table.omega_prime_ub <= Fraction(1, 30)
        and table.kappa_lb > Fraction(3, 4)
        and report.constraints.all_passed
        and report.constraints.reverify()
    )
    report_line(
        capsys,
        1,
        ok,
        elapsed,
        f"certify N=6 horizon=40 -> {report.verdict}; omega={table.omega}; "
        f"omega'_ub<=1/30: {table.omega_prime_ub <= Fraction(1, 30)}; "
        f"kappa_lb>3/4: {table.kappa_lb > Fraction(3, 4)}",
    )
    assert ok


def test_criterion_2_rc_bounds_and_separation(capsys):
    t0 = time.monotonic()
    table = sequences(make_geometric_family(6), 40)
    upper = rc_upper(table)
    cert = certify_rc_lower(table, Fraction(3, 2))
    elapsed = time.monotonic() - t0
    ok = (
        upper.certified_limit_bound == Fraction(7, 5)
        and Fraction(7, 5) < Fraction(3, 2)
        and cert.reverify()
        and verify_checks(cert.checks)
        and upper.reverify()
        and elapsed < 5.0
    )
    report_line(
        capsys,
        2,
        ok,
        elapsed,
        f"upper bound {upper.certified_limit_bound} < rho 3/2; "
        f"lower certificate at n={cert.n} with N1={cert.N1} re-verified",
    )
    assert ok


def _scatter_multiply(a: MultilinearClass, b: MultilinearClass) -> MultilinearClass:
    """Independent expansion: every subset against every disjoint subset."""
    k = a.k
    full = (1 << k) - 1
    out = [0] * (1 << k)
    for s_a in range(1 << k):
        ca = a.coefficients[s_a]
        if ca == 0:
            continue
        comp = full ^ s_a
        s_b = comp
        while True:
            out[s_a | s_b] += ca * b.coefficients[s_b]
            if s_b == 0:
                break
            s_b = (s_b - 1) & comp
    return MultilinearClass(k, tuple(out))


def test_criterion_3_chern_suite(capsys):
    t0 = time.monotonic()
    ok = True
    for k in range(11):
        bound = min_trivial_embedding_rank(k)
        total = total_chern_product_bundle(k)
        inverse = invert_unit(total)
        ok = (
            ok
            and bound.min_rank == 2 * k
            and _scatter_multiply(total, inverse) == one(k)
            and multiply(total, inverse) == one(k)
            and inverse.top_coefficient() == (-1) ** k
        )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report_line(
        capsys,
        3, ok, elapsed, "min embedding rank == 2k for k=0..10, products re-expand to 1"
    )
    assert ok


def test_criterion_4_sequence_invariants(capsys):
    t0 = time.monotonic()
    table = sequences(make_geometric_family(6), 40)
    sr = [Fraction(table.s[n], table.r[n]) for n in range(1, 41)]
    tr = [Fraction(table.t[n], table.r[n]) for n in range(41)]
    sandwich_hi = table.omega + table.omega_prime_ub
    ok = (
        all(b < a for a, b in zip(sr, sr[1:]))
        and all(b > a for a, b in zip(tr, tr[1:]))
        and all(x < Fraction(1, 2) for x in tr)
        and all(table.omega <= tr[n] <= sandwich_hi for n in range(1, 41))
    )
    elapsed = time.monotonic() - t0
    report_line(
        capsys,
        4, ok, elapsed, "ratio monotonicity and the omega sandwich hold at stages 1..40"
    )
    assert ok


def test_criterion_5_k0_and_bott_cross_check(capsys):
    t0 = time.monotonic()
    table = sequences(make_geometric_family(6), 40)
    cls = K0Class(0, 1, 0)
    shape = initial_bott_shape()
    ok = True
    for n in range(41):
        ok = ok and (cls.x, cls.y) == (table.r[n] - table.t[n], table.t[n])
        d1 = table.d[n + 1] if n < 40 else None
        if n < 40:
            k1 = table.k[n + 1]
            r, s, t = table.r[n], table.s[n], table.t[n]
            ok = ok and d1 * (r - s - t) + k1 * t == table.r[n + 1] - table.s[n + 1] - table.t[n + 1]
            ok = ok and k1 * s + k1 * (r - s - t) + d1 * t == table.t[n + 1]
            cls = push_k0(table, cls)
            shape = push_bott(shape, table)
        ok = ok and shape.bott_rank == table.s[min(n + 1, 40)]
    elapsed = time.monotonic() - t0
    report_line(
        capsys,
        5, ok, elapsed, "class flow rederives (r-t, t) and both closed-form identities"
    )
    assert ok


def test_criterion_6_telescoping(capsys):
    t0 = time.monotonic()
    fam = make_geometric_family(6)
    old = sequences(fam, 20)
    rng = random.Random(20200811)
    ok = True
    for _ in range(20):
        nu = [0, 1]
        cur = 1
        while True:
            cur += rng.randint(1, 4)
            if cur > 20:
                break
            nu.append(cur)
        if len(nu) < 3:
            nu = [0, 1, 20]
        result = telescope(fam, nu, horizon=20)
        new = result.new_table
        ok = ok and all(new.r[m] == old.r[v] for m, v in enumerate(nu))
        ok = ok and all(new.s[m] == old.s[v] for m, v in enumerate(nu))
        ok = ok and new.omega == old.omega
        new_partial = Fraction(0)
        old_partial = Fraction(0)
        for m in range(2, len(nu)):
            new_partial += Fraction(new.k[m], new.l[m])
            for j in range(nu[m - 1] + 1, nu[m] + 1):
                old_partial += Fraction(old.k[j], old.l[j])
            ok = ok and new_partial <= old_partial
        ok = ok and result.verified
    for _ in range(100):
        size = rng.randint(1, 10)
        lams = [Fraction(rng.randint(1, 999), 1000) for _ in range(size)]
        ok = ok and weierstrass_check(lams).holds
    elapsed = time.monotonic() - t0
    report_line(
        capsys,
        6, ok, elapsed, "20 random selections preserve r, s, omega; 100 product bounds hold"
    )
    assert ok


def test_criterion_7_rounding(capsys):
    t0 = time.monotonic()
    rng = random.Random(4096)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 10)
        cuts = sorted(rng.randint(0, 10 ** 6) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [10 ** 6])]
        alphas = [Fraction(p, 10 ** 6) for p in parts]
        epsilon = Fraction(rng.randint(1, 50), 100)
        n_grid = ceil(Fraction(4 * n) / epsilon) + 1
        plan = round_convex_weights(alphas, epsilon, n_grid)
        ok = ok and sum(plan.betas) == 1
        ok = ok and plan.deviation < epsilon / 2
        ok = ok and all(isinstance(m, int) and m >= 0 for m in plan.multiplicities)
    elapsed = time.monotonic() - t0
    report_line(capsys, 7, ok, elapsed, "100 random plans: sum 1, deviation < eps/2, integer counts")
    assert ok


def test_criterion_8_intertwining_simulation(capsys):
    t0 = time.monotonic()
    table = sequences(make_geometric_family(6), 40)
    sim_table = sequences(make_geometric_family(6), 8)
    system_a, system_b = synthetic_system_pair(sim_table, 8)
    v = GridFunction.from_callable(lambda x: x, 2 ** 12)
    result = simulate_intertwining(system_a, system_b, v, 0, 8)
    series = gap_series(table)
    elapsed = time.monotonic() - t0
    ok = (
        all(
            dist <= induced_gap(sim_table, n)
            for n, dist in enumerate(result.step_distances)
        )
        and series.total_bound < Fraction(2, 5)
        and elapsed < 30.0
    )
    report_line(
        capsys,
        8,
        ok,
        elapsed,
        f"8 ladder steps within stage gaps at grid 4096; series total "
        f"< 2/5: {series.total_bound < Fraction(2, 5)}",
    )
    assert ok


def test_criterion_9_flip(capsys):
    t0 = time.monotonic()
    table = sequences(make_geometric_family(6), 40)
    cls = K0Class(0, 1, 0)
    ok = True
    for n in range(41):
        perp = q_perp_ranks(table, n)
        ok = ok and (cls.swapped().x, cls.swapped().y) == (perp.x_rank, perp.y_rank)
        ok = ok and cls.swapped().swapped() == cls
        if n < 40:
            (a, b), (c, d) = connecting_matrix(table, n)
            ok = ok and (a, b, c, d) == (d, c, b, a)
            cls = push_k0(table, cls)
    elapsed = time.monotonic() - t0
    report_line(
        capsys,
        9, ok, elapsed, "flip exchanges corner classes at stages 0..40 and is an involution"
    )
    assert ok
