import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahcert.errors import InputError
from ahcert.pipeline import certify_theorem
from ahcert.params import (
    STATUS_FAIL,
    _GUARD,
    Check,
    _chain_ends,
    check,
    check_constraints,
    make_explicit_family,
    make_geometric_family,
    sequences,
)


def test_geometric_family_closed_form():
    fam = make_geometric_family(6)
    assert fam.d(0) == 1 and fam.k(0) == 0
    assert fam.d(1) == 6 and fam.k(1) == 1 and fam.l(1) == 7
    assert fam.d(3) == 216

    fam2 = make_geometric_family(2)
    assert [fam2.d(n) for n in range(4)] == [1, 2, 4, 8]
    assert [fam2.k(n) for n in range(4)] == [0, 1, 1, 1]
    assert fam2.columns(3) == ((1, 2, 4, 8), (0, 1, 1, 1))


def test_columns_read_every_stage_at_once():
    fam = make_explicit_family([1, 6, 0, 36], [0, 1, 4, 0])
    assert fam.columns(2) == ((1, 6, 0), (0, 1, 4))
    with pytest.raises(InputError):
        fam.columns(4)


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_geometric_family_rejects_small_base(bad):
    with pytest.raises(InputError):
        make_geometric_family(bad)


def test_geometric_tail_majorant_value():
    fam = make_geometric_family(6)
    assert fam.tail(3) == Fraction(1, 1080)
    assert fam.tail(0) == Fraction(1, 5)


def test_tail_majorant_dominates_partial_sums():
    # Independent check: partial sums of k(j)/l(j) never exceed the majorant.
    fam = make_geometric_family(6)
    for n in range(0, 8):
        partial = sum(
            Fraction(fam.k(j), fam.l(j)) for j in range(n + 1, n + 60)
        )
        assert partial <= fam.tail(n)
    tails = [fam.tail(n) for n in range(12)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))


def test_sequences_small_horizon_exact_values():
    table = sequences(make_geometric_family(6), 2)
    assert table.r == (1, 7, 259)
    assert table.s == (1, 6, 216)
    assert table.t == (0, 1, 42)


def test_sequences_recursions_rederivable():
    table = sequences(make_geometric_family(6), 40)
    for n in range(41):
        assert table.l[n] == table.d[n] + table.k[n]
    for n in range(1, 41):
        assert table.r[n] == table.r[n - 1] * table.l[n]
        assert table.s[n] == table.s[n - 1] * table.d[n]
        assert table.t[n] == table.d[n] * table.t[n - 1] + table.k[n] * (
            table.r[n - 1] - table.t[n - 1]
        )
    assert table.t[0] == 0 and table.r[0] == 1 and table.s[0] == 1


def recurrence_values(d, k, H):
    """r, s, t at every stage and P, with sum_{j=2..H} k(j)/l(j) = P/r(H),
    by the stage-by-stage recurrences."""
    r, s, t = [d[0] + k[0]], [d[0]], [0]
    for n in range(H):
        d1, k1 = d[n + 1], k[n + 1]
        r.append(r[n] * (d1 + k1))
        s.append(s[n] * d1)
        t.append(d1 * t[n] + k1 * (r[n] - t[n]))
    P = 0
    for j in range(2, H + 1):
        P = P * (d[j] + k[j]) + k[j] * r[j - 1]
    return r, s, t, P


def constant_tail(value):
    return None if value is None else (lambda n: value)


def exact_ratios(d, k, tail, H):
    """Each certified constant as (num, den), from the recurrences."""
    r, s, t, P = recurrence_values(d, k, H)
    a, b = (0, 1) if tail is None else (tail.numerator, tail.denominator)
    return {
        "kappa_lb": (s[H] * (b - a), r[H] * b),
        "kappa_ub": (s[H], r[H]),
        "omega_prime_ub": (P * b + a * r[H], r[H] * b),
        "omega_prime_partial": (P, r[H]),
        "tau_ub": (t[H] * b + a * r[H], r[H] * b),
    }


_entries = st.one_of(st.integers(0, 4), st.integers(0, 60), st.integers(0, 10 ** 12))


@st.composite
def explicit_tables(draw):
    """A random explicit family, a horizon and an order of stage reads."""
    pairs = draw(st.lists(
        st.tuples(_entries, _entries).filter(lambda p: p != (0, 0)),
        min_size=1, max_size=40,
    ))
    d = [1] + [dj for dj, _ in pairs]
    k = [0] + [kj for _, kj in pairs]
    tail = draw(st.none() | st.fractions(min_value=0, max_value=2, max_denominator=99))
    H = draw(st.integers(1, len(pairs)))
    return d, k, tail, H, draw(st.permutations(range(H + 1)))


# Every edge at once, over more stages than one product-tree leaf: k > d
# (so prod (d - k) is negative), k = 0, and d = 0 with k >= 1.
_EDGES = ([1, 6, 2, 0, 36, 5, 0, 7, 1, 9, 0, 3], [0, 1, 5, 3, 0, 9, 1, 0, 1, 2, 4, 3])


@settings(max_examples=200, deadline=None, database=None)
@given(explicit_tables())
@example((*_EDGES, Fraction(1, 3), 11, list(range(11, -1, -1))))
@example((*_EDGES, None, 11, list(range(12))))
@example(([1, 0], [0, 2], None, 1, [1, 0]))
def test_horizon_values_and_stages_match_the_recurrences(case):
    d, k, tail, H, order = case
    table = sequences(make_explicit_family(d, k, tail_majorant=constant_tail(tail)), H)
    r, s, t, _ = recurrence_values(d, k, H)
    expected = exact_ratios(d, k, tail, H)
    assert {e.name: (e.numerator, e.denominator) for e in table.enclosures} == expected
    assert all(link.holds and link.reverify() for link in table.links)
    assert len(table.stages) == 1  # no stage is tabulated until read
    for n in order:
        assert table.stage(n) == (r[n], s[n], t[n])
    assert (table.r, table.s, table.t) == (tuple(r), tuple(s), tuple(t))
    if not table.exact:
        assert table.refined().stages is table.stages


_ROUNDED_UP = {
    "kappa_lb": False, "kappa_ub": True, "omega_prime_ub": True,
    "omega_prime_partial": False, "tau_ub": True,
}

# kappa_ub = s(2)/r(2) = 1/2 lies on the witness grid, so the chains' ends
# round apart and the witness is read off the exact value.
_ON_THE_GRID = ([1, 2, 3], [0, 1, 1])


def reference_chain_ends(d, k, l, a, b, bits):
    """The chains as a multiply-then-divide by d(j) and l(j) at every step,
    the form that ``_chain_ends`` must reproduce integer for integer."""
    H = len(d) - 1
    p = bits + H.bit_length() + _GUARD
    one = 1 << p
    s_lo = s_hi = one
    q_lo = q_hi = one
    for j in range(1, H + 1):
        dj, lj = d[j], l[j]
        s_lo = s_lo * dj // lj
        s_hi = -(-s_hi * dj // lj)
        c = dj - k[j]
        lo, hi = (q_lo * c, q_hi * c) if c >= 0 else (q_hi * c, q_lo * c)
        q_lo, q_hi = lo // lj, -(-hi // lj)
    w_lo = sum((k[j] << p) // l[j] for j in range(2, H + 1))
    w_hi = -sum((-k[j] << p) // l[j] for j in range(2, H + 1))
    c = b - a
    kappa_lb = (s_lo * c, s_hi * c) if c >= 0 else (s_hi * c, s_lo * c)
    tail = a * one
    return {
        "kappa_lb": (*kappa_lb, one * b),
        "kappa_ub": (s_lo, s_hi, one),
        "omega_prime_ub": (w_lo * b + tail, w_hi * b + tail, one * b),
        "omega_prime_partial": (w_lo, w_hi, one),
        "tau_ub": ((one - q_hi) * b + 2 * tail, (one - q_lo) * b + 2 * tail, 2 * one * b),
    }


# Stages whose l(j) exceeds k(j) 2^(p+1), p the chains' bits (23-31
# here, from l(1) <= 7), are settled: every quotient of the step is 0, 1
# or -1, and _chain_ends counts them instead of dividing.  l(j) near 2^90
# between single digits makes settled runs between unsettled steps.
_SETTLED_RUNS = (
    [1, 2, 2 ** 90, 3, 2 ** 90 + 1, 2 ** 91, 5, 2 ** 92, 2 ** 90, 2 ** 93, 4],
    [0, 1, 1, 1, 3, 1, 2, 1, 2, 1, 1],
)
# d(2) = 0 drives s to 0 (and l(2) < 2 k(2) turns q negative) before a run.
_SETTLED_AT_ZERO = ([1, 2, 0, 2 ** 90, 2 ** 91, 2 ** 92], [0, 1, 1, 1, 1, 1])
# 2 k(1) > l(1) makes the q interval negative with s > 0 before a run.
_SETTLED_NEGATIVE = ([1, 1, 2 ** 90, 2 ** 91, 2 ** 92], [0, 2, 1, 1, 1])
# k(j) = 0 is settled at any l(j): inside a run, and as the last stage.
_SETTLED_K_ZERO = ([1, 3, 1, 4, 2 ** 90, 6, 9], [0, 1, 0, 0, 1, 2, 0])


@settings(max_examples=200, deadline=None, database=None)
@given(explicit_tables())
@example((*_SETTLED_RUNS, Fraction(1, 5), 10, []))
@example((*_SETTLED_AT_ZERO, Fraction(1, 7), 5, []))
@example((*_SETTLED_NEGATIVE, None, 4, []))
@example((*_SETTLED_K_ZERO, Fraction(2, 3), 6, []))
@example((*_ON_THE_GRID, Fraction(1, 4), 2, []))
@example((*_EDGES, Fraction(3, 2), 11, []))  # a vacuous tail, stages with k > d
@example(([1, 0, 3, 0], [0, 5, 0, 2], Fraction(1, 9), 3, []))  # d(j) = 0 and k(j) = 0
def test_chains_enclose_and_witnesses_round_the_exact_values(case):
    d, k, tail, H, _ = case
    table = sequences(make_explicit_family(d, k, tail_majorant=constant_tail(tail)), H)
    exact = exact_ratios(d, k, tail, H)
    a, b = (0, 1) if tail is None else (tail.numerator, tail.denominator)
    ends = _chain_ends(table.k, table.l, a, b, table.bits)
    assert ends == reference_chain_ends(table.d, table.k, table.l, a, b, table.bits)
    for name, (num, den) in exact.items():
        lo, hi, ends_den = ends[name]
        assert Fraction(lo, ends_den) <= Fraction(num, den) <= Fraction(hi, ends_den), name
    for current in (table, table.refined()):
        for name, (num, den) in exact.items():
            value = Fraction(num, den)
            if current.bits is not None:
                scaled = value * (1 << current.bits)
                rounding = math.ceil if _ROUNDED_UP[name] else math.floor
                value = Fraction(rounding(scaled), 1 << current.bits)
            assert getattr(current.witness, name) == value, name


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(2, 12), st.integers(1, 640))
@example(2, 640)
@example(12, 640)
def test_chains_match_the_reference_on_the_geometric_family(N, H):
    family = make_geometric_family(N)
    table = sequences(family, H)
    assert table.d == tuple(N ** j for j in range(H + 1)) and table.k == (0,) + (1,) * H
    a, b = family.tail(H).numerator, family.tail(H).denominator
    assert _chain_ends(table.k, table.l, a, b, table.bits) == reference_chain_ends(
        table.d, table.k, table.l, a, b, table.bits
    )


# The certify-deep benchmark workload: every witness is read off the chains.
_DEEP = [(N, H) for N in (5, 6, 8) for H in (120, 160, 200)]


def test_only_a_witness_the_chains_leave_undecided_reads_the_exact_values():
    table = sequences(make_explicit_family(*_ON_THE_GRID), 2)
    assert table.witness.kappa_ub == Fraction(1, 2)
    assert "ratios" in vars(table.enclosures[0].values)
    table = sequences(make_geometric_family(6), 40)
    assert "ratios" not in vars(table.enclosures[0].values)
    for N, H in _DEEP:
        report = certify_theorem({"N": N, "horizon": H})
        assert report.verdict == "Certified", (N, H)
        assert "ratios" not in vars(report.table.enclosures[0].values), (N, H)


def test_stages_are_read_inside_the_horizon_only():
    table = sequences(make_geometric_family(6), 3)
    for n in (-1, 4):
        with pytest.raises(InputError, match="outside horizon"):
            table.stage(n)
    assert len(table.stages) == 1


def test_sequences_omega_is_first_stage_fraction():
    table = sequences(make_geometric_family(6), 1)
    assert table.omega == Fraction(1, 7)


def test_sequences_rejects_bad_horizon():
    with pytest.raises(InputError):
        sequences(make_geometric_family(6), 0)


def test_explicit_family_validation():
    with pytest.raises(InputError):
        make_explicit_family([2, 6], [0, 1])  # d(0) != 1
    with pytest.raises(InputError):
        make_explicit_family([1, 6], [1, 1])  # k(0) != 0
    with pytest.raises(InputError):
        make_explicit_family([1, 6], [0])  # length mismatch
    for d, k in (([1, True, 4], [0, False, 1]), ([True, 6], [0, 1]), ([1, 6], [False, 1])):
        with pytest.raises(InputError, match="nonnegative integers"):
            make_explicit_family(d, k)  # booleans are not read as 0 and 1
    fam = make_explicit_family([1, 6, 36], [0, 1, 1])
    with pytest.raises(InputError):
        fam.d(3)  # beyond the supplied range
    with pytest.raises(InputError):
        sequences(fam, 5)


def test_sequences_rejects_zero_size_stage():
    for d, k, horizon in (([1, 0, 36], [0, 0, 1], 2), ([1, 6, 0], [0, 1, 0], 2)):
        with pytest.raises(InputError, match="no summands"):
            sequences(make_explicit_family(d, k), horizon)


def test_bounds_are_the_sequence_table_fields():
    fam = make_geometric_family(6)
    for n in range(2, 9):
        table = sequences(fam, n)
        tail = fam.tail(n)
        partial = sum((Fraction(1, 6 ** j + 1) for j in range(2, n + 1)), Fraction(0))
        assert table.kappa_lb == Fraction(table.s[n], table.r[n]) * (1 - tail)
        assert table.omega_prime_ub == partial + tail


def test_kappa_lower_bound_frozen_value():
    fam = make_geometric_family(6)
    expected = Fraction(46656, 56203) * Fraction(1079, 1080)
    assert sequences(fam, 3).kappa_lb == expected
    assert expected > Fraction(3, 4)


def test_kappa_lower_bound_monotone_and_enveloped():
    fam = make_geometric_family(6)
    bounds = [sequences(fam, n).kappa_lb for n in range(1, 13)]
    assert all(b <= Fraction(6, 7) for b in bounds)
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_kappa_lower_bound_is_sound():
    # kappa_lb(n) must sit below every ratio s(m)/r(m), also for m > n.
    fam = make_geometric_family(6)
    table = sequences(fam, 30)
    for n in (1, 3, 7):
        lb = sequences(fam, n).kappa_lb
        for m in range(1, 31):
            assert lb <= Fraction(table.s[m], table.r[m])


def test_omega_prime_upper_bound_values():
    fam = make_geometric_family(6)
    assert sequences(fam, 2).omega_prime_ub == Fraction(1, 37) + Fraction(1, 180)
    for n in range(2, 12):
        assert sequences(fam, n).omega_prime_ub <= Fraction(1, 30)


def test_omega_prime_upper_bound_empty_sum():
    # All-zero k beyond stage 1 leaves only the tail term.
    fam = make_explicit_family(
        [1, 6, 36, 216], [0, 1, 0, 0], tail_majorant=lambda n: Fraction(0)
    )
    assert sequences(fam, 3).omega_prime_ub == 0


def test_ratio_monotonicity_invariants():
    table = sequences(make_geometric_family(6), 40)
    sr = [Fraction(table.s[n], table.r[n]) for n in range(1, 41)]
    assert all(b < a for a, b in zip(sr, sr[1:]))
    tr = [Fraction(table.t[n], table.r[n]) for n in range(41)]
    assert all(b > a for a, b in zip(tr, tr[1:]))
    assert all(x < Fraction(1, 2) for x in tr)


def test_ratio_invariants_random_families():
    rng = random.Random(20260811)
    for _ in range(20):
        n_stages = rng.randint(3, 8)
        d = [1]
        k = [0]
        for _ in range(n_stages):
            kn = rng.randint(1, 5)
            d.append(rng.randint(kn + 1, kn + 30))
            k.append(kn)
        fam = make_explicit_family(d, k)
        table = sequences(fam, n_stages)
        sr = [Fraction(table.s[n], table.r[n]) for n in range(1, n_stages + 1)]
        assert all(b < a for a, b in zip(sr, sr[1:]))
        tr = [Fraction(table.t[n], table.r[n]) for n in range(n_stages + 1)]
        assert all(b > a for a, b in zip(tr, tr[1:]))
        assert all(x < Fraction(1, 2) for x in tr[1:])


def test_sandwich_between_omega_and_bound():
    table = sequences(make_geometric_family(6), 40)
    upper = table.omega + table.omega_prime_ub
    assert upper < 2 * table.omega
    for n in range(1, 41):
        ratio = Fraction(table.t[n], table.r[n])
        assert table.omega <= ratio <= upper


def test_check_constraints_all_pass_for_base_six():
    report = check_constraints(make_geometric_family(6), 40)
    assert report.all_passed and not report.exactly_refuted
    assert report.reverify()
    table = report.table
    assert table.omega == Fraction(1, 7)
    assert table.omega_prime_ub <= Fraction(1, 30)
    assert table.kappa_lb > Fraction(3, 4)
    assert 2 * table.kappa_lb - 1 > Fraction(2, 7)
    assert Fraction(7, 5) < (2 * table.kappa_lb - 1) * Fraction(7, 2)


def test_check_constraints_refutes_base_two():
    report = check_constraints(make_geometric_family(2), 10)
    assert report.exactly_refuted
    entry = report.entry("kappa_gt_half")
    assert entry.status == STATUS_FAIL
    # the refuting witness is the exact envelope s(10)/r(10) <= 1/2
    table = report.table
    assert Fraction(table.s[10], table.r[10]) <= Fraction(1, 2)
    # the partial sum of evaluation fractions already exceeds omega = 1/3,
    # so the series constraint is exactly refuted as well
    entry = report.entry("omega_window")
    assert entry.status == STATUS_FAIL and entry.evidence == "exact"
    assert table.omega_prime_partial >= table.omega


def test_check_constraints_flags_k_ge_d():
    fam = make_explicit_family([1, 6, 6], [0, 1, 6])
    report = check_constraints(fam, 2)
    assert report.entry("k_lt_d").status == STATUS_FAIL
    assert report.exactly_refuted


def test_horizon_limited_family_marked():
    fam = make_explicit_family([1, 6, 36, 216], [0, 1, 1, 1])
    assert fam.horizon_limited
    report = check_constraints(fam, 3)
    assert report.table.horizon_limited
    for name in ("kappa_gt_half", "omega_window"):
        assert report.entry(name).evidence == "horizon-limited"
    with pytest.raises(InputError):
        fam.tail(1)


def test_check_constraints_horizon_one():
    report = check_constraints(make_geometric_family(6), 1)
    assert report.all_passed
    assert report.table.omega_prime_ub == Fraction(1, 30)


def test_check_and_compare_refuse_an_unknown_relation():
    assert check("half below one", "1/2", "<", 1).holds
    assert not check("half above one", Fraction(1, 2), ">=", 1).holds
    for rel in ("=<", "", "≤", "!="):
        with pytest.raises(InputError, match="unknown relation"):
            check("bad", 1, rel, 2)
        with pytest.raises(InputError, match="unknown relation"):
            Check("bad", Fraction(1), rel, Fraction(2), True).reverify()


def test_geometric_ratio_majorant_verifies_supplied_range():
    from ahcert.params import geometric_ratio_majorant

    d = [1, 6, 36, 216]
    k = [0, 1, 1, 1]
    tail = geometric_ratio_majorant(d, k, 6)
    assert tail(2) == Fraction(1, 180)
    # k(2)/l(2) = 10/46 > 1/36 breaks the per-term bound
    with pytest.raises(InputError, match=r"k\(2\)/l\(2\) exceeds 6\^-2"):
        geometric_ratio_majorant([1, 6, 36], [0, 1, 10], 6)
    # k(1)/l(1) = 1/6 sits on the bound; l(2) = 0 is refused before the bound.
    geometric_ratio_majorant([1, 5], [0, 1], 6)
    with pytest.raises(InputError, match=r"l\(2\) = 0"):
        geometric_ratio_majorant([1, 5, 0, 1], [0, 1, 0, 9], 6)


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.tuples(_entries, _entries), min_size=1, max_size=12),
    st.integers(2, 13),
)
def test_geometric_ratio_majorant_is_the_per_stage_fraction_bound(pairs, N):
    from ahcert.params import geometric_ratio_majorant

    d = [1] + [dj for dj, _ in pairs]
    k = [0] + [kj for _, kj in pairs]
    expected = None  # the first refusal of the per-stage Fraction test
    for j in range(1, len(d)):
        if d[j] + k[j] == 0:
            expected = f"l({j}) = 0"
            break
        if Fraction(k[j], d[j] + k[j]) > Fraction(1, N ** j):
            expected = f"k({j})/l({j}) exceeds {N}^-{j}"
            break
    if expected is None:
        assert geometric_ratio_majorant(d, k, N)(3) == Fraction(1, N ** 3 * (N - 1))
    else:
        with pytest.raises(InputError) as refused:
            geometric_ratio_majorant(d, k, N)
        assert str(refused.value).startswith(expected)
