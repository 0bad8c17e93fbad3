"""The integer certificate code against its ``Fraction`` reference.

``certify_reference`` keeps the certificate functions as they read on
``Fraction`` arithmetic.  The integer code must return the same records:
the same names, sides (values and types) and verdicts, the same
certificate fields, or the same exception type and message.  And the
certify path must run no ``Fraction`` operator at all.
"""

import random
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction

import certify_reference as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from ahcert import certify_theorem
from ahcert.params import (
    SequenceTable,
    check_constraints,
    geometric_ratio_majorant,
    make_explicit_family,
    make_geometric_family,
    sequences,
    table_majorant,
)
from ahcert.rcbounds import certify_rc_lower, default_separation_rho, rc_upper, separation
from ahcert.tracesim import gap_series


def outcome(function, *args):
    """What ``function(*args)`` returns, or the type and message it raises."""
    try:
        return function(*args)
    except Exception as exc:  # compared, never swallowed: see assert_same
        return ("raised", type(exc), str(exc))


def assert_same(new, ref, path="result"):
    """Equal values of equal types, field by field; a table is the same
    object."""
    assert type(new) is type(ref), f"{path}: {type(new).__name__} != {type(ref).__name__}"
    if isinstance(new, SequenceTable):
        assert new is ref, path
    elif is_dataclass(new):
        for f in fields(new):
            assert_same(getattr(new, f.name), getattr(ref, f.name), f"{path}.{f.name}")
    elif isinstance(new, (tuple, list)):
        assert len(new) == len(ref), path
        for i, (a, b) in enumerate(zip(new, ref)):
            assert_same(a, b, f"{path}[{i}]")
    else:
        assert new == ref, f"{path}: {new!r} != {ref!r}"


def levels(table):
    """Given levels rho: fixed ones, and the ties and near-ties at the
    table's own bounds (the two ends of the certifiable interval, the
    certain-refusal bound, the midpoint and the delta denominator cap)."""
    rhos = [Fraction(1), Fraction(11, 10), Fraction(5, 4), Fraction(3, 2),
            Fraction(7, 4), Fraction(2), Fraction(3)]
    omega, kappa = table.omega, table.witness.kappa_lb
    if 0 < omega < Fraction(1, 2):
        target = (2 * kappa - 1) / (2 * omega)
        upper = 1 / (1 - 2 * omega)
        rhos += [
            target,
            upper,
            (2 * (kappa + table.ulp) - 1) / (2 * omega),
            (upper + target) / 2,
            target * (1 - Fraction(3, 2 ** 21)),
            target * (1 - Fraction(1, 2 ** 20)),
        ]
    return rhos


def assert_table_matches(table):
    """Every rewritten function on ``table``, at the default level and at
    each of ``levels``."""
    for new, ref in ((check_constraints, reference.check_constraints),
                     (gap_series, reference.gap_series),
                     (rc_upper, reference.rc_upper)):
        assert_same(outcome(new, table), outcome(ref, table), new.__name__)
    assert_same(outcome(separation, table), outcome(reference.separation, table), "separation")
    for rho in levels(table):
        assert_same(outcome(separation, table, rho),
                    outcome(reference.separation, table, rho), f"separation at {rho}")
        assert_same(outcome(certify_rc_lower, table, rho),
                    outcome(reference.certify_rc_lower, table, rho), f"certify_rc_lower at {rho}")


def explicit_family(integer):
    """An explicit family drawn through ``integer(lo, hi)``: with a
    geometric tail, a tail table or no tail majorant."""
    length = integer(1, 6)
    tail = integer(0, 2)
    d, k = [1], [0]
    if tail == 1:
        base = integer(2, 9)
        for j in range(1, length + 1):
            # k(j)/l(j) <= 1/(base^j + 1) < base^-j
            d.append(integer(base ** j, 3 * base ** j))
            k.append(integer(0, 1))
        return make_explicit_family(d, k, geometric_ratio_majorant(d, k, base))
    for _ in range(length):
        d.append(integer(0, 40))
        k.append(integer(0 if d[-1] else 1, max(1, d[-1] // 3)))
    if tail == 0:
        return make_explicit_family(d, k)
    slack = sorted((Fraction(integer(0, 3), integer(1, 9)) for _ in d), reverse=True)
    values = [
        sum((Fraction(k[j], d[j] + k[j]) for j in range(n + 1, length + 1)), Fraction(0))
        + slack[n]
        for n in range(length + 1)
    ]
    return make_explicit_family(d, k, table_majorant(d, k, values))


def test_integer_code_matches_the_reference_on_a_sweep():
    for N in range(2, 13):
        for horizon in (1, 2, 3, 12, 40):
            for table in sequences(make_geometric_family(N), horizon).precisions():
                assert_table_matches(table)
    rng = random.Random(20261020)
    for _ in range(40):
        family = explicit_family(rng.randint)
        for table in sequences(family, family.length).precisions():
            assert_table_matches(table)


@st.composite
def tables(draw):
    if draw(st.booleans()):
        family = make_geometric_family(draw(st.integers(2, 12)))
        horizon = draw(st.integers(1, 30))
    else:
        family = explicit_family(lambda lo, hi: draw(st.integers(lo, hi)))
        horizon = draw(st.integers(1, family.length))
    return sequences(family, horizon)


@settings(max_examples=60, deadline=None, database=None)
@given(tables(), st.fractions(min_value=1, max_value=4, max_denominator=64))
def test_integer_code_matches_the_reference(table, rho):
    for current in table.precisions():
        assert_table_matches(current)
        assert_same(outcome(certify_rc_lower, current, rho),
                    outcome(reference.certify_rc_lower, current, rho))
        assert_same(outcome(separation, current, rho),
                    outcome(reference.separation, current, rho))


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.fractions(min_value=-2, max_value=4, max_denominator=1000),
    st.fractions(min_value=-2, max_value=4, max_denominator=1000),
)
def test_default_level_matches_the_reference(upper, lower_target):
    for pair in ((upper, lower_target), (upper, upper)):
        assert_same(outcome(default_separation_rho, *pair),
                    outcome(reference.default_separation_rho, *pair))


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


def test_certify_runs_no_fraction_operator(monkeypatch):
    calls = Counter()
    for name in FRACTION_OPERATORS:
        def counted(*args, _name=name, _method=getattr(Fraction, name)):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(Fraction, name, counted)
    for N in (5, 6, 8):
        for horizon in (120, 160, 200):
            assert certify_theorem({"N": N, "horizon": horizon}).verdict == "Certified"
    assert calls == Counter()
    # The counters see every operator the reference runs.
    reference.check_constraints(sequences(make_geometric_family(6), 40))
    assert sum(calls.values()) > 0
