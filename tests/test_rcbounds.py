import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ahcert.cli import main
from ahcert.errors import InconclusiveAtHorizon, InputError
from ahcert.params import (
    SequenceTable,
    check_constraints,
    make_explicit_family,
    make_geometric_family,
    sequences,
    table_majorant,
)
from ahcert.rcbounds import (
    DELTA_DENOMINATOR_CAP,
    certify_rc_lower,
    default_separation_rho,
    rc_upper,
    separation,
    verify_checks,
)


@pytest.fixture(scope="module")
def table():
    return sequences(make_geometric_family(6), 40)


def test_lower_certificate_deterministic_witness(table):
    cert = certify_rc_lower(table, Fraction(3, 2))
    assert cert.delta == Fraction(1, 8)
    assert cert.epsilon == Fraction(1, 21)
    assert (cert.n0, cert.n) == (1, 2)
    assert (cert.N1, cert.N2) == (334, 501)
    assert cert.endpoint_lambda1 == Fraction(39, 14)
    assert cert.endpoint_lambda0 == Fraction(459, 217)


def test_lower_certificate_invariants(table):
    cert = certify_rc_lower(table, Fraction(3, 2))
    assert cert.rho * cert.N1 == cert.N2
    assert cert.epsilon == cert.delta / (2 * cert.rho * (1 - cert.delta))
    assert 0 < cert.delta < table.omega
    rn = table.r[cert.n]
    assert 1 - table.omega + 2 * cert.rho * table.omega < Fraction(cert.N1, rn)
    assert Fraction(cert.N1, rn) < 2 * table.kappa_lb * (1 - cert.delta)
    assert cert.endpoint_lambda1 > cert.rho
    assert cert.endpoint_lambda0 > cert.rho
    assert cert.reverify()


def test_lower_certificate_self_contained(table):
    # every stored inequality re-derives from its recorded sides alone
    cert = certify_rc_lower(table, Fraction(3, 2))
    assert verify_checks(cert.checks)
    # tampering with one side must be caught
    broken = cert.checks[0].__class__(
        name=cert.checks[0].name,
        lhs=cert.checks[0].lhs + 1,
        rel=cert.checks[0].rel,
        rhs=cert.checks[0].rhs,
        holds=cert.checks[0].holds,
    )
    assert not verify_checks((broken,) + cert.checks[1:])


def test_lower_certificate_interval_is_open(table):
    with pytest.raises(InputError):
        certify_rc_lower(table, Fraction(1))
    target = (2 * table.kappa_lb - 1) / (2 * table.omega)
    with pytest.raises(InputError):
        certify_rc_lower(table, target)
    with pytest.raises(InputError):
        certify_rc_lower(table, target + 1)


def test_lower_certificate_refuses_rho_on_the_witness_target(table):
    # The certificate reads the witness kappa_lb, so its open interval ends
    # at (2 w.kappa_lb - 1)/(2 omega); rho exactly there is refused.
    target = (2 * table.witness.kappa_lb - 1) / (2 * table.omega)
    assert target == Fraction(147, 64)
    with pytest.raises(InputError, match="strictly between"):
        certify_rc_lower(table, target)


def test_lower_certificate_refuses_a_witness_kappa_of_one_half():
    # s(2)/r(2) = 2/3 * 3/4 = 1/2 exactly, on the witness grid.
    table = sequences(make_explicit_family([1, 2, 3], [0, 1, 1]), 2)
    assert table.witness.kappa_lb == Fraction(1, 2)
    with pytest.raises(InputError, match="does not exceed 1/2"):
        certify_rc_lower(table, Fraction(3, 2))


# Refusals that the enclosure [witness, witness + ulp] shows the exact values
# make too: (argv, family, horizon, rho, message).
CERTAIN_REFUSALS = [
    (["rc-lower", "--horizon", "2", "--rho", "3/2"], ([1, 1, 1], [0, 1, 1]), 2, "3/2",
     "certified kappa bound does not exceed 1/2"),
    (["rc-lower", "--N", "6", "--horizon", "40", "--rho", "1"], 6, 40, "1",
     "rho must lie strictly between 1 and 147/64 (certified), got 1/1"),
    (["rc-lower", "--N", "6", "--horizon", "40", "--rho", "3"], 6, 40, "3",
     "rho must lie strictly between 1 and 147/64 (certified), got 3/1"),
    (["certify", "--N", "5", "--horizon", "40", "--rho", "3/2"], 5, 40, "3/2",
     "rho = 3/2 does not lie strictly between 3/2 and 27/16"),
    (["certify", "--N", "6", "--horizon", "40", "--rho", "3"], 6, 40, "3",
     "rho = 3/1 does not lie strictly between 7/5 and 147/64"),
    # rho = (2 (kappa_lb + ulp) - 1)/(2 omega) = 147/64 + 7/64, the target
    # that the exact kappa_lb cannot exceed.
    (["rc-lower", "--N", "6", "--horizon", "40", "--rho", "77/32"], 6, 40, "77/32",
     "rho must lie strictly between 1 and 147/64 (certified), got 77/32"),
    (["certify", "--N", "6", "--horizon", "40", "--rho", "77/32"], 6, 40, "77/32",
     "rho = 77/32 does not lie strictly between 7/5 and 147/64"),
    # kappa_lb + ulp = 7/16 + 1/16 is 1/2 itself.
    (["rc-lower", "--horizon", "2", "--rho", "3/2"], ([1, 1, 7], [0, 1, 1]), 2, "3/2",
     "certified kappa bound does not exceed 1/2"),
]


@pytest.mark.parametrize("argv, family, horizon, rho, message", CERTAIN_REFUSALS)
def test_certain_refusals_never_refine_the_table(
    argv, family, horizon, rho, message, tmp_path, capsys, monkeypatch
):
    if isinstance(family, int):
        table = sequences(make_geometric_family(family), horizon)
    else:
        table = sequences(make_explicit_family(*family), horizon)
        spec = tmp_path / "family.json"
        spec.write_text(json.dumps({"d": family[0], "k": family[1]}))
        argv = argv + ["--spec", str(spec)]
    refuse = separation if argv[0] == "certify" else certify_rc_lower
    with pytest.raises(InputError) as exc:
        refuse(table, Fraction(rho))
    assert type(exc.value) is InputError and str(exc.value) == message

    def refined(self):
        raise AssertionError("a certain refusal refined the table")

    monkeypatch.setattr(SequenceTable, "refined", refined)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {message}\n")


def test_lower_certificate_skips_a_stage_on_the_flat_bound():
    # At 6 witness bits, rho = 8/7 gives kappa_lb = (1 - eps) s(1)/r(1)
    # exactly, so stage 1 is not yet epsilon-flat and n0 is stage 2.
    table = sequences(make_geometric_family(5), 8)
    cert = certify_rc_lower(table, Fraction(8, 7))
    assert table.bits == 6
    assert cert.kappa_lb == (1 - cert.epsilon) * Fraction(table.s[1], table.r[1])
    assert (cert.n0, cert.n) == (2, 2)
    assert cert.reverify()


def test_lower_certificate_skips_a_stage_whose_window_equals_beta():
    # On the exact values at rho = 5/2, beta/r(1) = 2/9 is the window gap
    # itself, so the window first exceeds beta at stage 2.
    *_, exact = sequences(make_explicit_family([1, 8, 39], [0, 1, 0]), 2).precisions()
    cert = certify_rc_lower(exact, Fraction(5, 2))
    gap = next(c.lhs for c in cert.checks if c.name == "window is nonempty")
    assert gap == Fraction(2, exact.r[1]) == Fraction(2, 9)
    assert (cert.n0, cert.n) == (1, 2)
    assert cert.reverify()


def test_delta_denominator_cap_is_the_last_one_tried():
    # With 1 - rho/target = 3/2^21 the shortest admissible delta is 1/2^20,
    # at the cap; with 1 - rho/target = 1/2^20 it would need 2^21.
    table = next(t for t in sequences(make_geometric_family(6), 12).precisions() if t.bits == 24)
    target = (2 * table.witness.kappa_lb - 1) / (2 * table.omega)
    cert = certify_rc_lower(table, target * (1 - Fraction(3, 2 ** 21)))
    assert cert.delta == Fraction(1, DELTA_DENOMINATOR_CAP) == Fraction(1, 2 ** 20)
    assert cert.reverify()
    with pytest.raises(InconclusiveAtHorizon, match="no admissible delta with denominator"):
        certify_rc_lower(table, target * (1 - Fraction(1, 2 ** 20)))


def test_omega_outside_the_open_half_interval_is_refused():
    # omega = 0 with kappa = 4/5, and omega = 1/2: both ends of (0, 1/2).
    zero = sequences(make_explicit_family([1, 2, 4], [0, 0, 1]), 2)
    half = sequences(make_explicit_family([1, 1, 4], [0, 1, 1]), 2)
    for table, omega in ((zero, "0"), (half, "1/2")):
        message = f"omega = {omega} outside \\(0, 1/2\\)"
        with pytest.raises(InputError, match=message):
            rc_upper(table)
        with pytest.raises(InputError, match=message):
            separation(table)
        margin = check_constraints(table).entry("separation_margin")
        assert margin.status == "fail"
        assert [c.name for c in margin.checks] == ["0 < omega < 1/2"]
    assert zero.kappa_lb == Fraction(4, 5) and zero.witness.kappa_lb > Fraction(1, 2)
    with pytest.raises(InputError, match="omega = 0 outside"):
        certify_rc_lower(zero, Fraction(3, 2))


def test_lower_certificate_rho_grid_monotone(table):
    # if rho certifies, every smaller admissible level certifies too
    for num, den in ((11, 10), (5, 4), (3, 2), (7, 4), (2, 1), (9, 4)):
        cert = certify_rc_lower(table, Fraction(num, den))
        assert cert.reverify()


def test_lower_certificate_needs_room(table):
    short = sequences(make_geometric_family(6), 1)
    with pytest.raises(InconclusiveAtHorizon):
        certify_rc_lower(short, Fraction(3, 2))


def test_rc_upper_certified_bound(table):
    result = rc_upper(table)
    assert result.certified_limit_bound == Fraction(7, 5)
    assert result.reverify()


def test_rc_upper_bound_formula_generic():
    # tiny first-stage fraction drives the certified bound toward 1
    table = sequences(make_geometric_family(1000), 3)
    result = rc_upper(table)
    assert result.certified_limit_bound == 1 / (1 - Fraction(2, 1001))
    assert result.certified_limit_bound == Fraction(1001, 999)


def test_separation_base_six(table):
    report = separation(table, rho=Fraction(3, 2))
    assert report.separated and report.status == "separated"
    assert report.upper_bound == Fraction(7, 5)
    assert report.upper_bound < Fraction(3, 2) < report.lower_target
    assert report.certificate.reverify()


def test_separation_default_rho(table):
    report = separation(table)
    assert report.rho == Fraction(3, 2)
    assert report.separated


def test_separation_rejects_rho_outside_margin(table):
    with pytest.raises(InputError):
        separation(table, rho=Fraction(7, 5))  # not strictly above the upper bound
    with pytest.raises(InputError):
        separation(table, rho=Fraction(1, 1))


def test_default_separation_rho_midpoint():
    assert default_separation_rho(Fraction(7, 5), Fraction(2)) == Fraction(3, 2)
    assert default_separation_rho(Fraction(8, 5), Fraction(2)) == Fraction(7, 4)
    # 3/2 must lie strictly below the lower target too.
    assert default_separation_rho(Fraction(7, 5), Fraction(3, 2)) == Fraction(23, 16)


def test_paper_scale_margin(table):
    # the certified lower target comfortably exceeds the ideal margin 7/4,
    # so levels up to and beyond 7/4 remain certifiable
    target = (2 * table.kappa_lb - 1) / (2 * table.omega)
    assert target > Fraction(7, 4)
    cert = certify_rc_lower(table, Fraction(7, 4))
    assert cert.reverify()


@st.composite
def families_with_sound_tail_tables(draw):
    """Explicit families whose table tail bounds every supplied tail sum."""
    length = draw(st.integers(1, 7))
    d, k = [1], [0]
    for _ in range(length):
        d.append(draw(st.integers(0, 40)))
        k.append(draw(st.integers(0 if d[-1] else 1, 12)))
    slack = sorted(
        (Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 9)))
         for _ in range(length + 1)),
        reverse=True,
    )
    values = []
    for n in range(length + 1):
        supplied = sum(
            (Fraction(k[j], d[j] + k[j]) for j in range(n + 1, length + 1)),
            Fraction(0),
        )
        values.append(supplied + slack[n])
    return make_explicit_family(d, k, tail_majorant=table_majorant(d, k, values))


@settings(max_examples=150, deadline=None, database=None)
@given(families_with_sound_tail_tables())
def test_one_check_implies_every_later_stage(family):
    length = family.length
    full = sequences(family, length)
    lam = [Fraction(0)] + [Fraction(full.k[j], full.l[j]) for j in range(1, length + 1)]
    for n in range(1, length + 1):
        at_n = sequences(family, n)
        tau_n = Fraction(full.t[n], full.r[n])
        for m in range(n, length + 1):
            tau_m = Fraction(full.t[m], full.r[m])
            # rc_upper: t(n)/r(n) + tail(n) < 2 omega covers every m >= n
            assert tau_m <= tau_n + sum(lam[n + 1:m + 1], Fraction(0))
            # rc lower certificates: one bound against kappa_lb covers every m
            assert Fraction(full.s[m], full.r[m]) >= at_n.kappa_lb
        if 0 < full.omega < Fraction(1, 2):
            try:
                rc_upper(at_n)
            except InconclusiveAtHorizon:
                continue
            assert all(
                Fraction(full.t[m], full.r[m]) < 2 * full.omega
                for m in range(n, length + 1)
            )


def test_default_separation_rho_is_short_at_base_five():
    # 3/2 is the upper bound itself at N = 5; the midpoint of the exact
    # bounds has a denominator of about horizon^2 bits, the level does not.
    table = sequences(make_geometric_family(5), 120)
    target = (2 * table.kappa_lb - 1) / (2 * table.omega)
    assert default_separation_rho(Fraction(3, 2), target) == Fraction(13, 8)
    with pytest.raises(InputError):
        default_separation_rho(Fraction(2), Fraction(2))
