"""The certificate functions as exact ``Fraction`` arithmetic: a reference
for the integer code of ``ahcert.params``, ``ahcert.rcbounds`` and
``ahcert.tracesim``.

Each function below derives every bound with ``Fraction`` operators and
decides every comparison on ``Fraction`` values.  It returns the library's
own record types, so a test can compare the two implementations' records
field by field (``test_integer_certificates``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ahcert.errors import InconclusiveAtHorizon, InputError
from ahcert.params import (
    EVIDENCE_CERTIFIED,
    EVIDENCE_EXACT,
    EVIDENCE_HORIZON_LIMITED,
    STATUS_FAIL,
    STATUS_INCONCLUSIVE,
    STATUS_PASS,
    Check,
    ConstraintEntry,
    ConstraintReport,
    ParamFamily,
    SequenceTable,
    _holds,
    sequences,
)
from ahcert.rationals import as_fraction, brief, shown
from ahcert.rcbounds import (
    DELTA_DENOMINATOR_CAP,
    RcLowerCertificate,
    RcUpperResult,
    SeparationReport,
    _refusal,
)
from ahcert.tracesim import GapSeries


def check(name: str, lhs, rel: str, rhs) -> Check:
    lhs = as_fraction(lhs)
    rhs = as_fraction(rhs)
    return Check(name, lhs, rel, rhs, _holds(lhs, rel, rhs))


def check_constraints(table, horizon: Optional[int] = None) -> ConstraintReport:
    """Evaluate every structural constraint of the family, exactly.

    ``table`` is a ``SequenceTable``; a ``ParamFamily`` is tabulated to
    ``horizon`` first.  The limit constants enter through the table's
    witnesses.  Constraints on the limit kappa are decided three ways:
    they pass if they hold with the lower witness kappa_lb (the sound
    direction for every downstream use), they fail if violated even by
    the upper witness of the envelope s(horizon)/r(horizon) >= kappa, and
    are inconclusive otherwise.  Likewise omega' uses its upper witness
    to pass and the witness of its partial sum (a lower bound) to refute.
    A constraint left inconclusive only by rounding is decided by the
    same table at more bits (``first_decided``).  Failures are reported,
    never raised.
    """
    if isinstance(table, ParamFamily):
        table = sequences(table, horizon)
    horizon = table.horizon
    w = table.witness
    evidence_limit = (
        EVIDENCE_HORIZON_LIMITED if table.horizon_limited else EVIDENCE_CERTIFIED
    )
    entries = []

    # k(n) < d(n) at every tabulated stage.  Violations are exact.
    bad = [n for n, (kn, dn) in enumerate(zip(table.k, table.d)) if kn >= dn]
    witness_n = bad[0] if bad else horizon
    entries.append(
        ConstraintEntry(
            name="k_lt_d",
            status=STATUS_FAIL if bad else STATUS_PASS,
            evidence=EVIDENCE_EXACT,
            checks=(
                check(
                    f"k({witness_n}) < d({witness_n})",
                    table.k[witness_n],
                    "<",
                    table.d[witness_n],
                ),
            ),
            note="" if not bad else f"violated at stages {bad[:8]}",
        )
    )

    half = Fraction(1, 2)

    def limit_entry(name, pass_checks, fail_checks, note=""):
        """Three-way verdict from sound-bound checks vs exact refutation."""
        if all(c.holds for c in pass_checks):
            return ConstraintEntry(
                name, STATUS_PASS, evidence_limit, tuple(pass_checks), note
            )
        if not all(c.holds for c in fail_checks):
            refuting = tuple(c for c in fail_checks if not c.holds)
            return ConstraintEntry(
                name, STATUS_FAIL, EVIDENCE_EXACT, tuple(pass_checks) + refuting, note
            )
        return ConstraintEntry(
            name, STATUS_INCONCLUSIVE, evidence_limit, tuple(pass_checks), note
        )

    # Each rational below is built once and shared by every check that
    # records it.
    omega = table.omega
    two_omega = 2 * omega
    lower_gap = 2 * w.kappa_lb - 1
    upper_gap = 2 * w.kappa_ub - 1

    # kappa > 1/2, attempted with kappa_lb, refuted with the envelope.
    entries.append(
        limit_entry(
            "kappa_gt_half",
            [check("kappa_lb > 1/2", w.kappa_lb, ">", half)],
            [check("kappa_ub > 1/2", w.kappa_ub, ">", half)],
        )
    )

    # omega' < omega < 1/2.  omega is exact; omega' needs both bounds.
    omega_below_half = check("omega < 1/2", omega, "<", half)
    entries.append(
        limit_entry(
            "omega_window",
            [check("omega_prime_ub < omega", w.omega_prime_ub, "<", omega), omega_below_half],
            [
                check("omega_prime_partial < omega", w.omega_prime_partial, "<", omega),
                omega_below_half,
            ],
        )
    )

    # 2*kappa - 1 > 2*omega.
    entries.append(
        limit_entry(
            "comparison_gap",
            [check("2*kappa_lb - 1 > 2*omega", lower_gap, ">", two_omega)],
            [check("2*kappa_ub - 1 > 2*omega", upper_gap, ">", two_omega)],
        )
    )

    # 1/(1 - 2*omega) < (2*kappa - 1)/(2*omega): the separation margin.
    if omega >= half or omega <= 0:
        entries.append(
            ConstraintEntry(
                name="separation_margin",
                status=STATUS_FAIL,
                evidence=EVIDENCE_EXACT,
                checks=(check("0 < omega < 1/2", omega, "<", half),),
                note="margin undefined unless 0 < omega < 1/2",
            )
        )
    else:
        upper = 1 / (1 - two_omega)
        entries.append(
            limit_entry(
                "separation_margin",
                [
                    check(
                        "1/(1-2*omega) < (2*kappa_lb - 1)/(2*omega)",
                        upper,
                        "<",
                        lower_gap / two_omega,
                    )
                ],
                [
                    check(
                        "1/(1-2*omega) < (2*kappa_ub - 1)/(2*omega)",
                        upper,
                        "<",
                        upper_gap / two_omega,
                    )
                ],
            )
        )

    return ConstraintReport(entries=tuple(entries), table=table)


def gap_series(table: SequenceTable) -> GapSeries:
    """The stage-gap series, enclosed by one check on the table's constants.

    The stage gaps are twice the evaluation fractions, so the series sums
    to 2 (omega + omega'): its horizon partial sum is
    2 (omega + sum_{j=2..H} k(j)/l(j)), at least 2 (omega +
    omega'_partial), and the total is at most 2 (omega + omega'_ub), read
    from the table's witnesses.  Without a tail majorant only the partial
    sum is reported.
    """
    w = table.witness
    partial = 2 * (table.omega + w.omega_prime_partial)
    if table.horizon_limited:
        return GapSeries(partial, None, True, ())
    total = 2 * (table.omega + w.omega_prime_ub)
    checks = (
        check(
            "2(omega + omega'_partial) <= 2(omega + omega'_ub), which encloses "
            "the sum of every stage gap 2 k(n+1)/l(n+1)",
            partial,
            "<=",
            total,
        ),
    )
    return GapSeries(partial, total, False, checks)


def _find_delta(rho: Fraction, target: Fraction, omega: Fraction) -> Fraction:
    """Largest dyadic delta in (0, omega) with rho < (1-delta) target, where
    target = (2 kappa_lb - 1)/(2 omega).

    Bisecting the admissible interval by denominator: at each power-of-two
    denominator we try the largest candidate below the bound, and the
    first denominator admitting one wins (ties broken toward larger
    delta by construction).
    """
    bound = min(omega, 1 - rho / target)
    denom = 2
    while denom <= DELTA_DENOMINATOR_CAP:
        # largest p/denom strictly below bound
        p = (bound.numerator * denom - 1) // bound.denominator
        if p >= 1:
            delta = Fraction(p, denom)
            if 0 < delta < omega and rho < (1 - delta) * target:
                return delta
        denom *= 2
    raise InconclusiveAtHorizon(
        f"no admissible delta with denominator <= {DELTA_DENOMINATOR_CAP}"
    )


def certify_rc_lower(table: SequenceTable, rho) -> RcLowerCertificate:
    """Search for and verify a lower certificate at level rho.

    Deterministic search: delta by denominator-doubling bisection,
    n0 and n by ascending scan, N1 as the least admissible multiple of
    rho's denominator.  Raises InputError if rho is outside the open
    interval (1, (2 kappa_lb - 1)/(2 omega)) and InconclusiveAtHorizon
    if no stage within the horizon completes the certificate.

    The trace gap is checked at the two extreme mixtures only: it is a
    fractional-linear (hence monotone) function of the mixture.
    """
    rho = as_fraction(rho)
    horizon = table.horizon
    kappa_lb = table.witness.kappa_lb
    omega = table.omega
    half = Fraction(1, 2)
    if table.kappa_lb_vacuous:
        raise InputError("certified kappa bound is vacuous")
    if kappa_lb <= half:
        raise _refusal(
            table,
            kappa_lb + table.ulp <= half,
            "certified kappa bound does not exceed 1/2",
        )
    if not 0 < omega < half:
        raise InputError(f"omega = {shown(omega)} outside (0, 1/2)")
    # Each rational below is built once and shared by every check that
    # records it.
    two_kappa = 2 * kappa_lb
    two_omega = 2 * omega
    target = (two_kappa - 1) / two_omega
    if not 1 < rho < target:
        message = (
            f"rho must lie strictly between 1 and {brief(target)} (certified), "
            f"got {brief(rho)}"
        )
        above = (2 * (kappa_lb + table.ulp) - 1) / two_omega
        raise _refusal(table, rho <= 1 or rho >= above, message)

    beta = rho.denominator
    delta = _find_delta(rho, target, omega)
    co_delta = 1 - delta
    epsilon = delta / (2 * rho * co_delta)

    checks = [
        check("0 < delta", 0, "<", delta),
        check("delta < omega", delta, "<", omega),
        check("rho < (1-delta)(2 kappa_lb - 1)/(2 omega)", rho, "<", co_delta * target),
        check("epsilon = delta/(2 rho (1-delta))", epsilon, "==", delta / (2 * rho * co_delta)),
    ]

    # Stage from which the ratio envelope is epsilon-flat: beyond n0,
    # every later ratio stays above (1 - epsilon) times the current one.
    # The scan cross-multiplies, so no s(m)/r(m) is ever reduced.
    co_epsilon = 1 - epsilon
    flat = kappa_lb / co_epsilon
    n0 = None
    for cand in range(1, horizon + 1):
        at = table.stage(cand)
        if flat.numerator * at.r > at.s * flat.denominator:
            n0 = cand
            break
    if n0 is None:
        raise InconclusiveAtHorizon(
            f"no stage <= {horizon} with kappa_lb > (1-eps) s/r; raise the horizon"
        )
    checks.append(
        check(
            f"kappa_lb > (1-eps) s({n0})/r({n0})",
            kappa_lb,
            ">",
            co_epsilon * Fraction(at.s, at.r),
        )
    )

    # The window (1 - omega + 2 rho omega, 2 kappa_lb (1-delta)) for N1/r(n).
    window_lo = 1 - omega + rho * two_omega
    window_hi = two_kappa * co_delta
    window_gap = window_hi - window_lo
    checks.append(check("window is nonempty", window_gap, ">", 0))

    n = None
    for cand in range(n0, horizon + 1):
        if beta * window_gap.denominator < window_gap.numerator * table.stage(cand).r:
            n = cand
            break
    if n is None:
        raise InconclusiveAtHorizon(
            f"no stage <= {horizon} makes the window wider than beta = {beta}"
        )
    rn, _, tn = table.stage(n)
    checks.append(check(f"beta/r({n}) < window gap", Fraction(beta, rn), "<", window_gap))

    # Least multiple of beta strictly above the window's lower edge, so
    # that N2 = rho N1 is an integer.
    multiple = window_lo.numerator * rn // (window_lo.denominator * beta) + 1
    N1 = beta * multiple
    N2 = rho.numerator * multiple
    n1_share = Fraction(N1, rn)
    checks.append(check("N1/r(n) > 1 - omega + 2 rho omega", n1_share, ">", window_lo))
    checks.append(check("N1/r(n) < 2 kappa_lb (1-delta)", n1_share, "<", window_hi))
    checks.append(check("rho N1 == N2", rho * N1, "==", N2))

    # Trace side: the normalized gap at the two extreme mixtures.
    tr = Fraction(tn, rn)
    co_tr = 1 - tr
    checks.append(check("t(n) > 0", tn, ">", 0))
    checks.append(check("r(n) - t(n) > 0", rn - tn, ">", 0))
    endpoint1 = (n1_share - co_tr) / tr
    endpoint0 = (Fraction(N2, rn) - tr) / co_tr
    checks.append(check("endpoint at full X mixture > rho", endpoint1, ">", rho))
    checks.append(check("endpoint at full Y mixture > rho", endpoint0, ">", rho))

    # Rank side: pushed to stage m > n, the test projection has rank at
    # most growth * N1 r(m)/r(n), and s(m)/r(m) >= kappa_lb keeps that
    # below the embedding threshold 2 s(m) at every such m.
    growth = (2 - delta) / (2 * co_delta)
    checks.append(check("(2-delta)/(2(1-delta)) <= 1/(1-delta)", growth, "<=", 1 / co_delta))
    checks.append(check(
        "growth * N1/r(n) < 2 kappa_lb, so growth * N1 r(m)/r(n) < 2 s(m) "
        "for every m > n",
        growth * n1_share, "<", two_kappa,
    ))

    failed = [c.name for c in checks if not c.holds]
    if failed:
        raise InconclusiveAtHorizon(f"certificate checks failed: {failed}")
    return RcLowerCertificate(
        rho=rho,
        delta=delta,
        epsilon=epsilon,
        n0=n0,
        n=n,
        N1=N1,
        N2=N2,
        endpoint_lambda1=endpoint1,
        endpoint_lambda0=endpoint0,
        kappa_lb=kappa_lb,
        omega=omega,
        checks=tuple(checks),
    )


def rc_upper(table: SequenceTable) -> RcUpperResult:
    """Certified upper bound 1/(1 - 2 omega) for the q corner.

    The bound halves the limit of the sphere-side dimension-to-rank ratio
    (2 s(n) + 1)/(r(n) - t(n)), so only large n enter it, and one check
    at the horizon H covers them all.  With tau_n = t(n)/r(n) and
    lambda_n = k(n)/l(n),

        tau_(n+1) = tau_n + lambda_(n+1) (1 - 2 tau_n) <= tau_n + lambda_(n+1),

    so t(H)/r(H) + tail(H) < 2 omega, with tail(H) >= sum_{j>H} lambda_j
    from the family's majorant, gives t(n)/r(n) < 2 omega at every
    n >= H.  The check reads the witness tau_ub >= t(H)/r(H) + tail(H)
    (its link check is in the table).  Then s(n) <= r(n) gives
    (2 s(n) + 1)/(r(n) - t(n)) <= (2 + 1/r(n))/(1 - 2 omega), whose limit
    is 2/(1 - 2 omega); halving gives the bound.  A family without a
    tail majorant is checked with tail(H) = 0, which covers stage H only:
    its table is horizon-limited.

    Raises InconclusiveAtHorizon when the check fails.
    """
    omega = table.omega
    if not 0 < omega < Fraction(1, 2):
        raise InputError(f"omega = {shown(omega)} outside (0, 1/2)")
    H = table.horizon
    covered = f"n = {H}" if table.horizon_limited else f"every n >= {H}"
    at_horizon = check(
        f"tau_ub < 2 omega, so t(n)/r(n) < 2 omega for {covered}",
        table.witness.tau_ub,
        "<",
        2 * omega,
    )
    if not at_horizon.holds:
        raise InconclusiveAtHorizon(
            f"tau_ub >= t({H})/r({H}) + tail({H}): {brief(at_horizon.lhs)} is not "
            f"below 2 omega = {brief(at_horizon.rhs)}; raise the horizon"
        )
    return RcUpperResult(
        certified_limit_bound=1 / (1 - 2 * omega), checks=(at_horizon,)
    )


def default_separation_rho(upper: Fraction, lower_target: Fraction) -> Fraction:
    """Deterministic witness level: 3/2 when admissible, else the dyadic
    with the fewest bits in (upper, (upper + lower_target)/2].

    Staying at or below the midpoint keeps every certificate inequality
    at least as easy as at the midpoint, and the level's denominator
    depends on the margin only, not on the size of the bounds.
    """
    if not upper < lower_target:
        raise InputError(f"no level between {brief(upper)} and {brief(lower_target)}")
    preferred = Fraction(3, 2)
    if upper < preferred < lower_target:
        return preferred
    mid = (upper + lower_target) / 2
    bits = 0
    while True:
        rho = Fraction(mid.numerator * 2 ** bits // mid.denominator, 2 ** bits)
        if rho > upper:
            return rho
        bits += 1


def separation(table: SequenceTable, rho=None) -> SeparationReport:
    """Verify that the two corners have different comparison radii.

    Needs the certified upper bound for the q corner to fall strictly
    below the certified lower target for the complementary corner, and a
    concrete rho strictly between them whose lower certificate
    completes.  Then

        rc(q corner) <= 1/(1 - 2 omega) < rho <= rc(complementary corner).
    """
    omega = table.omega
    kappa_lb = table.witness.kappa_lb
    if not 0 < omega < Fraction(1, 2):
        raise InputError(f"omega = {shown(omega)} outside (0, 1/2)")
    two_omega = 2 * omega
    upper = 1 / (1 - two_omega)
    lower_target = (2 * kappa_lb - 1) / two_omega
    margin = check("upper bound < lower target", upper, "<", lower_target)
    if not margin.holds:
        return SeparationReport(
            upper_bound=upper,
            lower_target=lower_target,
            rho=None,
            certificate=None,
            separated=False,
            status="inconclusive",
            advice=(
                "certified kappa bound too loose to separate the corners; "
                "recompute it at a larger stage index"
            ),
            checks=(margin,),
        )
    rho = default_separation_rho(upper, lower_target) if rho is None else as_fraction(rho)
    checks = (
        margin,
        check("upper bound < rho", upper, "<", rho),
        check("rho < lower target", rho, "<", lower_target),
    )
    if not all(c.holds for c in checks):
        above = (2 * (kappa_lb + table.ulp) - 1) / two_omega
        raise _refusal(
            table,
            rho <= upper or rho >= above,
            f"rho = {brief(rho)} does not lie strictly between {brief(upper)} "
            f"and {brief(lower_target)}",
        )
    certificate = certify_rc_lower(table, rho)
    return SeparationReport(
        upper_bound=upper,
        lower_target=lower_target,
        rho=rho,
        certificate=certificate,
        separated=True,
        status="separated",
        advice="",
        checks=checks,
    )
