"""Exact certificates for the comparison-radius bounds of the two corners.

The distinguished projection q and its complement sit in corners whose
radii of comparison are controlled from opposite sides:

  * the q corner is bounded above by 1/(1 - 2 omega), via the mean
    dimension of the diagonal system (ratio of space dimension to the
    rank of the corner unit, halved in the limit);

  * the complementary corner is bounded below by any rational rho in
    (1, (2 kappa - 1)/(2 omega)) for which the rank/trace certificate
    below can be completed.

kappa is everywhere replaced by the table's witness kappa_lb, a short
dyadic below its certified lower bound, which is the sound direction for
every inequality used, so the provable lower target is
(2 kappa_lb - 1)/(2 omega): slightly below the ideal target but fully
certified.  Likewise the upper side reads the witness tau_ub above
t(H)/r(H) + tail(H).  Each witness is tied to its exact value by one
link check in the table (see ``params``), so every certificate here
compares short rationals only, and records each inequality with both
sides, so it can be re-verified independently of the code that produced
it.  The functions work at the table's witness precision; a caller left
undecided retries at more bits (``params.first_decided``).

Every certificate compares integers by cross-multiplication.  It reads
each witness and constant as a pair (numerator, denominator) once, on
entry, derives every bound as an unreduced integer pair with a positive
denominator, and decides every guard and scan on those integers.  It
builds each rational that a record holds once, as ``Fraction(p, q)``; no
``Fraction`` operator runs on the decided path.  Only a refusal, off
that path, still computes on ``Fraction``s: its message's bounds and
whether the exact values refuse too.

No certificate checks the stages one by one.  Each records the single
inequality that implies every stage, including those beyond the
horizon, so its size does not grow with the horizon:

  * upper side: with tau_n = t(n)/r(n) and lambda_n = k(n)/l(n), the
    recursion for t gives tau_(n+1) = tau_n + lambda_(n+1) (1 - 2 tau_n)
    <= tau_n + lambda_(n+1), so t(H)/r(H) + tail(H) < 2 omega gives
    t(n)/r(n) < 2 omega at every n >= H;

  * lower side: s(m)/r(m) >= kappa_lb at every stage m >= 1 (every
    tabulated one when the family has no tail majorant), so a rank bound
    B r(m)/r(n) with B/r(n) < 2 kappa_lb stays below the embedding
    threshold 2 s(m) at every later stage m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, methodcaller
from typing import Optional, Sequence

from .errors import InconclusiveAtHorizon, InputError, RefusedAtPrecision
from .params import Check, SequenceTable, check
from .rationals import as_fraction, brief, format_rational, shown

#: delta is a dyadic whose denominator, a power of two, is at most this.
DELTA_DENOMINATOR_CAP = 2 ** 20


def _refusal(table: SequenceTable, certain: bool, message: str) -> InputError:
    """The error for a refused input: InputError when the refusal is
    certain (the exact values refuse it too, as the enclosure
    [witness, witness + ulp] shows) or the witnesses are exact; otherwise
    RefusedAtPrecision, which more witness bits may lift."""
    if certain or table.exact:
        return InputError(message)
    return RefusedAtPrecision(f"{message} (at {table.bits} witness bits)")


def verify_checks(checks: Sequence[Check]) -> bool:
    """Re-derive every recorded comparison from its stored sides."""
    return all(c.reverify() and c.holds for c in checks)


@dataclass(frozen=True)
class RcLowerCertificate:
    """Witness that the complementary corner has comparison radius >= rho.

    The data follow the rank/trace obstruction argument: a test
    projection with component ranks (N1, N2 = rho N1) at stage n is
    pushed forward; the recorded window inequalities force its rank
    below the embedding threshold 2 s(m) at every later stage, while the
    two endpoint values of the normalized trace gap (the extreme points
    over the possible trace mixtures) stay above rho.
    """

    rho: Fraction
    delta: Fraction
    epsilon: Fraction
    n0: int
    n: int
    N1: int
    N2: int
    endpoint_lambda1: Fraction
    endpoint_lambda0: Fraction
    kappa_lb: Fraction
    omega: Fraction
    checks: tuple

    _report_keys = {
        "kappa_lb": None,
        "kappa_lower_bound": attrgetter("kappa_lb"),
        "N1": lambda cert: format_rational(cert.N1),
        "N2": lambda cert: format_rational(cert.N2),
        "reverified": methodcaller("reverify"),
    }

    def reverify(self) -> bool:
        return verify_checks(self.checks)


@dataclass(frozen=True)
class RcUpperResult:
    """The certified limit bound 1/(1 - 2 omega) and the one check behind it."""

    certified_limit_bound: Fraction
    checks: tuple

    _report_keys = {"reverified": methodcaller("reverify")}

    def reverify(self) -> bool:
        return verify_checks(self.checks)


@dataclass(frozen=True)
class SeparationReport:
    upper_bound: Fraction
    lower_target: Fraction
    rho: Optional[Fraction]
    certificate: Optional[RcLowerCertificate]
    separated: bool
    status: str  # "separated" | "inconclusive"
    advice: str
    checks: tuple


def _find_delta(rho: tuple, target: tuple, omega: tuple) -> tuple:
    """(p, 2^j): the largest dyadic delta = p/2^j in (0, omega) with
    rho < (1-delta) target, at the least power of two 2^j that admits one.

    rho, target = (2 kappa_lb - 1)/(2 omega) and omega are integer pairs
    (numerator, denominator > 0) with 1 < rho < target and
    0 < omega < 1/2.  The admissible deltas are those in (0, bound), with
    bound = min(omega, 1 - rho/target) < 1/2, so 2^j admits one exactly
    when 2^j > 1/bound: 2^j is the least power of two above
    floor(1/bound), and p = ceil(bound 2^j) - 1.
    """
    rho_p, rho_q = rho
    target_p, target_q = target
    omega_p, omega_q = omega
    room_p, room_q = rho_q * target_p - rho_p * target_q, rho_q * target_p  # 1 - rho/target
    if omega_p * room_q <= room_p * omega_q:
        bound_p, bound_q = omega_p, omega_q
    else:
        bound_p, bound_q = room_p, room_q
    denom = 1 << (bound_q // bound_p).bit_length()
    if denom > DELTA_DENOMINATOR_CAP:
        raise InconclusiveAtHorizon(
            f"no admissible delta with denominator <= {DELTA_DENOMINATOR_CAP}"
        )
    return (bound_p * denom - 1) // bound_q, denom


def certify_rc_lower(table: SequenceTable, rho) -> RcLowerCertificate:
    """Search for and verify a lower certificate at level rho.

    Deterministic search: delta as the shortest admissible dyadic,
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
    if table.kappa_lb_vacuous:
        raise InputError("certified kappa bound is vacuous")
    # Every rational below is an integer pair x_p/x_q with x_q > 0.
    kappa_p, kappa_q = kappa_lb.numerator, kappa_lb.denominator
    omega_p, omega_q = omega.numerator, omega.denominator
    rho_p, beta = rho.numerator, rho.denominator
    if 2 * kappa_p <= kappa_q:
        raise _refusal(
            table,
            kappa_lb + table.ulp <= Fraction(1, 2),
            "certified kappa bound does not exceed 1/2",
        )
    if not (0 < omega_p and 2 * omega_p < omega_q):
        raise InputError(f"omega = {shown(omega)} outside (0, 1/2)")
    # target = (2 kappa_lb - 1)/(2 omega)
    target_p, target_q = (2 * kappa_p - kappa_q) * omega_q, 2 * omega_p * kappa_q
    if not (beta < rho_p and rho_p * target_q < target_p * beta):
        message = (
            f"rho must lie strictly between 1 and {brief(Fraction(target_p, target_q))} "
            f"(certified), got {brief(rho)}"
        )
        above = (2 * (kappa_lb + table.ulp) - 1) / (2 * omega)
        raise _refusal(table, rho <= 1 or rho >= above, message)

    delta_p, delta_q = _find_delta((rho_p, beta), (target_p, target_q), (omega_p, omega_q))
    co_delta_p = delta_q - delta_p  # 1 - delta = co_delta_p/delta_q
    delta = Fraction(delta_p, delta_q)
    # epsilon = delta/(2 rho (1-delta))
    epsilon_p, epsilon_q = delta_p * beta, 2 * rho_p * co_delta_p
    epsilon = Fraction(epsilon_p, epsilon_q)

    checks = [
        check("0 < delta", 0, "<", delta),
        check("delta < omega", delta, "<", omega),
        check(
            "rho < (1-delta)(2 kappa_lb - 1)/(2 omega)",
            rho,
            "<",
            Fraction(co_delta_p * target_p, delta_q * target_q),
        ),
        # epsilon is this formula's value, built once for both sides.
        check("epsilon = delta/(2 rho (1-delta))", epsilon, "==", epsilon),
    ]

    # Stage from which the ratio envelope is epsilon-flat: beyond n0,
    # every later ratio stays above (1 - epsilon) times the current one.
    # The scan compares kappa_lb/(1 - epsilon) with s(m)/r(m) by
    # cross-multiplication, so no s(m)/r(m) is ever reduced.
    co_epsilon_p = epsilon_q - epsilon_p  # 1 - epsilon = co_epsilon_p/epsilon_q
    flat_p, flat_q = kappa_p * epsilon_q, kappa_q * co_epsilon_p
    n0 = None
    for cand in range(1, horizon + 1):
        at = table.stage(cand)
        if flat_p * at.r > at.s * flat_q:
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
            Fraction(co_epsilon_p * at.s, epsilon_q * at.r),
        )
    )

    # The window (1 - omega + 2 rho omega, 2 kappa_lb (1-delta)) for N1/r(n).
    lo_p, lo_q = beta * (omega_q - omega_p) + 2 * rho_p * omega_p, beta * omega_q
    hi_p, hi_q = 2 * kappa_p * co_delta_p, kappa_q * delta_q
    gap_p, gap_q = hi_p * lo_q - lo_p * hi_q, hi_q * lo_q
    window_gap = Fraction(gap_p, gap_q)
    checks.append(check("window is nonempty", window_gap, ">", 0))

    n = None
    for cand in range(n0, horizon + 1):
        if beta * gap_q < gap_p * table.stage(cand).r:
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
    multiple = lo_p * rn // (lo_q * beta) + 1
    N1 = beta * multiple
    N2 = rho_p * multiple
    n1_share = Fraction(N1, rn)
    checks.append(check("N1/r(n) > 1 - omega + 2 rho omega", n1_share, ">", Fraction(lo_p, lo_q)))
    checks.append(check("N1/r(n) < 2 kappa_lb (1-delta)", n1_share, "<", Fraction(hi_p, hi_q)))
    checks.append(check("rho N1 == N2", Fraction(rho_p * N1, beta), "==", N2))

    # Trace side: the normalized gap at the two extreme mixtures, with
    # tr = t(n)/r(n): (N1/r(n) - (1 - tr))/tr and (N2/r(n) - tr)/(1 - tr).
    checks.append(check("t(n) > 0", tn, ">", 0))
    checks.append(check("r(n) - t(n) > 0", rn - tn, ">", 0))
    endpoint1 = Fraction(N1 - rn + tn, tn)
    endpoint0 = Fraction(N2 - tn, rn - tn)
    checks.append(check("endpoint at full X mixture > rho", endpoint1, ">", rho))
    checks.append(check("endpoint at full Y mixture > rho", endpoint0, ">", rho))

    # Rank side: pushed to stage m > n, the test projection has rank at
    # most growth * N1 r(m)/r(n), and s(m)/r(m) >= kappa_lb keeps that
    # below the embedding threshold 2 s(m) at every such m.
    growth_p, growth_q = 2 * delta_q - delta_p, 2 * co_delta_p  # (2-delta)/(2(1-delta))
    checks.append(check(
        "(2-delta)/(2(1-delta)) <= 1/(1-delta)",
        Fraction(growth_p, growth_q), "<=", Fraction(delta_q, co_delta_p),
    ))
    checks.append(check(
        "growth * N1/r(n) < 2 kappa_lb, so growth * N1 r(m)/r(n) < 2 s(m) "
        "for every m > n",
        Fraction(growth_p * N1, growth_q * rn), "<", Fraction(2 * kappa_p, kappa_q),
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
    omega_p, omega_q = omega.numerator, omega.denominator
    if not (0 < omega_p and 2 * omega_p < omega_q):
        raise InputError(f"omega = {shown(omega)} outside (0, 1/2)")
    H = table.horizon
    covered = f"n = {H}" if table.horizon_limited else f"every n >= {H}"
    at_horizon = check(
        f"tau_ub < 2 omega, so t(n)/r(n) < 2 omega for {covered}",
        table.witness.tau_ub,
        "<",
        Fraction(2 * omega_p, omega_q),
    )
    if not at_horizon.holds:
        raise InconclusiveAtHorizon(
            f"tau_ub >= t({H})/r({H}) + tail({H}): {brief(at_horizon.lhs)} is not "
            f"below 2 omega = {brief(at_horizon.rhs)}; raise the horizon"
        )
    return RcUpperResult(
        certified_limit_bound=Fraction(omega_q, omega_q - 2 * omega_p), checks=(at_horizon,)
    )


def default_separation_rho(upper: Fraction, lower_target: Fraction) -> Fraction:
    """Deterministic witness level: 3/2 when admissible, else the dyadic
    with the fewest bits in (upper, (upper + lower_target)/2].

    Staying at or below the midpoint keeps every certificate inequality
    at least as easy as at the midpoint, and the level's denominator
    depends on the margin only, not on the size of the bounds.
    """
    upper_p, upper_q = upper.numerator, upper.denominator
    lower_p, lower_q = lower_target.numerator, lower_target.denominator
    if not upper_p * lower_q < lower_p * upper_q:
        raise InputError(f"no level between {brief(upper)} and {brief(lower_target)}")
    if 2 * upper_p < 3 * upper_q and 3 * lower_q < 2 * lower_p:
        return Fraction(3, 2)
    mid_p, mid_q = upper_p * lower_q + lower_p * upper_q, 2 * upper_q * lower_q
    # The midpoint lies at least 1/mid_q above upper, so once 2^bits
    # exceeds mid_q its rounding down to bits fractional bits does too.
    for bits in range(mid_q.bit_length() + 1):
        p = (mid_p << bits) // mid_q
        if p * upper_q > upper_p << bits:
            return Fraction(p, 1 << bits)


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
    omega_p, omega_q = omega.numerator, omega.denominator
    if not (0 < omega_p and 2 * omega_p < omega_q):
        raise InputError(f"omega = {shown(omega)} outside (0, 1/2)")
    kappa_p, kappa_q = kappa_lb.numerator, kappa_lb.denominator
    # 1/(1 - 2 omega) and (2 kappa_lb - 1)/(2 omega)
    upper = Fraction(omega_q, omega_q - 2 * omega_p)
    lower_target = Fraction((2 * kappa_p - kappa_q) * omega_q, 2 * omega_p * kappa_q)
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
        above = (2 * (kappa_lb + table.ulp) - 1) / (2 * omega)
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
