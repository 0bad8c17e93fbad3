"""Re-indexing a family along a strictly increasing stage selection.

Skipping stages composes the maps across each skipped block, so the
re-indexed family has, for the block nu(m-1)+1 .. nu(m),

    d(m) = prod d~(j)          (compositions of same-side entries)
    l(m) = prod l~(j)          (all compositions)
    k(m) = l(m) - d(m).

Sizes are preserved on the nose, r(m) = r~(nu(m)) and s(m) = s~(nu(m)),
and the first evaluation fraction omega survives whenever nu(1) = 1.
The new stage-m evaluation fraction satisfies

    k(m)/l(m) = 1 - prod (1 - k~(j)/l~(j)) <= sum k~(j)/l~(j)

(the Weierstrass product inequality), so partial sums of the new
fractions are dominated by the old ones over the same range, and the old
tail majorant can be inherited verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .params import (
    ParamFamily,
    SequenceTable,
    check,
    make_explicit_family,
    sequences,
)

MAP_LEVEL_ASSUMPTION = (
    "stage-selected systems are compared only through their sequences and "
    "constants; the permutation identifying the composed diagonal maps "
    "with a standard layout is assumed, not reconstructed"
)


@dataclass(frozen=True)
class WeierstrassResult:
    holds: bool
    lhs: Fraction  # sum of the fractions
    rhs: Fraction  # 1 - prod (1 - fraction)


def weierstrass_check(lambdas: Sequence[Fraction]) -> WeierstrassResult:
    """Exactly evaluate sum lambda_j >= 1 - prod (1 - lambda_j)."""
    lams = [Fraction(x) for x in lambdas]
    if not lams:
        raise InputError("need at least one value")
    for x in lams:
        if not 0 < x < 1:
            raise InputError(f"values must lie in (0, 1), got {x}")
    lhs = sum(lams, Fraction(0))
    prod = Fraction(1)
    for x in lams:
        prod *= 1 - x
    rhs = 1 - prod
    return WeierstrassResult(holds=lhs >= rhs, lhs=lhs, rhs=rhs)


@dataclass(frozen=True)
class TelescopeResult:
    nu: tuple
    new_family: ParamFamily
    new_table: SequenceTable
    checks: tuple
    assumption: str = MAP_LEVEL_ASSUMPTION

    @property
    def verified(self) -> bool:
        return all(c.holds for c in self.checks)


def telescope(family: ParamFamily, nu: Sequence[int], horizon: int) -> TelescopeResult:
    """Re-index ``family`` along ``nu`` and verify the preserved quantities.

    ``nu`` must be strictly increasing with nu(0) = 0 and nu(1) = 1 (so
    omega is preserved); its values must not exceed ``horizon``.  The
    result packages the new explicit family (with inherited tail
    majorant, when available) and the exact verification record.
    """
    nu = list(nu)
    if len(nu) < 2:
        raise InputError("nu must contain at least indices 0 and 1")
    if nu[0] != 0:
        raise InputError(f"nu(0) must be 0, got {nu[0]}")
    if nu[1] != 1:
        raise InputError(f"nu(1) must be 1 (omega would change), got {nu[1]}")
    if any(b <= a for a, b in zip(nu, nu[1:])):
        raise InputError(f"nu must be strictly increasing, got {nu}")
    if nu[-1] > horizon:
        raise InputError(f"nu values must be <= horizon {horizon}, got {nu[-1]}")

    old = sequences(family, horizon)

    new_d = [1]
    new_k = [0]
    for m in range(1, len(nu)):
        lo, hi = nu[m - 1] + 1, nu[m]
        dm = 1
        lm = 1
        for j in range(lo, hi + 1):
            dm *= old.d[j]
            lm *= old.l[j]
        new_d.append(dm)
        new_k.append(lm - dm)

    if family.horizon_limited:
        inherited_tail = None
    else:
        tail_points = [family.tail(v) for v in nu]

        def inherited_tail(m: int, _pts=tail_points) -> Fraction:
            if not 0 <= m < len(_pts):
                raise InputError(f"inherited tail defined for 0..{len(_pts) - 1}")
            return _pts[m]

    new_family = make_explicit_family(new_d, new_k, tail_majorant=inherited_tail)
    new_horizon = len(nu) - 1
    new = sequences(new_family, new_horizon)

    checks = []
    for m in range(new_horizon + 1):
        at, was = new.stage(m), old.stage(nu[m])
        checks.append(check(f"r({m}) == r~(nu({m}))", at.r, "==", was.r))
        checks.append(check(f"s({m}) == s~(nu({m}))", at.s, "==", was.s))
    checks.append(check("omega preserved", new.omega, "==", old.omega))

    # Blockwise domination of evaluation-fraction partial sums.
    new_partial = Fraction(0)
    old_partial = Fraction(0)
    for m in range(2, new_horizon + 1):
        new_partial += Fraction(new.k[m], new.l[m])
        for j in range(nu[m - 1] + 1, nu[m] + 1):
            old_partial += Fraction(old.k[j], old.l[j])
        checks.append(
            check(
                f"sum_{{2..{m}}} k/l dominated by old partial",
                new_partial,
                "<=",
                old_partial,
            )
        )

    if not family.horizon_limited:
        for m in range(new_horizon + 1):
            checks.append(
                check(
                    f"inherited tail({m}) == old tail(nu({m}))",
                    new_family.tail(m),
                    "==",
                    family.tail(nu[m]),
                )
            )

    return TelescopeResult(
        nu=tuple(nu),
        new_family=new_family,
        new_table=new,
        checks=tuple(checks),
    )
