"""The trace ladder as exact ``Fraction`` arithmetic: a reference for the
integer ladder of ``ahcert.tracesim``.

``simulate_intertwining`` below carries u_n and every step as
``Fraction`` (offset, slope) pairs and decides every bound on ``Fraction``
values; ``agreement_prefix`` walks two lists of run ends.  A test compares
the two implementations' step distances, step bounds, rungs and errors
(``test_tracesim``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from ahcert.errors import ConsistencyError, InputError
from ahcert.tracesim import GridFunction, StageEntries

_ONE = Fraction(1)


def _sup(offset: Fraction, slope: Fraction) -> Fraction:
    """max |offset + slope x| over [0, 1], reached at x = 0 or x = 1."""
    return max(abs(offset), abs(offset + slope)) if slope else abs(offset)


def agreement_prefix(a: StageEntries, b: StageEntries) -> int:
    """Number of leading entry positions (counted with multiplicity) that agree."""
    ends_a = list(accumulate(c for _, c in a.entries))
    ends_b = list(accumulate(c for _, c in b.entries))
    agreed = ia = ib = 0
    while ia < len(ends_a) and ib < len(ends_b):
        map_a, map_b = a.entries[ia][0], b.entries[ib][0]
        if map_a is not map_b and map_a != map_b:
            break
        agreed = min(ends_a[ia], ends_b[ib])
        ia += ends_a[ia] == agreed
        ib += ends_b[ib] == agreed
    return agreed


@dataclass(frozen=True)
class IntertwiningResult:
    start_stage: int
    horizon: int
    step_distances: tuple
    step_bounds: tuple
    #: (w_H, the steps w_n - w_(n+1) for n = start..H-1), the rung and the
    #: steps as their (offset, slope) at stage H
    ladder: tuple = field(repr=False)

    @cached_property
    def functions(self) -> tuple:
        """w_n for n = start..horizon at stage ``horizon``, summed on first read."""
        top, steps = self.ladder
        lines = (GridFunction(*pair) for pair in (top, *reversed(steps)))
        return tuple(accumulate(lines, GridFunction.add))[::-1]


def simulate_intertwining(
    system_a: Sequence[StageEntries],
    system_b: Sequence[StageEntries],
    v: GridFunction,
    m: int,
    horizon: int,
) -> IntertwiningResult:
    """The telescoped ladder w_n = w_(n+1) + Q_(n+1) (B_n u_n - u_(n+1)) on
    ``Fraction`` (offset, slope) pairs, pushed through each stage's mean
    entry map."""
    if not 0 <= m <= horizon:
        raise InputError(f"need 0 <= start {m} <= horizon {horizon}")
    if horizon > len(system_a) or horizon > len(system_b):
        raise InputError("systems do not reach the requested horizon")
    scale = max(_ONE, v.sup_norm())
    # (offset, slope) runs through u_n from u_m = v.  With stage n's mean entries
    # o_A + s_A x and o_B + s_B x, u_(n+1) is (offset + slope o_A, slope s_A), and
    # B_n u_n - u_(n+1) is slope (o_B - o_A, s_B - s_A): a map both hold cancels.
    offset, slope = v.offset, v.slope
    steps, distances, bounds = [], [], []
    for n in range(m, horizon):
        a, b = system_a[n], system_b[n]
        if a.total != b.total:
            raise InputError(f"stage {n} multiplicity mismatch: {a.total} != {b.total}")
        step_offset = slope * (b.mean.offset - a.mean.offset)
        step_slope = slope * (b.mean.slope - a.mean.slope)
        for j in range(n + 1, horizon):
            if not step_slope:  # a constant: every later push returns it unchanged
                break
            later = system_b[j].mean
            step_offset += step_slope * later.offset
            step_slope *= later.slope
        offset, slope = offset + slope * a.mean.offset, slope * a.mean.slope
        dist = _sup(step_offset, step_slope)
        bound = Fraction(2 * (a.total - agreement_prefix(a, b)), a.total) * scale
        if dist > bound:
            raise ConsistencyError(f"step {n}: distance {dist} exceeds bound {bound}")
        steps.append((step_offset, step_slope))
        distances.append(dist)
        bounds.append(bound)
    return IntertwiningResult(
        start_stage=m,
        horizon=horizon,
        step_distances=tuple(distances),
        step_bounds=tuple(bounds),
        ladder=((offset, slope), tuple(steps)),
    )
