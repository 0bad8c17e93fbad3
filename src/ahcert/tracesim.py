"""Desk-scale simulation of the trace-space machinery on [0, 1].

Every trace function here is affine, x -> offset + slope x, and is held
as that pair (``GridFunction``); an interval map is such a pair that
sends [0, 1] into itself (``PiecewiseLinearMap``).  The synthetic maps
are the contractions, the point evaluations and the identity, and
averaging compositions f o m with weights that sum to one keeps f
affine, so a stage push is composition with the stage's mean entry map,
computed once per stage.  An affine function's sup over [0, 1] is its
larger absolute end value, so every sup norm is exact.  No grid is
stored: ``GridFunction.from_callable`` samples a grid only to check that
its input is affine.  The checked quantities (per-step gaps, rounding
errors) are exact rationals.  The intertwining ladder runs on integers:
each stage also keeps its mean entry as (offset_num, slope_num, q) over
the least common denominator q, ``simulate_intertwining`` carries every
line as an unreduced triple and decides every bound by
cross-multiplication, and a ``Fraction`` is built only for a reported
distance or bound.  The stage-gap series and the flip are each
a fixed number of checks at every horizon (``gap_series``,
``flip_compatibility``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import accumulate
from math import ceil, lcm
from operator import attrgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, InputError
from .params import SequenceTable, check, is_integer
from .ranks import K0Class, push_k0, q_perp_ranks
from .rationals import as_fraction, shown

#: The most ladder stages ``trace-sim`` runs.  A stage is a few rational
#: operations (``simulate_intertwining``), but the exact step distances
#: carry denominators of order stages^2 bits, so the report grows like
#: stages^3; the cap keeps a cold run near ``certify`` at
#: ``pipeline.MAX_HORIZON``.
MAX_STAGES = 56

#: The most points ``density --van-der-corput`` generates.  Every point is
#: a ``Fraction`` that ``density_check`` sorts on an integer key, so time
#: and memory grow with the count; the cap keeps a cold run within a few
#: times ``certify`` at ``pipeline.MAX_HORIZON``.
MAX_POINTS = 2 ** 15


_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


# ---------------------------------------------------------------------------
# Affine functions and interval maps


@dataclass(frozen=True)
class GridFunction:
    """An exact affine function x -> offset + slope x on [0, 1], the form of
    every trace function here.  Both fields are coerced by ``as_fraction``,
    so floats are refused."""

    offset: Fraction
    slope: Fraction

    def __post_init__(self):
        object.__setattr__(self, "offset", as_fraction(self.offset))
        object.__setattr__(self, "slope", as_fraction(self.slope))

    @classmethod
    def from_callable(cls, fn: Callable, resolution: int):
        """fn read on the grid {i/G : 0 <= i <= G}, G = ``resolution``, and
        refused unless every sample lies on the line through the end samples."""
        G = resolution
        if not is_integer(G) or G < 1:
            raise InputError(f"resolution must be an integer >= 1, got {G}")
        first, last = as_fraction(fn(_ZERO)), as_fraction(fn(_ONE))
        for i in range(1, G):
            if as_fraction(fn(Fraction(i, G))) * G != first * (G - i) + last * i:
                raise InputError(
                    f"trace functions are affine, but the samples at indices 0, {i} "
                    f"and {G} are not collinear"
                )
        return cls(first, last - first)

    @property
    def is_constant(self) -> bool:
        return not self.slope

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        if not 0 <= x <= 1:
            raise InputError(f"argument {x} outside [0, 1]")
        return self.offset + self.slope * x

    def resample(self, m: "PiecewiseLinearMap") -> "GridFunction":
        """Self composed with m."""
        return GridFunction(self.offset + self.slope * m.offset, self.slope * m.slope)

    def sup_norm(self) -> Fraction:
        return _sup(self.offset, self.slope)

    def add(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.offset + other.offset, self.slope + other.slope)

    def sub(self, other: "GridFunction") -> "GridFunction":
        return GridFunction(self.offset - other.offset, self.slope - other.slope)

    def distance(self, other: "GridFunction") -> Fraction:
        return self.sub(other).sup_norm()


class PiecewiseLinearMap(GridFunction):
    """An affine self-map x -> offset + slope x of [0, 1]: a piecewise-linear
    map with one piece, the only kind the simulation composes with."""

    def __post_init__(self):
        super().__post_init__()
        # an affine map sends [0, 1] onto the segment between its end values
        if not (0 <= self.offset <= 1 and 0 <= self.offset + self.slope <= 1):
            raise InputError("map leaves [0, 1]")


def identity_map() -> PiecewiseLinearMap:
    return PiecewiseLinearMap(_ZERO, _ONE)


def constant_map(c) -> PiecewiseLinearMap:
    return PiecewiseLinearMap(c, _ZERO)


def contraction_map(center, factor=_HALF) -> PiecewiseLinearMap:
    """x -> center + factor (x - center): contraction toward a point."""
    center = as_fraction(center)
    factor = as_fraction(factor)
    if not 0 <= factor < 1:
        raise InputError(f"contraction factor must be in [0, 1), got {factor}")
    return PiecewiseLinearMap(center - factor * center, factor)


def _average(weighted_maps: Iterable[Tuple[Fraction, PiecewiseLinearMap]]) -> tuple:
    """(offset, slope) of the affine map sum w m over (w, m) pairs."""
    offset = slope = _ZERO
    for w, m in weighted_maps:
        offset += w * m.offset
        slope += w * m.slope
    return offset, slope


def _sup(offset, slope):
    """max |offset + slope x| over [0, 1], reached at x = 0 or x = 1; on
    integers, the numerator of the sup of (offset + slope x)/q for q > 0."""
    return max(abs(offset), abs(offset + slope)) if slope else abs(offset)


def _over_lcm(offset: Fraction, slope: Fraction) -> tuple:
    """(o, s, q) with offset = o/q and slope = s/q, q their least common
    denominator."""
    q = lcm(offset.denominator, slope.denominator)
    return (offset.numerator * (q // offset.denominator),
            slope.numerator * (q // slope.denominator), q)


def _require_integer(name: str, value) -> None:
    """Refuse a value that is not an integer, naming it: ``params.is_integer``
    refuses booleans and floats."""
    if not is_integer(value):
        raise InputError(f"{name} must be an integer, got {value!r}")


def _radical_inverse(i: int, base: int) -> Fraction:
    """Point i of the van der Corput sequence: i's base digits reflected
    about the radix point."""
    num, denom = 0, 1
    while i:
        num = num * base + (i % base)
        denom *= base
        i //= base
    return Fraction(num, denom)


def van_der_corput(count: int, base: int = 2) -> List[Fraction]:
    """First ``count`` points of the radical-inverse low-discrepancy sequence."""
    _require_integer("point count", count)
    _require_integer("base", base)
    if base < 2:
        raise InputError(f"base must be >= 2, got {base}")
    if count < 0:
        raise InputError(f"point count must be >= 0, got {count}")
    return [_radical_inverse(i, base) for i in range(count)]


# ---------------------------------------------------------------------------
# Convex-weight rounding


@dataclass(frozen=True)
class RoundingPlan:
    """Convex weights snapped to multiples of 1/N with a certified error.

    Each of the first n-1 weights is rounded down to the nearest
    multiple of 1/N (hence within 1/N below the original) and the last
    absorbs the correction, so the weights still sum to one, the
    multiplicities N beta_l are nonnegative integers, and the total
    deviation stays below epsilon/2 whenever N > 4n/epsilon.
    """

    n: int
    alphas: tuple
    epsilon: Fraction
    N: int
    betas: tuple
    multiplicities: tuple
    deviation: Fraction


def round_convex_weights(alphas: Sequence, epsilon, N: int) -> RoundingPlan:
    _require_integer("N", N)
    alphas = tuple(as_fraction(a) for a in alphas)
    epsilon = as_fraction(epsilon)
    n = len(alphas)
    if n == 0:
        raise InputError("need at least one weight")
    if any(not 0 <= a <= 1 for a in alphas):
        raise InputError("weights must lie in [0, 1]")
    if sum(alphas) != 1:
        raise InputError(f"weights must sum to 1, got {sum(alphas)}")
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    threshold = ceil(Fraction(4 * n) / epsilon) + 1
    if N < threshold:
        raise InputError(
            f"N = {N} below the rounding threshold ceil(4n/eps) + 1 = {threshold}"
        )
    betas = []
    for a in alphas[:-1]:
        scaled = a * N
        betas.append(Fraction(scaled.numerator // scaled.denominator, N))
    betas.append(1 - sum(betas, Fraction(0)))
    mults = []
    for b in betas:
        m = b * N
        if m.denominator != 1 or m.numerator < 0:
            raise ConsistencyError(f"multiplicity N beta = {m} not a nonnegative integer")
        mults.append(m.numerator)
    deviation = sum((abs(a - b) for a, b in zip(alphas, betas)), Fraction(0))
    if deviation >= epsilon / 2:
        raise ConsistencyError(
            f"rounding deviation {deviation} not below epsilon/2 = {epsilon / 2}"
        )
    return RoundingPlan(
        n=n,
        alphas=alphas,
        epsilon=epsilon,
        N=N,
        betas=tuple(betas),
        multiplicities=tuple(mults),
        deviation=deviation,
    )


def averaged_composition(
    functions: Sequence[GridFunction],
    maps: Sequence[PiecewiseLinearMap],
    reference: Sequence[Tuple],
) -> List[Tuple[GridFunction, Fraction]]:
    """Averages (1/N) sum f o g_j and their sup gap to a weighted reference.

    ``reference`` is an explicit weighted list (weight, map) describing
    the operator being approximated; the weights must lie in [0, 1] and
    sum to one.  For
    each function the average over ``maps`` and the sup-norm distance to
    the reference image are returned: for f(x) = a + b x both sides are
    a + b M(x), M the weighted sum of their maps.
    """
    if not maps:
        raise InputError("need at least one composition map")
    ref = [(as_fraction(w), m) for w, m in reference]
    if any(not 0 <= w <= 1 for w, _ in ref):
        raise InputError("reference weights must lie in [0, 1]")
    if sum((w for w, _ in ref), Fraction(0)) != 1:
        raise InputError("reference weights must sum to 1")
    mean = StageEntries(tuple(Counter(maps).items())).mean
    ref_offset, ref_slope = _average(ref)
    gap_offset, gap_slope = mean.offset - ref_offset, mean.slope - ref_slope
    return [
        (f.resample(mean), _sup(f.slope * gap_offset, f.slope * gap_slope))
        for f in functions
    ]


# ---------------------------------------------------------------------------
# Stage gaps and their series


def induced_gap(table: SequenceTable, n: int) -> Fraction:
    """Norm gap 2 k(n+1)/l(n+1) between two stage maps agreeing in d entries."""
    if not 0 <= n < table.horizon:
        raise InputError(f"stage {n} -> {n + 1} outside horizon {table.horizon}")
    return Fraction(2 * table.k[n + 1], table.l[n + 1])


@dataclass(frozen=True)
class GapSeries:
    """The stage-gap series sum_{n>=0} 2 k(n+1)/l(n+1), enclosed by the
    table's constants: it is 2 (omega + omega'), so its horizon partial
    sum is at least ``partial_sum`` and its total at most ``total_bound``
    (None without a tail majorant)."""

    partial_sum: Fraction
    total_bound: Optional[Fraction]
    horizon_limited: bool
    checks: tuple

    _report_keys = {"summable_certified": attrgetter("summable")}

    @property
    def summable(self) -> bool:
        return self.total_bound is not None


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
    omega_p, omega_q = table.omega.numerator, table.omega.denominator

    def doubled_sum(bound: Fraction) -> Fraction:
        """2 (omega + bound), summed over the product of the denominators."""
        bound_q = bound.denominator
        return Fraction(2 * (omega_p * bound_q + bound.numerator * omega_q), omega_q * bound_q)

    partial = doubled_sum(w.omega_prime_partial)
    if table.horizon_limited:
        return GapSeries(partial, None, True, ())
    total = doubled_sum(w.omega_prime_ub)
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


# ---------------------------------------------------------------------------
# Diagonal systems on the interval and the finite intertwining ladder


@dataclass(frozen=True)
class StageEntries:
    """One stage of a diagonal system: entry maps with multiplicities.

    ``mean`` is the mean entry map, and ``mean_ints`` the same map as the
    integer triple (offset_num, slope_num, q): its offset and slope over
    their least common denominator q, the form the ladder runs on."""

    entries: tuple  # ((map, multiplicity), ...)

    def __post_init__(self):
        if not self.entries:
            raise InputError("a stage needs at least one entry")
        for m, c in self.entries:
            if not is_integer(c) or c < 1:
                raise InputError(f"entry multiplicity must be a positive integer, got {c}")
            if not isinstance(m, PiecewiseLinearMap):
                raise InputError("entries must be piecewise-linear interval maps")
        total = sum(c for _, c in self.entries)
        object.__setattr__(self, "total", total)
        # the mean entry: a convex combination of self-maps of [0, 1]
        mean = PiecewiseLinearMap(*_average((Fraction(c, total), m) for m, c in self.entries))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "mean_ints", _over_lcm(mean.offset, mean.slope))

    def push(self, f: GridFunction) -> GridFunction:
        """(1/l) sum over entries of f o entry, which is f composed with the
        mean entry: positive, unital (a constant f comes back as is),
        contractive."""
        return f if f.is_constant else f.resample(self.mean)


def agreement_prefix(a: StageEntries, b: StageEntries) -> int:
    """Number of leading entry positions (counted with multiplicity) that agree.

    Walks both runs of entries at once; two maps agree when they are one
    object or have equal offsets and slopes, read as numerator/denominator
    pairs."""
    entries_a, entries_b = a.entries, b.entries
    agreed = ia = ib = end_a = end_b = 0
    while True:
        if end_a == agreed:  # the current run of a ends here: step to the next
            if ia == len(entries_a):
                return agreed
            map_a, count = entries_a[ia]
            ia, end_a = ia + 1, end_a + count
        if end_b == agreed:
            if ib == len(entries_b):
                return agreed
            map_b, count = entries_b[ib]
            ib, end_b = ib + 1, end_b + count
        if map_a is not map_b and _map_key(map_a) != _map_key(map_b):
            return agreed
        agreed = min(end_a, end_b)


def _map_key(m: PiecewiseLinearMap) -> tuple:
    """m's value as integers: its offset and slope are reduced fractions."""
    return (m.offset.numerator, m.offset.denominator,
            m.slope.numerator, m.slope.denominator)


@dataclass(frozen=True)
class IntertwiningResult:
    start_stage: int
    horizon: int
    step_distances: tuple
    step_bounds: tuple
    #: (w_H, the steps w_n - w_(n+1) for n = start..H-1), the rung and the
    #: steps at stage H as integer triples (o, s, q), the line (o + s x)/q
    ladder: tuple = field(repr=False)

    @cached_property
    def functions(self) -> tuple:
        """w_n for n = start..horizon at stage ``horizon``, summed on first read."""
        top, steps = self.ladder
        lines = (
            GridFunction(Fraction(o, q), Fraction(s, q)) for o, s, q in (top, *reversed(steps))
        )
        return tuple(accumulate(lines, GridFunction.add))[::-1]


def simulate_intertwining(
    system_a: Sequence[StageEntries],
    system_b: Sequence[StageEntries],
    v: GridFunction,
    m: int,
    horizon: int,
) -> IntertwiningResult:
    """Finite ladder between two systems agreeing in their leading entries.

    w_n pushes v from stage m to n under the first system (u_n) and on to
    the final stage H under the second.  Pushes are exactly linear, so
    the ladder telescopes from w_H = u_H down:

        w_n = w_(n+1) + Q_(n+1) (B_n u_n - u_(n+1)),

    where B_n is stage n of the second system and Q_(n+1) pushes from
    stage n + 1 to H under it; the pushed difference is the step, and its
    sup norm the step distance.  Every push composes with a stage's mean
    entry, so the ladder is an affine recurrence.  It runs on integers:
    u_n and each step are lines (o + s x)/q, held as unreduced triples
    (o, s, q) and advanced with each stage's ``mean_ints``, and each
    bound is decided by cross-multiplication.  A ``Fraction`` is built
    once per reported distance and bound.  A constant difference (the
    systems differ only in point evaluations) passes through Q_(n+1)
    unchanged and is not pushed, so the synthetic ladder costs one stage
    difference per stage.  The rungs w_n are summed from the steps when
    ``functions`` is first read.

    Consecutive ladder elements differ only through the stage-n
    disagreement, so their sup distance is at most 2 (disagreeing
    entries)/l(n+1) (times the norm of v).  A violated bound raises
    ConsistencyError, since it cannot happen unless the inputs break the
    stated preconditions; a returned result therefore has every step
    within its bound.
    """
    _require_integer("start", m)
    _require_integer("horizon", horizon)
    if not 0 <= m <= horizon:
        raise InputError(f"need 0 <= start {m} <= horizon {horizon}")
    if horizon > len(system_a) or horizon > len(system_b):
        raise InputError("systems do not reach the requested horizon")
    # u_n = (offset + slope x)/denom runs from u_m = v.  With stage n's mean entries
    # (o_A + s_A x)/q_A and (o_B + s_B x)/q_B, u_(n+1) is
    # (offset q_A + slope o_A + slope s_A x)/(denom q_A), and B_n u_n - u_(n+1) is
    # slope/denom times the mean entries' difference: a map both hold cancels.
    offset, slope, denom = _over_lcm(v.offset, v.slope)
    # the bounds' factor max(1, sup |v|), as scale_num/scale_den
    scale_num, scale_den = _sup(offset, slope), denom
    if scale_num <= scale_den:
        scale_num = scale_den = 1
    steps, distances, bounds = [], [], []
    for n in range(m, horizon):
        a, b = system_a[n], system_b[n]
        total = a.total
        if total != b.total:
            raise InputError(f"stage {n} multiplicity mismatch: {total} != {b.total}")
        a_offset, a_slope, a_q = a.mean_ints
        b_offset, b_slope, b_q = b.mean_ints
        q = lcm(a_q, b_q)
        to_a, to_b = q // a_q, q // b_q
        step_offset = slope * (b_offset * to_b - a_offset * to_a)
        step_slope = slope * (b_slope * to_b - a_slope * to_a)
        step_denom = denom * q
        for j in range(n + 1, horizon):
            if not step_slope:  # a constant: every later push returns it unchanged
                break
            later_offset, later_slope, later_q = system_b[j].mean_ints
            step_offset = step_offset * later_q + step_slope * later_offset
            step_slope *= later_slope
            step_denom *= later_q
        offset, slope, denom = offset * a_q + slope * a_offset, slope * a_slope, denom * a_q
        dist = _sup(step_offset, step_slope)
        # the bound 2 (disagreeing entries)/total times the scale
        bound_num = 2 * (total - agreement_prefix(a, b)) * scale_num
        bound_den = total * scale_den
        if dist * bound_den > bound_num * step_denom:
            raise ConsistencyError(
                f"step {n}: distance {Fraction(dist, step_denom)} exceeds bound "
                f"{Fraction(bound_num, bound_den)}"
            )
        steps.append((step_offset, step_slope, step_denom))
        distances.append(Fraction(dist, step_denom))
        bounds.append(Fraction(bound_num, bound_den))
    return IntertwiningResult(
        start_stage=m,
        horizon=horizon,
        step_distances=tuple(distances),
        step_bounds=tuple(bounds),
        ladder=((offset, slope, denom), tuple(steps)),
    )


def synthetic_system_pair(
    table: SequenceTable, stages: int
) -> Tuple[List[StageEntries], List[StageEntries]]:
    """A synthetic pair of interval systems matching the family's counts.

    Synthetic stand-in for unspecified stage maps: each stage uses
    d(n+1) copies of a dyadic contraction (shared by both systems) and
    k(n+1) point evaluations, at different points in the two systems, so
    the pair agrees in exactly the leading d(n+1) entries.  Intended for
    demonstrations and bound checks, not as data about any particular
    system.
    """
    if stages > table.horizon:
        raise InputError(f"table horizon {table.horizon} < requested stages {stages}")
    pairs = [_synthetic_stage(n, table.d[n + 1], table.k[n + 1]) for n in range(stages)]
    return [a for a, _ in pairs], [b for _, b in pairs]


@lru_cache(maxsize=1024)  # bounded: explicit tables may bring any d and k
def _synthetic_stage(n: int, d: int, k: int) -> tuple:
    """Stage n of both synthetic systems: frozen, and fixed by n, d(n+1), k(n+1)."""
    shared, point_a, point_b = _stage_maps(n)
    entries_a = [(shared, d)] if d else []
    entries_b = list(entries_a)
    if k:
        entries_a.append((point_a, k))
        entries_b.append((point_b, k))
    return StageEntries(tuple(entries_a)), StageEntries(tuple(entries_b))


@cache
def _stage_maps(n: int) -> tuple:
    """Stage n's synthetic maps, which depend on n alone: the contraction
    toward vdc(3n) and the point evaluations at vdc(3n + 1) and vdc(3n + 2).
    Built on first use and kept for the process."""
    return (
        contraction_map(_radical_inverse(3 * n, 2)),
        constant_map(_radical_inverse(3 * n + 1, 2)),
        constant_map(_radical_inverse(3 * n + 2, 2)),
    )


# ---------------------------------------------------------------------------
# The flip


@dataclass(frozen=True)
class FlipReport:
    checks: tuple


def flip_compatibility(table: SequenceTable) -> FlipReport:
    """Verify that the order-two flip exchanges the two corner classes.

    At stage 0 the distinguished corner has class (1, 0), whose swap
    (0, 1) is the complement's rank vector (t(0), r(0) - t(0)).  The
    inductive step covers every later stage: if [q_n] = (r - t, t), its
    push through ((d, k), (k, d)) is (d (r - t) + k t, k (r - t) + d t),
    and the t recursion gives k (r - t) + d t = t(n+1) and
    (d + k) r - t(n+1) = r(n+1) - t(n+1), so [q_(n+1)] = (r - t, t) at
    n + 1 and its swap is again the complement's ranks.  The step is
    recorded on the first connecting matrix, through the same
    ``push_k0`` as every other stage.  The flip's other properties hold by
    construction: the swap is an involution fixing the order unit
    (1, 1), and it commutes with every connecting matrix, since
    ``connecting_matrix`` builds the symmetric ((d, k), (k, d)).  A
    failing check is a bug, raised as ConsistencyError.
    """
    q0 = K0Class(0, 1, 0)
    perp0 = q_perp_ranks(table, 0)
    q1 = push_k0(table, q0)
    r1, _, t1 = table.stage(1)
    step = (
        "[q_n] = (r(n) - t(n), t(n)) for every n: "
        "k(r - t) + d t = t(n+1) and (d + k) r - t(n+1) = r(n+1) - t(n+1), "
        "recorded at n = 0"
    )
    checks = (
        check("flip of [q_0] equals [complement_0] (x)", q0.swapped().x, "==",
              perp0.x_rank),
        check("flip of [q_0] equals [complement_0] (y)", q0.swapped().y, "==",
              perp0.y_rank),
        check(f"{step} (x)", q1.x, "==", r1 - t1),
        check(f"{step} (y)", q1.y, "==", t1),
    )
    failed = [c.name for c in checks if not c.holds]
    if failed:
        raise ConsistencyError(f"flip checks failed: {failed}")
    return FlipReport(checks=checks)


# ---------------------------------------------------------------------------
# Density of evaluation points


def density_check(points: Sequence, n: int, epsilon) -> bool:
    """True iff every width-epsilon window in [0, 1] meets {y_k : k >= n}.

    Equivalent gap criterion: the first point is within epsilon of 0,
    the last within epsilon of 1, and consecutive points (sorted) are at
    most epsilon apart.  Points are sorted by their first 64 bits, ties
    by their exact value, and every comparison cross-multiplies integers.
    """
    _require_integer("start index", n)
    epsilon = as_fraction(epsilon)
    if epsilon <= 0:
        raise InputError(f"epsilon must be positive, got {shown(epsilon)}")
    if n < 0:
        raise InputError(f"start index must be >= 0, got {n}")
    pts = [as_fraction(p) for p in points]
    for p in pts:
        if not 0 <= p.numerator <= p.denominator:
            raise InputError(f"point {shown(p)} outside [0, 1]")
    tail = sorted(pts[n:], key=lambda p: ((p.numerator << 64) // p.denominator, p))
    if not tail:
        return False
    e, f = epsilon.numerator, epsilon.denominator
    first, last = tail[0], tail[-1]
    if first.numerator * f > e * first.denominator:
        return False
    if (last.denominator - last.numerator) * f > e * last.denominator:
        return False
    return all(
        (b.numerator * a.denominator - a.numerator * b.denominator) * f
        <= e * a.denominator * b.denominator
        for a, b in zip(tail, tail[1:])
    )
