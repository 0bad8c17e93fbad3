"""Desk-scale simulation of the trace-space machinery on [0, 1].

Functions live on a uniform grid over [0, 1] and their samples are exact
rationals, stored as knots: the samples at a few grid indices, with every
other sample on the segment between its neighbouring knots.  Pushing a
function through one stage of a diagonal system averages its compositions
with the stage's entry maps (piecewise-linear self-maps of the interval,
or point evaluations).  Each map holds its pieces as integer affine forms,
built once from its breakpoints and scaled once per grid resolution, and
one fused pass samples every composition of a push only where it can
bend, on integers, with one fraction per output knot: the cost follows
the number of knots, not the grid size.  The pass takes its rows as
integer multiplicities over one row denominator, (l, [(c, g, m), ...])
for (1/l) sum c (g o m), so a stage push is its entries' multiplicities
over their total and no weight is a fraction; callers with rational
weights bring them to one denominator first.  The quantities being
checked (per-step gaps, rounding errors) are exact rationals, all sup
norms are grid sup norms, and every comparison against a stage-gap bound
is a theorem about the grid functions.

A push is linear and unital on grid functions, so the intertwining
ladder telescopes: each rung is the next one plus the pushed stage
difference, a constant difference passes through every later stage
unchanged, and the rungs are summed only when read.  The synthetic
systems' stage-n maps depend on n alone, so they are built on first use
and shared by every later pair in the process.

The stage-gap series and the flip need no stage-by-stage loop: the
series is enclosed by the table's constants, and the flip by its stage-0
check plus the inductive step that the t recursion gives, so each is a
fixed number of checks at every horizon.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import accumulate
from math import ceil, gcd, lcm
from operator import attrgetter, itemgetter
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import ConsistencyError, InputError
from .params import SequenceTable, check
from .ranks import K0Class, push_k0, q_perp_ranks
from .rationals import as_fraction, shown

#: The most ladder stages ``trace-sim`` runs.  The synthetic ladder
#: telescopes into one fused pass per stage (``simulate_intertwining``),
#: but its samples carry denominators of order stages^2 bits, about 4100
#: bits at this cap for N = 6, so each pass gets dearer as the stage count
#: grows.  At this cap a cold run takes about as long as ``certify`` at
#: ``pipeline.MAX_HORIZON``, most of it interpreter start-up and imports.
MAX_STAGES = 56

#: The most points ``density --van-der-corput`` generates.  Every point is
#: a ``Fraction`` (about 140 bytes) that ``density_check`` sorts on an
#: integer key; a cold run at this cap takes about 0.3 s, a few times
#: ``certify`` at ``pipeline.MAX_HORIZON``.
MAX_POINTS = 2 ** 15


# ---------------------------------------------------------------------------
# Interval maps


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A piecewise-linear self-map of [0, 1] given by its breakpoints.

    Each piece is also kept as an integer affine form in grid units: at
    resolution G it sends grid index i to grid position (a i + G e)/c,
    with integers a, e and c > 0 set by the breakpoints alone.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((as_fraction(x), as_fraction(y)) for x, y in self.breakpoints)
        if len(pts) < 2:
            raise InputError("need at least two breakpoints")
        ints = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in pts]
        if ints[0][0] != 0 or ints[-1][0] != ints[-1][1]:
            raise InputError("breakpoints must span [0, 1]")
        forms = []
        for (p0, q0, r0, t0), (p1, q1, r1, t1) in zip(ints, ints[1:]):
            run = p1 * q0 - p0 * q1  # (x1 - x0) q0 q1
            if run <= 0:
                raise InputError("breakpoint abscissae must be strictly increasing")
            rise = r1 * t0 - r0 * t1  # (y1 - y0) t0 t1
            a, e, c = rise * q0 * q1, r0 * t1 * run - rise * q1 * p0, t0 * t1 * run
            g = gcd(a, e, c)
            forms.append((a // g, e // g, c // g, p0, q0, r0, t0, r1, t1))
        if any(not 0 <= r <= t for _, _, r, t in ints):
            raise InputError("map leaves [0, 1]")
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "_forms", tuple(forms))
        object.__setattr__(self, "_by_resolution", {})

    def _pieces(self, G: int) -> tuple:
        """The pieces at resolution G: the first grid index of each, and each
        as (a, G e, c, floor and ceiling of its start G x0, and its image
        range in grid units rounded outward).  The map is immutable, so
        each resolution's pieces are built once."""
        known = self._by_resolution.get(G)
        if known is None:
            pieces = tuple(
                (a, G * e, c, G * p0 // q0, -(-G * p0 // q0),
                 min(G * r0 // t0, G * r1 // t1), max(-(-G * r0 // t0), -(-G * r1 // t1)))
                for a, e, c, p0, q0, r0, t0, r1, t1 in self._forms
            )
            known = self._by_resolution[G] = (tuple(piece[4] for piece in pieces), pieces)
        return known

    def __call__(self, x: Fraction) -> Fraction:
        if not 0 <= x <= 1:
            raise InputError(f"argument {x} outside [0, 1]")
        pts = self.breakpoints
        i = bisect.bisect_right(pts, x, key=itemgetter(0)) - 1
        if i == len(pts) - 1:
            return pts[-1][1]
        (x0, y0), (x1, y1) = pts[i], pts[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


_ZERO, _HALF, _ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def identity_map() -> PiecewiseLinearMap:
    return PiecewiseLinearMap(((_ZERO, _ZERO), (_ONE, _ONE)))


_IDENTITY = identity_map()


def constant_map(c) -> PiecewiseLinearMap:
    c = as_fraction(c)
    return PiecewiseLinearMap(((_ZERO, c), (_ONE, c)))


def contraction_map(center, factor=_HALF) -> PiecewiseLinearMap:
    """x -> center + factor (x - center): contraction toward a point."""
    center = as_fraction(center)
    factor = as_fraction(factor)
    if not 0 <= factor < 1:
        raise InputError(f"contraction factor must be in [0, 1), got {factor}")
    p, q, r, s = center.numerator, center.denominator, factor.numerator, factor.denominator
    # center (1 - factor) and center (1 - factor) + factor, over q s
    return PiecewiseLinearMap(
        ((_ZERO, Fraction(p * (s - r), q * s)), (_ONE, Fraction(p * (s - r) + r * q, q * s)))
    )


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
    if base < 2:
        raise InputError(f"base must be >= 2, got {base}")
    if count < 0:
        raise InputError(f"point count must be >= 0, got {count}")
    return [_radical_inverse(i, base) for i in range(count)]


# ---------------------------------------------------------------------------
# Grid functions


@dataclass(frozen=True)
class GridFunction:
    """An exact function on the uniform grid {i/G : 0 <= i <= G}, as knots.

    ``knots`` is ((i, value), ...) with integer indices running strictly
    upward from 0 to G = ``resolution``; the sample at any index not
    listed lies on the segment between its neighbouring knots.  Knots
    collinear with their neighbours are dropped on construction, so the
    knot list is the shortest one for the samples and equal functions
    compare equal.  Every operation costs time in the number of knots,
    not in G; ``values`` expands the G + 1 samples.
    """

    resolution: int
    knots: tuple

    def __post_init__(self):
        if not isinstance(self.resolution, int) or self.resolution < 1:
            raise InputError(
                f"resolution must be an integer >= 1, got {self.resolution}"
            )
        knots = tuple((i, as_fraction(v)) for i, v in self.knots)
        idx = [i for i, _ in knots]
        if not idx or idx[0] != 0 or idx[-1] != self.resolution:
            raise InputError(f"knots must run from index 0 to {self.resolution}")
        if any(not isinstance(i, int) for i in idx) or any(
            b <= a for a, b in zip(idx, idx[1:])
        ):
            raise InputError("knot indices must be strictly increasing integers")
        self._settle(knots)

    @classmethod
    def from_callable(cls, fn: Callable, resolution: int):
        return cls(
            resolution,
            tuple((i, fn(Fraction(i, resolution))) for i in range(resolution + 1)),
        )

    @classmethod
    def constant(cls, value, resolution: int):
        return cls(resolution, ((0, value), (resolution, value)))

    @classmethod
    def _from_valid_knots(cls, resolution: int, knots: tuple) -> "GridFunction":
        """Build from knots already in form (Fraction values, indices
        strictly increasing from 0 to ``resolution``), compressing only."""
        f = object.__new__(cls)
        object.__setattr__(f, "resolution", resolution)
        f._settle(knots)
        return f

    def _settle(self, knots: tuple) -> None:
        """Store the compressed knots and, once, their index list."""
        knots = _compress(knots)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "_indices", [i for i, _ in knots])

    @property
    def is_constant(self) -> bool:
        """A constant function compresses to its two end knots."""
        knots = self.knots
        return len(knots) == 2 and knots[0][1] == knots[1][1]

    @property
    def values(self) -> tuple:
        """All G + 1 samples, expanded from the knots."""
        return tuple(self._sample(i) for i in range(self.resolution + 1))

    def _sample(self, pos) -> Fraction:
        """Value at grid position pos in [0, G], linear between knots."""
        knots = self.knots
        j = bisect.bisect_left(knots, pos, key=itemgetter(0))
        i1, v1 = knots[j]
        if i1 == pos:
            return v1
        i0, v0 = knots[j - 1]
        p0, q0, p1, q1 = v0.numerator, v0.denominator, v1.numerator, v1.denominator
        n, c = pos.numerator, pos.denominator  # pos = n / c
        return Fraction(
            p0 * q1 * (i1 * c - n) + p1 * q0 * (n - i0 * c), q0 * q1 * c * (i1 - i0)
        )

    def interpolate(self, x) -> Fraction:
        """Value at x, linear between adjacent samples."""
        x = as_fraction(x)
        if not 0 <= x <= 1:
            raise InputError(f"argument {x} outside [0, 1]")
        return self._sample(x * self.resolution)

    def resample(self, m: PiecewiseLinearMap) -> "GridFunction":
        """Grid samples of self composed with m: a one-term ``_combine``."""
        return _combine([(1, [(1, self, m)])])[0]

    def sup_norm(self) -> Fraction:
        """The grid sup: every other sample lies between two knot values."""
        return max(abs(v) for _, v in self.knots)

    def add(self, other: "GridFunction") -> "GridFunction":
        return _combine([(1, [(1, self, _IDENTITY), (1, other, _IDENTITY)])])[0]

    def sub(self, other: "GridFunction") -> "GridFunction":
        return _combine([(1, [(1, self, _IDENTITY), (-1, other, _IDENTITY)])])[0]

    def distance(self, other: "GridFunction") -> Fraction:
        return self.sub(other).sup_norm()


def _compress(knots: tuple) -> tuple:
    """Drop every knot collinear with its neighbours (exact cross-multiplication
    of the values' numerators and denominators).

    A dropped knot lies on the line from its left neighbour to the
    incoming knot, so the knots kept before it stay non-collinear with
    that line: one look back per knot suffices.
    """
    out = []
    for knot in knots:
        if len(out) >= 2:
            (i0, v0), (i1, v1) = out[-2], out[-1]
            i2, v2 = knot
            p0, q0 = v0.numerator, v0.denominator
            p1, q1 = v1.numerator, v1.denominator
            p2, q2 = v2.numerator, v2.denominator
            lhs = (p1 * q0 - p0 * q1) * q2 * (i2 - i1)
            if lhs == (p2 * q1 - p1 * q2) * q0 * (i1 - i0):
                out.pop()
        out.append(knot)
    return tuple(out)


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
    """Averages (1/N) sum f o g_j and their grid gap to a weighted reference.

    ``reference`` is an explicit weighted list (weight, map) describing
    the operator being approximated; the weights must sum to one.  For
    each function the average over ``maps`` and the sup-norm distance to
    the reference image are returned.
    """
    if not maps:
        raise InputError("need at least one composition map")
    ref = [(as_fraction(w), m) for w, m in reference]
    if sum((w for w, _ in ref), Fraction(0)) != 1:
        raise InputError("reference weights must sum to 1")
    averaged = [(Fraction(c, len(maps)), m) for m, c in Counter(maps).items()]
    rows = [_integer_row(averaged), _integer_row(averaged + [(-w, m) for w, m in ref])]
    out = []
    for f in functions:
        avg, gap = _combine([(l, [(c, f, m) for c, m in row]) for l, row in rows])
        out.append((avg, gap.sup_norm()))
    return out


def _integer_row(weighted_maps) -> tuple:
    """(l, [(c, m), ...]) with integer c over one denominator l, for
    (w, m) pairs with rational weights w = c/l."""
    l = lcm(*(w.denominator for w, _ in weighted_maps))
    return l, [(w.numerator * (l // w.denominator), m) for w, m in weighted_maps]


def _combine(rows) -> List[GridFunction]:
    """For each row (l, [(c, g, m), ...]) of integer multiplicities c over
    one row denominator l > 0, the grid function (1/l) sum of c (g o m).

    g o m is affine between consecutive candidates of ``_bends``, so each
    sum is sampled at the union of every term's candidates only, and a
    pair (g, m) met in several terms once.  At grid index i, m's piece
    gives the grid position (a i + G e)/c, and g's segment around it two
    small integer weights on its end knots.  A row sums the weights per
    segment, so each output sample costs one dot product with the knot
    values (over their least common denominator) and one fraction.
    """
    G = rows[0][1][0][1].resolution
    pairs = {}  # (id(g), id(m)) -> position in terms
    terms = []  # the distinct (g, m) pairs
    weights = []  # per row: l and the (position in terms, summed multiplicity) pairs
    for l, row in rows:
        summed = {}
        for c, g, m in row:
            if g.resolution != G:
                raise InputError("grid functions have incompatible resolutions")
            j = pairs.setdefault((id(g), id(m)), len(terms))
            if j == len(terms):
                terms.append((g, m))
            summed[j] = summed.get(j, 0) + c
        weights.append((l, [(j, c) for j, c in summed.items() if c]))

    grids = [m._pieces(G) for _, m in terms]
    bends = (_bends(pieces, g._indices) for (g, _), (_, pieces) in zip(terms, grids))
    candidates = sorted({0, G}.union(*bends))
    segments = {}  # (id(g), k) -> the values at knots k - 1 and k as (p0, p1, q)
    columns = []  # per pair and candidate: (segment, knot weights, denominator)
    for (g, _), (starts, pieces) in zip(terms, grids):
        idx = g._indices
        column = []
        for i in candidates:
            a, b, c = pieces[bisect.bisect_right(starts, i) - 1][:3]
            pos = a * i + b
            k = min(bisect.bisect_right(idx, pos // c), len(idx) - 1)
            i0, i1 = idx[k - 1], idx[k]
            key = (id(g), k)
            if key not in segments:
                (_, v0), (_, v1) = g.knots[k - 1 : k + 1]
                q = lcm(v0.denominator, v1.denominator)
                segments[key] = (v0.numerator * (q // v0.denominator),
                                 v1.numerator * (q // v1.denominator), q)
            column.append((key, i1 * c - pos, pos - i0 * c, c * (i1 - i0)))
        columns.append(column)

    out = []
    for l, row in weights:
        samples = []
        for t, i in enumerate(candidates):
            acc = {}
            for j, w in row:
                key, x0, x1, d = columns[j][t]
                if key in acc:
                    y0, y1, e = acc[key]
                    acc[key] = (y0 * d + w * x0 * e, y1 * d + w * x1 * e, e * d)
                else:
                    acc[key] = (w * x0, w * x1, d)
            num, den = 0, 1
            for key, (x0, x1, d) in acc.items():
                p0, p1, q = segments[key]
                d *= q
                num, den = num * d + (p0 * x0 + p1 * x1) * den, den * d
            samples.append((i, Fraction(num, den * l)))
        out.append(GridFunction._from_valid_knots(G, tuple(samples)))
    return out


def _bends(pieces, idx) -> list:
    """Grid indices around which g o m can bend, for m's pieces and g's knot
    indices idx: both grid neighbours of each piece's start and of each cut
    (c k - G e)/a where the piece crosses a knot k strictly inside its image."""
    out = []
    for a, b, c, floor, ceiling, lo, hi in pieces:
        out += (floor, ceiling)
        if a:
            sign = 1 if a > 0 else -1
            for k in idx[bisect.bisect_right(idx, lo):bisect.bisect_left(idx, hi)]:
                num, den = sign * (c * k - b), sign * a
                out += (num // den, -(-num // den))
    return out


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


# ---------------------------------------------------------------------------
# Diagonal systems on the interval and the finite intertwining ladder


@dataclass(frozen=True)
class StageEntries:
    """One stage of a diagonal system: entry maps with multiplicities."""

    entries: tuple  # ((map, multiplicity), ...)

    def __post_init__(self):
        if not self.entries:
            raise InputError("a stage needs at least one entry")
        for m, c in self.entries:
            if not isinstance(c, int) or c < 1:
                raise InputError(f"entry multiplicity must be a positive integer, got {c}")
            if not isinstance(m, PiecewiseLinearMap):
                raise InputError("entries must be piecewise-linear interval maps")
        # l, and the (multiplicity, map) pairs of a push row over it
        object.__setattr__(self, "total", sum(c for _, c in self.entries))
        object.__setattr__(self, "_terms", tuple((c, m) for m, c in self.entries))

    def push(self, f: GridFunction) -> GridFunction:
        """(1/l) sum over entries of f o entry: positive, unital, contractive.

        A unital average fixes constants, so a constant f comes back as is.
        """
        if f.is_constant:
            return f
        return _combine([(self.total, [(c, f, m) for c, m in self._terms])])[0]


def agreement_prefix(a: StageEntries, b: StageEntries) -> int:
    """Number of leading entry positions (counted with multiplicity) that agree."""
    agreed = 0
    ia = ib = 0
    rema = remb = 0
    ea = list(a.entries)
    eb = list(b.entries)
    while ia < len(ea) and ib < len(eb):
        if rema == 0:
            map_a, rema = ea[ia]
        if remb == 0:
            map_b, remb = eb[ib]
        if map_a is not map_b and map_a != map_b:
            break
        step = min(rema, remb)
        agreed += step
        rema -= step
        remb -= step
        if rema == 0:
            ia += 1
        if remb == 0:
            ib += 1
    return agreed


@dataclass(frozen=True)
class IntertwiningResult:
    start_stage: int
    horizon: int
    step_distances: tuple
    step_bounds: tuple
    #: (w_H, the steps w_n - w_(n+1) for n = start..H-1), all at stage H
    ladder: tuple = field(repr=False)

    @cached_property
    def functions(self) -> tuple:
        """w_n for n = start..horizon at stage ``horizon``, summed on first read."""
        top, steps = self.ladder
        return tuple(accumulate(reversed(steps), GridFunction.add, initial=top))[::-1]


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
    stage n + 1 to H under it.  The pushed difference is the step, so its
    sup norm is the step distance.  A constant difference (the systems
    differ only in point evaluations) passes through Q_(n+1) unchanged,
    so it is not pushed, which makes the synthetic ladder cost one fused
    pass and one constancy test per stage; a
    general pair costs no more pushes than the direct definition.  The
    rungs w_n are summed from the steps when ``functions`` is first read.

    Consecutive ladder elements differ only through the stage-n
    disagreement, so their grid distance is at most 2 (disagreeing
    entries)/l(n+1) (times the norm of v).  A violated bound raises
    ConsistencyError, since it cannot happen unless the inputs break the
    stated preconditions; a returned result therefore has every step
    within its bound.
    """
    if not 0 <= m <= horizon:
        raise InputError(f"need 0 <= start {m} <= horizon {horizon}")
    if horizon > len(system_a) or horizon > len(system_b):
        raise InputError("systems do not reach the requested horizon")
    deltas = []
    for n in range(m, horizon):
        a, b = system_a[n], system_b[n]
        if a.total != b.total:
            raise InputError(
                f"stage {n} multiplicity mismatch: {a.total} != {b.total}"
            )
        deltas.append(Fraction(2 * (a.total - agreement_prefix(a, b)), a.total))

    # u runs through u_n, from u_m = v.  One pass over stage n's maps gives
    # u_(n+1) = A_n u_n and the difference B_n u_n - u_(n+1), from which a
    # map held by both stages cancels.
    # steps[n - m] = w_n - w_(n+1) = Q_(n+1) (B_n u_n - u_(n+1)).
    u = v
    steps = []
    for n in range(m, horizon):
        a, b = system_a[n], system_b[n]
        pushed = [(c, u, g) for c, g in a._terms]
        difference = [(c, u, g) for c, g in b._terms] + [(-c, u, g) for c, g in a._terms]
        u, step = _combine([(a.total, pushed), (a.total, difference)])
        for j in range(n + 1, horizon):
            if step.is_constant:  # every later push returns it unchanged
                break
            step = system_b[j].push(step)
        steps.append(step)

    scale = max(Fraction(1), v.sup_norm())
    distances = []
    bounds = []
    for i, (step, delta) in enumerate(zip(steps, deltas)):
        dist = step.sup_norm()
        bound = delta * scale
        if dist > bound:
            raise ConsistencyError(
                f"step {m + i}: distance {dist} exceeds bound {bound}"
            )
        distances.append(dist)
        bounds.append(bound)
    return IntertwiningResult(
        start_stage=m,
        horizon=horizon,
        step_distances=tuple(distances),
        step_bounds=tuple(bounds),
        ladder=(u, tuple(steps)),
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
