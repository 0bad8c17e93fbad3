"""Rank bookkeeping along the merged diagonal system.

Each stage of the system carries a pair of contractible components, so
the rank vector (x, y) of a projection determines its K0 class.  The
stage n -> n+1 connecting map of the merged system acts on rank vectors
by the matrix

    [[ d(n+1), k(n+1) ],
     [ k(n+1), d(n+1) ]]

(d coordinate-projection summands stay in their component, k point
evaluations cross over), while the split system acts by l(n+1) times the
identity.  The module also tracks the shape of the distinguished Bott
element and evaluates the rank threshold below which a trivial
projection cannot approximately dominate it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError, InputError
from .params import SequenceTable

MERGED = "merged"
SPLIT = "split"

ENTRY_COORD_PROJECTION = "coord_projection"
ENTRY_POINT_EVAL_X = "point_eval_x"
ENTRY_POINT_EVAL_Y = "point_eval_y"
ENTRY_INTERVAL_MAP = "interval_map"
ENTRY_OPAQUE_X_TO_X = "opaque_x_to_x"
ENTRY_OPAQUE_Y_TO_Y = "opaque_y_to_y"

#: The most entries ``stage_layout`` lists in one target.  A layout holds
#: one entry object per summand, d(n+1) + k(n+1) per target, and in the
#: geometric family that count grows N-fold per stage, so a layout past
#: the cap is refused before any entry is built.
MAX_LAYOUT_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class K0Class:
    """Rank vector (x, y) of a K0 class at a stage."""

    stage: int
    x: int
    y: int

    def swapped(self) -> "K0Class":
        return K0Class(self.stage, self.y, self.x)


@dataclass(frozen=True)
class RankState:
    """Componentwise ranks of a projection at a stage, with ambient size."""

    stage: int
    x_rank: int
    y_rank: int
    ambient: int


@dataclass(frozen=True)
class BottShape:
    """Shape of the pushed Bott element at a stage.

    The distinguished part over the product-of-spheres skeleton has rank
    exactly s(n); the remaining summands are constant projections whose
    ranks are tracked as upper bounds (point evaluations at cone points
    may only shrink them).
    """

    stage: int
    bott_rank: int
    x_const_rank_ub: int
    y_const_rank_ub: int


@dataclass(frozen=True)
class MapEntry:
    kind: str
    index: int | None = None


@dataclass(frozen=True)
class StageMapLayout:
    """Tagged summand layout of the stage n -> n+1 diagonal map."""

    stage: int
    system: str
    x_target: tuple
    y_target: tuple


def connecting_matrix(table: SequenceTable, n: int, system: str = MERGED):
    """2x2 matrix acting on rank vectors across stage n -> n+1."""
    if n < 0 or n + 1 > table.horizon:
        raise InputError(f"stage {n} -> {n + 1} is outside horizon {table.horizon}")
    d, k = table.d[n + 1], table.k[n + 1]
    if system == MERGED:
        return ((d, k), (k, d))
    if system == SPLIT:
        return ((d + k, 0), (0, d + k))
    raise InputError(f"unknown system {system!r}")


def push_k0(table: SequenceTable, cls: K0Class, system: str = MERGED) -> K0Class:
    """Apply the stage connecting matrix to a rank vector."""
    if cls.x < 0 or cls.y < 0:
        raise InputError(f"rank vector must be nonnegative, got ({cls.x}, {cls.y})")
    (a, b), (c, d) = connecting_matrix(table, cls.stage, system)
    return K0Class(cls.stage + 1, a * cls.x + b * cls.y, c * cls.x + d * cls.y)


def q_class(table: SequenceTable, n: int) -> K0Class:
    """K0 class of the stage-n image of the (1, 0) corner projection."""
    cls = K0Class(0, 1, 0)
    for _ in range(n):
        cls = push_k0(table, cls)
    return cls


def q_perp_ranks(table: SequenceTable, n: int) -> RankState:
    """Componentwise ranks (t(n), r(n) - t(n)) of the complementary corner."""
    r, _, t = table.stage(n)
    return RankState(stage=n, x_rank=t, y_rank=r - t, ambient=r)


def q_ranks(table: SequenceTable, n: int) -> RankState:
    r, _, t = table.stage(n)
    return RankState(stage=n, x_rank=r - t, y_rank=t, ambient=r)


def initial_bott_shape() -> BottShape:
    return BottShape(stage=0, bott_rank=1, x_const_rank_ub=0, y_const_rank_ub=0)


def push_bott(shape: BottShape, table: SequenceTable) -> BottShape:
    """One-stage update of the Bott element's shape.

    The d coordinate projections replicate the distinguished part into
    rank s(n+1); constants propagate by multiplicity; the k crossing
    evaluations turn the distinguished part into a constant on the other
    side.  Both closed-form identities

        d(n+1)(r - s - t) + k(n+1) t            = r' - s' - t'
        k(n+1) s + k(n+1)(r - s - t) + d(n+1) t = t'

    are asserted against the table on every call (a failure would mean
    the sequence recursion itself is corrupted).
    """
    n = shape.stage
    if n + 1 > table.horizon:
        raise InputError(f"stage {n} is the last tabulated stage")
    d, k = table.d[n + 1], table.k[n + 1]
    r, s, t = table.stage(n)
    r1, s1, t1 = table.stage(n + 1)

    if d * (r - s - t) + k * t != r1 - s1 - t1:
        raise ConsistencyError(f"x-constant identity fails at stage {n}")
    if k * s + k * (r - s - t) + d * t != t1:
        raise ConsistencyError(f"y-constant identity fails at stage {n}")

    return BottShape(
        stage=n + 1,
        bott_rank=d * shape.bott_rank,
        x_const_rank_ub=d * shape.x_const_rank_ub + k * shape.y_const_rank_ub,
        y_const_rank_ub=k * shape.bott_rank
        + k * shape.x_const_rank_ub
        + d * shape.y_const_rank_ub,
    )


def cuntz_threshold(table: SequenceTable, n: int) -> int:
    """Minimal rank 2 s(n) a trivial projection needs to dominate the Bott part.

    Any stage-n trivial projection of smaller rank is obstructed: the
    distinguished sub-bundle of the Bott element does not embed in a
    trivial bundle of rank below twice its own (see the cohomology-ring
    module for the obstruction itself).
    """
    return 2 * table.stage(n).s


def stage_layout(table: SequenceTable, n: int, system: str = MERGED) -> StageMapLayout:
    """Tagged summand layout of the stage n -> n+1 map.

    Merged system: the X target receives d(n+1) coordinate projections
    followed by k(n+1) evaluations at a point of the interval side; the
    Y target receives d(n+1) opaque interval maps followed by k(n+1)
    evaluations at a point of the X side.  Split system: the crossing
    entries are replaced by same-side entries left unspecified.  A stage
    with more than ``MAX_LAYOUT_ENTRIES`` summands is refused.
    """
    if n < 0 or n + 1 > table.horizon:
        raise InputError(f"stage {n} -> {n + 1} is outside horizon {table.horizon}")
    d, k = table.d[n + 1], table.k[n + 1]
    if d + k > MAX_LAYOUT_ENTRIES:
        raise InputError(
            f"stage {n} -> {n + 1} layout has {d + k} entries per target, "
            f"above the cap {MAX_LAYOUT_ENTRIES}"
        )
    coord = tuple(MapEntry(ENTRY_COORD_PROJECTION, j) for j in range(1, d + 1))
    interval = tuple(MapEntry(ENTRY_INTERVAL_MAP, j) for j in range(1, d + 1))
    if system == MERGED:
        x_target = coord + tuple(MapEntry(ENTRY_POINT_EVAL_Y) for _ in range(k))
        y_target = interval + tuple(MapEntry(ENTRY_POINT_EVAL_X) for _ in range(k))
    elif system == SPLIT:
        x_target = coord + tuple(MapEntry(ENTRY_OPAQUE_X_TO_X) for _ in range(k))
        y_target = interval + tuple(MapEntry(ENTRY_OPAQUE_Y_TO_Y) for _ in range(k))
    else:
        raise InputError(f"unknown system {system!r}")
    return StageMapLayout(stage=n, system=system, x_target=x_target, y_target=y_target)
