import pytest

from ahcert.errors import InputError
from ahcert.params import make_explicit_family, make_geometric_family, sequences
from ahcert.ranks import (
    ENTRY_COORD_PROJECTION,
    ENTRY_INTERVAL_MAP,
    ENTRY_OPAQUE_X_TO_X,
    ENTRY_OPAQUE_Y_TO_Y,
    ENTRY_POINT_EVAL_X,
    ENTRY_POINT_EVAL_Y,
    MAX_LAYOUT_ENTRIES,
    MERGED,
    SPLIT,
    K0Class,
    connecting_matrix,
    cuntz_threshold,
    initial_bott_shape,
    push_bott,
    push_k0,
    q_class,
    q_perp_ranks,
    q_ranks,
    stage_layout,
)


@pytest.fixture(scope="module")
def table():
    return sequences(make_geometric_family(6), 40)


def test_push_k0_merged_first_steps(table):
    c0 = K0Class(0, 1, 0)
    c1 = push_k0(table, c0)
    assert (c1.x, c1.y) == (6, 1)
    c2 = push_k0(table, c1)
    assert (c2.x, c2.y) == (217, 42)


def test_push_k0_split_is_diagonal(table):
    cls = K0Class(3, 5, 9)
    out = push_k0(table, cls, system=SPLIT)
    l4 = table.l[4]
    assert (out.x, out.y) == (5 * l4, 9 * l4)


def test_push_k0_rejects_negative(table):
    with pytest.raises(InputError):
        push_k0(table, K0Class(0, -1, 0))


def test_k0_flow_rederives_t(table):
    cls = K0Class(0, 1, 0)
    for n in range(41):
        assert cls.x == table.r[n] - table.t[n]
        assert cls.y == table.t[n]
        if n < 40:
            cls = push_k0(table, cls)


def test_unit_class_conservation(table):
    for n in (0, 3, 17):
        unit = K0Class(n, table.r[n], table.r[n])
        out = push_k0(table, unit)
        assert (out.x, out.y) == (table.r[n + 1], table.r[n + 1])


def test_swap_commutes_with_merged_matrices(table):
    for n in range(40):
        (a, b), (c, d) = connecting_matrix(table, n, MERGED)
        # conjugating by the swap permutation exchanges both index pairs
        assert (a, b, c, d) == (d, c, b, a)


def test_push_then_swap_equals_swap_then_push(table):
    cls = K0Class(0, 1, 0)
    for _ in range(12):
        assert push_k0(table, cls).swapped() == push_k0(table, cls.swapped())
        cls = push_k0(table, cls)


def test_q_perp_ranks_values(table):
    assert (q_perp_ranks(table, 0).x_rank, q_perp_ranks(table, 0).y_rank) == (0, 1)
    assert (q_perp_ranks(table, 1).x_rank, q_perp_ranks(table, 1).y_rank) == (1, 6)
    state = q_perp_ranks(table, 2)
    assert (state.x_rank, state.y_rank, state.ambient) == (42, 217, 259)


def test_q_and_complement_sum_to_ambient(table):
    for n in range(41):
        a, b = q_ranks(table, n), q_perp_ranks(table, n)
        assert a.x_rank + b.x_rank == table.r[n]
        assert a.y_rank + b.y_rank == table.r[n]


def test_q_class_matches_q_ranks(table):
    for n in (0, 1, 5, 20):
        cls = q_class(table, n)
        state = q_ranks(table, n)
        assert (cls.x, cls.y) == (state.x_rank, state.y_rank)


def test_push_bott_first_steps(table):
    shape = initial_bott_shape()
    shape = push_bott(shape, table)
    assert (shape.bott_rank, shape.x_const_rank_ub, shape.y_const_rank_ub) == (6, 0, 1)
    shape = push_bott(shape, table)
    assert (shape.bott_rank, shape.x_const_rank_ub, shape.y_const_rank_ub) == (216, 1, 42)


def test_push_bott_closed_forms(table):
    # Starting from the exact stage-0 shape, the recursion reproduces the
    # closed forms s(n), r(n)-s(n)-t(n), t(n) at every stage.
    shape = initial_bott_shape()
    for n in range(41):
        assert shape.bott_rank == table.s[n]
        assert shape.x_const_rank_ub == table.r[n] - table.s[n] - table.t[n]
        assert shape.y_const_rank_ub == table.t[n]
        # both components stay strictly below full rank
        assert shape.bott_rank + shape.x_const_rank_ub < table.r[n] or n == 0
        assert shape.y_const_rank_ub <= table.t[n] < table.r[n] or n == 0
        if n < 40:
            shape = push_bott(shape, table)


def test_cuntz_threshold_values(table):
    assert cuntz_threshold(table, 0) == 2
    assert cuntz_threshold(table, 1) == 12
    assert cuntz_threshold(table, 2) == 432


def test_stage_layout_counts_and_cross_pattern(table):
    for n in (0, 2, 5):
        d, k = table.d[n + 1], table.k[n + 1]
        merged = stage_layout(table, n, MERGED)
        assert len(merged.x_target) == d + k == len(merged.y_target)
        assert all(e.kind == ENTRY_COORD_PROJECTION for e in merged.x_target[:d])
        assert all(e.kind == ENTRY_POINT_EVAL_Y for e in merged.x_target[d:])
        assert all(e.kind == ENTRY_INTERVAL_MAP for e in merged.y_target[:d])
        assert all(e.kind == ENTRY_POINT_EVAL_X for e in merged.y_target[d:])
        assert [e.index for e in merged.x_target[:d]] == list(range(1, d + 1))

        split = stage_layout(table, n, SPLIT)
        assert all(e.kind == ENTRY_OPAQUE_X_TO_X for e in split.x_target[d:])
        assert all(e.kind == ENTRY_OPAQUE_Y_TO_Y for e in split.y_target[d:])


def test_stage_layout_refuses_a_stage_above_the_entry_cap():
    # 2^40 entries per target could never be built: the cap refuses first
    huge = sequences(make_explicit_family([1, 2 ** 40], [0, 1]), 1)
    for system in (MERGED, SPLIT):
        with pytest.raises(InputError, match="above the cap 65536"):
            stage_layout(huge, 0, system)
    at_cap = sequences(make_explicit_family([1, MAX_LAYOUT_ENTRIES - 1], [0, 1]), 1)
    assert len(stage_layout(at_cap, 0).x_target) == MAX_LAYOUT_ENTRIES


def test_stage_layout_bounds(table):
    with pytest.raises(InputError):
        stage_layout(table, 40, MERGED)
    with pytest.raises(InputError):
        connecting_matrix(table, -1)
