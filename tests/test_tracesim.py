import contextlib
import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import ceil
from unittest import mock

import ladder_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ahcert.tracesim as tracesim
from ahcert.errors import ConsistencyError, InputError
from ahcert.params import make_explicit_family, make_geometric_family, sequences
from ahcert.ranks import q_perp_ranks
from ahcert.tracesim import (
    GridFunction,
    PiecewiseLinearMap,
    StageEntries,
    agreement_prefix,
    averaged_composition,
    constant_map,
    contraction_map,
    density_check,
    flip_compatibility,
    gap_series,
    identity_map,
    induced_gap,
    round_convex_weights,
    simulate_intertwining,
    synthetic_system_pair,
    van_der_corput,
)


@pytest.fixture(scope="module")
def table():
    return sequences(make_geometric_family(6), 40)


# -- interval maps and grid functions ---------------------------------------


def samples(f, G):
    """f on the grid {i/G : 0 <= i <= G}."""
    return [f(Fraction(i, G)) for i in range(G + 1)]


def test_piecewise_linear_map_evaluation():
    tent = contraction_map(Fraction(1, 2), Fraction(1, 2))
    assert tent(Fraction(0)) == Fraction(1, 4)
    assert tent(Fraction(1)) == Fraction(3, 4)
    assert tent(Fraction(1, 3)) == Fraction(1, 4) + Fraction(1, 6)
    assert identity_map()(Fraction(5, 8)) == Fraction(5, 8)
    assert constant_map(Fraction(2, 7))(Fraction(1, 3)) == Fraction(2, 7)


def test_map_must_stay_inside_interval():
    with pytest.raises(InputError):
        PiecewiseLinearMap(Fraction(0), Fraction(2))
    with pytest.raises(InputError):
        constant_map(Fraction(3, 2))


def test_map_refusals_are_pinned():
    # (offset, slope): x -> offset + slope x must send 0 and 1 into [0, 1]
    for offset, slope, message in (
        (Fraction(0), Fraction(-1, 3), r"map leaves \[0, 1\]"),
        (Fraction(9, 8), Fraction(-1, 8), r"map leaves \[0, 1\]"),
        (Fraction(-1, 4), Fraction(1, 2), r"map leaves \[0, 1\]"),
        (Fraction(1, 2), Fraction(2, 3), r"map leaves \[0, 1\]"),
        (Fraction(1), Fraction(-2), r"map leaves \[0, 1\]"),
        ("1/0", Fraction(0), "malformed rational"),
    ):
        with pytest.raises(InputError, match=message):
            PiecewiseLinearMap(offset, slope)
    # the ends themselves are inside
    assert PiecewiseLinearMap(Fraction(1), Fraction(-1))(Fraction(1)) == 0


def test_map_refuses_float_breakpoints_up_front():
    for offset, slope in ((0.0, 0.5), (0, 0.5), (0.25, 0)):
        with pytest.raises(InputError, match="float"):
            PiecewiseLinearMap(offset, slope)
    # ints and "p/q" strings are exact and accepted
    m = PiecewiseLinearMap("1/4", "1/2")
    assert m == contraction_map(Fraction(1, 2))
    assert GridFunction(0, 1).resample(m) == GridFunction(Fraction(1, 4), Fraction(1, 2))


def test_grid_function_is_its_offset_and_slope():
    assert [f.name for f in dataclasses.fields(GridFunction)] == ["offset", "slope"]
    f = GridFunction(1, "-1/2")
    assert (f.offset, f.slope) == (Fraction(1), Fraction(-1, 2))
    assert f == GridFunction(Fraction(1), Fraction(-1, 2))
    # a trace function need not map [0, 1] into itself
    assert GridFunction(-3, 5).sup_norm() == 3


def test_piecewise_linear_map_is_a_grid_function():
    m = contraction_map(Fraction(1, 4))
    assert isinstance(m, GridFunction)
    assert dataclasses.fields(PiecewiseLinearMap) == dataclasses.fields(GridFunction)
    assert m(Fraction(1)) == GridFunction(m.offset, m.slope)(Fraction(1)) == Fraction(5, 8)
    GridFunction(Fraction(1, 2), Fraction(2, 3))  # leaves [0, 1], but is no map
    with pytest.raises(InputError, match=r"map leaves \[0, 1\]"):
        PiecewiseLinearMap(Fraction(1, 2), Fraction(2, 3))


def test_grid_function_exact_interpolation():
    f = GridFunction.from_callable(lambda x: 2 * x - 1, 8)
    assert f(Fraction(1, 8)) == Fraction(-3, 4)
    mid = f(Fraction(3, 16))
    assert mid == (Fraction(-3, 4) + Fraction(-1, 2)) / 2
    assert f.sup_norm() == 1
    for x in (Fraction(-1, 8), Fraction(9, 8)):
        with pytest.raises(InputError, match="outside"):
            f(x)
    with pytest.raises(InputError, match="float"):
        f(0.5)


def test_grid_function_refuses_a_non_affine_function():
    with pytest.raises(InputError, match="trace functions are affine"):
        GridFunction.from_callable(lambda x: x * x, 8)
    bent = {Fraction(1, 4): Fraction(1, 4), Fraction(1, 2): Fraction(1, 3)}
    with pytest.raises(InputError, match="indices 0, 4 and 8 are not collinear"):
        GridFunction.from_callable(lambda x: bent.get(x, x), 8)
    # every sample on the line through the ends: the pair of that line
    f = GridFunction.from_callable(lambda x: 1 - x, 8)
    assert f == GridFunction(1, -1)


def test_grid_function_resample_identity_and_constant():
    f = GridFunction.from_callable(lambda x: x, 16)
    assert samples(f.resample(identity_map()), 16) == samples(f, 16)
    g = f.resample(constant_map(Fraction(3, 8)))
    assert set(samples(g, 16)) == {Fraction(3, 8)}


# -- the affine form against dense samples ----------------------------------


def dense_interpolate(samples, x):
    G = len(samples) - 1
    pos = x * G
    j = pos.numerator // pos.denominator
    if j >= G:
        return samples[G]
    theta = pos - j
    return (1 - theta) * samples[j] + theta * samples[j + 1]


def dense_resample(samples, m):
    G = len(samples) - 1
    return [dense_interpolate(samples, m(Fraction(i, G))) for i in range(G + 1)]


def direct_push(stage, samples):
    """(1/l) sum of f o entry on every sample, with no shortcut for constant f."""
    out = [Fraction(0)] * len(samples)
    for m, c in stage.entries:
        for i, y in enumerate(dense_resample(samples, m)):
            out[i] += Fraction(c, stage.total) * y
    return out


unit_fractions = st.sampled_from(
    sorted({Fraction(n, d) for d in range(1, 10) for n in range(d + 1)})
)
sample_values = st.builds(Fraction, st.integers(-21, 21), st.integers(1, 7))


@st.composite
def affine_samples(draw, resolution):
    """The G + 1 grid samples of an affine function with drawn end values."""
    first, last = draw(sample_values), draw(sample_values)
    return [first + (last - first) * Fraction(i, resolution) for i in range(resolution + 1)]


def affine_function(samples):
    """The affine function through the end samples."""
    return GridFunction(samples[0], samples[-1] - samples[0])


@st.composite
def interval_maps(draw):
    # end values from a few unit fractions, so constant and decreasing maps are common
    start, end = draw(unit_fractions), draw(unit_fractions)
    return PiecewiseLinearMap(start, end - start)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_affine_form_matches_dense_samples(data):
    G = data.draw(st.integers(1, 64), label="G")
    dense = data.draw(affine_samples(G), label="f")
    other = data.draw(affine_samples(G), label="g")
    m1 = data.draw(interval_maps(), label="m1")
    m2 = data.draw(interval_maps(), label="m2")
    c1, c2 = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    x = data.draw(unit_fractions, label="x")

    f, g = affine_function(dense), affine_function(other)
    assert samples(f, G) == dense
    assert GridFunction.from_callable(lambda y: dense_interpolate(dense, y), G) == f
    assert samples(f.resample(m1), G) == dense_resample(dense, m1)
    stage = StageEntries(((m1, c1), (m2, c2)))
    assert samples(stage.push(f), G) == direct_push(stage, dense)
    assert samples(f.add(g), G) == [a + b for a, b in zip(dense, other)]
    assert samples(f.sub(g), G) == [a - b for a, b in zip(dense, other)]
    assert f.distance(g) == max(abs(a - b) for a, b in zip(dense, other))
    assert f.sup_norm() == max(abs(a) for a in dense)
    assert f(x) == dense_interpolate(dense, x)


@st.composite
def shared_entries(draw):
    """Up to four (map, multiplicity) entries drawn from a pool of at most
    three map objects, so that one map can stand in several entries."""
    pool = draw(st.lists(interval_maps(), min_size=1, max_size=3))
    return [
        (draw(st.sampled_from(pool)), draw(st.integers(1, 5)))
        for _ in range(draw(st.integers(1, 4)))
    ]


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_fused_push_matches_dense_samples(data):
    G = data.draw(st.integers(1, 256), label="G")
    dense = data.draw(affine_samples(G), label="f")
    f = affine_function(dense)
    first = StageEntries(tuple(data.draw(shared_entries(), label="A")))
    second = StageEntries(tuple(data.draw(shared_entries(), label="B")))

    expected_a, expected_b = direct_push(first, dense), direct_push(second, dense)
    assert samples(first.push(f), G) == expected_a
    # the stage difference, as a ladder stage forms it
    gap = second.push(f).sub(first.push(f))
    assert samples(gap, G) == [b - a for a, b in zip(expected_a, expected_b)]


def test_synthetic_stage_maps_are_built_once_per_process():
    pts = van_der_corput(3 * 12)
    first = synthetic_system_pair(sequences(make_geometric_family(6), 12), 12)
    again = synthetic_system_pair(sequences(make_geometric_family(5), 10), 10)
    for n in range(10):
        for stages, other in zip(first, again):
            assert [id(m) for m, _ in stages[n].entries] == [
                id(m) for m, _ in other[n].entries
            ]
    for n in range(12):
        (shared, _), (point_a, _) = first[0][n].entries
        (shared_b, _), (point_b, _) = first[1][n].entries
        assert shared is shared_b
        assert shared == contraction_map(pts[3 * n], Fraction(1, 2))
        assert point_a == constant_map(pts[3 * n + 1])
        assert point_b == constant_map(pts[3 * n + 2])


# Step distances of the N = 6 ladder from v(x) = x, read at every grid.
N6_LADDER = (
    "1/28",
    "3/518",
    "351/449624",
    "2916/72895291",
    "944784/566906678107",
    "7346640384/26450164880438299",
    "214228033597440/7404379806135256107163",
    "23988055525253185536/12436522196841480456944796571",
    "10072680467275913619308544/125331502433542797076511205569176987",
    "101509411654344605577651236634624/7578316809822529505103409098429241440268699",
)


@pytest.mark.parametrize("grid", [64, 192, 4096])
def test_n6_ladder_is_pinned_at_every_grid(grid):
    stages = len(N6_LADDER)
    sys_a, sys_b = synthetic_system_pair(
        sequences(make_geometric_family(6), stages), stages
    )
    v = GridFunction.from_callable(lambda x: x, grid)
    assert v == GridFunction(0, 1)
    res = simulate_intertwining(sys_a, sys_b, v, 0, stages)
    assert res.step_distances == tuple(Fraction(d) for d in N6_LADDER)
    assert res.step_bounds == tuple(
        Fraction(2, 6 ** (n + 1) + 1) for n in range(stages)
    )


def test_ladder_rungs_are_summed_on_first_read():
    stages = 20
    sys_a, sys_b = synthetic_system_pair(
        sequences(make_geometric_family(6), stages), stages
    )
    v = GridFunction(0, 1)
    res = simulate_intertwining(sys_a, sys_b, v, 0, stages)
    assert "functions" not in vars(res)
    assert len(res.functions) == stages + 1
    assert res.functions is res.functions
    # the dataclass helpers see the ladder the rungs are summed from
    assert dataclasses.replace(res) == res
    assert dataclasses.replace(res).functions == res.functions


def test_grid_function_refuses_floats_and_bad_resolutions():
    for offset, slope in ((0.5, 1), (0, 1.0)):
        with pytest.raises(InputError, match="float"):
            GridFunction(offset, slope)
    with pytest.raises(InputError, match="float"):
        GridFunction.from_callable(lambda x: float(x), 4)
    for G in (0, -2, 2.0, True):
        with pytest.raises(InputError, match="resolution"):
            GridFunction.from_callable(lambda x: x, G)


# -- convex-weight rounding ---------------------------------------------------


def test_rounding_frozen_example():
    plan = round_convex_weights(
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], Fraction(1, 10), 128
    )
    assert plan.betas == (Fraction(1, 2), Fraction(21, 64), Fraction(11, 64))
    assert plan.multiplicities == (64, 42, 22)
    assert plan.deviation == Fraction(1, 96)
    assert plan.deviation < Fraction(1, 20)


def test_rounding_single_weight():
    plan = round_convex_weights([Fraction(1)], Fraction(1, 3), 13)
    assert plan.betas == (Fraction(1),)
    assert plan.deviation == 0


def test_rounding_seventeenths():
    plan = round_convex_weights([Fraction(3, 4), Fraction(1, 4)], Fraction(1, 2), 17)
    assert all(b.denominator in (1, 17) for b in plan.betas)
    assert plan.betas == (Fraction(12, 17), Fraction(5, 17))
    assert plan.deviation == Fraction(3, 34) < Fraction(1, 4)


def test_rounding_threshold_named_in_error():
    with pytest.raises(InputError, match="121"):
        round_convex_weights(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], Fraction(1, 10), 120
        )


def test_rounding_random_instances():
    rng = random.Random(811)
    for _ in range(100):
        n = rng.randint(1, 10)
        cuts = sorted(rng.randint(0, 1000) for _ in range(n - 1))
        parts = [a - b for a, b in zip(cuts + [1000], [0] + cuts)]
        alphas = [Fraction(p, 1000) for p in parts]
        epsilon = Fraction(rng.randint(1, 50), 100)
        N = ceil(Fraction(4 * n) / epsilon) + 1
        plan = round_convex_weights(alphas, epsilon, N)
        assert sum(plan.betas) == 1
        assert plan.deviation < epsilon / 2
        assert all(m >= 0 for m in plan.multiplicities)
        assert sum(plan.multiplicities) == N
        # all but the adjusted last weight stay in (alpha - 1/N, alpha]
        for a, b in zip(alphas[:-1], plan.betas[:-1]):
            assert a - Fraction(1, N) < b <= a
            assert (b * N).denominator == 1


# -- averaged composition -----------------------------------------------------


def test_averaged_composition_trivial_gap():
    f = GridFunction.from_callable(lambda x: x, 64)
    out = averaged_composition(
        [f], [identity_map()] * 8, [(Fraction(1), identity_map())]
    )
    avg, gap = out[0]
    assert gap == 0
    assert avg == f


def test_averaged_composition_exact_weights():
    # weights already multiples of 1/N: rounding is exact, gap 0
    f = GridFunction.from_callable(lambda x: x, 64)
    maps = [identity_map()] * 4 + [constant_map(Fraction(0))] * 4
    reference = [
        (Fraction(1, 2), identity_map()),
        (Fraction(1, 2), constant_map(Fraction(0))),
    ]
    (_, gap), = averaged_composition([f], maps, reference)
    assert gap == 0


def test_averaged_composition_rounded_weights_within_epsilon():
    epsilon = Fraction(1, 10)
    alphas = [Fraction(2, 3), Fraction(1, 3)]
    N = ceil(Fraction(8) / epsilon) + 1
    plan = round_convex_weights(alphas, epsilon, N)
    h = [identity_map(), constant_map(Fraction(0))]
    maps = []
    for m, count in zip(h, plan.multiplicities):
        maps.extend([m] * count)
    f = GridFunction.from_callable(lambda x: 1 - x / 2, 128)
    (avg, gap), = averaged_composition([f], maps, list(zip(alphas, h)))
    # the same average and gap on every dense sample
    dense = samples(f, 128)
    dense_avg = direct_push(StageEntries(tuple((m, 1) for m in maps)), dense)
    dense_ref = [
        sum(a * y for a, y in zip(alphas, ys))
        for ys in zip(*(dense_resample(dense, m) for m in h))
    ]
    assert samples(avg, 128) == dense_avg
    assert gap == max(abs(a - b) for a, b in zip(dense_avg, dense_ref))
    # | (1/N) sum f o g - sum alpha f o h | <= sum |alpha - beta| * ||f||
    assert gap <= plan.deviation * f.sup_norm()
    assert gap < epsilon


def test_averaged_composition_requires_markov_reference():
    f = GridFunction.from_callable(lambda x: x, 8)
    with pytest.raises(InputError):
        averaged_composition([f], [identity_map()], [(Fraction(1, 2), identity_map())])


def test_averaged_composition_refuses_weights_outside_the_unit_interval():
    f = GridFunction(0, 1)
    # the weights sum to 1, but the reference is no average of its maps
    reference = [(2, identity_map()), (-1, constant_map(0))]
    with pytest.raises(InputError, match=r"weights must lie in \[0, 1\]"):
        averaged_composition([f], [identity_map()], reference)


# -- stage gaps ---------------------------------------------------------------


def test_induced_gap_values(table):
    assert induced_gap(table, 0) == Fraction(2, 7)
    assert induced_gap(table, 2) == Fraction(2, 217)
    zero_k = make_explicit_family([1, 6, 36], [0, 1, 0])
    assert induced_gap(sequences(zero_k, 2), 1) == 0
    with pytest.raises(InputError):
        induced_gap(table, 40)


def test_gap_series_totals(table):
    series = gap_series(table)
    assert series.summable
    assert series.total_bound < Fraction(2, 5)
    assert series.partial_sum <= series.total_bound
    n2 = gap_series(sequences(make_geometric_family(2), 30))
    assert n2.total_bound < 2
    zero_k = make_explicit_family(
        [1, 6, 36], [0, 0, 0], tail_majorant=lambda n: Fraction(0)
    )
    assert gap_series(sequences(zero_k, 2)).total_bound == 0


def test_gap_series_horizon_limited():
    fam = make_explicit_family([1, 6, 36], [0, 1, 1])
    series = gap_series(sequences(fam, 2))
    assert not series.summable and series.total_bound is None


# -- the intertwining ladder --------------------------------------------------


def test_intertwining_identical_systems_all_zero(table):
    sys_a, _ = synthetic_system_pair(table, 4)
    v = GridFunction.from_callable(lambda x: x, 128)
    res = simulate_intertwining(sys_a, sys_a, v, 0, 4)
    assert all(d == 0 for d in res.step_distances)


def test_intertwining_steps_obey_stage_gaps(table):
    sys_a, sys_b = synthetic_system_pair(table, 5)
    v = GridFunction.from_callable(lambda x: x, 256)
    res = simulate_intertwining(sys_a, sys_b, v, 0, 5)
    for i, (dist, bound) in enumerate(zip(res.step_distances, res.step_bounds)):
        assert bound == induced_gap(table, i)
        assert dist <= bound


def test_intertwining_preserves_order_unit(table):
    sys_a, sys_b = synthetic_system_pair(table, 4)
    v = GridFunction(1, 0)
    res = simulate_intertwining(sys_a, sys_b, v, 0, 4)
    for w in res.functions:
        assert w == v
    assert all(d == 0 for d in res.step_distances)


def test_agreement_prefix_compares_maps_by_value():
    shared = contraction_map(Fraction(1, 4))
    a = StageEntries(((shared, 3), (constant_map(Fraction(1, 3)), 2)))
    # the same maps as other objects, and a different last map
    b = StageEntries(
        ((contraction_map(Fraction(1, 4)), 2), (shared, 1), (constant_map(Fraction(2, 3)), 2))
    )
    assert agreement_prefix(a, a) == 5
    assert agreement_prefix(a, b) == agreement_prefix(b, a) == 3
    assert agreement_prefix(a, StageEntries(((identity_map(), 5),))) == 0


def test_intertwining_multiplicity_mismatch(table):
    sys_a, sys_b = synthetic_system_pair(table, 3)
    broken = list(sys_b)
    broken[1] = StageEntries(((identity_map(), 5),))
    v = GridFunction.from_callable(lambda x: x, 32)
    with pytest.raises(InputError):
        simulate_intertwining(sys_a, broken, v, 0, 3)


def direct_ladder(system_a, system_b, samples, m, horizon):
    """The ladder straight from its definition on every sample,
    w_n = B_(H-1)...B_n A_(n-1)...A_m v, with its step distances and bounds."""
    functions = []
    for n in range(m, horizon + 1):
        w = samples
        for j in range(m, n):
            w = direct_push(system_a[j], w)
        for j in range(n, horizon):
            w = direct_push(system_b[j], w)
        functions.append(tuple(w))
    distances = [
        max(abs(x - y) for x, y in zip(a, b)) for a, b in zip(functions, functions[1:])
    ]
    scale = max(Fraction(1), max(abs(y) for y in samples))
    bounds = [
        Fraction(2 * (a.total - agreement_prefix(a, b)), a.total) * scale
        for a, b in zip(system_a[m:horizon], system_b[m:horizon])
    ]
    return tuple(functions), tuple(distances), tuple(bounds)


nonconstant_maps = interval_maps().filter(lambda m: m.slope != 0)


@st.composite
def stage_pairs(draw):
    """Two stages with a shared leading block and disagreeing tails of one size."""
    shared = [
        (draw(interval_maps()), draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    tail = draw(st.integers(0 if shared else 1, 3))

    def entries():
        cut = draw(st.integers(0, tail))
        own = [(draw(nonconstant_maps), c) for c in (cut, tail - cut) if c]
        return StageEntries(tuple(shared + own))

    return entries(), entries()


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_ladder_matches_its_direct_definition(data):
    G = data.draw(st.sampled_from([1, 2, 3, 64, 4096]) | st.integers(1, 256), label="G")
    dense = data.draw(affine_samples(G), label="v")
    v = affine_function(dense)
    m = data.draw(st.integers(1, 2), label="m")
    horizon = m + data.draw(st.integers(1, 3), label="stages")
    pairs = [data.draw(stage_pairs(), label=f"stage {n}") for n in range(horizon)]
    system_a = [a for a, _ in pairs]
    system_b = [b for _, b in pairs]

    res = simulate_intertwining(system_a, system_b, v, m, horizon)
    functions, distances, bounds = direct_ladder(system_a, system_b, dense, m, horizon)
    assert tuple(tuple(samples(w, G)) for w in res.functions) == functions
    assert res.step_distances == distances
    assert res.step_bounds == bounds


def test_step_above_its_bound_is_a_consistency_error(table, monkeypatch):
    import ahcert.tracesim as tracesim

    sys_a, sys_b = synthetic_system_pair(table, 3)
    v = GridFunction.from_callable(lambda x: x, 32)
    # Claim full agreement, so every bound is 0 while the systems differ.
    monkeypatch.setattr(tracesim, "agreement_prefix", lambda a, b: a.total)
    with pytest.raises(ConsistencyError, match="step 0: distance"):
        simulate_intertwining(sys_a, sys_b, v, 0, 3)


def ladder_outcome(simulate, *args):
    """The distances, bounds and rungs ``simulate(*args)`` returns, with
    their types, or the type and message of what it raises."""
    try:
        res = simulate(*args)
    except Exception as exc:  # compared, never swallowed
        return ("raised", type(exc), str(exc))
    return tuple(
        (value, type(value))
        for value in (*res.step_distances, *res.step_bounds, *res.functions)
    )


@st.composite
def ladder_inputs(draw):
    """Systems, v, m and H for ``simulate_intertwining``: stages whose own
    tails are non-constant maps (so steps are pushed on), v with sup norm
    up to 21, H from m to m + 3, and now and then H below m, a system
    short of H or a stage whose total differs."""
    v = GridFunction(draw(sample_values), draw(sample_values))
    m = draw(st.integers(0, 2))
    horizon = m + draw(st.integers(0, 3)) - (draw(st.integers(0, 7)) == 0)
    length = max(0, horizon - (draw(st.integers(0, 5)) == 0))
    pairs = [draw(stage_pairs()) for _ in range(length)]
    if pairs and draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(pairs) - 1))
        a, _ = pairs[at]
        pairs[at] = a, StageEntries(((draw(interval_maps()), a.total + 1),))
    return [a for a, _ in pairs], [b for _, b in pairs], v, m, horizon


@settings(max_examples=200, deadline=None, database=None)
@given(ladder_inputs(), st.booleans())
def test_integer_ladder_matches_the_fraction_reference(inputs, claim_full_agreement):
    with contextlib.ExitStack() as patches:
        if claim_full_agreement:  # every bound 0, so any nonzero step violates it
            for module in (tracesim, reference):
                patches.enter_context(
                    mock.patch.object(module, "agreement_prefix", lambda a, b: a.total)
                )
        assert ladder_outcome(simulate_intertwining, *inputs) == ladder_outcome(
            reference.simulate_intertwining, *inputs
        )


#: Every Fraction dunder that computes, compares or tests a value.
FRACTION_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__", "__bool__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
)


def test_ladder_runs_no_fraction_operator(monkeypatch):
    pairs = {
        stages: synthetic_system_pair(sequences(make_geometric_family(6), stages), stages)
        for stages in (6, 8, 10)
    }
    v = GridFunction(0, 1)
    calls = Counter()
    for name in FRACTION_DUNDERS:
        def counted(*args, _name=name, _method=getattr(Fraction, name)):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(Fraction, name, counted)
    for stages, (sys_a, sys_b) in pairs.items():
        simulate_intertwining(sys_a, sys_b, v, 0, stages)
    ladder_calls = sum(calls.values())
    # The counters see every operator the reference runs.
    for stages, (sys_a, sys_b) in pairs.items():
        reference.simulate_intertwining(sys_a, sys_b, v, 0, stages)
    reference_calls = sum(calls.values())
    monkeypatch.undo()
    assert ladder_calls == 0
    assert reference_calls > 0


def naive_agreement(a, b):
    """The leading positions of the two stages, expanded by multiplicity,
    that hold maps equal by value."""
    expanded = [[m for m, c in s.entries for _ in range(c)] for s in (a, b)]
    agreed = 0
    for x, y in zip(*expanded):
        if (x.offset, x.slope) != (y.offset, y.slope):
            break
        agreed += 1
    return agreed


@st.composite
def agreeing_stages(draw):
    """Two stages over a common leading sequence of maps from a small pool,
    each with its own tail; each stage splits its sequence into runs at
    its own points, and each run holds the pool's object or an equal copy."""
    pool = draw(st.lists(interval_maps(), min_size=1, max_size=3))
    common = draw(st.lists(st.sampled_from(pool), max_size=8))

    def stage():
        sequence = common + draw(
            st.lists(st.sampled_from(pool), min_size=0 if common else 1, max_size=4)
        )
        entries = []
        for m in sequence:
            if entries and entries[-1][0] == m and draw(st.booleans()):
                entries[-1] = (entries[-1][0], entries[-1][1] + 1)
            else:
                copy = draw(st.booleans())
                entries.append((PiecewiseLinearMap(m.offset, m.slope) if copy else m, 1))
        return StageEntries(tuple(entries))

    return stage(), stage()


@settings(max_examples=200, deadline=None, database=None)
@given(agreeing_stages())
def test_agreement_prefix_matches_its_naive_definition(stages):
    a, b = stages
    assert agreement_prefix(a, b) == agreement_prefix(b, a) == naive_agreement(a, b)


def test_tracesim_refuses_non_integer_arguments(table):
    sys_a, sys_b = synthetic_system_pair(table, 3)
    v = GridFunction(0, 1)
    with pytest.raises(InputError, match="entry multiplicity must be a positive integer"):
        StageEntries(((identity_map(), True),))
    refused = (
        ("horizon", lambda: simulate_intertwining(sys_a, sys_b, v, 0, True)),
        ("start", lambda: simulate_intertwining(sys_a, sys_b, v, 1.0, 2)),
        ("base", lambda: van_der_corput(3, 2.5)),
        ("point count", lambda: van_der_corput(True)),
        ("N", lambda: round_convex_weights([Fraction(1)], Fraction(1, 2), 100.0)),
        ("start index", lambda: density_check(van_der_corput(4), True, Fraction(1, 2))),
    )
    for name, call in refused:
        with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
            call()


def test_push_returns_constants_unchanged_and_moves_lines():
    stage = StageEntries(
        ((contraction_map(Fraction(1, 4)), 3), (constant_map(Fraction(1, 2)), 1))
    )
    line = GridFunction(0, 1)
    # (3/4) (x/2 + 1/8) + (1/4)(1/2) = 3x/8 + 7/32
    assert stage.push(line) == GridFunction(Fraction(7, 32), Fraction(3, 8))
    level = GridFunction(Fraction(-2, 3), 0)
    assert stage.push(level) is level


def test_one_stage_push_positive_and_unital(table):
    stage = StageEntries(
        ((contraction_map(Fraction(1, 4)), 6), (constant_map(Fraction(1, 2)), 1))
    )
    f = GridFunction.from_callable(lambda x: x, 64)
    g = GridFunction.from_callable(lambda x: x / 2, 64)
    pf, pg = stage.push(f), stage.push(g)
    assert all(a >= b for a, b in zip(samples(pf, 64), samples(pg, 64)))  # monotone
    unit = GridFunction(1, 0)
    assert stage.push(unit) == unit


# -- the flip -----------------------------------------------------------------


def test_flip_report_with_table(table):
    report = flip_compatibility(table)
    assert len(report.checks) == 4
    assert all(c.holds for c in report.checks)


def test_flip_matches_complement_ranks_stage_two(table):
    from ahcert.ranks import q_class

    fl = q_class(table, 2).swapped()
    perp = q_perp_ranks(table, 2)
    assert (fl.x, fl.y) == (perp.x_rank, perp.y_rank) == (42, 217)


# -- density ------------------------------------------------------------------


def test_density_van_der_corput():
    pts = van_der_corput(64)
    assert density_check(pts, 0, Fraction(1, 64))
    assert not density_check(pts, 0, Fraction(1, 128))


def test_density_constant_sequence_fails():
    pts = [Fraction(1, 2)] * 50
    assert not density_check(pts, 0, Fraction(1, 4))
    assert density_check(pts, 0, Fraction(1, 2))


def test_density_mesh_pigeonhole():
    pts = [Fraction(0), Fraction(1, 2), Fraction(1)]
    assert density_check(pts, 0, Fraction(1, 2))
    assert not density_check(pts, 0, Fraction(1, 3))


def test_density_start_index_matters():
    pts = van_der_corput(64) + [Fraction(1, 2)] * 4
    assert density_check(pts, 0, Fraction(1, 64))
    assert not density_check(pts, 64, Fraction(1, 4))
    assert not density_check([], 0, Fraction(1, 2))


def sorted_density(points, n, epsilon):
    """The window criterion on plainly sorted Fractions."""
    tail = sorted(points[n:])
    if not tail or tail[0] > epsilon or 1 - tail[-1] > epsilon:
        return False
    return all(b - a <= epsilon for a, b in zip(tail, tail[1:]))


def test_density_orders_points_that_tie_in_their_first_64_bits():
    third, near = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2 ** 80)
    assert (third.numerator << 64) // third.denominator == (
        (near.numerator << 64) // near.denominator
    )
    pts = [Fraction(0), near, third, Fraction(2, 3)]
    for order in (pts, pts[::-1], [near, Fraction(0), Fraction(2, 3), third]):
        for epsilon in (Fraction(1, 3), Fraction(1, 3) - Fraction(1, 2 ** 80),
                        Fraction(1, 3) + Fraction(1, 2 ** 81), Fraction(1, 4)):
            assert density_check(order, 0, epsilon) == sorted_density(order, 0, epsilon)
    # In the order of the first 64 bits alone, 0 -> near would be a gap of
    # 1/3 + 2^-80 and the check would fail.
    assert density_check(pts, 0, Fraction(1, 3))


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.lists(
        unit_fractions | st.builds(lambda x, k: x + Fraction(1, 2 ** k) * (x < 1),
                                   unit_fractions, st.integers(60, 90)),
        max_size=12,
    ),
    st.integers(0, 3),
    unit_fractions.filter(lambda e: e > 0),
)
def test_density_matches_plain_sorting(points, n, epsilon):
    assert density_check(points, n, epsilon) == sorted_density(points, n, epsilon)


def test_density_rejects_bad_input():
    with pytest.raises(InputError):
        density_check([Fraction(3, 2)], 0, Fraction(1, 4))
    with pytest.raises(InputError):
        density_check([Fraction(1, 2)], 0, Fraction(0))


def test_van_der_corput_refuses_a_negative_count():
    assert van_der_corput(0) == []
    with pytest.raises(InputError, match="count"):
        van_der_corput(-1)


def test_van_der_corput_first_points():
    assert van_der_corput(4) == [
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 4),
    ]
