import random
from fractions import Fraction

import pytest

from ahcert.errors import InputError
from ahcert.params import check_constraints, make_geometric_family, sequences
from ahcert.telescope import telescope, weierstrass_check


@pytest.fixture(scope="module")
def family():
    return make_geometric_family(6)


def random_nu(rng: random.Random, horizon: int) -> list:
    nu = [0, 1]
    cur = 1
    while True:
        cur += rng.randint(1, 4)
        if cur > horizon:
            break
        nu.append(cur)
    return nu if len(nu) > 2 else [0, 1, horizon]


def test_telescope_block_products(family):
    result = telescope(family, [0, 1, 3], horizon=6)
    new = result.new_table
    assert new.d[2] == 36 * 216 == 7776
    assert new.k[2] == 37 * 217 - 7776 == 253
    assert new.r[2] == 7 * 37 * 217
    assert new.l[2] == 37 * 217
    assert result.verified


def test_telescope_identity_is_noop(family):
    result = telescope(family, list(range(7)), horizon=6)
    old = sequences(family, 6)
    assert result.new_table.d == old.d
    assert result.new_table.k == old.k
    assert result.new_table.omega == old.omega


def test_telescope_preserves_omega_and_dominates(family):
    result = telescope(family, [0, 1, 2, 4], horizon=6)
    new, old = result.new_table, sequences(family, 6)
    assert new.omega == Fraction(1, 7) == old.omega
    new_partial = sum(
        (Fraction(new.k[m], new.l[m]) for m in range(2, new.horizon + 1)), Fraction(0)
    )
    old_partial = sum(
        (Fraction(old.k[j], old.l[j]) for j in range(2, 5)), Fraction(0)
    )
    assert new_partial <= old_partial


def test_telescope_input_validation(family):
    with pytest.raises(InputError):
        telescope(family, [0, 2, 3], horizon=6)  # nu(1) != 1
    with pytest.raises(InputError):
        telescope(family, [1, 2], horizon=6)  # nu(0) != 0
    with pytest.raises(InputError):
        telescope(family, [0, 1, 1], horizon=6)  # not strictly increasing
    with pytest.raises(InputError):
        telescope(family, [0, 1, 9], horizon=6)  # beyond horizon
    with pytest.raises(InputError):
        telescope(family, [0], horizon=6)


def test_telescope_random_preservation(family):
    rng = random.Random(4217)
    old = sequences(family, 20)
    for _ in range(20):
        nu = random_nu(rng, 20)
        result = telescope(family, nu, horizon=20)
        new = result.new_table
        for m, v in enumerate(nu):
            assert new.r[m] == old.r[v]
            assert new.s[m] == old.s[v]
        assert new.omega == old.omega
        assert result.verified


def test_telescope_inherits_tail_majorant(family):
    result = telescope(family, [0, 1, 4, 6], horizon=8)
    for m, v in enumerate([0, 1, 4, 6]):
        assert result.new_family.tail(m) == family.tail(v)
    # inherited majorant really dominates the new family's tail sums
    new = result.new_table
    for m in range(new.horizon):
        tail_sum = sum(
            (Fraction(new.k[j], new.l[j]) for j in range(m + 1, new.horizon + 1)),
            Fraction(0),
        )
        assert tail_sum <= result.new_family.tail(m)


def test_telescoped_family_certifies_same_constraints(family):
    result = telescope(family, [0, 1, 3, 5, 8], horizon=10)
    old_report = check_constraints(family, 10)
    new_report = check_constraints(result.new_family, result.new_table.horizon)
    assert old_report.all_passed and new_report.all_passed


def test_telescope_functorial(family):
    rng = random.Random(90125)
    for _ in range(10):
        nu = random_nu(rng, 18)
        # inner selection on the indices of nu
        inner = sorted(rng.sample(range(2, len(nu)), k=min(2, len(nu) - 2)))
        nu_prime = [0, 1] + inner
        once = telescope(family, nu, horizon=18)
        twice = telescope(once.new_family, nu_prime, horizon=len(nu) - 1)
        composed = telescope(family, [nu[i] for i in nu_prime], horizon=18)
        assert twice.new_table.d == composed.new_table.d
        assert twice.new_table.k == composed.new_table.k


def test_rc_upper_invariant_under_telescoping(family):
    from ahcert.rcbounds import rc_upper

    result = telescope(family, [0, 1, 2, 5, 7], horizon=8)
    assert (
        rc_upper(result.new_table).certified_limit_bound
        == rc_upper(sequences(family, 8)).certified_limit_bound
        == Fraction(7, 5)
    )


def test_weierstrass_examples():
    res = weierstrass_check([Fraction(1, 2), Fraction(1, 3)])
    assert res.holds
    assert res.lhs == Fraction(5, 6)
    assert res.rhs == Fraction(2, 3)
    single = weierstrass_check([Fraction(3, 7)])
    assert single.holds and single.lhs == single.rhs == Fraction(3, 7)


def test_weierstrass_random_vectors():
    rng = random.Random(60902)
    for _ in range(100):
        size = rng.randint(1, 10)
        lams = [Fraction(rng.randint(1, 99), 100) for _ in range(size)]
        res = weierstrass_check(lams)
        assert res.holds
        prod = Fraction(1)
        for x in lams:
            prod *= 1 - x
        assert res.rhs == 1 - prod


def test_weierstrass_rejects_out_of_range():
    with pytest.raises(InputError):
        weierstrass_check([Fraction(0)])
    with pytest.raises(InputError):
        weierstrass_check([Fraction(1)])
    with pytest.raises(InputError):
        weierstrass_check([])
