import random

import pytest

from ahcert.chern import (
    MultilinearClass,
    from_coefficients,
    generator,
    invert_unit,
    min_trivial_embedding_rank,
    multiply,
    one,
    symmetric_multiply,
    total_chern_product_bundle,
)
from ahcert.errors import InputError


def brute_multiply(a: MultilinearClass, b: MultilinearClass) -> MultilinearClass:
    """Independent oracle: expand over all subset pairs, dropping overlaps."""
    k = a.k
    out = [0] * (1 << k)
    for s_a in range(1 << k):
        ca = a.coefficients[s_a]
        if ca == 0:
            continue
        for s_b in range(1 << k):
            if s_a & s_b:
                continue
            out[s_a | s_b] += ca * b.coefficients[s_b]
    return MultilinearClass(k, tuple(out))


def random_class(rng: random.Random, k: int) -> MultilinearClass:
    coeffs = [0] * (1 << k)
    for _ in range(rng.randint(1, 6)):
        coeffs[rng.randrange(1 << k)] = rng.randint(-9, 9)
    return MultilinearClass(k, tuple(coeffs))


def test_square_zero_identity():
    k = 1
    a = from_coefficients(k, {(): 1, (1,): 1})   # 1 + e1
    b = from_coefficients(k, {(): 1, (1,): -1})  # 1 - e1
    assert multiply(a, b) == one(k)


def test_two_factor_expansion():
    k = 2
    a = from_coefficients(k, {(): 1, (1,): 1})
    b = from_coefficients(k, {(): 1, (2,): 1})
    prod = multiply(a, b)
    assert prod.coefficient(()) == 1
    assert prod.coefficient((1,)) == 1
    assert prod.coefficient((2,)) == 1
    assert prod.coefficient((1, 2)) == 1


def test_generators_square_to_zero():
    k = 3
    for j in range(1, k + 1):
        g = generator(k, j)
        assert not any(multiply(g, g).coefficients)


def test_full_product_top_coefficient():
    prod = one(3)
    for j in range(1, 4):
        prod = multiply(prod, from_coefficients(3, {(): 1, (j,): 1}))
    assert prod == total_chern_product_bundle(3)
    assert prod.top_coefficient() == 1


def test_total_product_all_coefficients_one():
    assert total_chern_product_bundle(0) == one(0)
    assert total_chern_product_bundle(1).coefficients == (1, 1)
    c4 = total_chern_product_bundle(4)
    assert c4.coefficients == tuple([1] * 16)
    # cross-check against the pair-expansion oracle
    prod = one(4)
    for j in range(1, 5):
        prod = brute_multiply(prod, from_coefficients(4, {(): 1, (j,): 1}))
    assert prod == c4


def test_invert_unit_examples():
    k = 1
    inv = invert_unit(from_coefficients(k, {(): 1, (1,): 1}))
    assert inv == from_coefficients(k, {(): 1, (1,): -1})
    assert invert_unit(one(5)) == one(5)


def test_invert_unit_three_factor_product():
    total = total_chern_product_bundle(3)
    inv = invert_unit(total)
    assert inv.top_coefficient() == -1
    assert brute_multiply(total, inv) == one(3)
    # the inverse is the alternating product: coefficient (-1)^|S|
    for mask in range(8):
        assert inv.coefficients[mask] == (-1) ** bin(mask).count("1")


def test_invert_unit_negative_unit_and_errors():
    k = 2
    neg = from_coefficients(k, {(): -1, (1,): 3})
    assert multiply(neg, invert_unit(neg)) == one(k)
    with pytest.raises(InputError):
        invert_unit(from_coefficients(k, {(): 2}))


def test_min_trivial_embedding_rank_values():
    assert min_trivial_embedding_rank(0).min_rank == 0
    b1 = min_trivial_embedding_rank(1)
    assert b1.min_rank == 2 and b1.top_coefficient == -1
    b7 = min_trivial_embedding_rank(7)
    assert b7.min_rank == 14
    assert b7.top_coefficient == -1 and b7.complement_rank_lb == 7


def test_embedding_rank_matches_brute_force_small():
    for k in range(0, 7):
        bound = min_trivial_embedding_rank(k)
        total = total_chern_product_bundle(k)
        inv = invert_unit(total)
        assert brute_multiply(total, inv) == one(k)
        assert bound.top_coefficient == (-1) ** k != 0
        assert bound.min_rank == 2 * k


def test_multiply_commutative_associative_random():
    rng = random.Random(997)
    for k in (2, 4, 6):
        for _ in range(10):
            a, b, c = (random_class(rng, k) for _ in range(3))
            assert multiply(a, b) == multiply(b, a) == brute_multiply(a, b)
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_inverse_verifies_up_to_twelve():
    for k in range(13):
        total = total_chern_product_bundle(k)
        assert multiply(total, invert_unit(total)) == one(k)
        assert invert_unit(total).top_coefficient() == (-1) ** k
        bound = min_trivial_embedding_rank(k)
        assert (bound.top_coefficient, bound.min_rank, bound.product_is_one) == (
            invert_unit(total).top_coefficient(), 2 * k, True
        )


def symmetric_to_dense(coeffs: tuple) -> MultilinearClass:
    """sum c_i sigma_i in the dense ring: monomial S gets c_|S|."""
    k = len(coeffs) - 1
    return MultilinearClass(
        k, tuple(coeffs[bin(mask).count("1")] for mask in range(1 << k))
    )


def test_symmetric_multiply_matches_the_dense_ring():
    rng = random.Random(4099)
    for k in range(7):
        for _ in range(5):
            a, b = (tuple(rng.randint(-9, 9) for _ in range(k + 1)) for _ in range(2))
            assert symmetric_to_dense(symmetric_multiply(a, b)) == multiply(
                symmetric_to_dense(a), symmetric_to_dense(b)
            )
    with pytest.raises(InputError):
        symmetric_multiply((1, 1), (1, 1, 1))


def test_ring_boundaries():
    with pytest.raises(InputError):
        total_chern_product_bundle(21)  # dense cap
    with pytest.raises(InputError):
        multiply(one(2), one(3))  # mismatched rings
    with pytest.raises(InputError):
        one(2).coefficient((3,))  # index out of range
    with pytest.raises(InputError):
        min_trivial_embedding_rank(-1)
    with pytest.raises(InputError):
        min_trivial_embedding_rank(21)
