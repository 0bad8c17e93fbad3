"""Exact arithmetic in the ring Z[e_1, ..., e_k] / (e_j^2).

This is the cohomology ring of a k-fold product of 2-spheres, which is
all that is needed to derive the embedding obstruction for the k-fold
product of the tautological line bundle: its total characteristic class
is prod (1 + e_j), the class of a complementary bundle inside a trivial
one is prod (1 - e_j), and the top coefficient (-1)^k of the latter
never vanishes.

Both classes are symmetric in the generators, so the obstruction is
computed in the symmetric subring.  Its basis is the elementary
symmetric classes sigma_i (the sum of all square-free monomials of
degree i, with sigma_k = e_1 ... e_k), and a product of two of them
counts the splittings of each monomial of degree i + j:
sigma_i sigma_j = C(i+j, i) sigma_(i+j), which vanishes past degree k.
A class is then k + 1 integers and a product costs O(k^2).

The dense ring (``MultilinearClass``: coefficient number m, a bitmask
over the k generators, is the coefficient of prod_{j in m} e_j, and a
product costs 3^k) stays as the reference that the subring computation
is tested against; nothing on the command-line path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import ConsistencyError, InputError

#: The generator counts accepted, by the dense ring and by
#: ``min_trivial_embedding_rank`` alike; beyond this we refuse.
MAX_GENERATORS = 20


@dataclass(frozen=True)
class MultilinearClass:
    """Element of Z[e_1..e_k]/(e_j^2) with dense bitmask-indexed coefficients."""

    k: int
    coefficients: tuple

    def __post_init__(self):
        if self.k < 0:
            raise InputError(f"generator count must be >= 0, got {self.k}")
        if self.k > MAX_GENERATORS:
            raise InputError(
                f"k = {self.k} exceeds the dense-storage cap {MAX_GENERATORS}"
            )
        if len(self.coefficients) != 1 << self.k:
            raise InputError(
                f"need {1 << self.k} coefficients for k = {self.k}, "
                f"got {len(self.coefficients)}"
            )

    def coefficient(self, subset) -> int:
        """Coefficient of prod_{j in subset} e_j (generators numbered 1..k)."""
        return self.coefficients[self._mask(subset)]

    def _mask(self, subset) -> int:
        mask = 0
        for j in subset:
            if not 1 <= j <= self.k:
                raise InputError(f"generator index {j} outside 1..{self.k}")
            bit = 1 << (j - 1)
            if mask & bit:
                raise InputError(f"repeated generator index {j}")
            mask |= bit
        return mask

    @property
    def constant_term(self) -> int:
        return self.coefficients[0]

    def top_coefficient(self) -> int:
        """Coefficient of the full monomial e_1 e_2 ... e_k."""
        return self.coefficients[(1 << self.k) - 1]


def from_coefficients(k: int, coeffs: dict) -> MultilinearClass:
    """Build a class from a {subset: coefficient} mapping."""
    dense = [0] * (1 << k)
    probe = MultilinearClass(k, tuple(dense))
    for subset, c in coeffs.items():
        dense[probe._mask(subset)] = int(c)
    return MultilinearClass(k, tuple(dense))


def one(k: int) -> MultilinearClass:
    coeffs = [0] * (1 << k)
    coeffs[0] = 1
    return MultilinearClass(k, tuple(coeffs))


def generator(k: int, j: int) -> MultilinearClass:
    """The generator e_j as a class."""
    if not 1 <= j <= k:
        raise InputError(f"generator index {j} outside 1..{k}")
    coeffs = [0] * (1 << k)
    coeffs[1 << (j - 1)] = 1
    return MultilinearClass(k, tuple(coeffs))


def add(a: MultilinearClass, b: MultilinearClass) -> MultilinearClass:
    _same_ring(a, b)
    return MultilinearClass(a.k, tuple(x + y for x, y in zip(a.coefficients, b.coefficients)))


def scale(c: int, a: MultilinearClass) -> MultilinearClass:
    return MultilinearClass(a.k, tuple(c * x for x in a.coefficients))


def multiply(a: MultilinearClass, b: MultilinearClass) -> MultilinearClass:
    """Product in the square-zero ring.

    The coefficient of a subset S is sum over disjoint splittings
    S = A ∪ B of a[A] b[B]; everything with a repeated generator dies.
    Enumerating submasks of each S costs 3^k total.
    """
    _same_ring(a, b)
    ac, bc = a.coefficients, b.coefficients
    out = [0] * (1 << a.k)
    for s in range(1 << a.k):
        acc = ac[0] * bc[s]
        sub = s
        while sub:  # proper nonzero submasks of s, descending
            acc += ac[sub] * bc[s ^ sub]
            sub = (sub - 1) & s
        out[s] = acc
    return MultilinearClass(a.k, tuple(out))


def total_chern_product_bundle(k: int) -> MultilinearClass:
    """prod_{j=1..k} (1 + e_j): every one of the 2^k coefficients is 1."""
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    if k > MAX_GENERATORS:
        raise InputError(f"k = {k} exceeds the dense-storage cap {MAX_GENERATORS}")
    return MultilinearClass(k, tuple([1] * (1 << k)))


def invert_unit(a: MultilinearClass) -> MultilinearClass:
    """Exact inverse of a unit (constant term +-1) via the Neumann sum.

    Writing a = a0 (1 + u) with u nilpotent, the inverse is
    a0 * sum_{i=0..k} (-u)^i; the sum is finite because any product of
    more than k positive-degree monomials repeats a generator.
    """
    a0 = a.constant_term
    if a0 not in (1, -1):
        raise InputError(f"constant term must be +-1 to invert, got {a0}")
    # u = a/a0 - 1 has zero constant term.
    u = list(scale(a0, a).coefficients)
    u[0] = 0
    minus_u = MultilinearClass(a.k, tuple(-c for c in u))
    result = one(a.k)
    power = one(a.k)
    for _ in range(a.k):
        power = multiply(power, minus_u)
        if not any(power.coefficients):
            break
        result = add(result, power)
    return scale(a0, result)


def symmetric_multiply(a: tuple, b: tuple) -> tuple:
    """Product in the symmetric subring of Z[e_1..e_k]/(e_j^2).

    A class is the tuple (c_0, ..., c_k) of its coefficients on
    sigma_0 = 1, sigma_1, ..., sigma_k.  The product's coefficient of
    sigma_n is sum_{i+j=n} C(n, i) a_i b_j; degrees past k vanish.
    """
    if len(a) != len(b):
        raise InputError(
            f"mismatched symmetric classes of lengths {len(a)} and {len(b)}"
        )
    return tuple(
        sum(comb(n, i) * a[i] * b[n - i] for i in range(n + 1)) for n in range(len(a))
    )


@dataclass(frozen=True)
class EmbeddingRankBound:
    """Derivation record for the minimal trivial-embedding rank.

    A complementary bundle inside a trivial one would have inverse total
    class; since that inverse has nonzero top coefficient, the
    complement has rank at least k, so the trivial bundle has rank at
    least k + k.

    The record comes from the symmetric subring: the total class is
    sum sigma_i, the claimed inverse prod (1 - e_j) is
    sum (-1)^i sigma_i, ``product_is_one`` says that their product,
    multiplied out by the binomial rule, is 1, and ``top_coefficient``
    is the inverse's sigma_k coefficient.  The dense ring's
    ``invert_unit`` gives the same inverse and serves as the oracle.
    """

    k: int
    min_rank: int
    top_coefficient: int
    complement_rank_lb: int
    product_is_one: bool


def min_trivial_embedding_rank(k: int) -> EmbeddingRankBound:
    """Least rank of a trivial bundle containing the k-fold line-bundle product."""
    if k < 0:
        raise InputError(f"k must be >= 0, got {k}")
    if k > MAX_GENERATORS:
        raise InputError(f"k = {k} exceeds the cap {MAX_GENERATORS}")
    total = (1,) * (k + 1)
    inverse = tuple((-1) ** i for i in range(k + 1))
    top = inverse[k]
    product_ok = symmetric_multiply(total, inverse) == (1,) + (0,) * k
    if not product_ok:
        raise ConsistencyError(f"inverse verification failed for k = {k}")
    complement_lb = k if top != 0 else 0
    return EmbeddingRankBound(
        k=k,
        min_rank=k + complement_lb,
        top_coefficient=top,
        complement_rank_lb=complement_lb,
        product_is_one=product_ok,
    )


def _same_ring(a: MultilinearClass, b: MultilinearClass) -> None:
    if a.k != b.k:
        raise InputError(f"mismatched generator counts {a.k} and {b.k}")
