"""Integer sequences and certified rational constants of the diagonal system.

A parameter family fixes two sequences d(n), k(n) of nonnegative integers
with d(0) = 1 and k(0) = 0.  From them we derive

    l(n) = d(n) + k(n),
    r(n) = prod_{j<=n} l(j),        (matrix size at stage n)
    s(n) = prod_{j<=n} d(j),        (pure-projection block count)
    t(0) = 0,
    t(n+1) = d(n+1) t(n) + k(n+1) (r(n) - t(n)),

and the governing constants

    kappa  = inf_n s(n)/r(n),
    omega  = k(1)/l(1),
    omega' = sum_{n>=2} k(n)/l(n).

kappa and omega' are limits, so a finite machine can only certify
one-sided bounds for them: a lower bound for kappa, an upper bound for
omega'.  Both are produced from partial data plus a *tail majorant*: an
exact rational upper bound on sum_{j>n} k(j)/l(j).  For the geometric
family (d(n) = N^n, k(n) = 1) the majorant is built in; explicit
families may supply their own, and without one every bound is marked
horizon-limited.

At horizon H these bounds are ratios of integers of about H^2 bits,
while the margins they certify are constants.  ``sequences`` therefore
rounds each bound once, in the sound direction, to a short dyadic
*witness*, tied to its exact value by one *link check* (an integer
cross-multiplication).  Every certificate downstream reads the
witnesses.  They start at a precision taken from the input
(``starting_bits``); a caller left undecided by the rounding doubles the
bits, and the exact values come last (``first_decided``), so no verdict
is lost to rounding.

The starting witnesses come from three *directed-rounding chains* of
O(H) steps over the small ratios d(j)/l(j), (d(j) - k(j))/l(j) and
k(j)/l(j): a running product or sum kept at p fractional bits, its lower
end rounded down and its upper end up at every step, so the two ends
always enclose the exact value (Rump, "Verification methods", Acta
Numerica 19, 2010).  When both ends round to the same dyadic, that is
the correctly rounded witness; only when they do not (an exact value on
the witness grid, say) is the exact value read (Ziv, "Fast evaluation of
elementary mathematical functions with correctly rounded last bit", ACM
TOMS 17(3), 1991).  p only sets how often that happens.  Each step of a
product subtracts a short quotient rather than multiplying by d(j)
(``_chain_ends``), and a step whose quotients are all 0, 1 or -1 is
only counted, so in the geometric family most steps of a long chain cost
no division.

The exact bounds read four horizon values, computed on first read and
shared by every refinement of the table (``HorizonValues``): s(H) is a
balanced product of the d(j); r(H) and the numerator P of
sum_{j=2..H} k(j)/l(j) = P/r(H) come from one binary-splitting sum,
whose denominator is the product of the l(j); and the t recursion gives
r(n+1) - 2 t(n+1) = (d - k)(r(n) - 2 t(n)), so

    t(H) = (r(H) - l(0) prod_{1<=j<=H} (d(j) - k(j))) / 2.

Each is a product tree over H integers, so the cost is about that of
multiplying two H^2-bit integers, times log H (Haible and Papanikolaou,
"Fast multiprecision evaluation of series of rational numbers", 1998).
The stages r(n), s(n), t(n) themselves are tabulated lazily, by the
recursions, only as far as a caller reads them (``SequenceTable.stage``).

All arithmetic in this module is exact; there is no floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, count, islice, repeat
from operator import add, attrgetter, eq, ge, gt, le, lt, mul
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import InconclusiveAtHorizon, InputError, RefusedAtPrecision
from .rationals import as_fraction, brief

#: Evidence levels for constraint verdicts.
EVIDENCE_EXACT = "exact"                      # finite data decides it outright
EVIDENCE_CERTIFIED = "certified-bound"        # via a one-sided certified bound
EVIDENCE_HORIZON_LIMITED = "horizon-limited"  # only checked up to the horizon

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ParamFamily:
    """A family of sequences d, k together with an optional tail majorant.

    ``tail_majorant(n)`` must return an exact rational upper bound on
    sum_{j>n} k(j)/(d(j)+k(j)), nonincreasing in n.  ``length`` is the
    largest index for which d and k are defined (None = unbounded).
    ``columns_of(n)`` returns the tuples d(0..n) and k(0..n) at once
    (``columns``); ``d``, ``k`` and ``l`` read them.
    """

    columns_of: Callable[[int], tuple]
    tail_majorant: Optional[Callable[[int], Fraction]] = None
    length: Optional[int] = None

    def d(self, n: int) -> int:
        return self.columns(n)[0][n]

    def k(self, n: int) -> int:
        return self.columns(n)[1][n]

    def l(self, n: int) -> int:
        d, k = self.columns(n)
        return d[n] + k[n]

    def columns(self, n: int) -> tuple:
        """(d, k): the tuples d(0..n) and k(0..n)."""
        self._check_index(n)
        return self.columns_of(n)

    def tail(self, n: int) -> Fraction:
        if self.tail_majorant is None:
            raise InputError(
                "family has no tail majorant; bounds are horizon-limited"
            )
        return self.tail_majorant(n)

    @property
    def horizon_limited(self) -> bool:
        return self.tail_majorant is None

    def _check_index(self, n: int) -> None:
        if n < 0:
            raise InputError(f"sequence index must be >= 0, got {n}")
        if self.length is not None and n > self.length:
            raise InputError(
                f"explicit family defines stages 0..{self.length}, got {n}"
            )


def make_geometric_family(N: int) -> ParamFamily:
    """The family d(n) = N^n, k(n) = 1 for n >= 1 (d(0)=1, k(0)=0).

    Its evaluation fractions satisfy k(n)/l(n) = 1/(N^n + 1) < N^-n, so
    sum_{j>n} k(j)/l(j) <= sum_{j>n} N^-j = N^-n/(N-1), which is the
    built-in tail majorant.
    """
    if not isinstance(N, int) or N < 2:
        raise InputError(f"geometric family requires integer N >= 2, got {N!r}")

    def columns_of(n: int) -> tuple:
        # N^j as a running product: one short multiplication a stage.
        return tuple(accumulate(repeat(N, n), mul, initial=1)), (0,) + (1,) * n

    def tail(n: int) -> Fraction:
        if n < 0:
            raise InputError(f"tail majorant index must be >= 0, got {n}")
        return Fraction(1, N ** n * (N - 1))

    return ParamFamily(columns_of=columns_of, tail_majorant=tail)


def is_integer(x) -> bool:
    """An integer; booleans are not read as 0 and 1, floats not truncated."""
    return isinstance(x, int) and not isinstance(x, bool)


def make_explicit_family(
    d: Sequence[int],
    k: Sequence[int],
    tail_majorant: Optional[Callable[[int], Fraction]] = None,
) -> ParamFamily:
    """Wrap explicit integer lists d, k (indexed from stage 0).

    Without a tail majorant the family still works, but every limit
    bound derived from it is horizon-limited.
    """
    d = list(d)
    k = list(k)
    if len(d) != len(k):
        raise InputError(f"d and k must have equal length, got {len(d)} and {len(k)}")
    if not d:
        raise InputError("explicit family needs at least stage 0")
    if d[0] != 1 or k[0] != 0:
        raise InputError(f"stage 0 must have d(0)=1, k(0)=0, got d={d[0]}, k={k[0]}")
    for n, (dn, kn) in enumerate(zip(d, k)):
        if not is_integer(dn) or not is_integer(kn) or dn < 0 or kn < 0:
            raise InputError(f"d({n}), k({n}) must be nonnegative integers")
    return ParamFamily(
        columns_of=lambda n: (tuple(d[: n + 1]), tuple(k[: n + 1])),
        tail_majorant=tail_majorant,
        length=len(d) - 1,
    )


def evaluation_fraction(j: int, d_j: int, k_j: int) -> Fraction:
    """k(j)/l(j) for stage j, refusing a stage with no summands."""
    l_j = d_j + k_j
    if l_j == 0:
        raise _no_summands(j)
    return Fraction(k_j, l_j)


def _no_summands(j: int) -> InputError:
    return InputError(f"l({j}) = 0: stage {j} has no summands")


def geometric_ratio_majorant(d: Sequence[int], k: Sequence[int], N: int):
    """Tail majorant asserting k(j)/l(j) <= N^-j, verified on the given range.

    The per-term bound is checked exactly for every supplied stage; the
    caller asserts it for stages beyond the list.
    """
    if N < 2:
        raise InputError(f"majorant ratio base must be >= 2, got {N}")
    power = 1  # N^j
    for j in range(1, len(d)):
        power *= N
        l_j = d[j] + k[j]
        if l_j == 0:
            raise _no_summands(j)
        if k[j] * power > l_j:  # k(j)/l(j) > N^-j, on integers
            raise InputError(
                f"k({j})/l({j}) exceeds {N}^-{j}; geometric majorant unsound"
            )

    def tail(n: int) -> Fraction:
        return Fraction(1, N ** n * (N - 1))

    return tail


def table_majorant(d: Sequence[int], k: Sequence[int], values: Sequence):
    """Tail majorant read from an explicit table, verified on the given range.

    ``values[n]`` must bound sum_{j>n} k(j)/l(j).  The table must cover
    every supplied stage, be nonnegative and nonincreasing, and each value
    is checked exactly against the sum over the supplied stages j > n;
    the caller asserts the bound for stages beyond the list.
    """
    values = tuple(as_fraction(v) for v in values)
    if len(values) < len(d):
        raise InputError("tail table must cover every supplied stage")
    if any(b > a for a, b in zip(values, values[1:])):
        raise InputError("tail table must be nonincreasing")
    if any(v < 0 for v in values):
        raise InputError("tail table values must be nonnegative")
    supplied_tail = Fraction(0)  # sum_{j>n} k(j)/l(j) over supplied stages
    for n in range(len(d) - 1, -1, -1):
        if values[n] < supplied_tail:
            raise InputError(
                f"tail table value {brief(values[n])} at stage {n} is below the sum "
                f"{brief(supplied_tail)} of k(j)/l(j) over the supplied stages j > {n}"
            )
        if n > 0:
            supplied_tail += evaluation_fraction(n, d[n], k[n])

    def tail(n: int) -> Fraction:
        if not 0 <= n < len(values):
            raise InputError(f"tail table covers 0..{len(values) - 1}, got {n}")
        return values[n]

    return tail


@dataclass(slots=True)
class Check:
    """One recorded comparison ``lhs rel rhs``, re-derivable from its sides.

    Both sides are exact rationals, except in a link check, which ties a
    short dyadic witness ``lhs`` to the exact value of a certified
    constant: there ``rhs`` is the constant's ``Enclosure``, compared by
    its numerator and denominator and reported as its ``side``, an
    expression in the tabulated sequences, so its digits are never
    printed.  The code that records a check decides its bounds on integer
    pairs and builds each side once, as a ``Fraction``, for the record;
    ``holds`` and ``reverify`` compare the sides by cross-multiplication,
    never by a ``Fraction`` operator.

    A certify run builds about forty of these.  A frozen dataclass sets
    each field through ``object.__setattr__``, which more than doubles the
    cost of building one; a slots dataclass assigns them directly.  So a
    record is mutable and unhashable; nothing here changes or hashes one.
    """

    name: str
    lhs: Fraction
    rel: str
    rhs: Fraction  # or an Enclosure
    holds: bool

    def reverify(self) -> bool:
        return _holds(self.lhs, self.rel, self.rhs) == self.holds


_REL_OPS = {"<": lt, "<=": le, ">": gt, ">=": ge, "==": eq}


def _holds(lhs, rel: str, rhs) -> bool:
    """lhs rel rhs, by integer cross-multiplication of two rationals with
    positive denominators."""
    try:
        op = _REL_OPS[rel]
    except KeyError:
        raise InputError(f"unknown relation {rel!r}") from None
    return op(lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator)


def check(name: str, lhs, rel: str, rhs) -> Check:
    """The record of ``lhs rel rhs``, the one path every recorded
    comparison takes.  A side that is not already a ``Fraction`` (an int,
    a "p/q" string) is coerced by ``as_fraction``; the certificates pass
    the ``Fraction`` they built once for the record, which is kept as is.
    """
    if type(lhs) is not Fraction:
        lhs = as_fraction(lhs)
    if type(rhs) is not Fraction:
        rhs = as_fraction(rhs)
    return Check(name, lhs, rel, rhs, _holds(lhs, rel, rhs))


def _scaled(num: int, den: int, bits: int, up: bool) -> int:
    """num/den (den > 0) times 2^bits, rounded up or down, by one floor
    division: the numerator of its witness over 2^bits."""
    if up:
        return -((-num << bits) // den)
    return (num << bits) // den


class HorizonValues:
    """The exact certified constants at the horizon, as unreduced integer
    ratios of r(H), s(H), t(H) and P (see the module docstring).

    ``ratios`` is computed by the product trees on first read and cached;
    every refinement of a table shares this object, so the trees are
    built at most once per tabulation, and never when the chains decide.
    """

    def __init__(self, d: tuple, k: tuple, l: tuple, a: int, b: int):
        self.d, self.k, self.l = d, k, l
        self.a, self.b = a, b  # the tail majorant a/b (0/1 without one)

    @cached_property
    def ratios(self) -> dict:
        """Constant name -> (num, den), den > 0."""
        d, k, l, a, b = self.d, self.k, self.l, self.a, self.b
        H = len(d) - 1
        # sum_{j=2..H} k(j)/l(j) = P/r(H), summed over the product of the l(j).
        head = l[0] * l[1]
        Q, T = _split_sum(k, l, 2, H + 1)
        rH, P = head * Q, head * T
        sH = _product(d, 0, H + 1)
        # r(n) - 2 t(n) = l(0) prod_{1<=j<=n} (d(j) - k(j)), from the t recursion.
        tH = (rH - l[0] * _product([dj - kj for dj, kj in zip(d, k)], 1, H + 1)) // 2
        return {
            "kappa_lb": (sH * (b - a), rH * b),
            "kappa_ub": (sH, rH),
            "omega_prime_ub": (P * b + a * rH, rH * b),
            "omega_prime_partial": (P, rH),
            "tau_ub": (tH * b + a * rH, rH * b),
        }


@dataclass(frozen=True)
class Enclosure:
    """One certified constant: its exact value, as ``numerator`` and
    ``denominator`` read from the shared ``HorizonValues`` only when asked
    for, and the direction in which its witnesses may be rounded."""

    name: str
    side: str
    round_up: bool
    values: HorizonValues = field(repr=False, compare=False)

    @property
    def numerator(self) -> int:
        return self.values.ratios[self.name][0]

    @property
    def denominator(self) -> int:
        return self.values.ratios[self.name][1]

    def link(self, bits: Optional[int], ends: Optional[tuple] = None) -> Check:
        """The witness with ``bits`` fractional bits on the sound side, tied
        to the exact value; ``bits=None`` gives the exact value.

        ``ends`` = (lo, hi, den) encloses the exact value in [lo/den,
        hi/den].  When both ends round to the same dyadic, that dyadic is
        the witness the exact value rounds to, and the link holds by the
        enclosure, so the exact value is not read.  Otherwise the witness
        is one floor division of the exact ratio.
        """
        rel = ">=" if self.round_up else "<="
        if ends is not None:
            lo, hi, den = ends
            w = _scaled(lo, den, bits, self.round_up)
            if w == _scaled(hi, den, bits, self.round_up):
                return Check(self.name, Fraction(w, 1 << bits), rel, self, True)
        num, den = self.numerator, self.denominator
        if bits is None:
            w = Fraction(num, den)
        else:
            w = Fraction(_scaled(num, den, bits, self.round_up), 1 << bits)
        return Check(self.name, w, rel, self, _holds(w, rel, self))


@dataclass(frozen=True)
class Witnesses:
    """Short dyadic stand-ins for the certified constants, each rounded
    in its sound direction: ``kappa_lb`` and ``omega_prime_partial`` down,
    ``kappa_ub``, ``omega_prime_ub`` and ``tau_ub`` (which bounds
    t(H)/r(H) + tail(H), see ``rcbounds.rc_upper``) up."""

    kappa_lb: Fraction
    kappa_ub: Fraction
    omega_prime_ub: Fraction
    omega_prime_partial: Fraction
    tau_ub: Fraction


class Stage(NamedTuple):
    """r(n), s(n), t(n) at one stage n."""

    r: int
    s: int
    t: int


@dataclass(frozen=True)
class SequenceTable:
    """Exact values of d, k, l, r, s, t up to a horizon, plus constants.

    d, k and l are tabulated up front.  The stages r(n), s(n), t(n) are
    tabulated by ``stage(n)``, only as far as a caller reads them; the
    prefix read so far is shared with every ``refined()`` table, and the
    whole tuples ``r``, ``s``, ``t`` tabulate every stage on first read.

    The certified constants are

      * ``kappa_lb`` = (s(H)/r(H)) (1 - tail(H)) at the horizon H, a
        lower bound for inf_n s(n)/r(n), valid at every stage, including
        beyond the horizon, whenever the family has a tail majorant: for
        m > H, s(m)/r(m) = (s(H)/r(H)) prod_{H<j<=m} (1 - k(j)/l(j)) >=
        (s(H)/r(H)) (1 - sum_{j>H} k(j)/l(j)) by the Weierstrass product
        inequality, and s(m)/r(m) is nonincreasing in m;
      * ``kappa_ub`` = s(horizon)/r(horizon), the upper envelope, useful
        for refutations;
      * ``omega_prime_ub``, an upper bound for the full series omega', and
        ``omega_prime_partial``, its horizon partial sum (a lower bound).

    Their exact values have about horizon^2 bits, so they are computed
    and read lazily (as attributes of these names, see ``HorizonValues``)
    and only checks that ask for them pay for them.  Every certificate
    reads ``witness`` instead:
    short dyadics rounded in the sound direction, each tied to its exact
    side by one check in ``links``.  The witnesses carry ``bits``
    fractional bits (None: they are the exact values); ``refined()``
    doubles the bits and ``precisions()`` walks to the exact values, so a
    caller left undecided by rounding can always fall back to exactness.
    """

    family: ParamFamily
    horizon: int
    d: tuple
    k: tuple
    l: tuple
    omega: Fraction
    kappa_lb_vacuous: bool
    horizon_limited: bool
    bits: Optional[int]
    witness: Witnesses
    links: tuple
    enclosures: tuple = field(repr=False, compare=False)
    stages: list = field(repr=False, compare=False)

    def stage(self, n: int) -> Stage:
        """r(n), s(n), t(n), extending the tabulated prefix up to n."""
        if not 0 <= n <= self.horizon:
            raise InputError(f"stage {n} outside horizon {self.horizon}")
        stages = self.stages
        while len(stages) <= n:
            j = len(stages)
            r, s, t = stages[-1]
            d, k = self.d[j], self.k[j]
            stages.append(Stage(r * (d + k), s * d, d * t + k * (r - t)))
        return stages[n]

    @cached_property
    def r(self) -> tuple:
        return tuple(self.stage(n).r for n in range(self.horizon + 1))

    @cached_property
    def s(self) -> tuple:
        return tuple(self.stage(n).s for n in range(self.horizon + 1))

    @cached_property
    def t(self) -> tuple:
        return tuple(self.stage(n).t for n in range(self.horizon + 1))

    @property
    def exact(self) -> bool:
        return self.bits is None

    @property
    def ulp(self) -> Fraction:
        """Bound on the rounding: each witness is within ulp of its value."""
        return Fraction(0) if self.exact else Fraction(1, 1 << self.bits)

    def refined(self) -> "SequenceTable":
        """The same tabulation with witnesses at twice the bits, or at the
        exact values once the bits reach the size of the exact ones."""
        if self.exact:
            raise InputError("the witnesses are already exact")
        bits = 2 * self.bits
        if bits > max(e.denominator.bit_length() for e in self.enclosures):
            bits = None
        return replace(self, **_rounded(self.enclosures, bits))

    def precisions(self):
        """This table, then each refinement up to the exact values."""
        table = self
        yield table
        while not table.exact:
            table = table.refined()
            yield table

    def _exact(self, name: str) -> Fraction:
        e = next(e for e in self.enclosures if e.name == name)
        return Fraction(e.numerator, e.denominator)

    @cached_property
    def kappa_lb(self) -> Fraction:
        return self._exact("kappa_lb")

    @cached_property
    def kappa_ub(self) -> Fraction:
        return self._exact("kappa_ub")

    @cached_property
    def omega_prime_ub(self) -> Fraction:
        return self._exact("omega_prime_ub")

    @cached_property
    def omega_prime_partial(self) -> Fraction:
        return self._exact("omega_prime_partial")


def _rounded(enclosures: tuple, bits: Optional[int], ends: Optional[dict] = None) -> dict:
    """The table fields that depend on the witness precision; ``ends``
    maps a constant's name to an enclosure of it (``Enclosure.link``)."""
    links = tuple(e.link(bits, ends[e.name] if ends else None) for e in enclosures)
    return {
        "bits": bits,
        "witness": Witnesses(**{link.name: link.lhs for link in links}),
        "links": links,
    }


def starting_bits(family: ParamFamily) -> int:
    """Witness precision to start from: 2 bitlen(l(1)) fractional bits.

    The constraints compare the witnesses with rationals in
    omega = k(1)/l(1), whose spacing is about 1/l(1)^2; callers left
    undecided double the bits from there (``SequenceTable.refined``).
    """
    return 2 * max(family.l(1).bit_length(), 1)


def sequences(family: ParamFamily, horizon: int) -> SequenceTable:
    """Tabulate d, k, l and round the certified constants.

    The starting witnesses are read off the directed-rounding chains
    (``_chain_ends``); the exact constants (``HorizonValues``), the only
    horizon^2-bit integers, are computed here only for a witness the
    chains leave undecided.  No stage is tabulated here;
    ``SequenceTable.stage`` does that on read.
    """
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    H = horizon
    d, k = family.columns(H)
    l = tuple(map(add, d, k))
    if 0 in l[1:]:
        raise _no_summands(l.index(0, 1))
    sum_side = f"sum_{{j=2..{H}}} k(j)/l(j)"

    if family.horizon_limited:
        # s(n)/r(n) is nonincreasing, so its minimum over 1..H sits at H.
        a, b = 0, 1
        tail_side = ""
        vacuous = False
    else:
        tail = family.tail(H)
        a, b = tail.numerator, tail.denominator
        tail_side = f" + tail({H})"
        vacuous = tail >= 1
    ratio = f"s({H})/r({H})"
    values = HorizonValues(d, k, l, a, b)
    enclosures = (
        Enclosure(
            "kappa_lb",
            ratio if family.horizon_limited else f"{ratio} (1 - tail({H}))",
            False, values,
        ),
        Enclosure("kappa_ub", ratio, True, values),
        Enclosure("omega_prime_ub", sum_side + tail_side, True, values),
        Enclosure("omega_prime_partial", sum_side, False, values),
        Enclosure("tau_ub", f"t({H})/r({H})" + tail_side, True, values),
    )
    bits = starting_bits(family)
    return SequenceTable(
        family=family,
        horizon=H,
        d=d,
        k=k,
        l=l,
        omega=Fraction(k[1], l[1]),
        kappa_lb_vacuous=vacuous,
        horizon_limited=family.horizon_limited,
        enclosures=enclosures,
        stages=[Stage(l[0], d[0], 0)],
        **_rounded(enclosures, bits, _chain_ends(k, l, a, b, bits)),
    )


def _chain_ends(k: tuple, l: tuple, a: int, b: int, bits: int) -> dict:
    """Constant name -> (lo, hi, den) with lo/den <= the exact value <= hi/den,
    from three directed-rounding chains at p fractional bits.

    Every step rounds the lower end down (floor) and the upper end up
    (ceiling), so each chain widens by at most two units of 2^-p a step
    and its ends enclose the exact value whatever p is.  p leaves
    H.bit_length() + _GUARD bits below the witness precision for that
    widening, so the ends rarely round apart.

    A step multiplies an end x (about p bits) by d(j)/l(j) = 1 - k(j)/l(j)
    or (d(j) - k(j))/l(j) = 1 - 2 k(j)/l(j), and d(j) has about j log2 N
    bits in the geometric family.  So the step subtracts a quotient
    instead: floor(x d/l) = x - ceil(x k/l) and ceil(x d/l) = x -
    floor(x k/l), since floor(x - y) = x - ceil(y) for integer x.  These
    are the same integers, but the dividend x k has p + bitlen(k) bits,
    and the quotient, at most x in size, shrinks to a few bits as l(j)
    grows.  When 2 k(j) > l(j) the factor is negative and swaps the ends;
    then |d(j) - k(j)| <= k(j), so the product stays as short.

    A step is *settled* when k(j) 2^(p+1) < l(j), as in most steps of a
    long geometric horizon, where l(j) outgrows 2^p.  The ends stay in
    0 <= s <= 2^p and |q| <= 2^p, so each quotient of a settled step
    rounds a number in (-1, 1): it is 0, 1 or -1, set by the sign of the
    end, by whether k(j) > 0 and by the direction of rounding.  Such a
    step is counted, not divided, and a run of them is applied at once
    (``_settled``), giving the same integers.
    """
    p = bits + (len(k) - 1).bit_length() + _GUARD
    one = 1 << p
    # kappa_ub = s(H)/r(H) = prod_{1<=j<=H} d(j)/l(j), as d(0) = l(0) = 1;
    # each factor is in [0, 1].
    s_lo = s_hi = one
    # q = prod_{1<=j<=H} (d(j) - k(j))/l(j) in [-1, 1], a signed interval.
    q_lo = q_hi = one
    # omega_prime_partial = sum_{j=2..H} k(j)/l(j): each sum starts at
    # minus its j = 1 term, which the loop adds back.
    w_lo = -((k[1] << p) // l[1])
    w_hi = (-k[1] << p) // l[1]
    # A step is settled when k(j) 2^(p+1) < l(j); m counts the settled
    # steps with k(j) > 0 not yet applied to the ends (_settled).
    m = 0
    p1 = p + 1
    # Ceilings are taken as ceil(x/l) = (x - 1)//l + 1: a dividend that
    # stays nonnegative spares the floor division its adjustment by l.
    for kj, lj in zip(k[1:], l[1:]):
        if kj << p1 < lj:
            if kj:
                m += 1
            continue
        if m:
            s_lo, q_lo, q_hi, w_hi = _settled(m, s_lo, q_lo, q_hi, w_hi)
            m = 0
        s_lo -= (s_lo * kj - 1) // lj + 1
        s_hi -= s_hi * kj // lj
        k2 = 2 * kj
        if k2 <= lj:
            q_lo -= (q_lo * k2 - 1) // lj + 1
            q_hi -= q_hi * k2 // lj
        else:
            c = lj - k2  # d(j) - k(j) < 0
            q_lo, q_hi = q_hi * c // lj, (q_lo * c - 1) // lj + 1
        x = kj << p
        w_lo += x // lj
        w_hi += (x - 1) // lj + 1
    s_lo, q_lo, q_hi, w_hi = _settled(m, s_lo, q_lo, q_hi, w_hi)
    # kappa_lb = kappa_ub (b - a)/b, exactly; b - a < 0 swaps the ends.
    c = b - a
    kappa_lb = (s_lo * c, s_hi * c) if c >= 0 else (s_hi * c, s_lo * c)
    tail = a * one  # a/b over the common denominator one * b
    return {
        "kappa_lb": (*kappa_lb, one * b),
        "kappa_ub": (s_lo, s_hi, one),
        "omega_prime_ub": (w_lo * b + tail, w_hi * b + tail, one * b),
        "omega_prime_partial": (w_lo, w_hi, one),
        # t(H)/r(H) = (1 - q)/2, so tau_ub = ((1 - q) b + 2a)/(2b).
        "tau_ub": ((one - q_hi) * b + 2 * tail, (one - q_lo) * b + 2 * tail, 2 * one * b),
    }


def _settled(m: int, s_lo: int, q_lo: int, q_hi: int, w_hi: int) -> tuple:
    """The chain ends that move, after m settled steps with k(j) > 0.

    Such a step rounds numbers in (-1, 1) that are 0 only at a zero end:
    a ceiling of a positive one is 1 and a floor 0, a ceiling of a
    negative one 0 and a floor -1.  So s_lo and a positive q_lo fall by 1
    a step down to 0, a negative q_hi rises by 1 up to 0, and w_hi, whose
    summand k(j) 2^p/l(j) is positive, rises by 1; s_hi, w_lo and any
    other q end stay.
    """
    return (
        max(s_lo - m, 0),
        max(q_lo - m, 0) if q_lo > 0 else q_lo,
        min(q_hi + m, 0) if q_hi < 0 else q_hi,
        w_hi + m,
    )


#: Bits of the chains below the widening allowance.  The ends of a value
#: off the witness grid round apart (and the exact value is read) for at
#: most about one witness in 2^(_GUARD - 1); a value on the grid always
#: reads the exact value.
_GUARD = 16


def _product(values: Sequence[int], lo: int, hi: int) -> int:
    """prod values[lo:hi], by a balanced product tree."""
    if hi - lo <= _LEAF:
        return math.prod(values[lo:hi])
    mid = (lo + hi) // 2
    return _product(values, lo, mid) * _product(values, mid, hi)


def _split_sum(k: Sequence[int], l: Sequence[int], lo: int, hi: int) -> tuple:
    """(Q, T) with Q = prod l[lo:hi] and T/Q = sum_{lo<=j<hi} k(j)/l(j),
    by binary splitting: T = sum_j k(j) Q/l(j), with no division."""
    if hi - lo <= _LEAF:
        Q, T = 1, 0
        for j in range(lo, hi):
            Q, T = Q * l[j], T * l[j] + k[j] * Q
        return Q, T
    mid = (lo + hi) // 2
    Q1, T1 = _split_sum(k, l, lo, mid)
    Q2, T2 = _split_sum(k, l, mid, hi)
    return Q1 * Q2, T1 * Q2 + T2 * Q1


#: Ranges this short are multiplied out in order: their factors are small.
_LEAF = 8


def first_decided(table: SequenceTable, attempt: Callable, decided=lambda result: True):
    """``attempt(t)`` for t = the table, then at twice the witness bits,
    and so on up to the exact values; returns the first decided result.

    At a witness precision, RefusedAtPrecision or InconclusiveAtHorizon may
    come from rounding alone, so it moves on to more bits; on the exact
    values it propagates.  Every verdict the exact values reach is reached.
    """
    for current in table.precisions():
        try:
            result = attempt(current)
        except (RefusedAtPrecision, InconclusiveAtHorizon):
            if current.exact:
                raise
            continue
        if decided(result) or current.exact:
            return result


@dataclass(frozen=True)
class ConstraintEntry:
    """Verdict for one named constraint.

    status is "pass" (holds, using sound one-sided bounds where a limit
    is involved), "fail" (an exact counter-witness exists in the finite
    data), or "inconclusive" (the certified bound is too loose to decide
    either way).
    """

    name: str
    status: str
    evidence: str
    checks: tuple
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.status == STATUS_PASS

    _report_keys = {"holds": attrgetter("holds")}


@dataclass(frozen=True)
class ConstraintReport:
    entries: tuple
    table: SequenceTable

    _report_keys = {"table": None, "all_passed": attrgetter("all_passed"),
                    "exactly_refuted": attrgetter("exactly_refuted")}

    @property
    def all_passed(self) -> bool:
        return all(e.status == STATUS_PASS for e in self.entries)

    @property
    def exactly_refuted(self) -> bool:
        return any(e.status == STATUS_FAIL for e in self.entries)

    def entry(self, name: str) -> ConstraintEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def reverify(self) -> bool:
        return all(c.reverify() for e in self.entries for c in e.checks)


def check_constraints(table, horizon: Optional[int] = None) -> ConstraintReport:
    """Evaluate every structural constraint of the family, exactly.

    ``table`` is a ``SequenceTable``; a ``ParamFamily`` is tabulated to
    ``horizon`` first.  The limit constants enter through the table's
    witnesses.  Constraints on the limit kappa are decided three ways:
    they pass if they hold with the lower witness kappa_lb (the sound
    direction for every downstream use), they fail if violated even by
    the upper witness of the envelope s(horizon)/r(horizon) >= kappa, and
    are inconclusive otherwise.  Likewise omega' uses its upper witness
    to pass and the witness of its partial sum (a lower bound) to refute.
    A constraint left inconclusive only by rounding is decided by the
    same table at more bits (``first_decided``).  Failures are reported,
    never raised.
    """
    if isinstance(table, ParamFamily):
        table = sequences(table, horizon)
    horizon = table.horizon
    w = table.witness
    evidence_limit = (
        EVIDENCE_HORIZON_LIMITED if table.horizon_limited else EVIDENCE_CERTIFIED
    )
    entries = []

    # k(n) < d(n) at every tabulated stage.  Violations are exact; the
    # note lists the first eight.
    bad = list(islice(compress(count(), map(ge, table.k, table.d)), 8))
    witness_n = bad[0] if bad else horizon
    entries.append(
        ConstraintEntry(
            name="k_lt_d",
            status=STATUS_FAIL if bad else STATUS_PASS,
            evidence=EVIDENCE_EXACT,
            checks=(
                check(
                    f"k({witness_n}) < d({witness_n})",
                    table.k[witness_n],
                    "<",
                    table.d[witness_n],
                ),
            ),
            note="" if not bad else f"violated at stages {bad}",
        )
    )

    half = Fraction(1, 2)

    def limit_entry(name, pass_checks, fail_checks, note=""):
        """Three-way verdict from sound-bound checks vs exact refutation."""
        if all(c.holds for c in pass_checks):
            return ConstraintEntry(
                name, STATUS_PASS, evidence_limit, tuple(pass_checks), note
            )
        if not all(c.holds for c in fail_checks):
            refuting = tuple(c for c in fail_checks if not c.holds)
            return ConstraintEntry(
                name, STATUS_FAIL, EVIDENCE_EXACT, tuple(pass_checks) + refuting, note
            )
        return ConstraintEntry(
            name, STATUS_INCONCLUSIVE, evidence_limit, tuple(pass_checks), note
        )

    # Each rational below is an integer pair x_p/x_q with x_q > 0, and a
    # Fraction is built once for each one a check records.
    omega = table.omega
    omega_p, omega_q = omega.numerator, omega.denominator
    two_omega = Fraction(2 * omega_p, omega_q)
    # 2 kappa - 1 at the lower and the upper witness
    lower_q, upper_q = w.kappa_lb.denominator, w.kappa_ub.denominator
    lower_p = 2 * w.kappa_lb.numerator - lower_q
    upper_p = 2 * w.kappa_ub.numerator - upper_q
    lower_gap = Fraction(lower_p, lower_q)
    upper_gap = Fraction(upper_p, upper_q)

    # kappa > 1/2, attempted with kappa_lb, refuted with the envelope.
    entries.append(
        limit_entry(
            "kappa_gt_half",
            [check("kappa_lb > 1/2", w.kappa_lb, ">", half)],
            [check("kappa_ub > 1/2", w.kappa_ub, ">", half)],
        )
    )

    # omega' < omega < 1/2.  omega is exact; omega' needs both bounds.
    omega_below_half = check("omega < 1/2", omega, "<", half)
    entries.append(
        limit_entry(
            "omega_window",
            [check("omega_prime_ub < omega", w.omega_prime_ub, "<", omega), omega_below_half],
            [
                check("omega_prime_partial < omega", w.omega_prime_partial, "<", omega),
                omega_below_half,
            ],
        )
    )

    # 2*kappa - 1 > 2*omega.
    entries.append(
        limit_entry(
            "comparison_gap",
            [check("2*kappa_lb - 1 > 2*omega", lower_gap, ">", two_omega)],
            [check("2*kappa_ub - 1 > 2*omega", upper_gap, ">", two_omega)],
        )
    )

    # 1/(1 - 2*omega) < (2*kappa - 1)/(2*omega): the separation margin.
    if not (0 < omega_p and 2 * omega_p < omega_q):
        entries.append(
            ConstraintEntry(
                name="separation_margin",
                status=STATUS_FAIL,
                evidence=EVIDENCE_EXACT,
                checks=(check("0 < omega < 1/2", omega, "<", half),),
                note="margin undefined unless 0 < omega < 1/2",
            )
        )
    else:
        upper = Fraction(omega_q, omega_q - 2 * omega_p)  # 1/(1 - 2 omega)
        entries.append(
            limit_entry(
                "separation_margin",
                [
                    check(
                        "1/(1-2*omega) < (2*kappa_lb - 1)/(2*omega)",
                        upper,
                        "<",
                        Fraction(lower_p * omega_q, lower_q * 2 * omega_p),
                    )
                ],
                [
                    check(
                        "1/(1-2*omega) < (2*kappa_ub - 1)/(2*omega)",
                        upper,
                        "<",
                        Fraction(upper_p * omega_q, upper_q * 2 * omega_p),
                    )
                ],
            )
        )

    return ConstraintReport(entries=tuple(entries), table=table)
