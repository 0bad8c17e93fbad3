"""Canonical parsing and formatting of exact rationals.

Every rational that appears in a JSON report is rendered as "p/q" in
lowest terms with q >= 1 and the sign carried by p.  This keeps reports
byte-reproducible and trivially parseable from any language.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to Fraction, rejecting floats.

    Floats are rejected on purpose: certified comparisons must never be
    seeded from binary approximations.
    """
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise InputError(
            f"refusing to coerce float {value!r} to an exact rational; "
            "pass a Fraction, int, or 'p/q' string"
        )
    raise InputError(f"cannot interpret {value!r} as an exact rational")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (ASCII decimal integers, optional leading sign)."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(integer(num), integer(den))
        return Fraction(integer(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"malformed rational {text!r}: {exc}") from exc


def format_rational(value) -> str:
    """Render as "p/q" in lowest terms (always with the denominator); an
    int is "n/1", printed without building a ``Fraction``."""
    if type(value) is int:
        p, q = value, 1
    else:
        f = as_fraction(value)
        p, q = f.numerator, f.denominator
    try:
        return f"{p}/{q}"
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        return f"{_decimal(p)}/{_decimal(q)}"


#: Messages print rationals whose numerator and denominator together have
#: at most this many bits in full, larger ones by their leading decimals.
_BRIEF_BITS = 128

#: The interpreter's default int-to-str digit limit: integer parts up to
#: this long are shown in full, as str() shows them.
_BRIEF_DIGITS = 4300


def brief(value) -> str:
    """``value`` for an error message: "p/q" when short, else "~" and its
    first twelve decimals (by integer division), so that a message never
    carries the thousands of digits of a horizon^2-bit rational.  An
    integer part of more than _BRIEF_DIGITS digits is shown by its
    leading twelve digits and its digit count."""
    f = as_fraction(value)
    if f.numerator.bit_length() + f.denominator.bit_length() <= _BRIEF_BITS:
        return format_rational(f)
    scaled = abs(f.numerator) * 10 ** 12 // f.denominator
    sign = "-" if f < 0 else ""
    whole = _decimal(scaled // 10 ** 12)
    if len(whole) > _BRIEF_DIGITS:
        return f"~{sign}{whole[:12]}... ({len(whole)} digits)"
    return f"~{sign}{whole}.{scaled % 10 ** 12:012d}"


def shown(value) -> str:
    """``value`` for an error message as str() prints it, or by ``brief``
    where str() refuses it (past the int-to-str digit limit)."""
    try:
        return str(value)
    except ValueError:
        return brief(value)


#: Integers up to this bit length (about 600 digits) go through str()
#: directly: that stays below every value sys.set_int_max_str_digits accepts.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """Decimal digits of n, however large.

    Since Python 3.11 str() refuses integers beyond a digit limit (4300
    digits by default); larger ones are split by a power of ten into
    halves converted on their own, so no interpreter setting changes.
    """
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    low_digits = n.bit_length() * 3 // 20  # about half of the digit count
    high, low = divmod(n, 10 ** low_digits)
    return _decimal(high) + _decimal(low).zfill(low_digits)


#: Numerals up to this many digits go through int() directly: that stays
#: below every value sys.set_int_max_str_digits accepts.
_INT_DIGITS = 600


def integer(text: str) -> int:
    """The integer of a numeral ``[+-]?[0-9]+`` in ASCII, surrounding
    whitespace aside; int() alone would also take ``3_0`` and non-ASCII
    digits.

    The inverse of _decimal, also beyond the interpreter's str-to-int
    digit limit: a long run of digits is split in two, each half read on
    its own and the two combined by a power of ten, so no interpreter
    setting changes.
    """
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {s!r}")
    return -_digits(digits) if s[0] == "-" else _digits(digits)


def _digits(digits: str) -> int:
    if len(digits) <= _INT_DIGITS:
        return int(digits)
    cut = len(digits) // 2
    return _digits(digits[:cut]) * 10 ** (len(digits) - cut) + _digits(digits[cut:])
