from fractions import Fraction

import pytest

from ahcert.errors import InputError
from ahcert.rationals import format_rational, parse_rational


@pytest.mark.parametrize(
    "value",
    [
        Fraction(10 ** 5000 + 1, 3),
        Fraction(-(10 ** 9000 + 7), 10 ** 4400 - 1),
        Fraction(-(2 ** 20000)),
        Fraction(5, 7),
        Fraction(0),
    ],
)
def test_rationals_round_trip_beyond_the_digit_limit(value):
    assert parse_rational(format_rational(value)) == value


@pytest.mark.parametrize(
    "text", ["1" * 5000 + "x", "--" + "1" * 5000, "1" * 5000 + "/0", "1/" + "0" * 5000]
)
def test_long_malformed_numerals_are_refused(text):
    with pytest.raises(InputError):
        parse_rational(text)


def test_brief_keeps_short_rationals_and_abbreviates_long_ones():
    from ahcert.rationals import brief

    assert brief(Fraction(-7, 5)) == "-7/5"
    long = Fraction(10 ** 5000 + 1, 3 * 10 ** 5000)
    assert brief(long) == "~0.333333333333"
    assert brief(-1 - long) == "~-1.333333333333"
