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


def test_integers_format_past_the_digit_limit():
    assert format_rational(10 ** 4400) == "1" + "0" * 4400 + "/1"
    assert format_rational(-(10 ** 4400)) == "-1" + "0" * 4400 + "/1"


@pytest.mark.parametrize(
    "text",
    [
        "1" * 5000 + "x",
        "--" + "1" * 5000,
        "1" * 5000 + "/0",
        "1/" + "0" * 5000,
        # int() reads these two as 30/20 and 3/2; only ASCII digits are numerals.
        "3_0/2_0",
        "\u0663/\u0662",
        "1" * 300 + "_" + "1" * 301,  # 601 digits
    ],
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


def test_brief_counts_the_digits_of_an_integer_part_past_the_str_limit():
    from ahcert.rationals import brief

    nines = 10 ** 4400 - 1  # 4400 digits
    assert brief(Fraction(nines, 2)) == "~499999999999... (4400 digits)"
    assert brief(-nines) == "~-999999999999... (4400 digits)"
    # An integer part of 4300 digits still prints in full, as str() does.
    at_limit = Fraction(10 ** 4300 - 1, 1) + Fraction(1, 3)
    assert brief(at_limit) == "~" + "9" * 4300 + ".333333333333"


def test_shown_keeps_str_text_and_abbreviates_only_past_the_str_limit():
    from ahcert.rationals import shown

    assert shown(Fraction(2)) == "2"
    long = Fraction(10 ** 50 + 1, 3 * 10 ** 50)  # over 128 bits, printed exactly
    assert shown(long) == str(long)
    assert shown(Fraction(10 ** 4400 - 1, 2)) == "~499999999999... (4400 digits)"
