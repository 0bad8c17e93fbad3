"""Golden reports: every subcommand re-renders its committed report byte
for byte, the one writer renders the report's types, and it gives the
text ``json.dumps(sort_keys=True, indent=2)`` gives."""

import hashlib
import json
import os
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ahcert.cli import main
from ahcert.params import Check, Enclosure, make_geometric_family, sequences
from ahcert.pipeline import VERDICT_EXIT, certify_theorem, render_report
from ahcert.rcbounds import RcLowerCertificate
from ahcert.tracesim import GapSeries

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "certify_n6_h40": ["certify", "--N", "6", "--horizon", "40"],
    "certify_n3_h12_refuted": ["certify", "--N", "3", "--horizon", "12"],
    "certify_n5_h200": ["certify", "--N", "5", "--horizon", "200"],
    "certify_n8_h200": ["certify", "--N", "8", "--horizon", "200"],
    "certify_n12_h640": ["certify", "--N", "12", "--horizon", "640"],
    "certify_spec_no_tail": [
        "certify", "--spec", os.path.join(GOLDEN, "family_six_no_tail.json"),
        "--horizon", "5",
    ],
    # kappa_ub = s(2)/r(2) = 1/2 sits on the witness grid.
    "certify_spec_dyadic_kappa": [
        "certify", "--spec", os.path.join(GOLDEN, "family_dyadic_kappa.json"),
        "--horizon", "2",
    ],
    "params_n6_h12": ["params", "--N", "6", "--horizon", "12"],
    "rc_lower_n6_h12": ["rc-lower", "--rho", "3/2", "--N", "6", "--horizon", "12"],
    "rc_upper_n2_h1": ["rc-upper", "--N", "2", "--horizon", "1"],
    "chern_k3": ["chern", "--k", "3"],
    "telescope_n6_h12": ["telescope", "--nu", "0,1,3", "--N", "6", "--horizon", "12"],
    "trace_sim_s4_g64": ["trace-sim", "--stages", "4", "--grid", "64"],
    # The heaviest benchmarked ladder, and the stage cap at the default grid.
    "trace_sim_s10_g256": ["trace-sim", "--stages", "10", "--grid", "256"],
    "trace_sim_s56": ["trace-sim", "--stages", "56"],
    "density_vdc64": ["density", "--van-der-corput", "64"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_its_golden_bytes(name, capsys):
    with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
        golden = fh.read()
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == golden
    assert code == VERDICT_EXIT[json.loads(golden)["verdict"]]


#: certify_manifest.json maps ``certify --N N --horizon H``, for N 2..12
#: and these horizons, to its exit code and the sha256 of its report, so
#: the bytes of far more certify reports than the goldens above are pinned.
MANIFEST_HORIZONS = (1, 2, 3, 5, 8, 40, 120, 200, 640)


def test_certify_reports_match_their_manifest_hashes(capsys):
    with open(os.path.join(GOLDEN, "certify_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seen = {}
    for N in range(2, 13):
        for H in MANIFEST_HORIZONS:
            argv = ["certify", "--N", str(N), "--horizon", str(H)]
            code = main(argv)
            captured = capsys.readouterr()
            assert captured.err == ""
            seen[" ".join(argv)] = {
                "exit": code,
                "sha256": hashlib.sha256(captured.out.encode()).hexdigest(),
            }
    assert seen == manifest


#: trace_sim_manifest.json does the same for ``trace-sim --N N --stages S
#: --grid G``, for N 2..12 and these stage counts and grids.
MANIFEST_STAGES = (0, 1, 2, 5, 10, 56)
MANIFEST_GRIDS = (1, 4096)


def test_trace_sim_reports_match_their_manifest_hashes(capsys):
    with open(os.path.join(GOLDEN, "trace_sim_manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seen = {}
    for N in range(2, 13):
        for S in MANIFEST_STAGES:
            for G in MANIFEST_GRIDS:
                argv = ["trace-sim", "--N", str(N), "--stages", str(S), "--grid", str(G)]
                code = main(argv)
                captured = capsys.readouterr()
                assert captured.err == ""
                seen[" ".join(argv)] = {
                    "exit": code,
                    "sha256": hashlib.sha256(captured.out.encode()).hexdigest(),
                }
    assert seen == manifest


def test_golden_reports_cover_every_verdict():
    verdicts = set()
    for name in CASES:
        with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
            verdicts.add(json.load(fh)["verdict"])
    assert verdicts == set(VERDICT_EXIT)


def _rendered(value):
    return json.loads(render_report({"v": value}))["v"]


def test_render_report_writes_checks_certificates_and_plain_values():
    enclosure = sequences(make_geometric_family(6), 4).enclosures[0]
    link = Check("kappa_lb", Fraction(53, 64), "<=", enclosure, True)
    assert _rendered(link) == {
        "name": "kappa_lb", "lhs": "53/64", "rel": "<=",
        "rhs": "s(4)/r(4) (1 - tail(4))", "holds": True,
    }
    cert = RcLowerCertificate(
        rho=Fraction(3, 2), delta=Fraction(1, 8), epsilon=Fraction(1, 16),
        n0=1, n=2, N1=334, N2=501, endpoint_lambda1=Fraction(2),
        endpoint_lambda0=Fraction(5, 3), kappa_lb=Fraction(13, 16),
        omega=Fraction(1, 7), checks=(),
    )
    out = _rendered(cert)
    assert out["N1"] == "334/1" and out["N2"] == "501/1"
    assert out["n0"] == 1 and out["n"] == 2
    assert out["kappa_lower_bound"] == "13/16" and "kappa_lb" not in out
    assert out["reverified"] is True and out["checks"] == []
    assert _rendered((None, True, 3, "x", {"a": Fraction(-1, 2)})) == [
        None, True, 3, "x", {"a": "-1/2"},
    ]


def test_render_report_refuses_an_unknown_type():
    with pytest.raises(TypeError):
        _rendered(1.5)


def test_the_traced_certify_pair_writes_the_golden_bytes():
    """``render_report(certify_theorem(...).to_jsonable())`` is the pair
    the benchmark tracer wraps by name; it writes what ``certify`` prints."""
    with open(os.path.join(GOLDEN, "certify_n6_h40.json"), encoding="utf-8") as fh:
        golden = fh.read()
    report = certify_theorem({"N": 6, "horizon": 40})
    assert render_report(report.to_jsonable()) == golden


def test_every_golden_re_renders_from_its_parsed_payload():
    for name in CASES:
        with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
            text = fh.read()
        assert render_report(json.loads(text)) == text, name


# Any code point, lone surrogates and control characters included.
_text = st.text(st.characters(exclude_categories=()), max_size=12)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10 ** 600), 10 ** 600)
    | _text
)
_payloads = st.recursive(
    _scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_text, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(_payloads)
@example({"\ud800 key\x00": ["\udfff", "\x1f\u2028\u00e9\U0001f600", {}], "": [[], ()]})
@example({"b": {"d": -(10 ** 4299), "c": [True, False, None]}, "a": 0})
def test_render_report_is_the_indented_sorted_dumps(payload):
    assert render_report(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [{"a": 1.5}, [0.0], {1: "x"}, {"a": {None: 1}}, {"a": [Decimal(1)]}, {"a": {1, 2}}],
)
def test_render_report_refuses_floats_non_str_keys_and_other_types(payload):
    with pytest.raises(TypeError):
        render_report(payload)


def test_render_report_writes_a_fraction_as_p_over_q():
    assert render_report({"a": Fraction(1, 2)}) == '{\n  "a": "1/2"\n}\n'


def _digits(n: int) -> str:
    """Decimal digits of n, past the int-to-str digit limit too."""
    return str(Decimal(n))


def plain(value):
    """The JSON value of ``value`` by the documented rendering rule: a
    ``Fraction`` is "p/q", an ``Enclosure`` its ``side``, a check or
    certificate its report keys, with the ranks N1/N2 as "p/1"."""
    if isinstance(value, Fraction):
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    if isinstance(value, Enclosure):
        return value.side
    if isinstance(value, Check):
        return {key: plain(getattr(value, key)) for key in ("name", "lhs", "rel", "rhs", "holds")}
    if isinstance(value, RcLowerCertificate):
        out = {f.name: plain(getattr(value, f.name)) for f in fields(value)}
        out["kappa_lower_bound"] = out.pop("kappa_lb")
        out["N1"] = f"{_digits(value.N1)}/1"
        out["N2"] = f"{_digits(value.N2)}/1"
        out["reverified"] = value.reverify()
        return out
    if isinstance(value, GapSeries):
        out = {f.name: plain(getattr(value, f.name)) for f in fields(value)}
        out["summable_certified"] = value.total_bound is not None
        return out
    if isinstance(value, (list, tuple)):
        return [plain(x) for x in value]
    if isinstance(value, dict):
        return {key: plain(x) for key, x in value.items()}
    return value


_huge = st.integers(-(10 ** 6), 10 ** 6).map(lambda n: n * 10 ** 4400 + 1)
_fractions = (
    st.fractions()
    | st.builds(Fraction, _huge, st.integers(1, 10 ** 6))
    | st.builds(Fraction, st.integers(-9, 9), _huge.map(abs))
)
_enclosures = st.sampled_from(sequences(make_geometric_family(6), 4).enclosures)
_checks = st.builds(
    Check,
    _text,
    _fractions,
    st.sampled_from(("<", "<=", ">", ">=", "==")),
    _fractions | _enclosures,
    st.booleans(),
)
_check_tuples = st.lists(_checks, max_size=3).map(tuple)
_certificates = st.builds(
    RcLowerCertificate,
    rho=_fractions, delta=_fractions, epsilon=_fractions,
    n0=st.integers(0, 50), n=st.integers(0, 50),
    N1=st.integers(0, 10 ** 6) | _huge.map(abs), N2=st.integers(0, 10 ** 6),
    endpoint_lambda1=_fractions, endpoint_lambda0=_fractions,
    kappa_lb=_fractions, omega=_fractions, checks=_check_tuples,
)
_gap_series = st.builds(
    GapSeries, _fractions, st.none() | _fractions, st.booleans(), _check_tuples
)
_results = st.recursive(
    _scalars | _fractions | _checks | _certificates | _gap_series,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_text, children, max_size=4)
    ),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None, database=None)
@given(_results)
@example([1, True])
@example([True, False])
@example(["a", 1])
@example([0, None])
@example({"a": [1, 10 ** 4300, 2]})  # one entry of 4301 digits
def test_render_report_writes_what_the_documented_rule_gives(tree):
    try:
        expected = json.dumps(plain(tree), sort_keys=True, indent=2) + "\n"
    except ValueError:  # an int past the int-to-str digit limit
        with pytest.raises(ValueError):
            render_report(tree)
        return
    assert render_report(tree) == expected


def test_render_report_keeps_the_int_digit_limit():
    payload = {"a": [10 ** 4300]}  # 4301 digits
    with pytest.raises(ValueError):
        json.dumps(payload, sort_keys=True, indent=2)
    with pytest.raises(ValueError):
        render_report(payload)
