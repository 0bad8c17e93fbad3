"""Golden reports: every subcommand re-renders its committed report byte
for byte, and the one serializer renders the report's types."""

import json
import os
from fractions import Fraction

import pytest

from ahcert.cli import main
from ahcert.params import LinkCheck, make_geometric_family, sequences
from ahcert.pipeline import VERDICT_EXIT, to_json
from ahcert.rcbounds import RcLowerCertificate

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


def test_golden_reports_cover_every_verdict():
    verdicts = set()
    for name in CASES:
        with open(os.path.join(GOLDEN, name + ".json"), encoding="utf-8") as fh:
            verdicts.add(json.load(fh)["verdict"])
    assert verdicts == set(VERDICT_EXIT)


def test_to_json_drops_uncompared_fields_and_renders_ranks():
    enclosure = sequences(make_geometric_family(6), 4).enclosures[0]
    link = LinkCheck("kappa_lb", Fraction(53, 64), "<=", "s(4)/r(4)", True, enclosure)
    assert to_json(link) == {
        "name": "kappa_lb", "lhs": "53/64", "rel": "<=", "rhs": "s(4)/r(4)",
        "holds": True,
    }
    cert = RcLowerCertificate(
        rho=Fraction(3, 2), delta=Fraction(1, 8), epsilon=Fraction(1, 16),
        n0=1, n=2, N1=334, N2=501, endpoint_lambda1=Fraction(2),
        endpoint_lambda0=Fraction(5, 3), kappa_lb=Fraction(13, 16),
        omega=Fraction(1, 7), checks=(),
    )
    out = to_json(cert)
    assert out["N1"] == "334/1" and out["N2"] == "501/1"
    assert out["n0"] == 1 and out["n"] == 2
    assert out["kappa_lower_bound"] == "13/16" and "kappa_lb" not in out
    assert out["reverified"] is True and out["checks"] == []
    assert to_json((None, True, 3, "x", {"a": Fraction(-1, 2)})) == [
        None, True, 3, "x", {"a": "-1/2"},
    ]


def test_to_json_refuses_an_unknown_type():
    with pytest.raises(TypeError):
        to_json(1.5)
