import json
import os
import re
import subprocess
import sys
import time

from ahcert.cli import main
from ahcert.params import make_geometric_family, sequences
from ahcert.pipeline import HORIZON_LIMITED_REASON
from ahcert.rationals import as_fraction, format_rational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err})"
    return code, json.loads(out)


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

RATIONAL = re.compile(r"^-?\d+/\d+$")


def walk_rationals(obj, keys=()):
    """Yield every string field that looks like it should be a rational."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from walk_rationals(val, keys + (key,))
    elif isinstance(obj, list):
        for val in obj:
            yield from walk_rationals(val, keys)
    elif isinstance(obj, str) and RATIONAL.match(obj):
        yield keys, obj


def test_certify_base_six_certified(capsys):
    code, report = run_json(
        capsys, "certify", "--N", "6", "--horizon", "40", "--rho", "3/2"
    )
    assert code == 0
    assert report["verdict"] == "Certified"
    assert report["constants"]["omega"] == "1/7"
    assert report["separation"]["upper_bound"] == "7/5"
    assert report["separation"]["rho"] == "3/2"
    assert report["separation"]["certificate"]["reverified"] is True
    assert len(report["flip"]["checks"]) == 4
    assert all(c["holds"] for c in report["flip"]["checks"])
    assert report["gap_series"]["summable_certified"] is True
    assert report["schema_version"] == "5"


def test_certify_reports_have_no_floats(capsys):
    code, out, _ = run_cli(capsys, "certify", "--N", "6", "--horizon", "12")
    assert code == 0

    def no_floats(obj):
        if isinstance(obj, float):
            return False
        if isinstance(obj, dict):
            return all(no_floats(v) for v in obj.values())
        if isinstance(obj, list):
            return all(no_floats(v) for v in obj)
        return True

    assert no_floats(json.loads(out))


def test_certify_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "certify", "--N", "6", "--horizon", "15")
    _, out2, _ = run_cli(capsys, "certify", "--N", "6", "--horizon", "15")
    assert out1 == out2


def test_certify_refuted_for_base_two(capsys):
    code, report = run_json(capsys, "certify", "--N", "2", "--horizon", "10")
    assert code == 1
    assert report["verdict"] == "Refuted"
    assert any("kappa_gt_half" in note for note in report["notes"])


def test_certify_inconclusive_at_horizon_one(capsys):
    code, report = run_json(capsys, "certify", "--N", "6", "--horizon", "1")
    assert code == 2
    assert report["verdict"] == "InconclusiveAtHorizon"


def test_certify_bad_rho_is_input_error(capsys):
    # int() alone reads the last two as 3/2; only ASCII digits are numerals.
    for rho in ("1/1", "3_0/2_0", "\u0663/\u0662"):
        code, out, err = run_cli(capsys, "certify", "--N", "6", "--rho", rho)
        assert code == 3 and out == "" and "input error" in err, rho


def test_integer_flags_take_ascii_numerals_only(capsys):
    # int() alone reads each of these: N 6, stages 10 and grid 64, stage 12, ...
    for argv in (
        ("certify", "--N", "\u0666", "--horizon", "4"),
        ("trace-sim", "--stages", "1_0", "--grid", "6_4"),
        ("telescope", "--N", "6", "--horizon", "12", "--nu", "0,1,1_2"),
        ("chern", "--k", "\u0663"),
        ("density", "--van-der-corput", "8", "--start-index", "\uff10"),
        ("params", "--N", "6", "--horizon", "1_2"),
        # past int()'s digit limit no message could print the value
        ("chern", "--k", "9" * 4400),
        ("telescope", "--N", "6", "--horizon", "12", "--nu", "0," + "9" * 4400),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "" and "input error" in err, argv
    # a sign and surrounding whitespace are still read
    code, _, _ = run_cli(capsys, "trace-sim", "--N", " +6 ", "--stages", "2", "--grid", "64")
    assert code == 0


# 4400 nines: past the interpreter's 4300-digit int-to-str limit.
NINES = "9" * 4400


def test_rationals_past_the_str_digit_limit_in_messages_are_input_errors(tmp_path, capsys):
    for argv in (
        ("certify", "--N", "6", "--horizon", "40", "--rho", NINES + "/2"),
        ("rc-lower", "--N", "6", "--horizon", "40", "--rho", NINES + "/2"),
        ("density", "--points", "0," + NINES, "--epsilon", "1/2"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv[0]
        assert err.startswith("input error: ") and "(4400 digits)" in err, argv[0]
    # omega = k(1)/l(1) has a 4301-digit denominator, and the refusal of
    # omega >= 1/2 prints it.
    spec = tmp_path / "family.json"
    spec.write_text('{"d": [1, 1], "k": [0, %s]}' % NINES[:4300])
    code, out, err = run_cli(capsys, "rc-upper", "--spec", str(spec), "--horizon", "1")
    assert code == 3 and out == "" and "omega = ~0.999999999999 outside" in err


def test_integers_past_the_str_digit_limit_in_input_files_are_input_errors(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text('{"d": [1, %s], "k": [0, 1]}' % NINES)
    cfg = tmp_path / "run.json"
    cfg.write_text('{"N": 6, "horizon": %s}' % NINES)
    for argv in (("--spec", str(spec), "--horizon", "1"), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, "certify", *argv)
        assert code == 3 and out == "", argv
        assert err.startswith("input error: ") and "4300" in err, argv
    cfg.write_text('{"N": 6,')  # malformed JSON stays an input error
    code, out, err = run_cli(capsys, "certify", "--config", str(cfg))
    assert code == 3 and out == "" and "Expecting" in err


def test_params_subcommand(capsys):
    code, report = run_json(capsys, "params", "--N", "6", "--horizon", "2")
    assert code == 0
    assert report["constants"]["omega"] == "1/7"
    table = sequences(make_geometric_family(6), 2)
    assert [table.stage(n).r for n in range(3)] == [1, 7, 259]
    assert [table.stage(n).t for n in range(3)] == [0, 1, 42]
    assert report["constraints"]["all_passed"] is True
    for _, text in walk_rationals(report):
        num, den = text.split("/")
        assert int(den) > 0


def test_rc_lower_subcommand(capsys):
    code, report = run_json(
        capsys, "rc-lower", "--N", "6", "--horizon", "40", "--rho", "3/2"
    )
    assert code == 0
    cert = report["certificate"]
    assert cert["delta"] == "1/8"
    assert cert["N1"] == "334/1"
    assert cert["reverified"] is True
    assert all(c["holds"] for c in cert["checks"])


def test_rc_lower_inconclusive_small_horizon(capsys):
    code, report = run_json(
        capsys, "rc-lower", "--N", "6", "--horizon", "1", "--rho", "3/2"
    )
    assert code == 2
    assert report["verdict"] == "InconclusiveAtHorizon"
    assert report["reason"]
    assert "status" not in report


def test_rc_upper_subcommand(capsys):
    code, report = run_json(capsys, "rc-upper", "--N", "6", "--horizon", "8")
    assert code == 0
    assert report["rc_upper"]["certified_limit_bound"] == "7/5"


def test_chern_subcommand(capsys):
    code, report = run_json(capsys, "chern", "--k", "6")
    assert code == 0
    rows = report["embedding_ranks"]
    assert [row["min_rank"] for row in rows] == [2 * k for k in range(7)]
    assert all(row["product_is_one"] for row in rows)


def test_telescope_subcommand(capsys):
    code, report = run_json(
        capsys, "telescope", "--N", "6", "--horizon", "6", "--nu", "0,1,3"
    )
    assert code == 0
    assert report["new_family"]["d"] == ["1/1", "6/1", "7776/1"]
    assert report["new_family"]["k"] == ["0/1", "1/1", "253/1"]
    assert all(c["holds"] for c in report["checks"])


def test_trace_sim_subcommand(capsys):
    code, report = run_json(
        capsys,
        "trace-sim",
        "--N", "6",
        "--horizon", "6",
        "--stages", "3",
        "--grid", "64",
    )
    assert code == 0
    sim = report["intertwining"]
    assert sim["all_within_bounds"] is True
    assert sim["step_bounds"][0] == "2/7"
    assert report["gap_series"]["summable_certified"] is True


def test_trace_sim_on_a_stage_with_no_coordinate_projections(tmp_path, capsys):
    # d(1) = 0: the stage has point evaluations only, and no shared entry.
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"d": [1, 0, 36], "k": [0, 1, 1]}))
    code, report = run_json(
        capsys, "trace-sim", "--spec", str(spec), "--stages", "2", "--horizon", "2"
    )
    assert code == 0 and report["verdict"] == "Certified"
    assert report["intertwining"]["step_distances"] == ["1/4", "0/1"]
    assert report["intertwining"]["step_bounds"] == ["2/1", "2/37"]


def test_density_subcommand(capsys):
    code, report = run_json(
        capsys, "density", "--van-der-corput", "64", "--epsilon", "1/64"
    )
    assert code == 0 and report["dense"] is True
    code, report = run_json(
        capsys, "density", "--points", "1/2,1/2", "--epsilon", "1/4"
    )
    assert code == 1 and report["dense"] is False


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 6, "horizon": 10, "rho": "3/2"}))
    code, report = run_json(capsys, "certify", "--config", str(cfg))
    assert code == 0
    assert report["config"]["horizon"] == 10
    # flags override the file
    code, report = run_json(
        capsys, "certify", "--config", str(cfg), "--horizon", "12"
    )
    assert report["config"]["horizon"] == 12


def test_explicit_family_spec_file(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(
        json.dumps(
            {
                "d": [1, 6, 36, 216, 1296],
                "k": [0, 1, 1, 1, 1],
                "tail": {"type": "geometric", "N": 6},
            }
        )
    )
    code, report = run_json(
        capsys, "params", "--family", "explicit", "--spec", str(spec), "--horizon", "4"
    )
    assert code == 0
    assert report["constraints"]["all_passed"] is True
    assert report["constants"]["horizon_limited"] is False


def test_explicit_family_without_majorant_is_inconclusive(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"d": [1, 6, 36, 216], "k": [0, 1, 1, 1]}))
    code, report = run_json(
        capsys, "certify", "--family", "explicit", "--spec", str(spec),
        "--horizon", "3",
    )
    assert code == 2
    assert report["verdict"] == "InconclusiveAtHorizon"
    assert any("horizon-limited" in note for note in report["notes"])


def test_explicit_family_with_tail_table(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(
        json.dumps(
            {
                "d": [1, 6, 36, 216],
                "k": [0, 1, 1, 1],
                "tail": {"type": "table", "values": ["1/5", "1/30", "1/180", "1/1080"]},
            }
        )
    )
    code, report = run_json(
        capsys, "params", "--family", "explicit", "--spec", str(spec), "--horizon", "3"
    )
    assert code == 0
    assert report["constants"]["horizon_limited"] is False

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "d": [1, 6, 36],
                "k": [0, 1, 1],
                "tail": {"type": "table", "values": ["1/30", "1/5", "1/5"]},
            }
        )
    )
    code, _, err = run_cli(
        capsys, "params", "--family", "explicit", "--spec", str(bad), "--horizon", "2"
    )
    assert code == 3 and "nonincreasing" in err


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "certify", "--N", "6", "--horizon", "12", "--out", str(out)
    )
    assert code == 0
    assert "Certified" in stdout
    on_disk = json.loads(out.read_text())
    assert on_disk["verdict"] == "Certified"


def test_certify_resolves_its_config_once(tmp_path, capsys, monkeypatch):
    import ahcert.pipeline

    calls = []
    original = ahcert.pipeline.resolve_config

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(ahcert.pipeline, "resolve_config", counting)
    spec = tmp_path / "family.json"
    spec.write_text(
        json.dumps(
            {
                "d": [1, 6, 36, 216, 1296],
                "k": [0, 1, 1, 1, 1],
                "tail": {"type": "geometric", "N": 6},
            }
        )
    )
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "certify", "--spec", str(spec), "--horizon", "4", "--out", str(out)
    )
    assert len(calls) == 1
    assert code == 0 and stdout == f"Certified: {out}\n"
    on_disk = json.loads(out.read_text())
    assert on_disk["config"]["d"] == [1, 6, 36, 216, 1296]
    assert on_disk["config"]["tail"] == {"type": "geometric", "N": 6}


def test_missing_config_file_is_input_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--config", "/nonexistent.json")
    assert code == 3 and "input error" in err


def test_bad_nu_is_input_error(capsys):
    code, _, err = run_cli(capsys, "telescope", "--N", "6", "--nu", "0,zebra")
    assert code == 3


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ahcert", "chern", "--k", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["embedding_ranks"][3]["min_rank"] == 6


def test_params_reports_stay_small_at_every_horizon(capsys):
    # Schema "5" lists no stage and no family section.
    for N in (2, 6, 12):
        for H in (1, 40, 640):
            code, out, _ = run_cli(capsys, "params", "--N", str(N), "--horizon", str(H))
            assert code in (0, 1, 2) and len(out) < 8192, (N, H, code, len(out))
            report = json.loads(out)
            assert "family" not in report and report["schema_version"] == "5"
            assert not {"d", "k", "l", "r", "s", "t"} & set(report["constants"]), (N, H)


def test_params_without_a_tail_majorant_is_inconclusive(capsys):
    spec = os.path.join(GOLDEN, "family_six_no_tail.json")
    for command in ("params", "certify"):
        code, report = run_json(capsys, command, "--spec", spec, "--horizon", "5")
        assert code == 2 and report["verdict"] == "InconclusiveAtHorizon", command
    code, report = run_json(capsys, "params", "--spec", spec, "--horizon", "5")
    assert report["reason"] == HORIZON_LIMITED_REASON
    assert report["constraints"]["all_passed"] is True


def test_certify_renders_integers_beyond_the_str_digit_limit(capsys):
    # certify reports carry short witnesses only; a telescoped family's
    # d still holds an integer past the 4300-digit str() limit.
    code, report = run_json(
        capsys, "telescope", "--N", "6", "--horizon", "120", "--nu", "0,1,120"
    )
    assert code == 0
    assert report["verdict"] == "Certified"
    last = report["new_family"]["d"][-1]  # d(2) = 6^(2 + ... + 120), 5649 digits
    assert len(last) == 5649 + len("/1")
    assert as_fraction(last) == 6 ** sum(range(2, 121))
    assert format_rational(as_fraction(last)) == last


def test_internal_failure_has_its_own_exit_code(monkeypatch, capsys):
    import ahcert.chern
    from ahcert.errors import ConsistencyError

    def broken(k):
        raise ConsistencyError("cross-check failed")

    monkeypatch.setattr(ahcert.chern, "min_trivial_embedding_rank", broken)
    code, out, err = run_cli(capsys, "chern", "--k", "2")
    assert code == 4 and out == ""
    assert "internal consistency failure" in err


def test_unexpected_exception_is_one_line_exit_four(monkeypatch, capsys):
    import ahcert.chern

    def broken(k):
        raise KeyError("lost")

    monkeypatch.setattr(ahcert.chern, "min_trivial_embedding_rank", broken)
    code, out, err = run_cli(capsys, "chern", "--k", "2")
    assert code == 4 and out == ""
    assert "Traceback" not in err
    assert err.strip().count("\n") == 0 and "internal error: KeyError" in err


def test_usage_errors_are_input_errors(capsys):
    for argv in (["certify", "--bogus"], ["trace-sim", "--float"], ["nosuch"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert out == "" and "usage:" in err


def test_config_carrier_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for carrier in ("float", "exact"):
        cfg.write_text(json.dumps({"N": 6, "horizon": 6, "carrier": carrier}))
        code, out, err = run_cli(capsys, "trace-sim", "--config", str(cfg), "--stages", "2")
        assert code == 3 and out == "" and "unknown config key 'carrier'" in err


def test_zero_size_stage_is_input_error(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"d": [1, 6, 0], "k": [0, 1, 0]}))
    code, out, err = run_cli(
        capsys, "params", "--family", "explicit", "--spec", str(spec), "--horizon", "2"
    )
    assert code == 3 and out == "" and "l(2) = 0" in err


def test_tail_table_checked_against_supplied_stages(tmp_path, capsys):
    # An all-zero table claims no evaluation mass beyond any stage, which
    # stages 1..5 contradict; it used to certify at horizon 3 and be
    # refuted at horizon 5.
    unsound = tmp_path / "unsound.json"
    unsound.write_text(
        json.dumps(
            {
                "d": [1, 6, 36, 216, 1, 1],
                "k": [0, 1, 1, 1, 1, 1],
                "tail": {"type": "table", "values": ["0"] * 6},
            }
        )
    )
    for horizon in ("3", "5"):
        code, out, err = run_cli(
            capsys, "certify", "--spec", str(unsound), "--horizon", horizon
        )
        assert code == 3 and out == "" and "tail table value" in err

    sound = tmp_path / "sound.json"
    sound.write_text(
        json.dumps(
            {
                "d": [1, 6, 36, 216, 1296],
                "k": [0, 1, 1, 1, 1],
                "tail": {
                    "type": "table",
                    "values": ["1/5", "1/30", "1/180", "1/1080", "1/6480"],
                },
            }
        )
    )
    code, report = run_json(capsys, "certify", "--spec", str(sound), "--horizon", "4")
    assert code == 0 and report["verdict"] == "Certified"


def test_cli_import_leaves_numpy_unloaded():
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ahcert.cli; print('numpy' in sys.modules)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _params_on_spec(tmp_path, capsys, spec, horizon="2"):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    return run_cli(capsys, "params", "--spec", str(path), "--horizon", horizon)


def test_table_tail_without_values_is_input_error(tmp_path, capsys):
    spec = {"d": [1, 6, 36], "k": [0, 1, 1], "tail": {"type": "table"}}
    code, out, err = _params_on_spec(tmp_path, capsys, spec)
    assert code == 3 and out == "" and "'values'" in err


def test_non_object_tail_is_input_error(tmp_path, capsys):
    spec = {"d": [1, 6, 36], "k": [0, 1, 1], "tail": [1]}
    code, out, err = _params_on_spec(tmp_path, capsys, spec)
    assert code == 3 and out == "" and "'tail' must be a JSON object" in err


def test_geometric_tail_needs_an_integer_base(tmp_path, capsys):
    for tail in ({"type": "geometric"}, {"type": "geometric", "N": "6"},
                 {"type": "geometric", "N": 6.5}, {"type": "geometric", "N": True}):
        spec = {"d": [1, 6, 36], "k": [0, 1, 1], "tail": tail}
        code, out, err = _params_on_spec(tmp_path, capsys, spec)
        assert code == 3 and out == "" and "integer 'N'" in err, tail


def test_booleans_in_d_and_k_are_input_errors(tmp_path, capsys):
    for spec in ({"d": [1, True, 36], "k": [0, 1, 1]},
                 {"d": [1, 6, 36], "k": [False, 1, 1]}):
        code, out, err = _params_on_spec(tmp_path, capsys, spec)
        assert code == 3 and out == "" and "must hold integers" in err, spec


def test_grid_below_one_is_input_error(capsys):
    for grid in ("0", "-3"):
        code, out, err = run_cli(capsys, "trace-sim", "--stages", "2", "--grid", grid)
        assert code == 3 and out == "" and "grid must be >= 1" in err, grid


def test_trace_sim_step_distances_do_not_depend_on_the_grid(capsys):
    _, coarse = run_json(capsys, "trace-sim", "--stages", "6", "--grid", "64")
    t0 = time.perf_counter()
    code, fine = run_json(capsys, "trace-sim", "--stages", "6", "--grid", "1048576")
    elapsed = time.perf_counter() - t0
    assert code == 0 and fine["verdict"] == "Certified"
    assert fine["intertwining"] == coarse["intertwining"]
    assert elapsed < 1.0


def test_certify_midpoint_rho_with_long_denominator(capsys):
    # 3/2 is not admissible at N = 5, and the default level is the
    # shortest dyadic between the upper bound and the midpoint, not the
    # midpoint with its horizon^2-bit denominator.
    code, report = run_json(capsys, "certify", "--N", "5", "--horizon", "120")
    assert code == 0 and report["verdict"] == "Certified"
    cert = report["separation"]["certificate"]
    assert "alpha" not in cert and "beta" not in cert
    rho = as_fraction(cert["rho"])
    assert rho.denominator in (2, 4, 8, 16, 32, 64)
    upper = as_fraction(report["separation"]["upper_bound"])
    target = as_fraction(report["separation"]["lower_target"])
    assert upper < rho <= (upper + target) / 2
    assert format_rational(rho) == cert["rho"] == report["separation"]["rho"]


def test_rc_upper_inconclusive_when_the_check_fails(capsys):
    # t(1)/r(1) + tail(1) = 1/3 + 1/2 is not below 2 omega = 2/3
    code, report = run_json(capsys, "rc-upper", "--N", "2", "--horizon", "1")
    assert code == 2
    assert report["verdict"] == "InconclusiveAtHorizon"
    assert "5/6 is not below 2 omega = 2/3" in report["reason"]
    assert "rc_upper" not in report


def test_rc_upper_inconclusive_without_a_tail_majorant(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"d": [1, 6, 36, 216], "k": [0, 1, 1, 1]}))
    code, report = run_json(capsys, "rc-upper", "--spec", str(spec), "--horizon", "3")
    assert code == 2
    assert report["verdict"] == "InconclusiveAtHorizon"
    assert "no tail majorant" in report["reason"]
    (only,) = report["rc_upper"]["checks"]
    assert only["holds"] and only["name"].endswith("for n = 3")


def _count_checks(block) -> int:
    if isinstance(block, dict):
        return len(block.get("checks", ())) + sum(
            _count_checks(v) for k, v in block.items() if k != "checks"
        )
    if isinstance(block, list):
        return sum(_count_checks(v) for v in block)
    return 0


def test_check_counts_do_not_grow_with_the_horizon(capsys):
    counts = []
    for horizon in ("40", "160"):
        code, out, _ = run_cli(capsys, "certify", "--N", "6", "--horizon", horizon)
        assert code == 0 and "pushed rank" not in out
        report = json.loads(out)
        assert len(report["rc_upper"]["checks"]) == 1
        counts.append((
            _count_checks(report["rc_upper"]),
            _count_checks(report["separation"]["certificate"]),
            _count_checks(report),
        ))
    assert counts[0] == counts[1]


def test_config_integers_must_be_json_integers(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for bad in ({"N": 6, "horizon": 6.9, "grid": 64}, {"N": 6, "horizon": 6, "grid": True},
                {"N": "6", "horizon": 6}):
        cfg.write_text(json.dumps(bad))
        code, out, err = run_cli(capsys, "trace-sim", "--config", str(cfg), "--stages", "2")
        assert code == 3 and out == "" and "must be an integer" in err, bad


def test_rc_lower_inconclusive_without_a_tail_majorant(tmp_path, capsys):
    from ahcert.pipeline import HORIZON_LIMITED_REASON

    spec = tmp_path / "family.json"
    d = [1] + [6 ** n for n in range(1, 9)]
    spec.write_text(json.dumps({"d": d, "k": [0] + [1] * 8}))
    code, report = run_json(
        capsys, "rc-lower", "--spec", str(spec), "--horizon", "8", "--rho", "3/2"
    )
    assert code == 2
    assert report["verdict"] == "InconclusiveAtHorizon"
    assert report["reason"] == HORIZON_LIMITED_REASON
    assert report["certificate"]["reverified"] is True


def test_oversized_horizons_are_refused_up_front(capsys):
    from ahcert.pipeline import MAX_HORIZON

    assert MAX_HORIZON >= 480
    for argv in (
        ("certify", "--N", "6", "--horizon", "1000000"),
        ("params", "--N", "5", "--horizon", str(MAX_HORIZON + 1)),
        ("trace-sim", "--stages", "1000000", "--grid", "64"),
    ):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == "" and "exceeds the cap" in err, argv


def test_certify_report_size_is_flat_in_the_horizon(capsys):
    counts = set()
    for horizon in ("40", "160", "480"):
        code, out, _ = run_cli(capsys, "certify", "--N", "6", "--horizon", horizon)
        assert code == 0
        assert len(out.encode()) < 12 * 1024
        report = json.loads(out)
        assert all(c["holds"] for c in report["constants"]["link_checks"])
        counts.add(_count_checks(report))
    assert len(counts) == 1


def test_refusals_print_short_rationals(capsys):
    # The certified target has thousands of digits at H = 120; a refusal
    # certain at the starting witnesses names the short witness target.
    for argv in (
        ("certify", "--N", "6", "--horizon", "120", "--rho", "5/2"),
        ("rc-lower", "--N", "6", "--horizon", "120", "--rho", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == "", argv
        assert "strictly between" in err and len(err) < 300, err[:300]


def test_chern_k_is_capped_up_front(capsys):
    from ahcert.chern import MAX_GENERATORS

    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "chern", "--k", str(MAX_GENERATORS + 1))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and "exceeds the cap" in err

    t0 = time.perf_counter()
    code, report = run_json(capsys, "chern", "--k", str(MAX_GENERATORS))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    rows = [
        (row["k"], row["min_rank"], row["top_coefficient"])
        for row in report["embedding_ranks"]
    ]
    assert rows == [(k, 2 * k, (-1) ** k) for k in range(MAX_GENERATORS + 1)]


def test_trace_sim_stages_are_capped_up_front(capsys):
    from ahcert.tracesim import MAX_STAGES

    assert MAX_STAGES >= 10
    t0 = time.perf_counter()
    code, out, err = run_cli(
        capsys, "trace-sim", "--stages", str(MAX_STAGES + 1), "--grid", "64"
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and "exceeds the cap" in err


def test_trace_sim_refuses_negative_stages_up_front(capsys, monkeypatch):
    import ahcert.params

    def no_tabulation(*args):
        raise AssertionError("tabulated before refusing --stages")

    monkeypatch.setattr(ahcert.params, "sequences", no_tabulation)
    code, out, err = run_cli(capsys, "trace-sim", "--stages", "-1", "--grid", "64")
    assert code == 3 and out == ""
    assert "--stages" in err and "start" not in err


def test_density_refuses_non_positive_point_counts(capsys):
    for count in ("-5", "0"):
        code, out, err = run_cli(
            capsys, "density", "--van-der-corput", count, "--epsilon", "1/4"
        )
        assert code == 3 and out == ""
        assert "--van-der-corput" in err


def test_parser_reuse_is_stateless(tmp_path, capsys):
    from ahcert.cli import build_parser

    out_path = tmp_path / "ladder.json"
    code, out, _ = run_cli(
        capsys, "trace-sim", "--stages", "4", "--grid", "64", "--out", str(out_path)
    )
    assert code == 0 and str(out_path) in out
    assert json.loads(out_path.read_text())["intertwining"]["stages"] == 4

    code, report = run_json(capsys, "trace-sim", "--grid", "64")
    assert code == 0
    assert report["intertwining"]["stages"] == 8
    assert "out" not in report["config"]

    code, out, err = run_cli(capsys, "certify", "--bogus")
    assert code == 3 and out == "" and "usage:" in err

    code, report = run_json(capsys, "chern", "--k", "3")
    assert code == 0 and len(report["embedding_ranks"]) == 4
    assert build_parser() is build_parser()


def test_density_refuses_point_counts_above_the_cap(capsys):
    from ahcert.tracesim import MAX_POINTS

    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "density", "--van-der-corput", "100000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == ""
    assert "--van-der-corput" in err and str(MAX_POINTS) in err
    code, _, err = run_cli(capsys, "density", "--van-der-corput", str(MAX_POINTS + 1))
    assert code == 3 and "exceeds the cap" in err


def test_unknown_config_keys_are_refused(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"N": 6, "horizn": 3}))
    for command in ("certify", "params", "rc-upper", "chern"):
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 3 and out == "", command
        assert "'horizn'" in err, command


def test_unknown_spec_keys_are_refused(tmp_path, capsys):
    spec = {"d": [1, 6, 36], "k": [0, 1, 1], "tial": {"type": "none"}}
    code, out, err = _params_on_spec(tmp_path, capsys, spec)
    assert code == 3 and out == "" and "'tial'" in err
    # A spec sets the family only: a config key in it is refused too.
    spec = {"d": [1, 6, 36], "k": [0, 1, 1], "horizon": 2}
    code, out, err = _params_on_spec(tmp_path, capsys, spec)
    assert code == 3 and out == "" and "'horizon'" in err


def test_unknown_tail_keys_are_refused(tmp_path, capsys):
    # A misspelt type used to drop the majorant: InconclusiveAtHorizon, exit 2.
    spec = {"d": [1, 6, 36, 216], "k": [0, 1, 1, 1],
            "tail": {"tpye": "geometric", "N": 6}}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "certify", "--spec", str(path), "--horizon", "3")
    assert code == 3 and out == "" and "'tpye'" in err
    # Each type takes its own keys only; chern, which builds no family,
    # refuses them too.
    for tail, key in (({"type": "geometric", "N": 6, "values": [1]}, "'values'"),
                      ({"type": "table", "values": [1, 1, 1, 1], "N": 6}, "'N'"),
                      ({"type": "none", "N": 6}, "'N'")):
        path.write_text(json.dumps(dict(spec, tail=tail)))
        for argv in (("certify", "--horizon", "3"), ("chern", "--k", "1")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(path))
            assert code == 3 and out == "" and key in err, (tail, argv)
    for tail in ({"type": ["geometric"]}, {"type": "geometrc", "N": 6}):
        path.write_text(json.dumps(dict(spec, tail=tail)))
        code, out, err = run_cli(capsys, "certify", "--spec", str(path), "--horizon", "3")
        assert code == 3 and out == "" and "unknown tail majorant type" in err, tail
    path.write_text(json.dumps(dict(spec, tail={"type": "geometric", "N": 6})))
    code, out, err = run_cli(capsys, "certify", "--spec", str(path), "--horizon", "3")
    assert code in (0, 2) and err == ""


def test_spec_keys_in_a_geometric_config_are_refused(tmp_path, capsys):
    # The lists used to be neither checked nor echoed: Certified, exit 0.
    cfg = tmp_path / "run.json"
    for config, key in (({"N": 6, "horizon": 3, "d": ["a"], "k": 5}, "'d'"),
                        ({"N": 6, "horizon": 3, "k": [0, 1]}, "'k'"),
                        ({"N": 6, "horizon": 3, "tail": {"type": "none"}}, "'tail'")):
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "certify", "--config", str(cfg))
        assert code == 3 and out == "" and key in err, config
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"d": [1, 6], "k": [0, 1]}))
    code, out, err = run_cli(capsys, "params", "--spec", str(spec), "--family", "geometric")
    assert code == 3 and out == "" and "'d'" in err


def test_every_accepted_config_key_runs(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": "explicit", "N": 6, "horizon": 3, "rho": "3/2", "grid": 64,
        "d": [1, 6, 36, 216], "k": [0, 1, 1, 1],
        "tail": {"type": "geometric", "N": 6}, "out": str(tmp_path / "r.json"),
    }))
    code, out, err = run_cli(capsys, "params", "--config", str(cfg))
    assert code == 0 and err == "" and "r.json" in out


def test_spec_d_and_k_are_validated_without_a_family_build(tmp_path, capsys):
    # chern and density never build the family, so the lists are checked
    # when the config is resolved, not coerced when it is echoed.
    path = tmp_path / "family.json"
    for spec, shown in (({"d": ["a"], "k": [0]}, "'a'"),
                        ({"d": [1.5, 6], "k": [0, 1]}, "1.5"),
                        ({"d": [1, 6], "k": [0, 1.0]}, "1.0")):
        path.write_text(json.dumps(spec))
        for argv in (("chern", "--k", "2"), ("density", "--van-der-corput", "16")):
            code, out, err = run_cli(capsys, *argv, "--spec", str(path))
            assert code == 3 and out == "", (argv, spec)
            assert "must hold integers" in err and shown in err, (argv, spec)


def test_explicit_config_without_lists_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"family": "explicit", "horizon": 3}))
    code, out, err = run_cli(capsys, "chern", "--config", str(cfg))
    assert code == 3 and out == "" and "needs 'd' and 'k'" in err


def test_omega_zero_is_refused_and_refuted(capsys, tmp_path):
    # omega = k(1)/l(1) = 0 while kappa = 4/5 > 1/2: the certificates refuse
    # it, and certify reports both constraints that need omega > 0.
    spec = tmp_path / "omega_zero.json"
    spec.write_text(json.dumps({"d": [1, 2, 4], "k": [0, 0, 1]}))
    for command in ("rc-lower", "rc-upper"):
        code, out, err = run_cli(capsys, command, "--spec", str(spec), "--horizon", "2")
        assert (code, out, err) == (3, "", "input error: omega = 0 outside (0, 1/2)\n")
    code, report = run_json(capsys, "certify", "--spec", str(spec), "--horizon", "2")
    assert code == 1 and report["verdict"] == "Refuted"
    failed = {e["name"] for e in report["constraints"]["entries"] if e["status"] == "fail"}
    assert failed == {"omega_window", "separation_margin"}
