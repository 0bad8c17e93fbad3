import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import ahcert
import ahcert.params
import ahcert.pipeline
from ahcert.pipeline import certify_theorem

VERDICT_LETTER = {"Certified": "C", "Refuted": "R", "InconclusiveAtHorizon": "I"}
HORIZONS = list(range(1, 41)) + [60, 80]


def test_every_exported_name_resolves():
    unresolved = []
    for name in ahcert.__all__:
        try:
            getattr(ahcert, name)
        except AttributeError:
            unresolved.append(name)
    assert unresolved == []


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_module_and_each_export_resolves_on_use():
    run_fresh("""
        import sys
        import ahcert

        assert [key for key in sys.modules if key.startswith("ahcert.")] == []
        assert set(ahcert.__all__) <= set(dir(ahcert))
        assert not hasattr(ahcert, "no_such_name")
        for name in ahcert.__all__:
            value = getattr(ahcert, name)
            assert value.__module__.startswith("ahcert."), name
            assert getattr(sys.modules[value.__module__], name) is value, name
        star = {}
        exec("from ahcert import *", star)
        assert all(star[name] is getattr(ahcert, name) for name in ahcert.__all__)
    """)
    run_fresh("""
        import sys
        import ahcert

        assert ahcert.params is sys.modules["ahcert.params"]
        assert ahcert.rationals is sys.modules["ahcert.rationals"]
    """)


def test_importing_the_telescope_module_keeps_the_telescope_export():
    run_fresh("""
        import sys
        import ahcert.telescope

        assert ahcert.telescope is sys.modules["ahcert.telescope"].telescope
        assert callable(ahcert.telescope)
    """)


def test_each_cli_path_loads_only_the_modules_it_runs():
    run_fresh("""
        import sys
        import ahcert.cli

        loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "ahcert")
        assert loaded == ["ahcert", "ahcert.cli", "ahcert.errors"], loaded
    """)
    geometric = ["--N", "6", "--horizon", "12"]
    density = ["density", "--van-der-corput", "8", "--epsilon", "1/4"]
    no_trace_side = {"tracesim", "chern", "telescope"}
    for argv, absent in (
        (["chern", "--k", "3"], {"rcbounds", "tracesim", "ranks", "telescope"}),
        (["params", *geometric], no_trace_side),
        (["rc-upper", *geometric], no_trace_side),
        (["rc-lower", "--rho", "3/2", *geometric], no_trace_side),
        (["certify", *geometric], {"chern", "telescope"}),
        (density, {"rcbounds", "chern", "telescope"}),
    ):
        run_fresh(f"""
            import contextlib, io, sys
            from ahcert.cli import main

            with contextlib.redirect_stdout(io.StringIO()):
                assert main({argv!r}) == 0
            loaded = {{m.partition(".")[2] for m in sys.modules if m.startswith("ahcert.")}}
            assert not loaded & {absent!r}, sorted(loaded & {absent!r})
        """)


def test_certify_tabulates_once(monkeypatch):
    calls = []
    original = ahcert.params.sequences

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ahcert.params, "sequences", counting)
    monkeypatch.setattr(ahcert.pipeline, "sequences", counting)
    for config in ({"N": 6, "horizon": 40}, {"N": 5, "horizon": 2}, {"N": 3, "horizon": 9}):
        calls.clear()
        certify_theorem(config)
        assert len(calls) == 1, config


def test_verdicts_are_monotone_in_the_horizon():
    rows = {}
    for N in range(2, 13):
        row = "".join(
            VERDICT_LETTER[certify_theorem({"N": N, "horizon": H}).verdict]
            for H in HORIZONS
        )
        rows[N] = row
        # once Certified, always Certified; no Refuted after a Certified
        if "C" in row:
            assert set(row[row.index("C"):]) == {"C"}, (N, row)
    assert rows[5][1:] == "C" * (len(HORIZONS) - 1)
    for N in (2, 3, 4):
        assert set(rows[N]) == {"R"}, (N, rows[N])
    for N in (5, 6, 7):
        assert rows[N][0] == "I", (N, rows[N])
    for N in range(8, 13):
        assert set(rows[N]) == {"C"}, (N, rows[N])


def test_escalation_reaches_the_exact_values():
    # rho just below the exact lower target is beyond the starting
    # witnesses, so the chain reruns at more bits until it certifies.
    report = certify_theorem({"N": 6, "horizon": 40, "rho": "23/10"})
    assert report.verdict == "Certified"
    assert report.table.bits is None or report.table.bits > 6
    assert report.separation.rho == Fraction(23, 10)
    assert all(link.holds and link.reverify() for link in report.table.links)


def test_certify_decides_without_the_exact_horizon_values():
    report = certify_theorem({"N": 12, "horizon": 640})
    assert report.verdict == "Certified"
    values = report.table.enclosures[0].values
    assert "ratios" not in vars(values)  # the product trees were never built
    assert all(link.holds and link.reverify() for link in report.table.links)
    assert "ratios" in vars(values)


def test_certify_tabulates_stages_only_as_far_as_its_scans_read():
    report = certify_theorem({"N": 6, "horizon": 200})
    assert report.verdict == "Certified"
    cert = report.separation.certificate
    # The bounds read the horizon values, which tabulate no stage; the n0
    # and n scans of the lower certificate stop at n, the flip reads stage 1.
    assert len(report.table.stages) == max(cert.n, 1) + 1 <= 4
