"""End-to-end certification pipeline and JSON report assembly.

A report is a plain JSON object: every rational is rendered "p/q" in
lowest terms, structural integers stay JSON integers, and key order is
canonical, so identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional

from . import rcbounds, tracesim
from .errors import InconclusiveAtHorizon, InputError
from .params import (
    ConstraintReport,
    ParamFamily,
    SequenceTable,
    check_constraints,
    first_decided,
    geometric_ratio_majorant,
    make_explicit_family,
    make_geometric_family,
    sequences,
    table_majorant,
)
from .rationals import as_fraction, format_rational
from .tracesim import flip_compatibility, gap_series

SCHEMA_VERSION = "4"

VERDICT_CERTIFIED = "Certified"
VERDICT_REFUTED = "Refuted"
VERDICT_INCONCLUSIVE = "InconclusiveAtHorizon"

EXIT_CERTIFIED = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

HORIZON_LIMITED_REASON = (
    "family has no tail majorant: bounds are horizon-limited, so "
    "nothing is certified beyond the tabulated stages"
)

_VERDICT_EXIT = {
    VERDICT_CERTIFIED: EXIT_CERTIFIED,
    VERDICT_REFUTED: EXIT_REFUTED,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

ASSUMPTIONS = (
    "unitary cancellation of projections with equal class over the "
    "contractible stage spaces (stable rank one) is imported, not verified",
    "the mean-dimension bound rc <= (limiting dimension ratio)/2 for "
    "simple diagonal systems is imported, not verified",
    "interval-side stage maps are opaque: only their counts and agreement "
    "pattern enter the verified claims",
)


def q(value) -> str:
    return format_rational(value)


def jsonable_checks(checks) -> list:
    """A link check's rhs is the name of its exact side, kept as text."""
    return [
        {
            "name": c.name,
            "lhs": q(c.lhs),
            "rel": c.rel,
            "rhs": c.rhs if isinstance(c.rhs, str) else q(c.rhs),
            "holds": c.holds,
        }
        for c in checks
    ]


def jsonable_constraints(report: ConstraintReport) -> dict:
    return {
        "all_passed": report.all_passed,
        "exactly_refuted": report.exactly_refuted,
        "entries": [
            {
                "name": e.name,
                "status": e.status,
                "holds": e.holds,
                "evidence": e.evidence,
                "note": e.note,
                "checks": jsonable_checks(e.checks),
            }
            for e in report.entries
        ],
    }


def jsonable_table(table: SequenceTable, include_sequences: bool = False) -> dict:
    """The constants are the table's witnesses, each with its link check."""
    w = table.witness
    out = {
        "horizon": table.horizon,
        "omega": q(table.omega),
        "omega_prime_partial_sum": q(w.omega_prime_partial),
        "kappa_upper_envelope": q(w.kappa_ub),
        "horizon_limited": table.horizon_limited,
        "witness_bits": table.bits,
        "link_checks": jsonable_checks(table.links),
    }
    if table.horizon_limited:
        out["kappa_lower_bound_horizon_only"] = q(w.kappa_lb)
        out["omega_prime_upper_bound_horizon_only"] = q(w.omega_prime_ub)
    else:
        out["kappa_lower_bound"] = q(w.kappa_lb)
        out["omega_prime_upper_bound"] = q(w.omega_prime_ub)
        out["kappa_lower_bound_vacuous"] = table.kappa_lb_vacuous
    if include_sequences:
        for name in ("d", "k", "l", "r", "s", "t"):
            out[name] = [q(x) for x in getattr(table, name)]
    return out


def jsonable_rc_lower(cert: rcbounds.RcLowerCertificate) -> dict:
    return {
        "rho": q(cert.rho),
        "delta": q(cert.delta),
        "epsilon": q(cert.epsilon),
        "n0": cert.n0,
        "n": cert.n,
        "N1": q(cert.N1),
        "N2": q(cert.N2),
        "endpoint_lambda1": q(cert.endpoint_lambda1),
        "endpoint_lambda0": q(cert.endpoint_lambda0),
        "kappa_lower_bound": q(cert.kappa_lb),
        "omega": q(cert.omega),
        "reverified": cert.reverify(),
        "checks": jsonable_checks(cert.checks),
    }


def jsonable_rc_upper(result: rcbounds.RcUpperResult) -> dict:
    return {
        "certified_limit_bound": q(result.certified_limit_bound),
        "reverified": result.reverify(),
        "checks": jsonable_checks(result.checks),
    }


def jsonable_separation(report: rcbounds.SeparationReport) -> dict:
    out = {
        "upper_bound": q(report.upper_bound),
        "lower_target": q(report.lower_target),
        "separated": report.separated,
        "status": report.status,
        "advice": report.advice,
        "checks": jsonable_checks(report.checks),
    }
    out["rho"] = q(report.rho) if report.rho is not None else None
    out["certificate"] = (
        jsonable_rc_lower(report.certificate) if report.certificate else None
    )
    return out


def jsonable_flip(report: tracesim.FlipReport) -> dict:
    return {"checks": jsonable_checks(report.checks)}


def jsonable_gap_series(series: tracesim.GapSeries) -> dict:
    return {
        "partial_sum": q(series.partial_sum),
        "total_bound": q(series.total_bound) if series.total_bound is not None else None,
        "summable_certified": series.summable,
        "horizon_limited": series.horizon_limited,
        "checks": jsonable_checks(series.checks),
    }


# ---------------------------------------------------------------------------
# Configuration


#: Largest horizon accepted, refused up front (exit 3).  Tabulation costs
#: grow like H^3 in bit operations; see README for the timings behind it.
MAX_HORIZON = 640

DEFAULT_CONFIG = {
    "family": "geometric",
    "N": 6,
    "horizon": 40,
    "rho": None,
    "grid": tracesim.DEFAULT_RESOLUTION,
}


def resolve_config(config: Optional[dict]) -> dict:
    merged = dict(DEFAULT_CONFIG)
    for key, value in (config or {}).items():
        if value is not None:
            merged[key] = value
    # The trace simulation is exact-only.  A config asking for another
    # representation is refused rather than run with a different meaning.
    representation = merged.pop("carrier", "exact")
    if representation != "exact":
        raise InputError(f"config 'carrier' must be 'exact', got {representation!r}")
    if merged["family"] not in ("geometric", "explicit"):
        raise InputError(f"unknown family kind {merged['family']!r}")
    for key in ("horizon", "N", "grid"):
        if not _is_integer(merged[key]):
            raise InputError(f"config '{key}' must be an integer, got {merged[key]!r}")
    if merged["grid"] < 1:
        raise InputError(f"grid must be >= 1, got {merged['grid']}")
    check_horizon(merged["horizon"])
    if merged["rho"] is not None:
        merged["rho"] = format_rational(as_fraction(merged["rho"]))
    return merged


def check_horizon(horizon: int) -> None:
    """Refuse a horizon above MAX_HORIZON before anything is tabulated."""
    if horizon > MAX_HORIZON:
        raise InputError(f"horizon {horizon} exceeds the cap {MAX_HORIZON}")


def build_family(config: dict) -> ParamFamily:
    if config["family"] == "geometric":
        return make_geometric_family(config["N"])
    d = config.get("d")
    k = config.get("k")
    if d is None or k is None:
        raise InputError("explicit family needs 'd' and 'k' lists")
    d = _integer_list("d", d)
    k = _integer_list("k", k)
    # Validate d and k before a majorant divides by l(j).
    family = make_explicit_family(d, k)
    tail_spec = config.get("tail") or {"type": "none"}
    if not isinstance(tail_spec, dict):
        raise InputError(f"'tail' must be a JSON object, got {tail_spec!r}")
    tail_type = tail_spec.get("type", "none")
    if tail_type == "none":
        return family
    if tail_type == "geometric":
        N = tail_spec.get("N")
        if not _is_integer(N):
            raise InputError(f"geometric tail needs an integer 'N', got {N!r}")
        majorant = geometric_ratio_majorant(d, k, N)
    elif tail_type == "table":
        values = tail_spec.get("values")
        if not isinstance(values, list):
            raise InputError(f"table tail needs a list 'values', got {values!r}")
        majorant = table_majorant(d, k, values)
    else:
        raise InputError(f"unknown tail majorant type {tail_type!r}")
    return replace(family, tail_majorant=majorant)


def _is_integer(x) -> bool:
    """A JSON integer; booleans are not read as 0 and 1, floats not truncated."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer_list(name: str, values) -> list:
    """A list of JSON integers."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"'{name}' must be a list of integers, got {values!r}")
    for x in values:
        if not _is_integer(x):
            raise InputError(f"'{name}' must hold integers, got {x!r}")
    return list(values)


def config_echo(config: dict) -> dict:
    echo = {
        "family": config["family"],
        "horizon": config["horizon"],
        "rho": config["rho"],
        "grid": config["grid"],
    }
    if config["family"] == "geometric":
        echo["N"] = config["N"]
    else:
        echo["d"] = [int(x) for x in config["d"]]
        echo["k"] = [int(x) for x in config["k"]]
        echo["tail"] = config.get("tail") or {"type": "none"}
    return echo


# ---------------------------------------------------------------------------
# The full certification chain


@dataclass(frozen=True)
class TheoremReport:
    verdict: str
    config: dict
    family: ParamFamily
    table: SequenceTable
    constraints: ConstraintReport
    rc_upper: Optional[rcbounds.RcUpperResult]
    separation: Optional[rcbounds.SeparationReport]
    flip: tracesim.FlipReport
    gaps: tracesim.GapSeries
    notes: tuple

    @property
    def exit_code(self) -> int:
        return _VERDICT_EXIT[self.verdict]

    def to_jsonable(self) -> dict:
        chain = [
            "family constraints evaluated exactly, with certified one-sided "
            "bounds standing in for the limit constants",
            "distinguished corner bounded above by 1/(1 - 2 omega) through "
            "the limiting dimension-to-rank ratio",
            "complementary corner bounded below by rho through the "
            "rank-threshold and trace-gap certificate",
            "swap commutes with every connecting matrix and exchanges the "
            "corner classes at every stage",
            "stage-gap series certified summable, so the merged and split "
            "systems share their limiting trace data",
            "an algebra automorphism inducing the flip would carry one "
            "corner onto the other and force equal radii of comparison, "
            "contradicting the separation above",
        ]
        return {
            "schema_version": SCHEMA_VERSION,
            "config": config_echo(self.config),
            "family": _family_description(self.family),
            "constants": jsonable_table(self.table),
            "constraints": jsonable_constraints(self.constraints),
            "rc_upper": jsonable_rc_upper(self.rc_upper) if self.rc_upper else None,
            "separation": (
                jsonable_separation(self.separation) if self.separation else None
            ),
            "flip": jsonable_flip(self.flip),
            "gap_series": jsonable_gap_series(self.gaps),
            "assumptions": list(ASSUMPTIONS),
            "chain": chain,
            "notes": list(self.notes),
            "verdict": self.verdict,
        }


def _family_description(family: ParamFamily) -> dict:
    desc = dict(family.description)
    if "telescoped_from" in desc:
        desc["telescoped_from"] = dict(desc["telescoped_from"])
    return desc


def certify_theorem(config: Optional[dict] = None) -> TheoremReport:
    """Run the full chain: constraints, corner separation, flip, gap series.

    The verdict is Certified only when every sub-record is verified with
    bounds that remain valid beyond the horizon; an exact counterexample
    anywhere gives Refuted; anything undecided within the horizon gives
    InconclusiveAtHorizon.  The family is tabulated once; a chain left
    undecided at the table's witness precision is rerun at more bits, and
    last on the exact values (``params.first_decided``).
    """
    cfg = resolve_config(config)
    family = build_family(cfg)
    rho = as_fraction(cfg["rho"]) if cfg["rho"] is not None else None
    table = sequences(family, cfg["horizon"])
    chain = first_decided(
        table,
        lambda t: _decide(t, rho),
        decided=lambda outcome: outcome[0] != VERDICT_INCONCLUSIVE,
    )
    verdict, table, constraints, rc_up, sep, notes = chain

    if table.horizon_limited and verdict != VERDICT_REFUTED:
        if verdict == VERDICT_CERTIFIED:
            verdict = VERDICT_INCONCLUSIVE
        notes.append(HORIZON_LIMITED_REASON)

    return TheoremReport(
        verdict=verdict,
        config=cfg,
        family=family,
        table=table,
        constraints=constraints,
        rc_upper=rc_up,
        separation=sep,
        flip=flip_compatibility(table),
        gaps=gap_series(table),
        notes=tuple(notes),
    )


def _decide(table: SequenceTable, rho):
    """The chain's verdict at the table's witness precision."""
    constraints = check_constraints(table)
    rc_up = None
    sep = None
    notes = []
    if constraints.exactly_refuted:
        verdict = VERDICT_REFUTED
        failing = [e.name for e in constraints.entries if e.status == "fail"]
        notes.append(f"constraints exactly refuted: {', '.join(failing)}")
    elif not constraints.all_passed:
        verdict = VERDICT_INCONCLUSIVE
        undecided = [
            e.name for e in constraints.entries if e.status == "inconclusive"
        ]
        notes.append(f"constraints undecided at this horizon: {', '.join(undecided)}")
    else:
        # On the exact values this cannot raise: t(H)/r(H) <= omega +
        # omega'_partial, so the passed omega_window constraint gives
        # t(H)/r(H) + tail(H) < 2 omega.  A witness may round across 2 omega;
        # first_decided then retries at more bits.
        rc_up = rcbounds.rc_upper(table)
        try:
            sep = rcbounds.separation(table, rho=rho)
        except InconclusiveAtHorizon as exc:
            verdict = VERDICT_INCONCLUSIVE
            notes.append(f"lower certificate search inconclusive: {exc}")
        else:
            if not sep.separated:
                verdict = VERDICT_INCONCLUSIVE
                notes.append(sep.advice)
            else:
                verdict = VERDICT_CERTIFIED
    return verdict, table, constraints, rc_up, sep, notes


def render_report(payload: dict) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
