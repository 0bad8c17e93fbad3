"""End-to-end certification pipeline and the one JSON report format.

A report is a dict built by ``report`` whose sections are the results as
they come: JSON values, ``Fraction``s and result dataclasses.  One walk,
``render_report``, writes it with canonical key order, so identical
configurations produce byte-identical reports.  Each result class names
its own report keys (``_report_keys``), so this module imports
``rcbounds`` and ``tracesim`` only when ``certify_theorem`` runs them.
The rendering rule: every rational is "p/q" in lowest terms; indices and
counts (horizons, stages, bits, generator counts) are JSON integers; the
ranks ``N1``/``N2`` and the d and k entries of a telescoped family are
"p/1".  No report lists the stages of the tabulated family: the config
echo states the family, and the constants are its witnesses at the
horizon.  On a plain JSON payload the canonical text is the one
``json.dumps(payload, sort_keys=True, indent=2)`` gives, plus a newline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, is_dataclass, replace
from fractions import Fraction
from importlib import import_module
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

# The exit codes are defined in errors; pipeline.EXIT_* name them too.
from .errors import EXIT_CERTIFIED, EXIT_INCONCLUSIVE, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR
from .errors import EXIT_REFUTED, InconclusiveAtHorizon, InputError
from .params import (
    ConstraintReport,
    Enclosure,
    ParamFamily,
    SequenceTable,
    check_constraints,
    first_decided,
    geometric_ratio_majorant,
    is_integer,
    make_explicit_family,
    make_geometric_family,
    sequences,
    table_majorant,
)
from .rationals import as_fraction, format_rational

if TYPE_CHECKING:  # the result types in TheoremReport's annotations
    from . import rcbounds, tracesim

SCHEMA_VERSION = "5"

VERDICT_CERTIFIED = "Certified"
VERDICT_REFUTED = "Refuted"
VERDICT_INCONCLUSIVE = "InconclusiveAtHorizon"

HORIZON_LIMITED_REASON = (
    "family has no tail majorant: bounds are horizon-limited, so "
    "nothing is certified beyond the tabulated stages"
)

#: The one map from a verdict to the process exit code.
VERDICT_EXIT = {
    VERDICT_CERTIFIED: EXIT_CERTIFIED,
    VERDICT_REFUTED: EXIT_REFUTED,
    VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
}

CHAIN = (
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
)

ASSUMPTIONS = (
    "unitary cancellation of projections with equal class over the "
    "contractible stage spaces (stable rank one) is imported, not verified",
    "the mean-dimension bound rc <= (limiting dimension ratio)/2 for "
    "simple diagonal systems is imported, not verified",
    "interval-side stage maps are opaque: only their counts and agreement "
    "pattern enter the verified claims",
)


# ---------------------------------------------------------------------------
# Reports


def render_report(payload) -> str:
    """The canonical text of a report: sorted keys, two-space indent,
    ASCII-escaped strings and a trailing newline, written in one walk.

    It takes JSON values (``str``, ``int``, ``bool``, ``None``, lists,
    tuples and dicts with ``str`` keys) and the report's own values: a
    ``Fraction`` is written "p/q", an ``Enclosure`` (the exact side of a
    link check) as its ``side``, a result dataclass as its fields, as
    adjusted by its class's ``_report_keys``.  On a JSON payload the text is
    ``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, which
    runs its pure-Python encoder whenever it indents.  Dispatch is on the
    exact type, with subclasses of the JSON types written as their base.
    A list whose items are all exactly ``str``, or all exactly ``int``
    (booleans excluded), is written with one ``join``.  Ints go through
    ``int.__repr__``, so an int past the 4300-digit limit raises
    ``ValueError`` as in ``json.dumps``; a float, a set, a non-``str``
    key or any other class raises ``TypeError``.
    """
    parts = []
    _write(payload, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


_quote = encode_basestring_ascii


def _fraction_text(value: Fraction) -> str:
    try:
        return f'"{value.numerator}/{value.denominator}"'
    except ValueError:  # beyond the interpreter's int-to-str digit limit
        return f'"{format_rational(value)}"'


#: The text of a value of each exact scalar type.
_TEXT = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    Fraction: _fraction_text,
    Enclosure: lambda value: _quote(value.side),
}


def _write(value, newline: str, emit) -> None:
    """Emit the JSON text of ``value``; ``newline`` starts its lines."""
    text = _TEXT.get(type(value))
    if text is None:
        _writer(type(value))(value, newline, emit)
    else:
        emit(text(value))


@functools.cache
def _writer(cls):
    """The writer of the values of a class that is not in ``_TEXT``:
    subclasses of the JSON types are written as their base, a dataclass
    by its report keys, anything else is refused.  A dataclass's report
    keys are its fields, updated by its ``_report_keys``: a getter per key
    it adds or renames, None per field it drops."""
    if issubclass(cls, str):
        return lambda value, newline, emit: emit(_quote(value))
    if issubclass(cls, int):
        return lambda value, newline, emit: emit(int.__repr__(value))
    if issubclass(cls, (list, tuple)):
        return _write_list
    if issubclass(cls, dict):
        return _write_dict
    if not is_dataclass(cls):
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    keys = {f.name: attrgetter(f.name) for f in fields(cls)}
    keys.update(getattr(cls, "_report_keys", {}))
    keys = tuple((_quote(key), keys[key]) for key in sorted(keys) if keys[key] is not None)
    return functools.partial(_write_fields, keys, {})


def _write_list(value, newline: str, emit) -> None:
    if not value:
        emit("[]")
        return
    inner = newline + "  "
    separator = "," + inner
    kind = type(value[0])
    if (kind is str or kind is int) and len(set(map(type, value))) == 1:
        emit("[" + inner)
        emit(separator.join(map(_TEXT[kind], value)))
    else:
        prefix = "[" + inner
        for item in value:
            emit(prefix)
            _write(item, inner, emit)
            prefix = separator
    emit(newline + "]")


def _write_dict(value: dict, newline: str, emit) -> None:
    if not value:
        emit("{}")
        return
    inner = newline + "  "
    prefix = "{" + inner
    for key in sorted(value):
        # The C escape raises TypeError for a key that is not a str.
        emit(prefix + _quote(key) + ": ")
        _write(value[key], inner, emit)
        prefix = "," + inner
    emit(newline + "}")


def _write_fields(keys: tuple, layouts: dict, value, newline: str, emit) -> None:
    """Emit a dataclass by its report ``keys``, (escaped key, getter)
    pairs in key order; ``layouts`` keeps the text before each value, by
    indent."""
    layout = layouts.get(newline)
    if layout is None:
        inner = newline + "  "
        layout = layouts[newline] = tuple(
            (("," if i else "{") + inner + key + ": ", get)
            for i, (key, get) in enumerate(keys)
        )
    if not layout:
        emit("{}")
        return
    inner = newline + "  "
    for prefix, get in layout:
        emit(prefix)
        _write(get(value), inner, emit)
    emit(newline + "}")


def table_json(table: SequenceTable) -> dict:
    """The constants are the table's witnesses, each with its link check."""
    w = table.witness
    out = {
        "horizon": table.horizon,
        "omega": table.omega,
        "omega_prime_partial_sum": w.omega_prime_partial,
        "kappa_upper_envelope": w.kappa_ub,
        "horizon_limited": table.horizon_limited,
        "witness_bits": table.bits,
        "link_checks": table.links,
    }
    if table.horizon_limited:
        out["kappa_lower_bound_horizon_only"] = w.kappa_lb
        out["omega_prime_upper_bound_horizon_only"] = w.omega_prime_ub
    else:
        out["kappa_lower_bound"] = w.kappa_lb
        out["omega_prime_upper_bound"] = w.omega_prime_ub
        out["kappa_lower_bound_vacuous"] = table.kappa_lb_vacuous
    return out


def sequence_json(values) -> list:
    """Sequence entries, integers included, rendered "p/q"."""
    return [format_rational(x) for x in values]


def report(cfg: dict, verdict: str, **sections) -> dict:
    """A subcommand's report: its sections as given, the schema version,
    the config echo and the verdict, for ``render_report`` to write."""
    sections["schema_version"] = SCHEMA_VERSION
    sections["config"] = config_echo(cfg)
    sections["verdict"] = verdict
    return sections


# ---------------------------------------------------------------------------
# Configuration


#: Largest horizon accepted, refused up front (exit 3).  ``certify`` reads its
#: starting witnesses off directed-rounding chains of H steps on numbers of
#: about H log2 N bits, and builds the exact horizon values (products of H
#: such integers, about M(H^2) log H bit operations, M(n): one n-bit
#: multiplication) only when they are read; see README.
MAX_HORIZON = 640

#: The ``grid`` a config echoes when it gives none.  ``grid`` is validated
#: (at least 1) and echoed in every report, and reaches nothing else: the
#: trace functions are affine and hold no grid.
DEFAULT_RESOLUTION = 2 ** 12

DEFAULT_CONFIG = {
    "family": "geometric",
    "N": 6,
    "horizon": 40,
    "rho": None,
    "grid": DEFAULT_RESOLUTION,
}

#: The keys a family spec file may set, and with them every key a config
#: may set; any other key is refused, not silently ignored.
SPEC_KEYS = ("d", "k", "tail")
CONFIG_KEYS = ("family", "N", "horizon", "rho", "grid", "out") + SPEC_KEYS

#: The keys a spec's ``tail`` object may set, by majorant type.
TAIL_KEYS = {
    "none": ("type",),
    "geometric": ("type", "N"),
    "table": ("type", "values"),
}


def refuse_unknown_keys(what: str, obj: dict, accepted: tuple) -> None:
    for key in obj:
        if key not in accepted:
            raise InputError(
                f"unknown {what} key {key!r}; accepted keys: {', '.join(accepted)}"
            )


def resolve_config(config: Optional[dict]) -> dict:
    refuse_unknown_keys("config", config or {}, CONFIG_KEYS)
    merged = dict(DEFAULT_CONFIG)
    for key, value in (config or {}).items():
        if value is not None:
            merged[key] = value
    if merged["family"] not in ("geometric", "explicit"):
        raise InputError(f"unknown family kind {merged['family']!r}")
    for key in ("horizon", "N", "grid"):
        if not is_integer(merged[key]):
            raise InputError(f"config '{key}' must be an integer, got {merged[key]!r}")
    if merged["grid"] < 1:
        raise InputError(f"grid must be >= 1, got {merged['grid']}")
    check_horizon(merged["horizon"])
    if merged["rho"] is not None:
        merged["rho"] = format_rational(as_fraction(merged["rho"]))
    if merged["family"] == "explicit":
        if merged.get("d") is None or merged.get("k") is None:
            raise InputError("explicit family needs 'd' and 'k' lists")
        merged["d"] = _integer_list("d", merged["d"])
        merged["k"] = _integer_list("k", merged["k"])
        _check_tail(merged.get("tail"))
    else:
        # A geometric family reads no spec key: refuse one, never ignore it.
        for key in SPEC_KEYS:
            if key in merged:
                raise InputError(
                    f"config key {key!r} needs the explicit family, not {merged['family']!r}"
                )
    return merged


def check_horizon(horizon: int) -> None:
    """Refuse a horizon above MAX_HORIZON before anything is tabulated."""
    if horizon > MAX_HORIZON:
        raise InputError(f"horizon {horizon} exceeds the cap {MAX_HORIZON}")


def build_family(config: dict) -> ParamFamily:
    """The family of a config resolved by ``resolve_config``."""
    if config["family"] == "geometric":
        return make_geometric_family(config["N"])
    d, k = config["d"], config["k"]
    # Validate d and k before a majorant divides by l(j).
    family = make_explicit_family(d, k)
    tail_spec = config.get("tail") or {}
    tail_type = tail_spec.get("type", "none")
    if tail_type == "none":
        return family
    if tail_type == "geometric":
        N = tail_spec.get("N")
        if not is_integer(N):
            raise InputError(f"geometric tail needs an integer 'N', got {N!r}")
        majorant = geometric_ratio_majorant(d, k, N)
    else:
        values = tail_spec.get("values")
        if not isinstance(values, list):
            raise InputError(f"table tail needs a list 'values', got {values!r}")
        majorant = table_majorant(d, k, values)
    return replace(family, tail_majorant=majorant)


def _check_tail(tail) -> None:
    """A spec's tail: absent, or a JSON object of a known majorant type
    that sets only that type's keys (``TAIL_KEYS``)."""
    if tail is None:
        return
    if not isinstance(tail, dict):
        raise InputError(f"'tail' must be a JSON object, got {tail!r}")
    tail_type = tail.get("type", "none")
    if not isinstance(tail_type, str) or tail_type not in TAIL_KEYS:
        raise InputError(f"unknown tail majorant type {tail_type!r}")
    refuse_unknown_keys(f"{tail_type!r} tail", tail, TAIL_KEYS[tail_type])


def _integer_list(name: str, values) -> list:
    """A list of JSON integers."""
    if not isinstance(values, (list, tuple)):
        raise InputError(f"'{name}' must be a list of integers, got {values!r}")
    for x in values:
        if not is_integer(x):
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
        echo["d"] = config["d"]
        echo["k"] = config["k"]
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
        return VERDICT_EXIT[self.verdict]

    def to_jsonable(self) -> dict:
        return report(
            self.config,
            self.verdict,
            constants=table_json(self.table),
            constraints=self.constraints,
            rc_upper=self.rc_upper,
            separation=self.separation,
            flip=self.flip,
            gap_series=self.gaps,
            assumptions=ASSUMPTIONS,
            chain=CHAIN,
            notes=self.notes,
        )


@functools.cache
def _module(name: str):
    """Module ``name`` of this package, imported on first use.  Callers read its
    functions at each call, so they run a wrapped or patched one."""
    return import_module(f".{name}", __package__)


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
        flip=_module("tracesim").flip_compatibility(table),
        gaps=_module("tracesim").gap_series(table),
        notes=tuple(notes),
    )


def _decide(table: SequenceTable, rho):
    """The chain's verdict at the table's witness precision."""
    rcbounds = _module("rcbounds")
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
