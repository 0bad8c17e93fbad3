"""Command-line interface: every capability as a subcommand with JSON reports.

Exit codes: 0 certified / verified, 1 refuted by an exact counter-witness,
2 inconclusive at the given horizon, 3 malformed input (including usage
errors), 4 internal failure (a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import chern as chern_mod
from . import rcbounds, tracesim
from .telescope import telescope as run_telescope
from .errors import ConsistencyError, InconclusiveAtHorizon, InputError
from .params import check_constraints, first_decided, sequences
from .pipeline import (
    EXIT_CERTIFIED,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL_ERROR,
    EXIT_REFUTED,
    HORIZON_LIMITED_REASON,
    SCHEMA_VERSION,
    build_family,
    certify_theorem,
    check_horizon,
    config_echo,
    jsonable_checks,
    jsonable_constraints,
    jsonable_flip,
    jsonable_gap_series,
    jsonable_rc_lower,
    jsonable_rc_upper,
    jsonable_table,
    q,
    render_report,
    resolve_config,
)
from .rationals import as_fraction

SUBCOMMANDS = (
    "params",
    "certify",
    "rc-lower",
    "rc-upper",
    "chern",
    "telescope",
    "trace-sim",
    "density",
)


class _Parser(argparse.ArgumentParser):
    """Usage errors are malformed input (exit 3), not argparse's exit 2,
    which would read as InconclusiveAtHorizon."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ahcert`` parser, built on first use and shared after that.

    Parsing leaves the parser unchanged and returns a fresh namespace, so
    one parser serves every ``main`` call in a process.
    """
    parser = _Parser(
        prog="ahcert",
        description=(
            "exact-arithmetic certification for a two-tower diagonal system: "
            "sequence constraints, comparison-radius bounds, the order-two "
            "flip, and trace-space simulations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file mirroring the flags")
        p.add_argument("--family", choices=["geometric", "explicit"])
        p.add_argument("--N", type=int, help="geometric family base")
        p.add_argument("--spec", help="JSON file with explicit d, k (and tail)")
        p.add_argument("--horizon", type=int)
        p.add_argument("--rho", help="rational p/q")
        p.add_argument("--grid", type=int, help="grid resolution")
        p.add_argument("--out", help="write the JSON report to this path")

    for name in ("params", "certify", "rc-lower", "rc-upper"):
        add_common(sub.add_parser(name))

    p_chern = sub.add_parser("chern")
    add_common(p_chern)
    p_chern.add_argument(
        "--k", type=int, default=10, help="verify ranks for 0..k (default 10)"
    )

    p_tel = sub.add_parser("telescope")
    add_common(p_tel)
    p_tel.add_argument("--nu", help="comma-separated stage selection, e.g. 0,1,3")

    p_sim = sub.add_parser("trace-sim")
    add_common(p_sim)
    p_sim.add_argument(
        "--stages", type=int, default=8, help="intertwining ladder stages"
    )

    p_den = sub.add_parser("density")
    add_common(p_den)
    p_den.add_argument("--points", help="comma-separated rationals in [0,1]")
    p_den.add_argument(
        "--van-der-corput", type=int, dest="vdc", help="use the first M points"
    )
    p_den.add_argument("--epsilon", default="1/64", help="window width (rational)")
    p_den.add_argument(
        "--start-index", type=int, default=0, help="discard points before this index"
    )
    return parser


def load_config(args: argparse.Namespace) -> dict:
    config = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise InputError("config file must contain a JSON object")
        config.update(loaded)
    if getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not isinstance(spec, dict):
            raise InputError("family spec file must contain a JSON object")
        for key in ("d", "k", "tail"):
            if key in spec:
                config[key] = spec[key]
        config.setdefault("family", "explicit")
    for key in ("family", "N", "horizon", "rho", "grid", "out"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return resolve_config(config)


def emit(payload: dict, out_path, exit_code: int) -> int:
    text = render_report(payload)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{payload['verdict']}: {out_path}")
    else:
        sys.stdout.write(text)
    return exit_code


def _status_exit(all_passed: bool, refuted: bool) -> tuple:
    if refuted:
        return "Refuted", EXIT_REFUTED
    if all_passed:
        return "Certified", EXIT_CERTIFIED
    return "InconclusiveAtHorizon", EXIT_INCONCLUSIVE


def cmd_params(args) -> int:
    cfg = load_config(args)
    family = build_family(cfg)
    report = first_decided(
        sequences(family, cfg["horizon"]),
        check_constraints,
        decided=lambda r: r.all_passed or r.exactly_refuted,
    )
    verdict, code = _status_exit(report.all_passed, report.exactly_refuted)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo(cfg),
        "family": dict(family.description),
        "constants": jsonable_table(report.table, include_sequences=True),
        "constraints": jsonable_constraints(report),
        "verdict": verdict,
    }
    return emit(payload, cfg.get("out"), code)


def cmd_certify(args) -> int:
    cfg = load_config(args)
    report = certify_theorem(cfg)
    return emit(report.to_jsonable(), cfg.get("out"), report.exit_code)


def cmd_rc_lower(args) -> int:
    cfg = load_config(args)
    family = build_family(cfg)
    table = sequences(family, cfg["horizon"])
    rho = as_fraction(cfg["rho"]) if cfg["rho"] is not None else Fraction(3, 2)
    payload = {"schema_version": SCHEMA_VERSION, "config": config_echo(cfg)}
    try:
        cert = first_decided(table, lambda t: rcbounds.certify_rc_lower(t, rho))
    except InconclusiveAtHorizon as exc:
        payload.update(verdict="InconclusiveAtHorizon", reason=str(exc))
        return emit(payload, cfg.get("out"), EXIT_INCONCLUSIVE)
    payload["certificate"] = jsonable_rc_lower(cert)
    if table.horizon_limited:
        payload.update(verdict="InconclusiveAtHorizon", reason=HORIZON_LIMITED_REASON)
        return emit(payload, cfg.get("out"), EXIT_INCONCLUSIVE)
    payload["verdict"] = "Certified"
    return emit(payload, cfg.get("out"), EXIT_CERTIFIED)


def cmd_rc_upper(args) -> int:
    cfg = load_config(args)
    family = build_family(cfg)
    table = sequences(family, cfg["horizon"])
    payload = {"schema_version": SCHEMA_VERSION, "config": config_echo(cfg)}
    try:
        result = first_decided(table, rcbounds.rc_upper)
    except InconclusiveAtHorizon as exc:
        payload.update(verdict="InconclusiveAtHorizon", reason=str(exc))
        return emit(payload, cfg.get("out"), EXIT_INCONCLUSIVE)
    payload["rc_upper"] = jsonable_rc_upper(result)
    if table.horizon_limited:
        payload.update(verdict="InconclusiveAtHorizon", reason=HORIZON_LIMITED_REASON)
        return emit(payload, cfg.get("out"), EXIT_INCONCLUSIVE)
    payload["verdict"] = "Certified"
    return emit(payload, cfg.get("out"), EXIT_CERTIFIED)


def cmd_chern(args) -> int:
    cfg = load_config(args)
    if args.k < 0:
        raise InputError(f"--k must be >= 0, got {args.k}")
    if args.k > chern_mod.MAX_GENERATORS:
        raise InputError(f"--k {args.k} exceeds the cap {chern_mod.MAX_GENERATORS}")
    rows = []
    for k in range(args.k + 1):
        bound = chern_mod.min_trivial_embedding_rank(k)
        rows.append(
            {
                "k": k,
                "min_rank": bound.min_rank,
                "top_coefficient": bound.top_coefficient,
                "complement_rank_lb": bound.complement_rank_lb,
                "product_is_one": bound.product_is_one,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo(cfg),
        "embedding_ranks": rows,
        "verdict": "Certified",
    }
    return emit(payload, cfg.get("out"), EXIT_CERTIFIED)


def cmd_telescope(args) -> int:
    cfg = load_config(args)
    if not args.nu:
        raise InputError("telescope needs --nu, e.g. --nu 0,1,3")
    try:
        nu = [int(x) for x in args.nu.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise InputError(f"malformed --nu {args.nu!r}: {exc}") from exc
    family = build_family(cfg)
    result = run_telescope(family, nu, cfg["horizon"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo(cfg),
        "nu": list(result.nu),
        "new_family": {
            "d": [q(x) for x in result.new_table.d],
            "k": [q(x) for x in result.new_table.k],
        },
        "new_constants": jsonable_table(result.new_table),
        "checks": jsonable_checks(result.checks),
        "assumption": result.assumption,
        "verdict": "Certified" if result.verified else "Refuted",
    }
    code = EXIT_CERTIFIED if result.verified else EXIT_REFUTED
    return emit(payload, cfg.get("out"), code)


def cmd_trace_sim(args) -> int:
    cfg = load_config(args)
    stages = args.stages
    if stages < 0:
        raise InputError(f"--stages must be >= 0, got {stages}")
    if stages > tracesim.MAX_STAGES:
        raise InputError(f"--stages {stages} exceeds the cap {tracesim.MAX_STAGES}")
    family = build_family(cfg)
    horizon = max(cfg["horizon"], stages)
    check_horizon(horizon)
    table = sequences(family, horizon)
    system_a, system_b = tracesim.synthetic_system_pair(table, stages)
    v = tracesim.GridFunction(cfg["grid"], ((0, 0), (cfg["grid"], 1)))  # v(x) = x
    # simulate_intertwining raises on a step above its bound, so a result
    # that comes back is Certified.
    result = tracesim.simulate_intertwining(system_a, system_b, v, 0, stages)
    series = tracesim.gap_series(table)
    flip = tracesim.flip_compatibility(table)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo(cfg),
        "intertwining": {
            "stages": stages,
            "step_distances": [q(d) for d in result.step_distances],
            "step_bounds": [q(b) for b in result.step_bounds],
            "all_within_bounds": True,
            "synthetic_maps": True,
        },
        "gap_series": jsonable_gap_series(series),
        "flip": jsonable_flip(flip),
        "verdict": "Certified",
    }
    return emit(payload, cfg.get("out"), EXIT_CERTIFIED)


def cmd_density(args) -> int:
    cfg = load_config(args)
    if args.points:
        points = [as_fraction(tok) for tok in args.points.split(",") if tok.strip()]
        source = "explicit"
    elif args.vdc is not None:
        if args.vdc < 1:
            raise InputError(f"--van-der-corput must be >= 1, got {args.vdc}")
        points = tracesim.van_der_corput(args.vdc)
        source = f"van-der-corput({args.vdc})"
    else:
        raise InputError("density needs --points or --van-der-corput")
    epsilon = as_fraction(args.epsilon)
    dense = tracesim.density_check(points, args.start_index, epsilon)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": config_echo(cfg),
        "source": source,
        "count": len(points),
        "start_index": args.start_index,
        "epsilon": q(epsilon),
        "dense": dense,
        "verdict": "Certified" if dense else "Refuted",
    }
    code = EXIT_CERTIFIED if dense else EXIT_REFUTED
    return emit(payload, cfg.get("out"), code)


_HANDLERS = {
    "params": cmd_params,
    "certify": cmd_certify,
    "rc-lower": cmd_rc_lower,
    "rc-upper": cmd_rc_upper,
    "chern": cmd_chern,
    "telescope": cmd_telescope,
    "trace-sim": cmd_trace_sim,
    "density": cmd_density,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except InconclusiveAtHorizon as exc:
        print(f"inconclusive at horizon: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # the outermost boundary: one line, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
