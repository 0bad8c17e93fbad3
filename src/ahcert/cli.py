"""Command-line interface: every capability as a subcommand with JSON reports.

Exit codes: 0 certified / verified, 1 refuted by an exact counter-witness,
2 inconclusive at the given horizon, 3 malformed input (including usage
errors), 4 internal failure (a bug, never a verdict).

Importing this module loads only ``errors`` from the package; each handler
imports what it runs, by function-local ``from .x import f`` at each call.
"""

import argparse
import functools
import json
import sys

from .errors import EXIT_INCONCLUSIVE, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR
from .errors import ConsistencyError, InconclusiveAtHorizon, InputError


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
    from .rationals import integer as numeral

    def integer(text: str) -> int:
        """An ASCII numeral (int() alone takes 1_0 and non-ASCII digits) within
        int()'s digit limit, past which no report or message could print it."""
        numeral(text)
        return int(text)

    def integers(text: str) -> list:
        return [integer(x) for x in text.split(",") if x.strip()]

    parser = _Parser(
        prog="ahcert",
        description=(
            "exact-arithmetic certification for a two-tower diagonal system: "
            "sequence constraints, comparison-radius bounds, the order-two "
            "flip, and trace-space simulations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON file mirroring the flags")
        p.add_argument("--family", choices=["geometric", "explicit"])
        p.add_argument("--N", type=integer, help="geometric family base")
        p.add_argument("--spec", help="JSON file with explicit d, k (and tail)")
        p.add_argument("--horizon", type=integer)
        p.add_argument("--rho", help="rational p/q")
        p.add_argument("--grid", type=integer, help="grid resolution")
        p.add_argument("--out", help="write the JSON report to this path")
        return p

    command("params", cmd_params)
    command("certify", cmd_certify)
    command("rc-lower", cmd_rc_bound)
    command("rc-upper", cmd_rc_bound)
    command("chern", cmd_chern).add_argument(
        "--k", type=integer, default=10, help="verify ranks for 0..k (default 10)"
    )
    command("telescope", cmd_telescope).add_argument(
        "--nu", type=integers, help="comma-separated stage selection, e.g. 0,1,3"
    )
    command("trace-sim", cmd_trace_sim).add_argument(
        "--stages", type=integer, default=8, help="intertwining ladder stages"
    )
    p_den = command("density", cmd_density)
    p_den.add_argument("--points", help="comma-separated rationals in [0,1]")
    p_den.add_argument(
        "--van-der-corput", type=integer, dest="vdc", help="use the first M points"
    )
    p_den.add_argument("--epsilon", default="1/64", help="window width (rational)")
    p_den.add_argument(
        "--start-index", type=integer, default=0, help="discard points before this index"
    )
    return parser


def _read_json(path: str):
    """The JSON value in the file at ``path``.  Malformed JSON, and an
    integer past the interpreter's int-to-str digit limit (a plain
    ValueError from ``json.load``), are input errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from exc


def merge_config(args: argparse.Namespace) -> dict:
    """The config file, the spec file and the flags, merged in that order."""
    config = {}
    if args.config:
        loaded = _read_json(args.config)
        if not isinstance(loaded, dict):
            raise InputError("config file must contain a JSON object")
        config.update(loaded)
    if getattr(args, "spec", None):
        from .pipeline import SPEC_KEYS, refuse_unknown_keys
        spec = _read_json(args.spec)
        if not isinstance(spec, dict):
            raise InputError("family spec file must contain a JSON object")
        refuse_unknown_keys("spec", spec, SPEC_KEYS)
        config.update(spec)
        config.setdefault("family", "explicit")
    for key in ("family", "N", "horizon", "rho", "grid", "out"):
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def load_config(args: argparse.Namespace) -> dict:
    from .pipeline import resolve_config
    return resolve_config(merge_config(args))


def emit(cfg: dict, payload: dict) -> int:
    """Write the report to stdout or ``--out``; return its verdict's exit code."""
    from .pipeline import VERDICT_EXIT, render_report
    text = render_report(payload)
    out_path = cfg.get("out")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"{payload['verdict']}: {out_path}")
    else:
        sys.stdout.write(text)
    return VERDICT_EXIT[payload["verdict"]]


# Each handler returns its resolved config and its report, for ``emit``.


def cmd_params(args):
    from .params import check_constraints, first_decided, sequences
    from .pipeline import (HORIZON_LIMITED_REASON, VERDICT_CERTIFIED, VERDICT_INCONCLUSIVE,
                           VERDICT_REFUTED, build_family, report, table_json)
    cfg = load_config(args)
    constraints = first_decided(
        sequences(build_family(cfg), cfg["horizon"]),
        check_constraints,
        decided=lambda r: r.all_passed or r.exactly_refuted,
    )
    sections = {}
    if constraints.exactly_refuted:
        verdict = VERDICT_REFUTED
    elif constraints.table.horizon_limited:
        # Without a tail majorant no limit constraint holds beyond the horizon.
        verdict = VERDICT_INCONCLUSIVE
        sections["reason"] = HORIZON_LIMITED_REASON
    else:
        verdict = VERDICT_CERTIFIED if constraints.all_passed else VERDICT_INCONCLUSIVE
    return cfg, report(
        cfg,
        verdict,
        constants=table_json(constraints.table),
        constraints=constraints,
        **sections,
    )


def cmd_certify(args):
    from .pipeline import certify_theorem
    result = certify_theorem(merge_config(args))
    return result.config, result.to_jsonable()


def cmd_rc_bound(args):
    """``rc-lower`` and ``rc-upper``: one certificate attempt on the table."""
    from . import rcbounds
    from .params import first_decided, sequences
    from .pipeline import (HORIZON_LIMITED_REASON, VERDICT_CERTIFIED, VERDICT_INCONCLUSIVE,
                           build_family, report)
    from .rationals import as_fraction
    cfg = load_config(args)
    table = sequences(build_family(cfg), cfg["horizon"])
    if args.command == "rc-lower":
        rho = as_fraction(cfg["rho"] or "3/2")
        key, attempt = "certificate", lambda t: rcbounds.certify_rc_lower(t, rho)
    else:
        key, attempt = "rc_upper", rcbounds.rc_upper
    try:
        result = first_decided(table, attempt)
    except InconclusiveAtHorizon as exc:
        return cfg, report(cfg, VERDICT_INCONCLUSIVE, reason=str(exc))
    if table.horizon_limited:
        sections = {key: result, "reason": HORIZON_LIMITED_REASON}
        return cfg, report(cfg, VERDICT_INCONCLUSIVE, **sections)
    return cfg, report(cfg, VERDICT_CERTIFIED, **{key: result})


def cmd_chern(args):
    from .chern import MAX_GENERATORS, min_trivial_embedding_rank
    from .pipeline import VERDICT_CERTIFIED, report
    cfg = load_config(args)
    if args.k < 0:
        raise InputError(f"--k must be >= 0, got {args.k}")
    if args.k > MAX_GENERATORS:
        raise InputError(f"--k {args.k} exceeds the cap {MAX_GENERATORS}")
    rows = [min_trivial_embedding_rank(k) for k in range(args.k + 1)]
    return cfg, report(cfg, VERDICT_CERTIFIED, embedding_ranks=rows)


def cmd_telescope(args):
    from .pipeline import (VERDICT_CERTIFIED, VERDICT_REFUTED, build_family, report,
                           sequence_json, table_json)
    from .telescope import telescope
    cfg = load_config(args)
    if not args.nu:
        raise InputError("telescope needs --nu, e.g. --nu 0,1,3")
    result = telescope(build_family(cfg), args.nu, cfg["horizon"])
    new = result.new_table
    return cfg, report(
        cfg,
        VERDICT_CERTIFIED if result.verified else VERDICT_REFUTED,
        nu=result.nu,
        new_family={"d": sequence_json(new.d), "k": sequence_json(new.k)},
        new_constants=table_json(new),
        checks=result.checks,
        assumption=result.assumption,
    )


def cmd_trace_sim(args):
    from . import tracesim
    from .params import sequences
    from .pipeline import VERDICT_CERTIFIED, build_family, check_horizon, report
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
    v = tracesim.GridFunction(0, 1)  # v(x) = x
    # simulate_intertwining raises on a step above its bound, so a result
    # that comes back is Certified.
    result = tracesim.simulate_intertwining(system_a, system_b, v, 0, stages)
    intertwining = {
        "stages": stages,
        "step_distances": result.step_distances,
        "step_bounds": result.step_bounds,
        "all_within_bounds": True,
    }
    return cfg, report(
        cfg,
        VERDICT_CERTIFIED,
        intertwining=intertwining,
        gap_series=tracesim.gap_series(table),
        flip=tracesim.flip_compatibility(table),
    )


def cmd_density(args):
    from . import tracesim
    from .pipeline import VERDICT_CERTIFIED, VERDICT_REFUTED, report
    from .rationals import as_fraction
    cfg = load_config(args)
    if args.points:
        points = [as_fraction(tok) for tok in args.points.split(",") if tok.strip()]
        source = "explicit"
    elif args.vdc is not None:
        if args.vdc < 1:
            raise InputError(f"--van-der-corput must be >= 1, got {args.vdc}")
        if args.vdc > tracesim.MAX_POINTS:
            raise InputError(
                f"--van-der-corput {args.vdc} exceeds the cap {tracesim.MAX_POINTS}"
            )
        points = tracesim.van_der_corput(args.vdc)
        source = f"van-der-corput({args.vdc})"
    else:
        raise InputError("density needs --points or --van-der-corput")
    epsilon = as_fraction(args.epsilon)
    dense = tracesim.density_check(points, args.start_index, epsilon)
    return cfg, report(
        cfg,
        VERDICT_CERTIFIED if dense else VERDICT_REFUTED,
        source=source,
        count=len(points),
        start_index=args.start_index,
        epsilon=epsilon,
        dense=dense,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return emit(*args.handler(args))
    except (InputError, OSError) as exc:
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
